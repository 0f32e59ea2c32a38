"""The size policy: one table of limits on what a caller may ask to build.

Each entry names a quantity that an argument sizes, the largest value
allowed, its unit and the reason for the value.  :func:`check` runs before
the allocation or enumeration the quantity sizes and raises ``ValueError``
naming the quantity, the requested size and the limit, so the CLI ends such
a request with exit status 2 instead of a traceback or an hour-long run.
The README's "Limits" section lists the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Limit", "LIMITS", "check"]


@dataclass(frozen=True)
class Limit:
    value: int
    unit: str
    reason: str


LIMITS: dict[str, Limit] = {
    "table_entries": Limit(
        1 << 22, "int64 entries",
        "one permutation table is 32 MB at the limit: heis n <= 2048, "
        "higman p <= 43, z2/bs/zwrz/metab and amplify up to 4194304 points"),
    "count_table": Limit(
        20000, "points",
        "the count a(n) for f^k = id sums big integers of about n log n "
        "bits and keeps the last max(d | k) of them, a fraction of a second "
        "at the limit for k = 4 (count_work bounds a k with many divisors); "
        "the sampler grows bounds on a(0..n), not their exact values"),
    "count_work": Limit(
        250000, "terms",
        "the count a(n) for f^k = id sums one big-integer product per "
        "divisor of k up to n at each of n steps, n times that many terms: "
        "about 4 s for n = 5000, k = 2520 and 6 s for n = 20000, k = 60 "
        "near the limit, about a minute for n = 20000, k = 2520"),
    "ball_elements": Limit(
        10000, "elements",
        "a ball grows about threefold per unit of radius: heis radius 12 "
        "has 8871 elements, metab radius 8 has 13121 and radius 40 about "
        "4 * 3^39; the search stops at the first elements past the limit, "
        "so a refused ball costs at most the limit"),
    "brute_force_n": Limit(
        9, "points",
        "brute force enumerates every f in Sym(n) with f^k = id as a row"),
    "probe_depth": Limit(
        6, "letters",
        "the injectivity probe maps every zwrz normal form of that length"),
    "poly_C": Limit(
        4, "degree",
        "the exhaustive scan tries every polynomial of degree <= C with "
        "coefficients below C, about (2C-1)^(C+1) of them"),
    "heuristic_n": Limit(
        5000, "points",
        "the report carries the exact count, over 4300 digits at the "
        "limit for k = 4"),
}


def check(name: str, size: int) -> None:
    """Raise ``ValueError`` when ``size`` is over the limit called ``name``."""
    limit = LIMITS[name]
    if size > limit.value:
        raise ValueError(
            f"{name} limit: {size} requested, over the limit of "
            f"{limit.value} {limit.unit}; {limit.reason}")

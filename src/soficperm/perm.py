"""Permutation arithmetic on {0, ..., n-1} and the normalized Hamming metric.

Permutations are stored as immutable image arrays: ``images[x]`` is the value
at ``x``.  Composition is right-to-left throughout: ``compose(f, g)`` applies
``g`` first, so ``compose(f, g)(x) == f(g(x))``.  Conjugation ``f^t`` means
``t^-1 f t``.

Distances are exact: :func:`hamming` returns a ``fractions.Fraction``;
:func:`hamming_count` returns the raw disagreement count.  Floating point is
for display only.

The class {f in Sym(n) : f^k = id} is built here and nowhere else, by one
recursion: the smallest free point opens a cycle of length d | k, its d - 1
partners are an ordered choice among the other r - 1 free points, and the
remaining r - d points are filled the same way.  There are
(r-1)!/(r-d)! * a(r-d) ways down the branch for d.  Counting sums the
branches (:func:`count_order_dividing`, one exact table per k grown on
demand by :func:`_grow`); sampling walks one path, choosing each branch with
probability proportional to its size (:func:`sample_order_k`); enumeration
writes every leaf as a row (:func:`_order_dividing_rows`, the brute-force
search space).

Sampling reads no exact table.  It walks on certified bounds
lo * 2**e <= a(j) <= hi * 2**e with mantissas of about 128 bits, grown by
the same recurrence with outward rounding (:func:`_bounds`), and makes
exactly the RNG calls of ``rng.randrange(a(r))`` on the exact values.
Each comparison the bounds leave open is settled by the exact table
(:func:`_below`); at 128 bits that does not happen in practice.

The tables of :func:`amplify`, :func:`_counts` and :func:`_bounds` are
checked against :mod:`soficperm.limits` before they grow (see "Limits" in
the README).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import limits

__all__ = [
    "Perm",
    "CycleDecomposition",
    "BigCount",
    "compose",
    "conjugate",
    "inverse",
    "power",
    "hamming",
    "hamming_count",
    "cycle_decomposition",
    "order_of",
    "order_divides",
    "project_to_order",
    "amplify",
    "count_order_dividing",
    "sample_order_k",
    "random_perm",
]

# Exact counts get big fast; plain Python ints already are arbitrary precision.
BigCount = int

_BOOL_TYPES = frozenset({bool, np.bool_})


class Perm:
    """A permutation of {0, ..., n-1} held as a read-only int64 image array."""

    __slots__ = ("_images", "_hash")

    def __init__(self, images: Sequence[int] | np.ndarray, *, _trusted: bool = False):
        arr = np.asarray(images, dtype=np.int64 if _trusted else None)
        if arr.ndim != 1:
            raise ValueError("images must be one-dimensional")
        if not _trusted:
            n = arr.shape[0]
            if n == 0:
                raise ValueError("degree must be positive")
            # the int64 cast would truncate floats, and numpy reads bools
            # mixed into ints as 0 and 1
            if arr.dtype.kind not in "iu" or (
                    not isinstance(images, np.ndarray)
                    and not _BOOL_TYPES.isdisjoint(map(type, images))):
                raise ValueError("images must be integers")
            arr = arr.astype(np.int64)
            seen = np.zeros(n, dtype=bool)
            if arr.min(initial=0) < 0 or arr.max(initial=-1) >= n:
                raise ValueError("images must lie in [0, n)")
            seen[arr] = True
            if not seen.all():
                raise ValueError("images contain duplicates; not a bijection")
        if arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
        self._images = arr
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "Perm":
        if n < 1:
            raise ValueError("degree must be positive")
        return cls(np.arange(n, dtype=np.int64), _trusted=True)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Build a permutation from disjoint cycles; unlisted points are fixed."""
        images = np.arange(n, dtype=np.int64)
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                if not 0 <= x < n:
                    raise ValueError(f"cycle entry {x} outside [0, {n})")
                if x in seen:
                    raise ValueError(f"point {x} appears in two cycles")
                seen.add(x)
            _write_cycle(images, cycle)
        return cls(images, _trusted=True)

    @property
    def n(self) -> int:
        return self._images.shape[0]

    @property
    def images(self) -> np.ndarray:
        return self._images

    def __call__(self, x: int) -> int:
        return int(self._images[x])

    def __len__(self) -> int:
        return self._images.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self._images.shape == other._images.shape and bool(
            np.array_equal(self._images, other._images)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._images.tobytes())
        return self._hash

    def __repr__(self) -> str:
        if self.n <= 12:
            return f"Perm({self._images.tolist()})"
        return f"Perm(n={self.n}, {self._images[:8].tolist()}...)"

    def is_identity(self) -> bool:
        return bool(np.array_equal(self._images, np.arange(self.n, dtype=np.int64)))

    def tolist(self) -> list[int]:
        return self._images.tolist()


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles partitioning {0, ..., n-1}, each in application order.

    Every cycle starts at its minimum and cycles are sorted by that minimum,
    so the decomposition is canonical.  Fixed points appear as 1-cycles.
    """

    n: int
    cycles: tuple[tuple[int, ...], ...]

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)


def _write_cycle(images, cycle: Sequence[int]) -> None:
    """Set ``images[x]`` to the successor of each x along ``cycle``."""
    for i, x in enumerate(cycle):
        images[x] = cycle[(i + 1) % len(cycle)]


def _require_same_degree(f: Perm, g: Perm) -> None:
    if f.n != g.n:
        raise ValueError(f"degree mismatch: {f.n} != {g.n}")


def compose(f: Perm, g: Perm) -> Perm:
    """Right-to-left composition: ``compose(f, g)(x) == f(g(x))``."""
    _require_same_degree(f, g)
    return Perm(f.images[g.images], _trusted=True)


def inverse(f: Perm) -> Perm:
    inv = np.empty(f.n, dtype=np.int64)
    inv[f.images] = np.arange(f.n, dtype=np.int64)
    return Perm(inv, _trusted=True)


def conjugate(f: Perm, t: Perm) -> Perm:
    """The conjugate f^t = t^-1 f t."""
    return compose(compose(inverse(t), f), t)


def power(f: Perm, e: int) -> Perm:
    """``f`` composed with itself ``e`` times; negative ``e`` uses the inverse."""
    if e < 0:
        return power(inverse(f), -e)
    result = np.arange(f.n, dtype=np.int64)
    base = f.images
    while e:
        if e & 1:
            result = base[result]
        e >>= 1
        if e:
            base = base[base]
    return Perm(result, _trusted=True)


def hamming_count(f: Perm, g: Perm) -> int:
    """Number of points where ``f`` and ``g`` disagree."""
    _require_same_degree(f, g)
    return int(np.count_nonzero(f.images != g.images))


def hamming(f: Perm, g: Perm) -> Fraction:
    """Normalized Hamming distance |{x : f(x) != g(x)}| / n, exactly."""
    return Fraction(hamming_count(f, g), f.n)


def cycle_decomposition(f: Perm) -> CycleDecomposition:
    images = f.images
    seen = np.zeros(f.n, dtype=bool)
    cycles: list[tuple[int, ...]] = []
    for start in range(f.n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = int(images[start])
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = int(images[x])
        cycles.append(tuple(cycle))
    return CycleDecomposition(f.n, tuple(cycles))


def order_of(f: Perm) -> int:
    """Multiplicative order: lcm of the cycle lengths."""
    return math.lcm(*cycle_decomposition(f).lengths())


def order_divides(f: Perm, k: int) -> bool:
    """True iff f^k = identity, i.e. every cycle length divides k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return all(k % length == 0 for length in cycle_decomposition(f).lengths())


def project_to_order(f: Perm, k: int) -> Perm:
    """Nearest-by-construction permutation with order dividing ``k``.

    Cycles whose length divides ``k`` are kept; every point in any other
    cycle becomes a fixed point, so the distance to ``f`` is exactly the
    mass of the offending cycles.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    images = np.arange(f.n, dtype=np.int64)
    for cycle in cycle_decomposition(f).cycles:
        if k % len(cycle) == 0:
            _write_cycle(images, cycle)
    return Perm(images, _trusted=True)


def amplify(f: Perm, n: int) -> Perm:
    """Block-diagonal embedding into Sym(n): q = n // f.n copies of ``f``
    on consecutive blocks, identity on the remaining n - q*f.n points."""
    m = f.n
    if n < m:
        raise ValueError(f"target degree {n} smaller than {m}")
    limits.check("table_entries", n)
    q, r = divmod(n, m)
    offsets = np.repeat(np.arange(q, dtype=np.int64) * m, m)
    blocks = np.tile(f.images, q) + offsets
    tail = np.arange(q * m, n, dtype=np.int64)
    return Perm(np.concatenate([blocks, tail]), _trusted=True)


@lru_cache(maxsize=None)
def _divisors(k: int, n: int) -> tuple[int, ...]:
    """The cycle lengths allowed in the class on at most n points: every
    d | k with d <= n, ascending.  The scan stops at min(sqrt(k), n), so a
    huge k costs no more than its divisors up to the degree."""
    small = [d for d in range(1, min(math.isqrt(k), n) + 1) if k % d == 0]
    return tuple(sorted({*small, *(k // d for d in small if k // d <= n)}))


@lru_cache(maxsize=None)
def _order_dividing_table(k: int) -> list[int]:
    """a[j] = #{f in Sym(j) : f^k = id}; one list per k that
    :func:`_counts` grows in place."""
    return [1]


# (lo, hi, e) stands for the interval [lo * 2**e, hi * 2**e]
_Bound = tuple[int, int, int]


@lru_cache(maxsize=None)
def _order_dividing_bounds(k: int) -> list[_Bound]:
    """(lo, hi, e) with lo * 2**e <= a[j] <= hi * 2**e; one list per k that
    :func:`_bounds` grows in place."""
    return [(1, 1, 0)]


def _grow(table: list, n: int, k: int, add, scale) -> list:
    """Extend ``table`` to j = 0..n by the recurrence
    a(j) = sum over d | k, d <= j of (j-1)!/(j-d)! * a(j-d).

    The sum is taken in nested form, from the largest d down to d = 1:
    acc = a(j-d) + (j-d)!/(j-d')! * acc, with d' the next larger divisor,
    so each divisor after the first costs one product.  ``add`` and
    ``scale`` (integer times entry) give the arithmetic of the entries."""
    divisors = _divisors(k, n)
    for j in range(len(table), n + 1):
        top = bisect.bisect_right(divisors, j) - 1
        acc = table[j - divisors[top]]
        for i in range(top - 1, -1, -1):
            d = divisors[i]
            acc = add(table[j - d],
                      scale(math.perm(j - d, divisors[i + 1] - d), acc))
        table.append(acc)
    return table


def _counts(n: int, k: int) -> list[int]:
    """The exact table for k, grown to cover j = 0..n."""
    limits.check("count_table", n)
    return _grow(_order_dividing_table(k), n, k, operator.add, operator.mul)


# Mantissa width of the bounds: a[j] below 2**_MANTISSA_BITS is held exactly.
_MANTISSA_BITS = 128


def _round_out(lo: int, hi: int, e: int) -> _Bound:
    """The bound (lo, hi, e) cut to _MANTISSA_BITS bits: lo down, hi up."""
    s = hi.bit_length() - _MANTISSA_BITS
    if s <= 0:
        return lo, hi, e
    return lo >> s, -(-hi >> s), e + s


def _add_bounds(x: _Bound, y: _Bound) -> _Bound:
    """A bound on the sum of two bounded values, at the larger exponent."""
    if x[2] < y[2]:
        x, y = y, x
    s = x[2] - y[2]
    return _round_out(x[0] + (y[0] >> s), x[1] - (-y[1] >> s), x[2])


def _scale_bound(p: int, x: _Bound) -> _Bound:
    """A bound on p times a bounded value, p a positive integer."""
    return _round_out(p * x[0], p * x[1], x[2])


def _bounds(n: int, k: int) -> list[_Bound]:
    """Bounds on the table for k, grown to cover j = 0..n by the same
    recurrence as :func:`_counts`, rounding outward after every step."""
    limits.check("count_table", n)
    return _grow(_order_dividing_bounds(k), n, k, _add_bounds, _scale_bound)


def _below(u: int, bound: _Bound, exact) -> bool:
    """u < x for a nonnegative u and an x within ``bound``; ``exact()``
    gives x itself, called only when the bound leaves the answer open."""
    lo, hi, e = bound
    t = u >> e  # u < lo * 2**e iff t < lo; u >= hi * 2**e iff t >= hi
    if t < lo:
        return True
    if t >= hi:
        return False
    return u < exact()


def count_order_dividing(n: int, k: int) -> BigCount:
    """Exact number of f in Sym(n) with f^k = id (identity included)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return _counts(n, k)[n]


def _order_dividing_rows(n: int, k: int) -> np.ndarray:
    """Every f in Sym(n) with f^k = id as a row of images, one row per leaf
    of the cycle recursion, so there are count_order_dividing(n, k) rows.

    The rows for r points come from the rows for r - d points, d | k: list
    the points as ``labels`` (0, then d - 1 ordered partners, then the rest
    ascending), and conjugate by that relabelling the row that cycles the
    first d positions and acts on the others as the smaller row does.
    """
    blocks = [np.zeros((1, 0), dtype=np.int64)]
    for r in range(1, n + 1):
        parts = []
        for d in _divisors(k, n):
            if d > r:
                break
            labels = np.array([
                (0, *p, *(x for x in range(1, r) if x not in p))
                for p in itertools.permutations(range(1, r), d - 1)],
                dtype=np.int64)
            sub = blocks[r - d]
            std = np.hstack([np.tile(np.roll(np.arange(d), -1), (len(sub), 1)),
                             d + sub])
            # row = labels o std o labels^-1, for every label list and std row
            inv = np.argsort(labels, axis=1)
            rows = std[np.arange(len(sub))[:, None], inv[:, None, :]]
            parts.append(np.take_along_axis(labels[:, None, :], rows, axis=2)
                         .reshape(-1, r))
        blocks.append(np.concatenate(parts))
    return blocks[n]


def sample_order_k(n: int, k: int, seed: int) -> Perm:
    """Uniformly random f in Sym(n) with f^k = id; deterministic given seed.

    Sequential cycle construction: the smallest unplaced point opens a cycle
    whose length d | k is drawn with probability
    (r-1)!/(r-d)! * a(r-d) / a(r), where r counts unplaced points.
    The weights are exactly the number of completions, so the draw is
    uniform without rejection.
    """
    return _sample_order_k_rng(n, k, random.Random(seed))


def _sample_order_k_rng(n: int, k: int, rng: random.Random) -> Perm:
    if n < 1:
        raise ValueError("degree must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    bounds = _bounds(n, k)
    divisors = _divisors(k, n)
    images = np.empty(n, dtype=np.int64)
    free = list(range(n - 1, -1, -1))  # unplaced points, descending
    while free:
        r = len(free)
        # u = rng.randrange(a(r)), written out as the loop CPython runs for
        # it (Random._randbelow_with_getrandbits), so the bounds decide it
        lo, hi, e = bounds[r]
        bits = (hi.bit_length() + e if lo.bit_length() == hi.bit_length()
                else _counts(r, k)[r].bit_length())
        u = rng.getrandbits(bits)
        while not _below(u, bounds[r], lambda: _counts(r, k)[r]):
            u = rng.getrandbits(bits)
        chosen = _cycle_length(u, r, k, divisors, bounds)
        cycle = [free.pop()]
        # ordered (d-1)-tuple of partners, uniform among remaining points;
        # index i in ascending order is -1 - i in the descending list
        for _ in range(chosen - 1):
            cycle.append(free.pop(-1 - rng.randrange(len(free))))
        _write_cycle(images, cycle)
    return Perm(images, _trusted=True)


def _cycle_length(u: int, r: int, k: int, divisors: tuple[int, ...],
                  bounds: list[_Bound]) -> int:
    """The first d | k with u below the sum over divisors d' <= d of
    (r-1)!/(r-d')! * a(r-d'), for 0 <= u < a(r)."""
    last = bisect.bisect_right(divisors, r) - 1
    acc = (0, 0, 0)
    for i in range(last):
        d = divisors[i]
        acc = _add_bounds(acc, _scale_bound(math.perm(r - 1, d - 1), bounds[r - d]))
        if _below(u, acc, lambda: _branch_sum(r, k, divisors[:i + 1])):
            return d
    return divisors[last]  # the sum over every d <= r is a(r) > u


def _branch_sum(r: int, k: int, lengths: tuple[int, ...]) -> int:
    """The exact sum of (r-1)!/(r-d)! * a(r-d) over d in ``lengths``."""
    a = _counts(r, k)
    return sum(math.perm(r - 1, d - 1) * a[r - d] for d in lengths)


def random_perm(n: int, rng: random.Random) -> Perm:
    """Uniformly random permutation (no order constraint)."""
    images = list(range(n))
    rng.shuffle(images)
    return Perm(np.asarray(images, dtype=np.int64), _trusted=True)

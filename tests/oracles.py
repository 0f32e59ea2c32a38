"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately independent of the package under test:
permutations are plain tuples, arithmetic is stdlib-only, and all searches
are exhaustive.  Slow but unarguable.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from itertools import permutations, product


# ---------------------------------------------------------------------------
# tuple permutations
# ---------------------------------------------------------------------------

def t_compose(f: tuple, g: tuple) -> tuple:
    """(f o g)(x) = f(g(x))."""
    return tuple(f[g[x]] for x in range(len(f)))


def t_inverse(f: tuple) -> tuple:
    out = [0] * len(f)
    for x, y in enumerate(f):
        out[y] = x
    return tuple(out)


def t_cycle_lengths(f: tuple) -> list[int]:
    seen = [False] * len(f)
    out = []
    for start in range(len(f)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = f[x]
            length += 1
        out.append(length)
    return out


def t_order(f: tuple) -> int:
    return math.lcm(*t_cycle_lengths(f)) if f else 1


def t_hamming(f: tuple, g: tuple) -> Fraction:
    n = len(f)
    return Fraction(sum(1 for x in range(n) if f[x] != g[x]), n)


def order_divides_k(f: tuple, k: int) -> bool:
    return all(k % length == 0 for length in t_cycle_lengths(f))


# ---------------------------------------------------------------------------
# Baumslag-Solitar products through Fraction
# ---------------------------------------------------------------------------

def bs_normalize(m: int, value: Fraction, pow_: int) -> tuple:
    """(num, den_exp, pow) with value = num / m^den_exp and den_exp minimal."""
    den_exp = 0
    while (value * m ** den_exp).denominator != 1:
        den_exp += 1
    return (int(value * m ** den_exp), den_exp, pow_)


def bs_value(m: int, x: tuple) -> Fraction:
    num, den_exp, _ = x
    return Fraction(num, m ** den_exp)


def bs_mul(m: int, x: tuple, y: tuple) -> tuple:
    """[[1, vx], [0, m^px]] [[1, vy], [0, m^py]] in the group's convention:
    value vy + m^py vx, power px + py."""
    value = bs_value(m, y) + Fraction(m) ** y[2] * bs_value(m, x)
    return bs_normalize(m, value, x[2] + y[2])


def bs_inverse(m: int, x: tuple) -> tuple:
    value = -(Fraction(m) ** (-x[2])) * bs_value(m, x)
    return bs_normalize(m, value, -x[2])


# ---------------------------------------------------------------------------
# exhaustive counts and searches
# ---------------------------------------------------------------------------

def brute_count_order_dividing(n: int, k: int) -> int:
    """|{f in Sym(n) : f^k = id}| by full enumeration."""
    return sum(1 for f in permutations(range(n)) if order_divides_k(f, k))


# The sampler of soficperm.perm as it was before it walked on bounds of the
# count table: the exact table a(0..n), summed term by term, and
# rng.randrange(a(r)) for each cycle.  Copied verbatim with its helpers, but
# for a list of images and a tuple result in place of numpy and Perm.

_ORDER_DIVIDING_TABLES: dict[int, list[int]] = {}


def _divisors(k: int, n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, min(k, n) + 1) if k % d == 0)


def _write_cycle(images, cycle) -> None:
    for i, x in enumerate(cycle):
        images[x] = cycle[(i + 1) % len(cycle)]


def _cycle_terms(a, r: int, divisors: tuple[int, ...]):
    """a[r] split by the length d of the cycle through the smallest point:
    (r-1)!/(r-d)! ways to fill that cycle, times a[r-d] for the rest."""
    return (math.perm(r - 1, d - 1) * a[r - d] for d in divisors if d <= r)


def _counts(n: int, k: int) -> list[int]:
    """The table for k, grown to cover j = 0..n by the recurrence
    a(j) = sum over d | k, d <= j of (j-1)!/(j-d)! * a(j-d)."""
    a = _ORDER_DIVIDING_TABLES.setdefault(k, [1])
    divisors = _divisors(k, n)
    for j in range(len(a), n + 1):
        a.append(sum(_cycle_terms(a, j, divisors)))
    return a


def sample_order_k_rng(n: int, k: int, rng) -> tuple:
    if n < 1:
        raise ValueError("degree must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    table = _counts(n, k)
    divisors = _divisors(k, n)
    images = [0] * n
    free = list(range(n))  # unplaced points, ascending
    while free:
        r = len(free)
        u = rng.randrange(table[r])
        cumulative = itertools.accumulate(_cycle_terms(table, r, divisors))
        chosen = next(d for d, acc in zip(divisors, cumulative) if u < acc)
        start = free.pop(0)
        # ordered (d-1)-tuple of partners, uniform among remaining points
        cycle = [start]
        for _ in range(chosen - 1):
            cycle.append(free.pop(rng.randrange(len(free))))
        _write_cycle(images, cycle)
    return tuple(images)


def brute_best_agreement(n: int, k: int, alpha: tuple, beta: tuple) -> int:
    """max over {f : f^k = id} of |{x : f(alpha(x)) = beta(f(x))}|."""
    best = -1
    for f in permutations(range(n)):
        if not order_divides_k(f, k):
            continue
        score = sum(1 for x in range(n) if f[alpha[x]] == beta[f[x]])
        best = max(best, score)
    return best


def translation_tuple(n: int, s: int) -> tuple:
    return tuple((x + s) % n for x in range(n))


def brute_heis_fixed(n: int, lam: int, mu: int, nu: int) -> int:
    """Fixed points of (x, y) -> (x + mu*y - nu, y + lam) on (Z/n)^2."""
    count = 0
    for x in range(n):
        for y in range(n):
            if (x + mu * y - nu) % n == x and (y + lam) % n == y:
                count += 1
    return count


def product_index(elements, mul) -> list[list[int]]:
    """The product index of the distinct ``elements``, one ``mul(g, h)``
    and one dict lookup per pair: row i, column j holds the position of
    mul(elements[i], elements[j]) in elements, or -1.  The product is
    passed in, so the index rests on that function alone."""
    position = {g: k for k, g in enumerate(elements)}
    return [[position.get(mul(g, h), -1) for h in elements] for g in elements]


def z2_ball_points(radius: int) -> set[tuple[int, int]]:
    """Lattice points (lam, mu) with |lam| + |mu| <= radius."""
    return {
        (lam, mu)
        for lam in range(-radius, radius + 1)
        for mu in range(-radius, radius + 1)
        if abs(lam) + abs(mu) <= radius
    }


def poly_witness_scan(n: int, m: int, C: int):
    """First integer polynomial t != 0 with deg <= C, |t_i| < C, and
    n | t(m); scan order: degree ascending, then lower coefficients as
    ascending tuples, then leading coefficient ascending (nonzero).
    Returns the coefficient tuple (t_0..t_d) or None.
    """
    if C <= 0:
        return None
    coeff_range = range(-(C - 1), C)
    for degree in range(C + 1):
        lowers = product(coeff_range, repeat=degree)
        for lower in lowers:
            for lead in coeff_range:
                if lead == 0:
                    continue
                coeffs = lower + (lead,)
                value = sum(c * m ** i for i, c in enumerate(coeffs))
                if value % n == 0:
                    return coeffs
    return None


def wreath_conjugates_commute(p: int, f: list[int], lam: list[int],
                              i: int, j: int) -> bool:
    """Directly check that a^-i d a^i and a^-j d a^j commute on p^4 tuples,
    with a: (x,y,z,w) -> (x*lam(z), y, z, w+f(z)) and
    d: (x,y,z,w) -> (x+f(w), y*lam(w), z, w)."""

    def a_pow(pt, e):
        x, y, z, w = pt
        if e >= 0:
            for _ in range(e):
                x, w = (x * lam[z]) % p, (w + f[z]) % p
        else:
            for _ in range(-e):
                x, w = (x * pow(lam[z], -1, p)) % p, (w - f[z]) % p
        return (x, y, z, w)

    def act_d(pt):
        x, y, z, w = pt
        return ((x + f[w]) % p, (y * lam[w]) % p, z, w)

    def conj(pt, e):
        # (a^-e d a^e)(pt): follow a^e, apply d, follow a^-e
        return a_pow(act_d(a_pow(pt, e)), -e)

    for pt in product(range(p), repeat=4):
        ij = conj(conj(pt, i), j)
        ji = conj(conj(pt, j), i)
        if ij != ji:
            return False
    return True


# ---------------------------------------------------------------------------
# sign-flip transport and ball constants, on plain tuples and attributes
# ---------------------------------------------------------------------------

def sign_flip_perm(f: tuple) -> tuple:
    """f~(x) = -f(-x) mod n: conjugation by negation, so the cycle type
    (and order) is f's."""
    n = len(f)
    return tuple(-f[-x % n] % n for x in range(n))


def transport_sign_flip(alpha: tuple, beta: tuple,
                        f: tuple) -> tuple[tuple, tuple]:
    """(beta', f~) for alpha: x -> x + t and beta: x -> u*x with u a unit:
    beta' is x -> u^-1 x and f~ = sign_flip_perm(f), which agrees with
    (alpha, beta') at exactly as many points as f with (alpha, beta)."""
    n = len(f)
    if any(alpha[x] != (x + alpha[0]) % n for x in range(n)):
        raise ValueError("transport needs alpha to be a translation")
    u = beta[1] if n > 1 else 0
    if any(beta[x] != u * x % n for x in range(n)) or math.gcd(u, n) != 1:
        raise ValueError(
            "transport needs beta to be an invertible multiplication")
    v = pow(u, -1, n)
    return tuple(v * x % n for x in range(n)), sign_flip_perm(f)


def z2_ball_constant(S) -> int:
    """C = 3 * (largest generator exponent in S); with p > C q and n > C p
    every nontrivial element of S maps to a nonzero translation."""
    biggest = max((max(abs(g.lam), abs(g.mu)) for g in S), default=0)
    return 3 * max(1, biggest)


def wreath_ball_constant(S, delta) -> int:
    """The polynomial bound C that makes check_poly_condition(n, m, C)
    sufficient for verify() to pass on the wreath elements S at delta, which
    must lie in (0, 1] as for verify."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    C = math.floor(1 / delta) + 1
    for g in S:
        if g.poly:
            exps = [e for e, _ in g.poly]
            span = max(exps) - min(exps)
            coeff = max(abs(c) for _, c in g.poly)
            C = max(C, span, coeff + 1)
        C = max(C, abs(g.pow))
    return C

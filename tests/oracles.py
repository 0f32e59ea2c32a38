"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately independent of the package under test:
permutations are plain tuples, arithmetic is stdlib-only but for the
heuristic's logs, which mpmath computes, and all searches are exhaustive.
Slow but unarguable.
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
# the counting heuristic's logs through mpmath
# ---------------------------------------------------------------------------

HEURISTIC_LOGS = ("log_P", "log_K", "log_PK", "log_factorial",
                  "asymptotic_ratio", "log_PK_model")


def heuristic_logs(n: int, k: int, eps: Fraction, eps_prime: Fraction,
                   count: int) -> dict:
    """The heuristic report's logs at (n, k, eps, eps_prime) for the exact
    count, as mpmath mpf values at 200 bits: ln(count) - loggamma(n + 1),
    (2 eps + eps_prime) n ln n, their sum, loggamma(n + 1), ln(count) /
    loggamma(n + 1) (1 at n = 1) and (2 eps + eps_prime - 1/k) n ln n."""
    import mpmath

    coeff = 2 * eps + eps_prime
    model_coeff = coeff - Fraction(1, k)
    with mpmath.workprec(200):
        log_fact = mpmath.loggamma(n + 1)
        log_count = mpmath.ln(mpmath.mpf(count))
        log_P = log_count - log_fact
        nlogn = mpmath.mpf(n) * mpmath.ln(n)
        log_K = mpmath.mpf(coeff.numerator) / coeff.denominator * nlogn
        return dict(zip(HEURISTIC_LOGS, (
            log_P, log_K, log_P + log_K, log_fact,
            log_count / log_fact if n > 1 else mpmath.mpf(1),
            mpmath.mpf(model_coeff.numerator) / model_coeff.denominator
            * nlogn)))


def mpf_text(x) -> str:
    """x as ``mpmath.nstr(x, 30)`` prints it at 200 bits: the text a
    record holds for each of the heuristic's logs."""
    import mpmath

    with mpmath.workprec(200):
        return mpmath.nstr(x, 30)


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


# The sampler of soficperm.perm, written straight from the exact table
# a(0..n), summed term by term.  At each step a uniform U in [0, 1) picks the
# cycle length: the first d with U < C_d / a(r), C_d the sum of the terms up
# to d.  U is read as a word x of m bits, U in [x, x + 1) / 2**m: 64 bits
# first, and 32 more while the word lies across the threshold under test.
# Its helpers are plain versions of the package's, for a list of images and
# a tuple result in place of numpy and Perm.

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
    a(j) = sum over d | k, d <= j of (j-1)!/(j-d)! * a(j-d).

    The sum is nested from the largest divisor d' down: each smaller d
    gives acc = a(j-d) + (j-d)!/(j-d')! * acc, and d = 1 ends it, so each
    product is a big acc times a few small factors rather than a big a(j-d)
    times a long falling factorial.  The value is the sum of
    :func:`_cycle_terms`.
    """
    a = _ORDER_DIVIDING_TABLES.setdefault(k, [1])
    divisors = _divisors(k, n)
    for j in range(len(a), n + 1):
        below = [d for d in divisors if d <= j]
        acc = a[j - below[-1]]
        for d, d_next in zip(below[-2::-1], below[:0:-1]):
            acc = a[j - d] + math.perm(j - d, d_next - d) * acc
        a.append(acc)
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
        lengths = [d for d in divisors if d <= r]
        chosen = lengths[-1]
        if len(lengths) > 1:  # with one length there is nothing to draw
            a = table[r]
            x, m = rng.getrandbits(64), 64
            cumulative = itertools.accumulate(_cycle_terms(table, r, divisors))
            for d, c in zip(lengths[:-1], cumulative):
                while x * a < c << m < (x + 1) * a:
                    x, m = x << 32 | rng.getrandbits(32), m + 32
                if (x + 1) * a <= c << m:
                    chosen = d
                    break
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


def brute_best_f(n: int, k: int, alpha: tuple, beta: tuple) -> tuple:
    """The lexicographically smallest f with f^k = id among those with the
    largest |{x : f(alpha(x)) = beta(f(x))}|."""
    best, best_f = -1, None
    for f in permutations(range(n)):  # lexicographic order
        if not order_divides_k(f, k):
            continue
        score = sum(1 for x in range(n) if f[alpha[x]] == beta[f[x]])
        if score > best:
            best, best_f = score, f
    return best_f


def agreement_ceiling(alpha: tuple, beta: tuple) -> int:
    """An upper bound on |{x : f(alpha(x)) = beta(f(x))}| over all f in
    Sym(n), whatever f's order: n - |c(alpha) - c(beta)| - 1 when the cycle
    counts c differ, else n.

    If f agrees at A points, sigma = f alpha f^-1 equals beta there, so
    beta sigma^-1 moves at most D = n - A points and is a product of at
    most D - 1 transpositions when D > 0; each changes the cycle count by
    one, and sigma has as many cycles as alpha."""
    gap = abs(len(t_cycle_lengths(alpha)) - len(t_cycle_lengths(beta)))
    return len(alpha) - gap - 1 if gap else len(alpha)


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


def verify_action_reference(p: int, perms: dict, window: int):
    """higman.verify_action copy by copy on tuple permutations of p^4
    points: for each copy (g, h) the powers g^i, the lamp conjugates
    h^(g^i) = g^-i h g^i and both products of every pair i < j.  Returns
    the checks as (name, ok, witness) triples, t_order_ok, t_cycle and
    passed; a witness is the first differing point as (x, y, z, w)."""
    n = p ** 4
    ident = tuple(range(n))
    t = perms["t"]

    def power(f, e):
        step = f if e >= 0 else t_inverse(f)
        out = ident
        for _ in range(abs(e)):
            out = t_compose(step, out)
        return out

    def conj(f):
        return t_compose(t_compose(t_inverse(t), f), t)

    def relation(name, f, g):
        diff = [x for x in range(n) if f[x] != g[x]]
        if not diff:
            return (name, True, None)
        x = diff[0]
        return (name, False, (x // p ** 3, x // p ** 2 % p, x // p % p, x % p))

    pairs = [("a", "d"), ("d", "c"), ("c", "b"), ("b", "a")]
    cycled = all(conj(perms[g]) == perms[h] for g, h in pairs)
    checks = [relation("t^4", power(t, 4), ident),
              relation("a^t = d", conj(perms["a"]), perms["d"]),
              ("t-conjugation is a 4-cycle on {a,b,c,d}", cycled, None)]
    for base, lamp in pairs if cycled else pairs[:1]:
        g, h = perms[base], perms[lamp]
        span = range(-window, window + 1)
        powers = {i: power(g, i) for i in span}
        shifted = {i: t_compose(t_compose(powers[-i], h), powers[i])
                   for i in span}
        for i in span:
            for j in range(i + 1, window + 1):
                checks.append(relation(
                    f"[{lamp}^({base}^{i}), {lamp}^({base}^{j})]",
                    t_compose(shifted[i], shifted[j]),
                    t_compose(shifted[j], shifted[i])))
    cycle = ("a", "d", "c", "b") if cycled else None
    return checks, checks[0][1], cycle, all(ok for _, ok, _ in checks)


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

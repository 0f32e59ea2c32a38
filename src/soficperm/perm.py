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
branches (:func:`count_order_dividing`, which runs the recurrence of
:func:`_grow` over a window of the last max(d | k, d <= n) values, not a
table of every a(j)); sampling walks one path, choosing each branch with
probability proportional to its size (:func:`sample_order_k`), drawing
each partner as ``rng.randrange`` would, by its ``getrandbits`` loop
written out, into a Python list of images that becomes an array once;
enumeration writes every leaf as a row (:func:`_order_dividing_rows`, the
brute-force search space) in the smallest integer type that holds n - 1,
so one byte per image under the ``brute_force_n`` limit.

Sampling reads no exact table.  It walks on certified bounds
lo * 2**e <= a(j) <= hi * 2**e with mantissas of 128 bits, grown by the
same recurrence with one outward rounding per term (:func:`_bounds`, on
the arithmetic of :func:`_arithmetic`).  Each cycle length compares a
uniform U in [0, 1), read lazily 64 and then 32 bits at a time, with the
branch sizes over a(r) (:func:`_cycle_length`).  The words it reads
depend on the exact values alone; a test the bounds leave open is
retried on bounds twice as wide, and again, until they settle it
(:func:`_widened_side`), and at 128 bits that does not happen in practice.

The count and the tables of :func:`amplify` and :func:`_bounds` are
checked against :mod:`soficperm.limits` before they grow (see "Limits" in
the README).  numpy is imported at the first array operation
(:class:`_NumpyOnFirstUse`), since the count and the bounds need none.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import limits


class _NumpyOnFirstUse:
    """This module's ``np`` until its first attribute read, which imports
    numpy and rebinds ``np`` to it.  It remains because the count and the
    sampler's bounds, which ``count-orders`` and ``heuristic`` run, live
    beside :class:`Perm` until the benchmark's span tracer stops wrapping
    ``perm.count_order_dividing`` and they can move to a numpy-free module."""

    def __getattr__(self, name: str):
        global np
        import numpy as np
        return getattr(np, name)


np = _NumpyOnFirstUse()

__all__ = [
    "Perm",
    "CycleDecomposition",
    "compose",
    "conjugate",
    "inverse",
    "power",
    "hamming",
    "hamming_count",
    "cycle_decomposition",
    "order_of",
    "project_to_order",
    "amplify",
    "count_order_dividing",
    "sample_order_k",
    "random_perm",
]

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
                    and not {bool, np.bool_}.isdisjoint(map(type, images))):
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


# (lo, hi, e) stands for the interval [lo * 2**e, hi * 2**e]
_Bound = tuple[int, int, int]


@lru_cache(maxsize=None)
def _order_dividing_bounds(k: int, bits: int) -> list[_Bound]:
    """(lo, hi, e) with lo * 2**e <= a[j] <= hi * 2**e at a mantissa width
    of ``bits``; one list per k and width that :func:`_bounds` grows in
    place."""
    return [(1, 1, 0)]


def _grow(table, start: int, n: int, k: int, step, gap):
    """Append a(start), ..., a(n) to ``table``, whose last entry is
    a(start - 1), by the recurrence
    a(j) = sum over d | k, d <= j of (j-1)!/(j-d)! * a(j-d).

    Entries are read from the end, ``table[-d]`` being a(j - d), so the
    table may be a list of every a(j) or a deque of the last max(d | k,
    d <= n) of them.  The sum is taken in nested form, from the largest d
    down to d = 1: acc = a(j-d) + (j-d)!/(j-d')! * acc, with d' the next
    larger divisor, so each divisor after the first costs one step.
    ``step`` (z + x * y) and ``gap`` (the gap product x!/(x-g)!) give the
    arithmetic of the entries."""
    divisors = _divisors(k, n)
    for j in range(start, n + 1):
        top = bisect.bisect_right(divisors, j) - 1
        acc = table[-divisors[top]]
        for i in range(top - 1, -1, -1):
            d = divisors[i]
            acc = step(table[-d], gap(j - d, divisors[i + 1] - d), acc)
        table.append(acc)
    return table


# Mantissa width of the sampler's bounds: a value below 2**_MANTISSA_BITS is
# held exactly.
_MANTISSA_BITS = 128


@lru_cache(maxsize=None)
def _arithmetic(bits: int):
    """(step, gap) on bounds cut to a mantissa width of ``bits``, each
    rounding outward once.  The width is a closure variable, not an
    argument, so it costs nothing per operation; the pair keeps the bounds
    on x! that ``gap`` grows."""
    fact = [(1, 1, 0)]

    def round_out(lo: int, hi: int, e: int) -> _Bound:
        s = hi.bit_length() - bits
        if s <= 0:
            return lo, hi, e
        return lo >> s, -(-hi >> s), e + s

    def step(z: _Bound, x: _Bound, y: _Bound) -> _Bound:
        """A bound on z + x * y for bounded values: the exact product,
        aligned with z at the larger exponent, then one rounding."""
        plo, phi, pe = x[0] * y[0], x[1] * y[1], x[2] + y[2]
        zlo, zhi, ze = z
        if ze < pe:
            s = pe - ze
            return round_out(plo + (zlo >> s), phi - (-zhi >> s), pe)
        s = ze - pe
        return round_out(zlo + (plo >> s), zhi - (-phi >> s), ze)

    def gap(x: int, g: int) -> _Bound:
        """A bound on the gap product x!/(x-g)!, exact while it is below
        2**bits.  Past that it is the quotient of the bounds on x! and
        (x-g)!, so its cost does not grow with the gap g."""
        if g * x.bit_length() <= bits:  # x**g fits, so the product does
            p = math.perm(x, g)
            return p, p, 0
        for y in range(len(fact), x + 1):
            fact.append(step((0, 0, 0), (y, y, 0), fact[-1]))
        (nlo, nhi, ne), (dlo, dhi, de) = fact[x], fact[x - g]
        if dlo:  # at a narrow width the lower bound on (x-g)! can round to 0
            s = bits + 1 + dhi.bit_length() - nlo.bit_length()
            lo, hi, e = (nlo << s) // dhi, -(-(nhi << s) // dlo), ne - de - s
            if lo.bit_length() + e > bits:  # the product is 2**bits or more
                return round_out(lo, hi, e)
        p = math.perm(x, g)
        return round_out(p, p, 0)

    return step, gap


def _bounds(n: int, k: int, bits: int) -> list[_Bound]:
    """Bounds on a(0..n) for k at a mantissa width of ``bits``, grown by
    :func:`_grow` with the arithmetic of :func:`_arithmetic`."""
    limits.check("count_table", n)
    table = _order_dividing_bounds(k, bits)
    return _grow(table, len(table), n, k, *_arithmetic(bits))


def _side(x: int, m: int, c: _Bound, a: _Bound) -> int | None:
    """Where the word interval [x, x + 1) / 2**m lies against c / a, for c
    and a > 0 within their bounds: -1 wholly below, 1 wholly at or above,
    0 across it; None when the bounds leave that open, which exact values
    (lo == hi, e == 0) never do."""
    clo, chi, ce = c
    alo, ahi, ae = a
    # x * a against c * 2**m becomes x * alo against clo * 2**s, and so on
    s = ce + m - ae
    if s >= 0:
        clo, chi = clo << s, chi << s
    else:
        alo, ahi = alo << -s, ahi << -s
    if (x + 1) * ahi <= clo:
        return -1
    if x * alo >= chi:
        return 1
    if x * ahi < clo and (x + 1) * alo > chi:
        return 0
    return None


def count_order_dividing(n: int, k: int) -> int:
    """Exact number of f in Sym(n) with f^k = id (identity included).

    The recurrence reads a(j - d) for d | k alone, so the count keeps a
    window of the last w values, w the largest such d <= n, and no table.
    Each call starts from a(0) and keeps nothing, so a sweep over n costs
    quadratic time.  Its work, one product per such d at each of the n
    steps, is the ``count_work`` limit."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    limits.check("count_table", n)
    divisors = _divisors(k, n)
    limits.check("count_work", n * len(divisors))
    window = collections.deque([1], maxlen=max(divisors, default=1))
    return _grow(window, 1, n, k, lambda z, x, y: z + x * y, math.perm)[-1]


def _order_dividing_rows(n: int, k: int) -> np.ndarray:
    """Every f in Sym(n) with f^k = id as a row of images, one row per leaf
    of the cycle recursion, so there are count_order_dividing(n, k) rows.

    The rows for r points come from the rows ``sub`` for r - d points,
    d | k: list the points as the ``cycle`` (0, then d - 1 ordered
    partners) and the ``rest`` ascending, and conjugate by that relabelling
    the row that cycles the first d positions and acts on the others as
    the smaller row does.  Such a row sends cycle[t] to cycle[t + 1 mod d]
    and rest[t] to rest[sub[t]]; one scatter writes each part for every
    label list and smaller row at once.  The rows are held by column, one
    contiguous column per point (the return value is its transpose), in
    the smallest integer type that holds n - 1: bytes up to 256 points.
    """
    dtype = np.min_scalar_type(n - 1)
    columns = [np.zeros((0, 1), dtype=dtype)]
    for r in range(1, n + 1):
        parts = []
        for d in _divisors(k, n):
            if d > r:
                break
            sub = columns[r - d]
            lists = math.perm(r - 1, d - 1)
            cycle = np.zeros((lists, d), dtype=dtype)
            cycle[:, 1:] = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.permutations(range(1, r), d - 1)),
                dtype, count=lists * (d - 1)).reshape(lists, d - 1)
            each = np.arange(lists)[:, None]
            free = np.ones((lists, r), dtype=bool)
            free[each, cycle] = False
            rest = np.nonzero(free)[1].astype(dtype).reshape(lists, r - d)
            # part[x, l, s] is the image of x in row s of label list l
            part = np.empty((r, lists, sub.shape[1]), dtype=dtype)
            part[cycle, each] = np.roll(cycle, -1, axis=1)[:, :, None]
            part[rest, each] = rest[:, sub]
            parts.append(part.reshape(r, -1))
        columns.append(np.concatenate(parts, axis=1))
    return columns[n].T


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
    bits = _MANTISSA_BITS
    bounds = _bounds(n, k, bits)
    arithmetic = _arithmetic(bits)
    divisors = _divisors(k, n)
    getrandbits = rng.getrandbits
    images = [0] * n
    free = list(range(n - 1, -1, -1))  # unplaced points, descending
    while free:
        chosen = _cycle_length(len(free), k, divisors, bits, bounds,
                               arithmetic, rng)
        cycle = [free.pop()]
        # ordered (d-1)-tuple of partners, uniform among remaining points;
        # index i in ascending order is -1 - i in the descending list.  i is
        # drawn as rng.randrange(r) would draw it, getrandbits(r.bit_length())
        # until it is below r (tests/test_perm.py::
        # test_randrange_is_the_getrandbits_loop pins the equivalence)
        for r in range(len(free), len(free) - chosen + 1, -1):
            i = getrandbits(r.bit_length())
            while i >= r:
                i = getrandbits(r.bit_length())
            cycle.append(free.pop(-1 - i))
        _write_cycle(images, cycle)
    return Perm(np.array(images, dtype=np.int64), _trusted=True)


def _cycle_length(r: int, k: int, divisors: tuple[int, ...], bits: int,
                  bounds: list[_Bound], arithmetic, rng: random.Random) -> int:
    """The length of the cycle through the smallest of r free points: the
    first d | k with U < C_d / a(r), where C_d sums (r-1)!/(r-d')! * a(r-d')
    over the divisors d' <= d and U is uniform in [0, 1).

    U is read lazily as a word x of m bits, U in [x, x + 1) / 2**m: 64 bits
    for the first test, then 32 more each time the word lies across the
    threshold C_d / a(r) under test.  So the words read depend on exact
    values alone; the ``bits``-wide bounds only settle the tests, and a
    test they leave open is retried on wider ones (:func:`_widened_side`).
    When d = 1 is the only length that fits, no word is read."""
    last = bisect.bisect_right(divisors, r) - 1
    if last == 0:
        return 1
    step, gap = arithmetic
    x, m = rng.getrandbits(64), 64
    c = (0, 0, 0)
    for i in range(last):
        d = divisors[i]
        c = step(c, gap(r - 1, d - 1), bounds[r - d])
        while True:
            side = _side(x, m, c, bounds[r])
            if side is None:
                side = _widened_side(x, m, r, k, divisors[:i + 1], bits)
            if side:
                break
            x, m = x << 32 | rng.getrandbits(32), m + 32
        if side < 0:
            return d
    return divisors[last]  # C_d for the largest d <= r is a(r) > U * a(r)


def _widened_side(x: int, m: int, r: int, k: int, lengths: tuple[int, ...],
                  bits: int) -> int:
    """:func:`_side` of the word against C_d / a(r), d the last of
    ``lengths``, on bounds of 2, 4, 8, ... times ``bits`` until one settles
    it.  Every value the test reads is at most a(r), so once the width
    reaches a(r)'s bit length the bounds are exact, and exact values
    always settle it."""
    while True:
        bits *= 2
        bounds = _bounds(r, k, bits)
        step, gap = _arithmetic(bits)
        c = (0, 0, 0)
        for d in lengths:
            c = step(c, gap(r - 1, d - 1), bounds[r - d])
        side = _side(x, m, c, bounds[r])
        if side is not None:
            return side


def random_perm(n: int, rng: random.Random) -> Perm:
    """Uniformly random permutation (no order constraint)."""
    images = list(range(n))
    rng.shuffle(images)
    return Perm(np.asarray(images, dtype=np.int64), _trusted=True)

"""Finite approximations psi of the group families, and the verifier.

For each family, :func:`make_approx` builds the standard generator images on
Z/nZ (or on (Z/nZ)^2 for the Heisenberg group):

- ``z2``     psi(a): x -> x + p,            psi(b): x -> x + q
- ``heis``   psi(a^lam b^mu c^nu): (x, y) -> (x + mu*y - nu, y + lam)
- ``bs``     psi(a): x -> x + 1,            psi(b): x -> m^-1 x
- ``zwrz``   psi(a): x -> x + 1,            psi(b): x -> m^-1 x
- ``metab``  psi(a): x -> q^-1 (x + 1),     psi(b): x -> p^-1 x

Each map is affine, so an image is held as an :class:`AffineImage` of a few
integer coefficients and built as a full table only on request.  Each map
is an exact homomorphism of its family; :func:`verify` confirms the zero
homomorphism defect and checks the distance-from-identity condition over a
finite set S at a tolerance delta, with exact arithmetic throughout and
closed-form agreement counts, so its cost does not depend on n.  It reads
the product index of S (which pairs multiply back into S, and where) and
evaluates composition and agreement for all indexed pairs at once: the
closed forms are written once, in helpers that take Python ints or numpy
arrays alike.  The arrays are int64 while n^2 + 2n and the degree fit, and
object arrays of Python ints past that, so n = 10^12 needs no second path.
Amplified specs (block-diagonal copies of a smaller spec, see
:func:`amplify_spec`) keep the homomorphism defect at zero while the
identity-distance condition degrades by at most 1/(q+1) for q full blocks.

``_product_index`` gives, for a finite set S, the position in S of every
product of two of its elements, in blocks of whole rows.  It holds S as
integer coordinate columns -- (lam, mu) for z2, (lam, mu, nu) for heis,
(pow, value * m^E) for bs with E the largest den_exp plus the largest
|pow|, for zwrz pow plus the coefficient at each exponent S uses, and for
metab one key: the word's unit letters as base-5 digits 1..4 -- and builds
a block's product columns by the formulas of ``groups.mul`` (for metab
words, by the count of letters that cancel where g meets h).  A product
leaving S's per-column [min, max] is outside S; otherwise it is packed
column by column into one mixed-radix key and found by ``searchsorted``
among S's sorted keys.  A bound on every value is computed in Python ints
first: the columns are int64 when it fits and object (exact Python ints)
otherwise, so nothing wraps.  ``groups.mul`` stays the product the rest of
the package uses.

Full tables and the exhaustive polynomial scan are checked first against
:mod:`soficperm.limits` (see "Limits" in the README).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import groups
from . import limits
from . import perm as permmod
from .groups import (
    BSElem,
    FreeWord,
    GenWord,
    GroupElem,
    HeisElem,
    WreathElem,
    Z2Elem,
)
from .perm import Perm
from .serialize import _unit_delta

__all__ = [
    "AffineImage",
    "ApproxSpec",
    "VerifyReport",
    "PolyConditionResult",
    "HeisFixedReport",
    "make_approx",
    "image",
    "eval",
    "verify",
    "amplify_spec",
    "conjugate_spec",
    "check_poly_condition",
    "heis_fixed_bound",
]


def _gcd(x, n: int):
    """gcd(x, n) for a Python int or elementwise for an array."""
    return np.gcd(x, n) if isinstance(x, np.ndarray) else math.gcd(x, n)


def _compose_coeffs(n: int, first: tuple, second: tuple) -> tuple:
    """Coefficients of first o second (``second`` acts first), mod n.

    Each coefficient is a Python int or an array of them (int64 or
    object), so one call composes one pair of maps or many pairs at once.
    """
    if len(first) == 2:
        u1, v1 = first
        u2, v2 = second
        return (u1 * u2 % n, (u1 * v2 + v1) % n)
    a1, b1, c1 = first
    a2, b2, c2 = second
    return ((a1 + a2) % n, (a1 * c2 + b1 + b2) % n, (c1 + c2) % n)


def _count_agreements(n: int, npoints: int, first: tuple, second: tuple):
    """Number of points where the two maps agree, for scalar or array
    coefficients as in :func:`_compose_coeffs`.

    On a block the maps agree where (u1 - u2) x = v2 - v1 (mod n): g =
    gcd(u1 - u2, n) solutions if g divides v2 - v1, else none.  On the
    plane the y-shifts must match and (a1 - a2) y = b2 - b1 (mod n) has g
    solutions, each with x free.  The identity tail always agrees.
    """
    if len(first) == 2:
        u1, v1 = first
        u2, v2 = second
        g = _gcd(u1 - u2, n)
        per_block = g * ((v2 - v1) % g == 0)
        block = n
    else:
        a1, b1, c1 = first
        a2, b2, c2 = second
        g = _gcd(a1 - a2, n)
        per_block = n * g * (((c1 - c2) % n == 0) & ((b2 - b1) % g == 0))
        block = n * n
    blocks, tail = divmod(npoints, block)
    return blocks * per_block + tail


@dataclass(frozen=True)
class AffineImage:
    """An affine permutation kept as its coefficients, reduced mod ``n``.

    ``coeffs`` is ``(u, v)`` for x -> u*x + v on Z/n (u a unit), or
    ``(a, b, c)`` for (x, y) -> (x + a*y + b, y + c) on (Z/n)^2 with (x, y)
    encoded as x*n + y.  ``npoints`` is the degree: q = npoints // base
    copies of the map on consecutive blocks of the base degree (n or n^2),
    then the identity on the rest, as :func:`soficperm.perm.amplify` lays
    them out.  Composition and agreement counts are exact integer
    arithmetic, so neither costs anything that grows with ``n``.
    """

    n: int
    coeffs: tuple[int, ...]
    npoints: int

    def _require_same_space(self, other: "AffineImage") -> None:
        if (self.n, len(self.coeffs), self.npoints) != (
                other.n, len(other.coeffs), other.npoints):
            raise ValueError("images act on different point sets")

    def compose(self, other: "AffineImage") -> "AffineImage":
        """Right-to-left, as :func:`soficperm.perm.compose`: ``other`` first."""
        self._require_same_space(other)
        coeffs = _compose_coeffs(self.n, self.coeffs, other.coeffs)
        return AffineImage(self.n, coeffs, self.npoints)

    def agree_count(self, other: "AffineImage") -> int:
        """Number of points where the two maps agree, by the closed form of
        :func:`_count_agreements`."""
        self._require_same_space(other)
        return _count_agreements(self.n, self.npoints, self.coeffs,
                                 other.coeffs)

    def perm(self) -> Perm:
        """The full image table, within the ``table_entries`` limit."""
        limits.check("table_entries", self.npoints)
        n = self.n
        if len(self.coeffs) == 2:
            u, v = self.coeffs
            table = (u * np.arange(n, dtype=np.int64) + v) % n
        else:
            a, b, c = self.coeffs
            idx = np.arange(n * n, dtype=np.int64)
            x, y = idx // n, idx % n
            table = ((x + a * y + b) % n) * n + (y + c) % n
        f = Perm(table, _trusted=True)
        return f if f.n == self.npoints else permmod.amplify(f, self.npoints)


@dataclass(frozen=True, eq=False)
class ApproxSpec:
    """A family tag and its parameters; the generator images derive from them.

    ``n`` is the modulus; ``npoints`` the degree of the permutations
    (n for all families except heis, which acts on n^2 points encoded as
    x*n + y).  When ``amplified`` is set the spec is a block-diagonal
    amplification of the spec at modulus n to ``npoints`` points (see
    :func:`amplify_spec`), and when ``sigma`` is
    set its points are relabelled (:func:`conjugate_spec`).  ``psi_a`` and
    ``psi_b`` are built as full tables the first time they are read.
    """

    family: str
    n: int
    npoints: int
    p: Optional[int]
    q: Optional[int]
    m: Optional[int]
    amplified: bool = False
    sigma: Optional[Perm] = None

    def params(self) -> dict:
        out: dict = {"n": self.n}
        for name in ("p", "q", "m"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.amplified:
            out["amplified_to"] = self.npoints
        return out

    @cached_property
    def psi_a(self) -> Perm:
        return eval(self, groups.generator(self.family, "a", m=self.m))

    @cached_property
    def psi_b(self) -> Perm:
        return eval(self, groups.generator(self.family, "b", m=self.m))


def make_approx(
    family: str,
    n: int,
    *,
    p: int | None = None,
    q: int | None = None,
    m: int | None = None,
) -> ApproxSpec:
    """Check the parameters of one family at modulus n and build its spec."""
    if family not in groups.FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if family == "z2":
        if p is None or q is None:
            raise ValueError("z2 needs translation amounts p and q")
        return ApproxSpec("z2", n, n, p, q, None)
    if family == "heis":
        return ApproxSpec("heis", n, n * n, None, None, None)
    if family in ("bs", "zwrz"):
        if m is None:
            raise ValueError(f"{family} needs the parameter m")
        if abs(m) < 2:
            raise ValueError("|m| must be >= 2")
        if math.gcd(m, n) != 1:
            raise ValueError(f"m={m} must be coprime to n={n}")
        return ApproxSpec(family, n, n, None, None, m)
    # metab
    if p is None or q is None:
        raise ValueError("metab needs parameters p and q")
    if math.gcd(p, n) != 1 or math.gcd(q, n) != 1:
        raise ValueError(f"p={p} and q={q} must be coprime to n={n}")
    return ApproxSpec("metab", n, n, p, q, None)


def _metab_image(spec: ApproxSpec, w: GenWord) -> AffineImage:
    """Fold a word over {a, b} into one affine map of Z/n."""
    n = spec.n
    qinv = pow(spec.q, -1, n)
    pinv = pow(spec.p, -1, n)
    gen_maps = {
        ("a", 1): (qinv, qinv),             # x -> q^-1 (x + 1)
        ("a", -1): (spec.q % n, (-1) % n),  # x -> q*x - 1
        ("b", 1): (pinv, 0),
        ("b", -1): (spec.p % n, 0),         # x -> p*x
    }
    acc = AffineImage(n, (1 % n, 0), spec.npoints)
    for gen, exp in w.letters:
        step = AffineImage(n, gen_maps[(gen, 1 if exp > 0 else -1)], spec.npoints)
        # the accumulated word acts after the new letter's power, taken by
        # square-and-multiply: O(log |exp|) compositions
        e = abs(exp)
        while e:
            if e & 1:
                acc = acc.compose(step)
            e >>= 1
            if e:
                step = step.compose(step)
    return acc


def image(spec: ApproxSpec, x: GroupElem | GenWord) -> AffineImage:
    """The image of ``x`` under the spec's homomorphism, as coefficients,
    before the relabelling ``sigma``: relabelling changes no Hamming
    distance, so a conjugated spec verifies exactly like its base."""
    n = spec.n
    if isinstance(x, GenWord):
        if spec.family != "metab":
            x = groups.eval_word(x, spec.family, m=spec.m)
        else:
            x = FreeWord(x)
    fam = groups.family_of(x)
    if fam != spec.family:
        raise ValueError(f"family mismatch: element is {fam}, spec is {spec.family}")
    if isinstance(x, Z2Elem):
        coeffs: tuple[int, ...] = (1 % n, (x.lam * spec.p + x.mu * spec.q) % n)
    elif isinstance(x, HeisElem):
        # a^lam b^mu c^nu: (x, y) -> (x + mu*y - nu, y + lam)
        coeffs = (x.mu % n, -x.nu % n, x.lam % n)
    elif isinstance(x, BSElem):
        if x.m != spec.m:
            raise ValueError(f"parameter mismatch: m={x.m} vs spec m={spec.m}")
        u = pow(spec.m, -x.pow, n)
        coeffs = (u, (u * x.num * pow(spec.m, -x.den_exp, n)) % n)
    elif isinstance(x, WreathElem):
        tm = sum(c * pow(spec.m, e, n) for e, c in x.poly) % n
        u = pow(spec.m, -x.pow, n)
        coeffs = (u, (u * tm) % n)
    else:
        return _metab_image(spec, x.word)
    return AffineImage(n, coeffs, spec.npoints)


def eval(spec: ApproxSpec, x: GroupElem | GenWord) -> Perm:  # noqa: A001
    """The image permutation of ``x``, sigma^-1 psi(x) sigma when the spec
    carries a relabelling ``sigma``."""
    f = image(spec, x).perm()
    if spec.sigma is not None:
        f = permmod.conjugate(f, spec.sigma)
    return f


def amplify_spec(spec: ApproxSpec, npoints: int) -> ApproxSpec:
    """Block-diagonal amplification: q = npoints // spec.npoints copies."""
    if npoints < spec.npoints:
        raise ValueError("target degree smaller than the spec degree")
    if spec.sigma is not None:
        raise ValueError("amplifying a relabelled (conjugated) spec is not "
                         "supported; amplify first, then relabel")
    if spec.amplified:
        raise ValueError("amplifying an amplified spec is not supported; "
                         "amplify the original instead")
    return replace(spec, npoints=npoints, amplified=True)


def conjugate_spec(spec: ApproxSpec, sigma: Perm) -> ApproxSpec:
    """The same map on relabelled points, x -> sigma^-1 psi(x) sigma.

    Relabelling an already relabelled spec composes the two relabellings.
    """
    if sigma.n != spec.npoints:
        raise ValueError("degree mismatch")
    if spec.sigma is not None:
        sigma = permmod.compose(spec.sigma, sigma)
    return replace(spec, sigma=sigma)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the two approximation conditions over a finite set S.

    ``worst_hom_defect`` is the largest d(psi(g) psi(h), psi(gh)) over pairs
    with g, h, gh all in S; ``worst_id_closeness`` the smallest
    d(psi(g), id) over nontrivial g in S.  Passing means
    worst_hom_defect < delta and worst_id_closeness > 1 - delta.
    """

    family: str
    npoints: int
    delta: Fraction
    worst_hom_defect: Fraction
    hom_witness: Optional[tuple[GroupElem, GroupElem]]
    worst_id_closeness: Optional[Fraction]
    id_witness: Optional[GroupElem]
    passed: bool
    elements_checked: int
    pairs_checked: int


# ---------------------------------------------------------------------------
# the product index of a finite set, in arrays
# ---------------------------------------------------------------------------

_INT64_MAX = 2**63 - 1


class _ArrayForm(NamedTuple):
    """A finite set S as integer coordinate columns, one entry per element,
    each column with its [min, max] over S; ``block(g)`` yields the same
    columns for the products of the rows ``g`` of S with all of S, as
    (rows, |S|) arrays, by the formulas of :func:`groups.mul`.  Every
    column and every intermediate is int64 when a bound on them fits, else
    object."""

    dtype: type
    columns: list
    lo: list
    hi: list
    block: Callable[[slice], Iterator[np.ndarray]]


def _amax(*columns: list) -> int:
    return max((abs(v) for c in columns for v in c), default=0)


def _z2_form(elements):
    columns = [[x.lam for x in elements], [x.mu for x in elements]]

    def products(lam, mu):
        def block(g):
            yield lam[g, None] + lam
            yield mu[g, None] + mu
        return block
    return columns, 2 * _amax(*columns), products


def _heis_form(elements):
    columns = [[x.lam for x in elements], [x.mu for x in elements],
               [x.nu for x in elements]]
    a_lam, a_mu, a_nu = map(_amax, columns)

    def products(lam, mu, nu):
        def block(g):
            yield lam[g, None] + lam
            yield mu[g, None] + mu
            yield nu[g, None] + nu - mu[g, None] * lam
        return block
    return columns, 2 * max(a_lam, a_mu, a_nu) + a_mu * a_lam, products


def _bs_form(elements):
    # (pow, value * m^E): with E = the largest den_exp + the largest |pow|,
    # m^pow_h * value_g * m^E is an integer for every g, h in S
    m = elements[0].m
    pows = [x.pow for x in elements]
    top = _amax(pows)
    e = max(x.den_exp for x in elements) + top
    values = [x.num * m ** (e - x.den_exp) for x in elements]
    scale = abs(m) ** top

    def products(pow_, value):
        up = np.array([m ** max(p, 0) for p in pows], value.dtype)
        down = np.array([m ** max(-p, 0) for p in pows], value.dtype)

        def block(g):
            yield pow_[g, None] + pow_
            yield value + value[g, None] * up // down  # the division is exact
        return block
    # the up and down tables reach scale even when every value is 0
    bound = max(2 * top, (1 + scale) * max(_amax(values), 1))
    return [pows, values], bound, products


def _zwrz_form(elements):
    # columns: pow; whether some lamp of g, shifted by pow_h, lands on an
    # exponent no element of S uses (0 on S itself); the coefficient at each
    # exponent S uses
    exps = sorted({e for x in elements for e, _ in x.poly})
    col = {e: j for j, e in enumerate(exps)}
    pows = [x.pow for x in elements]
    lit = np.zeros((len(elements), len(exps)), dtype=bool)
    coeffs = [[0] * len(elements) for _ in exps]
    for k, x in enumerate(elements):
        for e, c in x.poly:
            lit[k, col[e]] = True
            coeffs[col[e]][k] = c
    leaves = np.array([[e + p not in col for p in pows] for e in exps],
                      dtype=bool).reshape(len(exps), len(elements))
    # where g's coefficient at e - pow_h sits, the zero column when absent
    source = np.array([[col.get(e - p, len(exps)) for p in pows]
                       for e in exps], dtype=np.intp)
    columns = [pows, [0] * len(elements), *coeffs]

    def products(pow_, _, *coeff):
        table = np.stack([*coeff, np.zeros_like(pow_)], axis=1)

        def block(g):
            yield pow_[g, None] + pow_
            yield (lit[g] @ leaves).astype(pow_.dtype)
            lamps_g = table[g]
            for c, at in zip(coeff, source):
                yield c + lamps_g[:, at]
        return block
    return columns, max(2 * _amax(*columns), 1), products


def _metab_form(elements):
    # one column: the word's unit letters a, a^-1, b, b^-1 as the base-5
    # digits 1..4, first letter most significant; no digit is 0, so words
    # of different lengths get different keys.  gh keeps g's first |g| - c
    # letters and h's last |h| - c, for c the letters that cancel.
    lengths = np.array([x.word.length() for x in elements], dtype=np.int64)
    width = int(lengths.max())
    # one column past the longest word, so every row ends in a pad
    digits = np.zeros((len(elements), width + 1), dtype=np.int64)
    for k, x in enumerate(elements):
        digits[k, :lengths[k]] = [(1 if g == "a" else 3) + (e < 0)
                                  for g, e in x.word.letters
                                  for _ in range(abs(e))]
    # a word's key is below 5^width: int64 when that fits, else exact ints
    pow5 = np.array([5 ** i for i in range(width + 1)],
                    dtype=np.int64 if 5 ** width <= _INT64_MAX else object)
    # back[k, i]: the place of letter i from the end, negative past the word
    back = lengths[:, None] - 1 - np.arange(width + 1)
    keys = (digits * pow5[np.maximum(back, 0)]).sum(axis=1)
    # g's letters from the last, padded with 0, against h's inverted
    # letters from the first (1 <-> 2, 3 <-> 4), padded with -1: the
    # letters that cancel end at the first mismatch, a pad at the latest
    reversed_ = np.where(back >= 0, np.take_along_axis(
        digits, np.maximum(back, 0), axis=1), 0)
    inverted = digits - 1 + 2 * (digits % 2)

    def products(key):
        place = pow5.astype(key.dtype)

        def block(g):
            cancel = (reversed_[g, None] != inverted).argmax(axis=2)
            kept = lengths - cancel
            yield (key[g, None] // place[cancel] * place[kept]
                   + key % place[kept])
        return block
    # a product's key has up to 2 * width digits
    return [keys.tolist()], 5 ** (2 * width), products


_FORMS = {Z2Elem: _z2_form, HeisElem: _heis_form, BSElem: _bs_form,
          WreathElem: _zwrz_form, FreeWord: _metab_form}


def _array_form(elements: Sequence[GroupElem]) -> _ArrayForm:
    """The array form of a nonempty S.  A set that mixes families or bs
    parameters raises the error :func:`groups.mul` raises on such a pair,
    and a non-element the ``TypeError`` of :func:`groups.family_of`."""
    first = elements[0]
    family = groups.family_of(first)
    for x in elements:
        if type(x) is not type(first):
            raise ValueError(
                f"family mismatch: {family} vs {groups.family_of(x)}")
        if type(x) is BSElem and x.m != first.m:
            raise ValueError(f"parameter mismatch: m={first.m} vs m={x.m}")
    columns, bound, products = _FORMS[type(first)](elements)
    lo, hi = [min(c) for c in columns], [max(c) for c in columns]
    # besides the products, _pack computes a column less its min and keys
    # below the product of the spans
    keys = math.prod(h - l + 1 for l, h in zip(lo, hi))
    fits = max(bound + _amax(lo, hi), keys) <= _INT64_MAX
    dtype = np.int64 if fits else object
    arrays = [np.array(c, dtype=dtype) for c in columns]
    return _ArrayForm(dtype, arrays, lo, hi, products(*arrays))


def _pack(form: _ArrayForm, columns: Iterable[np.ndarray]):
    """(inside, key): whether each row lies in the box of S's column
    ranges, and its key in mixed radix over their spans, column by column
    (0 where a row leaves the box)."""
    inside, key, radix = True, 0, 1
    for c, lo, hi in zip(columns, form.lo, form.hi):
        ok = (c >= lo) & (c <= hi)
        inside = inside & ok
        key = key + np.where(ok, c - lo, 0) * radix
        radix *= hi - lo + 1
    return inside, key


def _product_index(elements: Sequence[GroupElem],
                   rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """The product index of S = ``elements`` (sorted, no repeats) in
    blocks of ``rows`` whole rows: yields (top, index) where index[i, j] is
    the position of elements[top + i] * elements[j] in S, or -1.

    Each product row is found by its packed key (:func:`_pack`) with one
    ``searchsorted`` per block over the sorted keys of S.
    """
    size = len(elements)
    if not size:
        return
    form = _array_form(elements)
    _, keys = _pack(form, form.columns)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    for top in range(0, size, rows):
        inside, key = _pack(form, form.block(slice(top, top + rows)))
        at = np.minimum(np.searchsorted(keys, key), size - 1)
        yield top, np.where(inside & (keys[at] == key), order[at], -1)


# products per block of rows of the product index in :func:`verify`; a
# block's index and temporaries grow by about 90 bytes per product on int64
# coefficients and 180 on object ints (tracemalloc, z2 radius 9 at n = 1009
# and at n = 10^12 + 39)
_PAIR_CHUNK = 1 << 11


def _is_identity_elem(x: GroupElem) -> bool:
    if isinstance(x, FreeWord):
        # metab: only the empty word is *known* trivial; the caller asserts
        # the nontriviality of everything else (word problem out of scope)
        return x.word.is_empty()
    return groups.is_trivial(x)


def verify(spec: ApproxSpec, S: Iterable[GroupElem], delta) -> VerifyReport:
    """Check both approximation conditions of psi over S at tolerance delta.

    delta must lie in (0, 1].  For metab, S holds words; every nonempty word
    is taken to be nontrivial on the caller's authority, since the word
    problem is out of scope here.

    S is sorted by :func:`groups.sort_key`, and one pass over its pairs
    (g, h) in that order reads the product index: the position of gh in S,
    or -1 when gh lies outside S.  :func:`_product_index` builds it from
    S's coordinates in arrays, one ``searchsorted`` of packed keys per
    block, for metab words too.  The pairs with gh in S are checked in
    batches: psi(g) o psi(h) is composed and compared with psi(gh) by the
    closed forms behind :class:`AffineImage`, on int64 coefficient arrays
    when n^2 + 2n and npoints fit in int64 and on object arrays of exact
    ints otherwise.  The pass runs in blocks of whole rows of at most
    ``_PAIR_CHUNK`` products, so memory does not grow with |S|^2.  The
    homomorphism witness is the first pair in (g, h) scan order with the
    largest defect (a later block wins only when strictly worse), and
    there is none when the defect is 0.
    """
    delta = _unit_delta(delta)
    elements = sorted(set(S), key=groups.sort_key)
    npoints = spec.npoints

    # distances are disagreement counts over npoints until the report; the
    # coefficients lie in [0, n), so every value the closed forms build is
    # below n^2 + 2n or npoints: int64 when that fits, exact ints otherwise
    n = spec.n
    fits = max(n * n + 2 * n, npoints) <= _INT64_MAX
    columns = [np.array(c, dtype=np.int64 if fits else object)
               for c in zip(*(image(spec, g).coeffs for g in elements))]
    pairs = worst_defect = 0
    hom_witness: Optional[tuple[GroupElem, GroupElem]] = None
    rows = max(1, _PAIR_CHUNK // max(len(elements), 1))
    for top, index in _product_index(elements, rows):
        at_g, at_h = np.nonzero(index >= 0)
        if not len(at_g):
            continue
        at_gh = index[at_g, at_h]
        at_g += top
        pairs += len(at_gh)
        composed = _compose_coeffs(n, [c[at_g] for c in columns],
                                   [c[at_h] for c in columns])
        agree = _count_agreements(n, npoints, composed,
                                  [c[at_gh] for c in columns])
        at = int(np.argmin(agree))  # the block's first largest defect
        if npoints - int(agree[at]) > worst_defect:
            worst_defect = npoints - int(agree[at])
            hom_witness = (elements[at_g[at]], elements[at_h[at]])

    # the identity pass: the first nontrivial element closest to the identity
    worst_closeness: Optional[int] = None
    id_witness: Optional[GroupElem] = None
    at = [i for i, g in enumerate(elements) if not _is_identity_elem(g)]
    if at:
        ident = image(spec, groups.identity(spec.family, m=spec.m))
        agree = _count_agreements(n, npoints, [c[at] for c in columns],
                                  ident.coeffs)
        best = int(np.argmax(agree))  # the first largest agreement
        worst_closeness = npoints - int(agree[best])
        id_witness = elements[at[best]]

    defect = Fraction(worst_defect, npoints)
    closeness = (None if worst_closeness is None
                 else Fraction(worst_closeness, npoints))
    return VerifyReport(
        family=spec.family,
        npoints=npoints,
        delta=delta,
        worst_hom_defect=defect,
        hom_witness=hom_witness,
        worst_id_closeness=closeness,
        id_witness=id_witness,
        passed=defect < delta and (closeness is None
                                   or closeness > 1 - delta),
        elements_checked=len(elements),
        pairs_checked=pairs,
    )


# ---------------------------------------------------------------------------
# executable constants for the wreath / z2 sufficient conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyConditionResult:
    """Whether n divides t(m) for no admissible nonzero polynomial t.

    Admissible: degree <= C, integer coefficients with |t_i| < C.  When the
    answer is False, ``witness`` holds the coefficients (t_0, ..., t_d) of
    the first offending polynomial in the (degree, coefficients) scan and
    ``witness_value`` its value at m.  ``mode`` names the path that
    answered: "vacuous" (C = 0), "fast" or "exhaustive".
    """

    ok: bool
    witness: Optional[tuple[int, ...]]
    witness_value: Optional[int]
    mode: str

    def __bool__(self) -> bool:
        return self.ok


def check_poly_condition(n: int, m: int, C: int) -> PolyConditionResult:
    """Test whether n | t(m) fails for every nonzero t of degree <= C with
    |t_i| < C: by the sufficient fast path |m| > 2C + 1 and n > |m|^(C+1)
    where it holds, else exhaustively for C within the ``poly_C`` limit.
    """
    if C < 0:
        raise ValueError("C must be >= 0")
    if math.gcd(m, n) != 1:
        raise ValueError(f"m={m} must be coprime to n={n}")
    if C == 0:
        # no nonzero polynomial has degree <= 0 and |t_0| < 0 < 1: vacuous
        return PolyConditionResult(True, None, None, "vacuous")
    if abs(m) > 2 * C + 1 and n > abs(m) ** (C + 1):
        return PolyConditionResult(True, None, None, "fast")
    limits.check("poly_C", C)
    coeff_range = range(-(C - 1), C)
    powers = [m ** i for i in range(C + 1)]
    for degree in range(C + 1):
        lead_choices = [c for c in coeff_range if c != 0] if degree > 0 else coeff_range
        for lower in itertools.product(coeff_range, repeat=degree):
            for lead in lead_choices:
                coeffs = lower + (lead,)
                if degree == 0 and lead == 0:
                    continue
                value = sum(c * powers[i] for i, c in enumerate(coeffs))
                if value % n == 0:
                    return PolyConditionResult(False, coeffs, value, "exhaustive")
    return PolyConditionResult(True, None, None, "exhaustive")


@dataclass(frozen=True)
class HeisFixedReport:
    """Exact fixed-point count of psi(a^lam b^mu c^nu) on n^2 points.

    ``bound`` is |lam| * n.  ``bound_ok`` is None when lam = 0: the bound
    reads 0 there while mu or nu can still leave n * gcd(mu, n) points
    fixed, so that subcase is reported rather than judged.
    """

    n: int
    lam: int
    mu: int
    nu: int
    count: int
    bound: int
    bound_ok: Optional[bool]


def heis_fixed_bound(n: int, lam: int, mu: int, nu: int) -> HeisFixedReport:
    if n < 1:
        raise ValueError("n must be >= 1")
    if lam % n == 0 and mu % n == 0 and nu % n == 0:
        raise ValueError("element is trivial mod n")
    spec = make_approx("heis", n)
    count = image(spec, HeisElem(lam, mu, nu)).agree_count(
        image(spec, groups.identity("heis")))
    bound = abs(lam) * n
    bound_ok = None if lam == 0 else count <= bound
    return HeisFixedReport(n, lam, mu, nu, count, bound, bound_ok)

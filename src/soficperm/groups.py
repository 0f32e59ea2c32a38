"""Exact element arithmetic for the five group families used by the toolkit.

Families and tags:

- ``z2``     free abelian group on a, b; normal form a^lam b^mu
- ``heis``   integral Heisenberg group; normal form a^lam b^mu c^nu with
             c = [a, b] = a^-1 b^-1 a b central
- ``bs``     solvable Baumslag-Solitar group <a, b | b^-1 a b = a^m>;
             elements are matrices [[1, num * m^-den_exp], [0, m^pow]]
- ``zwrz``   wreath product Z wr Z; elements are matrices
             [[1, t(x)], [0, x^pow]] with t a Laurent polynomial
- ``metab``  free metabelian group on a, b; elements are kept as freely
             reduced words (no normal form -- the word problem is out of
             scope), so equality of words is only a sufficient condition
             for equality in the group

Products and inverses are computed in exact integers and land in the normal
form directly; the elements they build skip the constructors' checks, which
stay in place for input from outside.

Multiplication matches the permutation side: if psi sends an element to the
map x -> m^-pow (x + t(m)), then mul(g1, g2) has pow = pow1 + pow2 and
Laurent part t2 + x^pow2 * t1, which makes psi(g1 g2) = psi(g1) o psi(g2)
under right-to-left composition.

The Heisenberg sign convention is anchored the same way: with
(l1,m1,n1)*(l2,m2,n2) = (l1+l2, m1+m2, n1+n2 - m1*l2) the permutation
(x, y) -> (x + mu*y - nu, y + lam) is a homomorphism, and a^-1 b^-1 a b
evaluates to c = (0, 0, 1).  The opposite convention would flip nu's sign.

``_product_index`` gives, for a finite set S, the position in S of every
product of two of its elements, in blocks of whole rows.  It holds S as
integer coordinate columns -- (lam, mu) for z2, (lam, mu, nu) for heis,
(pow, value * m^E) for bs with E the largest den_exp plus the largest
|pow|, for zwrz pow plus the coefficient at each exponent S uses, and for
metab one key: the word's unit letters as base-5 digits 1..4 -- and builds
a block's product columns by the formulas of ``mul`` (for metab words, by
the count of letters that cancel where g meets h).  A product leaving S's
per-column [min, max] is outside S; otherwise it is packed column by
column into one mixed-radix key and found by ``searchsorted`` among S's
sorted keys.  A bound on every value is computed in Python ints first:
the columns are int64 when it fits and object (exact Python ints)
otherwise, so nothing wraps.  ``mul`` stays the product the rest of the
package uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from . import _numpy

np = _numpy.bind(globals())  # numpy itself from its first use

__all__ = [
    "FAMILIES",
    "GenWord",
    "Z2Elem",
    "HeisElem",
    "BSElem",
    "WreathElem",
    "FreeWord",
    "GroupElem",
    "genword",
    "word_mul",
    "word_inverse",
    "identity",
    "generator",
    "mul",
    "inverse",
    "elem_power",
    "eval_word",
    "is_trivial",
    "ball",
    "family_of",
    "sort_key",
    "abelianization",
]

FAMILIES = ("z2", "heis", "bs", "zwrz", "metab")


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def _free_reduce(letters: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class GenWord:
    """Freely reduced word in generator powers, e.g. a^2 b^-1 t^3.

    ``letters`` is a tuple of (generator, exponent) with nonzero exponents
    and no two adjacent letters sharing a generator.
    """

    letters: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for gen, exp in self.letters:
            if gen not in ("a", "b", "t"):
                raise ValueError(f"unknown generator {gen!r}")
            if exp == 0:
                raise ValueError("zero exponent in word")
        for (g1, _), (g2, _) in zip(self.letters, self.letters[1:]):
            if g1 == g2:
                raise ValueError("word is not freely reduced")

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.letters)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` from fields already in
    normal form, without running ``__post_init__``."""
    x = object.__new__(cls)
    x.__dict__.update(fields)
    return x


def genword(pairs: Iterable[tuple[str, int]]) -> GenWord:
    """Build a GenWord, freely reducing the given letters."""
    return GenWord(_free_reduce(pairs))


def word_mul(w1: GenWord, w2: GenWord) -> GenWord:
    """w1 w2, freely reduced.  Both words are reduced already, so letters
    cancel or merge only where they meet."""
    left, right = w1.letters, w2.letters
    i, j = len(left), 0
    while i and j < len(right) and left[i - 1][0] == right[j][0]:
        gen, merged = right[j][0], left[i - 1][1] + right[j][1]
        i, j = i - 1, j + 1
        if merged:
            return _trusted(GenWord,
                            letters=left[:i] + ((gen, merged),) + right[j:])
    return _trusted(GenWord, letters=left[:i] + right[j:])


def word_inverse(w: GenWord) -> GenWord:
    return _trusted(GenWord,
                    letters=tuple((g, -e) for g, e in reversed(w.letters)))


# ---------------------------------------------------------------------------
# element types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Z2Elem:
    lam: int
    mu: int


@dataclass(frozen=True)
class HeisElem:
    lam: int
    mu: int
    nu: int


@dataclass(frozen=True)
class BSElem:
    """Matrix [[1, num * m^-den_exp], [0, m^pow]] with m fixed, |m| >= 2.

    Normalized so den_exp is minimal: m does not divide num when den_exp > 0.
    """

    m: int
    num: int
    den_exp: int
    pow: int

    def __post_init__(self):
        if abs(self.m) < 2:
            raise ValueError("|m| must be >= 2")
        if self.den_exp < 0:
            raise ValueError("den_exp must be >= 0")
        if self.den_exp > 0 and self.num % self.m == 0:
            raise ValueError("not normalized: m divides num with den_exp > 0")

    def value(self) -> Fraction:
        """The upper-right matrix entry num / m^den_exp as an exact rational."""
        return Fraction(self.num, self.m ** self.den_exp)


def _bs_make(m: int, num: int, e: int, pow_: int) -> BSElem:
    """The element with value num * m^e in normal form: factors of m are
    moved from num into the exponent while it is negative, so den_exp = -e
    ends minimal."""
    if num == 0:
        return _trusted(BSElem, m=m, num=0, den_exp=0, pow=pow_)
    while e < 0 and num % m == 0:
        num //= m
        e += 1
    if e > 0:
        num *= m ** e
        e = 0
    return _trusted(BSElem, m=m, num=num, den_exp=-e, pow=pow_)


@dataclass(frozen=True)
class WreathElem:
    """Matrix [[1, t(x)], [0, x^pow]] with t a Laurent polynomial over Z.

    ``poly`` stores (exponent, coefficient) pairs, ascending by exponent,
    zero coefficients omitted.
    """

    poly: tuple[tuple[int, int], ...]
    pow: int

    def __post_init__(self):
        exps = [e for e, _ in self.poly]
        if exps != sorted(exps) or len(set(exps)) != len(exps):
            raise ValueError("poly must be sorted by exponent, no duplicates")
        if any(c == 0 for _, c in self.poly):
            raise ValueError("poly stores no zero coefficients")


def _wreath_make(poly: dict[int, int], pow_: int) -> WreathElem:
    items = tuple(sorted((e, c) for e, c in poly.items() if c != 0))
    return _trusted(WreathElem, poly=items, pow=pow_)


@dataclass(frozen=True)
class FreeWord:
    """Free metabelian element carried as a freely reduced word in a, b."""

    word: GenWord

    def __post_init__(self):
        for gen, _ in self.word.letters:
            if gen not in ("a", "b"):
                raise ValueError("free metabelian words use generators a, b only")


GroupElem = Union[Z2Elem, HeisElem, BSElem, WreathElem, FreeWord]

_FAMILY_BY_TYPE = {
    Z2Elem: "z2",
    HeisElem: "heis",
    BSElem: "bs",
    WreathElem: "zwrz",
    FreeWord: "metab",
}


def family_of(x: GroupElem) -> str:
    try:
        return _FAMILY_BY_TYPE[type(x)]
    except KeyError:
        raise TypeError(f"not a group element: {x!r}") from None


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


# ---------------------------------------------------------------------------
# identity / generators
# ---------------------------------------------------------------------------

def identity(family: str, *, m: int | None = None) -> GroupElem:
    """The identity of the family, as the generator power a^0."""
    return generator(family, "a", 0, m=m)


def generator(family: str, gen: str, exp: int = 1, *, m: int | None = None) -> GroupElem:
    """The element gen^exp in the given family (gen is 'a' or 'b')."""
    _check_family(family)
    if gen not in ("a", "b"):
        raise ValueError(f"invalid generator {gen!r} for family {family}")
    if family == "z2":
        return Z2Elem(exp, 0) if gen == "a" else Z2Elem(0, exp)
    if family == "heis":
        return HeisElem(exp, 0, 0) if gen == "a" else HeisElem(0, exp, 0)
    if family == "bs":
        if m is None:
            raise ValueError("bs needs the parameter m")
        return BSElem(m, exp, 0, 0) if gen == "a" else BSElem(m, 0, 0, exp)
    if family == "zwrz":
        if gen == "a":
            return _wreath_make({0: exp}, 0)
        return WreathElem((), exp)
    return FreeWord(genword([(gen, exp)]))


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def mul(x: GroupElem, y: GroupElem) -> GroupElem:
    """Group product in normal form (word concatenation for metab)."""
    if type(x) is not type(y):
        raise ValueError(f"family mismatch: {family_of(x)} vs {family_of(y)}")
    if isinstance(x, Z2Elem):
        return Z2Elem(x.lam + y.lam, x.mu + y.mu)
    if isinstance(x, HeisElem):
        return HeisElem(x.lam + y.lam, x.mu + y.mu, x.nu + y.nu - x.mu * y.lam)
    if isinstance(x, BSElem):
        if x.m != y.m:
            raise ValueError(f"parameter mismatch: m={x.m} vs m={y.m}")
        # value y + m^pow_y * value x = num * m^e over the common exponent e
        m = x.m
        e_y, e_x = -y.den_exp, y.pow - x.den_exp
        e = min(e_y, e_x)
        num = y.num * m ** (e_y - e) + x.num * m ** (e_x - e)
        return _bs_make(m, num, e, x.pow + y.pow)
    if isinstance(x, WreathElem):
        poly = dict(y.poly)
        for e, c in x.poly:
            poly[e + y.pow] = poly.get(e + y.pow, 0) + c
        return _wreath_make(poly, x.pow + y.pow)
    return _trusted(FreeWord, word=word_mul(x.word, y.word))


def inverse(x: GroupElem) -> GroupElem:
    if isinstance(x, Z2Elem):
        return Z2Elem(-x.lam, -x.mu)
    if isinstance(x, HeisElem):
        return HeisElem(-x.lam, -x.mu, -x.nu - x.lam * x.mu)
    if isinstance(x, BSElem):
        # value -m^-pow * value x
        return _bs_make(x.m, -x.num, -x.pow - x.den_exp, -x.pow)
    if isinstance(x, WreathElem):
        poly = {e - x.pow: -c for e, c in x.poly}
        return _wreath_make(poly, -x.pow)
    if isinstance(x, FreeWord):
        return _trusted(FreeWord, word=word_inverse(x.word))
    raise TypeError(f"not a group element: {x!r}")


def elem_power(x: GroupElem, e: int) -> GroupElem:
    fam = family_of(x)
    if e == 0:
        m = x.m if isinstance(x, BSElem) else None
        return identity(fam, m=m)
    if e < 0:
        return elem_power(inverse(x), -e)
    # square-and-multiply: O(log e) products
    acc = None
    while e:
        if e & 1:
            acc = x if acc is None else mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


def eval_word(w: GenWord, family: str, *, m: int | None = None) -> GroupElem:
    """Left-to-right product of generator powers, in normal form."""
    _check_family(family)
    acc = identity(family, m=m)
    for gen, exp in w.letters:
        acc = mul(acc, generator(family, gen, exp, m=m))
    return acc


def is_trivial(x: GroupElem) -> bool:
    """True iff x is the group identity.  Not available for metab words."""
    if isinstance(x, FreeWord):
        raise ValueError(
            "triviality of free metabelian words is out of scope; "
            "only the empty word is known trivial"
        )
    if isinstance(x, Z2Elem):
        return x.lam == 0 and x.mu == 0
    if isinstance(x, HeisElem):
        return x.lam == 0 and x.mu == 0 and x.nu == 0
    if isinstance(x, BSElem):
        return x.num == 0 and x.den_exp == 0 and x.pow == 0
    if isinstance(x, WreathElem):
        return not x.poly and x.pow == 0
    raise TypeError(f"not a group element: {x!r}")


# ---------------------------------------------------------------------------
# balls and ordering
# ---------------------------------------------------------------------------

def sort_key(x: GroupElem):
    """Deterministic total order within a family (used for tie-breaking)."""
    if isinstance(x, Z2Elem):
        return (x.lam, x.mu)
    if isinstance(x, HeisElem):
        return (x.lam, x.mu, x.nu)
    if isinstance(x, BSElem):
        return (x.pow, x.den_exp, x.num)
    if isinstance(x, WreathElem):
        return (x.pow, x.poly)
    if isinstance(x, FreeWord):
        return (x.word.length(), x.word.letters)
    raise TypeError(f"not a group element: {x!r}")


def ball(family: str, radius: int, *,
         m: int | None = None) -> tuple[GroupElem, ...]:
    """All elements within word length ``radius`` of the identity, found
    breadth-first over {a, b}^+- and sorted by :func:`sort_key`.

    For the four families with normal forms these are distinct group
    elements.  For metab they are freely reduced words with no group-level
    deduplication."""
    _check_family(family)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = [
        generator(family, g, e, m=m) for g in ("a", "b") for e in (1, -1)
    ]
    start = identity(family, m=m)
    seen = {start}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen, key=sort_key))


# ---------------------------------------------------------------------------
# abelianization (exponent sums of a and b)
# ---------------------------------------------------------------------------

def abelianization(x: GroupElem) -> tuple[int, int]:
    """Exponent sums (a-sum, b-sum) under the retraction onto <a> x <b>.

    Defined for z2, heis, zwrz, and metab words.  BS(1,m) admits no such
    retraction (a maps into the subgroup b normally generates), so BSElem
    is rejected.
    """
    if isinstance(x, (Z2Elem, HeisElem)):
        return (x.lam, x.mu)
    if isinstance(x, WreathElem):
        return (sum(c for _, c in x.poly), x.pow)
    if isinstance(x, FreeWord):
        a_sum = sum(e for g, e in x.word.letters if g == "a")
        b_sum = sum(e for g, e in x.word.letters if g == "b")
        return (a_sum, b_sum)
    if isinstance(x, BSElem):
        raise ValueError("bs admits no retraction onto <a> x <b>")
    raise TypeError(f"not a group element: {x!r}")


# ---------------------------------------------------------------------------
# the product index of a finite set, in arrays
# ---------------------------------------------------------------------------

_INT64_MAX = 2**63 - 1


class _ArrayForm(NamedTuple):
    """A finite set S as integer coordinate columns, one entry per element,
    each column with its [min, max] over S; ``block(g)`` yields the same
    columns for the products of the rows ``g`` of S with all of S, as
    (rows, |S|) arrays, by the formulas of :func:`mul`.  Every column and
    every intermediate is int64 when a bound on them fits, else object."""

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
    parameters raises the error :func:`mul` raises on such a pair, and a
    non-element the ``TypeError`` of :func:`family_of`."""
    first = elements[0]
    family = family_of(first)
    for x in elements:
        if type(x) is not type(first):
            raise ValueError(f"family mismatch: {family} vs {family_of(x)}")
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

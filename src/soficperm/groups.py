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
stay in place for input from outside.  Nothing here uses arrays or numpy;
the array form of a finite set that ``verify`` reads is in ``approx``.

Multiplication matches the permutation side: if psi sends an element to the
map x -> m^-pow (x + t(m)), then mul(g1, g2) has pow = pow1 + pow2 and
Laurent part t2 + x^pow2 * t1, which makes psi(g1 g2) = psi(g1) o psi(g2)
under right-to-left composition.

The Heisenberg sign convention is anchored the same way: with
(l1,m1,n1)*(l2,m2,n2) = (l1+l2, m1+m2, n1+n2 - m1*l2) the permutation
(x, y) -> (x + mu*y - nu, y + lam) is a homomorphism, and a^-1 b^-1 a b
evaluates to c = (0, 0, 1).  The opposite convention would flip nu's sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from . import limits

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
    deduplication.  The search stops with the ``ball_elements`` error of
    :mod:`soficperm.limits` once it has found more elements than that
    limit, so a refused ball costs at most the limit."""
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
            limits.check("ball_elements", len(seen))
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

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
the product index of S (which pairs multiply back into S, and where; see
``groups._product_index``) and evaluates composition and agreement for
all indexed pairs at once: the closed forms are written once, in helpers
that take Python ints or numpy arrays alike.  The arrays are int64 while
n^2 + 2n and the degree fit, and object arrays of Python ints past that,
so n = 10^12 needs no second path.  Amplified specs (block-diagonal copies
of a smaller spec, see :func:`amplify_spec`) keep the homomorphism defect
at zero while the identity-distance condition degrades by at most 1/(q+1)
for q full blocks.

Full tables and the exhaustive polynomial scan are checked first against
:mod:`soficperm.limits` (see "Limits" in the README).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import groups
from . import limits
from . import perm as permmod
from .groups import (
    Ball,
    BSElem,
    FreeWord,
    GenWord,
    GroupElem,
    HeisElem,
    WreathElem,
    Z2Elem,
)
from .perm import Perm

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
    "to_fraction",
]

def to_fraction(x) -> Fraction:
    """Exact tolerance parsing: Fraction, int, and decimal strings pass
    through exactly; floats go through their shortest repr."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


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


def _agree_counts(n: int, npoints: int, first: tuple, second: tuple):
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
        :func:`_agree_counts`."""
        self._require_same_space(other)
        return _agree_counts(self.n, self.npoints, self.coeffs, other.coeffs)

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


def _check_delta(delta) -> Fraction:
    """The tolerance as an exact rational; it must lie in (0, 1]."""
    delta = to_fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return delta


def _passes(defect: Fraction, closeness: Optional[Fraction],
            delta: Fraction) -> bool:
    """The pass rule of :class:`VerifyReport`: defect < delta and, when some
    element is nontrivial, closeness > 1 - delta."""
    return defect < delta and (closeness is None or closeness > 1 - delta)


def verify(spec: ApproxSpec, S: Ball | Iterable[GroupElem], delta) -> VerifyReport:
    """Check both approximation conditions of psi over S at tolerance delta.

    delta must lie in (0, 1].  For metab, S holds words; every nonempty word
    is taken to be nontrivial on the caller's authority, since the word
    problem is out of scope here.

    S is sorted by :func:`groups.sort_key`, and one pass over its pairs
    (g, h) in that order reads the product index: the position of gh in S,
    or -1 when gh lies outside S.  ``groups._product_index`` builds it from
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
    delta = _check_delta(delta)
    elements = sorted(set(S), key=groups.sort_key)
    npoints = spec.npoints

    # distances are disagreement counts over npoints until the report; the
    # coefficients lie in [0, n), so every value the closed forms build is
    # below n^2 + 2n or npoints: int64 when that fits, exact ints otherwise
    n = spec.n
    fits = max(n * n + 2 * n, npoints) <= groups._INT64_MAX
    columns = [np.array(c, dtype=np.int64 if fits else object)
               for c in zip(*(image(spec, g).coeffs for g in elements))]
    pairs = worst_defect = 0
    hom_witness: Optional[tuple[GroupElem, GroupElem]] = None
    rows = max(1, _PAIR_CHUNK // max(len(elements), 1))
    for top, index in groups._product_index(elements, rows):
        at_g, at_h = np.nonzero(index >= 0)
        if not len(at_g):
            continue
        at_gh = index[at_g, at_h]
        at_g += top
        pairs += len(at_gh)
        composed = _compose_coeffs(n, [c[at_g] for c in columns],
                                   [c[at_h] for c in columns])
        agree = _agree_counts(n, npoints, composed,
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
        agree = _agree_counts(n, npoints, [c[at] for c in columns],
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
        passed=_passes(defect, closeness, delta),
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

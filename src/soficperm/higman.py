"""Cyclic extensions Hig_k(G): symbolic presentation data, the slot map
mubar into G^k, and the explicit four-coordinate action tables over F_p.

The slot map sends g placed in copy l to the k-tuple holding g at slot l,
the b-shadow of g (through the retraction onto <a> x <b> and the flip
phi: b -> a) at slot l-1, and the a-shadow at slot l+1, indices mod k.
Placing b at slot l and placing phi(b) = a at slot l+1 then produce the
same tuple, which is what makes the map well defined on the amalgam.

The action tables realize the k = 4 extension of Z wr Z on (F_p)^4: pick a
prime p and two tables f, lambda: F_p -> F_p - {0}, and set

    t: (x, y, z, w) -> (y, z, w, x)
    a: (x, y, z, w) -> (x * lambda(z), y, z, w + f(z))
    b: (x, y, z, w) -> (x, y, z + f(y), w * lambda(y))
    c: (x, y, z, w) -> (x, y + f(x), z * lambda(x), w)
    d: (x, y, z, w) -> (x + f(w), y * lambda(w), z, w)

so that conjugation by t cycles a -> d -> c -> b -> a and each adjacent
pair (base g, lamp h = g^t) generates a wreath-like copy whose lamp
conjugates h^{g^i} pairwise commute.  Points are encoded as
x*p^3 + y*p^2 + z*p + w.

The p^4 points and the probe depth are checked first against
:mod:`soficperm.limits` (see "Limits" in the README).
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import groups
from . import limits
from . import perm as permmod
from .groups import GenWord, GroupElem, WreathElem, genword
from .perm import Perm

__all__ = [
    "HigPresentation",
    "ActionTable",
    "RelationCheck",
    "RelationReport",
    "hig_presentation",
    "mubar",
    "make_action",
    "random_tables",
    "verify_action",
    "injectivity_probe",
]

MUBAR_FAMILIES = ("z2", "heis", "zwrz", "metab")

_FAMILY_RELATOR_SCHEMA = {
    "z2": ("[a,b]",),
    "heis": ("[a,[a,b]]", "[b,[a,b]]"),
    "bs": ("b^-1 a b a^-m",),
    "zwrz": ("[a, b^-i a b^i] for all i",),
    "metab": ("[[u,v],[w,x]] for all u,v,w,x (second derived subgroup)",),
}


@dataclass(frozen=True)
class HigPresentation:
    """Symbolic data for the order-k cyclic extension of one group family.

    The k copies share generators around a cycle: copy i is generated by
    (a_i, b_i) with b_i identified with a_{i+1}, indices mod k.  At the
    level of the standard two-generator presentation the extension adds a
    letter t with relators t^k and t^-1 b t a^-1.
    """

    k: int
    family: str
    relator_schema: tuple[str, ...]
    extension_relators: tuple[GenWord, ...]

    def copy_generators(self) -> tuple[tuple[str, str], ...]:
        """(a_i, b_i) names per copy, with b_i = a_{i+1} shared."""
        return tuple(
            (f"s{i}", f"s{(i + 1) % self.k}") for i in range(self.k)
        )


def hig_presentation(k: int, family: str) -> HigPresentation:
    if k < 1:
        raise ValueError("k must be >= 1")
    if family not in groups.FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    relators = (
        genword([("t", k)]),
        genword([("t", -1), ("b", 1), ("t", 1), ("a", -1)]),
    )
    return HigPresentation(k, family, _FAMILY_RELATOR_SCHEMA[family], relators)


# ---------------------------------------------------------------------------
# the slot map into G^k
# ---------------------------------------------------------------------------

def mubar(g: GroupElem, l: int, k: int) -> tuple[GroupElem, ...]:
    """The k-tuple image of g sitting in copy l (slots 0-based mod k).

    Slot l holds g itself; slot l-1 holds b^(a-exponent-sum of g); slot l+1
    holds a^(b-exponent-sum of g); everything else is the identity.
    Requires k >= 3 so the three slots are distinct, and a family with a
    retraction onto <a> x <b> (BS(1,m) has none).
    """
    family = groups.family_of(g)
    if family not in MUBAR_FAMILIES:
        raise ValueError(f"family {family!r} admits no retraction onto <a> x <b>")
    if k < 3:
        raise ValueError("k must be >= 3 so adjacent slots do not collide")
    a_sum, b_sum = groups.abelianization(g)
    m = getattr(g, "m", None)
    slots = [groups.identity(family, m=m) for _ in range(k)]
    slots[l % k] = g
    # phi^-1 of the a-shadow and phi of the b-shadow; exponent 0 gives e
    slots[(l - 1) % k] = groups.generator(family, "b", a_sum, m=m)
    slots[(l + 1) % k] = groups.generator(family, "a", b_sum, m=m)
    return tuple(slots)


# ---------------------------------------------------------------------------
# explicit actions on (F_p)^4
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ActionTable:
    """p, the two value tables, and the five permutations on p^4 points."""

    p: int
    f_table: tuple[int, ...]
    lambda_table: tuple[int, ...]
    perms: dict[str, Perm]


@dataclass(frozen=True)
class RelationCheck:
    name: str
    ok: bool
    witness: Optional[tuple[int, int, int, int]]


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]
    t_order_ok: bool
    t_cycle: Optional[tuple[str, ...]]
    passed: bool


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_p(p: int) -> None:
    limits.check("table_entries", p ** 4)
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")


def _check_table(p: int, table: Sequence[int], name: str) -> tuple[int, ...]:
    if len(table) != p:
        raise ValueError(f"{name} must have one value per residue (length {p})")
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
           for v in table):
        raise ValueError(f"{name} must hold integers")
    reduced = tuple(v % p for v in table)
    if any(v == 0 for v in reduced):
        raise ValueError(f"{name} must take nonzero values mod {p}")
    return reduced


def _decode(p: int, idx: int) -> tuple[int, int, int, int]:
    w = idx % p
    idx //= p
    z = idx % p
    idx //= p
    y = idx % p
    return (idx // p, y, z, w)


def make_action(
    p: int, f_table: Sequence[int], lambda_table: Sequence[int]
) -> ActionTable:
    """Build the five permutations on p^4 points from the value tables."""
    _check_p(p)
    f = np.asarray(_check_table(p, f_table, "f_table"), dtype=np.int64)
    lam = np.asarray(_check_table(p, lambda_table, "lambda_table"), dtype=np.int64)

    idx = np.arange(p ** 4, dtype=np.int64)
    w = idx % p
    z = (idx // p) % p
    y = (idx // p ** 2) % p
    x = idx // p ** 3

    def enc(xx, yy, zz, ww):
        return ((xx % p) * p ** 3 + (yy % p) * p ** 2 + (zz % p) * p + (ww % p))

    perms = {
        "t": Perm(enc(y, z, w, x), _trusted=True),
        "a": Perm(enc(x * lam[z], y, z, w + f[z]), _trusted=True),
        "b": Perm(enc(x, y, z + f[y], w * lam[y]), _trusted=True),
        "c": Perm(enc(x, y + f[x], z * lam[x], w), _trusted=True),
        "d": Perm(enc(x + f[w], y * lam[w], z, w), _trusted=True),
    }
    return ActionTable(p, tuple(int(v) for v in f), tuple(int(v) for v in lam), perms)


def random_tables(p: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two uniform random tables F_p -> F_p - {0}, deterministic in the seed."""
    _check_p(p)
    rng = random.Random(seed)
    f = tuple(rng.randrange(1, p) for _ in range(p))
    lam = tuple(rng.randrange(1, p) for _ in range(p))
    return f, lam


def _relation(name: str, p: int, g: Perm, h: Perm) -> RelationCheck:
    """The check that g = h; its witness is the first point where they
    differ."""
    diff = np.flatnonzero(g.images != h.images)
    witness = _decode(p, int(diff[0])) if len(diff) else None
    return RelationCheck(name, witness is None, witness)


def verify_action(act: ActionTable, window: int) -> RelationReport:
    """Exact relation checks: t^4 = id, a^t = d, the discovered t-cycle on
    {a, b, c, d}, and for each adjacent pair (g, h = g^t) the commutators
    [h^{g^i}, h^{g^j}] = id for all |i|, |j| <= window."""
    if window < 1:
        raise ValueError("window must be >= 1")
    p = act.p
    t = act.perms["t"]
    t_order = _relation("t^4", p, permmod.power(t, 4), Perm.identity(p ** 4))
    checks = [t_order]

    names = ("a", "b", "c", "d")
    conj = {name: permmod.conjugate(act.perms[name], t) for name in names}
    checks.append(_relation("a^t = d", p, conj["a"], act.perms["d"]))

    # discover where conjugation by t sends each named generator
    by_perm = {act.perms[name]: name for name in names}
    succ = {name: by_perm.get(conj[name]) for name in names}
    walk = ["a"]
    while succ[walk[-1]] not in (None, *walk):
        walk.append(succ[walk[-1]])
    cycle = tuple(walk) if len(walk) == 4 and succ[walk[-1]] == "a" else None
    checks.append(RelationCheck("t-conjugation is a 4-cycle on {a,b,c,d}",
                                cycle is not None, None))

    pairs = (
        [(g, succ[g]) for g in cycle] if cycle is not None else [("a", "d")]
    )
    for base_name, lamp_name in pairs:
        base = act.perms[base_name]
        lamp = act.perms[lamp_name]
        powers = {i: permmod.power(base, i) for i in range(-window, window + 1)}
        shifted = {i: permmod.conjugate(lamp, powers[i])
                   for i in range(-window, window + 1)}
        for i in range(-window, window + 1):
            for j in range(i + 1, window + 1):
                checks.append(_relation(
                    f"[{lamp_name}^({base_name}^{i}), {lamp_name}^({base_name}^{j})]",
                    p,
                    permmod.compose(shifted[i], shifted[j]),
                    permmod.compose(shifted[j], shifted[i]),
                ))

    passed = all(c.ok for c in checks)
    return RelationReport(tuple(checks), t_order.ok, cycle, passed)


def injectivity_probe(act: ActionTable, depth: int) -> list[WreathElem]:
    """Map every nontrivial wreath normal form of word length <= depth
    through the copy (base = a, lamp = d = a^t) and return those acting as
    the identity; empty output means no collapse was found to this depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    limits.check("probe_depth", depth)
    if depth == 0:
        return []
    base = act.perms["a"]
    lamp = act.perms["d"]
    ident = Perm.identity(act.p ** 4)
    offenders: list[WreathElem] = []
    for elem in groups.ball("zwrz", depth):
        if groups.is_trivial(elem):
            continue
        image = permmod.power(base, elem.pow)
        for e, c in elem.poly:
            shifted = permmod.conjugate(permmod.power(lamp, c),
                                        permmod.power(base, e))
            image = permmod.compose(image, shifted)
        if image == ident:
            offenders.append(elem)
    return offenders

"""Cyclic extensions Hig_k(G): symbolic presentation data, the slot map
mubar into G^k, and the explicit four-coordinate action tables over F_p.

The slot map sends g placed in copy l to the k-tuple holding g at slot l,
the b-shadow of g (through the retraction onto <a> x <b> and the flip
phi: b -> a) at slot l-1, and the a-shadow at slot l+1, indices mod k.
Placing b at slot l and placing phi(b) = a at slot l+1 then produce the
same tuple, which is what makes the map well defined on the amalgam.

The action tables realize the k = 4 extension of Z wr Z on (F_p)^4: pick a
prime p and two tables f, lambda: F_p -> F_p - {0}.  They give t and a;
conjugation by t carries each copy to the next, so d, c and b are the
successive t-conjugates of a round the cycle a -> d -> c -> b -> a:

    t: (x, y, z, w) -> (y, z, w, x)
    a: (x, y, z, w) -> (x * lambda(z), y, z, w + f(z))
    d = a^t: (x, y, z, w) -> (x + f(w), y * lambda(w), z, w)
    c = d^t: (x, y, z, w) -> (x, y + f(x), z * lambda(x), w)
    b = c^t: (x, y, z, w) -> (x, y, z + f(y), w * lambda(y))

Each adjacent pair (base g, lamp h = g^t) of that cycle, listed in
``_PAIRS``, generates a wreath-like copy whose lamp conjugates h^{g^i}
pairwise commute.  :func:`verify_action` checks the action against this
fixed cycle.  Once the cycle holds, each copy is the t-conjugate of the one
before, so the (a, d) copy's lamp conjugates decide the commutators of all
four: the check composes O(window) permutations, not O(window^2) per copy.
Points are encoded as x*p^3 + y*p^2 + z*p + w.  An action is its tables:
the five permutations are built on first read of ``perms``.

The p^4 points and the probe depth are checked first against
:mod:`soficperm.limits` (see "Limits" in the README).
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from functools import cached_property
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

# the t-orbit of a and its adjacent (base, lamp = base^t) pairs
_ORBIT = ("a", "d", "c", "b")
_PAIRS = tuple(zip(_ORBIT, _ORBIT[1:] + _ORBIT[:1]))

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
    groups._check_family(family)
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
    The exponent sums are those of the retraction onto <a> x <b>, which
    :func:`groups.abelianization` refuses for BS(1,m), the one family
    without it.  Requires k >= 3 so the three slots are distinct.
    """
    a_sum, b_sum = groups.abelianization(g)
    if k < 3:
        raise ValueError("k must be >= 3 so adjacent slots do not collide")
    family = groups.family_of(g)
    slots = [groups.identity(family) for _ in range(k)]
    slots[l % k] = g
    # phi^-1 of the a-shadow and phi of the b-shadow; exponent 0 gives e
    slots[(l - 1) % k] = groups.generator(family, "b", a_sum)
    slots[(l + 1) % k] = groups.generator(family, "a", b_sum)
    return tuple(slots)


# ---------------------------------------------------------------------------
# explicit actions on (F_p)^4
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ActionTable:
    """p and the two value tables; the five ``perms`` build on first read:
    t and a from the tables, then d, c and b as successive t-conjugates."""

    p: int
    f_table: tuple[int, ...]
    lambda_table: tuple[int, ...]

    @cached_property
    def perms(self) -> dict[str, Perm]:
        p = self.p
        f = np.asarray(self.f_table, dtype=np.int64)
        lam = np.asarray(self.lambda_table, dtype=np.int64)
        x, yzw = np.divmod(np.arange(p ** 4, dtype=np.int64), p ** 3)
        z, w = yzw // p % p, yzw % p
        t = yzw * p + x                                # (y, z, w, x)
        t_inv = w * p ** 3 + x * p ** 2 + yzw // p     # (w, x, y, z)
        a = x * lam[z] % p * p ** 3 + yzw - w + (w + f[z]) % p
        del x, yzw, z, w
        images = {"t": t, "a": a}
        for g, h in _PAIRS[:-1]:
            images[h] = t_inv[images[g][t]]   # h = g^t = t^-1 g t
        return {name: Perm(images[name], _trusted=True) for name in "tabcd"}


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
    # a 0-d array has __len__ but no length, so an array must be 1-d too
    if (not hasattr(table, "__len__") or getattr(table, "ndim", 1) != 1
            or len(table) != p):
        raise ValueError(f"{name} must be a list of {p} integers")
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
           for v in table):
        raise ValueError(f"{name} must hold integers")
    reduced = tuple(int(v) % p for v in table)
    if any(v == 0 for v in reduced):
        raise ValueError(f"{name} must take nonzero values mod {p}")
    return reduced


def make_action(
    p: int, f_table: Sequence[int], lambda_table: Sequence[int]
) -> ActionTable:
    """The action of the checked tables; ``perms`` builds on first read."""
    _check_p(p)
    return ActionTable(p, _check_table(p, f_table, "f_table"),
                       _check_table(p, lambda_table, "lambda_table"))


def random_tables(p: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two uniform random tables F_p -> F_p - {0}, deterministic in the seed."""
    _check_p(p)
    rng = random.Random(seed)
    f = tuple(rng.randrange(1, p) for _ in range(p))
    lam = tuple(rng.randrange(1, p) for _ in range(p))
    return f, lam


def _relation(name: str, p: int, differ: np.ndarray) -> RelationCheck:
    """The check that the difference mask ``differ`` holds no point; its
    witness is the first point it holds, as (x, y, z, w)."""
    first = int(np.argmax(differ))
    witness = tuple(int(v) for v in np.unravel_index(first, (p,) * 4))
    return RelationCheck(name, not differ[first], witness if differ[first] else None)


def verify_action(act: ActionTable, window: int) -> RelationReport:
    """Exact relation checks: t^4 = id, a^t = d, that t-conjugation sends
    each generator to its successor in the construction's cycle
    a -> d -> c -> b -> a, and for each pair (g, h = g^t) of ``_PAIRS``
    the commutators [h^{g^i}, h^{g^j}] = id for all |i|, |j| <= window.
    When the cycle check fails, only the pair (a, d) is checked.  Conjugation
    by t is a relabelling: g^t = h holds at x exactly when
    g(t(x)) = t(h(x)), so the checks build neither t^-1 nor g^t.

    One copy decides all four.  [h^{g^i}, h^{g^j}] is [h, h^{g^(j-i)}]
    conjugated by g^i, so the (a, d) copy's lamp conjugates d^{a^m},
    m = 1 .. 2*window, give one mask per m of the points where d and
    d^{a^m} do not commute; once the cycle check passes, copy k is copy 0
    conjugated by t^k, so its check (i, j) fails at x exactly when mask
    j - i holds a^i(t^k(x)).  That point is gathered only when the mask
    holds one."""
    if window < 1:
        raise ValueError("window must be >= 1")
    p, perms = act.p, act.perms
    t, a, d = perms["t"], perms["a"], perms["d"]
    t_order = _relation("t^4", p, permmod.power(t, 4).images != np.arange(p ** 4))
    a_t = _relation("a^t = d", p, a.images[t.images] != t.images[d.images])
    cycled = a_t.ok and all(np.array_equal(perms[g].images[t.images],
                                           t.images[perms[h].images])
                            for g, h in _PAIRS[1:])
    checks = [t_order, a_t, RelationCheck("t-conjugation is a 4-cycle on {a,b,c,d}",
                                          cycled, None)]

    a_inv, shifted, masks = permmod.inverse(a), d, {}
    for m in range(1, 2 * window + 1):
        shifted = permmod.compose(a_inv, permmod.compose(shifted, a))
        masks[m] = d.images[shifted.images] != shifted.images[d.images]
    for k, (base, lamp) in enumerate(_PAIRS if cycled else _PAIRS[:1]):
        for i in range(-window, window + 1):
            at = None
            for j in range(i + 1, window + 1):
                differ = masks[j - i]
                if differ.any():
                    if at is None:
                        at = permmod.power(a, i).images[permmod.power(t, k).images]
                    differ = differ[at]
                checks.append(_relation(
                    f"[{lamp}^({base}^{i}), {lamp}^({base}^{j})]", p, differ))

    return RelationReport(tuple(checks), t_order.ok, _ORBIT if cycled else None,
                          all(c.ok for c in checks))


def injectivity_probe(act: ActionTable, depth: int) -> list[WreathElem]:
    """Map every nontrivial wreath normal form of word length <= depth
    through the copy (base = a, lamp = d = a^t) and return those acting as
    the identity; empty output means no collapse was found to this depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    limits.check("probe_depth", depth)
    if depth == 0:
        return []
    base, lamp = act.perms["a"], act.perms["d"]
    span = range(-depth, depth + 1)
    powers = {i: permmod.power(base, i) for i in span}
    shifted = {i: permmod.compose(permmod.compose(powers[-i], lamp), powers[i])
               for i in span}
    ident = Perm.identity(act.p ** 4)
    offenders: list[WreathElem] = []
    for elem in groups.ball("zwrz", depth):
        if groups.is_trivial(elem):
            continue
        image = powers[elem.pow]
        for e, c in elem.poly:
            image = permmod.compose(image, permmod.power(shifted[e], c))
        if image == ident:
            offenders.append(elem)
    return offenders

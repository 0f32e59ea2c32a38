"""Plain-object (JSON-ready) encodings for every value the toolkit emits.

One walk, :func:`_obj`, encodes each value by its type:

* exact rationals are ``[numerator, denominator]`` pairs;
* permutations are image lists, words lists of ``[gen, exp]`` letters;
* group elements are dicts tagged with their ``family``;
* the heuristic's ``Decimal`` logs are decimal strings (30 significant
  digits);
* a record (dataclass or named tuple) is a dict of its fields in
  declaration order;
* a spec holds its family, its ``params()`` and its relabelling when set,
  which fix it; its two images are listed too when it has at most
  :data:`SPEC_TABLE_POINTS` points;
* a Higman action holds p and its two value tables, which fix it; its
  five permutations are listed too up to the same number of points.

Only what a command reads back has a decoder: a spec (``--spec``), a
permutation (``--perm``, ``--alpha``, ``--beta``) and the words of
``--pairs``.  The ``*_from_obj`` decoders are written out, since decoding
is input validation: they re-validate the data rather than trust it.
Every other record is output only.  The exact rationals a command is
given as text (``--delta``, ``--eps``, ``--eps-prime``) are decoded by
:func:`to_fraction`, and a tolerance in (0, 1] by :func:`_unit_delta`.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from decimal import ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Any, get_args

from .groups import GenWord, GroupElem, family_of
from .perm import Perm

if TYPE_CHECKING:
    from .approx import ApproxSpec, VerifyReport
    from .conjsearch import AlignmentReport, SearchReport
    from .heuristic import HeuristicReport
    from .higman import ActionTable, RelationReport

__all__ = [
    "to_fraction", "fraction_to_obj",
    "perm_to_obj", "perm_from_obj",
    "genword_to_obj", "genword_from_obj",
    "elem_to_obj",
    "spec_to_obj", "spec_from_obj",
    "verify_report_to_obj",
    "search_report_to_obj",
    "alignment_report_to_obj",
    "action_table_to_obj",
    "relation_report_to_obj",
    "heuristic_report_to_obj",
    "MPF_DIGITS", "SPEC_TABLE_POINTS",
]

MPF_DIGITS = 30

# the most points for which a spec record lists psi_a and psi_b, and an
# action record its five permutations; a larger spec is recorded by its
# parameters alone, which spec_from_obj rebuilds, and a larger action by
# p and its two tables
SPEC_TABLE_POINTS = 1 << 18

_ELEMENT_TYPES = get_args(GroupElem)


# ---------------------------------------------------------------------------
# the field walk
# ---------------------------------------------------------------------------

def _obj(value) -> Any:
    """The plain-object encoding of value, by its type (see the module
    docstring); any type not named here raises ``TypeError``."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return fraction_to_obj(value)
    if isinstance(value, Perm):
        return perm_to_obj(value)
    if isinstance(value, GenWord):
        return genword_to_obj(value)
    if isinstance(value, Decimal):
        return _decimal_to_obj(value)
    if isinstance(value, _ELEMENT_TYPES):
        return elem_to_obj(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _obj(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [_obj(v) for v in value]
    if isinstance(value, dict):
        return {k: _obj(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return _fields(value)
    raise TypeError(f"cannot encode {type(value).__name__}: {value!r}")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _fields(record) -> dict:
    """A dataclass's fields in declaration order, each through :func:`_obj`."""
    return {name: _obj(getattr(record, name))
            for name in _field_names(type(record))}


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def _int(value) -> int:
    """A decoded integer; floats, bools and strings are refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def to_fraction(x) -> Fraction:
    """Exact tolerance parsing: Fraction, int, and decimal strings pass
    through exactly; floats go through their shortest repr.  A string with
    a zero denominator is a ``ValueError`` naming it, as any other string
    Fraction refuses is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        return Fraction(str(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _unit_delta(delta) -> Fraction:
    """``delta`` as an exact rational in (0, 1], or a ``ValueError`` that
    names it as given: the text 1e400 is five characters, its value 401
    digits."""
    value = to_fraction(delta)
    if not 0 < value <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return value


def fraction_to_obj(fr: Fraction) -> list:
    return [fr.numerator, fr.denominator]


def _opt(fn, value):
    return None if value is None else fn(value)


def _decimal_to_obj(x: Decimal) -> str:
    """x rounded half up to :data:`MPF_DIGITS` significant digits, trailing
    zeros stripped: in fixed notation when the leading digit's exponent
    lies in (-10, 30), else as ``d.ddde+N`` or ``d.ddde-N``; zero is
    ``0.0``."""
    if not x:
        return "0.0"
    with localcontext(Context(prec=MPF_DIGITS, rounding=ROUND_HALF_UP)):
        x = x.normalize()
    fixed = -10 < x.adjusted() < MPF_DIGITS
    mantissa, e, exponent = format(x, "f" if fixed else "e").partition("e")
    return (mantissa if "." in mantissa else mantissa + ".0") + e + exponent


# ---------------------------------------------------------------------------
# permutations and words
# ---------------------------------------------------------------------------

def perm_to_obj(p: Perm) -> list[int]:
    return p.tolist()


def perm_from_obj(obj) -> Perm:
    return Perm(obj)


def genword_to_obj(w: GenWord) -> list:
    return [[gen, exp] for gen, exp in w.letters]


def genword_from_obj(obj) -> GenWord:
    """A word from its list of ``[gen, exp]`` letters; a word or a letter
    of another shape is refused by name."""
    if not isinstance(obj, list):
        raise ValueError("a word must be a list of [gen, exp] letters, "
                         f"got {obj!r}")
    letters = []
    for letter in obj:
        if not isinstance(letter, list) or len(letter) != 2:
            raise ValueError("a letter must be a [gen, exp] pair, "
                             f"got {letter!r}")
        letters.append((str(letter[0]), _int(letter[1])))
    return GenWord(tuple(letters))


# ---------------------------------------------------------------------------
# group elements, tagged by family
# ---------------------------------------------------------------------------

def elem_to_obj(x) -> dict:
    return {"family": family_of(x), **_fields(x)}


# ---------------------------------------------------------------------------
# approximation specs
# ---------------------------------------------------------------------------

def spec_to_obj(spec: ApproxSpec) -> dict:
    out: dict[str, Any] = {"family": spec.family}
    out.update(spec.params())
    if spec.sigma is not None:
        out["sigma"] = perm_to_obj(spec.sigma)
    if spec.npoints <= SPEC_TABLE_POINTS:
        out["psi_a"] = perm_to_obj(spec.psi_a)
        out["psi_b"] = perm_to_obj(spec.psi_b)
    return out


def spec_from_obj(obj: dict) -> ApproxSpec:
    """Rebuild from parameters and relabelling, then insist that the stored
    images, where the record lists them, agree."""
    from . import approx as approxmod
    if not isinstance(obj, dict) or "family" not in obj or "n" not in obj:
        raise ValueError("a spec record must be a JSON object with "
                         "'family' and 'n'")
    spec = approxmod.make_approx(
        obj["family"], _int(obj["n"]),
        p=_opt(_int, obj.get("p")),
        q=_opt(_int, obj.get("q")),
        m=_opt(_int, obj.get("m")),
    )
    amplified_to = obj.get("amplified_to")
    if amplified_to is not None:
        spec = approxmod.amplify_spec(spec, _int(amplified_to))
    sigma = obj.get("sigma")
    if sigma is not None:
        spec = approxmod.conjugate_spec(spec, perm_from_obj(sigma))
    for name in ("psi_a", "psi_b"):
        stored = obj.get(name)
        if stored is not None and perm_from_obj(stored) != getattr(spec, name):
            raise ValueError(f"stored {name} disagrees with parameters")
    return spec


# ---------------------------------------------------------------------------
# conjugation search
# ---------------------------------------------------------------------------

def search_report_to_obj(rep: SearchReport) -> dict:
    return _fields(rep)


def alignment_report_to_obj(rep: AlignmentReport) -> dict:
    return _fields(rep)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_report_to_obj(rep: VerifyReport) -> dict:
    return _fields(rep)


# ---------------------------------------------------------------------------
# finite actions
# ---------------------------------------------------------------------------

def action_table_to_obj(act: ActionTable) -> dict:
    """p, the two tables and, up to :data:`SPEC_TABLE_POINTS` points, the
    five permutations, which ``ActionTable.perms`` builds from the rest."""
    out = _fields(act)
    if act.p ** 4 <= SPEC_TABLE_POINTS:
        out["perms"] = _obj(act.perms)
    return out


def relation_report_to_obj(rep: RelationReport) -> dict:
    return _fields(rep)


# ---------------------------------------------------------------------------
# counting heuristic
# ---------------------------------------------------------------------------

def heuristic_report_to_obj(rep: HeuristicReport) -> dict:
    return _fields(rep)

"""The plain-object encodings, and the decoders of command input, which
re-validate what they read."""

import dataclasses
import json
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import oracles as orc
import pytest

from soficperm import approx as ap
from soficperm import cli
from soficperm import conjsearch as cj
from soficperm import groups as gr
from soficperm import heuristic as hr
from soficperm import higman as hg
from soficperm import perm as pm
from soficperm import serialize as ser
from soficperm.perm import Perm


def json_roundtrip(obj):
    return json.loads(json.dumps(obj))


class TestScalars:
    def test_fraction(self):
        assert json_roundtrip(ser.fraction_to_obj(Fraction(-3, 7))) == [-3, 7]

    def test_perm(self):
        f = Perm([2, 0, 1])
        assert ser.perm_from_obj(json_roundtrip(ser.perm_to_obj(f))) == f

    def test_perm_revalidates(self):
        with pytest.raises(ValueError):
            ser.perm_from_obj([0, 0, 1])

    @pytest.mark.parametrize("obj", [[0.5, 1], [1.0, 0.0], [True, 0],
                                     ["1", "0"]])
    def test_perm_rejects_non_integers(self, obj):
        with pytest.raises(ValueError):
            ser.perm_from_obj(json_roundtrip(obj))

    def test_genword(self):
        w = gr.genword([("a", 2), ("b", -1)])
        assert ser.genword_from_obj(json_roundtrip(ser.genword_to_obj(w))) == w

    NINES = "9." + "9" * 30  # 31 nines: rounds up to the next power of ten

    @pytest.mark.parametrize("text, want", [
        ("0", "0.0"), ("-0E-70", "0.0"), ("1", "1.0"), ("-2.5", "-2.5"),
        ("-1234.5678", "-1234.5678"), ("120.000", "120.0"),
        ("1.5E-10", "1.5e-10"), ("-1.5E-10", "-1.5e-10"),
        ("1.5E-9", "0.0000000015"), ("-1.5E-9", "-0.0000000015"),
        ("1.5E+29", "150000000000000000000000000000.0"),
        ("1.5E+30", "1.5e+30"), ("-1.5E+30", "-1.5e+30"),
        (NINES, "10.0"), ("-" + NINES, "-10.0"),
        (NINES + "E-11", "1.0e-10"), (NINES + "E-10", "0.000000001"),
        (NINES + "E+28", "100000000000000000000000000000.0"),
        (NINES + "E+29", "1.0e+30"),
        ("9." + "9" * 29 + "49", "9." + "9" * 29),
        ("1." + "0" * 29 + "5", "1.00000000000000000000000000001"),
    ])
    def test_decimal_text(self, text, want):
        assert ser._decimal_to_obj(Decimal(text)) == want

    @pytest.mark.parametrize("num, exp", [
        (1, -33), (1, -30), (1, -29), (1, 96), (1, 99), (-1, -33),
        ((1 << 110) - 1, -110), (-(1 << 110) + 1, -110),
        ((10 ** 30 << 10) - 1, -10), (12345 * 7 ** 40, -60),
    ])
    def test_decimal_text_is_mpmath_text(self, num, exp):
        """On exact binary values, where mpmath holds the very number,
        the text is mpmath's nstr(x, 30): about the leading exponents
        -10/-9 and 29/30, and where rounding carries to a power of ten."""
        with localcontext(Context(prec=200)):
            x = Decimal(num) * Decimal(2) ** exp
        assert ser._decimal_to_obj(x) == orc.mpf_text(mpmath.ldexp(num, exp))


ELEMENT_CASES = [
    (gr.Z2Elem(3, -2), {"family": "z2", "lam": 3, "mu": -2}),
    (gr.HeisElem(1, -4, 7), {"family": "heis", "lam": 1, "mu": -4, "nu": 7}),
    (gr.eval_word(gr.genword([("b", -2), ("a", 3), ("b", 1)]), "bs", m=2),
     {"family": "bs", "m": 2, "num": 6, "den_exp": 0, "pow": -1}),
    (gr.eval_word(gr.genword([("a", 1), ("b", 2), ("a", -3)]), "zwrz", m=2),
     {"family": "zwrz", "poly": [[0, -3], [2, 1]], "pow": 2}),
    (gr.eval_word(gr.genword([("a", 1), ("b", 2), ("a", -3)]), "metab"),
     {"family": "metab", "word": [["a", 1], ["b", 2], ["a", -3]]}),
    (gr.identity("zwrz"), {"family": "zwrz", "poly": [], "pow": 0}),
    (gr.identity("metab"), {"family": "metab", "word": []}),
]


@pytest.mark.parametrize("elem,obj", ELEMENT_CASES,
                         ids=[type(e).__name__ for e, _ in ELEMENT_CASES])
def test_element_encoding(elem, obj):
    assert json_roundtrip(ser.elem_to_obj(elem)) == obj


@pytest.mark.parametrize("poly", [
    ((0, 1), (0, 2)),   # a repeated exponent, not merged into one term
    ((3, 0), (1, 5)),   # a zero coefficient, and exponents out of order
])
def test_non_canonical_wreath_poly_rejected(poly):
    # a zwrz element has one encoding: its poly is held in canonical form
    with pytest.raises(ValueError, match="poly"):
        gr.WreathElem(poly, 0)


class TestSpec:
    @pytest.mark.parametrize("family,n,kw", [
        ("z2", 10, dict(p=2, q=3)),
        ("heis", 5, dict()),
        ("bs", 31, dict(m=2)),
        ("zwrz", 31, dict(m=3)),
        ("metab", 29, dict(p=2, q=3)),
    ])
    def test_roundtrip(self, family, n, kw):
        spec = ap.make_approx(family, n, **kw)
        back = ser.spec_from_obj(json_roundtrip(ser.spec_to_obj(spec)))
        assert back.family == spec.family
        assert back.psi_a == spec.psi_a and back.psi_b == spec.psi_b

    def test_amplified_roundtrip(self):
        spec = ap.amplify_spec(ap.make_approx("z2", 11, p=2, q=3), 25)
        back = ser.spec_from_obj(json_roundtrip(ser.spec_to_obj(spec)))
        assert back.npoints == 25
        assert back.psi_a == spec.psi_a
        assert back.amplified and back.n == 11

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown family 'nope'; "
                           "expected one of "):
            ser.spec_from_obj({"family": "nope", "n": 5})

    def test_tampered_images_rejected(self):
        obj = ser.spec_to_obj(ap.make_approx("z2", 10, p=2, q=3))
        obj["psi_a"] = obj["psi_a"][::-1]
        with pytest.raises(ValueError):
            ser.spec_from_obj(obj)

    def test_tables_up_to_the_threshold(self):
        at = ser.spec_to_obj(ap.make_approx("z2", ser.SPEC_TABLE_POINTS,
                                            p=1, q=3))
        assert len(at["psi_a"]) == len(at["psi_b"]) == ser.SPEC_TABLE_POINTS
        above = ap.make_approx("z2", ser.SPEC_TABLE_POINTS + 1, p=1, q=3)
        assert ser.spec_to_obj(above) == {
            "family": "z2", "n": ser.SPEC_TABLE_POINTS + 1, "p": 1, "q": 3}
        assert "psi_a" not in vars(above) and "psi_b" not in vars(above)

    def test_amplified_above_threshold_roundtrip(self, monkeypatch):
        monkeypatch.setattr(ser, "SPEC_TABLE_POINTS", 20)
        spec = ap.amplify_spec(ap.make_approx("z2", 11, p=2, q=3), 25)
        obj = ser.spec_to_obj(spec)
        assert obj == {"family": "z2", "n": 11, "p": 2, "q": 3,
                       "amplified_to": 25}
        back = ser.spec_from_obj(json_roundtrip(obj))
        assert back.params() == spec.params() and back.psi_a == spec.psi_a

    def test_conjugated_above_threshold_roundtrip(self, monkeypatch):
        monkeypatch.setattr(ser, "SPEC_TABLE_POINTS", 10)
        sigma = Perm(random.Random(4).sample(range(11), 11))
        spec = ap.conjugate_spec(ap.make_approx("z2", 11, p=2, q=3), sigma)
        obj = ser.spec_to_obj(spec)
        assert obj["sigma"] == sigma.tolist()
        assert "psi_a" not in obj and "psi_b" not in obj
        back = ser.spec_from_obj(json_roundtrip(obj))
        assert back.sigma == sigma
        assert back.psi_a == spec.psi_a and back.psi_b == spec.psi_b

    def test_tabled_record_above_threshold_still_checked(self, monkeypatch):
        obj = ser.spec_to_obj(ap.make_approx("z2", 11, p=2, q=3))
        monkeypatch.setattr(ser, "SPEC_TABLE_POINTS", 10)
        assert ser.spec_from_obj(json_roundtrip(obj)).psi_b.tolist() == \
            obj["psi_b"]
        obj["psi_b"] = obj["psi_b"][::-1]
        with pytest.raises(ValueError, match="stored psi_b disagrees"):
            ser.spec_from_obj(obj)


class TestStrictIntegers:
    """Decoders refuse non-integer fields instead of truncating them."""

    @pytest.mark.parametrize("decode,obj", [
        (ser.genword_from_obj, [["a", 1.5]]),
        (ser.spec_from_obj, {"family": "z2", "n": 10.9, "p": 2, "q": 3}),
        (ser.spec_from_obj, {"family": "z2", "n": 10, "p": 2.0, "q": 3}),
        (ser.spec_from_obj, {"family": "z2", "n": 10, "p": 2, "q": 3,
                             "amplified_to": 20.5}),
    ])
    def test_rejected(self, decode, obj):
        with pytest.raises(ValueError, match="integer"):
            decode(obj)


@pytest.mark.parametrize("obj,bad", [
    ("ab", "a word must be a list of [gen, exp] letters, got 'ab'"),
    ({"a": 1}, "a word must be a list of [gen, exp] letters, got {'a': 1}"),
    (["a", 1], "a letter must be a [gen, exp] pair, got 'a'"),
    ([["a", 1, 2]], "a letter must be a [gen, exp] pair, got ['a', 1, 2]"),
    ([["a", 1], ["b"]], "a letter must be a [gen, exp] pair, got ['b']"),
    ([{"a": 1}], "a letter must be a [gen, exp] pair, got {'a': 1}"),
])
def test_genword_refuses_a_bad_letter_by_name(obj, bad):
    with pytest.raises(ValueError) as info:
        ser.genword_from_obj(obj)
    assert str(info.value) == bad


class TestReports:
    def test_verify_report(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        for radius, passed, closeness, lam, elements, pairs in [
                (5, False, [0, 1], -5, 61, 2089),
                (2, True, [1, 1], -2, 13, 97)]:
            rep = ap.verify(spec, gr.ball("z2", radius), Fraction(1, 10))
            assert json_roundtrip(ser.verify_report_to_obj(rep)) == {
                "family": "z2", "npoints": 10, "delta": [1, 10],
                "worst_hom_defect": [0, 1], "hom_witness": None,
                "worst_id_closeness": closeness,
                "id_witness": {"family": "z2", "lam": lam, "mu": 0},
                "passed": passed, "elements_checked": elements,
                "pairs_checked": pairs}

    def test_search_report_drops_elapsed(self):
        prob = cj.translation_problem(13, 1, 5, 4)
        rep = cj.exact_search(prob)
        obj = json_roundtrip(ser.search_report_to_obj(rep))
        assert "elapsed_s" not in obj
        assert ser.perm_from_obj(obj["f"]) == rep.f
        assert obj["agreement_count"] == rep.agreement_count == 13
        assert ser.perm_from_obj(obj["problem"]["alpha"]) == prob.alpha

    def test_alignment_report(self):
        spec1 = ap.make_approx("z2", 9, p=1, q=2)
        sigma = pm.random_perm(9, random.Random(42))
        rep = cj.align(spec1, ap.conjugate_spec(spec1, sigma),
                       gr.ball("z2", 1), seed=0)
        obj = json_roundtrip(ser.alignment_report_to_obj(rep))
        assert ser.perm_from_obj(obj["tau"]) == rep.tau
        assert obj["max_distance"] == [0, 1]
        assert "elapsed_s" not in obj

    def test_action_table_roundtrip(self):
        f, lam = hg.random_tables(3, seed=4)
        act = hg.make_action(3, f, lam)
        obj = json_roundtrip(ser.action_table_to_obj(act))
        assert obj["p"] == 3
        assert obj["f_table"] == list(f) and obj["lambda_table"] == list(lam)
        assert {name: ser.perm_from_obj(images)
                for name, images in obj["perms"].items()} == act.perms

    def test_action_table_above_the_table_points_builds_no_perms(self):
        act = hg.make_action(23, *hg.random_tables(23, seed=4))
        obj = json_roundtrip(ser.action_table_to_obj(act))
        assert list(obj) == ["p", "f_table", "lambda_table"]
        assert "perms" not in vars(act)

    def test_relation_report_obj(self):
        f, lam = hg.random_tables(3, seed=0)
        rep = hg.verify_action(hg.make_action(3, f, lam), window=1)
        obj = json_roundtrip(ser.relation_report_to_obj(rep))
        assert obj["passed"] is True
        assert obj["t_cycle"] == ["a", "d", "c", "b"]

    def test_heuristic_report_obj(self):
        rep = hr.heuristic_report(30, 4, "1/100", "1/100")
        obj = json_roundtrip(ser.heuristic_report_to_obj(rep))
        assert obj["count"] == rep.count
        assert obj["pk_model_coeff"] == [-11, 50]
        assert isinstance(obj["log_PK"], str)

    def test_poly_and_fixed_objs(self):
        res = ap.check_poly_condition(9, 2, 4)
        obj = json_roundtrip(ser._obj(res))
        assert obj == {"ok": False, "witness": [-3, -3],
                       "witness_value": -9, "mode": "exhaustive"}
        rep = ap.heis_fixed_bound(9, 2, 1, 1)
        obj = json_roundtrip(ser._obj(rep))
        assert obj["bound"] == 18 and obj["bound_ok"] is True


def _report_cases():
    """One instance of every report type, with its encoder."""
    spec = ap.make_approx("z2", 10, p=2, q=3)
    spec9 = ap.make_approx("z2", 9, p=1, q=2)
    act = hg.make_action(3, *hg.random_tables(3, seed=0))
    return [
        (ap.verify(spec, gr.ball("z2", 5), Fraction(1, 10)),
         ser.verify_report_to_obj),
        (cj.exact_search(cj.translation_problem(13, 1, 5, 4)),
         ser.search_report_to_obj),
        (cj.align(spec9, spec9, gr.ball("z2", 1), seed=0, restarts=1),
         ser.alignment_report_to_obj),
        (ap.check_poly_condition(9, 2, 4), ser._obj),
        (ap.heis_fixed_bound(9, 2, 1, 1), ser._obj),
        (act, ser.action_table_to_obj),
        (hg.verify_action(act, window=1), ser.relation_report_to_obj),
        (hr.heuristic_report(30, 4, "1/100", "1/100"),
         ser.heuristic_report_to_obj),
    ]


class TestFieldWalk:
    @pytest.mark.parametrize("case", range(8))
    def test_keys_are_the_fields_in_order(self, case):
        rep, encode = _report_cases()[case]
        fields = [f.name for f in dataclasses.fields(rep)]
        if isinstance(rep, hg.ActionTable):
            # the permutations derive from the fields; a small action lists
            # them after the fields
            fields.append("perms")
        assert list(encode(rep)) == fields

    def test_nested_records(self):
        by_type = {type(rep).__name__: (rep, encode)
                   for rep, encode in _report_cases()}
        rep, encode = by_type["SearchReport"]
        assert list(encode(rep)["problem"]) == ["n", "k", "alpha", "beta",
                                                "orientation"]
        rep, encode = by_type["AlignmentReport"]
        for (g, d), item in zip(rep.per_element, encode(rep)["per_element"]):
            assert item == {"element": ser.elem_to_obj(g),
                            "distance": [d.numerator, d.denominator]}
        rep, encode = by_type["RelationReport"]
        for check in encode(rep)["checks"]:
            assert list(check) == ["name", "ok", "witness"]

    def test_unknown_type_refused(self):
        with pytest.raises(TypeError):
            ser._obj(np.int64(1))
        with pytest.raises(TypeError):
            ser._obj(1.5)

    def test_elem_to_obj_refuses_non_elements(self):
        with pytest.raises(TypeError, match="not a group element"):
            ser.elem_to_obj(Perm([1, 0]))


def test_every_decoder_reads_command_input():
    """A decoder stays only while a command reads its record back; each
    suffix keeps a name, as the benchmark's serialize spans are built from
    the names in ``__all__``."""
    source = Path(cli.__file__).read_text(encoding="utf-8")
    decoders = [name for name in ser.__all__ if name.endswith("_from_obj")]
    encoders = [name for name in ser.__all__ if name.endswith("_to_obj")]
    assert decoders and encoders
    for name in decoders:
        assert f"ser.{name}" in source, name

"""Round-trips through the plain-object encodings, with re-validation."""

import dataclasses
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from soficperm import approx as ap
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
        fr = Fraction(-3, 7)
        assert ser.fraction_from_obj(json_roundtrip(ser.fraction_to_obj(fr))) == fr

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

    def test_mpf(self):
        import mpmath
        with mpmath.workprec(200):
            x = mpmath.ln(mpmath.mpf(7)) * 12345
        assert abs(ser.mpf_from_obj(ser.mpf_to_obj(x)) - x) < mpmath.mpf("1e-20")


ELEMENT_CASES = [
    gr.Z2Elem(3, -2),
    gr.HeisElem(1, -4, 7),
    gr.eval_word(gr.genword([("b", -2), ("a", 3), ("b", 1)]), "bs", m=2),
    gr.eval_word(gr.genword([("a", 1), ("b", 2), ("a", -3)]), "zwrz", m=2),
    gr.eval_word(gr.genword([("a", 1), ("b", 2), ("a", -3)]), "metab"),
    gr.identity("zwrz"),
    gr.identity("metab"),
]


@pytest.mark.parametrize("elem", ELEMENT_CASES, ids=lambda e: type(e).__name__)
def test_element_roundtrip(elem):
    assert ser.elem_from_obj(json_roundtrip(ser.elem_to_obj(elem))) == elem


def test_wreath_ball_roundtrip():
    for elem in gr.ball("zwrz", 3):
        assert ser.elem_from_obj(json_roundtrip(ser.elem_to_obj(elem))) == elem


@pytest.mark.parametrize("poly", [
    [[0, 1], [0, 2]],   # a repeated exponent, not merged into one term
    [[3, 0], [1, 5]],   # a zero coefficient, and exponents out of order
])
def test_non_canonical_wreath_poly_rejected(poly):
    with pytest.raises(ValueError, match="poly"):
        ser.elem_from_obj({"family": "zwrz", "poly": poly, "pow": 0})


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
        (ser.elem_from_obj, {"family": "z2", "lam": 1.7, "mu": 0}),
        (ser.elem_from_obj, {"family": "z2", "lam": True, "mu": 0}),
        (ser.elem_from_obj, {"family": "heis", "lam": "1", "mu": 0, "nu": 0}),
        (ser.elem_from_obj, {"family": "bs", "m": 2, "num": 1,
                             "den_exp": 0.5, "pow": 0}),
        (ser.elem_from_obj, {"family": "zwrz", "poly": [[0, 1.5]], "pow": 0}),
        (ser.elem_from_obj, {"family": "metab", "word": [["a", 1.5]]}),
        (ser.genword_from_obj, [["a", 1.5]]),
        (ser.fraction_from_obj, [1.5, 2]),
        (ser.fraction_from_obj, [1, True]),
        (ser.spec_from_obj, {"family": "z2", "n": 10.9, "p": 2, "q": 3}),
        (ser.spec_from_obj, {"family": "z2", "n": 10, "p": 2.0, "q": 3}),
        (ser.spec_from_obj, {"family": "z2", "n": 10, "p": 2, "q": 3,
                             "amplified_to": 20.5}),
        (ser.problem_from_obj, {"n": 3.0, "k": 2, "alpha": [1, 2, 0],
                                "beta": [1, 2, 0]}),
        (ser.action_table_from_obj, {"p": 5, "f_table": [1.5, 2.9, 3, 4, 1],
                                     "lambda_table": [1, 1, 1, 1, 1]}),
        (ser.action_table_from_obj, {"p": 5, "f_table": [1, 1, 1, 1, 1],
                                     "lambda_table": [1, 1, True, 1, 1]}),
    ])
    def test_rejected(self, decode, obj):
        with pytest.raises(ValueError, match="integer"):
            decode(obj)

    def test_orientation_still_checked(self):
        obj = ser.problem_to_obj(cj.translation_problem(5, 1, 2, 4))
        assert obj["orientation"] == cj.ORIENTATION
        obj["orientation"] = "beta.f=f.alpha"
        with pytest.raises(ValueError, match="orientation"):
            ser.problem_from_obj(obj)


class TestReports:
    def test_verify_report(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        for radius, passed in [(5, False), (2, True)]:
            rep = ap.verify(spec, gr.ball("z2", radius), Fraction(1, 10))
            assert rep.passed is passed
            back = ser.verify_report_from_obj(
                json_roundtrip(ser.verify_report_to_obj(rep)))
            assert back == rep

    @pytest.mark.parametrize("radius", [5, 2])
    @pytest.mark.parametrize("bad", ["false", "true", 0, 1, None, "flip"])
    def test_verify_report_rejects_bad_passed(self, radius, bad):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        obj = ser.verify_report_to_obj(
            ap.verify(spec, gr.ball("z2", radius), Fraction(1, 10)))
        obj["passed"] = (not obj["passed"]) if bad == "flip" else bad
        with pytest.raises(ValueError, match="passed|bool"):
            ser.verify_report_from_obj(json_roundtrip(obj))

    @pytest.mark.parametrize("radius", [5, 2])
    @pytest.mark.parametrize("delta", [[0, 1], [-1, 1], [2, 1]])
    def test_verify_report_rejects_delta_outside_unit_interval(self, radius,
                                                               delta):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        obj = ser.verify_report_to_obj(
            ap.verify(spec, gr.ball("z2", radius), Fraction(1, 10)))
        obj["delta"] = delta
        with pytest.raises(ValueError, match="delta must lie in"):
            ser.verify_report_from_obj(json_roundtrip(obj))

    def test_search_report_drops_elapsed(self):
        prob = cj.translation_problem(13, 1, 5, 4)
        rep = cj.exact_search(prob)
        obj = json_roundtrip(ser.search_report_to_obj(rep))
        assert "elapsed_s" not in obj
        back = ser.search_report_from_obj(obj)
        assert back.f == rep.f
        assert back.agreement_count == rep.agreement_count
        assert back.problem.alpha == prob.alpha

    def test_search_report_validates_agreement(self):
        prob = cj.translation_problem(13, 1, 5, 4)
        obj = ser.search_report_to_obj(cj.exact_search(prob))
        obj["agreement_count"] = 3
        with pytest.raises(ValueError):
            ser.search_report_from_obj(obj)

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
        back = ser.action_table_from_obj(
            json_roundtrip(ser.action_table_to_obj(act)))
        assert back.perms == act.perms

    def test_action_table_tamper_rejected(self):
        f, lam = hg.random_tables(3, seed=4)
        obj = ser.action_table_to_obj(hg.make_action(3, f, lam))
        obj["perms"]["t"] = list(range(81))
        with pytest.raises(ValueError):
            ser.action_table_from_obj(obj)

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
        obj = json_roundtrip(ser.poly_result_to_obj(res))
        assert obj == {"ok": False, "witness": [-3, -3],
                       "witness_value": -9, "mode": "exhaustive"}
        rep = ap.heis_fixed_bound(9, 2, 1, 1)
        obj = json_roundtrip(ser.heis_fixed_to_obj(rep))
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
        (ap.check_poly_condition(9, 2, 4),
         ser.poly_result_to_obj),
        (ap.heis_fixed_bound(9, 2, 1, 1), ser.heis_fixed_to_obj),
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

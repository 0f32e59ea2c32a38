"""Generator images per family: exactness, verification, bounds."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficperm import approx as ap
from soficperm import groups as gr
from soficperm import perm as pm
from soficperm import serialize as ser

import oracles as orc


def words(max_len=5):
    letter = st.tuples(st.sampled_from(["a", "b"]), st.integers(-3, 3))
    return st.lists(letter, max_size=max_len).map(gr.genword)


SPEC_CASES = [
    ("z2", 11, dict(p=2, q=3)),
    ("heis", 7, dict()),
    ("bs", 31, dict(m=2)),
    ("zwrz", 31, dict(m=3)),
    ("metab", 29, dict(p=2, q=3)),
]


def build(family, n, kw):
    return ap.make_approx(family, n, **kw)


class TestToFraction:
    def test_exact_inputs(self):
        assert ser.to_fraction("1/10") == Fraction(1, 10)
        assert ser.to_fraction("0.1") == Fraction(1, 10)
        assert ser.to_fraction(Fraction(3, 7)) == Fraction(3, 7)
        assert ser.to_fraction(2) == 2

    def test_float_goes_through_decimal_text(self):
        # 0.1 the float means the decimal 0.1, not its binary expansion
        assert ser.to_fraction(0.1) == Fraction(1, 10)


class TestMakeApprox:
    def test_z2_images(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        assert spec.psi_a.tolist() == [(x + 2) % 10 for x in range(10)]
        assert spec.psi_b.tolist() == [(x + 3) % 10 for x in range(10)]
        assert spec.npoints == 10

    def test_z2_requires_p_q(self):
        with pytest.raises(ValueError):
            ap.make_approx("z2", 10, p=2)

    def test_heis_acts_on_n_squared(self):
        spec = ap.make_approx("heis", 5)
        assert spec.npoints == 25
        # a shifts the y-coordinate: (x, y) -> (x, y+1) encoded as x*n+y
        assert spec.psi_a.tolist() == [
            x * 5 + (y + 1) % 5 for x in range(5) for y in range(5)]
        # b shifts x by y:  (x, y) -> (x+y, y)
        assert spec.psi_b.tolist() == [
            ((x + y) % 5) * 5 + y for x in range(5) for y in range(5)]

    def test_bs_images(self):
        spec = ap.make_approx("bs", 7, m=2)
        inv2 = pow(2, -1, 7)
        assert spec.psi_a.tolist() == [(x + 1) % 7 for x in range(7)]
        assert spec.psi_b.tolist() == [(inv2 * x) % 7 for x in range(7)]

    def test_bs_requires_coprime_modulus(self):
        with pytest.raises(ValueError):
            ap.make_approx("bs", 10, m=2)
        with pytest.raises(ValueError):
            ap.make_approx("bs", 7, m=1)

    def test_metab_images(self):
        spec = ap.make_approx("metab", 7, p=2, q=3)
        qinv, pinv = pow(3, -1, 7), pow(2, -1, 7)
        assert spec.psi_a.tolist() == [(qinv * (x + 1)) % 7 for x in range(7)]
        assert spec.psi_b.tolist() == [(pinv * x) % 7 for x in range(7)]

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown family 'nope'; "
                           "expected one of "):
            ap.make_approx("nope", 5)

    @pytest.mark.parametrize("family,n,kw,name", [
        pytest.param(family, n, kw, name, id=f"{family}-{name}")
        for family, n, kw in SPEC_CASES
        for name in ("p", "q", "m") if name not in kw])
    def test_a_parameter_the_family_does_not_take_is_refused(
            self, family, n, kw, name):
        with pytest.raises(ValueError,
                           match=f"^{family} takes no parameter {name}$"):
            ap.make_approx(family, n, **kw, **{name: 3})


class TestEvalIsExactHomomorphism:
    @pytest.mark.parametrize("family,n,kw", SPEC_CASES)
    @given(w1=words(), w2=words())
    @settings(max_examples=60, deadline=None)
    def test_pairs(self, family, n, kw, w1, w2):
        spec = build(family, n, kw)
        m = kw.get("m")
        x = gr.eval_word(w1, family, m=m)
        y = gr.eval_word(w2, family, m=m)
        lhs = ap.eval(spec, gr.mul(x, y))
        rhs = pm.compose(ap.eval(spec, x), ap.eval(spec, y))
        assert lhs == rhs

    @pytest.mark.parametrize("family,n,kw", SPEC_CASES)
    def test_genword_and_element_agree(self, family, n, kw):
        spec = build(family, n, kw)
        w = gr.genword([("a", 2), ("b", -1), ("a", 1)])
        elem = gr.eval_word(w, family, m=kw.get("m"))
        assert ap.eval(spec, w) == ap.eval(spec, elem)

    def test_identity_maps_to_identity(self):
        for family, n, kw in SPEC_CASES:
            spec = build(family, n, kw)
            e = gr.identity(family, m=kw.get("m"))
            assert ap.eval(spec, e).is_identity()

    def test_bs_defining_relation_holds_exactly(self):
        spec = ap.make_approx("bs", 31, m=3)
        a, b = spec.psi_a, spec.psi_b
        lhs = pm.compose(pm.compose(pm.inverse(b), a), b)
        assert lhs == pm.power(a, 3)

    def test_metab_defining_recurrence(self):
        # psi(a) sends q*x + 1 pattern: f(x) = q^-1 (x+1) so q f(x) = x + 1
        spec = ap.make_approx("metab", 11, p=3, q=2)
        fa = spec.psi_a
        for x in range(11):
            assert (2 * fa(x)) % 11 == (x + 1) % 11


class TestVerify:
    def test_z2_small_ball_passes(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        rep = ap.verify(spec, gr.ball("z2", 2), Fraction(1, 10))
        assert rep.passed
        assert rep.worst_hom_defect == 0
        assert rep.worst_id_closeness == 1

    def test_z2_large_ball_fails_with_witness(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        rep = ap.verify(spec, gr.ball("z2", 5), Fraction(1, 10))
        assert not rep.passed
        assert rep.worst_id_closeness == 0
        # some nontrivial lattice point with 2 lam + 3 mu = 0 mod 10
        g = rep.id_witness
        assert (2 * g.lam + 3 * g.mu) % 10 == 0 and (g.lam, g.mu) != (0, 0)

    def test_witness_is_lexicographically_first(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        rep = ap.verify(spec, gr.ball("z2", 5), Fraction(1, 10))
        offenders = sorted(
            (g.lam, g.mu)
            for g in gr.ball("z2", 5)
            if (g.lam, g.mu) != (0, 0) and (2 * g.lam + 3 * g.mu) % 10 == 0
        )
        assert (rep.id_witness.lam, rep.id_witness.mu) == offenders[0]

    def test_heis_count_fields(self):
        spec = ap.make_approx("heis", 7)
        rep = ap.verify(spec, gr.ball("heis", 2), Fraction(1, 2))
        assert rep.passed
        assert rep.worst_hom_defect == 0
        assert rep.worst_id_closeness == Fraction(6, 7)
        assert rep.elements_checked == len(set(gr.ball("heis", 2)))

    def test_empty_or_identity_only_set(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        rep = ap.verify(spec, [gr.identity("z2")], Fraction(1, 10))
        assert rep.passed
        assert rep.worst_id_closeness is None

    @pytest.mark.parametrize("delta", [0, -1, 2, Fraction(3, 2)])
    def test_delta_outside_unit_interval_rejected(self, delta):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        with pytest.raises(ValueError, match="delta"):
            ap.verify(spec, gr.ball("z2", 2), delta)

    def test_delta_one_accepted(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        assert ap.verify(spec, gr.ball("z2", 2), 1).passed

    def test_cost_does_not_depend_on_n(self):
        # a table on 10^12 points could not even be allocated
        spec = ap.make_approx("z2", 10**12 + 39, p=3, q=5)
        t0 = time.perf_counter()
        rep = ap.verify(spec, gr.ball("z2", 4), "1/10")
        assert time.perf_counter() - t0 < 1
        assert rep.passed and rep.worst_hom_defect == 0
        assert rep.worst_id_closeness == 1 and rep.pairs_checked == 949

    def test_metab_empty_word_is_identity(self):
        spec = ap.make_approx("metab", 29, p=2, q=3)
        rep = ap.verify(spec, gr.ball("metab", 2), Fraction(1, 10))
        assert rep.passed  # nontrivial reduced words act nontrivially here

    def test_delta_accepts_text(self):
        spec = ap.make_approx("z2", 10, p=2, q=3)
        rep = ap.verify(spec, gr.ball("z2", 2), "0.1")
        assert rep.delta == Fraction(1, 10)


class TestAmplification:
    def test_params_and_eval_route(self):
        base = ap.make_approx("z2", 11, p=2, q=3)
        big = ap.amplify_spec(base, 25)
        assert big.params()["amplified_to"] == 25
        g = gr.Z2Elem(1, 1)
        assert ap.eval(big, g) == pm.amplify(ap.eval(base, g), 25)

    def test_hom_defect_stays_zero(self):
        base = ap.make_approx("z2", 11, p=2, q=3)
        big = ap.amplify_spec(base, 25)
        rep = ap.verify(big, gr.ball("z2", 2), Fraction(1, 2))
        assert rep.worst_hom_defect == 0

    def test_closeness_degrades_by_tail_only(self):
        base = ap.make_approx("z2", 11, p=2, q=3)
        for n in (25, 38, 100):
            big = ap.amplify_spec(base, n)
            q = n // 11
            rep = ap.verify(big, gr.ball("z2", 2), Fraction(1, 2))
            assert rep.worst_id_closeness == Fraction(11 * q, n)

    def test_double_amplification_refused(self):
        base = ap.make_approx("z2", 11, p=2, q=3)
        with pytest.raises(ValueError):
            ap.amplify_spec(ap.amplify_spec(base, 25), 50)

    def test_target_must_fit(self):
        base = ap.make_approx("z2", 11, p=2, q=3)
        with pytest.raises(ValueError):
            ap.amplify_spec(base, 10)


class TestPolyCondition:
    def test_zero_bound_is_vacuous(self):
        res = ap.check_poly_condition(9, 2, 0)
        assert res.ok and res.mode == "vacuous"
        assert bool(res)

    def test_frozen_witness(self):
        res = ap.check_poly_condition(9, 2, 4)
        assert not res.ok
        assert res.witness == (-3, -3)
        assert res.witness_value == -9

    def test_degree_one_witness(self):
        res = ap.check_poly_condition(7, 2, 3)
        assert not res.ok
        assert res.witness == (-2, 1)
        assert res.witness_value == 0

    def test_pass_case(self):
        res = ap.check_poly_condition(11, 2, 2)
        assert res.ok and res.witness is None

    def test_scan_matches_reference(self):
        import math
        for n in (5, 7, 9, 11, 13):
            for m in (2, 3):
                if math.gcd(n, m) != 1:
                    continue
                for C in (1, 2, 3):
                    res = ap.check_poly_condition(n, m, C)
                    want = orc.poly_witness_scan(n, m, C)
                    assert res.mode == "exhaustive"
                    assert res.witness == want, (n, m, C)
                    assert res.ok == (want is None)

    def test_fast_mode_agrees_with_exhaustive(self):
        # |m| > 2C+1 and n > |m|^(C+1): the fast path answers, and the
        # reference scan finds no witness either
        for n, m, C in ((4099, 8, 3), (129, 8, 1)):
            fast = ap.check_poly_condition(n, m, C)
            assert fast.ok and fast.mode == "fast"
            assert orc.poly_witness_scan(n, m, C) is None

    def test_cap(self):
        with pytest.raises(ValueError):
            ap.check_poly_condition(9, 2, 7)


class TestBallConstants:
    def test_z2_constant(self):
        assert orc.z2_ball_constant(gr.ball("z2", 2)) == 6
        assert orc.z2_ball_constant([gr.identity("z2")]) == 3

    def test_z2_constant_sufficiency(self):
        S = list(gr.ball("z2", 2))
        C = orc.z2_ball_constant(S)
        p, q = C + 1, (C + 1) * C + 1  # p > C, q > C p
        n = C * q + 1                  # n > C q
        spec = ap.make_approx("z2", n, p=p, q=q)
        rep = ap.verify(spec, S, Fraction(1, 100))
        assert rep.passed

    def test_wreath_constant_feeds_fast_certificate(self):
        import math
        m = 12
        S = list(gr.ball("zwrz", 2, m=m))
        C = orc.wreath_ball_constant(S, Fraction(1, 2))
        assert C == 3
        assert m > 2 * C + 1  # fast-path headroom for this ball
        n = m ** (C + 1) + 1
        while math.gcd(n, m) != 1:
            n += 1
        res = ap.check_poly_condition(n, m, C)
        assert res.ok and res.mode == "fast"

    def test_wreath_constant_scales_with_delta(self):
        S = list(gr.ball("zwrz", 2, m=2))
        assert orc.wreath_ball_constant(S, Fraction(1, 10)) == 11

    @pytest.mark.parametrize("delta", [0, -1, 2])
    def test_wreath_constant_delta_policy_matches_verify(self, delta):
        S = list(gr.ball("zwrz", 1, m=2))
        with pytest.raises(ValueError, match="delta must lie in"):
            orc.wreath_ball_constant(S, delta)
        with pytest.raises(ValueError, match="delta must lie in"):
            ap.verify(ap.make_approx("zwrz", 11, m=2), S, delta)


class TestHeisFixedBound:
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_counts_match_scan(self, n):
        for lam in range(-3, 4):
            for mu in range(-3, 4):
                for nu in range(-3, 4):
                    if (lam % n, mu % n, nu % n) == (0, 0, 0):
                        continue
                    rep = ap.heis_fixed_bound(n, lam, mu, nu)
                    assert rep.count == orc.brute_heis_fixed(n, lam, mu, nu)

    def test_bound_judged_only_for_nonzero_lam(self):
        rep = ap.heis_fixed_bound(9, 2, 1, 1)
        assert rep.bound == 18 and rep.bound_ok is True
        rep0 = ap.heis_fixed_bound(9, 0, 3, 0)
        assert rep0.bound_ok is None
        assert rep0.count == 9 * 3  # n * gcd(mu, n) when gcd | nu

    def test_trivial_element_rejected(self):
        with pytest.raises(ValueError):
            ap.heis_fixed_bound(5, 5, 0, 0)

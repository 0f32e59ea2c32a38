"""Intertwining searches: exact construction, brute force, hill climbing."""

import math
import random
from fractions import Fraction
from itertools import permutations as iterperms

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficperm import approx as ap
from soficperm import conjsearch as cj
from soficperm import groups as gr
from soficperm import limits
from soficperm import perm as pm
from soficperm.perm import Perm

import oracles as orc


class TestProblems:
    def test_translation_problem(self):
        prob = cj.translation_problem(7, 2, 3, 4)
        assert prob.alpha.tolist() == [(x + 2) % 7 for x in range(7)]
        assert prob.beta.tolist() == [(x + 3) % 7 for x in range(7)]
        assert prob.k == 4

    def test_multiplication_problem_requires_unit(self):
        with pytest.raises(ValueError):
            cj.multiplication_problem(10, 5, 4)

    def test_builders_match_their_formulas(self):
        for n in range(1, 51):
            for s in (-n - 3, -1, 0, 1, 7, 2 * n + 5):
                assert cj.translation_perm(n, s).tolist() == \
                    [(x + s) % n for x in range(n)]
            for u in range(-n, 2 * n):
                if math.gcd(u, n) == 1:
                    assert cj.multiplication_perm(n, u).tolist() == \
                        [u * x % n for x in range(n)]

    @pytest.mark.parametrize("build", [
        lambda n: cj.translation_perm(n, 2),
        lambda n: cj.multiplication_perm(n, 1),
        lambda n: cj.translation_problem(n, 1, 2, 4),
        lambda n: cj.multiplication_problem(n, 1, 4),
    ])
    def test_builders_refuse_past_the_table_limit(self, build):
        n = limits.LIMITS["table_entries"].value + 1
        with pytest.raises(ValueError, match="table_entries"):
            build(n)

    def test_problem_from_spec(self):
        spec = ap.make_approx("z2", 13, p=1, q=5)
        prob = cj.problem_from_spec(spec, 4)
        assert prob.alpha == spec.psi_a
        assert prob.beta == spec.psi_b

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cj.ConjProblem(5, 2, Perm.identity(5), Perm.identity(4))


@given(st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))).map(Perm),
        st.permutations(list(range(n))).map(Perm),
        st.permutations(list(range(n))).map(Perm),
    )))
def test_agreement_matches_direct_count(fab):
    f, alpha, beta = fab
    prob = cj.ConjProblem(f.n, 4, alpha, beta)
    direct = sum(1 for x in range(f.n) if f(alpha(x)) == beta(f(x)))
    assert cj.agreement(f, prob) == direct


class TestExactMultiplicative:
    def test_frozen_case(self):
        f = cj.exact_multiplicative(13, 1, 5, 4)
        assert f.tolist() == [(5 * x) % 13 for x in range(13)]
        assert pm.order_of(f) == 4
        prob = cj.translation_problem(13, 1, 5, 4)
        assert cj.agreement(f, prob) == 13

    def test_none_when_order_too_large(self):
        # 2^2 = 4 != 1 mod 7, but 2^3 = 1
        assert cj.exact_multiplicative(7, 1, 2, 2) is None
        assert cj.exact_multiplicative(7, 1, 2, 3) is not None

    def test_none_when_multiplier_not_unit(self):
        assert cj.exact_multiplicative(10, 1, 2, 4) is None

    def test_noninvertible_p_rejected(self):
        with pytest.raises(ValueError):
            cj.exact_multiplicative(10, 2, 3, 4)

    def test_exact_search_wrapper(self):
        prob = cj.translation_problem(13, 1, 5, 4)
        rep = cj.exact_search(prob)
        assert rep.algorithm == "exact"
        assert rep.agreement_fraction == 1

        miss = cj.translation_problem(7, 1, 2, 2)
        assert cj.exact_search(miss) is None

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_point_matches_brute_force(self, k):
        # on Z/1 every residue is 1 % 1 = 0, so l^k = 1 holds for any l
        prob = cj.translation_problem(1, 0, 0, k)
        rep = cj.exact_search(prob)
        assert rep is not None
        assert rep.agreement_count == cj.brute_force(prob).agreement_count == 1

    def test_exact_search_needs_translations(self):
        prob = cj.multiplication_problem(7, 3, 4)
        with pytest.raises(ValueError):
            cj.exact_search(prob)


class TestBruteForce:
    @pytest.mark.parametrize("n,p,q,k", [
        (5, 1, 2, 4), (5, 1, 2, 2), (6, 1, 5, 2), (4, 1, 3, 4), (7, 2, 3, 4),
    ])
    def test_matches_reference(self, n, p, q, k):
        prob = cj.translation_problem(n, p, q, k)
        rep = cj.brute_force(prob)
        want = orc.brute_best_agreement(
            n, k, orc.translation_tuple(n, p), orc.translation_tuple(n, q))
        assert rep.agreement_count == want
        assert k % pm.order_of(rep.f) == 0

    def test_frozen_small_values(self):
        prob = cj.translation_problem(5, 1, 2, 4)
        assert cj.brute_force(prob).agreement_count == 5  # 5 | 2^4 - 1
        prob = cj.translation_problem(5, 1, 2, 2)
        assert cj.brute_force(prob).agreement_count == 2

    @pytest.mark.parametrize("n,p,q,k", [
        (5, 1, 2, 2), (4, 1, 3, 4), (6, 1, 5, 2), (6, 1, 2, 3), (6, 1, 5, 6),
        (7, 1, 3, 4), (7, 2, 3, 12),
    ])
    def test_tie_break_is_lexicographic(self, n, p, q, k):
        prob = cj.translation_problem(n, p, q, k)
        rep = cj.brute_force(prob)
        best = rep.agreement_count
        for tup in iterperms(range(n)):  # lexicographic enumeration
            if not orc.order_divides_k(tup, k):
                continue
            score = sum(1 for x in range(n) if tup[prob.alpha(x)] == prob.beta(tup[x]))
            if score == best:
                assert rep.f.tolist() == list(tup)
                break

    @pytest.mark.parametrize("prob,f,agreement,rows", [
        (cj.translation_problem(6, 1, 5, 2), [0, 5, 4, 3, 2, 1], 6, 76),
        (cj.translation_problem(7, 1, 3, 4), [0, 1, 3, 6, 2, 5, 4], 4, 1072),
        (cj.multiplication_problem(7, 3, 6), [0, 1, 3, 2, 6, 4, 5], 5, 2052),
        (cj.translation_problem(8, 1, 3, 4), [0, 3, 6, 1, 4, 7, 2, 5], 8, 6224),
        (cj.multiplication_problem(8, 3, 2), [0, 4, 7, 5, 1, 3, 6, 2], 3, 764),
        (cj.translation_problem(9, 1, 2, 4), [0, 1, 3, 2, 4, 6, 8, 5, 7], 6,
         33616),
        (cj.multiplication_problem(9, 2, 4), [0, 6, 3, 4, 8, 7, 5, 1, 2], 6,
         33616),
    ], ids=["trans:n6:k2", "trans:n7:k4", "mult:n7:k6", "trans:n8:k4",
            "mult:n8:k2", "trans:n9:k4", "mult:n9:k4"])
    def test_pinned_results(self, prob, f, agreement, rows):
        # recorded from the n!-filter enumeration this search used before
        rep = cj.brute_force(prob)
        assert (rep.f.tolist(), rep.agreement_count, rep.iterations) == (
            f, agreement, rows)

    def test_cap(self):
        with pytest.raises(ValueError):
            cj.brute_force(cj.translation_problem(10, 1, 2, 4))


class TestBestRestart:
    def test_restart_rng_is_seeded_by_restart(self):
        drawn = {}

        def attempt(r, rng):
            drawn[r] = rng.random()
            return (0, (r,)), 0

        for seed in (0, 7, 2 ** 40):
            drawn.clear()
            cj._best_restart(5, seed, attempt)
            assert drawn == {r: random.Random((seed << 32) + r).random()
                             for r in range(5)}

    @pytest.mark.parametrize("keys, best", [
        # local_search's (-score, f): the later, smaller f wins the tie
        ([(-3, (2, 0, 1)), (-5, (1, 2, 0)), (-5, (0, 2, 1)), (-4, (0, 1, 2))],
         (-5, (0, 2, 1))),
        # align's ((max, total), tau): the earlier, smaller tau keeps it
        ([((2, 3), (1, 0, 2)), ((1, 4), (0, 2, 1)), ((1, 4), (2, 1, 0))],
         ((1, 4), (0, 2, 1))),
    ])
    def test_score_tie_goes_to_the_smaller_tuple(self, keys, best):
        got, _ = cj._best_restart(len(keys), 0,
                                  lambda r, rng: (keys[r], 0))
        assert got == best

    def test_steps_are_summed_over_restarts(self):
        _, steps = cj._best_restart(6, 3, lambda r, rng: ((r,), 10 + r * r))
        assert steps == sum(10 + r * r for r in range(6))


class TestLocalSearch:
    def test_deterministic_and_order_preserving(self):
        prob = cj.multiplication_problem(40, 3, 4)
        rep1 = cj.local_search(prob, seed=5)
        rep2 = cj.local_search(prob, seed=5)
        assert rep1.f == rep2.f
        assert rep1.agreement_count == rep2.agreement_count
        assert 4 % pm.order_of(rep1.f) == 0

    def test_different_seeds_may_differ_but_stay_valid(self):
        prob = cj.multiplication_problem(30, 7, 4)
        for seed in range(3):
            rep = cj.local_search(prob, seed=seed, restarts=4)
            assert 4 % pm.order_of(rep.f) == 0
            assert 0 <= rep.agreement_count <= 30

    def test_perfect_solution_found_when_planted(self):
        # translation pair with an exact multiplicative answer
        prob = cj.translation_problem(13, 1, 5, 4)
        rep = cj.local_search(prob, seed=0, restarts=2)
        assert rep.agreement_count == 13

    def test_beats_uniform_baseline_at_moderate_size(self):
        prob = cj.multiplication_problem(61, 3, 4)
        rep = cj.local_search(prob, seed=0, restarts=4)
        base = max(cj.agreement(pm.sample_order_k(61, 4, s), prob)
                   for s in range(100))
        assert rep.agreement_count > base

    def test_report_fields(self):
        prob = cj.multiplication_problem(20, 3, 4)
        rep = cj.local_search(prob, seed=1, iters=500, restarts=2)
        assert rep.algorithm == "local"
        assert rep.seed == 1
        assert rep.iterations == 2 * 500
        assert rep.agreement_fraction == Fraction(rep.agreement_count, 20)


class TestHigmanDefect:
    def test_exact_conjugator_has_zero_defect(self):
        spec = ap.make_approx("z2", 13, p=1, q=5)
        f = cj.exact_multiplicative(13, 1, 5, 4)
        pairs = [(gr.genword([("b", 1)]), gr.genword([("a", 1)]))]
        assert cj.higman_defect(spec, f, pairs) == 0

    def test_empty_pairs_rejected(self):
        spec = ap.make_approx("z2", 13, p=1, q=5)
        with pytest.raises(ValueError):
            cj.higman_defect(spec, Perm.identity(13), [])

    def test_identity_f_has_positive_defect(self):
        spec = ap.make_approx("z2", 13, p=1, q=5)
        pairs = [(gr.genword([("b", 1)]), gr.genword([("a", 1)]))]
        d = cj.higman_defect(spec, Perm.identity(13), pairs)
        assert d == 1  # x+5 vs x+1 disagree everywhere

    def test_accepts_elements_too(self):
        spec = ap.make_approx("z2", 13, p=1, q=5)
        f = cj.exact_multiplicative(13, 1, 5, 4)
        pairs = [(gr.Z2Elem(0, 1), gr.Z2Elem(1, 0))]
        assert cj.higman_defect(spec, f, pairs) == 0


class TestAlign:
    def test_recovers_planted_conjugation(self):
        spec1 = ap.make_approx("z2", 9, p=1, q=2)
        sigma = pm.random_perm(9, random.Random(42))
        spec2 = ap.conjugate_spec(spec1, sigma)
        rep = cj.align(spec1, spec2, gr.ball("z2", 2), seed=0)
        assert rep.max_distance == 0
        assert rep.tau == sigma

    def test_self_alignment_is_zero_at_identity(self):
        spec = ap.make_approx("z2", 12, p=1, q=5)
        rep = cj.align(spec, spec, gr.ball("z2", 2), seed=0)
        assert rep.max_distance == 0
        assert rep.tau.is_identity()

    def test_reported_distances_are_exact(self):
        spec1 = ap.make_approx("z2", 9, p=1, q=2)
        spec2 = ap.make_approx("z2", 9, p=2, q=1)
        S = list(gr.ball("z2", 1))
        rep = cj.align(spec1, spec2, S, seed=0, restarts=2)
        tau = rep.tau
        for g, dist in rep.per_element:
            lhs = pm.compose(pm.compose(pm.inverse(tau), ap.eval(spec1, g)), tau)
            assert pm.hamming(lhs, ap.eval(spec2, g)) == dist
        assert rep.max_distance == max(d for _, d in rep.per_element)

    def test_family_mismatch_rejected(self):
        spec1 = ap.make_approx("z2", 9, p=1, q=2)
        spec2 = ap.make_approx("metab", 9, p=2, q=5)
        with pytest.raises(ValueError):
            cj.align(spec1, spec2, gr.ball("z2", 1), seed=0)


class TestSignFlip:
    def test_formula(self):
        f = (2, 0, 1, 4, 3)
        g = orc.sign_flip_perm(f)
        n = 5
        for x in range(n):
            assert g[x] == (-f[(-x) % n]) % n

    def test_involution(self):
        f = (2, 0, 1, 4, 3)
        assert orc.sign_flip_perm(orc.sign_flip_perm(f)) == f

    def test_transport_preserves_agreement_and_inverts_multiplier(self):
        prob = cj.multiplication_problem(11, 3, 4)
        f = pm.sample_order_k(11, 4, seed=2)
        beta2, f2 = orc.transport_sign_flip(
            tuple(prob.alpha.tolist()), tuple(prob.beta.tolist()),
            tuple(f.tolist()))
        inv3 = pow(3, -1, 11)
        assert beta2 == tuple((inv3 * x) % 11 for x in range(11))
        prob2 = cj.multiplication_problem(11, inv3, 4)
        assert cj.agreement(f, prob) == cj.agreement(Perm(f2), prob2)

    def test_transport_requires_multiplicative_beta(self):
        prob = cj.translation_problem(11, 1, 2, 4)
        with pytest.raises(ValueError):
            orc.transport_sign_flip(tuple(prob.alpha.tolist()),
                                    tuple(prob.beta.tolist()),
                                    tuple(range(11)))

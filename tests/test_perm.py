"""Permutation arithmetic against brute-force references and metric axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficperm.perm import (
    CycleDecomposition,
    Perm,
    all_perms,
    amplify,
    compose,
    count_order_dividing,
    cycle_decomposition,
    hamming,
    hamming_count,
    inverse,
    order_divides,
    order_of,
    power,
    project_to_order,
    random_perm,
    sample_order_k,
)

import oracles as orc


def perms(max_n=20):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(n))).map(Perm)
    )


def perm_pairs(max_n=20):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))).map(Perm),
            st.permutations(list(range(n))).map(Perm),
        )
    )


def perm_triples(max_n=12):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            *(st.permutations(list(range(n))).map(Perm) for _ in range(3))
        )
    )


class TestPermBasics:
    def test_identity(self):
        e = Perm.identity(4)
        assert e.tolist() == [0, 1, 2, 3]
        assert e.is_identity()

    def test_validation_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])
        with pytest.raises(ValueError):
            Perm([0, 3, 1])
        with pytest.raises(ValueError):
            Perm([])

    @pytest.mark.parametrize("images", [
        [0.5, 1], [1.0, 0.0], [True, False], [True, 0], ["1", "0"],
        [1, None], [2 ** 70, 0]])
    def test_validation_rejects_non_integers(self, images):
        with pytest.raises(ValueError):
            Perm(images)

    def test_from_cycles(self):
        f = Perm.from_cycles(5, [(0, 1, 2)])
        assert f.tolist() == [1, 2, 0, 3, 4]
        with pytest.raises(ValueError):
            Perm.from_cycles(3, [(0, 1), (1, 2)])  # reused point

    def test_apply_and_call(self):
        f = Perm([2, 0, 1])
        assert f(0) == 2 and f.apply(2) == 1

    def test_compose_is_right_to_left(self):
        # compose(f, g)(x) = f(g(x))
        f = Perm([1, 2, 0])
        g = Perm([0, 2, 1])
        assert compose(f, g).tolist() == [f(g(x)) for x in range(3)]

    def test_eq_hash(self):
        assert Perm([1, 0]) == Perm([1, 0])
        assert hash(Perm([1, 0])) == hash(Perm([1, 0]))
        assert Perm([1, 0]) != Perm([0, 1])


@given(perm_pairs())
def test_compose_matches_oracle(fg):
    f, g = fg
    assert compose(f, g).tolist() == list(
        orc.t_compose(tuple(f.tolist()), tuple(g.tolist()))
    )


@given(perms())
def test_inverse(f):
    e = Perm.identity(f.n)
    assert compose(f, inverse(f)) == e
    assert compose(inverse(f), f) == e


@given(perms(max_n=10), st.integers(-6, 6))
def test_power_matches_repeated_composition(f, e):
    acc = Perm.identity(f.n)
    step = f if e >= 0 else inverse(f)
    for _ in range(abs(e)):
        acc = compose(acc, step)
    assert power(f, e) == acc


@given(perm_pairs())
def test_hamming_symmetry_and_range(fg):
    f, g = fg
    d = hamming(f, g)
    assert d == hamming(g, f)
    assert 0 <= d <= 1
    assert d == Fraction(hamming_count(f, g), f.n)
    assert (d == 0) == (f == g)
    # a permutation never disagrees in exactly one place
    assert hamming_count(f, g) != 1


@given(perm_triples())
def test_hamming_triangle_and_biinvariance(fgh):
    f, g, h = fgh
    assert hamming(f, h) <= hamming(f, g) + hamming(g, h)
    # bi-invariance
    assert hamming(compose(h, f), compose(h, g)) == hamming(f, g)
    assert hamming(compose(f, h), compose(g, h)) == hamming(f, g)


@given(perm_triples(max_n=10))
def test_conjugation_distance_bound(fgh):
    # d(tau^-1 s tau, mu^-1 s mu) <= 2 d(tau, mu)
    s, tau, mu = fgh
    lhs = hamming(compose(compose(inverse(tau), s), tau),
                  compose(compose(inverse(mu), s), mu))
    assert lhs <= 2 * hamming(tau, mu)


class TestCycles:
    def test_decomposition_canonical(self):
        f = Perm([1, 0, 3, 4, 2])
        dec = cycle_decomposition(f)
        assert dec == CycleDecomposition(5, ((0, 1), (2, 3, 4)))
        # cycles sorted by minimum, each rotated min-first
        assert all(c[0] == min(c) for c in dec.cycles)

    def test_fixed_points_are_singletons(self):
        dec = cycle_decomposition(Perm.identity(3))
        assert dec.cycles == ((0,), (1,), (2,))

    @given(perms())
    def test_order_is_lcm_of_cycle_lengths(self, f):
        lengths = [len(c) for c in cycle_decomposition(f).cycles]
        assert order_of(f) == math.lcm(*lengths)
        assert power(f, order_of(f)).is_identity()

    @given(perms(max_n=12), st.integers(1, 8))
    def test_order_divides(self, f, k):
        assert order_divides(f, k) == (k % order_of(f) == 0)
        assert order_divides(f, k) == power(f, k).is_identity()


class TestProjectToOrder:
    @given(perms(max_n=15), st.sampled_from([1, 2, 3, 4, 6]))
    def test_projection_properties(self, f, k):
        g = project_to_order(f, k)
        assert order_divides(g, k)
        # cycles of f with length dividing k survive untouched
        for c in cycle_decomposition(f).cycles:
            if k % len(c) == 0:
                for i, x in enumerate(c):
                    assert g(x) == c[(i + 1) % len(c)]

    def test_non_dividing_cycles_flatten(self):
        f = Perm.from_cycles(5, [(0, 1, 2), (3, 4)])
        g = project_to_order(f, 2)
        assert g.tolist() == [0, 1, 2, 4, 3]

    @given(perms(max_n=15), st.sampled_from([1, 2, 4]))
    def test_projection_idempotent(self, f, k):
        g = project_to_order(f, k)
        assert project_to_order(g, k) == g


class TestAmplify:
    def test_block_structure(self):
        f = Perm([1, 2, 0])  # 3-cycle
        g = amplify(f, 8)    # two blocks + identity tail of 2
        assert g.tolist() == [1, 2, 0, 4, 5, 3, 6, 7]

    def test_degree_must_not_shrink(self):
        with pytest.raises(ValueError):
            amplify(Perm([1, 0]), 1)

    @given(perm_pairs(max_n=8), st.integers(0, 10))
    def test_amplify_is_multiplicative(self, fg, extra):
        f, g = fg
        n = f.n + extra
        assert amplify(compose(f, g), n) == compose(amplify(f, n),
                                                    amplify(g, n))

    @given(perms(max_n=8), st.integers(0, 12))
    def test_amplify_preserves_order(self, f, extra):
        assert order_of(amplify(f, f.n + extra)) == order_of(f)


class TestCounting:
    def test_spot_values(self):
        assert count_order_dividing(4, 4) == 16
        assert count_order_dividing(4, 2) == 10
        assert count_order_dividing(3, 3) == 3

    def test_involution_counts(self):
        # telephone numbers
        assert [count_order_dividing(n, 2) for n in range(7)] == [
            1, 1, 2, 4, 10, 26, 76]

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_matches_enumeration_small(self, k):
        for n in range(1, 7):
            assert count_order_dividing(n, k) == orc.brute_count_order_dividing(n, k)

    def test_identity_only_for_k1(self):
        assert count_order_dividing(9, 1) == 1


class TestSampling:
    @given(st.integers(1, 30), st.sampled_from([2, 3, 4, 6]),
           st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_sampled_order_divides_k(self, n, k, seed):
        f = sample_order_k(n, k, seed)
        assert f.n == n
        assert order_divides(f, k)

    def test_deterministic_in_seed(self):
        assert sample_order_k(40, 4, 7) == sample_order_k(40, 4, 7)
        # different seeds explore different permutations at this size
        draws = {sample_order_k(40, 4, s) for s in range(20)}
        assert len(draws) > 1

    def test_uniform_over_small_class(self):
        # n=4, k=2 has exactly 10 permutations; frequencies should be flat
        target = {tuple(f.tolist())
                  for f in all_perms(4) if order_divides(f, 2)}
        assert len(target) == 10
        counts = {t: 0 for t in target}
        trials = 5000
        for s in range(trials):
            counts[tuple(sample_order_k(4, 2, s).tolist())] += 1
        assert set(counts) == target
        expected = trials / len(target)
        for c in counts.values():
            assert abs(c - expected) < 6 * math.sqrt(expected)


def test_random_perm_deterministic():
    assert random_perm(10, random.Random(3)) == random_perm(10, random.Random(3))

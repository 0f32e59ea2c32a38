"""Permutation arithmetic against brute-force references and metric axioms."""

import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficperm.perm import (
    CycleDecomposition,
    Perm,
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

from soficperm import perm as pm

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

    def test_call(self):
        f = Perm([2, 0, 1])
        assert f(0) == 2 and f(2) == 1

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

    @pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
    def test_request_order_does_not_matter(self, order):
        # the table per k grows in place; every request order must read the
        # same values as a table built fresh for that single request
        keys = [(n, k) for k in (2, 3, 4, 6) for n in range(41)]
        fresh = {}
        for n, k in keys:
            pm._order_dividing_table.cache_clear()
            fresh[n, k] = count_order_dividing(n, k)
        if order == "ascending":
            keys.sort()
        elif order == "descending":
            keys.sort(reverse=True)
        else:
            keys.sort(key=lambda nk: (nk[0] * 7919) % 41)
        pm._order_dividing_table.cache_clear()
        assert {nk: count_order_dividing(*nk) for nk in keys} == fresh
        # telephone numbers: t(n) = t(n-1) + (n-1) t(n-2)
        t = [1, 1]
        for n in range(2, 41):
            t.append(t[-1] + (n - 1) * t[-2])
        assert [fresh[n, 2] for n in range(41)] == t


def _count_digest(ks, n_max):
    h = hashlib.sha256()
    for k in ks:
        for n in range(n_max + 1):
            c = count_order_dividing(n, k)
            h.update(c.to_bytes((c.bit_length() + 8) // 8, "little") + b"|")
    return h.hexdigest()


def test_count_table_digest_pinned():
    # a(n) for n <= 5000, recorded from the table summed term by term
    assert _count_digest((2, 3, 4, 6, 12), 5000) == (
        "bfa4abdb7d53546377daed203943f6a3d5968913152c71c0a34bbadf77fc453b")


@pytest.mark.parametrize("k", [1, 2, 4, 6, 12, 2520])
def test_bounds_hold_the_table(k):
    # exact below 2**_MANTISSA_BITS; above it a true bracket of a(j), with
    # the rounding of a few hundred steps still far below 2**-100 of it
    pm._order_dividing_bounds.cache_clear()
    for (lo, hi, e), a in zip(pm._bounds(400, k), pm._counts(400, k)):
        assert lo << e <= a <= hi << e
        if a < 2**pm._MANTISSA_BITS:
            assert lo == hi == a and e == 0
        else:
            assert (hi - lo) << 100 <= hi

def test_divisors():
    for k in range(1, 2001):
        every = [d for d in range(1, k + 1) if k % d == 0]
        for n in (1, 2, 3, 5, 12, 44, 45, 100, 1999, 2000, 2001, 5000):
            assert pm._divisors(k, n) == tuple(d for d in every if d <= min(n, k))


def test_huge_k_scans_only_up_to_the_degree():
    # 10**18 has about 10**9 candidates below its square root; only the
    # divisors up to n = 6 take part, here 1, 2, 4 and 5
    k = 10**18
    assert pm._divisors(k, 6) == (1, 2, 4, 5)
    want = sum(orc.order_divides_k(f, k) for f in permutations(range(6)))
    assert count_order_dividing(6, k) == want == 400
    assert order_divides(sample_order_k(6, k, seed=1), k)


class TestEnumeration:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 12])
    def test_rows_are_the_class(self, k):
        for n in range(1, 8):
            rows = pm._order_dividing_rows(n, k)
            got = set(map(tuple, rows.tolist()))
            want = {f for f in permutations(range(n)) if orc.order_divides_k(f, k)}
            assert got == want
            assert len(got) == len(rows) == count_order_dividing(n, k)


def _perm_memos():
    return [obj for obj in vars(pm).values() if hasattr(obj, "cache_info")]


def test_cache_sweep_empties_perm_memos():
    # the sweep perfbench/run.py runs before every timed call, so each call
    # does its work as in a fresh process
    from soficperm import conjsearch as cj
    count_order_dividing(300, 4)
    sample_order_k(50, 6, 1)
    cj.brute_force(cj.translation_problem(6, 1, 5, 2))
    assert len(_perm_memos()) >= 2
    assert all(memo.cache_info().currsize > 0 for memo in _perm_memos())
    for name, module in list(sys.modules.items()):
        if name == "soficperm" or name.startswith("soficperm."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
    assert all(memo.cache_info().currsize == 0 for memo in _perm_memos())


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
        target = {f for f in permutations(range(4))
                  if orc.order_divides_k(f, 2)}
        assert len(target) == 10
        counts = {t: 0 for t in target}
        trials = 5000
        for s in range(trials):
            counts[tuple(sample_order_k(4, 2, s).tolist())] += 1
        assert set(counts) == target
        expected = trials / len(target)
        for c in counts.values():
            assert abs(c - expected) < 6 * math.sqrt(expected)


# sha256 over the little-endian int64 images of seeds 0, 1 and 7, recorded
# before the order-dividing class moved into one recursion
SAMPLE_DIGESTS = {
    (6, 2): "ef35036b8a5356775ce249736489f4348b307da239671a650b149da5282f3e0d",
    (6, 3): "62b935207fa21ca0f0b640a85f1647fc0ac82896f5675dd77efda338b98dba0b",
    (6, 4): "d892127739069667af38925782ffc8bbb484ab2ec3e7a1ed9c720a9940639f18",
    (6, 6): "cce3e5e90a8d1096af977406075add85af8db14b27aa9cb319ea32bfe6a73334",
    (6, 12): "928d267abf33662a5e047e87665e3c42c2b51de8f51cf47be06b64d6cf1adb95",
    (50, 2): "d23ca302fc701564544543b99a1ab6745772c9165e7794a0b7245b829208333c",
    (50, 3): "200b972f0bb5daa9f741d2ebff513e5e15fd3da9eb0dc96c17e4cfa67c63d2fa",
    (50, 4): "b493410be13a5c0e09690ba9490073f55c9aeb4fdff81fae99612f3f3f0463ac",
    (50, 6): "75439efaaa4c2792a6b42a512990fab5b6f872c07ee3ff42c6a376fe72f0afd6",
    (50, 12): "b786ea82c9ffd78eb46b0cb13d48fe39504fb46fdc757fe7819bcbaf4a8f803c",
    (400, 2): "bcffa4592f389cdf5d41b694884e77d01a9221e95c5dbccbc0c39fbcdaffc06d",
    (400, 3): "652a9a52d7aa54f6745f7129fc8ebf79fe2c8f9dbf8a0739d2c6e89ab2d902bc",
    (400, 4): "281068083db95d216635bf28ae1a39e9fb54028f864555fa00ede85589927e22",
    (400, 6): "1f451eb1dc933c0f73844c09f19baa87fe990aa055398fc55b7e69a86f0f7620",
    (400, 12): "b036cb64721bb524b6b3d0e3a2e9a3448608a12bf187f4cf524abb8122d85dc4",
}


@pytest.mark.parametrize("n,k", sorted(SAMPLE_DIGESTS))
def test_sample_digests_pinned(n, k):
    h = hashlib.sha256()
    for seed in (0, 1, 7):
        h.update(sample_order_k(n, k, seed).images.astype("<i8").tobytes())
    assert h.hexdigest() == SAMPLE_DIGESTS[n, k]


def test_random_perm_deterministic():
    assert random_perm(10, random.Random(3)) == random_perm(10, random.Random(3))


# sha256 over the little-endian int64 images of seeds 1, 2 and 3, recorded
# from the sampler that drew from the exact count table
LARGE_SAMPLE_DIGESTS = {
    (5000, 4): "43d55d8a37c0dcb5d30d88fe44275113f7d21a1a637055ccc0a9904cede626f5",
    (20000, 4): "5a1506a4e68fe7f927842fbac03df80712e592940404d275c16c02faf70acdcd",
}


@pytest.mark.parametrize("n,k", sorted(LARGE_SAMPLE_DIGESTS))
def test_large_sample_digests_pinned(n, k):
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        h.update(sample_order_k(n, k, seed).images.astype("<i8").tobytes())
    assert h.hexdigest() == LARGE_SAMPLE_DIGESTS[n, k]


def test_sampling_builds_no_exact_table():
    # the exact table a(0..20000) for k = 4 alone holds about 244 MB
    pm._order_dividing_table.cache_clear()
    pm._order_dividing_bounds.cache_clear()
    tracemalloc.start()
    try:
        sample_order_k(20000, 4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert pm._order_dividing_table(4) == [1]


@pytest.mark.parametrize("bound", [1, 2, 3, 2**64, 2**64 + 1, 3**500, 10**3000 + 7])
def test_randrange_is_the_getrandbits_loop(bound):
    # the sampler writes rng.randrange(a(r)) out as this loop; a Python
    # whose randrange draws otherwise must fail here
    for seed in range(6):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(4):
            u = ours.getrandbits(bound.bit_length())
            while u >= bound:
                u = ours.getrandbits(bound.bit_length())
            assert u == theirs.randrange(bound)
            assert ours.getstate() == theirs.getstate()


ORACLE_GRID = [(n, k, seed)
               for n in (*range(1, 41), 300, 1000, 5000)
               for k in (1, 2, 3, 4, 6, 12, 2520)
               for seed in (0, 5)]


@pytest.fixture(scope="module")
def oracle_samples():
    """(n, k, seed) -> (images, rng state after the call) from the sampler
    that drew from the exact table."""
    out = {}
    for n, k, seed in ORACLE_GRID:
        rng = random.Random(seed)
        out[n, k, seed] = orc.sample_order_k_rng(n, k, rng), rng.getstate()
    return out


@pytest.mark.parametrize("bits", [pm._MANTISSA_BITS, 3])
def test_sampler_matches_the_exact_table_sampler(bits, oracle_samples, monkeypatch):
    # same permutation and same rng state after the call, since local_search
    # goes on drawing from that rng; at 3 bits the bounds leave many
    # comparisons open and the exact table settles them
    exact_reads = []
    counts = pm._counts

    def counting(n, k):
        exact_reads.append((n, k))
        return counts(n, k)

    monkeypatch.setattr(pm, "_MANTISSA_BITS", bits)
    monkeypatch.setattr(pm, "_counts", counting)
    pm._order_dividing_bounds.cache_clear()
    try:
        for (n, k, seed), (images, state) in oracle_samples.items():
            rng = random.Random(seed)
            assert tuple(pm._sample_order_k_rng(n, k, rng).tolist()) == images
            assert rng.getstate() == state
    finally:
        pm._order_dividing_bounds.cache_clear()
    if bits == 3:
        assert exact_reads
    else:
        assert not exact_reads

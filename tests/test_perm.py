"""Permutation arithmetic against brute-force references and metric axioms."""

import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate, permutations

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


class TestProjectToOrder:
    @given(perms(max_n=15), st.sampled_from([1, 2, 3, 4, 6]))
    def test_projection_properties(self, f, k):
        g = project_to_order(f, k)
        assert k % order_of(g) == 0
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
        # each count starts from a(0) with a window as wide as its largest
        # divisor (n = 0 has none), so every request order must read the
        # values of the exact table built fresh
        ks = (1, 2, 3, 4, 6, 12, 2520, 10**18)
        keys = [(n, k) for k in ks for n in range(41)]
        fresh = {}
        for k in ks:
            a = orc._counts(40, k)
            fresh.update(((n, k), a[n]) for n in range(41))
        if order == "ascending":
            keys.sort()
        elif order == "descending":
            keys.sort(reverse=True)
        else:
            keys.sort(key=lambda nk: (nk[0] * 7919) % 41)
        assert {nk: count_order_dividing(*nk) for nk in keys} == fresh
        # telephone numbers: t(n) = t(n-1) + (n-1) t(n-2)
        t = [1, 1]
        for n in range(2, 41):
            t.append(t[-1] + (n - 1) * t[-2])
        assert [fresh[n, 2] for n in range(41)] == t

    def test_count_builds_no_table(self):
        # the exact table a(0..5000) for k = 4 peaks at about 12 MB; the
        # count keeps four values of a few kB each
        tracemalloc.start()
        try:
            count_order_dividing(5000, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _count_digest(ks, n_max):
    # the table is hashed, since a sweep of the count over n is quadratic;
    # the count must read the table's value for every window width w (all
    # n < 3k) and at the top
    h = hashlib.sha256()
    for k in ks:
        table = orc._counts(n_max, k)[:n_max + 1]
        for c in table:
            h.update(c.to_bytes((c.bit_length() + 8) // 8, "little") + b"|")
        for n in [*range(min(3 * k, n_max + 1)), n_max - 1, n_max]:
            assert count_order_dividing(n, k) == table[n]
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
    for (lo, hi, e), a in zip(pm._bounds(400, k, pm._MANTISSA_BITS),
                              orc._counts(400, k)):
        assert lo << e <= a <= hi << e
        if a < 2**pm._MANTISSA_BITS:
            assert lo == hi == a and e == 0
        else:
            assert (hi - lo) << 100 <= hi


def test_gap_bounds_hold_the_gap_products():
    # x!/(x-g)! exact below 2**_MANTISSA_BITS at any gap, such as 40!/16!
    # (about 2**115); above it a true bracket from the factorial bounds
    cases = [(x, g) for x in range(80) for g in range(x + 1)]
    cases += [(x, g) for x in (200, 1000, 5000)
              for g in (0, 1, 5, 20, 21, 50, 100, x // 2, x)]
    gap = pm._arithmetic(pm._MANTISSA_BITS)[1]
    for x, g in cases:
        lo, hi, e = gap(x, g)
        p = math.perm(x, g)
        if p < 2**pm._MANTISSA_BITS:
            assert lo == hi == p and e == 0
        else:
            assert e > 0 and lo << e <= p <= hi << e
            assert (hi - lo) << 100 <= hi


def _threshold_bounds(r, k, bits):
    """Bounds on C_d for each d | k up to r, summed as the sampler sums
    them, and the bound on a(r), at a mantissa width of ``bits``."""
    bounds = pm._bounds(r, k, bits)
    step, gap = pm._arithmetic(bits)
    c, cs = (0, 0, 0), []
    for d in pm._divisors(k, r):
        c = step(c, gap(r - 1, d - 1), bounds[r - d])
        cs.append(c)
    return cs, bounds[r]


@pytest.mark.parametrize("k", [4, 12, 2520])
@pytest.mark.parametrize("r", [40, 300])
def test_bounds_past_the_bit_length_of_a_r_are_exact(r, k):
    # the widened retry stops: every value a test at r reads is at most
    # a(r), so from a(r)'s bit length on the bounds are exact, and exact
    # values always settle the test; one bit narrower a(r) is cut
    a = orc._counts(r, k)
    exact = list(accumulate(
        math.perm(r - 1, d - 1) * a[r - d] for d in pm._divisors(k, r)))
    width = a[r].bit_length()
    for bits in (width, width + 1, 2 * width):
        cs, ar = _threshold_bounds(r, k, bits)
        assert cs == [(c, c, 0) for c in exact]
        assert ar == (a[r], a[r], 0)
    assert _threshold_bounds(r, k, width - 1)[1] != (a[r], a[r], 0)


@pytest.mark.parametrize("k", [4, 12, 2520])
def test_widened_side_is_the_exact_side(k):
    # words at, just below and just above each threshold C_d / a(r), retried
    # from 3 bits: the answer is that of the exact values
    r, m = 60, 64
    a = orc._counts(r, k)
    lengths = pm._divisors(k, r)
    c = 0
    for i, d in enumerate(lengths[:-1]):
        c += math.perm(r - 1, d - 1) * a[r - d]
        lead = (c << m) // a[r]
        for x in (lead - 1, lead, lead + 1):
            want = pm._side(x, m, (c, c, 0), (a[r], a[r], 0))
            assert want is not None
            assert pm._widened_side(x, m, r, k, lengths[:i + 1], 3) == want


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
    assert k % order_of(sample_order_k(6, k, seed=1)) == 0


# sha256 over the little-endian int64 rows, in row order, recorded from the
# enumeration that conjugated each standard row by an argsort of its labels
ROWS_DIGESTS = {
    (9, 4): "be19146e816a981293c8de4508d3b35fb4ae300de5b623c8d302dd086145495a",
    (9, 2): "a8c5e6586d125f9499ac9ff76f04d64244fdee0f4980be95281217efce75da09",
    (8, 3): "6715746e7f3fed5fa836e3a17256c140e9a5019698e0df63509f5a63c6aa879a",
    (7, 6): "5ac4caff1619fa3c96d762745cf0ed5ed356a9426a2e219752329d86dc3de8c6",
    (9, 12): "13792b2e93f2b66d8a92ca9cee097bfc85811226e2757f9a3d3da34ba78f8e1f",
}


class TestEnumeration:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 12])
    def test_rows_are_the_class(self, k):
        for n in range(1, 8):
            rows = pm._order_dividing_rows(n, k)
            got = set(map(tuple, rows.tolist()))
            want = {f for f in permutations(range(n)) if orc.order_divides_k(f, k)}
            assert got == want
            assert len(got) == len(rows) == count_order_dividing(n, k)

    @pytest.mark.parametrize("n,k", sorted(ROWS_DIGESTS))
    def test_rows_pinned(self, n, k):
        # the order of the rows is part of the result: brute_force breaks
        # ties on it, and its iteration count is their number
        rows = pm._order_dividing_rows(n, k)
        digest = hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest()
        assert digest == ROWS_DIGESTS[n, k]


def _perm_memos():
    return [obj for obj in vars(pm).values() if hasattr(obj, "cache_info")]


def _empty_package_caches():
    for name, module in list(sys.modules.items()):
        if name == "soficperm" or name.startswith("soficperm."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def test_cache_sweep_empties_perm_memos():
    # the sweep perfbench/run.py runs before every timed call, so each call
    # does its work as in a fresh process
    from soficperm import conjsearch as cj
    count_order_dividing(300, 4)
    # k = 2520 fills the factorial bounds too: below 300 its divisors leave
    # gaps of up to 42, too long for an exact gap product
    sample_order_k(300, 2520, 1)
    cj.brute_force(cj.translation_problem(6, 1, 5, 2))
    assert len(_perm_memos()) >= 2
    assert all(memo.cache_info().currsize > 0 for memo in _perm_memos())
    _empty_package_caches()
    assert all(memo.cache_info().currsize == 0 for memo in _perm_memos())


def test_count_keeps_no_state():
    # a count fills no memo but the divisors, so its cost does not depend
    # on the calls before it
    _empty_package_caches()
    count_order_dividing(300, 12)
    count_order_dividing(40, 2520)
    assert [memo.__name__ for memo in _perm_memos()
            if memo.cache_info().currsize] == ["_divisors"]


class TestSampling:
    @given(st.integers(1, 30), st.sampled_from([2, 3, 4, 6]),
           st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_sampled_order_divides_k(self, n, k, seed):
        f = sample_order_k(n, k, seed)
        assert f.n == n
        assert k % order_of(f) == 0

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
# from tests/oracles.py, the sampler written straight from the exact table
SAMPLE_DIGESTS = {
    (6, 2): "08b25c1c6dc7eae3a22726569c1e0f1c87f96be0de2e38a993824794990c6f84",
    (6, 3): "713707c8e3e9038ab6e10d2228c2731db0f4e2be5caa3906ba125633d5684317",
    (6, 4): "e6c4eb813d3d722bf792b6a1cf2074c9f3f47e2a2d177597a2e9cda34e797ca4",
    (6, 6): "ccb5f45188f1743304bdc4ece76e501134aa97ef9453ab2de8b636b72bb98afa",
    (6, 12): "5bab10b2e922fd8878b6f7fe63e0b2cd42f327df881a46cffb25f7949db3a641",
    (50, 2): "e452047f8a7b4796f120d841a64e08760f2cac67158a40a26bbefe5e54851058",
    (50, 3): "dcf957aa42c498109819da3563093bd992d8eb34ddab80ea6ddb4878596722d9",
    (50, 4): "dc9f75dfb4a766f431322f16b80919ce14f05c3eede192d5370a73362a3e8c60",
    (50, 6): "ddc112573227b8479b4d282973cf3f7efd74a85d35e4503ec9badc7378f20fec",
    (50, 12): "cc67af5ba422335718c88c19f00eb9f90437552505a05933366d10055de9eca4",
    (400, 2): "304a54356eceb9275139b1a16d65e05408564d76ef3dbf115a1c7d42e717ae70",
    (400, 3): "fc663cd250b061d020926f3789a2da2fb42471d8ff8d405ac5a1506cdcc9b184",
    (400, 4): "f08b8412ecee323dae851a17f0e3e23a731ea27c3e0f583c296b132f1d43ed8d",
    (400, 6): "acf0b7b6c2b3137ec7c4d04c0555c8bcb080b6ce4e0f869ae67a038f2b37cb10",
    (400, 12): "63bedc5aa2d65deed48dbd322152fd6a61eacd5193f056bd5dcb47092de256ab",
}


@pytest.mark.parametrize("n,k", sorted(SAMPLE_DIGESTS))
def test_sample_digests_pinned(n, k):
    h = hashlib.sha256()
    for seed in (0, 1, 7):
        h.update(sample_order_k(n, k, seed).images.astype("<i8").tobytes())
    assert h.hexdigest() == SAMPLE_DIGESTS[n, k]


def test_random_perm_deterministic():
    assert random_perm(10, random.Random(3)) == random_perm(10, random.Random(3))


# sha256 over the little-endian int64 images of seeds 1, 2 and 3; n = 5000
# recorded from tests/oracles.py, n = 20000 (whose exact table would hold
# about 244 MB) from the sampler on bounds
LARGE_SAMPLE_DIGESTS = {
    (5000, 4): "51d8e6e757fbe1359c82d8ba363dd96698833a97069bb91c51f4ba686b12413c",
    (20000, 4): "0051609625a162dc28fe2ff639cdd9071d903f2dbbab25d4a6d91c1bc118299c",
}


@pytest.mark.parametrize("n,k", sorted(LARGE_SAMPLE_DIGESTS))
def test_large_sample_digests_pinned(n, k):
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        h.update(sample_order_k(n, k, seed).images.astype("<i8").tobytes())
    assert h.hexdigest() == LARGE_SAMPLE_DIGESTS[n, k]


def test_sampling_builds_no_exact_table():
    # the exact table a(0..20000) for k = 4 alone holds about 244 MB
    pm._order_dividing_bounds.cache_clear()
    tracemalloc.start()
    try:
        sample_order_k(20000, 4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_brute_force_rows_are_bytes():
    # k = 2520 lets f range over all of Sym(9); its rows as int64, with the
    # gathers that scored them, peaked at about 78 MiB
    from soficperm import conjsearch as cj
    prob = cj.translation_problem(9, 1, 2, 2520)
    tracemalloc.start()
    try:
        rep = cj.brute_force(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iterations == math.factorial(9)
    assert peak < 24 * 2**20


class _BitCounter(random.Random):
    """Sums the k of every getrandbits(k) call.  A subclass that defines
    getrandbits gets randrange's getrandbits loop, so randrange counts too."""

    bits = 0

    def getrandbits(self, k):
        self.bits += k
        return super().getrandbits(k)


def test_sampler_reads_only_the_bits_it_needs():
    # one 64-bit word per cycle-length draw and a partner index per point;
    # a draw of all of a(r) at every step read about 6.6e8 bits here
    counted, plain = _BitCounter(1), random.Random(1)
    f = pm._sample_order_k_rng(20000, 4, counted)
    assert f == pm._sample_order_k_rng(20000, 4, plain)
    assert counted.getstate() == plain.getstate()
    assert counted.bits < 10**6


class _Scripted(random.Random):
    """Hands out ``words`` for the first getrandbits calls, then draws as
    usual; ``calls`` logs the k of every call."""

    def __init__(self, seed, words):
        super().__init__(seed)
        self.words, self.calls = list(words), []

    def getrandbits(self, k):
        self.calls.append(k)
        return self.words.pop(0) if self.words else super().getrandbits(k)


@pytest.mark.parametrize("bits", [pm._MANTISSA_BITS, 3])
@pytest.mark.parametrize("n,k,more",
                         [(3, 3, 0), (3, 3, 2), (60, 4, 0), (60, 4, 3)])
def test_a_word_across_the_threshold_reads_32_bits_more(bits, n, k, more,
                                                        monkeypatch):
    # the words are the leading 64 + 32 * more bits of the first threshold
    # a(n-1)/a(n), so the word lies across it 1 + more times; a(60) for
    # k = 4 is past 2**128, so there the bounds cannot settle every test
    a = orc._counts(n, k)
    lead = (a[n - 1] << 64 + 32 * more) // a[n]
    words = [lead >> 32 * more] + [lead >> 32 * i & 0xFFFFFFFF
                                   for i in range(more - 1, -1, -1)]
    monkeypatch.setattr(pm, "_MANTISSA_BITS", bits)
    pm._order_dividing_bounds.cache_clear()
    ours, theirs = _Scripted(1, words), _Scripted(1, words)
    try:
        got = tuple(pm._sample_order_k_rng(n, k, ours).tolist())
    finally:
        pm._order_dividing_bounds.cache_clear()
    assert got == orc.sample_order_k_rng(n, k, theirs)
    assert ours.calls == theirs.calls
    assert ours.calls[:more + 2] == [64] + [32] * (more + 1)


@pytest.mark.parametrize("bound", [
    1, 2, 3, 2**64, 2**64 + 1, 3**500, 10**3000 + 7,
    # the climb's sizes: conjsearch._climb draws i and j by the same loop
    48, 64, 65, 100, 600, 1000, 1024, 1025, 2000, 2400])
def test_randrange_is_the_getrandbits_loop(bound):
    # the climb writes rng.randrange(n) out as this loop (conjsearch._climb
    # and its numpy scan), and so does the order-k sampler for each partner
    # (perm._sample_order_k_rng); a Python whose randrange draws otherwise
    # must fail here.  The bounds past 2**64 check the loop where a draw
    # spans words.
    redraws = 0
    for seed in range(6):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(200):
            u = ours.getrandbits(bound.bit_length())
            while u >= bound:
                redraws += 1
                u = ours.getrandbits(bound.bit_length())
            assert u == theirs.randrange(bound)
            assert ours.getstate() == theirs.getstate()
    assert redraws > 0


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
    # comparisons open and wider bounds settle them
    retries = []
    widened_side = pm._widened_side

    def counting(*args):
        retries.append(args)
        return widened_side(*args)

    monkeypatch.setattr(pm, "_MANTISSA_BITS", bits)
    monkeypatch.setattr(pm, "_widened_side", counting)
    pm._order_dividing_bounds.cache_clear()
    try:
        for (n, k, seed), (images, state) in oracle_samples.items():
            rng = random.Random(seed)
            assert tuple(pm._sample_order_k_rng(n, k, rng).tolist()) == images
            assert rng.getstate() == state
    finally:
        pm._order_dividing_bounds.cache_clear()
    if bits == 3:
        assert retries
    else:
        assert not retries


@pytest.mark.parametrize("k", sorted({k for _, k, _ in ORACLE_GRID}))
def test_oracle_table_equals_the_term_by_term_sum(k):
    # the oracle nests each a(j) from its largest divisor down; summed term
    # by term, as the sampler oracle splits it, the table is the same
    divisors = orc._divisors(k, 300)
    a = [1]
    for j in range(1, 301):
        a.append(sum(orc._cycle_terms(a, j, divisors)))
    assert orc._counts(300, k)[:301] == a

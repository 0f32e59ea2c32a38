"""Slot maps into G^k and the five-generator action on p^4 points."""

import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficperm import groups as gr
from soficperm import higman as hg
from soficperm import perm as pm

import oracles as orc


class TestPresentation:
    def test_copies_and_relators(self):
        pres = hg.hig_presentation(4, "zwrz")
        assert pres.k == 4
        copies = pres.copy_generators()
        assert len(copies) == 4
        # b_i is shared with a_{i+1}, wrapping around
        assert copies[3][1] == copies[0][0]
        assert gr.genword([("t", 4)]) in pres.extension_relators
        assert gr.genword(
            [("t", -1), ("b", 1), ("t", 1), ("a", -1)]
        ) in pres.extension_relators

    def test_k_bound(self):
        with pytest.raises(ValueError):
            hg.hig_presentation(0, "z2")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown family 'nope'; "
                           "expected one of "):
            hg.hig_presentation(3, "nope")


MUBAR_CASES = [
    ("z2", None), ("heis", None), ("zwrz", None), ("metab", None),
]


class TestMubar:
    @pytest.mark.parametrize("family,m", MUBAR_CASES)
    def test_slot_placement(self, family, m):
        e = gr.identity(family, m=m)
        b_sq = gr.generator(family, "b", 2, m=m)
        a_inv = gr.generator(family, "a", -1, m=m)
        for letters, left, right in [
            ([("a", 2), ("b", -1)], b_sq, a_inv),  # exponent sums 2 and -1
            ([("a", 1), ("b", 1), ("a", -1), ("b", -1)], e, e),  # sums 0 and 0
        ]:
            g = gr.eval_word(gr.genword(letters), family, m=m)
            k = 5
            slots = hg.mubar(g, 1, k)
            assert len(slots) == k
            assert slots[1] == g
            assert slots[0] == left   # b^(a-exponent sum)
            assert slots[2] == right  # a^(b-exponent sum)
            assert slots[3] == e and slots[4] == e

    @pytest.mark.parametrize("family,m", MUBAR_CASES)
    @given(j=st.integers(-4, 4), l=st.integers(0, 7))
    @settings(max_examples=40)
    def test_amalgam_consistency(self, family, m, j, l):
        k = 4
        b_j = gr.generator(family, "b", j, m=m)
        a_j = gr.generator(family, "a", j, m=m)
        assert hg.mubar(b_j, l, k) == hg.mubar(a_j, l + 1, k)

    def test_slot_index_wraps(self):
        g = gr.Z2Elem(1, 0)
        slots = hg.mubar(g, 0, 3)
        assert slots[0] == g
        assert slots[2] == gr.Z2Elem(0, 1)  # l - 1 mod 3
        assert slots[1] == gr.identity("z2")  # b-sum is 0

    def test_k_must_be_at_least_three(self):
        with pytest.raises(ValueError):
            hg.mubar(gr.Z2Elem(1, 0), 0, 2)

    def test_bs_rejected(self):
        with pytest.raises(ValueError, match="^bs admits no retraction"):
            hg.mubar(gr.generator("bs", "a", m=2), 0, 4)

    def test_injective_on_ball_slotwise(self):
        for family, m in MUBAR_CASES:
            elems = list(gr.ball(family, 2, m=m))
            images = [hg.mubar(g, 1, 4) for g in elems]
            assert len(set(images)) == len(elems)
            # distinct elements differ in the distinguished slot already
            assert len({im[1] for im in images}) == len(elems)


class TestMakeAction:
    def test_t_rotates_coordinates(self):
        act = hg.make_action(3, [1, 1, 1], [1, 1, 1])
        t = act.perms["t"]
        # (x,y,z,w) -> (y,z,w,x), encoded base p
        for x, y, z, w in [(0, 1, 2, 0), (2, 2, 1, 0)]:
            src = ((x * 3 + y) * 3 + z) * 3 + w
            dst = ((y * 3 + z) * 3 + w) * 3 + x
            assert t(src) == dst

    def test_a_formula(self):
        f = [1, 2, 1]
        lam = [2, 1, 2]
        act = hg.make_action(3, f, lam)
        a = act.perms["a"]
        for x, y, z, w in [(1, 0, 2, 1), (2, 1, 0, 0)]:
            src = ((x * 3 + y) * 3 + z) * 3 + w
            dst = (((x * lam[z]) % 3 * 3 + y) * 3 + z) * 3 + (w + f[z]) % 3
            assert a(src) == dst

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            hg.make_action(3, [1, 1], [1, 1, 1])      # wrong length
        with pytest.raises(ValueError):
            hg.make_action(3, [0, 1, 1], [1, 1, 1])   # zero value
        with pytest.raises(ValueError):
            hg.make_action(4, [1] * 4, [1] * 4)       # composite p

    @pytest.mark.parametrize("table", [
        [1.5, 2.9, 3, 4, 1], [1, 2, 3, 4, True], [1, 2, "3", 4, 1]])
    def test_rejects_non_integer_tables(self, table):
        with pytest.raises(ValueError, match="integers"):
            hg.make_action(5, table, [1] * 5)
        with pytest.raises(ValueError, match="integers"):
            hg.make_action(5, [1] * 5, table)

    def test_perms_are_built_on_first_read(self):
        act = hg.make_action(5, *hg.random_tables(5, seed=1))
        assert "perms" not in vars(act)
        assert act.perms is act.perms
        assert "perms" in vars(act)

    def test_tables_are_reduced_ints(self):
        act = hg.make_action(5, np.array([6, 2, 3, 4, 9]), (1, -1, 2, 3, 4))
        assert act.f_table == (1, 2, 3, 4, 4)
        assert act.lambda_table == (1, 4, 2, 3, 4)
        assert all(type(v) is int for v in act.f_table + act.lambda_table)

    @pytest.mark.parametrize("table", [3, None, 2.5, np.array(3)])
    def test_rejects_tables_without_length(self, table):
        with pytest.raises(ValueError, match="f_table must be a list of 5 integers"):
            hg.make_action(5, table, [1] * 5)
        with pytest.raises(ValueError,
                           match="lambda_table must be a list of 5 integers"):
            hg.make_action(5, [1] * 5, table)

    @pytest.mark.parametrize("p, seed", [(3, 0), (3, 7), (5, 1), (5, 4),
                                         (7, 2)])
    def test_generators_are_their_coordinate_formulas(self, p, seed):
        # t and a are built from the tables, d, c and b as successive
        # t-conjugates; each equals its formula at every point, in the
        # order t, a, b, c, d that records list
        f, lam = hg.random_tables(p, seed=seed)
        act = hg.make_action(p, f, lam)
        got = {name: tuple(g.tolist()) for name, g in act.perms.items()}
        assert list(got) == ["t", "a", "b", "c", "d"]
        assert got == orc.higman_generators(p, list(f), list(lam))

    def test_building_holds_at_most_ten_tables(self):
        # t, t^-1 and a from the coordinates, then three gathers each;
        # the five generators written out from coordinates peaked at 13
        p = 17
        act = hg.make_action(p, *hg.random_tables(p, seed=1))
        tracemalloc.start()
        try:
            act.perms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * p ** 4

    def test_perms_are_bijections(self):
        f, lam = hg.random_tables(5, seed=1)
        act = hg.make_action(5, f, lam)
        assert set(act.perms) == {"t", "a", "b", "c", "d"}
        for g in act.perms.values():
            assert g.n == 5 ** 4


class TestVerifyAction:
    @pytest.mark.parametrize("p, seed", [(3, 0), (3, 4), (5, 0), (5, 9),
                                         (7, 2)])
    def test_random_tables_pass(self, p, seed):
        f, lam = hg.random_tables(p, seed=seed)
        act = hg.make_action(p, f, lam)
        rep = hg.verify_action(act, window=2)
        assert rep.passed
        assert rep.t_order_ok
        assert rep.t_cycle == ("a", "d", "c", "b")
        assert all(c.witness is None for c in rep.checks)

    def test_commutators_match_reference(self):
        p = 3
        f, lam = hg.random_tables(p, seed=3)
        rep = hg.verify_action(hg.make_action(p, f, lam), 2)
        checks = {c.name: c.ok for c in rep.checks}
        for i in range(-2, 3):
            for j in range(i + 1, 3):
                assert checks[f"[d^(a^{i}), d^(a^{j})]"] == \
                    orc.wreath_conjugates_commute(p, list(f), list(lam), i, j)

    @pytest.mark.parametrize("shift, chain, cycle", [
        (4, "adcb", ("a", "d", "c", "b")),  # the construction's cycle
        (4, "abcd", None),                   # another 4-cycle: a^t = b
        (4, "adb", None),                    # a^t = d but d^t = b
        (1, "adcb", None),                   # t of order 16: b^t is not a
        (8, "ad", None),                     # t an involution: d^t = a
    ])
    def test_t_cycle_walk(self, shift, chain, cycle):
        # on 2^4 points: t is x -> x + shift, the names of `chain` are
        # successive t-conjugates of the transposition (0 1), and the rest
        # are unrelated
        t = pm.Perm([(x + shift) % 16 for x in range(16)])
        perms = {"t": t, "a": pm.Perm([1, 0] + list(range(2, 16)))}
        for prev, name in zip(chain, chain[1:]):
            perms[name] = pm.conjugate(perms[prev], t)
        rest = [name for name in "abcd" if name not in chain]
        for x, name in enumerate(rest):
            perms[name] = pm.Perm([x + 7, x + 6] + [y for y in range(16)
                                                    if y not in (x + 6, x + 7)])
        act = types.SimpleNamespace(p=2, perms=perms)
        rep = hg.verify_action(act, window=1)
        assert rep.t_cycle == cycle
        check = next(c for c in rep.checks if c.name.startswith("t-conj"))
        assert check.ok is (cycle is not None)
        assert rep.passed is (cycle is not None)
        # the commutators of every copy round the cycle, else of (a, d) only
        copies = {c.name[:6] for c in rep.checks if c.name.startswith("[")}
        assert copies == ({"[d^(a^", "[c^(d^", "[b^(c^", "[a^(b^"}
                          if cycle else {"[d^(a^"})

    def test_witness_is_the_first_differing_point(self):
        # d agrees with a^t except at (1, 2, 0, 1) and at the last point
        p = 3
        act = hg.make_action(p, *hg.random_tables(p, seed=0))
        first = ((1 * p + 2) * p + 0) * p + 1
        swap = list(range(p ** 4))
        swap[first], swap[-1] = swap[-1], swap[first]
        d = pm.compose(act.perms["d"], pm.Perm(swap))
        bad = types.SimpleNamespace(p=p, perms={**act.perms, "d": d})
        rep = hg.verify_action(bad, window=1)
        check = next(c for c in rep.checks if c.name == "a^t = d")
        assert not check.ok
        assert check.witness == (1, 2, 0, 1)
        assert all(type(v) is int for v in check.witness)
        assert rep.t_cycle is None and not rep.passed

    def test_window_validation(self):
        f, lam = hg.random_tables(3, seed=0)
        act = hg.make_action(3, f, lam)
        with pytest.raises(ValueError):
            hg.verify_action(act, window=0)

    def test_matches_the_copy_by_copy_reference(self):
        rng = random.Random(0)
        all_four_fail = passed = broken = late_witnesses = 0
        cases = 360
        for case in range(cases):
            perms = _hand_made_perms(rng, case)
            window = 1 + case % 3
            rep = hg.verify_action(types.SimpleNamespace(p=2, perms=perms),
                                   window)
            checks, t_order_ok, t_cycle, ref_passed = orc.verify_action_reference(
                2, {name: tuple(g.tolist()) for name, g in perms.items()}, window)
            assert [(c.name, c.ok, c.witness) for c in rep.checks] == checks
            assert (rep.t_order_ok, rep.t_cycle, rep.passed) == (
                t_order_ok, t_cycle, ref_passed)
            failing = {c.name[:6] for c in rep.checks
                       if c.name.startswith("[") and not c.ok}
            all_four_fail += len(failing) == 4
            passed += rep.passed
            broken += rep.t_cycle is None
            late_witnesses += any(c.witness for c in rep.checks
                                  if c.name[:6] in ("[c^(d^", "[b^(c^", "[a^(b^"))
        # the cases cover what the copies can do: failing commutators on
        # all four copies, witnesses read through t, passing actions and
        # broken cycles
        assert all_four_fail > cases // 2
        assert late_witnesses > cases // 2
        assert passed > 0 and broken > 0

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_compositions_grow_linearly_with_the_window(self, window,
                                                       monkeypatch):
        act = hg.make_action(3, *hg.random_tables(3, seed=0))
        act.perms   # built before the count starts
        compose, calls = pm.compose, []

        def spy(f, g):
            calls.append((f, g))
            return compose(f, g)

        monkeypatch.setattr(pm, "compose", spy)
        assert hg.verify_action(act, window).passed
        assert len(calls) <= 4 * window


def _hand_made_perms(rng, case):
    """Five permutations of 2^4 points: t of order dividing 4 made of
    disjoint cycles, a random (a transposition in every fifth case) and
    d, c, b its successive t-conjugates; in every fourth case b or d is
    replaced by a random permutation, which breaks the cycle."""
    order = rng.sample(range(16), 16)
    t = list(range(16))
    while order:
        length = rng.choice([n for n in (1, 2, 4) if n <= len(order)])
        cycle, order = order[:length], order[length:]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            t[x] = y
    t = pm.Perm(t)
    if case % 5 == 0:
        x, y = rng.sample(range(16), 2)
        a = list(range(16))
        a[x], a[y] = y, x
        a = pm.Perm(a)
    else:
        a = pm.Perm(rng.sample(range(16), 16))
    perms = {"t": t, "a": a}
    for prev, name in zip("adc", "dcb"):
        perms[name] = pm.conjugate(perms[prev], t)
    if case % 4 == 3:
        perms[rng.choice("bd")] = pm.Perm(rng.sample(range(16), 16))
    return perms


def _probe_reference(act, depth):
    """injectivity_probe element by element: each lamp term is the power of
    the lamp conjugated by the power of the base."""
    base, lamp = act.perms["a"], act.perms["d"]
    ident = pm.Perm.identity(act.p ** 4)
    offenders = []
    for elem in gr.ball("zwrz", depth):
        if gr.is_trivial(elem):
            continue
        image = pm.power(base, elem.pow)
        for e, c in elem.poly:
            image = pm.compose(image, pm.conjugate(pm.power(lamp, c),
                                                   pm.power(base, e)))
        if image == ident:
            offenders.append(elem)
    return offenders


class TestInjectivityProbe:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("tables", ["random", "lambda one", "ones"])
    def test_matches_the_element_reference(self, p, tables):
        f, lam = hg.random_tables(p, seed=p)
        if tables != "random":
            lam = [1] * p   # the base and the lamp have order p
        if tables == "ones":
            f = [1] * p     # and, translations, they commute
        act = hg.make_action(p, f, lam)
        for depth in range(5):
            assert hg.injectivity_probe(act, depth) == _probe_reference(
                act, depth)

    def test_degenerate_tables_collapse(self):
        # lambda identically 1 makes both the base and the lamp have order p
        act = hg.make_action(3, [1, 1, 1], [1, 1, 1])
        hits = hg.injectivity_probe(act, 3)
        assert hits
        assert gr._wreath_make({0: 3}, 0) in hits   # lamp^3
        assert gr._wreath_make({}, 3) in hits       # base^3

    def test_generic_tables_probe_empty(self):
        f, lam = hg.random_tables(3, seed=0)
        act = hg.make_action(3, f, lam)
        assert hg.injectivity_probe(act, 3) == []

    def test_depth_zero_and_cap(self):
        act = hg.make_action(3, [1, 1, 1], [1, 1, 1])
        assert hg.injectivity_probe(act, 0) == []
        with pytest.raises(ValueError):
            hg.injectivity_probe(act, 7)


def test_random_tables_deterministic():
    assert hg.random_tables(7, seed=9) == hg.random_tables(7, seed=9)
    f, lam = hg.random_tables(7, seed=9)
    assert len(f) == len(lam) == 7
    assert all(1 <= v <= 6 for v in f + lam)

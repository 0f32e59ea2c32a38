"""End-to-end acceptance gate: eleven numbered criteria, each with the
runtime budget it must meet on a desktop-class machine.

Every criterion is deterministic: fixed seeds, exact arithmetic, and
frozen oracle values computed independently of the library code.
"""

import itertools
import math
import time
from fractions import Fraction
from random import Random

from soficperm import approx as ap
from soficperm import cli
from soficperm import conjsearch as cs
from soficperm import groups as gr
from soficperm import heuristic as hs
from soficperm import higman as hg
from soficperm import perm as pm

import oracles as orc


class Budget:
    """Context manager asserting the wrapped block beats a wall-clock cap."""

    def __init__(self, seconds):
        self.cap = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.cap, (
                f"budget exceeded: {self.elapsed:.2f}s >= {self.cap}s")
        return False


def random_perm(n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return pm.Perm(images)


def test_criterion_01_metric_suite():
    with Budget(1.0):
        rng = Random(1)
        n = 50
        identity = pm.Perm.identity(n)
        for _ in range(1000):
            rho, sigma, tau = (random_perm(n, rng) for _ in range(3))
            d = pm.hamming
            # metric axioms, exactly
            assert d(rho, rho) == 0
            assert (d(rho, sigma) == 0) == (rho == sigma)
            assert d(rho, sigma) == d(sigma, rho)
            assert d(rho, tau) <= d(rho, sigma) + d(sigma, tau)
            # bi-invariance
            lhs = d(pm.compose(tau, rho), pm.compose(tau, sigma))
            rhs = d(pm.compose(rho, tau), pm.compose(sigma, tau))
            assert lhs == d(rho, sigma) == rhs
            # products drift no further than the sum of the parts
            prod = pm.compose(rho, pm.compose(sigma, tau))
            assert d(identity, prod) <= (
                d(identity, rho) + d(identity, sigma) + d(identity, tau))
            # conjugation preserves distance to the identity
            conj = pm.compose(pm.inverse(tau), pm.compose(sigma, tau))
            assert d(conj, identity) == d(sigma, identity)
            # and moving the conjugator moves the conjugate at most twice
            conj2 = pm.compose(pm.inverse(rho), pm.compose(sigma, rho))
            assert d(conj, conj2) <= 2 * d(tau, rho)


def test_criterion_02_counting_oracle():
    with Budget(30.0):
        for n in range(1, 9):
            orders = []
            for images in itertools.permutations(range(n)):
                orders.append(orc.t_order(images))
            for k in (2, 3, 4, 6):
                expected = sum(1 for o in orders if k % o == 0)
                assert pm.count_order_dividing(n, k) == expected
        assert pm.count_order_dividing(4, 4) == 16
        assert pm.count_order_dividing(4, 2) == 10
        assert pm.count_order_dividing(3, 3) == 3
        assert pm.count_order_dividing(8, 4) == 6224
        assert pm.count_order_dividing(9, 4) == 33616


FAMILY_CASES = [
    ("z2", 11, dict(p=2, q=3), None),
    ("heis", 7, dict(), None),
    ("bs", 31, dict(m=2), 2),
    ("zwrz", 31, dict(m=3), None),
    ("metab", 29, dict(p=2, q=3), None),
]


def test_criterion_03_homomorphism_exactness():
    with Budget(10.0):
        for family, n, kw, m in FAMILY_CASES:
            spec = ap.make_approx(family, n, **kw)
            rng = Random(3)
            for _ in range(1000):
                pair = []
                for _ in range(2):
                    letters = [
                        (rng.choice("ab"), rng.choice([-3, -2, -1, 1, 2, 3]))
                        for _ in range(rng.randrange(0, 5))
                    ]
                    pair.append(gr.eval_word(gr.genword(letters), family, m=m))
                g, h = pair
                lhs = pm.compose(ap.eval(spec, g), ap.eval(spec, h))
                assert lhs == ap.eval(spec, gr.mul(g, h))


def test_criterion_04_order_k_conjugation_obstruction():
    with Budget(600.0):
        for n in range(1, 8):
            units = [p for p in range(n) if math.gcd(p, n) == 1]
            for k in (2, 4):
                for p in units:
                    for q in range(n):
                        prob = cs.translation_problem(n, p, q, k)
                        report = cs.brute_force(prob)
                        perfect = report.agreement_count == n
                        assert perfect == ((q**k - p**k) % n == 0), (
                            n, k, p, q, report.agreement_count)


def test_criterion_05_exact_conjugator():
    with Budget(1.0):
        f = cs.exact_multiplicative(13, 1, 5, 4)
        assert f.images.tolist() == [(5 * x) % 13 for x in range(13)]
        assert pm.power(f, 4) == pm.Perm.identity(13)
        prob = cs.translation_problem(13, 1, 5, 4)
        assert cs.agreement(f, prob) == 13
        spec = ap.make_approx("z2", 13, p=1, q=5)
        b = gr.generator("z2", "b")
        a = gr.generator("z2", "a")
        assert cs.higman_defect(spec, f, [(b, a)]) == 0


def test_criterion_06_heisenberg_fixed_point_bound():
    with Budget(30.0):
        exps = range(-3, 4)
        for n in range(5, 31):
            for lam, mu, nu in itertools.product(exps, exps, exps):
                if lam == 0 and mu == 0 and nu == 0:
                    continue
                report = ap.heis_fixed_bound(n, lam, mu, nu)
                if lam != 0:
                    assert report.bound == abs(lam) * n
                    assert report.bound_ok is True, (n, lam, mu, nu)
                else:
                    # judged separately: the bound reads 0 yet fixed points
                    # remain, so the report carries the exact count instead
                    assert report.bound_ok is None
                    good_y = sum(1 for y in range(n) if (mu * y - nu) % n == 0)
                    assert report.count == n * good_y


def test_criterion_07_amplification_degrades_gently():
    with Budget(5.0):
        m = 11
        eta = Fraction(1, 10)
        base = ap.make_approx("z2", m, p=2, q=3)
        ball = gr.ball("z2", 2)
        assert ap.verify(base, ball, eta).passed
        for npoints in (25, 38, 100):
            amplified = ap.amplify_spec(base, npoints)
            blocks = npoints // m
            delta = eta + Fraction(1, blocks + 1)
            report = ap.verify(amplified, ball, delta)
            assert report.passed, (npoints, report)
            assert report.worst_hom_defect == 0
            assert report.worst_id_closeness == Fraction(m * blocks, npoints)


def test_criterion_08_action_tables_and_probe():
    with Budget(120.0):
        for p in (3, 5, 7):
            probe_results = []
            for seed in range(20):
                f_table, lam_table = hg.random_tables(p, seed)
                act = hg.make_action(p, f_table, lam_table)
                report = hg.verify_action(act, 3)
                assert report.passed, (p, seed, report)
                assert report.t_order_ok
                assert all(check.ok for check in report.checks)
                probe_results.append(hg.injectivity_probe(act, 3))
            assert any(result == [] for result in probe_results), p


def test_criterion_09_slot_map_consistency():
    with Budget(10.0):
        k = 4
        for family in ("z2", "heis", "zwrz", "metab"):
            rng = Random(9)
            for _ in range(100):
                j = rng.randint(-30, 30)
                l = rng.randrange(0, 8)
                b_j = gr.generator(family, "b", j)
                a_j = gr.generator(family, "a", j)
                assert hg.mubar(b_j, l, k) == hg.mubar(a_j, l + 1, k)
            elems = list(gr.ball(family, 3))
            images = [hg.mubar(g, 1, k) for g in elems]
            assert len(set(images)) == len(elems)
            # the distinguished slot alone already separates them
            assert len({im[1] for im in images}) == len(elems)


def test_criterion_10_search_beats_uniform_sampling(capsys):
    with Budget(120.0):
        prob = cs.multiplication_problem(80, 3, 4)
        report = cs.local_search(prob, seed=0)
        assert report.order_of_f in (1, 2, 4)
        assert cs.agreement(report.f, prob) == report.agreement_count

        baseline = max(
            cs.agreement(pm.sample_order_k(80, 4, seed), prob)
            for seed in range(1000)
        )
        assert report.agreement_count > baseline

        # reproducible: same seed, same permutation
        again = cs.local_search(prob, seed=0)
        assert again.f == report.f

        # and byte-identical through the CLI; base multiplier 27 inverts to
        # 3 mod 80, so this is the same (+1 -> x3) problem
        outputs = []
        for _ in range(2):
            argv = ["search", "--group", "zwrz", "--n", "80", "--m", "27",
                    "--k", "4", "--algo", "local", "--seed", "0"]
            assert cli.run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert f'"agreement_count": {report.agreement_count}' in outputs[0]


def test_criterion_11_counting_heuristic():
    with Budget(5.0):
        eps = Fraction(1, 100)
        report = hs.heuristic_report(100, 4, eps, eps)
        assert 0.65 <= float(report.asymptotic_ratio) <= 0.85
        assert report.pk_model_coeff == 2 * eps + eps - Fraction(1, 4)
        assert report.pk_model_coeff == Fraction(-11, 50)
        assert float(report.pk_model_coeff) == -0.22
        assert report.pk_model_coeff < 0
        assert report.log_PK < 0

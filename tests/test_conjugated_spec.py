"""Relabelled specs: sigma^-1 psi sigma behaves as one ApproxSpec everywhere."""

import json
import random
from fractions import Fraction

import pytest

from soficperm import approx as ap
from soficperm import conjsearch as cj
from soficperm import groups as gr
from soficperm import perm as pm
from soficperm import serialize as ser

SPEC_CASES = [
    ("z2", 11, dict(p=2, q=3)),
    ("heis", 5, dict()),
    ("bs", 11, dict(m=2)),
    ("zwrz", 11, dict(m=3)),
    ("metab", 11, dict(p=2, q=3)),
]
IDS = [case[0] for case in SPEC_CASES]


def relabel(f, sigma):
    return pm.compose(pm.compose(pm.inverse(sigma), f), sigma)


def conjugated(family, n, kw, depth):
    """(base, spec, sigma): spec is base relabelled ``depth`` times, and
    sigma the single relabelling that gives the same map."""
    base = ap.make_approx(family, n, **kw)
    rng = random.Random(f"{family}-{depth}")
    spec, total = base, pm.Perm.identity(base.npoints)
    for _ in range(depth):
        sigma = pm.random_perm(base.npoints, rng)
        spec = ap.conjugate_spec(spec, sigma)
        total = pm.compose(total, sigma)
    return base, spec, total


def ball(spec, radius=2):
    return gr.ball(spec.family, radius, m=spec.m)


@pytest.fixture(params=[1, 2], ids=["once", "nested"])
def depth(request):
    return request.param


@pytest.mark.parametrize("family,n,kw", SPEC_CASES, ids=IDS)
class TestConjugatedSpec:
    def test_is_one_spec_type(self, family, n, kw, depth):
        base, spec, sigma = conjugated(family, n, kw, depth)
        assert type(spec) is ap.ApproxSpec
        assert spec.sigma == sigma
        assert base.sigma is None

    def test_eval_is_relabelled_base(self, family, n, kw, depth):
        base, spec, sigma = conjugated(family, n, kw, depth)
        for g in ball(spec, 1):
            assert ap.eval(spec, g) == relabel(ap.eval(base, g), sigma)
        assert spec.psi_a == relabel(base.psi_a, sigma)
        assert spec.psi_b == relabel(base.psi_b, sigma)

    def test_verify_matches_base(self, family, n, kw, depth):
        base, spec, _ = conjugated(family, n, kw, depth)
        for delta in (Fraction(1, 2), Fraction(1, 100)):
            assert ap.verify(spec, ball(spec), delta) == \
                ap.verify(base, ball(base), delta)

    def test_problem_from_spec(self, family, n, kw, depth):
        base, spec, sigma = conjugated(family, n, kw, depth)
        prob = cj.problem_from_spec(spec, 4)
        base_prob = cj.problem_from_spec(base, 4)
        assert prob.alpha == relabel(base_prob.alpha, sigma)
        assert prob.beta == relabel(base_prob.beta, sigma)
        f = pm.sample_order_k(spec.npoints, 4, seed=1)
        assert cj.agreement(relabel(f, sigma), prob) == \
            cj.agreement(f, base_prob)

    def test_record_roundtrip(self, family, n, kw, depth):
        base, spec, sigma = conjugated(family, n, kw, depth)
        obj = json.loads(json.dumps(ser.spec_to_obj(spec)))
        assert obj["sigma"] == sigma.tolist()
        back = ser.spec_from_obj(obj)
        assert back.sigma == sigma
        assert back.psi_a == spec.psi_a and back.psi_b == spec.psi_b
        assert "sigma" not in ser.spec_to_obj(base)

    def test_tampered_sigma_rejected(self, family, n, kw, depth):
        _, spec, _ = conjugated(family, n, kw, depth)
        obj = ser.spec_to_obj(spec)
        obj["sigma"][0], obj["sigma"][1] = obj["sigma"][1], obj["sigma"][0]
        with pytest.raises(ValueError, match="disagrees"):
            ser.spec_from_obj(obj)

    def test_amplify_refused(self, family, n, kw, depth):
        _, spec, _ = conjugated(family, n, kw, depth)
        with pytest.raises(ValueError, match="relabel"):
            ap.amplify_spec(spec, 2 * spec.npoints)


def test_degree_must_match():
    spec = ap.make_approx("z2", 11, p=2, q=3)
    with pytest.raises(ValueError, match="degree"):
        ap.conjugate_spec(spec, pm.Perm.identity(10))


def test_amplified_spec_can_be_relabelled():
    big = ap.amplify_spec(ap.make_approx("z2", 11, p=2, q=3), 25)
    sigma = pm.random_perm(25, random.Random(3))
    spec = ap.conjugate_spec(big, sigma)
    assert spec.psi_a == relabel(big.psi_a, sigma)
    back = ser.spec_from_obj(json.loads(json.dumps(ser.spec_to_obj(spec))))
    assert back.npoints == 25 and back.psi_b == spec.psi_b


def test_align_recovers_zero_distance_on_relabelled_spec():
    base = ap.make_approx("z2", 9, p=1, q=2)
    spec = ap.conjugate_spec(base, pm.random_perm(9, random.Random(5)))
    rep = cj.align(base, spec, gr.ball("z2", 1), seed=0)
    assert rep.max_distance == 0

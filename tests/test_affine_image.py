"""Symbolic affine images against their materialized permutation tables.

``reference_verify`` is the table-based verifier: it evaluates every element
of S to a full ``Perm`` and composes and compares the tables point by point.
The symbolic verifier in ``soficperm.approx`` must report exactly what it
reports, witnesses included.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficperm import approx as ap
from soficperm import groups as gr
from soficperm import perm as pm


@st.composite
def image_pairs(draw):
    """Two images on one point set: random (u, v) or (a, b, c), modulus n
    and block count, with an identity tail shorter than a block."""
    n = draw(st.integers(1, 12))
    plane = draw(st.booleans())
    block = n * n if plane else n
    npoints = block * draw(st.integers(1, 3)) + draw(st.integers(0, block - 1))
    residue = st.integers(0, n - 1)
    units = st.sampled_from([u for u in range(n) if math.gcd(u, n) == 1])

    def one():
        if plane:
            coeffs = (draw(residue), draw(residue), draw(residue))
        else:
            coeffs = (draw(units), draw(residue))
        return ap.AffineImage(n, coeffs, npoints)

    return one(), one()


@given(image_pairs())
@settings(max_examples=400, deadline=None)
def test_compose_and_agree_count_match_tables(pair):
    f, g = pair
    table_f, table_g = f.perm(), g.perm()
    pm.Perm(table_f.images)  # the untrusted constructor re-checks bijectivity
    assert table_f.n == f.npoints
    assert f.compose(g).perm() == pm.compose(table_f, table_g)
    assert f.agree_count(g) == f.npoints - pm.hamming_count(table_f, table_g)


def test_images_on_different_point_sets_refused():
    f = ap.AffineImage(5, (1, 1), 5)
    with pytest.raises(ValueError):
        f.compose(ap.AffineImage(5, (1, 1), 7))
    with pytest.raises(ValueError):
        f.agree_count(ap.AffineImage(5, (0, 1, 1), 5))


def reference_verify(spec, S, delta):
    delta = ap.to_fraction(delta)
    elements = sorted(set(S), key=gr.sort_key)
    images = {g: ap.eval(spec, g) for g in elements}

    worst, hom_witness, pairs = Fraction(0), None, 0
    for g, h in itertools.product(elements, elements):
        gh = gr.mul(g, h)
        if gh not in images:
            continue
        pairs += 1
        d = pm.hamming(pm.compose(images[g], images[h]), images[gh])
        if d > worst:
            worst, hom_witness = d, (g, h)

    ident = pm.Perm.identity(spec.npoints)
    closeness, id_witness = None, None
    for g in elements:
        trivial = (g.word.is_empty() if isinstance(g, gr.FreeWord)
                   else gr.is_trivial(g))
        if trivial:
            continue
        d = pm.hamming(images[g], ident)
        if closeness is None or d < closeness:
            closeness, id_witness = d, g

    passed = worst < delta and (closeness is None or closeness > 1 - delta)
    return ap.VerifyReport(spec.family, spec.npoints, delta, worst,
                           hom_witness, closeness, id_witness, passed,
                           len(elements), pairs)


# (family, n, params, radius, amplified degree or None); small moduli make
# some nontrivial elements act trivially, so identity witnesses show up
VERIFY_CASES = [
    ("z2", 10, dict(p=2, q=3), 3, None),
    ("z2", 11, dict(p=2, q=3), 2, 37),
    ("z2", 1, dict(p=0, q=0), 2, 5),
    ("heis", 4, {}, 3, None),
    ("heis", 3, {}, 2, 20),
    ("bs", 7, dict(m=2), 3, None),
    ("bs", 9, dict(m=2), 2, 30),
    ("zwrz", 7, dict(m=3), 3, None),
    ("zwrz", 8, dict(m=3), 2, 19),
    ("metab", 7, dict(p=2, q=3), 3, None),
    ("metab", 5, dict(p=2, q=3), 2, 16),
]


@pytest.mark.parametrize("family,n,params,radius,amplify_to", VERIFY_CASES)
@pytest.mark.parametrize("delta", ["1/10", "1/2", 1])
def test_verify_matches_table_reference(family, n, params, radius,
                                        amplify_to, delta):
    spec = ap.make_approx(family, n, **params)
    if amplify_to is not None:
        spec = ap.amplify_spec(spec, amplify_to)
    S = gr.ball(family, radius, m=params.get("m"))
    assert ap.verify(spec, S, delta) == reference_verify(spec, S, delta)


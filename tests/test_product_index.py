"""``verify`` over the product index: the homomorphism property it rests on,
the array index against products by ``groups.mul``, pinned reports for every
``verify-grid`` row, the witness when images are skewed on purpose, the
defect's int64 and object columns against scalar ``AffineImage`` arithmetic,
and the bounded metab fold.

The property ``image(gh) == image(g) o image(h)`` is the oracle for the
batched closed form in ``approx.verify``: it holds for all five families,
plain, amplified and relabelled specs, at moduli up to 10^12.  The digests
below were recorded from the per-pair verifier before the product index
replaced it; the batched verifier must reproduce every report byte for byte.
"""

import hashlib
import importlib.util
import itertools
import json
import math
import re
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soficperm import approx as ap
from soficperm import groups as gr
from soficperm import perm as pm
from soficperm import serialize as ser

import oracles as orc

M_CHOICES = (-6, -3, -2, 2, 3, 5, 6, 7)
METAB_PQ = (2, 3, 5, 7, 11)


def _words(max_len=6):
    letter = st.tuples(st.sampled_from(["a", "b"]), st.integers(-4, 4))
    return st.lists(letter, max_size=max_len).map(gr.genword)


@st.composite
def spec_and_pair(draw):
    """A spec of any family (plain, amplified or relabelled) and two
    elements of that family."""
    family = draw(st.sampled_from(gr.FAMILIES))
    big = draw(st.booleans())
    n = (draw(st.integers(10**11, 10**12)) if big
         else draw(st.integers(1, 40 if family != "heis" else 6)))
    params = {}
    if family == "z2":
        params = {"p": draw(st.integers(-10**13, 10**13)),
                  "q": draw(st.integers(-10**13, 10**13))}
    elif family in ("bs", "zwrz"):
        params = {"m": draw(st.sampled_from(M_CHOICES))}
        assume(math.gcd(params["m"], n) == 1)
    elif family == "metab":
        params = {"p": draw(st.sampled_from(METAB_PQ)),
                  "q": draw(st.sampled_from(METAB_PQ))}
        assume(math.gcd(params["p"] * params["q"], n) == 1)
    spec = ap.make_approx(family, n, **params)
    kind = draw(st.sampled_from(["plain", "amplified", "conjugated"]))
    if kind == "amplified":
        spec = ap.amplify_spec(
            spec, spec.npoints * draw(st.integers(1, 3))
            + draw(st.integers(0, spec.npoints - 1)))
    elif kind == "conjugated" and not big:
        rng_seed = draw(st.integers(0, 2**32 - 1))
        sigma = pm.Perm(np.random.default_rng(rng_seed)
                        .permutation(spec.npoints))
        spec = ap.conjugate_spec(spec, sigma)

    def elem():
        w = draw(_words())
        if family == "metab":
            return gr.FreeWord(w)
        return gr.eval_word(w, family, m=params.get("m"))

    return spec, elem(), elem()


@given(spec_and_pair())
@settings(max_examples=500, deadline=None)
def test_image_is_a_homomorphism(case):
    spec, g, h = case
    assert ap.image(spec, gr.mul(g, h)) == \
        ap.image(spec, g).compose(ap.image(spec, h))


# ---------------------------------------------------------------------------
# the array index against one groups.mul per pair
# ---------------------------------------------------------------------------

@cache
def _reference_index(elements: tuple) -> list[list[int]]:
    return orc.product_index(elements, gr.mul)


def _check_blocks(elements, rows, blocks):
    """Each (top, block) equals the reference index of the sorted, distinct
    ``elements``, built with ``groups.mul``; returns how many products the
    blocks found in S."""
    want = _reference_index(tuple(elements))
    assert [top for top, _ in blocks] == list(range(0, len(elements), rows))
    for top, block in blocks:
        assert block.dtype == np.int64
        assert block.tolist() == want[top:top + rows]
    return sum(int((block >= 0).sum()) for _, block in blocks)


def _check_index(elements, rows):
    elements = sorted(set(elements), key=gr.sort_key)
    return _check_blocks(elements, rows, list(
        ap._product_index(ap._array_form(elements), rows)))


# every verify-grid family and radius, then one larger radius each
INDEX_BALLS = [
    *(("z2", r, None) for r in (2, 4, 5, 6, 7, 8, 9, 11)),
    *(("heis", r, None) for r in (2, 3, 4, 5, 6)),
    *(("bs", r, 3) for r in (2, 3, 4)),
    ("bs", 5, 2), ("bs", 5, -3),
    *(("zwrz", r, None) for r in (2, 3, 4, 5)),
    *(("metab", r, None) for r in (2, 3, 4)),
]
SPEC_PARAMS = {"z2": dict(p=2, q=3), "heis": {}, "bs": {}, "zwrz": dict(m=3),
               "metab": dict(p=2, q=3)}


@pytest.mark.parametrize("family,radius,m", INDEX_BALLS)
@pytest.mark.parametrize("chunk", [7, 1 << 11, ap._PAIR_CHUNK, 1 << 20])
def test_verify_reads_the_mul_index(monkeypatch, family, radius, m, chunk):
    """The blocks ``verify`` reads, with its chunk small, as shipped and
    above |S|^2, are the index ``groups.mul`` gives; the array form is int64
    on every ball."""
    S = gr.ball(family, radius, m=m)
    elements = sorted(S, key=gr.sort_key)
    assert ap._array_form(elements).dtype is np.int64

    blocks, index = [], ap._product_index

    def spy(*args):
        for top, block in index(*args):
            blocks.append((top, block))
            yield top, block
    monkeypatch.setattr(ap, "_product_index", spy)
    monkeypatch.setattr(ap, "_PAIR_CHUNK", chunk)
    spec = ap.make_approx(family, 31 if family == "heis" else 1009,
                          **(dict(m=m) if m else SPEC_PARAMS[family]))
    ap.verify(spec, S, 1)
    _check_blocks(elements, max(1, chunk // len(S)), blocks)


@given(st.sampled_from([("z2", None), ("heis", None), ("bs", 2), ("bs", -3),
                        ("bs", 6), ("zwrz", None), ("metab", None)]),
       st.integers(1, 3), st.integers(1, 9), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_array_index_matches_mul_on_subsets(fm, radius, rows, rnd):
    family, m = fm
    S = gr.ball(family, radius, m=m)
    _check_index(rnd.sample(S, rnd.randint(1, len(S))), rows)


def _free(*letters):
    return gr.FreeWord(gr.genword(letters))


# a word of 14 letters has products of 28, whose base-5 keys pass int64;
# past 27 letters the words' own keys do
LONG_METAB = sorted({_free(("a", e)) for e in range(-28, 29)}
                    | {_free(("b", 1), ("a", -2))}, key=gr.sort_key)


@pytest.mark.parametrize("rows", [1, 3, 40])
def test_metab_words_past_int64_keys_take_object_ints(rows):
    """Past 13 letters the metab key columns are exact ints on the same
    code, and the index is the one ``mul`` gives; 13 letters fit int64."""
    assert ap._array_form(LONG_METAB).dtype is object
    assert _check_index(LONG_METAB, rows) >= len(LONG_METAB)
    fits = [x for x in LONG_METAB if x.word.length() <= 13]
    assert ap._array_form(fits).dtype is np.int64
    assert _check_index(fits, rows) >= len(fits)


def test_metab_index_of_the_empty_word():
    empty = [_free()]
    assert ap._array_form(empty).dtype is np.int64
    assert _check_index(empty, 1) == 1


B = 2**62
OBJECT_CASES = {
    "z2 near 2^62": [gr.Z2Elem(0, 0), gr.Z2Elem(B, 0), gr.Z2Elem(0, 1),
                     gr.Z2Elem(B, 1), gr.Z2Elem(-B, 0),
                     gr.Z2Elem(2 * B - 1, 0)],
    "heis central overflow": [
        gr.HeisElem(0, 0, 0), gr.HeisElem(2**31, 2**31, 0),
        gr.HeisElem(2**31, 0, 0), gr.HeisElem(0, 2**32, 5),
        gr.HeisElem(2**32, 2**32, -B)],
    "bs large den_exp": [
        gr.BSElem(2, 0, 0, 0), gr.BSElem(2, 1, 70, 0), gr.BSElem(2, 3, 70, 1),
        gr.BSElem(2, 1, 69, 0), gr.BSElem(2, 0, 0, 1), gr.BSElem(2, 0, 0, -1),
        gr.BSElem(2, 1, 0, 0)],
    "bs large pow, no value": [
        gr.BSElem(-3, 0, 0, 0), gr.BSElem(-3, 0, 0, 40),
        gr.BSElem(-3, 0, 0, -40), gr.BSElem(-3, 0, 0, 80)],
    "zwrz large coefficients": [
        gr.WreathElem((), 0), gr.WreathElem((), 1),
        gr.WreathElem(((0, B),), 0), gr.WreathElem(((1, B),), 0),
        gr.WreathElem(((0, 2 * B),), 0), gr.WreathElem(((0, -B), (1, B)), -1)],
    "zwrz far exponents": [
        gr.WreathElem((), 0), gr.WreathElem((), 2 * 10**30),
        gr.WreathElem(((-10**30, 1), (10**30, 1)), 0),
        gr.WreathElem(((10**30, 1),), 0), gr.WreathElem(((-10**30, 1),), 0),
        gr.WreathElem(((10**30, 1),), -2 * 10**30)],
}
INT64_CASES = {
    "z2 at the int64 edge": [gr.Z2Elem(0, 0), gr.Z2Elem(1, 0),
                             gr.Z2Elem(2**61 - 1, 0), gr.Z2Elem(2**61, 0),
                             gr.Z2Elem(-2**61, 0)],
    "zwrz sparse exponents": [
        gr.WreathElem((), 0), gr.WreathElem((), 10**6),
        gr.WreathElem(((-10**6, 1), (10**6, 1)), 0),
        gr.WreathElem(((10**6, 1),), 0), gr.WreathElem(((-10**6, 1),), 0),
        gr.WreathElem(((10**6, 1),), -2 * 10**6)],
}


@pytest.mark.parametrize("name,dtype", [*((k, object) for k in OBJECT_CASES),
                                        *((k, np.int64) for k in INT64_CASES)])
@pytest.mark.parametrize("rows", [1, 2, 16])
def test_array_index_dtype_follows_the_bound(name, dtype, rows):
    """Past the int64 bound the same code runs on object ints; below it,
    int64 holds every value exactly."""
    S = {**OBJECT_CASES, **INT64_CASES}[name]
    assert ap._array_form(sorted(S, key=gr.sort_key)).dtype is dtype
    assert _check_index(S, rows) >= len(S)  # the identity times each


def test_array_index_leaves_mixed_sets_to_mul():
    """A set that mixes families or bs parameters, or holds a non-element,
    is refused up front, when its array form is built, with the error
    ``mul`` raises on such a pair."""
    for S, error, match in [
            ([gr.BSElem(2, 0, 0, 0), gr.BSElem(3, 0, 0, 1)],
             ValueError, "parameter mismatch"),
            ([gr.Z2Elem(0, 0), gr.HeisElem(0, 0, 0)],
             ValueError, "family mismatch"),
            ([gr.Z2Elem(0, 0), (0, 0)], TypeError, "not a group element"),
            ([(0, 0)], TypeError, "not a group element")]:
        with pytest.raises(error, match=match):
            ap._array_form(S)


NO_MUL_CASES = {
    **{f"{family} r{radius} m={m}": (family, radius, m)
       for family, radius, m in INDEX_BALLS},
    "metab past int64 keys": LONG_METAB,
    **OBJECT_CASES,
    "empty": [],
}


@pytest.mark.parametrize("name", NO_MUL_CASES)
def test_product_index_calls_no_mul(monkeypatch, name):
    """Every set takes the array path: with ``mul`` broken once S is
    built, the index still completes, one block per row (none when S is
    empty)."""
    S = NO_MUL_CASES[name]
    if isinstance(S, tuple):
        S = gr.ball(*S[:2], m=S[2])
    elements = sorted(set(S), key=gr.sort_key)

    def broken(x, y):
        raise AssertionError("the product index called mul")
    monkeypatch.setattr(gr, "mul", broken)
    blocks = list(ap._product_index(ap._array_form(elements), 1))
    assert [top for top, _ in blocks] == list(range(len(elements)))


# ---------------------------------------------------------------------------
# every verify-grid row, two seeds
# ---------------------------------------------------------------------------

@cache
def _workloads():
    """The benchmark's workload module, loaded from its file."""
    name = "_perfbench_workloads"
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _report_digest(rep) -> str:
    text = json.dumps(ser.verify_report_to_obj(rep), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each serialized report, by seed and op label
VERIFY_GRID_DIGESTS = {
    1: {
        "wide:z2:n10000:r4":
            "b011014591e57ef73b4b925433ec9623e08db5976d6967652843275453736bc3",
        "wide:z2:n20000:r4":
            "6c4a6deac7f7c963d80a19745be6e13444f048c1be449eb3c616afc56e11be2b",
        "wide:z2:n50000:r4":
            "e8bd175cefd1a755a98180196fdbaf1354c7ae7084f3a42ff87e6dc60d490190",
        "wide:z2:n100000:r4":
            "0ea0729353d902c92e119124592d89598c8b1ccc15d4d0e0dffd04b8c6fb4839",
        "wide:z2:n200000:r2":
            "dce9e9994293b58db7dc38008d055f500cc9bafb8a204de12e1f604b65c7a791",
        "wide:z2:n500000:r2":
            "5524ceb3b6d77d67b93d3daec32e099740166c50de2a08cd573b753735e6fbe3",
        "wide:z2:n1000000:r2":
            "cbc7856e5395cd7ea19fed4f124ef166ef1282194067380c6df171918a9b02ab",
        "wide:heis:n101:r3":
            "2655442b8e801199b6d1ff4a92a0d54230b510f3143364ed677b225c0674f050",
        "wide:heis:n149:r3":
            "696bfecc42135563c842a8fd5d0fc0c39cb0299d6669141cd7d6df40bfa2ff3c",
        "wide:heis:n211:r3":
            "751d438884df5ebdf9a573fc7c5d7054e6dd689eff61c7e2a9c3c000fa3f17a7",
        "wide:bs:n10000:r3":
            "310eeba673ef821680c29427337ebe819c501dfe31171501972ef79517636d78",
        "wide:bs:n20000:r3":
            "f1f19d523f7f0237297aae301d0c27b3e1fe31506356a8b24276ba6b5de4db03",
        "wide:bs:n50000:r3":
            "f3605e0b1d3c701d0cfa7e9217326f46ac08a9d4fdcfe5c821af061294031bfd",
        "wide:zwrz:n10000:r3":
            "e6ea8acd46ddbe59d09951c69ec40559a745442f238bfe9088250ca1ff3b816e",
        "wide:zwrz:n20000:r3":
            "9b5b7e16ed94b64290c3419eec714f02ab80760b29697ecc11ac893bb44839b3",
        "wide:zwrz:n50000:r3":
            "64ea8dab466c64083897d9a5042e38d27fcf0141fba7052bc1b83ee6825f971c",
        "wide:metab:n10000:r3":
            "a7a0a06e6b24f35f2188a63d079aece46720b8177238bbb898abf81bc7ee8958",
        "wide:metab:n20000:r3":
            "ea6e82614d428990e0f0b9a3b96606d3e704075f3fec45cc8032e6efa5989047",
        "wide:metab:n50000:r3":
            "d7f063c604c8fcdedde9dda1d3d9e49c7cc7f40dc8bb5bfaa3dcd3a01d9f2c08",
        "deep:z2:n1009:r4":
            "0b103fe2a5d38fbf017bedf28f4852bf98b80c23211d5c2f8505cc64d109f392",
        "deep:z2:n1009:r5":
            "1387a1a1e2f234787a3881ec04055fd87a75897602f070298840786b90e66451",
        "deep:z2:n1009:r6":
            "ed1842fff1ddfa96806781bcde1c785cd3f4832e7eaeb09d9b4bb7d7518ea4ba",
        "deep:z2:n1009:r7":
            "25ae6ed045311dd9bd575094119af643a44a8f102bd491a2ac6a234804aa90ab",
        "deep:z2:n1009:r8":
            "23d42b0df878c6944e53771a56ede45dd0004ba7f82ae5b6dba90b15b5b3a3ba",
        "deep:z2:n1009:r9":
            "a65632727515cd71182771acf21f0df4e438ed3ddab9b4ec42730b53dafd3bd6",
        "deep:heis:n31:r2":
            "78a0e7bd62970f1c5a6980cde6e6a908e8936db3b872e546a88b603dfb0db51d",
        "deep:heis:n31:r3":
            "08ad6dc805891339459910ecfc357869f4e1e0f051cf297fdcd882a9bad87298",
        "deep:heis:n31:r4":
            "366b5fe5a3cd814728c9ceb00ad9b33fa904b730219c4859f1e048aff16b5f34",
        "deep:heis:n31:r5":
            "d2ca805d5bcb827f03eb5ca2e019bd7209e1a556001c7793212272cbe6056bad",
        "deep:bs:n1009:r2":
            "b81fa000e9c89dc89e8206e87a549013132bbe32b00ce52bf504019a01526bba",
        "deep:bs:n1009:r3":
            "78c2b8650ffaa20c7d6c7cc243a378799e7849ab14f26158bc0812b17762006e",
        "deep:bs:n1009:r4":
            "e1715fb59fbc75f308fd39482cd467106bac210958ae423ec816b4eca837fc5e",
        "deep:zwrz:n1009:r2":
            "ad41d4b93f18971e1f3d9c93e550054e5f411c1309f6c6fbef5766459c866563",
        "deep:zwrz:n1009:r3":
            "68520331a8c3ebde5a4c6165bfaffa7ba7fe7056abcc072fef8a56ee68d23ea5",
        "deep:zwrz:n1009:r4":
            "8c35fc63fadbcd9adc13f5e3f3172af49adb50183ac9d18cca809a2a8915b14a",
        "deep:metab:n1009:r2":
            "fd6721c414c6bdea7987769d61875652f5f03cf0f8c476a6018927ae1d136b4a",
        "deep:metab:n1009:r3":
            "65cc48b9faa58f42a50c64cf27175aaf1bb2245b8bbd0206992ea99f2492da4a",
        "deep:metab:n1009:r4":
            "300e366d015aa5e4ddb6e04edfcbe502fab2e70c30fe3392347e10e4fb445774",
        "amplify:z2:n100000:r2":
            "ede1e47cde6163c5c51ef0721f4c778b97dfebb8e6f7b91b1f9de0fbf0463d76",
        "amplify:z2:n500000:r2":
            "e43cc0a177c19853f13fc091063161084b3f1c9317e2c122fbceaee57fa77b5f",
    },
    2: {
        "wide:z2:n10000:r4":
            "997bf952863c2574fdc34ea7e76a84c0ded1ea9f385887b83c7503bfc4f02492",
        "wide:z2:n20000:r4":
            "7eac1a25699ed8ff3a70b520c16297b1c5858abd08c5e4e91683822da77e55e3",
        "wide:z2:n50000:r4":
            "4f2bdb8d9bdc4423edc8e46df7f10c8215ef56d03d362ecd848d42453a830f6e",
        "wide:z2:n100000:r4":
            "36e3e42a697bc0df4c1a6d1cafea9343632922359ccc8b92bd6fe31e35902334",
        "wide:z2:n200000:r2":
            "e3793f1d2a9f52ddc18c6ad60b39cb6dcfa8e9789877d156570a9566a24b3599",
        "wide:z2:n500000:r2":
            "97e5bbd5d65a5bc803861f4ac2e250c5fbf6d2e889d552c8498531fb902fe106",
        "wide:z2:n1000000:r2":
            "c80b8b62308f78f63452a3257e5e1af918622d2638cd7e4dd91c4cac003ee127",
        "wide:heis:n101:r3":
            "2655442b8e801199b6d1ff4a92a0d54230b510f3143364ed677b225c0674f050",
        "wide:heis:n149:r3":
            "696bfecc42135563c842a8fd5d0fc0c39cb0299d6669141cd7d6df40bfa2ff3c",
        "wide:heis:n211:r3":
            "751d438884df5ebdf9a573fc7c5d7054e6dd689eff61c7e2a9c3c000fa3f17a7",
        "wide:bs:n10000:r3":
            "b4ff3bd0217acb839bc762d7c10709fd376f17a3322589739d92762c7c0657f1",
        "wide:bs:n20000:r3":
            "303eb83f0891fcdb1d3878234241c533684d00bba83695e82a6f2da0a8957ea5",
        "wide:bs:n50000:r3":
            "95b1b2eb36569a4ec9562f6d454491853475a604678214d4c7904f521026e374",
        "wide:zwrz:n10000:r3":
            "8146358f8fd94b017fc8d3ba115d30995e64713ee4e52e5bc15735f8da3b3f3f",
        "wide:zwrz:n20000:r3":
            "5f38281593ad00e30a0ee2ebe1e959ff9f442728a7392c66d3387047206f8437",
        "wide:zwrz:n50000:r3":
            "68b1db433d78ebcc0a68bb92695d22140a0780c2af19ea6d2818f5c4eb4f19d7",
        "wide:metab:n10000:r3":
            "e97579327717d97ea7e448dee8f8813cdb37658b142a69d931e85dc01bb282a0",
        "wide:metab:n20000:r3":
            "d342b0ac9521bcccb27d7708d95282e2ec7d6e8df220d709447eff9c7514aeab",
        "wide:metab:n50000:r3":
            "84baf35e6a97fde374da5cdacee83d81228091836fbfa11481fa280161640495",
        "deep:z2:n1009:r4":
            "7ff3a859223b8d68b08be60f4295f602ec5c6627a40b148302d6d6c3f1de2bf9",
        "deep:z2:n1009:r5":
            "07c05d22ff633cff6ecae1cf299c276eb795ff4591ae6e44eb2a91e2f548b0cc",
        "deep:z2:n1009:r6":
            "546ef4b4a05f1c71fbd331d9a6eab1fe58b98f6e593af966969d41ba3eb4836b",
        "deep:z2:n1009:r7":
            "7a8880f58d4f9b13dd8b259562a1f080cf36c8affaf4261133e712d76fe3f8a3",
        "deep:z2:n1009:r8":
            "86b37364d0805d7389acab737f49707e38c9272c4f463ed97ef64491d467d91a",
        "deep:z2:n1009:r9":
            "5027eb266b63421f5bba8507bcd9d159bf5fc642de94ac921dd7b8c02d54a982",
        "deep:heis:n31:r2":
            "78a0e7bd62970f1c5a6980cde6e6a908e8936db3b872e546a88b603dfb0db51d",
        "deep:heis:n31:r3":
            "08ad6dc805891339459910ecfc357869f4e1e0f051cf297fdcd882a9bad87298",
        "deep:heis:n31:r4":
            "366b5fe5a3cd814728c9ceb00ad9b33fa904b730219c4859f1e048aff16b5f34",
        "deep:heis:n31:r5":
            "d2ca805d5bcb827f03eb5ca2e019bd7209e1a556001c7793212272cbe6056bad",
        "deep:bs:n1009:r2":
            "a1c0df9274ca7bb1cd3fea5aacfca86d7309629410c81f3a45dd85cb8bcd59a5",
        "deep:bs:n1009:r3":
            "650f107a7089f1d08f6e740d41e804517943b0febf2e0bf85bbcf803a6813539",
        "deep:bs:n1009:r4":
            "639e64a15ca40aa196faefc535fe8cec3258c82515f5f6ae7edba5740d2738da",
        "deep:zwrz:n1009:r2":
            "ad41d4b93f18971e1f3d9c93e550054e5f411c1309f6c6fbef5766459c866563",
        "deep:zwrz:n1009:r3":
            "68520331a8c3ebde5a4c6165bfaffa7ba7fe7056abcc072fef8a56ee68d23ea5",
        "deep:zwrz:n1009:r4":
            "8c35fc63fadbcd9adc13f5e3f3172af49adb50183ac9d18cca809a2a8915b14a",
        "deep:metab:n1009:r2":
            "d934b9edf738d816cefff73e604783c883438c73eb84b5b7b2a290133a5c8b8e",
        "deep:metab:n1009:r3":
            "f29dfbf72cb27b7a0780100ee01ea49f5a28d1aa879617fd264312c28f71a700",
        "deep:metab:n1009:r4":
            "4ec09f90b945fad2bd129911e16c8fd15ad22be458bc0fe1a271de76a07ecf09",
        "amplify:z2:n100000:r2":
            "ede1e47cde6163c5c51ef0721f4c778b97dfebb8e6f7b91b1f9de0fbf0463d76",
        "amplify:z2:n500000:r2":
            "e43cc0a177c19853f13fc091063161084b3f1c9317e2c122fbceaee57fa77b5f",
    },
}


@pytest.mark.parametrize("seed", sorted(VERIFY_GRID_DIGESTS))
def test_verify_grid_reports_pinned(seed):
    got = {op.label: _report_digest(op.run()[1]) for op in _workloads().verify_grid(seed)}
    assert got == VERIFY_GRID_DIGESTS[seed]


# ---------------------------------------------------------------------------
# nonzero defects: the witness is the first worst pair in scan order
# ---------------------------------------------------------------------------

def _skew_images(monkeypatch, S, m, step):
    """Shift coefficient 1 of psi(g) by (i % 3) * step, mod n, for the i-th
    element g of S, so that psi is no homomorphism; psi(1) stays the
    identity.  The shift is made both in ``ap.image`` (which ``eval`` and
    the references read) and in the coefficient columns that the array
    form of S gives ``verify``."""
    skew = {g: (i % 3) * step
            for i, g in enumerate(sorted(S, key=gr.sort_key))}
    skew[gr.identity(gr.family_of(S[0]), m=m)] = 0
    true_image, true_form = ap.image, ap._array_form

    def skewed(spec, x):
        f = true_image(spec, x)
        coeffs = list(f.coeffs)
        coeffs[1] = (coeffs[1] + skew.get(x, 0)) % f.n
        return ap.AffineImage(f.n, tuple(coeffs), f.npoints)

    def skewed_form(elements):
        form = true_form(elements)
        shift = np.array([skew.get(x, 0) for x in elements], dtype=object)

        def images(spec, dtype):
            columns = form.images(spec, dtype)
            columns[1] = ((columns[1] + shift) % spec.n).astype(dtype)
            return columns
        return form._replace(images=images)

    monkeypatch.setattr(ap, "image", skewed)
    monkeypatch.setattr(ap, "_array_form", skewed_form)


SKEW_CASES = [
    ("z2", 10, dict(p=2, q=3), 3, None),
    ("heis", 4, {}, 2, None),
    ("bs", 7, dict(m=2), 3, None),
    ("zwrz", 8, dict(m=3), 2, 19),
    ("metab", 7, dict(p=2, q=3), 2, None),
]


@pytest.mark.parametrize("family,n,params,radius,amplify_to", SKEW_CASES)
@pytest.mark.parametrize("chunk", [1, 7, 1 << 11, ap._PAIR_CHUNK, 1 << 20])
def test_skewed_images_match_table_reference(monkeypatch, family, n, params,
                                             radius, amplify_to, chunk):
    """Shift one coefficient of some images so that psi is no homomorphism;
    the batched verifier, in blocks of any size, must still report what the
    table-based reference reports, witness included.  ``eval`` reads the
    same skewed images, so the reference sees them too."""
    from test_affine_image import reference_verify

    spec = ap.make_approx(family, n, **params)
    if amplify_to is not None:
        spec = ap.amplify_spec(spec, amplify_to)
    S = gr.ball(family, radius, m=params.get("m"))
    _skew_images(monkeypatch, S, params.get("m"), 1)
    monkeypatch.setattr(ap, "_PAIR_CHUNK", chunk)
    for delta in ("1/10", 1):
        got = ap.verify(spec, S, delta)
        assert got == reference_verify(spec, S, delta)
        assert got.worst_hom_defect > 0 and got.hom_witness is not None


# ---------------------------------------------------------------------------
# the closed-form defect on int64 while n^2 + 2n and npoints fit
# ---------------------------------------------------------------------------

def scalar_verify(spec, S, delta):
    """The report ``verify`` gives, from one ``AffineImage.compose`` and
    ``agree_count`` per pair, in Python ints."""
    delta = ser.to_fraction(delta)
    elements = sorted(set(S), key=gr.sort_key)
    images = {g: ap.image(spec, g) for g in elements}
    npoints = spec.npoints

    worst, hom_witness, pairs = 0, None, 0
    for g, h in itertools.product(elements, elements):
        gh = gr.mul(g, h)
        if gh not in images:
            continue
        pairs += 1
        d = npoints - images[g].compose(images[h]).agree_count(images[gh])
        if d > worst:
            worst, hom_witness = d, (g, h)

    one = gr.identity(spec.family, m=spec.m)  # the one trivial metab word
    ident = ap.image(spec, one)
    closeness, id_witness = None, None
    for g in elements:
        if g == one:
            continue
        d = npoints - images[g].agree_count(ident)
        if closeness is None or d < closeness:
            closeness, id_witness = d, g

    worst = Fraction(worst, npoints)
    if closeness is not None:
        closeness = Fraction(closeness, npoints)
    passed = worst < delta and (closeness is None or closeness > 1 - delta)
    return ap.VerifyReport(spec.family, npoints, delta, worst, hom_witness,
                           closeness, id_witness, passed, len(elements), pairs)


def test_verify_on_metab_words_past_int64_keys(monkeypatch):
    """Words past 13 letters put the metab index on object keys; with
    images skewed so that defects and witnesses show, the report is the
    scalar one byte for byte."""
    S = tuple(sorted(set(gr.ball("metab", 3)) | set(LONG_METAB),
                     key=gr.sort_key))
    assert ap._array_form(S).dtype is object
    _skew_images(monkeypatch, S, None, 7)
    spec = ap.make_approx("metab", 1009, p=2, q=3)
    want = scalar_verify(spec, S, "1/10")
    got = ap.verify(spec, S, "1/10")
    assert got == want
    assert _report_digest(got) == _report_digest(want)
    assert got.worst_hom_defect > 0 and got.id_witness is not None


N_INT64 = 3037000498  # the largest n with n^2 + 2n <= 2^63 - 1
# (family, n, params, radius, amplified degree or None, coefficient dtype)
DEFECT_DTYPE_CASES = [
    ("z2", N_INT64, dict(p=10**9 + 7, q=-(2**31 + 11)), 3, None, np.int64),
    ("z2", N_INT64 + 1, dict(p=10**9 + 7, q=-(2**31 + 11)), 3, None, object),
    ("heis", N_INT64, {}, 2, None, np.int64),
    ("heis", N_INT64 + 1, {}, 2, None, object),
    ("bs", N_INT64, dict(m=3), 2, None, np.int64),
    ("bs", N_INT64 + 1, dict(m=3), 2, None, object),
    ("z2", 101, dict(p=2, q=3), 3, 2**63 - 1, np.int64),
    ("z2", 101, dict(p=2, q=3), 3, 2**63, object),
]


@pytest.mark.parametrize(
    "family,n,params,radius,amplify_to,dtype", DEFECT_DTYPE_CASES)
def test_defect_dtype_follows_the_bound(monkeypatch, family, n, params,
                                        radius, amplify_to, dtype):
    """Coefficient columns are int64 while n^2 + 2n and npoints fit, exact
    ints past that; on both sides the report, with images skewed so that
    defects and witnesses show, is the scalar one byte for byte."""
    assert (N_INT64 + 1)**2 - 1 <= 2**63 - 1 < (N_INT64 + 2)**2 - 1
    spec = ap.make_approx(family, n, **params)
    if amplify_to is not None:
        spec = ap.amplify_spec(spec, amplify_to)
    S = gr.ball(family, radius, m=params.get("m"))
    _skew_images(monkeypatch, S, params.get("m"), n // 3 + 1)
    seen = set()
    compose, agree = ap._compose_coeffs, ap._count_agreements

    def compose_spy(n, first, second):
        seen.add(first[0].dtype)
        return compose(n, first, second)

    def agree_spy(n, npoints, first, second):
        seen.add(first[0].dtype)
        return agree(n, npoints, first, second)

    want = scalar_verify(spec, S, "1/10")
    # the scalar reference calls the same helpers, so spy only after it
    monkeypatch.setattr(ap, "_compose_coeffs", compose_spy)
    monkeypatch.setattr(ap, "_count_agreements", agree_spy)
    got = ap.verify(spec, S, "1/10")
    assert got == want
    assert _report_digest(got) == _report_digest(want)
    assert got.worst_hom_defect > 0 and got.id_witness is not None
    assert seen == {np.dtype(dtype)}


# ---------------------------------------------------------------------------
# the coefficient columns: image() in arrays, and image()'s refusals
# ---------------------------------------------------------------------------

COLUMN_PARAMS = [("z2", dict(p=10**9 + 7, q=-(2**31 + 11))), ("heis", {}),
                 ("bs", dict(m=2)), ("bs", dict(m=-3)), ("bs", dict(m=6)),
                 ("zwrz", dict(m=3)), ("metab", dict(p=3, q=5))]
# (family, n, params, S or a ball radius, spec kind, coefficient dtype)
COLUMN_CASES = [
    *((family, n, params, 3, "plain", object if n > N_INT64 else np.int64)
      for family, params in COLUMN_PARAMS
      for n in (31 if family == "heis" else 1009, N_INT64, N_INT64 + 1)
      if math.gcd(params.get("m", 1), n) == 1),
    ("metab", 1009, dict(p=2, q=3), LONG_METAB, "plain", np.int64),
    ("metab", N_INT64 + 1, dict(p=2, q=3), LONG_METAB, "plain", object),
    ("z2", 1009, dict(p=2, q=3), OBJECT_CASES["z2 near 2^62"], "plain",
     np.int64),
    ("bs", 1009, dict(m=2), OBJECT_CASES["bs large den_exp"], "plain",
     np.int64),
    ("zwrz", 1009, dict(m=3), OBJECT_CASES["zwrz far exponents"], "plain",
     np.int64),
    ("z2", 101, dict(p=2, q=3), 3, "amplified", object),
    ("metab", 11, dict(p=2, q=3), 3, "conjugated", np.int64),
    # the empty word alone, with no letter to fold, and 4373 words
    ("metab", 1009, dict(p=2, q=3), 0, "plain", np.int64),
    ("metab", 1009, dict(p=2, q=3), 7, "plain", np.int64),
]


@pytest.mark.parametrize("family,n,params,S,kind,dtype", COLUMN_CASES)
def test_columns_equal_the_scalar_image(family, n, params, S, kind, dtype):
    """The coefficient columns ``verify`` reads, built in arrays from the
    array form, equal ``image(spec, g).coeffs`` for every element g, int64
    while n^2 + 2n and npoints fit and exact ints past that."""
    spec = ap.make_approx(family, n, **params)
    if kind == "amplified":
        spec = ap.amplify_spec(spec, 2**63)
    elif kind == "conjugated":
        sigma = np.random.default_rng(0).permutation(spec.npoints)
        spec = ap.conjugate_spec(spec, pm.Perm(sigma))
    if isinstance(S, int):
        S = gr.ball(family, S, m=params.get("m"))
    elements = sorted(set(S), key=gr.sort_key)
    columns = ap._array_form(elements).images(spec, dtype)
    assert [c.dtype for c in columns] == [np.dtype(dtype)] * len(columns)
    assert list(zip(*(c.tolist() for c in columns))) == \
        [ap.image(spec, g).coeffs for g in elements]


@pytest.mark.parametrize("spec,ball,message", [
    (("z2", 11, dict(p=2, q=3)), ("heis", 2, None),
     "family mismatch: element is heis, spec is z2"),
    (("bs", 1009, dict(m=2)), ("bs", 2, 3),
     "parameter mismatch: m=3 vs spec m=2"),
])
def test_verify_refuses_a_set_of_another_family_or_m(monkeypatch, spec, ball,
                                                      message):
    """A set of another family than the spec, or a bs set of another m, is
    refused with the error ``image`` raises, before any block is built."""
    def no_blocks(*args):
        raise AssertionError("verify built the product index")
    monkeypatch.setattr(ap, "_product_index", no_blocks)
    family, n, params = spec
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ap.verify(ap.make_approx(family, n, **params),
                  gr.ball(ball[0], ball[1], m=ball[2]), "1/10")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ap.image(ap.make_approx(family, n, **params),
                 gr.ball(ball[0], ball[1], m=ball[2])[0])


@pytest.mark.parametrize("family", gr.FAMILIES)
def test_verify_calls_image_once_for_the_identity(monkeypatch, family):
    """``verify`` reads its images from the array form: ``image`` is called
    once, for the identity pass, and not at all on the empty set; the report
    is the scalar one."""
    params = {**SPEC_PARAMS, "bs": dict(m=2)}[family]
    spec = ap.make_approx(family, 31 if family == "heis" else 1009, **params)
    S = gr.ball(family, 3, m=params.get("m"))
    want = scalar_verify(spec, S, "1/10")
    calls, true_image = [], ap.image

    def counted(spec, x):
        calls.append(x)
        return true_image(spec, x)
    monkeypatch.setattr(ap, "image", counted)
    assert ap.verify(spec, S, "1/10") == want
    assert calls == [gr.identity(family, m=params.get("m"))]
    calls.clear()
    assert ap.verify(spec, [], "1/10").elements_checked == 0
    assert calls == []


# ---------------------------------------------------------------------------
# the metab image of a long letter
# ---------------------------------------------------------------------------

def _fold_letters(spec, w):
    """The letter-by-letter fold: compose one generator map |exp| times."""
    n = spec.n
    qinv, pinv = pow(spec.q, -1, n), pow(spec.p, -1, n)
    maps = {("a", 1): (qinv, qinv), ("a", -1): (spec.q % n, -1 % n),
            ("b", 1): (pinv, 0), ("b", -1): (spec.p % n, 0)}
    acc = ap.AffineImage(n, (1 % n, 0), spec.npoints)
    for gen, exp in w.letters:
        step = ap.AffineImage(n, maps[(gen, 1 if exp > 0 else -1)],
                              spec.npoints)
        for _ in range(abs(exp)):
            acc = acc.compose(step)
    return acc


@pytest.mark.parametrize("n,p,q", [(1, 2, 3), (7, 2, 3), (1009, 3, 2),
                                   (10**12 + 39, 5, 3)])
def test_metab_image_matches_letter_fold(n, p, q):
    spec = ap.make_approx("metab", n, p=p, q=q)
    for a in range(-50, 51):
        for b in (-50, -7, -1, 0, 1, 2, 50):
            w = gr.genword([("a", a), ("b", b), ("a", -a // 3)])
            assert ap.image(spec, w) == _fold_letters(spec, w)


def _matrix_power(mat, e, n):
    """mat^e mod n for the 2x2 matrix of x -> u x + v, by repeated squaring
    on plain tuples."""
    def mul2(x, y):
        return ((x[0] * y[0]) % n, (x[0] * y[1] + x[1]) % n)
    acc, base = (1 % n, 0), mat
    while e:
        if e & 1:
            acc = mul2(acc, base)
        base = mul2(base, base)
        e >>= 1
    return acc


def test_metab_image_of_a_million_letter_power_is_fast():
    n, p, q = 1009, 2, 3
    spec = ap.make_approx("metab", n, p=p, q=q)
    w = gr.genword([("a", 10**6), ("b", -10**6)])
    t0 = time.perf_counter()
    got = ap.image(spec, w)
    assert time.perf_counter() - t0 < 0.1
    qinv = pow(q, -1, n)
    a_part = _matrix_power((qinv, qinv), 10**6, n)
    b_part = _matrix_power((p % n, 0), 10**6, n)
    u, v = (a_part[0] * b_part[0]) % n, (a_part[0] * b_part[1] + a_part[1]) % n
    assert got == ap.AffineImage(n, (u, v), n)

"""The search kernels against the full-rescoring code they replaced.

``align_reference`` and ``climb_reference`` are the kernels as they were
before ``align`` scored a step's whole swap neighbourhood at once and
``_climb`` inlined its transposition.  They are kept verbatim as oracles: the
current code must draw the same random numbers, break ties the same way and
so return the same tau, distances, iteration counts, f and scores.  The
digests pin whole serialized reports; they were recorded with the reference
kernels in place and hold unchanged for both.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np
import pytest

from soficperm import approx as approxmod
from soficperm import conjsearch as cj
from soficperm import groups
from soficperm import perm as permmod
from soficperm import serialize as ser
from soficperm.approx import ApproxSpec
from soficperm.conjsearch import AlignmentReport, ConjProblem
from soficperm.groups import GroupElem
from soficperm.perm import Perm


# ---------------------------------------------------------------------------
# the reference kernels, verbatim
# ---------------------------------------------------------------------------

def climb_reference(prob: ConjProblem, f_list: list[int], iters: int,
                    rng: random.Random) -> tuple[list[int], int]:
    """In-place hill climb; returns (f, score).  Moves are conjugations by a
    transposition, evaluated incrementally on the <= 8 affected points."""
    n = prob.n
    alpha = prob.alpha.images.tolist()
    beta = prob.beta.images.tolist()
    ainv = [0] * n
    for x, y in enumerate(alpha):
        ainv[y] = x
    f = f_list
    finv = [0] * n
    for x, y in enumerate(f):
        finv[y] = x
    score = sum(1 for x in range(n) if f[alpha[x]] == beta[f[x]])

    for _ in range(iters):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue

        def tau(y: int) -> int:
            return j if y == i else i if y == j else y

        changed = {y for y in (i, j, finv[i], finv[j]) if tau(f[tau(y)]) != f[y]}
        if not changed:
            continue
        affected = changed | {ainv[d] for d in changed}
        old = sum(1 for x in affected if f[alpha[x]] == beta[f[x]])
        new = sum(
            1 for x in affected if tau(f[tau(alpha[x])]) == beta[tau(f[tau(x)])]
        )
        delta = new - old
        if delta > 0 or (delta == 0 and rng.random() < 0.25):
            updates = [(y, tau(f[tau(y)])) for y in changed]
            for y, v in updates:
                f[y] = v
            for y, v in updates:
                finv[v] = y
            score += delta
    return f, score


def _align_counts(tau_images, tau_inv, rho1_list, rho2_list, n):
    """(max, total) disagreement counts of tau^-1 rho1 tau vs rho2 over S."""
    worst = 0
    total = 0
    for r1, r2 in zip(rho1_list, rho2_list):
        c = int(np.count_nonzero(tau_inv[r1[tau_images]] != r2))
        worst = max(worst, c)
        total += c
    return worst, total


def align_reference(
    spec1: ApproxSpec,
    spec2: ApproxSpec,
    S: Iterable[GroupElem],
    seed: int = 0,
    iters: Optional[int] = None,
    restarts: int = 8,
) -> AlignmentReport:
    """Steepest-descent search for tau minimizing the worst distance
    d(tau^-1 rho1(s) tau, rho2(s)) over s in S (total distance breaks ties).

    Best-effort only: the search stops at local optima; restarts beyond the
    identity start use seeded random tau.  Reported distances are exact.
    """
    if spec1.npoints != spec2.npoints:
        raise ValueError("degree mismatch between the two specs")
    if spec1.family != spec2.family:
        raise ValueError("family mismatch between the two specs")
    n = spec1.npoints
    elements = sorted(set(S), key=groups.sort_key)
    rho1 = [approxmod.eval(spec1, s).images for s in elements]
    rho2 = [approxmod.eval(spec2, s).images for s in elements]
    if iters is None:
        iters = 50 * n

    best: Optional[tuple[tuple[int, int], tuple[int, ...]]] = None
    steps_total = 0
    for r in range(restarts):
        if r == 0:
            tau = np.arange(n, dtype=np.int64)
        else:
            rng = random.Random((seed << 32) + r)
            lst = list(range(n))
            rng.shuffle(lst)
            tau = np.asarray(lst, dtype=np.int64)
        tau_inv = np.argsort(tau)
        obj = _align_counts(tau, tau_inv, rho1, rho2, n)
        for _ in range(iters):
            steps_total += 1
            improved = None
            for i in range(n - 1):
                for j in range(i + 1, n):
                    cand = tau.copy()
                    cand[i], cand[j] = cand[j], cand[i]
                    cand_inv = np.argsort(cand)
                    cobj = _align_counts(cand, cand_inv, rho1, rho2, n)
                    if cobj < obj and (improved is None or cobj < improved[0]):
                        improved = (cobj, cand, cand_inv)
            if improved is None:
                break
            obj, tau, tau_inv = improved
        key = (obj, tuple(int(v) for v in tau))
        if best is None or key < best:
            best = key

    tau = Perm(np.asarray(best[1], dtype=np.int64), _trusted=True)
    tau_inv = permmod.inverse(tau)
    per_element = []
    worst = Fraction(0)
    for s, r1, r2 in zip(elements, rho1, rho2):
        conj = permmod.compose(permmod.compose(tau_inv, Perm(r1, _trusted=True)), tau)
        d = permmod.hamming(conj, Perm(r2, _trusted=True))
        per_element.append((s, d))
        worst = max(worst, d)
    return AlignmentReport(
        tau=tau,
        per_element=tuple(per_element),
        max_distance=worst,
        iterations=steps_total,
    )


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

def _coprime_pair(n: int, rng: random.Random) -> tuple[int, int]:
    """p a unit mod n and q != p, drawn as the search-suite draws them."""
    p = rng.choice([u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1])
    q = rng.choice([v for v in range(1, max(n, 3)) if v != p])
    return p, q


def _params(family: str, n: int) -> dict:
    """The smallest admissible parameters of a family on Z/n."""
    p, q = [u for u in range(2, 20) if math.gcd(u, n) == 1][:2]
    return {"z2": {"p": 1, "q": p}, "bs": {"m": p}, "zwrz": {"m": p},
            "metab": {"p": p, "q": q}}[family]


def _relabel(spec: ApproxSpec, rng: random.Random) -> ApproxSpec:
    sigma = list(range(spec.npoints))
    rng.shuffle(sigma)
    return approxmod.conjugate_spec(spec, Perm(np.asarray(sigma)))


def align_pair(kind: str, n: int, seed: int) -> tuple[ApproxSpec, ApproxSpec]:
    """Two specs on n points: ``swap`` exchanges p and q of a z2 spec,
    ``conj`` relabels one with a seeded sigma, ``bs``/``metab`` relabel a
    spec of that family."""
    rng = random.Random(f"{kind}:{n}:{seed}")
    if kind in ("swap", "conj"):
        p, q = _coprime_pair(n, rng)
        spec = approxmod.make_approx("z2", n, p=p, q=q)
        if kind == "swap":
            return spec, approxmod.make_approx("z2", n, p=q, q=p)
        return spec, _relabel(spec, rng)
    spec = approxmod.make_approx(kind, n, **_params(kind, n))
    return spec, _relabel(spec, rng)


def align_ball(spec: ApproxSpec, radius: int):
    return groups.ball(spec.family, radius, m=spec.m)


def climb_problem(kind: str, n: int, k: int) -> ConjProblem:
    if kind == "trans":
        return cj.translation_problem(n, 1, 7 % n, k)
    if kind == "mult":
        u = next((u for u in range(2, n) if math.gcd(u, n) == 1), 1)
        return cj.multiplication_problem(n, u, k)
    return cj.problem_from_spec(
        approxmod.make_approx(kind, n, **_params(kind, n)), k)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _search_key(rep: cj.SearchReport):
    return (rep.f.tolist(), rep.agreement_count, rep.agreement_fraction,
            rep.iterations, rep.order_of_f)


def _align_key(rep: AlignmentReport):
    return (rep.tau.tolist(), rep.per_element, rep.max_distance,
            rep.iterations)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

ALIGN_CASES = [
    (kind, n, radius)
    for kind in ("swap", "conj", "bs", "metab")
    for n in (1, 2, 3, 24, 48)
    for radius in (1, 2)
]
# small n runs every restart to its local optimum; larger n a few steps each
ALIGN_BUDGET = {1: None, 2: None, 3: None, 24: 4, 48: 2}


@pytest.mark.parametrize("kind,n,radius", ALIGN_CASES,
                         ids=[f"{k}-n{n}-r{r}" for k, n, r in ALIGN_CASES])
def test_align_matches_full_rescoring(kind, n, radius):
    spec1, spec2 = align_pair(kind, n, seed=1)
    S = align_ball(spec1, radius)
    kwargs = {"seed": 1, "iters": ALIGN_BUDGET[n], "restarts": 3}
    new = cj.align(spec1, spec2, S, **kwargs)
    old = align_reference(spec1, spec2, S, **kwargs)
    assert _align_key(new) == _align_key(old)


CLIMB_CASES = [
    (kind, n, k, seed)
    for kind in ("trans", "mult", "z2", "bs", "metab", "zwrz")
    for n in (1, 2, 3, 24, 48)
    for k in (2, 3, 4, 6)
    for seed in (1,)
] + [
    # _climb draws i and j by getrandbits(n.bit_length()), drawn again at
    # or above n; the reference calls randrange.  n = 64 and 65 redraw about
    # half their draws, n = 600 about 41 %
    (kind, n, k, 1)
    for kind in ("trans", "mult", "z2", "bs", "metab", "zwrz")
    for n in (64, 65, 600) if n < 600 or kind in ("trans", "mult")
    for k in (2, 4)
]
# iterations per restart where 40 * n would cost the module seconds
CLIMB_ITERS = {600: 3000}


@pytest.mark.parametrize("kind,n,k,seed", CLIMB_CASES,
                         ids=[f"{c}-n{n}-k{k}" for c, n, k, _ in CLIMB_CASES])
def test_climb_matches_reference(monkeypatch, kind, n, k, seed):
    prob = climb_problem(kind, n, k)
    iters = CLIMB_ITERS.get(n, 40 * n)
    new = cj.local_search(prob, seed=seed, iters=iters, restarts=4)
    monkeypatch.setattr(cj, "_climb", climb_reference)
    old = cj.local_search(prob, seed=seed, iters=iters, restarts=4)
    assert _search_key(new) == _search_key(old)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_climb_matches_reference_from_any_start(k):
    # every restart's own (f, score), not only the winner, from sampled starts
    prob = climb_problem("bs", 40, k)
    for r in range(6):
        start = permmod._sample_order_k_rng(40, k, random.Random(r))
        got = cj._climb(prob, start.images.tolist(), 3000, random.Random(r))
        want = climb_reference(prob, start.images.tolist(), 3000,
                               random.Random(r))
        assert got == want


# ---------------------------------------------------------------------------
# the climb's scan-ahead: the same draws, f, score and generator state
# ---------------------------------------------------------------------------

# _SCAN_AFTER values: scan from the first iteration, as shipped, never
TRIGGERS = {"always": 0, "default": cj._SCAN_AFTER, "never": math.inf}


def _reference_climb(prob, start, iters, seed):
    rng = random.Random(seed)
    f, score = climb_reference(prob, list(start), iters, rng)
    return f, score, rng.getstate()


def _scanned_climb(monkeypatch, prob, start, iters, seed, scan_after,
                   blocks=None):
    """_climb's (f, score, generator state), and per scan the generator
    state it started from, the proposals it skipped and its budget."""
    scans = []
    scan = cj._scan_ahead

    def recorded(tables, rng, width, budget):
        state = rng.getstate()
        skipped = scan(tables, rng, width, budget)
        scans.append((state, skipped, budget))
        return skipped

    with monkeypatch.context() as patch:
        patch.setattr(cj, "_scan_ahead", recorded)
        patch.setattr(cj, "_SCAN_AFTER", scan_after)
        if blocks is not None:
            patch.setattr(cj, "_SCAN_BLOCKS", blocks)
        rng = random.Random(seed)
        f, score = cj._climb(prob, list(start), iters, rng)
    return (f, score, rng.getstate()), scans


def _climb_three_ways(monkeypatch, prob, start, iters, seed):
    """Each trigger against the reference; returns the scans per trigger."""
    want = _reference_climb(prob, start, iters, seed)
    scans = {}
    for name, scan_after in TRIGGERS.items():
        got, scans[name] = _scanned_climb(monkeypatch, prob, start, iters,
                                          seed, scan_after)
        assert got == want, name
    # a zero trigger scans before the first iteration, an infinite one never
    assert len(scans["always"]) >= (iters > 0)
    assert scans["never"] == []
    return scans


def _start(prob, how, seed=0):
    if how == "exact":
        return cj._multiplicative_start(prob).images.tolist()
    if how == "greedy":
        return cj._greedy_chain_start(prob).images.tolist()
    return permmod._sample_order_k_rng(prob.n, prob.k,
                                       random.Random(seed)).images.tolist()


@pytest.mark.parametrize("n", [100, 400, 800])
def test_scan_skips_an_exact_start(monkeypatch, n):
    # 7^4 = 1 mod n: x -> 7x is exact, and every proposal loses score
    prob = cj.translation_problem(n, 1, 7, 4)
    start = _start(prob, "exact")
    assert _reference_climb(prob, start, 10 * n, 1)[:2] == (start, n)
    scans = _climb_three_ways(monkeypatch, prob, start, 10 * n, seed=1)
    # the default trigger fires once, and that scan runs out the budget
    [(_, skipped, budget)] = scans["default"]
    assert skipped == budget


def test_scan_stays_off_an_empty_dominated_climb(monkeypatch):
    # the search-suite's local:mult:n80:u3, restart 1: most proposals leave
    # f as it is, which the scalar loop settles as fast as a scan would
    prob = cj.multiplication_problem(80, 3, 4)
    scans = _climb_three_ways(monkeypatch, prob, _start(prob, "greedy"),
                              100 * 80, seed=(1 << 32) + 1)
    assert scans["default"] == []


def test_scan_stays_off_an_obstructed_translation(monkeypatch):
    # n = 1000 does not divide 7^4 - 1: about every third proposal is an
    # event, so no run of lost proposals grows long enough to scan
    prob = cj.translation_problem(1000, 1, 7, 4)
    scans = _climb_three_ways(monkeypatch, prob, _start(prob, "exact"),
                              3000, seed=1 << 32)
    assert scans["default"] == []


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_scan_from_sampled_starts(monkeypatch, k):
    prob = climb_problem("bs", 40, k)
    for r in range(3):
        _climb_three_ways(monkeypatch, prob, _start(prob, "sampled", r),
                          3000, seed=r)


@pytest.mark.parametrize("kind", ["trans", "mult", "z2"])
@pytest.mark.parametrize("n", [1, 2, 64, 65])
def test_scan_at_the_edge_sizes(monkeypatch, kind, n):
    # n = 1 and 2 never leave f; n = 64 and 65 draw 7 bits and redraw about
    # half of their words
    prob = climb_problem(kind, n, 4)
    for how, seed in (("greedy", 1), ("sampled", 2)):
        _climb_three_ways(monkeypatch, prob, _start(prob, how, seed),
                          40 * n, seed=seed)


def _block_pairs(state, n, blocks):
    """How many proposals are complete at the end of each of the first 64
    blocks of a scan that starts from generator state ``state``."""
    rng = random.Random()
    rng.setstate(state)
    width = n.bit_length()
    block, largest = blocks
    valid = 0
    ends = []
    for _ in range(64):
        word = rng.getrandbits(32 * block)
        valid += sum((word >> (32 * w + 32 - width)) & ((1 << width) - 1) < n
                     for w in range(block))
        ends.append(valid // 2)
        block = min(2 * block, largest)
    return ends


@pytest.mark.parametrize("blocks", [(1, 1), (2, 3), (4, 4)])
def test_scan_events_that_open_a_block(monkeypatch, blocks):
    # blocks of a few words: events fall on the first proposal of a later
    # block, and draws left unpaired at a block's end carry into the next
    prob = climb_problem("bs", 40, 4)
    opened = 0
    for r in range(4):
        start = _start(prob, "sampled", r)
        want = _reference_climb(prob, start, 1500, r)
        got, scans = _scanned_climb(monkeypatch, prob, start, 1500, r, 0,
                                    blocks)
        assert got == want
        for state, skipped, budget in scans:
            if 0 < skipped < budget:
                opened += skipped in _block_pairs(state, prob.n, blocks)
    assert opened > 0


def test_scan_event_as_the_first_proposal(monkeypatch):
    # from a sampled start many proposals gain, so many scans stop at once
    prob = climb_problem("bs", 40, 4)
    start = _start(prob, "sampled", 5)
    want = _reference_climb(prob, start, 500, 5)
    got, scans = _scanned_climb(monkeypatch, prob, start, 500, 5, 0)
    assert got == want
    assert any(skipped == 0 for _, skipped, _ in scans)


@pytest.mark.parametrize("iters", [1, 2, 37, 64, 333, 1001])
def test_scan_budget_ends_inside_a_block(monkeypatch, iters):
    # an exact start has no event: the scan stops where the budget does,
    # in the first block (about 100 proposals at n = 100) or a later one
    prob = cj.translation_problem(100, 1, 7, 4)
    start = _start(prob, "exact")
    want = _reference_climb(prob, start, iters, 3)
    got, scans = _scanned_climb(monkeypatch, prob, start, iters, 3, 0)
    assert got == want
    assert [(skipped, budget) for _, skipped, budget in scans] == [
        (iters, iters)]


@pytest.mark.parametrize("words", [1, 2, 3, 64, 1000])
def test_getrandbits_words_are_little_endian(words):
    # the scan reads getrandbits(32 * words) as that many getrandbits(32)
    # draws, the first in the lowest bits, and a draw of width w <= 32 as
    # the top w bits of one word
    big, small, narrow = (random.Random(words) for _ in range(3))
    value = big.getrandbits(32 * words)
    drawn = [small.getrandbits(32) for _ in range(words)]
    assert [(value >> (32 * w)) & 0xFFFFFFFF for w in range(words)] == drawn
    assert big.getstate() == small.getstate()
    widths = [1 + (7 * w) % 32 for w in range(words)]
    assert [narrow.getrandbits(width) for width in widths] == [
        word >> (32 - width) for word, width in zip(drawn, widths)]


def _full_rescoring_best_swap(tau, rho1, rho2, obj):
    """The reference step: rescore every swap from scratch, keep the first
    strict minimum below obj."""
    n = len(tau)
    improved = None
    for i in range(n - 1):
        for j in range(i + 1, n):
            cand = tau.copy()
            cand[i], cand[j] = cand[j], cand[i]
            cobj = _align_counts(cand, np.argsort(cand), rho1, rho2, n)
            if cobj < obj and (improved is None or cobj < improved[0]):
                improved = (cobj, i, j)
    return improved


@pytest.mark.parametrize("kind,n,radius", [
    ("swap", 2, 1), ("conj", 3, 2), ("swap", 17, 1), ("conj", 24, 2),
    ("bs", 15, 1), ("metab", 21, 2)])
def test_predicted_objective_is_the_recomputed_one(kind, n, radius):
    spec1, spec2 = align_pair(kind, n, seed=3)
    S = sorted(set(align_ball(spec1, radius)), key=groups.sort_key)
    rho1 = [approxmod.eval(spec1, s).images for s in S]
    rho2 = [approxmod.eval(spec2, s).images for s in S]
    rng = random.Random(n)
    for _ in range(4):
        tau = np.asarray(rng.sample(range(n), n), dtype=np.int64)
        state, obj = cj._align_state(tau, rho1, rho2)
        assert obj == _align_counts(tau, np.argsort(tau), rho1, rho2, n)
        swap = cj._best_swap(state, obj, n)
        assert swap == _full_rescoring_best_swap(tau, rho1, rho2, obj)
        if swap is not None:
            predicted, i, j = swap
            tau[i], tau[j] = tau[j], tau[i]
            assert cj._align_state(tau, rho1, rho2)[1] == predicted


@pytest.mark.parametrize("chunk", [1, 5, 24, 1000])
def test_pair_blocks_follow_triu_order(monkeypatch, chunk):
    monkeypatch.setattr(cj, "_ALIGN_CHUNK", chunk)
    for n in (1, 2, 3, 7, 24, 50):
        blocks = list(cj._swap_pairs(n))
        assert all(len(I) <= max(chunk, n) for I, _ in blocks)
        I = np.concatenate([I for I, _ in blocks]) if blocks else []
        J = np.concatenate([J for _, J in blocks]) if blocks else []
        triu = np.triu_indices(n, 1)
        assert np.array_equal(I, triu[0]) and np.array_equal(J, triu[1])


@pytest.mark.parametrize("kind,n", [("swap", 24), ("conj", 24), ("bs", 15)])
def test_ties_across_blocks_go_to_the_first_pair(monkeypatch, kind, n):
    # one row per block: every comparison between rows is across blocks
    monkeypatch.setattr(cj, "_ALIGN_CHUNK", 1)
    spec1, spec2 = align_pair(kind, n, seed=2)
    S = align_ball(spec1, 1)
    new = cj.align(spec1, spec2, S, seed=2, restarts=3)
    old = align_reference(spec1, spec2, S, seed=2, restarts=3)
    assert _align_key(new) == _align_key(old)


def test_align_on_one_point_stops_after_one_step_per_restart():
    spec = approxmod.make_approx("z2", 1, p=1, q=1)
    rep = cj.align(spec, spec, groups.ball("z2", 2), seed=0, restarts=3)
    assert rep.tau.tolist() == [0]
    assert rep.max_distance == 0
    assert rep.iterations == 3


def test_budgets_below_range_rejected():
    spec = approxmod.make_approx("z2", 9, p=1, q=2)
    S = groups.ball("z2", 1)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        cj.align(spec, spec, S, restarts=0)
    with pytest.raises(ValueError, match="iters must be >= 0"):
        cj.align(spec, spec, S, iters=-1)
    prob = cj.translation_problem(9, 1, 2, 4)
    with pytest.raises(ValueError, match="iters must be >= 0"):
        cj.local_search(prob, iters=-5)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        cj.local_search(prob, restarts=0)
    # a zero budget is a valid request: the starts are scored as they are
    assert cj.align(spec, spec, S, iters=0, restarts=2).iterations == 0
    assert cj.local_search(prob, iters=0, restarts=2).iterations == 0


# ---------------------------------------------------------------------------
# pinned reports
# ---------------------------------------------------------------------------

LOCAL_PINS = {
    "local:trans:n100:q7": (lambda: cj.translation_problem(100, 1, 7, 4),
                            1, 1000, 2),
    "local:bs:n50": (lambda: climb_problem("bs", 50, 4), 1, 5000, 2),
    "local:metab:n49:k3": (lambda: climb_problem("metab", 49, 3), 2, 2000, 3),
    "local:mult:n80:u3:k6": (lambda: cj.multiplication_problem(80, 3, 6),
                             3, 4000, 4),
    "local:zwrz:n50:k2": (lambda: climb_problem("zwrz", 50, 2), 1, 2500, 3),
}
# label -> (kind, n, radius, seed, iters, restarts); the conj pairs follow
# the search-suite's align problems: a z2 spec against a seeded relabelling
ALIGN_PINS = {
    "align:swap:n24": ("swap", 24, 1, 1, 8, 2),
    "align:conj:n16": ("conj", 16, 1, 1, 8, 1),
    "align:conj:n32": ("conj", 32, 1, 3, 8, 1),
    "align:conj:n24:r2": ("conj", 24, 2, 2, None, 3),
    "align:bs:n15": ("bs", 15, 1, 1, None, 3),
    "align:metab:n21": ("metab", 21, 1, 4, None, 2),
}

PINNED = {
    "align:bs:n15": "5388279646a0220090514a35fb6cabe3b0db051d65474eea6f6d77d8a38ea028",
    "align:conj:n16": "73ea0a2ee179ea01a4f3f1b0fa2bd09ad04b99611c98293e45bddd106c8bde73",
    "align:conj:n24:r2": "871988fd1b79e9eefe07153eec9144499198c63873360a932987f9f86275ccf6",
    "align:conj:n32": "9c1e2bdfeab1b31d44221ef952577d582b74d89d853c76c5f563609dc9346af6",
    "align:metab:n21": "e7776369cc4d0639657d27e2fe4217b82637e71fd9544abf5d78e43ee748480b",
    "align:swap:n24": "d31a42d326b78f34e017d924d99d33b1778f4548c33bd53fe3c13c6faa240b3d",
    "local:bs:n50": "643f3784163f6eb11bf9eab93e2442b344a97e5d9a4dfbe0cc28768e47fca7c4",
    "local:metab:n49:k3": "e2bba47e1dfb43b2fab01bfe9634cc999be222789f1c5337b2bdb8543acf8313",
    "local:mult:n80:u3:k6": "228133a44930968bd21c2a87b4df0fb03a038552e279d829f6c5625d22fb015d",
    "local:trans:n100:q7": "e482cdbb8e19eaee24fd302e84ed4f456f5dd398e8d095f0220980c5008a4de5",
    "local:zwrz:n50:k2": "ba4ddbeccc342e295b1e1c33ebeab2650dcb15edd0270e694c6952f8416864a9",
}


def pinned_report(label: str) -> dict:
    if label in LOCAL_PINS:
        factory, seed, iters, restarts = LOCAL_PINS[label]
        rep = cj.local_search(factory(), seed=seed, iters=iters,
                              restarts=restarts)
        return ser.search_report_to_obj(rep)
    kind, n, radius, seed, iters, restarts = ALIGN_PINS[label]
    spec1, spec2 = align_pair(kind, n, seed)
    rep = cj.align(spec1, spec2, align_ball(spec1, radius), seed=seed,
                   iters=iters, restarts=restarts)
    return ser.alignment_report_to_obj(rep)


@pytest.mark.parametrize("label", sorted(PINNED))
def test_pinned_report_digest(label):
    assert _digest(pinned_report(label)) == PINNED[label]

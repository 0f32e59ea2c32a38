"""The three benchmark workloads, generated from a seed.

Each builder returns a list of :class:`Op`.  ``Op.run`` is the timed call;
``Op.check`` runs afterwards, untimed and with tracing off, and raises
:class:`CheckError` when the result is wrong.  A check may return quality
facts (agreement counts, align distances) that the benchmark reports.

Sizes are fixed per workload and the seed only moves values that leave the
cost nearly unchanged (primes in a 2% band, translation amounts, search and
sampling seeds, conjugating permutations, random tables), so runs with
different seeds measure the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from soficperm import approx, conjsearch, groups, heuristic, higman, perm
from soficperm import serialize as ser

DELTA = Fraction(1, 10)


class CheckError(Exception):
    """The operation returned, but its output is wrong."""


class ExitCodeError(CheckError):
    """A command exited with another code than expected; like a raised
    exception, this fails the operation without judging its output."""


@dataclass
class KnownDefect:
    cause: str
    # matches(outcome) -> whether the outcome is this defect and nothing else
    matches: Callable[[Any], bool]


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    # check(result, outcomes of this pass by label) -> quality facts or None
    check: Callable[[Any, dict], Optional[dict]]
    known_defect: Optional[KnownDefect] = None


# ---------------------------------------------------------------------------
# helpers shared by the checks; none of them calls the package
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_near(rng: random.Random, target: int, spread: float = 0.02) -> int:
    n = int(target * (1 + spread * rng.random()))
    while not _is_prime(n):
        n += 1
    return n


def _order_divides(images: np.ndarray, k: int) -> bool:
    ident = np.arange(len(images))
    acc = ident
    for _ in range(k):
        acc = images[acc]
    return bool(np.array_equal(acc, ident))


def _plain_agreement(f: list, alpha: list, beta: list) -> int:
    return sum(1 for x in range(len(f)) if f[alpha[x]] == beta[f[x]])


def _unlimited_json(fn, arg):
    """json.loads / json.dumps with the int-digit limit lifted, for the
    benchmark's own parsing only; it is restored before any timed call."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(arg)
    finally:
        sys.set_int_max_str_digits(old)


def _norm(obj):
    """The object as the CLI's JSON would read back."""
    return _unlimited_json(json.loads, _unlimited_json(json.dumps, obj))


def _search_facts(rep, prob, optimum: Optional[int] = None) -> dict:
    """f^k = id and the agreement recounted on plain lists match the report."""
    f = rep.f.images
    if not _order_divides(f, prob.k):
        raise CheckError(f"f^{prob.k} != id")
    count = _plain_agreement(f.tolist(), prob.alpha.images.tolist(),
                             prob.beta.images.tolist())
    if count != rep.agreement_count:
        raise CheckError(f"agreement {rep.agreement_count} reported, "
                         f"{count} recounted")
    if optimum is not None and count != optimum:
        raise CheckError(f"agreement {count}, recorded optimum {optimum}")
    return {"agreement": count, "n": prob.n}


# ---------------------------------------------------------------------------
# verify-grid: make_approx -> ball -> verify over all five families
# ---------------------------------------------------------------------------

# (family, target n, radii, fixed parameters).  Sizes sweep so that the
# latencies of a pass spread evenly rather than in a few clusters.  Wide rows
# (n = 1e4..1e6, radius <= 4) are dominated by the perm kernels, deep rows
# (small n, |S| up to 299) by groups.mul and the |S|^2 pair loop.
VERIFY_WIDE = [
    ("z2", n, (4,), {}) for n in (10_000, 20_000, 50_000, 100_000)
] + [
    ("z2", n, (2,), {}) for n in (200_000, 500_000, 1_000_000)
] + [
    ("heis", n, (3,), {}) for n in (101, 149, 211)
] + [
    (family, n, (3,), params)
    for family, params in (("bs", {"m": 3}), ("zwrz", {"m": 3}), ("metab", {}))
    for n in (10_000, 20_000, 50_000)
]
VERIFY_DEEP = [
    ("z2", 1009, (4, 5, 6, 7, 8, 9), {}),
    ("heis", 31, (2, 3, 4, 5), {}),
    ("bs", 1009, (2, 3, 4), {"m": 3}),
    ("zwrz", 1009, (2, 3, 4), {"m": 3}),
    ("metab", 1009, (2, 3, 4), {}),
]
METAB_PQ = [(2, 3), (3, 2), (2, 5), (5, 3)]
AMPLIFY = ("z2", 101, 2, (100_000, 500_000))  # family, base n, radius, npoints


def _verify_op(label, family, n, radius, params, amplify_to=None) -> Op:
    def run():
        spec = approx.make_approx(family, n, **params)
        if amplify_to is not None:
            spec = approx.amplify_spec(spec, amplify_to)
        S = groups.ball(family, radius, m=params.get("m"))
        return len(S), approx.verify(spec, S, DELTA)

    npoints = amplify_to or (n * n if family == "heis" else n)

    def check(out, _):
        size, rep = out
        if rep.worst_hom_defect != 0:
            raise CheckError(f"worst_hom_defect {rep.worst_hom_defect} != 0")
        if rep.elements_checked != size:
            raise CheckError(f"elements_checked {rep.elements_checked} "
                             f"!= |ball| {size}")
        if rep.npoints != npoints:
            raise CheckError(f"npoints {rep.npoints} != {npoints}")
        return None

    return Op(label, run, check)


def verify_grid(seed: int) -> list[Op]:
    rng = random.Random(f"verify-grid:{seed}")
    ops = []
    for regime, rows in (("wide", VERIFY_WIDE), ("deep", VERIFY_DEEP)):
        for family, target, radii, fixed in rows:
            n = _prime_near(rng, target) if target > 100 else target
            params = dict(fixed)
            if family == "z2":
                params["p"], params["q"] = rng.randrange(1, n), rng.randrange(1, n)
            elif family == "metab":
                params["p"], params["q"] = rng.choice(METAB_PQ)
            for radius in radii:
                ops.append(_verify_op(f"{regime}:{family}:n{target}:r{radius}",
                                      family, n, radius, params))
    family, base_n, radius, sizes = AMPLIFY
    params = {"p": rng.randrange(1, base_n), "q": rng.randrange(1, base_n)}
    for npoints in sizes:
        ops.append(_verify_op(f"amplify:{family}:n{npoints}:r{radius}", family,
                              base_n, radius, params, amplify_to=npoints))
    return ops


# ---------------------------------------------------------------------------
# search-suite: a fixed problem suite with fixed restarts and iterations
# ---------------------------------------------------------------------------

# label -> (problem factory, iterations per n, restarts); 7^4 - 1 = 2400,
# so the translation problems with n | 2400 are solvable, the rest obstructed
LOCAL_SUITE = {
    f"local:trans:n{n}:q7": (
        lambda n=n: conjsearch.translation_problem(n, 1, 7, 4), 10, 2)
    for n in (100, 150, 200, 300, 400, 600, 800, 1000, 1500, 2000)
}
LOCAL_SUITE.update({
    f"local:spec:{family}:n{n}": (
        lambda family=family, n=n, params=params: conjsearch.problem_from_spec(
            approx.make_approx(family, n, **params), 4), 100, 2)
    for family, params, sizes in (("bs", {"m": 3}, (50, 101)),
                                  ("zwrz", {"m": 27}, (50, 80)),
                                  ("metab", {"p": 2, "q": 3}, (49, 101)))
    for n in sizes
})
LOCAL_SUITE.update({
    f"local:mult:n{n}:u{u}": (
        lambda n=n, u=u: conjsearch.multiplication_problem(n, u, 4), 100, 2)
    for n, u in ((80, 3), (100, 3), (121, 2))
})
# label -> (n, p, q, k, solvable)
EXACT_SUITE = {
    "exact:n13:q5": (13, 1, 5, 4, True),
    "exact:n17:q4": (17, 1, 4, 4, True),
    "exact:n200:q7": (200, 1, 7, 4, True),
    "exact:n2400:q7": (2400, 1, 7, 4, True),
    "exact:n10:q2": (10, 1, 2, 4, False),
    "exact:n1000:q7": (1000, 1, 7, 4, False),
}
# label -> (problem factory, best agreement, recorded from tests/oracles.py's
# brute_best_agreement, a plain enumeration of Sym(n))
BRUTE_SUITE = {
    "brute:trans:n6:q5:k2": (lambda: conjsearch.translation_problem(6, 1, 5, 2), 6),
    "brute:trans:n7:q3": (lambda: conjsearch.translation_problem(7, 1, 3, 4), 4),
    "brute:mult:n7:u3:k6": (lambda: conjsearch.multiplication_problem(7, 3, 6), 5),
    "brute:trans:n8:q3": (lambda: conjsearch.translation_problem(8, 1, 3, 4), 8),
    "brute:mult:n8:u3:k2": (lambda: conjsearch.multiplication_problem(8, 3, 2), 3),
    "brute:trans:n9:q2": (lambda: conjsearch.translation_problem(9, 1, 2, 4), 6),
    "brute:mult:n9:u2": (lambda: conjsearch.multiplication_problem(9, 2, 4), 6),
}
SAMPLES = ((5_000, 4), (20_000, 4))
# label -> (n, steps, restarts, conjugated); conjugated pairs compare a z2
# spec with a seeded conjugate of itself, the other pair swaps p and q
ALIGN_SUITE = {"align:swap:n24": (24, 8, 2, False)}
ALIGN_SUITE.update({f"align:conj:n{n}": (n, 8, 1, True)
                    for n in (16, 24, 32, 40, 48, 56, 64)})


def _local_op(label, factory, per_n, restarts, seed) -> Op:
    prob = factory()

    def run():
        return conjsearch.local_search(prob, seed=seed, iters=per_n * prob.n,
                                       restarts=restarts)

    def check(rep, _):
        if rep.iterations != per_n * prob.n * restarts:
            raise CheckError(f"iterations {rep.iterations}")
        return _search_facts(rep, prob)

    return Op(label, run, check)


def _exact_op(label, n, p, q, k, solvable) -> Op:
    prob = conjsearch.translation_problem(n, p, q, k)

    def check(rep, _):
        if not solvable:
            if rep is not None:
                raise CheckError("found an exact conjugator where none exists")
            return None
        if rep is None:
            raise CheckError("no exact conjugator returned")
        facts = _search_facts(rep, prob)
        if facts["agreement"] != n:
            raise CheckError(f"exact agreement {facts['agreement']} != {n}")
        return facts

    return Op(label, lambda: conjsearch.exact_search(prob), check)


def _brute_op(label, factory, optimum) -> Op:
    prob = factory()
    return Op(label, lambda: conjsearch.brute_force(prob),
              lambda rep, _: _search_facts(rep, prob, optimum))


def _align_pair(n, conjugated, rng):
    p = rng.choice([q for q in range(1, n) if np.gcd(q, n) == 1])
    q = rng.choice([v for v in range(1, n) if v != p])
    spec1 = approx.make_approx("z2", n, p=p, q=q)
    if not conjugated:
        return spec1, approx.make_approx("z2", n, p=q, q=p), None
    sigma = list(range(n))
    rng.shuffle(sigma)
    sigma = np.asarray(sigma)
    return spec1, approx.conjugate_spec(spec1, perm.Perm(sigma)), sigma


def _align_facts(rep, spec1, spec2, sigma, S) -> dict:
    """Recompute every per-element distance from tau with numpy."""
    tau = rep.tau.images
    tau_inv = np.argsort(tau)
    n = len(tau)
    worst = Fraction(0)
    for (elem, dist), s in zip(rep.per_element, sorted(S, key=groups.sort_key)):
        if elem != s:
            raise CheckError(f"per_element order: {elem} != {s}")
        r1 = approx.eval(spec1, s).images
        if sigma is None:
            r2 = approx.eval(spec2, s).images
        else:
            r2 = np.argsort(sigma)[r1[sigma]]
        d = Fraction(int(np.count_nonzero(tau_inv[r1[tau]] != r2)), n)
        if d != dist:
            raise CheckError(f"distance of {s}: reported {dist}, recomputed {d}")
        worst = max(worst, d)
    if worst != rep.max_distance:
        raise CheckError(f"max_distance {rep.max_distance} != {worst}")
    return {"align_distance": [worst.numerator, worst.denominator]}


def _align_op(label, n, steps, restarts, conjugated, seed, rng) -> Op:
    spec1, spec2, sigma = _align_pair(n, conjugated, rng)
    S = groups.ball("z2", 1)

    def run():
        return conjsearch.align(spec1, spec2, S, seed=seed, iters=steps,
                                restarts=restarts)

    return Op(label, run,
              lambda rep, _: _align_facts(rep, spec1, spec2, sigma, S))


def _sample_op(n, k, seed) -> Op:
    def check(f, _):
        if f.n != n or not _order_divides(f.images, k):
            raise CheckError(f"sample is not in Sym({n}) with f^{k} = id")
        return None

    return Op(f"sample:n{n}:k{k}", lambda: perm.sample_order_k(n, k, seed),
              check)


def search_suite(seed: int) -> list[Op]:
    rng = random.Random(f"search-suite:{seed}")
    ops = [_local_op(label, *spec, seed) for label, spec in LOCAL_SUITE.items()]
    ops += [_exact_op(label, *spec) for label, spec in EXACT_SUITE.items()]
    ops += [_brute_op(label, *spec) for label, spec in BRUTE_SUITE.items()]
    ops += [_sample_op(n, k, seed) for n, k in SAMPLES]
    ops += [_align_op(label, *spec, seed, rng)
            for label, spec in ALIGN_SUITE.items()]
    return ops


# ---------------------------------------------------------------------------
# cli-pipeline: every subcommand, chained through files
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str


# json.dumps of count(n, 4) overflows the interpreter's 4300-digit limit on
# int-to-str conversion from n = 2000 on (4313 digits), below the CLI's
# documented cap of 5000; cli.run emits outside its error handling, so the
# user gets a traceback and exit 1.  These operations stay in the workload;
# this exact failure is tallied on its own, any other failure counts.
DIGIT_LIMIT = (f"Exceeds the limit ({sys.int_info.default_max_str_digits} "
               "digits) for integer string conversion")


def _raised_in_emit(res) -> bool:
    """The digit-limit ValueError raised inside cli._emit: in-process the
    exception itself, from a subprocess exit 1 with its traceback."""
    if isinstance(res, CliResult):
        last = res.err.strip().splitlines()[-1:] or [""]
        return (res.code == 1 and last[0].startswith(f"ValueError: {DIGIT_LIMIT}")
                and re.search(r'cli\.py", line \d+, in _emit\n', res.err) is not None)
    if not isinstance(res, ValueError) or DIGIT_LIMIT not in str(res):
        return False
    tb = res.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_name == "_emit" and Path(code.co_filename).name == "cli.py":
            return True
        tb = tb.tb_next
    return False


EMIT_DIGIT_LIMIT = KnownDefect(
    "cli._emit: json.dumps exceeds the 4300-digit int limit for count(n, 4) "
    "from n = 2000", _raised_in_emit)


def _exit(res: CliResult, code: int) -> None:
    if res.code != code:
        tail = res.err.strip().splitlines()[-1:] or [""]
        raise ExitCodeError(f"exit {res.code}, expected {code}: {tail[0]}")


def cli_pipeline(seed: int, work: Path,
                 invoke: Callable[[list[str]], CliResult]) -> list[Op]:
    """``invoke(argv)`` runs one command, as a subprocess or in-process.
    Expected records are computed in-process once per run, on first use."""
    rng = random.Random(f"cli-pipeline:{seed}")
    s = str(seed)
    path = {name: str(work / f"{name}.json") for name in (
        "z2", "f", "z2_13", "pairs", "a", "b", "big")}
    memo: dict = {}

    def once(key, fn):
        if key not in memo:
            memo[key] = fn()
        return memo[key]

    def record(res, code=0, out=None):
        _exit(res, code)
        text = Path(out).read_text() if out else res.out
        return _unlimited_json(json.loads, text)

    def same_result(key, to_obj, code=0, out=None, facts=None):
        """The record's result equals to_obj() computed in-process."""
        def check(res, _):
            got = record(res, code, out)["result"]
            if got != once(("obj", key), lambda: _norm(to_obj())):
                raise CheckError(f"record differs from in-process {key}")
            return facts() if facts else None
        return check

    def same_bytes_as(first):
        def check(res, outcomes):
            _exit(res, 0)
            if not isinstance(outcomes.get(first), CliResult) \
                    or res.out != outcomes[first].out:
                raise CheckError(f"stdout differs from {first}")
            return None
        return check

    def verify_check(key, spec, radius, code=None, out=None):
        """Exit 0 iff the in-process report passes (or the given code)."""
        def report():
            S = groups.ball(spec.family, radius, m=spec.m)
            rep = approx.verify(spec, S, DELTA)
            if rep.worst_hom_defect != 0 or rep.elements_checked != len(S):
                raise CheckError(f"in-process verify of {key} is wrong")
            return rep

        def check(res, outcomes):
            rep = once(key, report)
            want = 0 if rep.passed else 1
            if code is not None and code != want:
                raise CheckError(f"{key}: passed={rep.passed} in-process")
            return same_result(key, lambda: ser.verify_report_to_obj(rep),
                               code=want, out=out)(res, outcomes)
        return check

    ops: list[Op] = []

    def add(label, argv, check, known_defect=None):
        ops.append(Op(label, lambda: invoke(argv), check, known_defect))

    def add_spec(label, family, n, out, **params):
        spec = approx.make_approx(family, n, **params)
        flags = [x for key, value in params.items()
                 for x in (f"--{key}", str(value))]
        add(label, ["make-approx", "--group", family, "--n", str(n), *flags,
                    "--out", out],
            same_result(label, lambda: ser.spec_to_obj(spec), out=out))
        return spec

    # the demo pipeline: build, verify twice, exact search, defect
    small = add_spec("make-approx:z2:n11", "z2", 11, path["z2"], p=2, q=3)
    for radius, code in ((2, 0), (5, 1)):
        add(f"verify:z2:n11:r{radius}",
            ["verify", "--spec", path["z2"], "--ball", str(radius),
             "--delta", "1/10"],
            verify_check(f"verify:z2:n11:r{radius}", small, radius, code=code))

    spec13 = approx.make_approx("z2", 13, p=1, q=5)
    prob13 = conjsearch.problem_from_spec(spec13, 4)

    def exact13():
        rep = conjsearch.exact_search(prob13)
        if rep is None or _search_facts(rep, prob13)["agreement"] != 13:
            raise CheckError("in-process exact conjugator is wrong")
        return rep

    add("search:exact:n13",
        ["search", "--group", "z2", "--n", "13", "--p", "1", "--q", "5",
         "--k", "4", "--algo", "exact", "--out", path["f"]],
        same_result("exact13",
                    lambda: ser.search_report_to_obj(once("exact13", exact13)),
                    out=path["f"],
                    facts=lambda: _search_facts(once("exact13", exact13), prob13)))
    add_spec("make-approx:z2:n13", "z2", 13, path["z2_13"], p=1, q=5)
    pairs = [[[["b", 1]], [["a", 1]]],
             [[["a", rng.randrange(1, 4)]], [["b", rng.randrange(1, 4)]]]]
    Path(path["pairs"]).write_text(json.dumps(pairs))
    words = [(ser.genword_from_obj(b), ser.genword_from_obj(c)) for b, c in pairs]

    def check_defect(res, _):
        want = once("defect13", lambda: ser.fraction_to_obj(
            conjsearch.higman_defect(spec13, once("exact13", exact13).f, words)))
        if record(res)["result"]["defect"] != want:
            raise CheckError("defect differs from in-process higman_defect")
        return None

    add("defect:z2:n13",
        ["defect", "--spec", path["z2_13"], "--perm", path["f"],
         "--pairs", path["pairs"]], check_defect)

    def check_no_exact(res, _):
        if record(res, code=1)["result"] is not None:
            raise CheckError("obstructed exact search returned a result")
        return None

    add("search:exact:n10:obstructed",
        ["search", "--group", "z2", "--n", "10", "--p", "1", "--q", "2",
         "--k", "4", "--algo", "exact"], check_no_exact)

    # counting across the documented range, small commands twice
    heur_csv = ["heuristic", "--n", "100", "--k", "4", "--format", "csv"]
    add("heuristic:n100:csv", heur_csv, lambda res, _: _exit(res, 0))
    add("heuristic:n100:csv:again", heur_csv,
        same_bytes_as("heuristic:n100:csv"))

    def check_count(n):
        def check(res, _):
            got = record(res)["result"]["count"]
            if _unlimited_json(int, got) != perm.count_order_dividing(n, 4):
                raise CheckError(f"count({n}, 4) differs")
            return None
        return check

    count8 = ["count-orders", "--n", "8", "--k", "4"]
    add("count-orders:n8", count8, check_count(8))
    add("count-orders:n8:again", count8, same_bytes_as("count-orders:n8"))
    for n in (1000, 2000, 5000):
        add(f"count-orders:n{n}", ["count-orders", "--n", str(n), "--k", "4"],
            check_count(n), EMIT_DIGIT_LIMIT if n >= 2000 else None)
    for n in (1000, 2500, 5000):
        add(f"heuristic:n{n}",
            ["heuristic", "--n", str(n), "--k", "4", "--seed", s],
            same_result(f"heuristic:n{n}", lambda n=n: ser.heuristic_report_to_obj(
                heuristic.heuristic_report(n, 4, "1/100", "1/100"))),
            EMIT_DIGIT_LIMIT if n >= 2000 else None)

    target = 2000
    add("amplify:n13",
        ["amplify", "--perm", path["f"], "--target-n", str(target)],
        same_result("amplify", lambda: {
            "n": 13, "target_n": target,
            "perm": ser.perm_to_obj(perm.amplify(once("exact13", exact13).f,
                                                 target))}))

    # align and local search on a pair of z2 specs, brute force at n = 9
    pa, qa = rng.choice([1, 5, 7, 11]), rng.choice([13, 17, 19, 23])
    spec_a = add_spec("make-approx:z2:n48:a", "z2", 48, path["a"], p=pa, q=qa)
    spec_b = add_spec("make-approx:z2:n48:b", "z2", 48, path["b"], p=qa, q=pa)
    ball1 = groups.ball("z2", 1)

    def align48():
        return conjsearch.align(spec_a, spec_b, ball1, seed=seed, iters=6,
                                restarts=2)

    add("align:z2:n48",
        ["align", "--spec1", path["a"], "--spec2", path["b"], "--ball", "1",
         "--iters", "6", "--restarts", "2", "--seed", s],
        same_result("align48", lambda: ser.alignment_report_to_obj(
            once("align48", align48)), facts=lambda: _align_facts(
                once("align48", align48), spec_a, spec_b, None, ball1)))

    prob_a = conjsearch.problem_from_spec(spec_a, 4)

    def local48():
        return conjsearch.local_search(prob_a, seed=seed, iters=20_000,
                                       restarts=2)

    add("search:local:n48",
        ["search", "--spec", path["a"], "--k", "4", "--iters", "20000",
         "--restarts", "2", "--seed", s],
        same_result("local48", lambda: ser.search_report_to_obj(
            once("local48", local48)),
            facts=lambda: _search_facts(once("local48", local48), prob_a)))

    prob9 = conjsearch.problem_from_spec(
        approx.make_approx("z2", 9, p=1, q=2), 4)
    optimum9 = BRUTE_SUITE["brute:trans:n9:q2"][1]

    def brute9():
        return conjsearch.brute_force(prob9)

    add("search:brute:n9",
        ["search", "--group", "z2", "--n", "9", "--p", "1", "--q", "2",
         "--k", "4", "--algo", "brute"],
        same_result("brute9", lambda: ser.search_report_to_obj(
            once("brute9", brute9)), facts=lambda: _search_facts(
                once("brute9", brute9), prob9, optimum9)))

    hp, depth = 7, 4

    def action():
        act = higman.make_action(hp, *higman.random_tables(hp, seed))
        rel = higman.verify_action(act, 3)
        if not rel.passed:
            raise CheckError("relations of the action failed in-process")
        obj = ser.action_table_to_obj(act)
        obj["relations"] = ser.relation_report_to_obj(rel)
        obj["probe"] = {"depth": depth, "nontrivial_identities": [
            ser.elem_to_obj(g) for g in higman.injectivity_probe(act, depth)]}
        return obj

    add("higman-action:p7",
        ["higman-action", "--p", str(hp), "--random", "--check",
         "--probe-depth", str(depth), "--seed", s],
        same_result("action", action))

    # one large record: about 28 MB, read back by verify --spec
    nbig = _prime_near(rng, 1_000_000)
    pb, qb = rng.randrange(nbig // 10, nbig // 5), rng.randrange(nbig // 3, nbig // 2)
    big = approx.make_approx("z2", nbig, p=pb, q=qb)

    def check_big(res, _):
        # identical bytes are an identical record: parse the 28 MB only once,
        # and compare without a JSON round trip (spec_to_obj is JSON-native)
        _exit(res, 0)
        data = Path(path["big"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if memo.get("big-digest") != digest:
            if json.loads(data)["result"] != ser.spec_to_obj(big):
                raise CheckError("large record differs from in-process spec")
            memo["big-digest"] = digest
        return None

    add("make-approx:z2:big",
        ["make-approx", "--group", "z2", "--n", str(nbig), "--p", str(pb),
         "--q", str(qb), "--out", path["big"]], check_big)
    add("verify:z2:big:r2",
        ["verify", "--spec", path["big"], "--ball", "2", "--delta", "1/10"],
        verify_check("verify:z2:big:r2", big, 2))
    return ops

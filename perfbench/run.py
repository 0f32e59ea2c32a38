"""soficperm benchmark: seeded workloads, checked outputs, named metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Workloads (see README.md beside this file): ``verify-grid``,
``search-suite`` and ``cli-pipeline``.  Load is one closed-loop caller in
one process: each operation starts after the previous one ends; CLI
commands go through ``soficperm.cli.run`` with the default ``--workers 1``.
Passes over
the operation list repeat until ``--seconds`` have passed and at least
``MIN_MEASURED`` passes ran.  Within a pass, an operation shorter than
``OP_MIN_S`` is called again until its calls add up to ``OP_MIN_S`` (at
most ``OP_MAX_CALLS`` calls), and its best call is its time in that pass.

Every time is reported at reference speed.  A fixed reference kernel
(``_ref_s``, an interpreter loop of about ``REF_S`` seconds at full
speed) is timed right before and right after each operation, and
the operation's time is scaled by ``REF_S`` over their mean.  A shared
machine runs the same code up to 60% slower for seconds to minutes at a
time; the scaling cancels these phases, which raw wall time cannot.  Each
operation's latency is the median of its scaled times over the passes.
Every call starts with the package's ``functools`` caches emptied, as in a
fresh process, so no call reuses work that another call or a check cached.
``run_s`` sums these latencies; the percentiles are taken over them, one
per operation.  The raw pass times are in the info line.

On ``cli-pipeline`` one more pass, after the timed ones, runs every command
as its own ``python -m soficperm`` process; its outputs are checked like the
others and ``peak_rss_mb`` is the peak RSS of the largest of these children.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` installs timing
wrappers on the package's public functions and prints the per-layer
metrics, each averaged over the traced passes; traced and untraced passes
call each operation once.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.  The last line of
stdout is the result JSON; the line before it holds the environment, the
search-quality record and the known-defect tally.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

MIN_MEASURED = 3     # passes per run, whatever --seconds says
REF_S = 0.0009       # the reference kernel's time at full speed
OP_MIN_S = 0.05      # repeat shorter operations within a pass ...
OP_MAX_CALLS = 20    # ... up to this many calls
HARD_STOP_S = 140.0  # start no pass after this; a run must end within 180 s
SETUP_REPS = 9
IMPORT_REPS = 5
RUNGS = (*range(50, 100, 5), 99)
WORKLOADS = ("verify-grid", "search-suite", "cli-pipeline")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _wall(argv: list[str], **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=_child_env(), **kwargs)
    return time.perf_counter() - t0, proc


def _child_import_s() -> float:
    """Import time of the whole package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import soficperm.cli; "
            "print(time.perf_counter() - t)")
    _, proc = _wall([sys.executable, "-c", code], cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"importing soficperm failed: {proc.stderr}")
    return float(proc.stdout)


def _ref_once() -> int:
    """The reference kernel: interpreter dispatch and small-int arithmetic
    only, so its time depends on the machine's speed and on nothing the
    package leaves in the process (heap, caches, allocator state)."""
    x = 1
    for _ in range(8_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


def _ref_s() -> float:
    """Best of three timed calls of the reference kernel."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _ref_once()
        best = min(best, time.perf_counter() - t0)
    return best


def _at_ref(measure) -> float:
    """The seconds measure() returns, scaled to reference speed."""
    before = _ref_s()
    took = measure()
    return took * 2 * REF_S / (before + _ref_s())


def _tail_rung(samples: int) -> int:
    """Highest percentile with at least 10 samples beyond it."""
    fits = [p for p in RUNGS if samples * (100 - p) / 100 >= 10]
    return max(fits) if fits else RUNGS[0]


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _best(passes: list[list[float]]) -> list[float]:
    """Each operation's best latency over the passes."""
    return [min(op) for op in zip(*passes)]


def _median(passes: list[list[float]]) -> list[float]:
    """Each operation's median latency over the passes."""
    return [statistics.median(op) for op in zip(*passes)]


def _clear_caches() -> None:
    """Empty every functools cache in the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "soficperm" or name.startswith("soficperm."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs passes over one op list and keeps every outcome."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.known = {"cause": None, "occurred": 0, "ops": []}
        self.messages: list[str] = []
        self.quality: dict[str, dict] = {}

    def run_pass(self, tracer=None, timed=False) -> tuple[list, Optional[list]]:
        """One pass; returns each operation's raw latency and, when
        ``timed``, its latency at reference speed (else None).  A timed pass
        calls a short operation more than once and keeps its best call.
        The first crash, or else the last call's result, is checked after
        the pass, untimed and with the tracer removed."""
        from workloads import CheckError, ExitCodeError
        outcomes, latencies, scaled = {}, [], []
        with tracer.installed() if tracer else nullcontext():
            for op in self.ops:
                ref = _ref_s() if timed else None
                best, spent, calls, crash = math.inf, 0.0, 0, None
                while True:
                    _clear_caches()
                    t0 = time.perf_counter()
                    try:
                        res = op.run()
                    except Exception as exc:  # a crash is a failed operation
                        res = crash = crash or exc
                    took = time.perf_counter() - t0
                    best, spent, calls = min(best, took), spent + took, calls + 1
                    if not timed or spent >= OP_MIN_S or calls >= OP_MAX_CALLS:
                        break
                latencies.append(best)
                if timed:
                    scaled.append(best * 2 * REF_S / (ref + _ref_s()))
                outcomes[op.label] = crash or res
        for op in self.ops:
            res = outcomes[op.label]
            if op.known_defect and op.known_defect.matches(res):
                self.known["cause"] = op.known_defect.cause
                self.known["occurred"] += 1
                if op.label not in self.known["ops"]:
                    self.known["ops"].append(op.label)
                continue
            err, wrong = None, False
            if isinstance(res, Exception):
                err = f"raised {type(res).__name__}: {res}"
            else:
                try:
                    facts = op.check(res, outcomes)
                    if facts:
                        self.quality[op.label] = facts
                except ExitCodeError as exc:
                    err = str(exc)
                except CheckError as exc:
                    err, wrong = str(exc), True
                except Exception as exc:
                    err, wrong = f"check raised {type(exc).__name__}: {exc}", True
            self.attempted += 1
            if err:
                self.failed += 1
                self.wrong += wrong
                if len(self.messages) < 8:
                    self.messages.append(f"{op.label}: {err[:300]}")
        return latencies, (scaled if timed else None)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# Starts argv[2:] under the interpreter, waits for it, writes its wall time
# and peak RSS (KiB) to the file argv[1] and exits with its exit code.  A
# child exec'd straight from the benchmark inherits the benchmark's peak RSS
# as its own (Linux carries the old address space's high-water mark across
# exec); one exec'd from this small launcher reports only its own.
LAUNCH = """import os, sys, time
t = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(f"{time.perf_counter() - t} {usage.ru_maxrss}")
sys.exit(os.waitstatus_to_exitcode(status))
"""


class CliInvoker:
    """Runs one CLI command through ``soficperm.cli.run`` in-process or,
    while ``subprocess`` is set, as ``python -m soficperm``."""

    def __init__(self, work: Path, observe=None):
        self.work = work
        self.subprocess = False
        self.process_s = 0.0  # child wall time minus the elapsed_s= it prints
        self.peak_kib = 0     # largest child's peak RSS
        # observe(argv, result or None, seconds) after each in-process command
        self.observe = observe

    def __call__(self, argv):
        from workloads import CliResult
        if self.subprocess:
            usage = self.work / ".child-usage"
            _, proc = _wall([sys.executable, "-c", LAUNCH, str(usage),
                             "-m", "soficperm", *argv], cwd=self.work)
            wall, peak = usage.read_text().split()
            usage.unlink()
            self.peak_kib = max(self.peak_kib, int(peak))
            lines = [ln for ln in proc.stderr.splitlines()
                     if ln.startswith("elapsed_s=")]
            if lines:  # a crashed command prints none
                self.process_s += float(wall) - float(lines[-1].split("=", 1)[1])
            return CliResult(proc.returncode, proc.stdout, proc.stderr)
        from soficperm import cli
        out, err = io.StringIO(), io.StringIO()
        res = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
            res = CliResult(code, out.getvalue(), err.getvalue())
            return res
        finally:
            if self.observe:
                self.observe(argv, res, time.perf_counter() - t0)

    def child_pass(self, runner: "Runner") -> None:
        """One checked pass with every command in a fresh process."""
        self.subprocess = True
        try:
            runner.run_pass()
        finally:
            self.subprocess = False


def _build(workload: str, seed: int, work: Path, invoke=None):
    import workloads
    if workload == "verify-grid":
        return workloads.verify_grid(seed)
    if workload == "search-suite":
        return workloads.search_suite(seed)
    return workloads.cli_pipeline(seed, work, invoke)


def _setup_s(workload: str, seed: int, work: Path, invoke) -> float:
    """Median import time plus median input-generation time, each at
    reference speed."""
    def build_s():
        t0 = time.perf_counter()
        _build(workload, seed, work, invoke)
        return time.perf_counter() - t0
    imports = [_at_ref(_child_import_s) for _ in range(SETUP_REPS)]
    gens = [_at_ref(build_s) for _ in range(SETUP_REPS)]
    return statistics.median(imports) + statistics.median(gens)


def _loop(seconds: float, t_start: float, measured: list, step) -> None:
    """Call step() until the time is up and MIN_MEASURED passes exist."""
    while True:
        step()
        elapsed = time.perf_counter() - t_start
        if len(measured) >= MIN_MEASURED and elapsed >= seconds:
            return
        if measured and elapsed >= HARD_STOP_S:
            return


def end_to_end(workload: str, seed: int, seconds: float, work: Path):
    invoke = CliInvoker(work)
    setup_s = _setup_s(workload, seed, work, invoke)
    runner = Runner(_build(workload, seed, work, invoke))
    passes: list[list[float]] = []
    raw_s: list[float] = []

    def step():
        raw, scaled = runner.run_pass(timed=True)
        raw_s.append(sum(raw))
        passes.append(scaled)
    _loop(seconds, time.perf_counter(), passes, step)

    if workload == "cli-pipeline":
        invoke.child_pass(runner)
        peak = invoke.peak_kib
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = _median(passes)
    rung = _tail_rung(len(lat))
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "run_s": _metric(sum(lat), "s"),
        "op_p50_s": _metric(statistics.median(lat), "s"),
        "op_tail_s": _metric(_percentile(lat, rung), "s"),
        "ok_frac": _metric((runner.attempted - runner.failed)
                           / max(runner.attempted, 1), "ratio"),
        "peak_rss_mb": _metric(peak / 1024, "MB"),
    }
    info = {"op_tail_percentile": rung, "op_samples": len(lat),
            "passes": len(passes), "ref_s": REF_S,
            "pass_s": [round(sum(p), 4) for p in passes],
            "raw_pass_s": [round(x, 4) for x in raw_s]}
    return runner, metrics, info


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

# counters the hooks below add to, printed per pass with these units; the
# bytes are computed from n, not measured: compose reads g and f[g] and
# writes the result (3 x 8n bytes), hamming reads two int64 tables, writes
# and reads an n-byte mask (18n bytes).  Counters named with a leading "_"
# are denominators of the ratios in layer_run and are not printed.
COUNTERS = {
    "perm.compose.bytes": "B_computed",
    "perm.hamming.bytes": "B_computed",
    "groups.ball.elements": "count",
    "approx.verify.pairs": "count",
    "conjsearch.local_search.iters": "count",
    "conjsearch.align.steps": "count",
    "conjsearch.brute_force.candidates": "count",
    "higman.verify_action.checks": "count",
}


def _targets():
    """(module, attribute, span name, hook) per traced public function."""
    from soficperm import (approx, conjsearch, groups, heuristic, higman,
                           perm, serialize)

    def perm_bytes(key, per_point):
        def hook(counts, args, result):
            counts[key] += per_point * args[0].n
        return hook

    def ball_hook(counts, args, result):
        counts["groups.ball.elements"] += len(result)

    def verify_hook(counts, args, result):
        counts["approx.verify.pairs"] += result.pairs_checked
        counts["_pair_space"] += result.elements_checked ** 2

    def local_hook(counts, args, result):
        counts["conjsearch.local_search.iters"] += result.iterations

    def align_hook(counts, args, result):
        counts["conjsearch.align.steps"] += result.iterations

    def brute_hook(counts, args, result):
        counts["conjsearch.brute_force.candidates"] += result.iterations
        counts["_brute_space"] += math.factorial(result.problem.n)

    def checks_hook(counts, args, result):
        counts["higman.verify_action.checks"] += len(result.checks)

    targets = [
        (perm, "compose", "perm.compose", perm_bytes("perm.compose.bytes", 24)),
        (perm, "hamming", "perm.hamming", perm_bytes("perm.hamming.bytes", 18)),
        (groups, "ball", "groups.ball", ball_hook),
        (approx, "verify", "approx.verify", verify_hook),
        (conjsearch, "local_search", "conjsearch.local_search", local_hook),
        (conjsearch, "align", "conjsearch.align", align_hook),
        (conjsearch, "brute_force", "conjsearch.brute_force", brute_hook),
        (higman, "verify_action", "higman.verify_action", checks_hook),
        (heuristic, "heuristic_report", "heuristic.heuristic_report", None),
    ]
    for name in ("inverse", "power", "amplify", "sample_order_k",
                 "cycle_decomposition", "project_to_order",
                 "count_order_dividing"):
        targets.append((perm, name, f"perm.{name}", None))
    targets += [
        (groups, "mul", "groups.mul", None),
        (approx, "eval", "approx.eval", None),
        (approx, "make_approx", "approx.make_approx", None),
        (conjsearch, "agreement", "conjsearch.agreement", None),
        (higman, "make_action", "higman.make_action", None),
        (higman, "injectivity_probe", "higman.injectivity_probe", None),
    ]
    for name in serialize.__all__:
        if name.endswith("_to_obj"):
            targets.append((serialize, name, "serialize.to_obj", None))
        elif name.endswith("_from_obj"):
            targets.append((serialize, name, "serialize.from_obj", None))
    return targets


SUBCOMMANDS = ("count-orders", "make-approx", "verify", "search", "defect",
               "amplify", "align", "higman-action", "heuristic")
INPUT_FLAGS = ("--spec", "--perm", "--pairs", "--alpha", "--beta", "--spec1",
               "--spec2", "--f-table", "--lambda-table")


def _argv_bytes(argv: list[str], flags) -> int:
    total = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in flags and os.path.exists(value):
            total += os.path.getsize(value)
    return total


def _cli_import_s() -> float:
    """Import of soficperm.cli minus bare interpreter start, medians."""
    def median_wall(code):
        return statistics.median(_wall([sys.executable, "-c", code], cwd=ROOT)[0]
                                 for _ in range(IMPORT_REPS))
    return median_wall("import soficperm.cli") - median_wall("pass")


def layer_run(workload: str, seed: int, seconds: float, work: Path):
    from spans import Tracer
    tracer = Tracer(_targets())
    t_start = time.perf_counter()
    tracing = False
    io_bytes = {"in": 0, "out": 0}
    per_sub = dict.fromkeys(SUBCOMMANDS, 0.0)

    def observe(argv, res, seconds):
        if tracing:
            per_sub[argv[0]] += seconds
            io_bytes["in"] += _argv_bytes(argv, INPUT_FLAGS)
            io_bytes["out"] += ((len(res.out.encode()) if res else 0)
                                + _argv_bytes(argv, ("--out",)))

    invoke = CliInvoker(work, observe)
    runner = Runner(_build(workload, seed, work, invoke))
    import_s = 0.0
    if workload == "cli-pipeline":
        invoke.child_pass(runner)
        import_s = _cli_import_s()
    plain, traced_runs = [], []

    def step():
        nonlocal tracing
        plain.append(runner.run_pass()[0])
        tracing = True
        traced_runs.append(runner.run_pass(tracer)[0])
        tracing = False
    _loop(seconds, t_start, traced_runs, step)

    k = len(traced_runs)
    calls, busy, self_s, counts = tracer.calls, tracer.busy, tracer.self_s, tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = _metric(value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    for span in dict.fromkeys(name for _, _, name, _ in tracer.targets):
        put(f"{span}.calls", calls[span] / k, "count")
        put(f"{span}.s", busy[span] / k, "s")
    for name, unit in COUNTERS.items():
        put(name, counts[name] / k, unit)
    put("approx.verify.self_s", self_s["approx.verify"] / k, "s")
    put("approx.verify.pair_yield",
        ratio(counts["approx.verify.pairs"], counts["_pair_space"]), "ratio")
    put("conjsearch.climb_us_per_iter", 1e6 * ratio(
        self_s["conjsearch.local_search"], counts["conjsearch.local_search.iters"]), "us")
    put("conjsearch.align.s_per_step", ratio(busy["conjsearch.align"],
                                             counts["conjsearch.align.steps"]), "s")
    put("conjsearch.brute_force.yield", ratio(
        counts["conjsearch.brute_force.candidates"], counts["_brute_space"]), "ratio")
    put("serialize.bytes_out", io_bytes["out"] / k, "B")
    put("serialize.bytes_in", io_bytes["in"] / k, "B")
    put("cli.import_s", import_s, "s")
    put("cli.process_s", invoke.process_s, "s")
    for sub in SUBCOMMANDS:
        put(f"cli.{sub}.s", per_sub[sub] / k, "s")
    put("trace.overhead_s", sum(_best(traced_runs)) - sum(_best(plain)), "s")
    agreements = [f["agreement"] / f["n"] for f in runner.quality.values() if "agreement" in f]
    distances = [a / b for a, b in (f["align_distance"] for f in runner.quality.values()
                                    if "align_distance" in f)]
    put("search_agreement", statistics.fmean(agreements) if agreements else 0.0, "ratio")
    put("align_distance", statistics.fmean(distances) if distances else 0.0, "ratio")
    info = {"traced_passes": k, "untraced_passes": len(plain),
            "computed": [name for name, unit in COUNTERS.items()
                         if unit == "B_computed"]}
    return runner, m, info


def _declared(trace: int) -> Optional[dict]:
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------

def _env(seed: int) -> dict:
    import mpmath
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "soficperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():  # the benchmark reads nothing outside ROOT
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "seed": seed,
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "soficperm" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'soficperm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import soficperm
    if Path(soficperm.__file__).resolve().parent != SRC / "soficperm":
        print(f"error: imported soficperm from {soficperm.__file__}",
              file=sys.stderr)
        return 2

    scratch = BENCH_DIR / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            runner, metrics, info = layer_run(args.workload, args.seed,
                                              args.seconds, work)
        else:
            runner, metrics, info = end_to_end(args.workload, args.seed,
                                               args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is using it
            pass

    declared = _declared(args.trace)
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if declared is not None and declared != emitted:
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(declared.items() ^ emitted.items())}", file=sys.stderr)
        return 3
    for message in runner.messages:
        print(f"failed: {message}", file=sys.stderr)
    info.update(workload=args.workload, env=_env(args.seed),
                quality=runner.quality, known_defect=runner.known,
                failures=runner.messages)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": runner.wrong == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

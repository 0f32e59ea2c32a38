"""The size policy: every limit at its value and one past it, each call site
refusing before it allocates, and the CLI ending oversized requests with
exit 2 instead of a traceback or a run that does not finish."""

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from soficperm import approx as ap
from soficperm import cli
from soficperm import conjsearch as cj
from soficperm import groups as gr
from soficperm import heuristic as hr
from soficperm import higman as hg
from soficperm import limits
from soficperm import perm as pm

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(limits.LIMITS))
def test_each_limit_at_and_past_its_value(name):
    value = limits.LIMITS[name].value
    limits.check(name, value)
    with pytest.raises(ValueError) as info:
        limits.check(name, value + 1)
    message = str(info.value)
    assert name in message
    assert str(value + 1) in message and str(value) in message


def test_count_table_covers_the_largest_benchmark_sample():
    from test_product_index import _workloads
    largest = max(n for n, _ in _workloads().SAMPLES)
    limits.check("count_table", largest)


def test_count_work_refuses_within_a_second(capsys):
    # the count at the count_table limit for k = 4, which CI runs, is inside
    # count_work; for k = 2520 it would run for about a minute
    limits.check("count_work", 20000 * len(pm._divisors(4, 20000)))
    start = time.perf_counter()
    code = cli.run(["count-orders", "--n", "20000", "--k", "2520"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: count_work limit: 960000 requested, over "
                          "the limit of 250000 terms;")
    assert elapsed < 1


def test_readme_table_matches_the_limits():
    text = (ROOT / "README.md").read_text()
    section = text.split("### Limits", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `"):
            rows[cells[0].strip("`")] = cells
    assert sorted(rows) == sorted(limits.LIMITS)
    for name, (_, value, unit, _, message) in rows.items():
        limit = limits.LIMITS[name]
        assert value.split()[0] == str(limit.value)
        assert unit == limit.unit
        assert (f"{name} limit: N requested, over the limit of "
                f"{limit.value} {limit.unit};") in message


def test_local_search_refuses_before_climbing(monkeypatch):
    # restarts 0 and 1 start from the multiplicative and greedy starts, the
    # rest from count-table samples; a refusal must come before any climb
    prob = cj.translation_problem(20001, 1, 2, 4)
    climbs = []
    with monkeypatch.context() as patch:
        patch.setattr(cj, "_climb", lambda *args: climbs.append(args))
        with pytest.raises(ValueError, match="count_table"):
            cj.local_search(prob, iters=10, restarts=3)
    assert climbs == []
    assert cj.local_search(prob, iters=10, restarts=2).iterations == 20


TABLE = limits.LIMITS["table_entries"].value


@pytest.mark.parametrize("name,call", [
    ("table_entries", lambda: ap.make_approx("z2", TABLE + 1, p=1, q=2).psi_a),
    ("table_entries", lambda: ap.make_approx("heis", 2049).psi_b),
    ("table_entries", lambda: ap.amplify_spec(
        ap.make_approx("z2", 11, p=2, q=3), TABLE + 1).psi_a),
    ("table_entries", lambda: pm.amplify(pm.Perm([1, 0]), TABLE + 1)),
    ("table_entries", lambda: hg.random_tables(47, seed=0)),
    ("table_entries", lambda: hg.make_action(47, [1] * 47, [1] * 47)),
    ("count_table", lambda: pm.count_order_dividing(20001, 4)),
    ("count_table", lambda: pm.sample_order_k(20001, 4, seed=0)),
    ("count_work", lambda: pm.count_order_dividing(20000, 2520)),
    ("count_work", lambda: hr.heuristic_report(5000, 5040, 0, 0)),
    ("brute_force_n", lambda: cj.brute_force(cj.translation_problem(10, 1, 2, 4))),
    ("probe_depth", lambda: hg.injectivity_probe(
        hg.make_action(3, [1, 1, 1], [1, 1, 1]), 7)),
    ("poly_C", lambda: ap.check_poly_condition(9, 2, 5)),
    ("ball_elements", lambda: gr.ball("metab", 40)),
    ("heuristic_n", lambda: hr.heuristic_report(5001, 4, 0, 0)),
])
def test_call_sites_refuse_past_the_limit(name, call):
    with pytest.raises(ValueError, match=name):
        call()


def test_refused_table_is_never_allocated():
    # heis n = 2049 is the smallest refused heis modulus; its 33.6 MB table
    # is one numpy could allocate, so a check after the allocation would show
    # in the traced peak
    n = 2049
    table_bytes = n * n * 8
    spec = ap.make_approx("heis", n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="table_entries"):
            spec.psi_a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 10


def _limit_address_space():
    two_gb = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (two_gb, two_gb))


@pytest.fixture
def table_files(tmp_path):
    files = {}
    for name, obj in (("perm", [1, 0]), ("f", [1, 1]), ("lam", [1, 1])):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj))
    return files


SWEEP = [
    ("table_entries", ["make-approx", "--group", "heis", "--n", "100000"]),
    # a record above serialize.SPEC_TABLE_POINTS builds no table, and is
    # refused all the same
    ("table_entries", ["make-approx", "--group", "z2", "--n", "4194305",
                       "--p", "1", "--q", "2"]),
    ("table_entries", ["higman-action", "--p", "1009", "--random"]),
    ("table_entries", ["amplify", "--perm", "{perm}",
                       "--target-n", "1000000000000"]),
    ("table_entries", ["search", "--group", "z2", "--n", "1000000000000",
                       "--p", "1", "--q", "5", "--k", "4", "--algo", "exact"]),
    ("count_table", ["count-orders", "--n", "200000", "--k", "4"]),
    ("count_work", ["count-orders", "--n", "20000", "--k", "2520"]),
    ("count_work", ["heuristic", "--n", "5000", "--k", "5040"]),
    ("table_entries", ["higman-action", "--p", "1000000007", "--random"]),
    ("table_entries", ["higman-action", "--p", "1000000000000000003",
                       "--f-table", "{f}", "--lambda-table", "{lam}"]),
    # the default 16 restarts reach the sampled starts
    ("count_table", ["search", "--group", "z2", "--n", "30000",
                     "--p", "1", "--q", "2", "--k", "4"]),
]


def _child(argv, cwd):
    """``python -m soficperm argv`` on this checkout in a 2 GB address
    space: a regression to allocating shows as a MemoryError traceback
    (exit 1), not as a machine out of memory; the timeout catches one that
    computes instead of refusing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "soficperm", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=20, preexec_fn=_limit_address_space)


@pytest.mark.parametrize("name,argv", SWEEP, ids=lambda v: (
    "-".join(v[:3]) if isinstance(v, list) else v))
def test_oversized_cli_requests_exit_2(name, argv, table_files, tmp_path):
    argv = [a.format(**{k: str(v) for k, v in table_files.items()})
            for a in argv]
    proc = _child(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert name in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ball_elements_refuses_within_a_second(tmp_path, capsys):
    # metab radius 40 has about 4 * 3^39 words; the search stops at the
    # first elements past the limit, a fraction of a second in
    assert cli.run(["make-approx", "--group", "metab", "--n", "11", "--p",
                    "2", "--q", "3", "--out", str(tmp_path / "metab.json")]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    proc = _child(["verify", "--spec", "metab.json", "--ball", "40",
                   "--delta", "1/10"], tmp_path)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    limit = limits.LIMITS["ball_elements"].value
    assert proc.stderr.startswith(
        f"error: ball_elements limit: {limit + 1} requested, over the limit "
        f"of {limit} elements;")
    assert elapsed < 1

"""Command-line behavior: exit codes, record shape, reproducibility."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficperm import approx, cli, groups, higman, serialize
from soficperm.cli import run
from soficperm.perm import count_order_dividing


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unlimited_digits(fn, *args):
    """fn(*args) with the interpreter's int <-> str digit cap lifted."""
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        return fn(*args)
    saved = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        return fn(*args)
    finally:
        set_digits(saved)


def spec_file(tmp_path, capsys, *args):
    # one file per argument list, so a second spec does not overwrite the
    # first
    path = tmp_path / ("spec" + "_".join(args) + ".json")
    code, _, _ = invoke(capsys, ["make-approx", *args, "--out", str(path)])
    assert code == 0
    return str(path)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = invoke(capsys, ["count-orders", "--n", "4", "--k", "4"])
        assert code == 0
        assert json.loads(out)["result"]["count"] == 16

    def test_flag_error_is_2(self, capsys):
        assert invoke(capsys, ["count-orders", "--n", "4"])[0] == 2
        assert invoke(capsys, ["no-such-command"])[0] == 2
        assert invoke(capsys, ["count-orders", "--n", "4", "--k", "4",
                               "--format", "xml"])[0] == 2

    def test_help_is_0(self, capsys):
        assert invoke(capsys, ["--help"])[0] == 0
        assert invoke(capsys, ["verify", "--help"])[0] == 0

    def test_bad_value_is_2(self, capsys):
        code, out, err = invoke(
            capsys, ["make-approx", "--group", "bs", "--n", "10", "--m", "2"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_out_is_2(self, tmp_path, capsys, monkeypatch,
                                 target):
        # refused before the command runs, in open's own words
        calls = []
        monkeypatch.setitem(cli._COMMANDS, "count-orders", calls.append)
        out_path = tmp_path / ("no/such/dir/x.json" if target == "missing"
                               else "")
        code, out, err = invoke(capsys, ["count-orders", "--n", "8", "--k",
                                         "4", "--out", str(out_path)])
        assert code == 2
        assert out == ""
        with pytest.raises(OSError) as opened:
            open(out_path, "w")
        assert err == f"error: {opened.value}\n"
        assert calls == []

    def test_failing_run_leaves_an_existing_out_file(self, tmp_path, capsys):
        path = tmp_path / "rec.json"
        path.write_text("kept\n")
        code, _, _ = invoke(capsys, ["verify", "--spec",
                                     str(tmp_path / "missing.json"), "--ball",
                                     "1", "--delta", "1/10", "--out",
                                     str(path)])
        assert code == 2
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("payload", [[1, 0, 2], {"n": 11}])
    def test_spec_file_that_is_not_a_spec_is_2(self, tmp_path, capsys,
                                               payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        code, out, err = invoke(capsys, ["verify", "--spec", str(path),
                                         "--ball", "1", "--delta", "1/10"])
        assert code == 2
        assert out == ""
        assert err == ("error: a spec record must be a JSON object with "
                       "'family' and 'n'\n")

    def test_pairs_file_without_pairs_is_2(self, tmp_path, capsys):
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "13",
                         "--p", "1", "--q", "5")
        perm = tmp_path / "f.json"
        perm.write_text(json.dumps([(5 * x) % 13 for x in range(13)]))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[["a", 1]]]))
        code, out, err = invoke(capsys, ["defect", "--spec", spec,
                                         "--perm", str(perm),
                                         "--pairs", str(pairs)])
        assert code == 2
        assert out == ""
        assert err == ("error: --pairs must be a JSON list of [word, word] "
                       "pairs\n")

    @pytest.mark.parametrize("raw,bad", [
        ([["ab", [["a", 1]]]], "a word must be a list of [gen, exp] letters, "
                               "got 'ab'"),
        ([[[["a", 1]], {"a": 1}]], "a word must be a list of [gen, exp] "
                                   "letters, got {'a': 1}"),
        ([[[["a", 1, 2]], []]], "a letter must be a [gen, exp] pair, "
                                "got ['a', 1, 2]"),
        ([[[["a", 1]], [["b"]]]], "a letter must be a [gen, exp] pair, "
                                  "got ['b']"),
        ([[["a", 1], [["b", 1]]]], "a letter must be a [gen, exp] pair, "
                                   "got 'a'"),
    ])
    def test_pairs_with_a_bad_letter_are_2(self, tmp_path, capsys, raw, bad):
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "13",
                         "--p", "1", "--q", "5")
        perm = tmp_path / "f.json"
        perm.write_text(json.dumps([(5 * x) % 13 for x in range(13)]))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps(raw))
        code, out, err = invoke(capsys, ["defect", "--spec", spec,
                                         "--perm", str(perm),
                                         "--pairs", str(pairs)])
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}\n"

    def test_perm_object_without_a_perm_key_is_2(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"x": 1}')
        code, out, err = invoke(capsys, ["amplify", "--perm", str(path),
                                         "--target-n", "4"])
        assert code == 2
        assert out == ""
        assert err == (f"error: {path}: a permutation object needs a 'perm' "
                       "or an 'f' key\n")

    @pytest.mark.parametrize("argv", [
        ["amplify", "--perm", "{path}", "--target-n", "10"],
        ["verify", "--spec", "{path}", "--ball", "1", "--delta", "1/10"]])
    def test_deeply_nested_json_is_2(self, tmp_path, capsys, argv):
        # json.load raises RecursionError on this, which is no computation
        # failure
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = invoke(capsys, [a.format(path=path) for a in argv])
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: JSON nested too deeply\n"

    def test_workers_flag_is_gone(self, capsys):
        code, _, _ = invoke(capsys, ["count-orders", "--n", "4", "--k", "4",
                                     "--workers", "1"])
        assert code == 2

    def test_verify_pass_and_fail(self, tmp_path, capsys):
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "10",
                         "--p", "2", "--q", "3")
        code, out, _ = invoke(capsys, ["verify", "--spec", spec,
                                       "--ball", "2", "--delta", "1/10"])
        assert code == 0
        assert json.loads(out)["result"]["passed"] is True

        code, out, err = invoke(capsys, ["verify", "--spec", spec,
                                         "--ball", "5", "--delta", "1/10"])
        assert code == 1
        assert json.loads(out)["result"]["passed"] is False
        assert "failure" in err

    @pytest.mark.parametrize("delta", ["0", "-1", "2", "1e400"])
    def test_verify_delta_outside_unit_interval_is_2(self, tmp_path, capsys,
                                                     monkeypatch, delta):
        # named as typed, since the value of 1e400 has 401 digits, and
        # refused before a ball that takes seconds to build
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "10",
                         "--p", "2", "--q", "3")
        built = []
        monkeypatch.setattr(groups, "ball", lambda *a, **k: built.append(a))
        code, out, err = invoke(capsys, ["verify", "--spec", spec, "--ball",
                                         "300", f"--delta={delta}"])
        assert code == 2
        assert out == ""
        assert err == f"error: delta must lie in (0, 1], got {delta}\n"
        assert built == []

    @pytest.mark.parametrize("command,budget,message", [
        ("align", ["--restarts", "0"], "restarts must be >= 1"),
        ("align", ["--iters", "-1"], "iters must be >= 0"),
        ("search", ["--iters", "-5"], "iters must be >= 0"),
    ])
    def test_search_budget_below_range_is_2(self, tmp_path, capsys, command,
                                            budget, message):
        if command == "align":
            spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "9",
                             "--p", "1", "--q", "2")
            argv = ["align", "--spec1", spec, "--spec2", spec, "--ball", "1"]
        else:
            argv = ["search", "--group", "z2", "--n", "9", "--p", "1",
                    "--q", "2", "--k", "4", "--algo", "local"]
        code, out, err = invoke(capsys, argv + budget)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("command,budget", [
        ("align", ["--restarts", "-5"]),
        ("align", ["--iters", "-1"]),
        ("search", ["--restarts", "0"]),
    ])
    def test_search_budget_is_checked_before_any_build(
            self, tmp_path, capsys, monkeypatch, command, budget):
        # a ball this deep takes seconds to build; the budget is refused
        # before the specs are read or the ball or problem is built
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "9",
                         "--p", "1", "--q", "2")
        built = []
        monkeypatch.setattr(groups, "ball", lambda *a, **k: built.append(a))
        monkeypatch.setattr(cli, "_search_problem", built.append)
        monkeypatch.setattr(cli, "_load_spec", built.append)
        if command == "align":
            argv = ["align", "--spec1", spec, "--spec2", spec,
                    "--ball", "300"]
        else:
            argv = ["search", "--spec", spec, "--k", "4"]
        code, out, err = invoke(capsys, argv + budget)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert built == []

    @pytest.mark.parametrize("argv,message", [
        (["make-approx", "--group", "heis", "--n", "3", "--p", "7", "--m",
          "5"], "heis takes no parameter p"),
        (["make-approx", "--group", "bs", "--n", "7", "--m", "2", "--q",
          "3"], "bs takes no parameter q"),
        (["search", "--group", "z2", "--n", "9", "--p", "1", "--q", "2",
          "--m", "3", "--k", "4"], "z2 takes no parameter m"),
    ])
    def test_a_parameter_the_family_does_not_take_is_2(self, capsys, argv,
                                                       message):
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("group,n,message", [
        ("z2", "11", "family mismatch between the two specs"),
        ("metab", "13", "degree mismatch between the two specs"),
    ])
    def test_align_refuses_mismatched_specs_before_the_ball(
            self, tmp_path, capsys, monkeypatch, group, n, message):
        # a metab ball of radius 10 takes seconds to build; specs align
        # cannot compare are refused before it is built
        paths = []
        for args in (["--group", "metab", "--n", "11"],
                     ["--group", group, "--n", n]):
            paths.append(str(tmp_path / f"spec{len(paths)}.json"))
            code, _, _ = invoke(capsys, ["make-approx", *args, "--p", "2",
                                         "--q", "3", "--out", paths[-1]])
            assert code == 0
        built = []
        monkeypatch.setattr(groups, "ball", lambda *a, **k: built.append(a))
        code, out, err = invoke(capsys, ["align", "--spec1", paths[0],
                                         "--spec2", paths[1], "--ball", "10"])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert built == []

    @pytest.mark.parametrize("source,extra,message", [
        ("spec", ["--n", "999"], "--n applies only with --group"),
        ("spec", ["--p", "5"], "--p applies only with --group"),
        ("files", ["--q", "3"], "--q applies only with --group"),
        ("files", ["--m", "7"], "--m applies only with --group"),
        ("group", ["--algo", "exact", "--iters", "5"],
         "--iters applies only to --algo local"),
        ("group", ["--algo", "brute", "--restarts", "-5"],
         "--restarts applies only to --algo local"),
        ("spec", ["--algo", "exact", "--iters", "5", "--restarts", "3"],
         "--iters applies only to --algo local"),
    ])
    def test_search_flags_the_run_ignores_are_2(
            self, tmp_path, capsys, monkeypatch, source, extra, message):
        # refused before any input is read, whatever its value
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "7",
                         "--p", "1", "--q", "5")
        read = []
        monkeypatch.setattr(cli, "_read_json", read.append)
        monkeypatch.setattr(cli, "_search_problem", read.append)
        argv = {"spec": ["--spec", spec],
                "files": ["--alpha", spec, "--beta", spec],
                "group": ["--group", "z2", "--n", "7", "--p", "1",
                          "--q", "5"]}[source]
        code, out, err = invoke(capsys, ["search", *argv, "--k", "6", *extra])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert read == []

    @pytest.mark.parametrize("command,rate", [
        ("verify", ["--delta", "1/0"]),
        ("heuristic", ["--eps", "1/0"]),
        ("heuristic", ["--eps-prime", "3/0"]),
    ])
    def test_zero_denominator_is_2(self, tmp_path, capsys, command, rate):
        if command == "verify":
            spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "10",
                             "--p", "2", "--q", "3")
            argv = ["verify", "--spec", spec, "--ball", "2"]
        else:
            argv = ["heuristic", "--n", "10", "--k", "4"]
        code, out, err = invoke(capsys, argv + rate)
        assert code == 2
        assert out == ""
        assert err == f"error: zero denominator in {rate[1]!r}\n"

    def test_non_integer_perm_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "perm.json"
        path.write_text("[0.5, 1]")
        code, out, err = invoke(capsys, ["amplify", "--perm", str(path),
                                         "--target-n", "4"])
        assert code == 2
        assert "integers" in err

    def test_non_integer_table_file_is_2(self, tmp_path, capsys):
        ftab = tmp_path / "f.json"
        ltab = tmp_path / "l.json"
        ftab.write_text("[1.5, 2.9, 3, 4, 1]")
        ltab.write_text("[1, 1, 1, 1, 1]")
        code, out, err = invoke(capsys, [
            "higman-action", "--p", "5", "--f-table", str(ftab),
            "--lambda-table", str(ltab)])
        assert code == 2
        assert out == ""
        assert "integers" in err

    def test_non_integer_word_exponent_is_2(self, tmp_path, capsys):
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "13",
                         "--p", "1", "--q", "5")
        perm = tmp_path / "f.json"
        perm.write_text(json.dumps([(5 * x) % 13 for x in range(13)]))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[[["b", 1.5]], [["a", 1]]]]))
        code, out, err = invoke(capsys, ["defect", "--spec", spec,
                                         "--perm", str(perm),
                                         "--pairs", str(pairs)])
        assert code == 2
        assert out == ""
        assert "integer" in err

    def test_counts_past_the_int_digit_cap(self, capsys):
        # count(5000, 4) has over 4300 digits, the default int -> str cap
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = invoke(capsys, ["count-orders", "--n", "5000",
                                       "--k", "4"])
        assert code == 0
        record = unlimited_digits(json.loads, out)
        assert record["result"]["count"] == count_order_dividing(5000, 4)
        code, out, _ = invoke(capsys, ["heuristic", "--n", "5000", "--k", "4",
                                       "--format", "csv"])
        assert code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("rate", [["--eps", "1e400"],
                                      ["--eps-prime", "11/10"],
                                      ["--eps=-1/10"]])
    def test_heuristic_rate_outside_unit_interval_is_2(self, capsys, fmt,
                                                      rate):
        code, out, err = invoke(capsys, ["heuristic", "--n", "10", "--k", "4",
                                         *rate, "--format", fmt])
        assert code == 2
        assert out == ""
        assert "error:" in err and "[0, 1]" in err
        assert "Traceback" not in err

    def test_exact_search_on_one_point(self, capsys):
        code, out, _ = invoke(capsys, [
            "search", "--group", "z2", "--n", "1", "--p", "0", "--q", "0",
            "--k", "4", "--algo", "exact"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["agreement_count"] == 1
        assert result["agreement_fraction"] == [1, 1]

    def test_exact_search_miss_is_1(self, capsys):
        code, out, err = invoke(capsys, [
            "search", "--group", "z2", "--n", "7", "--p", "1", "--q", "2",
            "--k", "2", "--algo", "exact"])
        assert code == 1
        assert json.loads(out)["result"] is None


class TestRecordShape:
    def test_json_record(self, capsys):
        code, out, _ = invoke(capsys, ["count-orders", "--n", "4", "--k", "2",
                                       "--seed", "9"])
        rec = json.loads(out)
        assert rec["schema"] == 1
        assert rec["command"] == "count-orders"
        assert rec["seed"] == 9
        assert rec["config"]["subcommand"] == "count-orders"
        assert rec["config"]["options"]["n"] == 4
        assert list(rec["config"]) == ["subcommand", "options", "seed", "out"]

    def test_default_seed_echoed(self, capsys):
        rec = json.loads(invoke(capsys, ["count-orders", "--n", "3",
                                         "--k", "2"])[1])
        assert rec["seed"] == 0

    def test_csv_rows(self, capsys):
        code, out, _ = invoke(capsys, ["count-orders", "--n", "4", "--k", "4",
                                       "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["schema"] == "1"
        assert row["command"] == "count-orders"
        assert row["count"] == "16"
        cfg = json.loads(row["config"])
        assert cfg["subcommand"] == "count-orders"

    def test_diagnostics_only_on_stderr(self, capsys):
        _, out, err = invoke(capsys, ["count-orders", "--n", "4", "--k", "4"])
        json.loads(out)  # stdout is pure data
        assert "elapsed_s" in err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "rec.json"
        code, out, _ = invoke(capsys, ["count-orders", "--n", "4", "--k", "4",
                                       "--out", str(path)])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["result"]["count"] == 16


class TestReproducibility:
    def test_same_invocation_same_bytes(self, capsys):
        argv = ["heuristic", "--n", "40", "--k", "4", "--format", "csv"]
        one = invoke(capsys, argv)[1]
        two = invoke(capsys, argv)[1]
        assert one == two

    def test_seed_changes_random_draw(self, capsys):
        def tables_for(seed):
            _, out, _ = invoke(capsys, [
                "higman-action", "--p", "5", "--random", "--seed", seed])
            res = json.loads(out)["result"]
            return res["f_table"], res["lambda_table"]
        assert tables_for("0") != tables_for("1")


class TestSubcommands:
    def test_exact_search_frozen_example(self, capsys):
        _, out, _ = invoke(capsys, [
            "search", "--group", "z2", "--n", "13", "--p", "1", "--q", "5",
            "--k", "4", "--algo", "exact"])
        res = json.loads(out)["result"]
        assert res["agreement_fraction"] == [1, 1]
        assert res["f"] == [(5 * x) % 13 for x in range(13)]

    def test_search_requires_one_source(self, tmp_path, capsys):
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "13",
                         "--p", "1", "--q", "5")
        code, _, err = invoke(capsys, [
            "search", "--spec", spec, "--group", "z2", "--n", "13",
            "--k", "4"])
        assert code == 2 and "source" in err

    def test_search_alpha_beta_files(self, tmp_path, capsys):
        alpha = tmp_path / "alpha.json"
        beta = tmp_path / "beta.json"
        alpha.write_text(json.dumps([(x + 1) % 9 for x in range(9)]))
        beta.write_text(json.dumps([(x + 2) % 9 for x in range(9)]))
        code, out, _ = invoke(capsys, [
            "search", "--alpha", str(alpha), "--beta", str(beta),
            "--k", "4", "--algo", "brute"])
        assert code == 0
        assert json.loads(out)["result"]["algorithm"] == "brute"

    def test_amplify_then_defect_pipeline(self, tmp_path, capsys):
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "26",
                         "--p", "1", "--q", "5")
        perm13 = tmp_path / "f13.json"
        perm13.write_text(json.dumps([(5 * x) % 13 for x in range(13)]))
        amp = tmp_path / "f26.json"
        code, _, _ = invoke(capsys, ["amplify", "--perm", str(perm13),
                                     "--target-n", "26", "--out", str(amp)])
        assert code == 0
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[[["b", 1]], [["a", 1]]]]))
        code, out, _ = invoke(capsys, ["defect", "--spec", spec,
                                       "--perm", str(amp),
                                       "--pairs", str(pairs)])
        assert code == 0
        num, den = json.loads(out)["result"]["defect"]
        assert 0 < num <= den  # amplified conjugator is only approximate

    def test_align_record(self, tmp_path, capsys):
        s1 = spec_file(tmp_path, capsys, "--group", "z2", "--n", "9",
                       "--p", "1", "--q", "2")
        s2 = spec_file(tmp_path, capsys, "--group", "z2", "--n", "9",
                       "--p", "2", "--q", "1")
        assert s1 != s2
        assert [json.loads(Path(s).read_text())["result"]["p"]
                for s in (s1, s2)] == [1, 2]
        code, out, _ = invoke(capsys, ["align", "--spec1", s1, "--spec2", s2,
                                       "--ball", "1"])
        assert code == 0
        record = json.loads(out)
        options = record["config"]["options"]
        assert (options["spec1"], options["spec2"]) == (s1, s2)
        res = record["result"]
        assert len(res["tau"]) == 9
        assert len(res["per_element"]) == 5

    def test_higman_action_random_and_probe(self, capsys):
        code, out, _ = invoke(capsys, [
            "higman-action", "--p", "3", "--random", "--check",
            "--window", "2", "--probe-depth", "2", "--seed", "1"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["relations"]["passed"] is True
        assert res["probe"]["nontrivial_identities"] == []

    def test_higman_action_probe_depth_below_zero_is_2(self, capsys):
        argv = ["higman-action", "--p", "3", "--random", "--probe-depth"]
        code, out, err = invoke(capsys, argv + ["-1"])
        assert code == 2
        assert out == ""
        assert "error: depth must be >= 0" in err
        code, out, _ = invoke(capsys, argv + ["0"])
        assert code == 0
        assert json.loads(out)["result"]["probe"] is None

    def test_higman_action_table_files(self, tmp_path, capsys):
        ftab = tmp_path / "f.json"
        ltab = tmp_path / "l.json"
        ftab.write_text("[1, 1, 1]")
        ltab.write_text("[1, 1, 1]")
        code, out, _ = invoke(capsys, [
            "higman-action", "--p", "3", "--f-table", str(ftab),
            "--lambda-table", str(ltab), "--probe-depth", "3"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["probe"]["nontrivial_identities"]  # degenerate tables

    @pytest.mark.parametrize("flag", ["--f-table", "--lambda-table"])
    @pytest.mark.parametrize("text", ["3", "null"])
    def test_higman_action_table_file_without_length_is_2(self, tmp_path,
                                                          capsys, flag, text):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        good.write_text("[1, 1, 1]")
        bad.write_text(text)
        argv = ["higman-action", "--p", "3", "--f-table", str(good),
                "--lambda-table", str(good)]
        argv[argv.index(flag) + 1] = str(bad)
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        name = flag[2:].replace("-", "_")
        assert f"error: {name} must be a list of 3 integers" in err

    def test_higman_action_record_builds_no_perms(self, tmp_path, capsys):
        # p^4 = 3418801 points: one int64 table of them is 27.3 MB, and
        # the five permutations were built for a record that lists none
        path = tmp_path / "a43.json"
        tracemalloc.start()
        try:
            code = run(["higman-action", "--p", "43", "--random",
                        "--out", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 43 ** 4 * 8
        result = json.loads(path.read_text())["result"]
        assert list(result) == ["p", "f_table", "lambda_table", "relations",
                                "probe"]

    def test_higman_action_record_above_the_table_points(self, tmp_path,
                                                        capsys):
        # p^4 = 279841 points: the record holds p and the tables, which
        # rebuild the same five permutations
        path = tmp_path / "a23.json"
        code, _, _ = invoke(capsys, ["higman-action", "--p", "23", "--random",
                                     "--seed", "4", "--out", str(path)])
        assert code == 0
        result = json.loads(path.read_text())["result"]
        assert list(result) == ["p", "f_table", "lambda_table", "relations",
                                "probe"]
        assert path.stat().st_size < 10_000
        want = higman.make_action(23, *higman.random_tables(23, 4))
        got = higman.make_action(result["p"], result["f_table"],
                                 result["lambda_table"])
        assert got.perms == want.perms

    def test_higman_action_flag_conflicts(self, tmp_path, capsys):
        assert invoke(capsys, ["higman-action", "--p", "3"])[0] == 2
        ftab = tmp_path / "f.json"
        ftab.write_text("[1, 1, 1]")
        assert invoke(capsys, ["higman-action", "--p", "3", "--random",
                               "--f-table", str(ftab)])[0] == 2

    @pytest.mark.parametrize("p", ["0", "1", "-3"])
    def test_higman_action_random_refuses_non_prime_p(self, capsys, p):
        code, out, err = invoke(capsys, ["higman-action", "--p", p,
                                         "--random"])
        assert code == 2 and out == ""
        assert f"p={p} is not prime" in err and "Traceback" not in err

    def test_heuristic_record(self, capsys):
        code, out, _ = invoke(capsys, ["heuristic", "--n", "100", "--k", "4"])
        res = json.loads(out)["result"]
        assert res["pk_model_coeff"] == [-11, 50]
        assert res["count"] > 0

    def test_make_approx_csv_header_documented(self, capsys):
        code, out, _ = invoke(capsys, ["make-approx", "--group", "heis",
                                       "--n", "4", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["npoints"] == "16"
        assert len(rows[0]["psi_a"].split()) == 16


class TestSpecRecords:
    """Above serialize.SPEC_TABLE_POINTS a spec record holds its parameters
    and no tables; make-approx builds none and verify --spec needs none."""

    BIG = ["--group", "z2", "--n", "1000003", "--p", "31337", "--q", "77777"]

    @staticmethod
    def _spy(monkeypatch, module, name):
        """Wrap module.name so that every spec it returns is kept."""
        specs = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            specs.append(real(*args, **kwargs))
            return specs[-1]
        monkeypatch.setattr(module, name, spy)
        return specs

    @staticmethod
    def _untabled(spec):
        return "psi_a" not in vars(spec) and "psi_b" not in vars(spec)

    def test_parameters_only_and_verify(self, tmp_path, capsys, monkeypatch):
        made = self._spy(monkeypatch, approx, "make_approx")
        loaded = self._spy(monkeypatch, serialize, "spec_from_obj")
        path = tmp_path / "big.json"
        code, _, _ = invoke(capsys, ["make-approx", *self.BIG,
                                     "--out", str(path)])
        assert code == 0
        result = json.loads(path.read_text())["result"]
        assert result == {"family": "z2", "n": 1000003, "p": 31337,
                          "q": 77777}
        code, out, _ = invoke(capsys, ["verify", "--spec", str(path),
                                       "--ball", "2", "--delta", "1/10"])
        assert code == 0
        spec = approx.make_approx("z2", 1000003, p=31337, q=77777)
        want = approx.verify(spec, groups.ball("z2", 2), Fraction(1, 10))
        assert json.loads(out)["result"] == serialize.verify_report_to_obj(want)
        assert len(loaded) == 1
        assert all(map(self._untabled, made + loaded))

    def test_csv_psi_cells_empty(self, capsys, monkeypatch):
        made = self._spy(monkeypatch, approx, "make_approx")
        code, out, _ = invoke(capsys, ["make-approx", *self.BIG,
                                       "--format", "csv"])
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["npoints"] == "1000003"
        assert row["psi_a"] == row["psi_b"] == ""
        assert self._untabled(made[0])

    def test_tabled_record_above_threshold_checked(self, tmp_path, capsys,
                                                   monkeypatch):
        path = tmp_path / "spec.json"
        code, _, _ = invoke(capsys, ["make-approx", "--group", "z2", "--n",
                                     "11", "--p", "2", "--q", "3",
                                     "--out", str(path)])
        assert code == 0
        record = json.loads(path.read_text())
        assert "psi_a" in record["result"]
        # the record now lists tables that a new one would leave out
        monkeypatch.setattr(serialize, "SPEC_TABLE_POINTS", 5)
        argv = ["verify", "--spec", str(path), "--ball", "2", "--delta",
                "1/10"]
        code, _, _ = invoke(capsys, argv)
        assert code == 0
        psi_a = record["result"]["psi_a"]
        psi_a[0], psi_a[1] = psi_a[1], psi_a[0]
        path.write_text(json.dumps(record))
        code, out, err = invoke(capsys, argv)
        assert code == 2 and out == ""
        assert "stored psi_a disagrees" in err


# JSON trees for the writer: every scalar json.dumps accepts, keys of every
# accepted type, strings holding the writer's separators, and number lists
_numbers = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(),
    # over the interpreter's 4300-digit cap on int -> str conversion
    st.builds(lambda e, sign: sign * (10**e + 7), st.integers(4300, 4400),
              st.sampled_from([1, -1])))
_texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from([",", " ", ", ", "[", "]", "{", "}", '"', ":",
                              "\n", "\\", "a", "1", "\u00e9", "\u4e2d",
                              "\U0001f600"])).map("".join))
_keys = st.one_of(_texts, st.integers(), st.floats(), st.booleans(),
                  st.none())
_number_lists = st.lists(_numbers) | st.lists(_numbers).map(tuple)
_trees = st.recursive(
    st.one_of(_numbers, _texts, _number_lists),
    lambda kids: st.one_of(st.lists(kids), st.lists(kids).map(tuple),
                           st.dictionaries(_keys, kids)),
    max_leaves=15)


class TestWriter:
    """cli._dumps is json.dumps(obj, indent=2), byte for byte."""

    @given(_trees)
    @settings(max_examples=150, deadline=None)
    def test_matches_stdlib_indented(self, obj):
        assert unlimited_digits(cli._dumps, obj) == unlimited_digits(
            lambda: json.dumps(obj, indent=2))

    @pytest.mark.parametrize("obj", [
        [], (), {}, [[]], {"a": {}}, [1, [2, [3, []]], 4.5],
        [float("nan"), float("inf"), -float("inf"), -0.0, True, None],
        {1: [1, 2], 2.5: "x", True: (), None: [None], float("nan"): 0},
        ["a, b", 1], [", ", "[", "{", '"'], {"k, [": [1, 2], '"': "\n"},
    ])
    def test_edge_cases(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    def test_unencodable_still_raises(self):
        for obj in ([object()], {"a": {1, 2}}, {(1, 2): 0}):
            with pytest.raises(TypeError):
                cli._dumps(obj)


def test_main_raises_systemexit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["soficperm", "count-orders",
                                     "--n", "3", "--k", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0


def _module_run(module, *argv):
    """``python -m module argv`` in a fresh interpreter on this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_module_runs_as_a_script():
    # python -m soficperm.cli is the same program as python -m soficperm
    proc = _module_run("soficperm.cli", "higman-action", "--p", "1",
                       "--random")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "p=1 is not prime" in proc.stderr
    argv = ["count-orders", "--n", "8", "--k", "4"]
    via_cli = _module_run("soficperm.cli", *argv)
    via_package = _module_run("soficperm", *argv)
    assert via_cli.returncode == via_package.returncode == 0
    assert via_cli.stdout == via_package.stdout != ""


def _python(code, *args):
    """``python -c code args`` in a fresh interpreter on this checkout, with
    an 80-column terminal for argparse."""
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# any import of numpy raises in a process that starts with this line
_NO_NUMPY = "import sys; sys.modules['numpy'] = None\n"


def test_count_orders_loads_only_its_own_modules(tmp_path):
    # the package, the cli and a count-orders run load none of the modules
    # of the other commands, and not numpy
    code = (
        _NO_NUMPY + "import json\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('soficperm'))\n"
        "import soficperm\n"
        "seen = [loaded()]\n"
        "import soficperm.cli\n"
        "seen.append(loaded())\n"
        f"code = soficperm.cli.run(['count-orders', '--n', '8', '--k', '4', "
        f"'--out', {str(tmp_path / 'c.json')!r}])\n"
        "seen.append(loaded())\n"
        "print(json.dumps([code, seen]))\n")
    exit_code, (package, imported, ran) = _python(code)
    assert exit_code == 0
    assert package == ["soficperm"]
    assert imported == ran == [
        "soficperm", "soficperm.cli", "soficperm.groups", "soficperm.limits",
        "soficperm.perm", "soficperm.serialize"]


def _without_elapsed(err):
    return "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith("elapsed_s="))


@pytest.mark.parametrize("argv", [
    ["count-orders", "--n", "8", "--k", "4"],
    ["count-orders", "--n", "9", "--k", "6", "--format", "csv"],
    ["heuristic", "--n", "10", "--k", "4"],
    ["--help"],
    ["count-orders", "--help"],
    ["no-such-command"],
    ["count-orders", "--n", "8"],
    ["verify", "--spec", "{spec}", "--ball", "2", "--delta", "1/0"],
], ids=" ".join)
def test_commands_without_array_work_never_import_numpy(
        argv, tmp_path, capsys, monkeypatch):
    # each exits as it does with numpy importable and writes the same bytes
    spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "10", "--p",
                     "2", "--q", "3")
    argv = [a.format(spec=spec) for a in argv]
    code = (
        _NO_NUMPY + "import contextlib, io, json\n"
        "import soficperm.cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    code = soficperm.cli.run(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, out.getvalue(), err.getvalue()]))\n")
    blocked, out, err = _python(code, json.dumps(argv))
    monkeypatch.setenv("COLUMNS", "80")
    want_code, want_out, want_err = invoke(capsys, argv)
    assert blocked == want_code
    assert out == want_out
    assert _without_elapsed(err) == _without_elapsed(want_err)


def test_the_first_array_operation_binds_numpy():
    # perm is the one module that imports numpy lazily: make-approx builds
    # tables, and its first array operation rebinds perm.np to numpy itself
    code = (
        "import json, sys\n"
        "import soficperm.cli\n"
        "from soficperm import perm\n"
        "before = ['numpy' in sys.modules, type(perm.np).__name__]\n"
        "code = soficperm.cli.run(['make-approx', '--group', 'z2', '--n', "
        "'11', '--p', '2', '--q', '3', '--out', sys.argv[1]])\n"
        "import numpy\n"
        "print(json.dumps([code, before, perm.np is numpy]))\n")
    code, before, after = _python(code, os.devnull)
    assert code == 0
    assert before == [False, "_NumpyOnFirstUse"]
    assert after is True


def test_heuristic_loads_only_its_own_modules(tmp_path):
    # the tolerance parser lives in serialize, so heuristic loads no approx
    code = (
        "import json, sys\n"
        "import soficperm.cli\n"
        "code = soficperm.cli.run(['heuristic', '--n', '10', '--k', '4', "
        f"'--out', {str(tmp_path / 'h.json')!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules "
        "if m.startswith('soficperm'))]))\n")
    exit_code, loaded = _python(code)
    assert exit_code == 0
    assert loaded == [
        "soficperm", "soficperm.cli", "soficperm.groups",
        "soficperm.heuristic", "soficperm.limits", "soficperm.perm",
        "soficperm.serialize"]


def test_groups_is_arithmetic_without_numpy():
    code = (
        _NO_NUMPY + "import json\n"
        "from soficperm import groups\n"
        "S = groups.ball('metab', 3)\n"
        "a, b = groups.generator('metab', 'a'), groups.generator('metab', 'b')\n"
        "print(json.dumps([len(S), str(groups.mul(a, b).word), "
        "hasattr(groups, 'np')]))\n")
    assert _python(code) == [53, "a b", False]


# flags that parse, per subcommand; none of the files is read, since the
# test below replaces every command
_GOOD_ARGV = {
    "count-orders": ["--n", "8", "--k", "4"],
    "make-approx": ["--group", "z2", "--n", "11"],
    "verify": ["--spec", "s.json", "--ball", "2", "--delta", "1/10"],
    "search": ["--group", "z2", "--n", "13", "--k", "4"],
    "defect": ["--spec", "s.json", "--perm", "f.json", "--pairs", "p.json"],
    "amplify": ["--perm", "f.json", "--target-n", "9"],
    "align": ["--spec1", "a.json", "--spec2", "b.json", "--ball", "1"],
    "higman-action": ["--p", "3", "--random"],
    "heuristic": ["--n", "8", "--k", "4"],
}
_PARSE_CASES = [
    [], ["--help"], ["-h", "x"], ["no-such-command"], ["--"], ["-x"],
    ["--bogus", "1"], ["--format", "csv", *_GOOD_ARGV["count-orders"]],
    ["--", "count-orders", *_GOOD_ARGV["count-orders"]],
    ["--seed", "1", "count-orders", *_GOOD_ARGV["count-orders"]],
] + [
    argv for cmd, good in _GOOD_ARGV.items()
    for argv in ([cmd, "--help"], [cmd, "-h", "x"], [cmd],
                 [cmd, "--format", "xml"], [cmd, *good, "extra"],
                 [cmd, *good, "--seed", "x"], [cmd, *good, "count-orders"],
                 [cmd, *good, "--"], [cmd, "--", *good],
                 [cmd, *good, "--fo", "csv"], [cmd, *good, "--format=csv"],
                 [cmd, *good, "--bogus", "1"], [cmd, *good, "-x"])]


def test_parse_cases_cover_every_subcommand():
    assert sorted(_GOOD_ARGV) == sorted(cli._SUBCOMMANDS)


def _full_parse(argv):
    """What the parser of every subcommand does with argv: the items of
    its namespace, in order, or its exit code; and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(cli._build_parser().parse_args(argv)).items())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_partial_parser_prints_what_the_full_one_does(monkeypatch, capsys,
                                                      argv):
    # run() parses a named subcommand with that subcommand's parser alone;
    # at either width it hands the command the full parser's namespace, in
    # the same key order, or exits as the full parser does, printing the
    # same and nothing else
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {
        name: lambda ns: seen.append(list(vars(ns).items())) or ({}, [])
        for name in cli._COMMANDS})
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        seen.clear()
        code, out, err = invoke(capsys, argv)
        full, full_out, full_err = _full_parse(argv)
        if isinstance(full, list):
            assert code == 0 and seen == [full]
        else:
            assert (code, out, err) == (0 if full in (0, None) else 2,
                                        full_out, full_err)
            assert seen == [] and out + err != ""


def test_run_builds_only_the_invoked_subcommands_flags(monkeypatch, capsys):
    # one parser, the subcommand's own, with its flags alone
    built, calls = [], []
    init = argparse.ArgumentParser.__init__
    add_argument = argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting(self, *args, **kwargs):
        calls.append((self.prog, args))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert invoke(capsys, ["count-orders", "--n", "8", "--k", "4"])[0] == 0
    assert built == ["soficperm count-orders"]
    flags = [(prog, args) for prog, args in calls if args != ("-h", "--help")]
    assert flags == [("soficperm count-orders", (flag,))
                     for flag in ("--format", "--seed", "--out", "--n", "--k")]

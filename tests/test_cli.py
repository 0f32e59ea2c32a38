"""Command-line behavior: exit codes, record shape, reproducibility."""

import csv
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficperm import approx, cli, groups, serialize
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
    path = tmp_path / "spec.json"
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

    @pytest.mark.parametrize("delta", ["0", "-1", "2"])
    def test_verify_delta_outside_unit_interval_is_2(self, tmp_path, capsys,
                                                     delta):
        spec = spec_file(tmp_path, capsys, "--group", "z2", "--n", "10",
                         "--p", "2", "--q", "3")
        code, out, err = invoke(capsys, ["verify", "--spec", spec, "--ball",
                                         "2", f"--delta={delta}"])
        assert code == 2
        assert out == ""
        assert "delta" in err

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
        code, out, _ = invoke(capsys, ["align", "--spec1", s1, "--spec2", s2,
                                       "--ball", "1"])
        assert code == 0
        res = json.loads(out)["result"]
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

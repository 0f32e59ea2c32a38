"""Pinned CLI bytes: a fixed command set, run in-process, hashed.

Each case runs one ``soficperm`` command through :func:`soficperm.cli.run`
and hashes its exit code, its stdout and, when it writes one, its ``--out``
file.  The temporary directory holding the inputs is replaced by a fixed
placeholder first, because records echo their input paths.  A changed digest
means a change in the bytes that users and scripts read; if such a change is
intended, it needs its own entry in CHANGES.md (and a schema bump when the
record shape moves) before the digest here is updated.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from soficperm import approx, cli, serialize

PLACEHOLDER = "<TMP>"

# name -> argv; "{tmp}" stands for the directory holding the input files
CASES = {
    "count-orders": ["count-orders", "--n", "10", "--k", "4"],
    "count-orders-2500": ["count-orders", "--n", "2500", "--k", "2"],
    "make-approx-z2": ["make-approx", "--group", "z2", "--n", "11",
                       "--p", "2", "--q", "3"],
    "make-approx-heis": ["make-approx", "--group", "heis", "--n", "5"],
    "make-approx-bs": ["make-approx", "--group", "bs", "--n", "11",
                       "--m", "2"],
    "make-approx-zwrz": ["make-approx", "--group", "zwrz", "--n", "11",
                         "--m", "3"],
    "make-approx-metab": ["make-approx", "--group", "metab", "--n", "11",
                          "--p", "2", "--q", "3"],
    "make-approx-out": ["make-approx", "--group", "bs", "--n", "7",
                        "--m", "3", "--out", "{tmp}/out-spec"],
    "verify-pass": ["verify", "--spec", "{tmp}/z2.json", "--ball", "2",
                    "--delta", "1/10"],
    "verify-fail": ["verify", "--spec", "{tmp}/z2.json", "--ball", "5",
                    "--delta", "1/10"],
    "verify-heis": ["verify", "--spec", "{tmp}/heis.json", "--ball", "2",
                    "--delta", "0.5"],
    "search-exact": ["search", "--group", "z2", "--n", "13", "--p", "1",
                     "--q", "5", "--k", "4", "--algo", "exact"],
    "search-exact-obstructed": ["search", "--group", "z2", "--n", "10",
                                "--p", "1", "--q", "2", "--k", "4",
                                "--algo", "exact"],
    "search-brute-spec": ["search", "--spec", "{tmp}/z2_7.json", "--k", "3",
                          "--algo", "brute"],
    "search-local": ["search", "--group", "bs", "--n", "20", "--m", "3",
                     "--k", "4", "--iters", "2000", "--restarts", "3",
                     "--seed", "5"],
    "search-alpha-beta": ["search", "--alpha", "{tmp}/alpha.json",
                          "--beta", "{tmp}/beta.json", "--k", "4",
                          "--algo", "brute"],
    "defect": ["defect", "--spec", "{tmp}/z2_13.json", "--perm",
               "{tmp}/f13.json", "--pairs", "{tmp}/pairs.json"],
    "amplify": ["amplify", "--perm", "{tmp}/f13.json", "--target-n", "30",
                "--out", "{tmp}/out-amp"],
    "align": ["align", "--spec1", "{tmp}/z2_9a.json", "--spec2",
              "{tmp}/z2_9b.json", "--ball", "1", "--restarts", "2",
              "--seed", "2"],
    "higman-random": ["higman-action", "--p", "3", "--random", "--check",
                      "--window", "2", "--probe-depth", "2", "--seed", "1"],
    "higman-tables": ["higman-action", "--p", "5", "--f-table",
                      "{tmp}/ftab.json", "--lambda-table", "{tmp}/ltab.json",
                      "--probe-depth", "2"],
    "heuristic": ["heuristic", "--n", "100", "--k", "4"],
    "heuristic-3000": ["heuristic", "--n", "3000", "--k", "4",
                       "--eps", "0.02"],
}

DIGESTS = {
    "align/json": "3793767263d7292ebb3925f3d5543455691afa42fb5b5def93c04a8826a87cea",
    "align/csv": "fc1ccdd670fef105e2e7bfc95d8e4edabb72ec37d585f8be80b2263d7eb2c576",
    "amplify/json": "e97348ff02723e7334d5a92a4a9d7ac3a7afb7b5d7f3ed1569957cb0772e7d7e",
    "amplify/csv": "bbb7bbf5fe1ad34c2879447d8825b13fd9e5834e03ec7b992e40e07c39c4b315",
    "count-orders/json": "f6a3b67605a054a268a3d2b5b5c76568fd7110f0c70641b514bb7444597956cf",
    "count-orders/csv": "2b5f10a0de0105eda377317d3f0ad1347c5bf0961e7cb82e0558b62f521a2b13",
    "count-orders-2500/json": "8dc9c076a7eebd8d576767a2030a3cae9d887ceb3c3f2b462c276174deb82576",
    "count-orders-2500/csv": "e31d12be08142f70ff9fb794e2611b92034dbd399ad3bcb9ba83ffdb4dc0e9da",
    "defect/json": "ad31bcfb40a7228e153b433250a71ba35a261660809bb4f5072cec9cba201a1b",
    "defect/csv": "3d92457f0cef6703d623ab4a3f3e463cde32a771a23b0ae9227674628afb0829",
    "heuristic/json": "91558e36a9123833fe7dd63264eef65cea9d663ba126ad185b202de110994677",
    "heuristic/csv": "5bc24ef8000e30f1ae33ba68d390fec8c167dcb33cc072533e97c5c8fa702073",
    "heuristic-3000/json": "656b3862c8f616e7f44c0208afe2087fca90021fea7a9fe7b2fd3399a22d060c",
    "heuristic-3000/csv": "db6210fed3a32b16c878138279f9b5628db186ff02a7d727c043ef047d1c8b67",
    "higman-random/json": "0e73da80a046fb612ce3278851691ec16c59df02601fd59a921527360242f66a",
    "higman-random/csv": "0fb3acfa005adce8684697ab10f7a8041e8eee845d912e8f7d0abd4c965db9dc",
    "higman-tables/json": "27e8999cef8d38d2108a540dd60c7915279ea5e321b867cede69534c829e4657",
    "higman-tables/csv": "067cbca44cea8ee9f6e31e4bf423702aeda35c9699ae642db0940c9eb87bd15a",
    "make-approx-bs/json": "233077fa7f785f4060cd1f254b4efb99b7a06cfed9029be49f5775bd88ac0d67",
    "make-approx-bs/csv": "4bd10e8c6148180f32af855fe778d4550f56ad58be58d5dd0d5ba38fce0d7443",
    "make-approx-heis/json": "0c6f72d3f83c7857bdb71527487b78499c3739f0a47feaf8b9463cd4a1bbfcf5",
    "make-approx-heis/csv": "d8d10364dce122f2ab1dfcc228447f435e1374a683c718b6d500a33e0afed3c4",
    "make-approx-metab/json": "c1744126ff8b6ad7bb9f5acf57a1cf176723373765d2111a69656f41b43d32c4",
    "make-approx-metab/csv": "d5ea40dce25fa06de2f4aaaf6dac2d97d6b363ee0402051e4434417d20124662",
    "make-approx-out/json": "3c37e5b807903c382ac971c0c563f9f17e89585fed295c145aa87a8e801ec65e",
    "make-approx-out/csv": "7523561bb75c543f2c81b60a6bfaf434fd45bacecec02ddd1cbc4a07e2df07b0",
    "make-approx-z2/json": "a80a5372f6a34ec2766470801bfb6bbb42450f16ca9fef9a2b0d14561a2e20d7",
    "make-approx-z2/csv": "79291a8f40047523246fffb8dd508a78cab590d1a2296be820f1109f71829a49",
    "make-approx-zwrz/json": "d3c79c2fa73a16d69e450df3ff1b7f8d56e7b24e7daa4dcc8ea1eb29c7defa6a",
    "make-approx-zwrz/csv": "bf13a4fc09e11194011d141fc5164a965a853fa77f80c6c79562b69880ad705e",
    "search-alpha-beta/json": "096c50f2b7d60b14881394e20a121908b7e318eb0e36e17b1a0c7394e59476a8",
    "search-alpha-beta/csv": "e5c5d269d7005220a197df796d1f6df4042b959506d4f8d6e16d824ac662521d",
    "search-brute-spec/json": "8b494f468e89f90d98c299a9a018f4b7013cfb2b1d14827c157f4bdf03cbce8c",
    "search-brute-spec/csv": "103ad5db11697da586429fe07d87408c6e6d16a4baa171ff7985a058d2b2e580",
    "search-exact/json": "213a527b86483e8f46ad1ffcf948cc69f999f9f0838770b937219c39cc81f4f0",
    "search-exact/csv": "1a790e85210b652d4ad059b39ec08df76aff34f82ecb2ee5b783bf5d4b019174",
    "search-exact-obstructed/json": "639271d063b05dc48ddd54f51f4a51d897dec189f795cb5acd672b967d6025f8",
    "search-exact-obstructed/csv": "a9f6a33464a2fad18a68fd3f1e746970ea8977b43d66e1990e56db7e8f4555c9",
    "search-local/json": "4f12d2b72720786f602e91e08350d6197f4bb869b88bebf4744b39e021130a27",
    "search-local/csv": "c016795017fb6c88f39457b25b2b2dca47d02fd74d65ddf38df3e645253ac8aa",
    "verify-fail/json": "74cf2f0e21b2343d4fdfc43adae61103b04e73110e41c391a498a8ec2f41e2ea",
    "verify-fail/csv": "7593c986a64fa3ce9d5ef62826505142eacfeecc92f56d16d0193d40cda7de9a",
    "verify-heis/json": "cc87b77ef4d03dcba63fa9b7d182fc1ffabd16f1a7b30fae2d0d71142ad8326e",
    "verify-heis/csv": "628b2ac16545710577585dd2fd668e0812ba22759141c491c575ae4abe972367",
    "verify-pass/json": "679cca76f11bd12efc7252e5c794b0f4937cde8563cab89bb851903e5b65708c",
    "verify-pass/csv": "21314d97f5e8ef1fe3b10c10f6edadde88d9fa6db082fb685ec64bfbc1cdb8a0",
}


# records with large permutation lists: the writer's re-indented number
# lists, and the CSV cells of a Perm (make-approx, search, amplify).  The
# json digests are of json.dumps(record, indent=2) + "\n" itself
LARGE_CASES = {
    "make-approx-z2-100003": ["make-approx", "--group", "z2", "--n", "100003",
                              "--p", "31337", "--q", "77777"],
    "search-local-2000": ["search", "--group", "z2", "--n", "2000", "--p", "1",
                          "--q", "7", "--k", "4", "--iters", "4000",
                          "--restarts", "1", "--seed", "3"],
    "amplify-2000": ["amplify", "--perm", "{tmp}/f13.json",
                     "--target-n", "2000"],
}

LARGE_DIGESTS = {
    "make-approx-z2-100003/json": "0f5e3e2e768640f8310b33a10c087ed89d5424e1782e2c0261a5118cceb5bff5",
    "make-approx-z2-100003/csv": "2a74b010ef15f059a313541bea8b09b23adc121cb3fe2df060ee69283e41f847",
    "search-local-2000/json": "f66f499ed8db69a83b2ea8ca346d00df21404d581082abd730dcffcb91d975a6",
    "search-local-2000/csv": "ef121345c853b813115ba6ab088bc9fc7c379296cc8dde4ad9f760d636290b1b",
    "amplify-2000/json": "dd585059fde609528b592fc3695da7ede7958d6ea9545bdd387099f791ed6494",
    "amplify-2000/csv": "b0a393b0138006f0468f891a52b77566130238dcd0a8d5fb967967679093ae38",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def write_inputs(tmp):
    """The spec, permutation, word-pair and table files the cases read."""
    specs = {
        "z2": ["--group", "z2", "--n", "11", "--p", "2", "--q", "3"],
        "heis": ["--group", "heis", "--n", "5"],
        "z2_7": ["--group", "z2", "--n", "7", "--p", "1", "--q", "2"],
        "z2_13": ["--group", "z2", "--n", "13", "--p", "1", "--q", "5"],
        "z2_9a": ["--group", "z2", "--n", "9", "--p", "1", "--q", "2"],
        "z2_9b": ["--group", "z2", "--n", "9", "--p", "2", "--q", "1"],
    }
    for name, args in specs.items():
        code, _ = _run(["make-approx", *args, "--out", str(tmp / f"{name}.json")])
        assert code == 0
    files = {
        "alpha.json": [(x + 1) % 8 for x in range(8)],
        "beta.json": [(x + 3) % 8 for x in range(8)],
        "f13.json": [(5 * x) % 13 for x in range(13)],
        "pairs.json": [[[["b", 1]], [["a", 1]]], [[["a", 2]], [["b", -1]]]],
        "ftab.json": [1, 2, 3, 4, 1],
        "ltab.json": [2, 2, 3, 1, 4],
    }
    for name, obj in files.items():
        (tmp / name).write_text(json.dumps(obj))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    write_inputs(tmp)
    return tmp


def digest(tmp, argv) -> str:
    code, stdout = _run(argv)
    written = ""
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            written = fh.read()
    text = f"{code}\n{stdout}\0{written}".replace(str(tmp), PLACEHOLDER)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _no_cell(value):
    raise AssertionError(f"CSV cell rendered for {value!r}")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_pinned(inputs, name, fmt, monkeypatch):
    if fmt == "json":
        # a JSON run renders no CSV cell, so its bytes cannot depend on one
        monkeypatch.setattr(cli, "_cell", _no_cell)
    argv = [a.replace("{tmp}", str(inputs)) for a in CASES[name]]
    if "--out" in argv:
        argv[argv.index("--out") + 1] += f".{fmt}"
    argv += ["--format", fmt]
    assert digest(inputs, argv) == DIGESTS[f"{name}/{fmt}"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(LARGE_CASES))
def test_large_cli_bytes_pinned(inputs, name, fmt):
    argv = [a.replace("{tmp}", str(inputs)) for a in LARGE_CASES[name]]
    assert digest(inputs, argv + ["--format", fmt]) == \
        LARGE_DIGESTS[f"{name}/{fmt}"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_heuristic_bytes_without_mpmath(fmt):
    """The heuristic golden, run in a child process where any import of
    mpmath raises: the counting estimate needs no mpmath."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    argv = CASES["heuristic"] + ["--format", fmt]
    code = ("import sys; sys.modules['mpmath'] = None; import soficperm.cli; "
            f"sys.exit(soficperm.cli.run({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    text = f"0\n{proc.stdout.decode('utf-8')}\0"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        DIGESTS[f"heuristic/{fmt}"]


def test_spec_table_threshold_placement():
    # every make-approx golden lists its tables, and the benchmark's record
    # (a prime at or above 10^6 points) does not: moving the threshold
    # across either fails here rather than re-pinning a digest
    parser = cli._build_parser()
    sizes = []
    for argv in [*CASES.values(), *LARGE_CASES.values()]:
        if argv[0] == "make-approx":
            ns = parser.parse_args(argv)
            sizes.append(approx.make_approx(
                ns.group, ns.n, p=ns.p, q=ns.q, m=ns.m).npoints)
    assert max(sizes) == 100003
    assert max(sizes) < serialize.SPEC_TABLE_POINTS < 10**6


# one case per subcommand whose CSV has at least one row
HEADER_CASES = {
    "count-orders": "count-orders", "make-approx": "make-approx-z2",
    "verify": "verify-pass", "search": "search-exact", "defect": "defect",
    "amplify": "amplify", "align": "align", "higman-action": "higman-random",
    "heuristic": "heuristic",
}


def _subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_header_cases_cover_every_subcommand():
    assert sorted(HEADER_CASES) == sorted(_subparsers()) == sorted(cli._COLUMNS)


@pytest.mark.parametrize("command", sorted(HEADER_CASES))
def test_csv_header_and_epilog_follow_the_column_table(inputs, command):
    want = ",".join(["schema", "command", "seed", *cli._COLUMNS[command],
                     "config"])
    argv = [a.replace("{tmp}", str(inputs))
            for a in CASES[HEADER_CASES[command]]]
    if "--out" in argv:
        argv[argv.index("--out") + 1] += ".header.csv"
    code, text = _run(argv + ["--format", "csv"])
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            text = fh.read()
    rows = list(csv.reader(io.StringIO(text)))
    assert code == 0 and len(rows) >= 2
    assert ",".join(rows[0]) == want
    assert all(len(row) == len(rows[0]) for row in rows)
    epilog = _subparsers()[command].epilog
    assert re.search(r"schema,command,seed\S*", epilog).group() == want


def test_csv_run_without_rows_keeps_its_columns(inputs):
    """An exact search with no solution writes the full header and one row
    of empty cells that still carries its config."""
    code, text = _run(CASES["search-exact-obstructed"] + ["--format", "csv"])
    header, row = csv.reader(io.StringIO(text))
    assert code == 1
    assert header == ["schema", "command", "seed", *cli._COLUMNS["search"],
                      "config"]
    assert row[:3] == ["1", "search", "0"]
    assert row[3:-1] == [""] * len(cli._COLUMNS["search"])
    assert json.loads(row[-1])["options"]["algo"] == "exact"

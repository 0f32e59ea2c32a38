"""The commands that need no array work print the same bytes under every
CPython >= 3.10, the versions pyproject.toml accepts.

Each other interpreter that starts runs them with numpy and mpmath blocked,
as the installed-script smoke run does, and must exit and print as the
running interpreter does.  Interpreters are found by running each
candidate: ``python3.X`` on PATH and pyenv's installs, since a pyenv shim
on PATH may stand for a version that is not selected and will not start.
"""

import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    ["count-orders", "--n", "8", "--k", "4"],
    ["heuristic", "--n", "100", "--k", "4"],
    ["heuristic", "--n", "100", "--k", "4", "--format", "csv"],
    ["--help"],
]

BLOCKED_RUN = ("import sys; sys.modules['numpy'] = sys.modules['mpmath'] = None; "
               "import soficperm.cli; sys.exit(soficperm.cli.run(sys.argv[1:]))")

# argparse in 3.13 wraps a usage line too long for the terminal otherwise
# than earlier versions do; at this width nothing in the help wraps there
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1",
       "COLUMNS": "200"}


def _version(exe: str):
    """(major, minor, micro) of a CPython that starts, else None."""
    try:
        out = subprocess.run(
            [exe, "-c", "import sys; print(sys.implementation.name, "
                        "*sys.version_info[:3])"],
            capture_output=True, text=True, timeout=30, env=ENV)
    except (OSError, subprocess.TimeoutExpired):
        return None
    words = out.stdout.split()
    if out.returncode or len(words) != 4 or words[0] != "cpython":
        return None
    return tuple(map(int, words[1:]))


@pytest.fixture(scope="module")
def other_pythons():
    """One executable per CPython version >= 3.10 other than this one."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(glob.glob(str(root / "versions" / "*" / "bin" / "python3")))
    found = {}
    for exe in filter(None, candidates):
        version = _version(exe)
        if version and version >= (3, 10) and version != sys.version_info[:3]:
            found.setdefault(version, exe)
    if not found:
        pytest.skip("no other CPython >= 3.10 starts here")
    return found


def _run(exe: str, argv: list[str]):
    out = subprocess.run([exe, "-c", BLOCKED_RUN, *argv],
                         capture_output=True, timeout=60, env=ENV)
    return out.returncode, out.stdout


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_same_bytes_under_every_python(argv, other_pythons):
    want = _run(sys.executable, argv)
    assert want[0] == 0
    got = {".".join(map(str, version)): _run(exe, argv)
           for version, exe in sorted(other_pythons.items())}
    assert {version: out for version, out in got.items() if out != want} == {}

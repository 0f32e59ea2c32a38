"""Command-line front end: every operation as a seeded, reproducible run.

Output contract
---------------
* Data goes to stdout (or ``--out FILE``); anything diagnostic goes to
  stderr.  Records carry ``schema: 1``, the subcommand name, the seed, and
  the fully resolved configuration, so a result file is self-describing.
* ``--format json`` emits one indented JSON record, byte-identical to
  ``json.dumps(record, indent=2) + "\n"``; :func:`_dumps` writes it
  through the C encoder.  ``--format csv`` emits flat plot-ready rows
  (floats instead of exact rationals; the exact values live in the JSON
  form).  Each CSV row repeats schema/command/seed, then holds the columns
  of its subcommand in :data:`_COLUMNS` (the table each ``--help`` epilog
  lists), and ends with a ``config`` column of the resolved configuration
  as compact JSON.  A permutation or witness cell is its entries
  space-joined.  Subcommands hand :func:`_emit` raw values, and every cell
  is rendered there, under ``--format csv`` only, so a JSON run does no
  CSV work.
* Exit status: 0 on success, 1 when the computation itself reports failure
  (a verification that does not pass, an exact search with no solution, a
  relation check that fails), 2 on bad flags, malformed input files or
  sizes over a limit of :mod:`soficperm.limits`.

Start-up cost
-------------
* When argv names a subcommand, :func:`run` builds that subcommand's
  parser alone (see :func:`_parse`), and the full parser of
  :func:`_build_parser` only for any other argv or for arguments left
  over; usage, ``--help`` and error text are the same either way.
* ``import soficperm.cli`` loads ``perm``, ``groups``, ``limits`` and
  ``serialize``, and not numpy.  Each subcommand imports the rest of what
  it runs (``approx``, ``conjsearch``, ``higman``, ``heuristic``) in its
  handler, so ``count-orders`` loads none of them.  numpy is imported with
  ``approx``, ``conjsearch`` or ``higman``, or by ``perm``'s first array
  operation, so ``count-orders``, ``heuristic``, ``--help``, usage errors
  and inputs refused before ``approx`` is loaded never load it;
  ``elapsed_s=`` counts the imports a command makes, numpy included.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from . import groups as groupsmod
from . import limits
from . import perm as permmod
from . import serialize as ser

if TYPE_CHECKING:
    from .approx import ApproxSpec
    from .conjsearch import ConjProblem

__all__ = ["run", "main", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

# the CSV columns of each subcommand between seed and config; every row a
# subcommand builds lists its cells in this order
_COLUMNS = {
    "count-orders": ("n", "k", "count"),
    "make-approx": ("family", "n", "npoints", "p", "q", "m", "psi_a", "psi_b"),
    "verify": ("family", "npoints", "delta", "worst_hom_defect",
               "worst_id_closeness", "passed", "elements_checked",
               "pairs_checked"),
    "search": ("algorithm", "n", "k", "order_of_f", "agreement_count",
               "agreement_fraction", "iterations", "f"),
    "defect": ("defect", "defect_num", "defect_den", "pairs"),
    "amplify": ("n", "target_n", "perm"),
    "align": ("element", "distance", "max_distance", "iterations"),
    "higman-action": ("p", "check", "ok", "witness"),
    "heuristic": ("n", "k", "eps", "eps_prime", "count", "log_P", "log_K",
                  "log_PK", "log_factorial", "asymptotic_ratio",
                  "pk_model_coeff", "log_PK_model"),
}


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _cell(value):
    """A row value as a CSV cell: a rational as a repr'd float, a Decimal
    as its record string, a Perm, tuple or list as its entries space-joined;
    any other value is left for csv.writer (None empty, else str)."""
    if isinstance(value, Fraction):
        return repr(float(value))
    if isinstance(value, Decimal):
        return ser._decimal_to_obj(value)
    if isinstance(value, permmod.Perm):
        value = value.tolist()
    elif not isinstance(value, (tuple, list)):
        return value
    return " ".join(map(str, value))


def _row(command: str, source, **extra) -> list:
    """The values of _COLUMNS[command], each read by name from extra or
    else from source's attributes."""
    return [extra[c] if c in extra else getattr(source, c)
            for c in _COLUMNS[command]]


def _csv_header(command: str) -> str:
    """The CSV header line."""
    return ",".join(["schema", "command", "seed", *_COLUMNS[command],
                     "config"])


def _read_json(path: str):
    """Load a JSON payload; a full output record unwraps to its result, so
    the --out file of one run feeds directly into the next."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if isinstance(obj, dict) and "schema" in obj and "result" in obj:
        obj = obj["result"]
    return obj


def _load_spec(path: str) -> ApproxSpec:
    return ser.spec_from_obj(_read_json(path))


def _load_perm(path: str) -> permmod.Perm:
    obj = _read_json(path)
    if isinstance(obj, dict):
        if "perm" in obj:
            obj = obj["perm"]
        elif "f" in obj:
            obj = obj["f"]
        else:
            raise ValueError(f"{path}: a permutation object needs a 'perm' "
                             "or an 'f' key")
    return ser.perm_from_obj(obj)


_encode = json.JSONEncoder().encode


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``.

    With ``indent`` set, the stdlib runs its pure-Python encoder.  Here a
    list of numbers, bools and nulls is encoded once by the C encoder and
    its ``", "`` separators are re-indented: its compact text holds no
    ``"``, ``{`` or inner ``[``, and no number contains ``", "``.  Other
    containers recurse.  An int is its ``int.__repr__`` and None, True and
    False their literals, as in both stdlib encoders; other scalars and
    keys go through the C encoder.  The pieces are joined once, so a large
    list is copied once into the result.
    """
    parts: list[str] = []
    _write(obj, "", parts.append)
    return "".join(parts)


def _write(obj, pad: str, out) -> None:
    """Pass the pieces of obj's text to out; pad is the indent of the
    line obj starts on."""
    if isinstance(obj, dict) and obj:
        inner = pad + "  "
        sep = "{\n"
        for k, v in obj.items():
            key = _encode(k) if isinstance(k, str) else _encode({k: 0})[1:-4]
            out(sep + inner + key + ": ")
            _write(v, inner, out)
            sep = ",\n"
        out("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = pad + "  "
        text = _encode(obj)
        if '"' in text or "{" in text or text.find("[", 1) != -1:
            sep = "[\n"
            for v in obj:
                out(sep + inner)
                _write(v, inner, out)
                sep = ",\n"
        else:
            out("[\n" + inner)
            out(text[1:-1].replace(", ", ",\n" + inner))
        out("\n" + pad + "]")
    elif type(obj) is int:
        out(int.__repr__(obj))
    elif obj is None or obj is True or obj is False:
        out("null" if obj is None else "true" if obj else "false")
    else:
        out(_encode(obj))


class _Failure(Exception):
    """Computation-level failure: record is still emitted, exit code is 1."""


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# every subcommand's help line, its --help epilog and its own flags, each
# flag an add_argument call as (name, keywords); _COMMON_FLAGS come first
_FILE = {"required": True, "metavar": "FILE"}
_OPTIONAL_FILE = {"metavar": "FILE"}
_REQUIRED_INT = {"type": int, "required": True}
_INT = {"type": int}
_BALL = {"type": int, "required": True, "metavar": "L"}
_FAMILY_PARAMS = (("--p", _INT), ("--q", _INT), ("--m", _INT))
_SEARCH_BUDGET = (("--iters", _INT), ("--restarts", _INT))

_COMMON_FLAGS = (
    ("--format", {"choices": ("json", "csv"), "default": "json",
                  "help": "output encoding (default json)"}),
    ("--seed", {"type": int, "default": 0,
                "help": "RNG seed, echoed in every record (default 0)"}),
    ("--out", {"metavar": "FILE",
               "help": "write data here instead of stdout"}),
)

_SUBCOMMANDS = {
    "count-orders": (
        "exact count of permutations with f^k = id",
        f"csv columns: {_csv_header('count-orders')}",
        (("--n", _REQUIRED_INT), ("--k", _REQUIRED_INT))),
    "make-approx": (
        "build generator images for a group family",
        f"csv columns: {_csv_header('make-approx')} (permutations "
        "space-joined; psi_a and psi_b are listed up to "
        f"{ser.SPEC_TABLE_POINTS} points, as in the json record)",
        (("--group", {"required": True, "choices": groupsmod.FAMILIES}),
         ("--n", _REQUIRED_INT), *_FAMILY_PARAMS)),
    "verify": (
        "check the two approximation conditions over a ball",
        f"csv columns: {_csv_header('verify')}",
        (("--spec", _FILE), ("--ball", _BALL),
         ("--delta", {"required": True, "help": "threshold, exact ('1/10') "
                                                "or decimal ('0.1')"}))),
    "search": (
        "find an order-k permutation almost intertwining alpha, beta",
        "problem source: --spec FILE, or --alpha FILE --beta FILE, or "
        f"--group TAG --n ... ; csv columns: {_csv_header('search')}",
        (("--spec", _OPTIONAL_FILE), ("--alpha", _OPTIONAL_FILE),
         ("--beta", _OPTIONAL_FILE),
         ("--group", {"choices": groupsmod.FAMILIES}), ("--n", _INT),
         *_FAMILY_PARAMS, ("--k", _REQUIRED_INT),
         ("--algo", {"choices": ("exact", "brute", "local"),
                     "default": "local"}),
         *_SEARCH_BUDGET)),
    "defect": (
        "worst distance d(psi(b) f, f psi(phi b)) over given pairs",
        "--pairs FILE: JSON list of [word, word] with words as "
        f"[[gen,exp],...]; csv columns: {_csv_header('defect')}",
        (("--spec", _FILE), ("--perm", _FILE), ("--pairs", _FILE))),
    "amplify": (
        "block-diagonal power of a permutation up to a larger degree",
        f"csv columns: {_csv_header('amplify')}",
        (("--perm", _FILE), ("--target-n", _REQUIRED_INT))),
    "align": (
        "search for tau minimizing max_s d(tau^-1 rho1(s) tau, rho2(s))",
        f"csv rows, one per ball element: {_csv_header('align')}",
        (("--spec1", _FILE), ("--spec2", _FILE), ("--ball", _BALL),
         *_SEARCH_BUDGET)),
    "higman-action": (
        "build the five-generator action on p^4 points and examine it",
        "tables: --f-table/--lambda-table JSON int lists, or --random to "
        "draw both from --seed; csv rows, one per relation check plus "
        f"summary/probe rows: {_csv_header('higman-action')}",
        (("--p", _REQUIRED_INT), ("--f-table", _OPTIONAL_FILE),
         ("--lambda-table", _OPTIONAL_FILE),
         ("--random", {"action": "store_true",
                       "help": "draw both tables from the seed"}),
         ("--check", {"action": "store_true",
                      "help": "verify relations; exit 1 if any fails"}),
         ("--window", {"type": int, "help": "the span of the relation "
                       "checks, with --check only (default 3)"}),
         ("--probe-depth", {"type": int, "default": 0}))),
    "heuristic": (
        "independence estimate log(P*K) from the exact order count",
        f"csv columns: {_csv_header('heuristic')}",
        (("--n", _REQUIRED_INT), ("--k", _REQUIRED_INT),
         ("--eps", {"default": "1/100", "help": "defect rate, a fraction "
                    "of the n points in [0, 1] (default 1/100)"}),
         ("--eps-prime", {"default": "1/100", "help": "second defect rate, "
                          "a fraction of the n points in [0, 1] "
                          "(default 1/100)"}))),
}


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    for flag, keywords in _COMMON_FLAGS + flags:
        parser.add_argument(flag, **keywords)


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, each registered with its help line,
    epilog and flags."""
    parser = argparse.ArgumentParser(
        prog="soficperm",
        description="Permutation models of five groups: build, verify, "
                    "search, count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, epilog, flags) in _SUBCOMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_line, epilog=epilog), flags)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv's namespace, or the SystemExit of --help or of an error.

    The full parser hands everything after a subcommand's name to that
    subcommand's parser, whose prog is ``soficperm <name>``.  So when
    argv[0] names a subcommand, that parser alone, built the same way, is
    the one that parses: usage, --help and errors read the same, and the
    namespace is the same.  Only arguments it leaves over, which the full
    parser refuses in its own name, are parsed again by the full parser.
    """
    if argv and argv[0] in _SUBCOMMANDS:
        _, epilog, flags = _SUBCOMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"soficperm {argv[0]}",
                                         epilog=epilog)
        _add_flags(parser, flags)
        ns, extras = parser.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return ns
    return _build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (result_obj, csv_rows), a row being the
# raw values of _COLUMNS in order; _emit renders them as cells for CSV only.
# Each imports the modules of its own command, so a run loads no other.
# ---------------------------------------------------------------------------

def _cmd_count_orders(ns):
    count = permmod.count_order_dividing(ns.n, ns.k)
    return {"n": ns.n, "k": ns.k, "count": count}, [[ns.n, ns.k, count]]


def _cmd_make_approx(ns):
    from . import approx as approxmod
    spec = approxmod.make_approx(ns.group, ns.n, p=ns.p, q=ns.q, m=ns.m)
    # refused as before although a record of its parameters alone builds no
    # table: its spec could not be tabled anywhere else either
    limits.check("table_entries", spec.npoints)
    record = ser.spec_to_obj(spec)
    return record, [_row("make-approx", spec, psi_a=record.get("psi_a"),
                         psi_b=record.get("psi_b"))]


def _cmd_verify(ns):
    # refused before numpy, the spec's tables or the ball are loaded or built
    delta = ser._unit_delta(ns.delta)
    from . import approx as approxmod
    spec = _load_spec(ns.spec)
    S = groupsmod.ball(spec.family, ns.ball, m=spec.m)
    report = approxmod.verify(spec, S, delta)
    result = ser.verify_report_to_obj(report)
    rows = [_row("verify", report)]
    if not report.passed:
        raise _Failure(result, rows, "verification failed")
    return result, rows


def _search_problem(ns) -> ConjProblem:
    from . import approx as approxmod
    from . import conjsearch as conjmod
    sources = [ns.spec is not None,
               ns.alpha is not None or ns.beta is not None,
               ns.group is not None]
    if sum(sources) != 1:
        raise ValueError(
            "give exactly one problem source: --spec, --alpha/--beta, "
            "or --group with its parameters")
    if ns.spec is not None:
        return conjmod.problem_from_spec(_load_spec(ns.spec), ns.k)
    if ns.group is not None:
        if ns.n is None:
            raise ValueError("--group needs --n")
        spec = approxmod.make_approx(ns.group, ns.n, p=ns.p, q=ns.q, m=ns.m)
        return conjmod.problem_from_spec(spec, ns.k)
    if ns.alpha is None or ns.beta is None:
        raise ValueError("--alpha and --beta must be given together")
    alpha = _load_perm(ns.alpha)
    beta = _load_perm(ns.beta)
    return conjmod.ConjProblem(alpha.n, ns.k, alpha, beta)


def _search_kwargs(ns) -> dict[str, Any]:
    """The seed, plus --iters and --restarts where given (else defaults);
    a budget out of range is refused here, before any input is built."""
    from . import conjsearch as conjmod
    conjmod._check_budget(ns.iters, ns.restarts)
    given = {"iters": ns.iters, "restarts": ns.restarts}
    return {"seed": ns.seed, **{k: v for k, v in given.items() if v is not None}}


def _cmd_search(ns):
    # a flag this search would ignore is refused before anything is loaded
    for flag in ("n", "p", "q", "m"):
        if ns.group is None and getattr(ns, flag) is not None:
            raise ValueError(f"--{flag} applies only with --group")
    for flag in ("iters", "restarts"):
        if ns.algo != "local" and getattr(ns, flag) is not None:
            raise ValueError(f"--{flag} applies only to --algo local")
    from . import conjsearch as conjmod
    kwargs = _search_kwargs(ns) if ns.algo == "local" else None
    prob = _search_problem(ns)
    if ns.algo == "exact":
        report = conjmod.exact_search(prob)
        if report is None:
            raise _Failure(None, [], "no exact order-k intertwiner exists here")
    elif ns.algo == "brute":
        report = conjmod.brute_force(prob)
    else:
        report = conjmod.local_search(prob, **kwargs)
    row = _row("search", report, n=report.problem.n, k=report.problem.k)
    return ser.search_report_to_obj(report), [row]


def _cmd_defect(ns):
    from . import conjsearch as conjmod
    spec = _load_spec(ns.spec)
    f = _load_perm(ns.perm)
    raw = _read_json(ns.pairs)
    if not isinstance(raw, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in raw):
        raise ValueError("--pairs must be a JSON list of [word, word] pairs")
    pairs = [(ser.genword_from_obj(b), ser.genword_from_obj(phib))
             for b, phib in raw]
    worst = conjmod.higman_defect(spec, f, pairs)
    result = {
        "defect": ser.fraction_to_obj(worst),
        "pairs": [[ser.genword_to_obj(b), ser.genword_to_obj(phib)]
                  for b, phib in pairs],
    }
    return result, [[worst, worst.numerator, worst.denominator, len(pairs)]]


def _cmd_amplify(ns):
    f = _load_perm(ns.perm)
    g = permmod.amplify(f, ns.target_n)
    result = {"n": f.n, "target_n": ns.target_n, "perm": ser.perm_to_obj(g)}
    return result, [[f.n, ns.target_n, g]]


def _cmd_align(ns):
    from . import conjsearch as conjmod
    kwargs = _search_kwargs(ns)
    spec1 = _load_spec(ns.spec1)
    spec2 = _load_spec(ns.spec2)
    conjmod._check_specs(spec1, spec2)
    S = groupsmod.ball(spec1.family, ns.ball, m=spec1.m)
    report = conjmod.align(spec1, spec2, S, **kwargs)
    result = ser.alignment_report_to_obj(report)
    rows = [[g, d, report.max_distance, report.iterations]
            for g, d in report.per_element]
    return result, rows


def _cmd_higman_action(ns):
    if ns.window is not None and not ns.check:
        raise ValueError("--window applies only with --check")
    if ns.window is None:
        ns.window = 3
    from . import higman as higmod
    if ns.random:
        if ns.f_table or ns.lambda_table:
            raise ValueError("--random excludes explicit table files")
        f_table, lambda_table = higmod.random_tables(ns.p, ns.seed)
    else:
        if not (ns.f_table and ns.lambda_table):
            raise ValueError("give --f-table and --lambda-table, or --random")
        f_table = _read_json(ns.f_table)
        lambda_table = _read_json(ns.lambda_table)
    act = higmod.make_action(ns.p, f_table, lambda_table)
    result: dict[str, Any] = ser.action_table_to_obj(act)
    rows: list[list] = []

    relations = None
    if ns.check:
        relations = higmod.verify_action(act, ns.window)
        result["relations"] = ser.relation_report_to_obj(relations)
        rows.extend([ns.p, check.name, check.ok, check.witness]
                    for check in relations.checks)
        rows.append([ns.p, "passed", relations.passed, ""])
    else:
        result["relations"] = None
        rows.append([ns.p, "built", True, ""])

    # a negative depth reaches the probe, which refuses it
    if ns.probe_depth:
        collisions = higmod.injectivity_probe(act, ns.probe_depth)
        result["probe"] = {
            "depth": ns.probe_depth,
            "nontrivial_identities": [ser.elem_to_obj(g) for g in collisions],
        }
        rows.append([ns.p, f"probe_depth_{ns.probe_depth}", not collisions,
                     len(collisions)])
    else:
        result["probe"] = None

    if relations is not None and not relations.passed:
        raise _Failure(result, rows, "relation check failed")
    return result, rows


def _cmd_heuristic(ns):
    from . import heuristic as heurmod
    report = heurmod.heuristic_report(ns.n, ns.k, ns.eps, ns.eps_prime)
    return ser.heuristic_report_to_obj(report), [_row("heuristic", report)]


_COMMANDS = {
    "count-orders": _cmd_count_orders,
    "make-approx": _cmd_make_approx,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "defect": _cmd_defect,
    "amplify": _cmd_amplify,
    "align": _cmd_align,
    "higman-action": _cmd_higman_action,
    "heuristic": _cmd_heuristic,
}


# ---------------------------------------------------------------------------
# record emission
# ---------------------------------------------------------------------------

def _emit(ns, result, rows: list[list]) -> None:
    """Write the record of one run: its config from the parsed flags, then
    result as JSON, or rows as CSV cells through :func:`_cell`."""
    # the options are every subcommand flag, in parser order, then --format
    options = {k: v for k, v in vars(ns).items()
               if k not in ("command", "format", "seed", "out")}
    options["format"] = ns.format
    config = {"subcommand": ns.command, "options": options,
              "seed": ns.seed, "out": ns.out}
    # exact counts (count-orders, heuristic) run past the default 4300-digit
    # cap on int -> str conversion; the cap exists only from Python 3.11 on
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        saved = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        if ns.format == "json":
            record = {
                "schema": SCHEMA_VERSION,
                "command": ns.command,
                "seed": ns.seed,
                "config": config,
                "result": result,
            }
            # the closing newline is written on its own rather than
            # appended to a copy of the whole record text
            pieces = [_dumps(record), "\n"]
        else:
            config_cell = json.dumps(config, sort_keys=True,
                                     separators=(",", ":"))
            buf = io.StringIO()
            buf.write(_csv_header(ns.command) + "\n")
            writer = csv.writer(buf, lineterminator="\n")
            # a run without rows (an exact search that finds nothing) still
            # writes one row, of empty cells and its config
            for row in rows or [[""] * len(_COLUMNS[ns.command])]:
                writer.writerow([
                    SCHEMA_VERSION, ns.command, ns.seed,
                    *map(_cell, row),
                    config_cell])
            pieces = [buf.getvalue()]
        if ns.out:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
    finally:
        if set_digits is not None:
            set_digits(saved)


def _check_out(path: str) -> None:
    """Raise the OSError that opening path for writing would when path is
    a directory or its directory cannot be reached (missing, say), creating
    and truncating nothing; any other failure is left to :func:`_emit`."""
    if os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            os.stat(os.path.dirname(path) or ".")
            return
        except OSError as exc:
            code = exc.errno
    raise OSError(code, os.strerror(code), path)


def run(argv) -> int:
    """Parse argv, run the subcommand, emit one record.  Returns the exit
    code instead of raising SystemExit so the function is callable in-process.
    """
    try:
        ns = _parse(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handler = _COMMANDS[ns.command]
    t0 = time.perf_counter()
    try:
        if ns.out:
            # before the command runs, so a bad path costs no computation
            _check_out(ns.out)
        result, rows = handler(ns)
        exit_code = 0
    except _Failure as failure:
        result, rows, message = failure.args
        print(f"failure: {message}", file=sys.stderr)
        exit_code = 1
    except (ValueError, OSError, KeyError, TypeError, MemoryError) as exc:
        # a bare MemoryError has no message of its own
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    try:
        _emit(ns, result, rows)
    except OSError as exc:
        # an --out path that cannot be opened or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed_s={elapsed:.3f}", file=sys.stderr)
    return exit_code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

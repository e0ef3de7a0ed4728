"""Command-line front end: check, solve, ratio, verify, oracle.

Instances are read from a JSON document (canonical) or a DIMACS-like plain
text format; `-` reads stdin. Result documents go to stdout, diagnostics to
stderr. Exit codes: 0 success/feasible, 2 parse, validation or I/O error,
10 not weakly solvable, 11 weakly feasible only, 12 certificate rejected,
1 oracle mismatch, 3 internal error (a bug; reported in one stderr line),
141 stdout closed early by its reader (silently, as `head` expects).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Any, NoReturn

from .balancer import (
    BalancedSolution,
    Certificate,
    Level,
    VerificationResult,
    balanced_flow,
    verify_certificate,
)
from .gale_hoffman import FatalCutReport, FeasibilityReport, has_fatal_cut, is_feasible
from .model import (
    MAX_DECIMAL_EXPONENT,
    Cut,
    Flow,
    ModelError,
    Problem,
    format_rational,
    parse_rational,
    validate_problem,
)
from .oracle import LEXMIN_SOFT_ARC_LIMIT, OracleInfeasible, oracle_lexmin
from .ratio_search import FatalCutPresent, minmax_ratio

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_NOT_WEAKLY_SOLVABLE = 10
EXIT_WEAKLY_FEASIBLE_ONLY = 11
EXIT_REJECTED = 12
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader gone


# A JSON id is a string, or an integer that reads as its decimal digits;
# exact types, so that true and false (ints to Python) are refused too.
_ID_TYPES = frozenset({str, int})


class CliError(Exception):
    """Parse or validation failure with a user-facing message."""


def read_source(path: str) -> str:
    """The UTF-8 text of `path`, or of stdin for "-"."""
    try:
        if path == "-":
            if sys.stdin is None:  # fd 0 is closed
                raise CliError("cannot read -: stdin is closed")
            # Not as the locale says; an io.StringIO put in its place holds text.
            if isinstance(sys.stdin, io.TextIOWrapper):
                return sys.stdin.buffer.read().decode()
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_json(text: str, origin: str) -> Any:
    try:
        # parse_float=str keeps decimal literals exact for Fraction parsing
        return json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise CliError(f"{origin}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # an integer literal past the int-string limit
        raise CliError(f"{origin}: {exc}; quote long numbers as strings")
    except RecursionError:
        raise CliError(f"{origin}: JSON nested too deeply")


def _entries(document: dict[str, Any], key: str, origin: str) -> list[Any]:
    entries = document.get(key, [])
    if not isinstance(entries, list):
        raise CliError(f"{origin}: '{key}' must be a list")
    return entries


def parse_instance(text: str, origin: str = "<input>") -> Problem:
    """Parse an instance document, JSON or DIMACS-like, into a Problem."""
    read = _json_entries if text.lstrip().startswith("{") else _text_entries
    try:
        return validate_problem(*read(text, origin))
    except ModelError as exc:
        raise CliError(f"{origin}: {exc}") from exc


def _json_entries(text: str, origin: str) -> tuple[list, list]:
    document = _load_json(text, origin)
    if not isinstance(document, dict):
        raise CliError(f"{origin}: top level must be an object")

    nodes: list[tuple[str, Any]] = []
    for i, entry in enumerate(_entries(document, "nodes", origin)):
        try:
            node = entry["id"], entry["d"]
        except (TypeError, KeyError):
            raise CliError(f"{origin}: nodes[{i}] needs 'id' and 'd'")
        if type(node[0]) not in _ID_TYPES:
            raise CliError(f"{origin}: nodes[{i}] 'id' must be a string or an integer")
        nodes.append(node)
    arcs: list[tuple[str, str, str, Any]] = []
    for i, entry in enumerate(_entries(document, "arcs", origin)):
        try:
            arc = entry["id"], entry["tail"], entry["head"], entry["capacity"]
        except (TypeError, KeyError):
            raise CliError(
                f"{origin}: arcs[{i}] needs 'id', 'tail', 'head', 'capacity'"
            )
        if not _ID_TYPES.issuperset(map(type, arc[:3])):
            raise CliError(
                f"{origin}: arcs[{i}] 'id', 'tail' and 'head' must be strings "
                "or integers"
            )
        arcs.append(arc)
    return nodes, arcs


def _text_entries(text: str, origin: str) -> tuple[list, list]:
    nodes: list[tuple[str, Any]] = []
    arcs: list[tuple[str, str, str, Any]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":  # blank, or a "c" comment line
            continue
        kind = fields[0]
        if kind == "n" and len(fields) == 3:
            nodes.append((fields[1], fields[2]))
        elif kind == "a" and len(fields) == 5:
            arcs.append((fields[1], fields[2], fields[3], fields[4]))
        else:
            raise CliError(
                f"{origin}: line {lineno}: expected 'n <id> <d>' or "
                f"'a <id> <tail> <head> <capacity>'"
            )
    if not nodes:
        raise CliError(f"{origin}: no node lines found")
    return nodes, arcs


def decimal_string(value: Fraction, places: int) -> str:
    """Round-half-even decimal rendering, computed without floats."""
    sign = "-" if value < 0 else ""
    whole = round(abs(value) * 10**places)
    digits = format_rational(Fraction(whole)).rjust(places + 1, "0")
    if places == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _summary(solution: BalancedSolution) -> tuple[str, Fraction]:
    """The status and r0 that a solution document states for `solution`."""
    levels = solution.certificate.levels
    r0 = levels[0].ratio if levels else Fraction(0)
    feasible = all(r <= 1 for r in solution.sorted_ratios)
    return ("feasible" if feasible else "weakly_feasible_only"), r0


def solution_document(
    problem: Problem, solution: BalancedSolution, decimals: int | None = None
) -> dict[str, Any]:
    """Serialize a solution; exact values always, decimals only as extras."""
    status, r0 = _summary(solution)
    levels = solution.certificate.levels
    document: dict[str, Any] = {
        "status": status,
        "r0": format_rational(r0),
        "flow": {
            arc_id: format_rational(solution.flow.values[arc_id])
            for arc_id in problem.arc_ids
        },
        "sorted_ratios": [format_rational(r) for r in solution.sorted_ratios],
        "certificate": {
            "levels": [
                {
                    "ratio": format_rational(level.ratio),
                    "cut": list(problem.ordered_nodes(level.cut.source_side)),
                    "fixed_forward": [
                        {"arc": arc_id, "value": format_rational(value)}
                        for arc_id, value in level.fixed_forward
                    ],
                    "zeroed_reverse": list(level.zeroed_reverse),
                }
                for level in levels
            ],
            "zero_tail": list(solution.certificate.zero_tail),
        },
    }
    if decimals is not None:
        document["decimals"] = {
            "r0": decimal_string(r0, decimals),
            "flow": {
                arc_id: decimal_string(solution.flow.values[arc_id], decimals)
                for arc_id in problem.arc_ids
            },
            "sorted_ratios": [
                decimal_string(r, decimals) for r in solution.sorted_ratios
            ],
        }
    return document


def _typed(container: Any, key: str, kind: type) -> Any:
    """`container[key]`, which must be a JSON list or object as `kind` says."""
    value = container[key]
    if type(value) is not kind:
        raise TypeError(f"'{key}' must be {'a list' if kind is list else 'an object'}")
    return value


def _id(value: Any, key: str) -> str:
    if type(value) not in _ID_TYPES:
        raise TypeError(f"'{key}' holds an id that is not a string or an integer")
    return str(value)


def _ids(container: Any, key: str) -> tuple[str, ...]:
    return tuple(_id(v, key) for v in _typed(container, key, list))


def solution_from_document(
    problem: Problem, document: dict[str, Any]
) -> BalancedSolution:
    """Rebuild a BalancedSolution from its serialized form.

    Lists must be lists, `flow` an object, and ids strings or integers;
    anything else is a malformed document. Each distinct number string is
    read once.
    """
    read_once = cache(parse_rational)

    def number(raw: Any) -> Fraction:
        return read_once(raw) if type(raw) is str else parse_rational(raw)

    try:
        flow = Flow(
            {
                arc_id: number(value)
                for arc_id, value in _typed(document, "flow", dict).items()
            }
        )
        levels = []
        for entry in _typed(document["certificate"], "levels", list):
            levels.append(
                Level(
                    ratio=number(entry["ratio"]),
                    cut=Cut(frozenset(_ids(entry, "cut"))),
                    fixed_forward=tuple(
                        (_id(item["arc"], "arc"), number(item["value"]))
                        for item in _typed(entry, "fixed_forward", list)
                    ),
                    zeroed_reverse=_ids(entry, "zeroed_reverse"),
                )
            )
        certificate = Certificate(tuple(levels), _ids(document["certificate"], "zero_tail"))
        ratios = tuple(number(r) for r in _typed(document, "sorted_ratios", list))
    except (KeyError, TypeError, ModelError) as exc:
        raise CliError(f"malformed solution document: {exc}") from exc
    return BalancedSolution(flow, certificate, ratios)


def _verify_summary(
    document: dict[str, Any], solution: BalancedSolution
) -> VerificationResult:
    """Check a document's `r0` and `status` against its verified solution."""
    try:
        stated_r0, stated_status = parse_rational(document["r0"]), document["status"]
    except (KeyError, ModelError) as exc:
        raise CliError(f"malformed solution document: {exc}") from exc
    status, r0 = _summary(solution)
    if stated_r0 != r0:
        return VerificationResult(False, "summary", f"r0 is {format_rational(r0)}")
    if stated_status != status:
        return VerificationResult(False, "summary", f"status is {status}")
    return VerificationResult(True)


def _emit(document: dict[str, Any]) -> None:
    print(json.dumps(document, indent=2))


def _diagnose(line: str) -> None:
    """Write one line to stderr, or drop it when stderr is closed or cannot
    take it: a diagnostic never changes the exit code or reaches stdout."""
    if sys.stderr is None:  # fd 2 is closed; print would fall back to stdout
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


def _print_witness(report: FeasibilityReport | FatalCutReport, problem: Problem) -> None:
    cut = report.witness_cut
    stats = report.witness_stats
    if cut is None or stats is None:
        return
    print("witness:", " ".join(problem.ordered_nodes(cut.source_side)))
    print("deficiency:", format_rational(stats.deficiency))
    print("capacity:", format_rational(stats.capacity))


def cmd_check(args: argparse.Namespace, problem: Problem) -> int:
    fatal = has_fatal_cut(problem)
    if fatal.fatal:
        print("INFEASIBLE_WEAKLY")
        _print_witness(fatal, problem)
        return EXIT_NOT_WEAKLY_SOLVABLE
    report = is_feasible(problem, Fraction(1))
    if report.feasible:
        print("FEASIBLE")
        return EXIT_OK
    print("WEAKLY_FEASIBLE_ONLY")
    _print_witness(report, problem)
    return EXIT_WEAKLY_FEASIBLE_ONLY


def _report_fatal(exc: FatalCutPresent, problem: Problem) -> int:
    _diagnose("not weakly solvable: fatal cut present")
    side = " ".join(problem.ordered_nodes(exc.witness.source_side))
    _diagnose(f"witness: {side}")
    return EXIT_NOT_WEAKLY_SOLVABLE


def cmd_solve(args: argparse.Namespace, problem: Problem) -> int:
    try:
        solution = balanced_flow(problem, mode=args.mode)
    except FatalCutPresent as exc:
        return _report_fatal(exc, problem)
    text = json.dumps(solution_document(problem, solution, args.decimals), indent=2)
    if args.certificate:
        try:
            Path(args.certificate).write_text(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.certificate}: {exc}") from exc
    print(text)
    return EXIT_OK


def cmd_ratio(args: argparse.Namespace, problem: Problem) -> int:
    try:
        result = minmax_ratio(problem)
    except FatalCutPresent as exc:
        return _report_fatal(exc, problem)
    cut_nodes = (
        list(problem.ordered_nodes(result.critical_cut.source_side))
        if result.critical_cut is not None
        else None
    )
    _emit({"r0": format_rational(result.r0), "critical_cut": cut_nodes})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, problem: Problem) -> int:
    document = _load_json(read_source(args.solution), args.solution)
    solution = solution_from_document(problem, document)
    verdict = verify_certificate(problem, solution)
    if verdict.accepted:
        verdict = _verify_summary(document, solution)
    if verdict.accepted:
        print("ACCEPT")
        return EXIT_OK
    print(f"REJECT {verdict.failed_check}: {verdict.detail}")
    return EXIT_REJECTED


def cmd_oracle(args: argparse.Namespace, problem: Problem) -> int:
    if len(problem.arc_ids) > LEXMIN_SOFT_ARC_LIMIT:
        _diagnose(
            f"warning: {len(problem.arc_ids)} arcs exceed the oracle's soft "
            f"limit of {LEXMIN_SOFT_ARC_LIMIT}; this may be slow"
        )
    try:
        reference = oracle_lexmin(problem)
        solution = balanced_flow(problem)
    except (OracleInfeasible, FatalCutPresent):
        _diagnose("not weakly solvable")
        return EXIT_NOT_WEAKLY_SOLVABLE
    matches = reference.values == solution.flow.values
    _emit(
        {
            "oracle_flow": {
                arc_id: format_rational(reference.values[arc_id])
                for arc_id in problem.arc_ids
            },
            "matches_solver": matches,
        }
    )
    return EXIT_OK if matches else EXIT_MISMATCH


def decimal_places(text: str) -> int:
    """`--decimals N` for 0 <= N <= MAX_DECIMAL_EXPONENT.

    A negative N would make 10**N a float; rendering costs about N² time,
    so N is held to the bound that input exponents have.
    """
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"N must be a nonnegative integer, got {text!r}")
    places = int(text)
    if places > MAX_DECIMAL_EXPONENT:
        raise argparse.ArgumentTypeError(f"N must be at most {MAX_DECIMAL_EXPONENT}")
    return places


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """argparse's usage error, written by `_diagnose`: argparse itself
        prints the usage to stdout when fd 2 is closed."""
        _diagnose(f"{self.format_usage()}{self.prog}: error: {message}")
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lexflow",
        description="Exact balanced (lexmin) flows for transshipment networks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="classify feasibility")
    check.add_argument("instance")
    check.set_defaults(handler=cmd_check)

    solve = commands.add_parser("solve", help="compute the balanced flow")
    solve.add_argument("instance")
    solve.add_argument("--certificate", metavar="PATH", default=None,
                       help="also write the solution document to PATH")
    solve.add_argument("--mode", choices=["dinkelbach", "dichotomy"],
                       default="dinkelbach")
    solve.add_argument("--decimals", metavar="N", nargs="?", type=decimal_places,
                       const=6, default=None,
                       help="append decimal renderings (default 6 places)")
    solve.set_defaults(handler=cmd_solve)

    ratio = commands.add_parser("ratio", help="minmax ratio and critical cut")
    ratio.add_argument("instance")
    ratio.set_defaults(handler=cmd_ratio)

    verify = commands.add_parser("verify", help="check a solution certificate")
    verify.add_argument("instance")
    verify.add_argument("--solution", required=True)
    verify.set_defaults(handler=cmd_verify)

    oracle = commands.add_parser(
        "oracle", help="cross-check against the sequential-LP oracle"
    )
    oracle.add_argument("instance")
    oracle.set_defaults(handler=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Documents are UTF-8 whatever the locale, and a lone surrogate in an id,
    # which UTF-8 cannot hold, is written as its escape; an io.StringIO holds text.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
    try:
        if sys.stdout is None:  # fd 1 is closed
            raise CliError("cannot write stdout: it is closed")
        problem = parse_instance(read_source(args.instance), args.instance)
        code = args.handler(args, problem)
        sys.stdout.flush()  # a closed pipe or a full disk shows up here, not at exit
        return code
    except OSError as exc:  # stdout's: reads and the certificate raise CliError
        # Keep the interpreter's exit flush of what is left quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader left early
            return EXIT_BROKEN_PIPE
        _diagnose(f"error: cannot write stdout: {exc}")
        return EXIT_USAGE
    except CliError as exc:
        _diagnose(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # last resort: a bug ends in a code, not a traceback
        detail = " ".join(str(exc).split())
        _diagnose(f"internal error: {type(exc).__name__}: {detail}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

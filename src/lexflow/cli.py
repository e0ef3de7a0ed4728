"""Command-line front end: check, solve, ratio, verify, oracle.

Instances are read from a JSON document (canonical) or a DIMACS-like plain
text format; `-` reads stdin. Result documents go to stdout, diagnostics to
stderr. Exit codes: 0 success/feasible, 2 parse or validation error,
10 not weakly solvable, 11 weakly feasible only, 12 certificate rejected,
1 oracle mismatch, 3 internal error (a bug; reported in one stderr line).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .balancer import (
    BalancedSolution,
    Certificate,
    Level,
    balanced_flow,
    verify_certificate,
)
from .gale_hoffman import FeasibilityReport, has_fatal_cut, is_feasible
from .model import (
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


class CliError(Exception):
    """Parse or validation failure with a user-facing message."""


def read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def parse_instance(text: str, origin: str = "<input>") -> Problem:
    """Parse an instance document, JSON or DIMACS-like, into a Problem."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json_instance(text, origin)
    return _parse_text_instance(text, origin)


def _parse_json_instance(text: str, origin: str) -> Problem:
    try:
        # parse_float=str keeps decimal literals exact for Fraction parsing
        document = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise CliError(f"{origin}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # an integer literal past the int-string limit
        raise CliError(f"{origin}: {exc}; quote long numbers as strings")
    if not isinstance(document, dict):
        raise CliError(f"{origin}: top level must be an object")

    nodes: list[tuple[str, Any]] = []
    for i, entry in enumerate(document.get("nodes", [])):
        try:
            nodes.append((entry["id"], entry["d"]))
        except (TypeError, KeyError):
            raise CliError(f"{origin}: nodes[{i}] needs 'id' and 'd'")
    arcs: list[tuple[str, str, str, Any]] = []
    for i, entry in enumerate(document.get("arcs", [])):
        try:
            arcs.append(
                (entry["id"], entry["tail"], entry["head"], entry["capacity"])
            )
        except (TypeError, KeyError):
            raise CliError(
                f"{origin}: arcs[{i}] needs 'id', 'tail', 'head', 'capacity'"
            )
    try:
        return validate_problem(nodes, arcs)
    except ModelError as exc:
        raise CliError(f"{origin}: {exc}") from exc


def _parse_text_instance(text: str, origin: str) -> Problem:
    nodes: list[tuple[str, Any]] = []
    arcs: list[tuple[str, str, str, Any]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
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
    try:
        return validate_problem(nodes, arcs)
    except ModelError as exc:
        raise CliError(f"{origin}: {exc}") from exc


def decimal_string(value: Fraction, places: int) -> str:
    """Round-half-even decimal rendering, computed without floats."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**places
    whole, remainder = divmod(scaled.numerator, scaled.denominator)
    double = 2 * remainder
    if double > scaled.denominator or (double == scaled.denominator and whole % 2):
        whole += 1
    digits = format_rational(Fraction(whole)).rjust(places + 1, "0")
    if places == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def solution_document(
    problem: Problem, solution: BalancedSolution, decimals: int | None = None
) -> dict[str, Any]:
    """Serialize a solution; exact values always, decimals only as extras."""
    levels = solution.certificate.levels
    r0 = levels[0].ratio if levels else Fraction(0)
    feasible = all(r <= 1 for r in solution.sorted_ratios)
    document: dict[str, Any] = {
        "status": "feasible" if feasible else "weakly_feasible_only",
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


def solution_from_document(
    problem: Problem, document: dict[str, Any]
) -> BalancedSolution:
    """Rebuild a BalancedSolution from its serialized form."""
    try:
        flow = Flow(
            {
                str(arc_id): parse_rational(value)
                for arc_id, value in document["flow"].items()
            }
        )
        levels = []
        for entry in document["certificate"]["levels"]:
            levels.append(
                Level(
                    ratio=parse_rational(entry["ratio"]),
                    cut=Cut.from_source_side(problem, (str(v) for v in entry["cut"])),
                    fixed_forward=tuple(
                        (str(item["arc"]), parse_rational(item["value"]))
                        for item in entry["fixed_forward"]
                    ),
                    zeroed_reverse=tuple(
                        str(a) for a in entry["zeroed_reverse"]
                    ),
                )
            )
        certificate = Certificate(
            tuple(levels),
            tuple(str(a) for a in document["certificate"]["zero_tail"]),
        )
        ratios = tuple(parse_rational(r) for r in document["sorted_ratios"])
    except (KeyError, TypeError, AttributeError, ModelError) as exc:
        raise CliError(f"malformed solution document: {exc}") from exc
    return BalancedSolution(flow, certificate, ratios)


def _emit(document: dict[str, Any]) -> None:
    print(json.dumps(document, indent=2))


def _print_witness(report: FeasibilityReport | Any, problem: Problem) -> None:
    cut = report.witness_cut
    stats = report.witness_stats
    if cut is None or stats is None:
        return
    print("witness:", " ".join(problem.ordered_nodes(cut.source_side)))
    print("deficiency:", format_rational(stats.deficiency))
    print("capacity:", format_rational(stats.capacity))


def cmd_check(args: argparse.Namespace) -> int:
    problem = parse_instance(read_source(args.instance), args.instance)
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


def cmd_solve(args: argparse.Namespace) -> int:
    problem = parse_instance(read_source(args.instance), args.instance)
    try:
        solution = balanced_flow(problem, mode=args.mode)
    except FatalCutPresent as exc:
        print("not weakly solvable: fatal cut present", file=sys.stderr)
        if exc.witness is not None:
            side = " ".join(problem.ordered_nodes(exc.witness.source_side))
            print(f"witness: {side}", file=sys.stderr)
        return EXIT_NOT_WEAKLY_SOLVABLE
    document = solution_document(problem, solution, args.decimals)
    _emit(document)
    if args.certificate:
        Path(args.certificate).write_text(json.dumps(document, indent=2) + "\n")
    return EXIT_OK


def cmd_ratio(args: argparse.Namespace) -> int:
    problem = parse_instance(read_source(args.instance), args.instance)
    try:
        result = minmax_ratio(problem)
    except FatalCutPresent as exc:
        print("not weakly solvable: fatal cut present", file=sys.stderr)
        if exc.witness is not None:
            side = " ".join(problem.ordered_nodes(exc.witness.source_side))
            print(f"witness: {side}", file=sys.stderr)
        return EXIT_NOT_WEAKLY_SOLVABLE
    cut_nodes = (
        list(problem.ordered_nodes(result.critical_cut.source_side))
        if result.critical_cut is not None
        else None
    )
    _emit({"r0": format_rational(result.r0), "critical_cut": cut_nodes})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    problem = parse_instance(read_source(args.instance), args.instance)
    text = read_source(args.solution)
    try:
        document = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.solution}: invalid JSON: {exc.msg}")
    except ValueError as exc:  # an integer literal past the int-string limit
        raise CliError(f"{args.solution}: {exc}")
    solution = solution_from_document(problem, document)
    verdict = verify_certificate(problem, solution)
    if verdict.accepted:
        print("ACCEPT")
        return EXIT_OK
    print(f"REJECT {verdict.failed_check}: {verdict.detail}")
    return EXIT_REJECTED


def cmd_oracle(args: argparse.Namespace) -> int:
    problem = parse_instance(read_source(args.instance), args.instance)
    if len(problem.arcs) > LEXMIN_SOFT_ARC_LIMIT:
        print(
            f"warning: {len(problem.arcs)} arcs exceed the oracle's soft "
            f"limit of {LEXMIN_SOFT_ARC_LIMIT}; this may be slow",
            file=sys.stderr,
        )
    try:
        reference = oracle_lexmin(problem)
        solution = balanced_flow(problem)
    except (OracleInfeasible, FatalCutPresent):
        print("not weakly solvable", file=sys.stderr)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    solve.add_argument("--decimals", metavar="N", nargs="?", type=int,
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
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # last resort: a bug ends in a code, not a traceback
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

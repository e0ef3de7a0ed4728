"""Seeded, single-threaded, closed-loop benchmark of the lexflow CLI paths.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; lexflow is imported from its `src/`.
Each instance goes through the same public calls the `lexflow` commands
make, one after another, with no concurrency:

- grid, deepden (`solve` + `verify`): parse_instance -> balanced_flow ->
  solution_document + json.dumps(indent=2) -> solution_from_document ->
  verify_certificate.
- oneshot (`check` + `ratio`): parse_instance -> has_fatal_cut +
  is_feasible(p, 1) -> minmax_ratio -> the ratio document.

With `--trace 0` the run is untraced and reports the end-to-end metrics:
per-instance medians of `pipeline_s` (the whole sequence), `solve_s` (the
call that computes the answer: balanced_flow, or minmax_ratio on oneshot)
and `check_s` (the call that checks: verify_certificate, or the feasibility
check on oneshot), plus `setup_s` (median of several import-and-generate
passes) and `peak_rss_mib`. Each span is scaled by the machine's speed
while it ran, sampled all through the run (see reference.py); the unscaled
medians go to stderr. With `--trace 1` it runs a fixed number of instances
untraced and then traced (see tracer.py), asserts the counter identities,
and reports per-layer medians and the tracing overhead; those times are
not scaled.

Every solution or ratio document is hashed and compared with the golden
digest of its catalog entry; a mismatch, a rejected certificate or an
exception counts as a failed operation. The last line of stdout is the
JSON result; a run that cannot import lexflow or read the golden digests
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

import workloads  # noqa: E402  (after the bytecode switch)
from reference import Speed  # noqa: E402
from tracer import Stopwatch, Tracer  # noqa: E402

SETUP_REPEATS = 5
# Traced runs handle a fixed number of instances, so their counts repeat:
# one per this many seconds of --seconds, each run untraced then traced.
TRACE_SECONDS_PER_INSTANCE = {"grid": 6.0, "deepden": 2.0, "oneshot": 5.0}


class SetupError(Exception):
    """The program under test or the golden digests cannot be loaded."""


def import_lexflow() -> SimpleNamespace:
    """Import lexflow afresh from the checkout's `src/`."""
    for name in [m for m in sys.modules if m.split(".")[0] == "lexflow"]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        modules = {
            name: importlib.import_module(f"lexflow.{name}")
            for name in ("cli", "balancer", "gale_hoffman", "ratio_search")
        }
    except ImportError as exc:
        raise SetupError(f"cannot import lexflow from {src}: {exc}") from exc
    found = Path(modules["cli"].__file__).resolve().parent
    if found != src / "lexflow":
        raise SetupError(f"imported lexflow from {found}, not from {src}")
    return SimpleNamespace(**modules)


def load_golden(workload: str) -> list[str]:
    """The golden digest of each catalog entry of the workload."""
    try:
        digests = json.loads(GOLDEN.read_text())[workload]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read golden digests: {exc}") from exc
    if len(digests) != workloads.CATALOG[workload]:
        raise SetupError(f"{GOLDEN} does not cover the {workload} catalog")
    return digests


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    ok: bool
    digest: str
    levels: int
    doc_bytes: int


def _serialize(cli: Any, problem: Any, solution: Any) -> str:
    return json.dumps(cli.solution_document(problem, solution), indent=2)


def _reread(cli: Any, problem: Any, text: str) -> Any:
    return cli.solution_from_document(problem, json.loads(text, parse_float=str))


def solve_verify(api: SimpleNamespace, rec: Any, text: str) -> Outcome:
    """`lexflow solve` then `lexflow verify` on one instance."""
    cli = api.cli
    problem = rec.timed("parse", cli.parse_instance, text)
    solution = rec.timed("balanced_flow", cli.balanced_flow, problem)
    document = rec.timed("serialize", _serialize, cli, problem, solution)
    reread = rec.timed("parse", _reread, cli, problem, document)
    verdict = rec.timed("verify_certificate", cli.verify_certificate, problem, reread)
    return Outcome(
        verdict.accepted,
        digest(document),
        len(solution.certificate.levels),
        len(document),
    )


def _check(cli: Any, problem: Any) -> str:
    # The decision `lexflow check` prints.
    if cli.has_fatal_cut(problem).fatal:
        return "INFEASIBLE_WEAKLY"
    if cli.is_feasible(problem, Fraction(1)).feasible:
        return "FEASIBLE"
    return "WEAKLY_FEASIBLE_ONLY"


def _ratio_document(cli: Any, problem: Any, result: Any) -> str:
    cut = result.critical_cut
    nodes = list(problem.ordered_nodes(cut.source_side)) if cut is not None else None
    return json.dumps(
        {"r0": cli.format_rational(result.r0), "critical_cut": nodes}, indent=2
    )


def check_ratio(api: SimpleNamespace, rec: Any, text: str) -> Outcome:
    """`lexflow check` then `lexflow ratio` on one instance."""
    cli = api.cli
    problem = rec.timed("parse", cli.parse_instance, text)
    verdict = rec.timed("check", _check, cli, problem)
    result = rec.timed("ratio", cli.minmax_ratio, problem)
    document = rec.timed("serialize", _ratio_document, cli, problem, result)
    # The two commands must agree: feasible exactly when r0 <= 1.
    consistent = verdict != "INFEASIBLE_WEAKLY" and (
        (verdict == "FEASIBLE") == (result.r0 <= 1)
    )
    return Outcome(consistent, digest(document), 0, len(document))


SESSIONS = {"grid": solve_verify, "deepden": solve_verify, "oneshot": check_ratio}
# The spans reported as solve_s and check_s on each workload.
ROLES = {
    "grid": ("balanced_flow", "verify_certificate"),
    "deepden": ("balanced_flow", "verify_certificate"),
    "oneshot": ("ratio", "check"),
}
# The speed kernel whose swings follow each workload's: with the
# small-denominator kernel, deepden's and grid's scaled times over-corrected
# the host's fast and slow modes (ten-run spreads of 0.10-0.17); with the
# kilobit one they spread 0.02-0.06.
KERNEL = {"grid": "bigint", "deepden": "bigint", "oneshot": "fraction"}


@dataclass
class Run:
    """One instance through the session, timed by `rec`."""

    pipeline_s: float
    outcome: Outcome | None
    rec: Any


def run_once(
    api: SimpleNamespace, workload: str, text: str, rec: Any, clock=time.perf_counter
) -> Run:
    start = clock()
    try:
        outcome = SESSIONS[workload](api, rec, text)
    except Exception as exc:  # a failed operation; the run goes on
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        outcome = None
    return Run(clock() - start, outcome, rec)


def setup(
    workload: str, seed: int, speed: Speed | None
) -> tuple[SimpleNamespace, list[tuple[int, str]], list[tuple[float, float]]]:
    """Import lexflow and generate the catalog in the seed's order, several
    times. A run that needs more instances cycles through the catalog.

    Returns each pass's time with its speed factor (1 without `speed`).
    """
    entries = workloads.pick(workload, seed, workloads.CATALOG[workload])
    generate = workloads.GENERATORS[workload]
    clock = speed.clock if speed else time.perf_counter
    times = []
    for _ in range(SETUP_REPEATS):
        since = len(speed.samples) if speed else 0
        start = clock()
        api = import_lexflow()
        pool = [(c, generate(c)) for c in entries]
        times.append((clock() - start, speed.factor(since) if speed else 1.0))
    return api, pool, times


def is_good(run: Run, expected: str) -> bool:
    return run.outcome is not None and run.outcome.ok and run.outcome.digest == expected


def per_entry_median(times: list[tuple], field: int) -> float:
    """Median over catalog entries of each entry's median time.

    A run visits every entry at least once and the first few twice; taking
    each entry's median first keeps which ones the seed repeated from
    weighing on the result.
    """
    by_entry: dict[int, list[float]] = {}
    for record in times:
        by_entry.setdefault(record[0], []).append(record[field])
    return statistics.median(statistics.median(ts) for ts in by_entry.values())


def untraced(
    args: argparse.Namespace,
    api,
    pool,
    golden,
    setups: list[tuple[float, float]],
    speed: Speed,
) -> dict:
    runs: list[tuple[int, Run, float]] = []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while not runs or time.perf_counter() < deadline:
        c, text = pool[len(runs) % len(pool)]
        since = len(speed.samples)
        run = run_once(api, args.workload, text, Stopwatch(speed), speed.clock)
        runs.append((c, run, speed.factor(since)))
        failed += not is_good(run, golden[c])
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    solve, check = ROLES[args.workload]
    # (catalog entry, unscaled, scaled) time of every instance
    times = {
        "pipeline_s": [(c, r.pipeline_s, r.pipeline_s * k) for c, r, k in runs],
        "solve_s": [(c, r.rec.inclusive[solve], r.rec.scaled[solve]) for c, r, _ in runs],
        "check_s": [(c, r.rec.inclusive[check], r.rec.scaled[check]) for c, r, _ in runs],
    }
    unscaled = {name: per_entry_median(ts, 1) for name, ts in times.items()}
    unscaled["setup_s"] = statistics.median(t for t, _ in setups)
    print(
        "unscaled: "
        + ", ".join(f"{name} {value:.4f}" for name, value in unscaled.items())
        + f"; {len(speed.samples)} speed samples, median "
        + f"{statistics.median(speed.samples) * 1e6:.1f} us",
        file=sys.stderr,
    )
    metrics = {name: (per_entry_median(ts, 2), "s") for name, ts in times.items()}
    metrics["setup_s"] = (statistics.median(t * k for t, k in setups), "s")
    metrics["peak_rss_mib"] = (rss_mib, "MiB")
    return result(len(runs), failed, failed == 0, metrics)


def layer_metrics(t: Tracer, outcome: Outcome) -> dict[str, tuple[float, str]]:
    """One instance's per-layer record, from a traced run."""
    return {
        "maxflow.calls": (t.calls["maxflow"], "count"),
        "maxflow.nodes": (t.counts["maxflow.nodes"], "count"),
        "maxflow.arcs": (t.counts["maxflow.arcs"], "count"),
        "maxflow.s": (t.inclusive["maxflow"], "s"),
        "gale_hoffman.is_feasible_calls": (t.calls["gale_hoffman.is_feasible"], "count"),
        "gale_hoffman.build_two_pole_calls": (
            t.calls["gale_hoffman.build_two_pole"],
            "count",
        ),
        "gale_hoffman.build_two_pole_s": (t.inclusive["gale_hoffman.build_two_pole"], "s"),
        "gale_hoffman.two_pole_cap_bits": (t.counts["two_pole_cap_bits"], "bit"),
        "gale_hoffman.is_feasible_self_s": (t.self_time["gale_hoffman.is_feasible"], "s"),
        "ratio_search.calls": (t.calls["ratio_search"], "count"),
        "ratio_search.newton_steps": (t.counts["newton_steps"], "count"),
        "ratio_search.self_s": (t.self_time["ratio_search"], "s"),
        "balancer.levels": (outcome.levels, "count"),
        "balancer.reduce_problem_calls": (t.calls["balancer.reduce_problem"], "count"),
        "balancer.reduce_problem_s": (t.inclusive["balancer.reduce_problem"], "s"),
        "balancer.solve_self_s": (t.self_time["balanced_flow"], "s"),
        "balancer.verify_probe_calls": (t.calls["balancer.verify_probe"], "count"),
        "balancer.verify_probe_s": (t.inclusive["balancer.verify_probe"], "s"),
        "balancer.verify_self_s": (t.self_time["verify_certificate"], "s"),
        "model.cut_stats_calls": (t.calls["model.cut_stats"], "count"),
        "model.cut_stats_s": (t.inclusive["model.cut_stats"], "s"),
        "cli.parse_s": (t.inclusive["parse"], "s"),
        "cli.serialize_s": (t.inclusive["serialize"], "s"),
        "cli.doc_bytes": (outcome.doc_bytes, "byte"),
    }


def identity_errors(layers: dict[str, tuple[float, str]]) -> list[str]:
    """Counter identities every traced instance must satisfy."""
    value = {name: v for name, (v, _) in layers.items()}
    levels = value["balancer.levels"]
    errors = []
    if levels:
        if not levels == value["ratio_search.calls"] == value["balancer.reduce_problem_calls"]:
            errors.append("levels, ratio searches and reductions differ")
        if value["balancer.verify_probe_calls"] != 2 * levels:
            errors.append("verifier probes are not 2 per level")
    elif value["ratio_search.calls"] != 1 or value["balancer.verify_probe_calls"]:
        errors.append("a one-shot query must make one ratio search and no verify probe")
    if value["maxflow.calls"] > value["gale_hoffman.is_feasible_calls"]:
        errors.append("more max-flow calls than feasibility probes")
    return errors


def counts_of(layers: dict[str, tuple[float, str]]) -> dict[str, float]:
    return {name: v for name, (v, unit) in layers.items() if unit != "s"}


def traced_once(api: SimpleNamespace, workload: str, text: str) -> tuple[Run, dict]:
    tracer = Tracer()
    try:
        tracer.install(api)
        run = run_once(api, workload, text, tracer)
    finally:
        tracer.uninstall()
    return run, layer_metrics(tracer, run.outcome) if run.outcome else {}


def traced(args: argparse.Namespace, api, pool, golden) -> dict:
    instances = max(1, int(args.seconds / TRACE_SECONDS_PER_INSTANCE[args.workload]))
    records: list[dict[str, tuple[float, str]]] = []
    overheads: list[float] = []
    failed = 0
    correct = True
    for i in range(instances):
        c, text = pool[i % len(pool)]
        plain = run_once(api, args.workload, text, Stopwatch())
        # The first instance is traced twice: its counts must repeat exactly.
        passes = [traced_once(api, args.workload, text) for _ in range(2 if i == 0 else 1)]
        if not all(is_good(run, golden[c]) for run in [plain, *(run for run, _ in passes)]):
            failed += 1
            continue
        layers = passes[0][1]
        errors = identity_errors(layers)
        if counts_of(layers) != counts_of(passes[-1][1]):
            errors.append("counts differ between two traced passes")
        for error in errors:
            print(f"catalog entry {c}: {error}", file=sys.stderr)
            correct = False
        records.append(layers)
        overheads.append(passes[0][0].pipeline_s - plain.pipeline_s)
    metrics = {}
    if records:
        for name, (_, unit) in records[0].items():
            metrics[name] = (statistics.median(r[name][0] for r in records), unit)
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return result(instances, failed, correct and failed == 0, metrics)


def result(attempted: int, failed: int, correct: bool, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        golden = load_golden(args.workload)
        if args.trace:
            api, pool, _ = setup(args.workload, args.seed, None)
            report = traced(args, api, pool, golden)
        else:
            with Speed(KERNEL[args.workload]) as speed:
                api, pool, setups = setup(args.workload, args.seed, speed)
                report = untraced(args, api, pool, golden, setups, speed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

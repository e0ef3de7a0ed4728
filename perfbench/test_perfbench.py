"""The benchmark's own checks: it measures what `lexflow` users run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from tracer import Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = json.loads((HERE / "golden.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def lexflow(*args: str, stdin: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "lexflow.cli", *args, "-"],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def benchmark_digest(workload: str, text: str) -> str:
    """The digest the benchmark's own session computes for one instance."""
    from lexflow import balancer, cli, gale_hoffman, ratio_search

    api = SimpleNamespace(
        cli=cli, balancer=balancer, gale_hoffman=gale_hoffman, ratio_search=ratio_search
    )
    outcome = run.SESSIONS[workload](api, Stopwatch(), text)
    assert outcome.ok
    return outcome.digest


@pytest.mark.parametrize("workload", ["grid", "deepden"])
def test_benchmark_document_is_lexflow_solve_stdout(workload):
    text = workloads.GENERATORS[workload](0)
    out = lexflow("solve", stdin=text)
    assert out.returncode == 0, out.stderr
    assert out.stdout.endswith("\n")
    stdout_digest = sha256(out.stdout[:-1])
    assert stdout_digest == benchmark_digest(workload, text) == GOLDEN[workload][0]


def test_benchmark_ratio_document_is_lexflow_ratio_stdout():
    text = workloads.oneshot(0)
    ratio = lexflow("ratio", stdin=text)
    assert ratio.returncode == 0, ratio.stderr
    stdout_digest = sha256(ratio.stdout[:-1])
    assert stdout_digest == benchmark_digest("oneshot", text) == GOLDEN["oneshot"][0]
    r0 = json.loads(ratio.stdout)["r0"]
    check = lexflow("check", stdin=text)
    feasible = check.stdout.split("\n")[0] == "FEASIBLE"
    assert check.returncode == (0 if feasible else 11)
    assert feasible == (Fraction(r0) <= 1)


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_oneshot_generator_matches_criterion_8(seed):
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        acceptance = importlib.import_module("test_acceptance")
    finally:
        sys.path.remove(str(ROOT / "tests"))
    from lexflow.cli import parse_instance

    ours = parse_instance(workloads.scale_instance(seed, 50, 200))
    theirs = acceptance._scale_instance(seed)
    assert ours.node_ids == theirs.node_ids
    assert dict(ours.balances) == dict(theirs.balances)
    assert ours.arcs == theirs.arcs


def test_same_seed_same_inputs():
    assert workloads.pick("grid", 5, 60) == workloads.pick("grid", 5, 60)
    assert workloads.pick("grid", 5, 60) != workloads.pick("grid", 6, 60)
    assert workloads.deepden(3) == workloads.deepden(3)


def result_of(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    report = result_of(bench("--workload", "deepden", "--seed", "1", "--seconds", "1", "--trace", "0"))
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in report["metrics"].values())


def test_traced_counts_repeat_and_identities_hold():
    args = ("--workload", "deepden", "--seed", "2", "--seconds", "1", "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    value = {k: v["value"] for k, v in first["metrics"].items()}
    assert value["balancer.levels"] == value["ratio_search.calls"] > 0
    assert value["balancer.verify_probe_calls"] == 2 * value["balancer.levels"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "grid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""

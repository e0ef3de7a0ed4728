"""Minmax ratio: Newton and bisection modes, traces, exact reconstruction."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lexflow
from lexflow import (
    FatalCutPresent,
    Problem,
    balanced_flow,
    cut_stats,
    enumerate_cuts,
    is_feasible,
    minmax_ratio,
    minmax_ratio_dichotomy,
    total_integer_capacity,
    validate_problem,
    verify_certificate,
)
from conftest import random_problem, single_arc_problem

F = Fraction


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run `script` under `python -O` against this checkout's lexflow."""
    src = str(Path(lexflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestMinmaxRatio:
    def test_single_arc(self):
        result = minmax_ratio(single_arc_problem())
        assert result.r0 == F(5, 2)
        assert result.critical_cut.source_side == frozenset({"u"})

    def test_diamond(self, d4):
        result = minmax_ratio(d4)
        assert result.r0 == F(4, 3)
        assert result.critical_cut.source_side == frozenset({"s", "b"})

    def test_zero_balances(self):
        p = validate_problem([("u", 0), ("w", 0)], [("uw", "u", "w", 3)])
        result = minmax_ratio(p)
        assert result.r0 == 0 and result.critical_cut is None
        assert result.steps == ()

    def test_fatal_cut_raises(self):
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        with pytest.raises(FatalCutPresent) as info:
            minmax_ratio(p)
        assert info.value.witness.source_side == frozenset({"w"})

    def test_trace_strictly_increases(self):
        rng = random.Random(301)
        for _ in range(60):
            p = random_problem(rng, max_nodes=8, max_arcs=10)
            try:
                result = minmax_ratio(p)
            except FatalCutPresent:
                continue
            zs = [step.z for step in result.steps]
            assert all(a < b for a, b in zip(zs, zs[1:]))
            for step in result.steps:
                assert step.ratio > step.z
                assert cut_stats(p, step.cut).ratio == step.ratio

    def test_critical_cut_attains_r0(self):
        rng = random.Random(302)
        for _ in range(60):
            p = random_problem(rng, max_nodes=8, max_arcs=10)
            try:
                result = minmax_ratio(p)
            except FatalCutPresent:
                continue
            if result.critical_cut is not None:
                assert cut_stats(p, result.critical_cut).ratio == result.r0


class TestDichotomy:
    def test_diamond_matches(self, d4):
        result = minmax_ratio_dichotomy(d4)
        assert result.r0 == F(4, 3)
        assert result.critical_cut.source_side == frozenset({"s", "b"})

    def test_small_ratio(self):
        p = validate_problem([("u", 1), ("w", -1)], [("uw", "u", "w", 3)])
        assert minmax_ratio_dichotomy(p).r0 == F(1, 3)

    def test_zero_balances(self):
        p = validate_problem([("u", 0), ("w", 0)], [("uw", "u", "w", 3)])
        assert minmax_ratio_dichotomy(p).r0 == 0

    def test_modes_agree(self):
        rng = random.Random(303)
        for _ in range(50):
            p = random_problem(rng, max_nodes=7, max_arcs=9)
            try:
                newton = minmax_ratio(p)
            except FatalCutPresent:
                with pytest.raises(FatalCutPresent):
                    minmax_ratio_dichotomy(p)
                continue
            bisect = minmax_ratio_dichotomy(p)
            assert newton.r0 == bisect.r0
            if bisect.critical_cut is not None:
                assert cut_stats(p, bisect.critical_cut).ratio == bisect.r0
            zs = [step.z for step in bisect.steps]
            assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_matches_census_max(self):
        rng = random.Random(304)
        for _ in range(40):
            p = random_problem(rng, max_nodes=6, max_arcs=8)
            census = enumerate_cuts(p)
            if census.fatal_cuts:
                continue
            assert minmax_ratio_dichotomy(p).r0 == census.max_ratio


class TestFeasibilityFlipsAtR0:
    def test_threshold_is_exact(self):
        rng = random.Random(305)
        for _ in range(40):
            p = random_problem(rng, max_nodes=7, max_arcs=9)
            try:
                r0 = minmax_ratio(p).r0
            except FatalCutPresent:
                continue
            if r0 == 0:
                continue
            lam = total_integer_capacity(p)
            delta = F(1, 2 * lam * lam)
            assert is_feasible(p, r0).feasible
            assert not is_feasible(p, r0 * (1 - delta)).feasible
            assert is_feasible(p, r0 * (1 + delta)).feasible


@st.composite
def solvable_problems(draw) -> Problem:
    """Small weakly solvable instances: balances come from a nonnegative flow."""
    n = draw(st.integers(2, 5))
    ids = [f"n{i}" for i in range(n)]
    balances = {v: F(0) for v in ids}
    arcs = []
    for j in range(draw(st.integers(1, 7))):
        tail = draw(st.integers(0, n - 1))
        head = (tail + draw(st.integers(1, n - 1))) % n
        capacity = F(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
        carried = F(draw(st.integers(0, 12)), draw(st.integers(1, 6)))
        balances[ids[tail]] += carried
        balances[ids[head]] -= carried
        arcs.append((f"e{j}", ids[tail], ids[head], capacity))
    return validate_problem([(v, balances[v]) for v in ids], arcs)


class TestReconstruction:
    def test_deep_continued_fraction(self):
        # F(k+1)/F(k) = [1; 1, ..., 1] has 3100 continued-fraction terms, far
        # more than the interpreter's default recursion limit. The reverse
        # arc makes the minimum capacity 1, so the bracket does not start at
        # r0 and the reconstruction has to find it.
        a, b = 1, 1
        for _ in range(3100):
            a, b = a + b, a
        p = validate_problem(
            [("u", a), ("w", -a)],
            [("uw", "u", "w", b), ("wu", "w", "u", 1)],
        )
        result = minmax_ratio_dichotomy(p)
        assert result.r0 == F(a, b)
        assert result.critical_cut.source_side == frozenset({"u"})

    SCRIPT = """
import sys
from fractions import Fraction
from lexflow import Cut, FeasibilityReport, InvariantViolation, cut_stats
from lexflow import validate_problem
import lexflow.ratio_search as rs

if __debug__:
    sys.exit("asserts are on")
problem = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
cut = Cut.from_source_side(problem, ["u"])

def lying(p, z, cut_side="source"):
    # Flips at 7/3, whose denominator exceeds the total capacity 2.
    if z >= Fraction(7, 3):
        return FeasibilityReport(True, z)
    return FeasibilityReport(False, z, cut, cut_stats(p, cut))

rs.is_feasible = lying
try:
    rs.minmax_ratio_dichotomy(problem)
except InvariantViolation as exc:
    print(f"raised: {exc}")
"""

    def test_impossible_threshold_raises_under_python_O(self):
        done = run_optimized(self.SCRIPT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: rational reconstruction left the bracket\n"


class TestAgainstCensusProperty:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(solvable_problems())
    def test_modes_census_and_verifier_agree(self, p):
        newton = minmax_ratio(p)
        assert newton.r0 == minmax_ratio_dichotomy(p).r0 == enumerate_cuts(p).max_ratio
        solution = balanced_flow(p)
        assert balanced_flow(p, mode="dichotomy").flow == solution.flow
        assert verify_certificate(p, solution).accepted


class TestInvariantsUnderOptimize:
    # A feasibility oracle whose witness never beats the probe: the Newton
    # search must stop with InvariantViolation, also when asserts are off.
    SCRIPT = """
import sys
from lexflow import Cut, FeasibilityReport, InvariantViolation, cut_stats
from lexflow import validate_problem
import lexflow.ratio_search as rs

if __debug__:
    sys.exit("asserts are on")
problem = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
cut = Cut.from_source_side(problem, ["u"])

def stuck(p, z, cut_side="source"):
    return FeasibilityReport(False, z, cut, cut_stats(p, cut))

rs.is_feasible = stuck
try:
    rs.minmax_ratio(problem)
except InvariantViolation as exc:
    print(f"raised: {exc}")
"""

    def test_witness_must_beat_the_probe_under_python_O(self):
        done = run_optimized(self.SCRIPT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: witness must beat the probe\n"

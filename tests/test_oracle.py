"""Oracle layer: exact simplex, LP duality, sequential lexmin; and the
tests' own cut census."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from lexflow import (
    Cut,
    Flow,
    LPStatus,
    LinearProgram,
    OracleInfeasible,
    balanced_flow,
    lp_solve,
    node_balance_residual,
    oracle_lexmin,
    validate_problem,
)
from conftest import (
    TooLarge,
    diamond_problem,
    enumerate_cuts,
    random_solvable_problem,
    single_arc_problem,
    sorted_utilizations,
)

F = Fraction


class TestLpSolve:
    def test_single_arc_as_lp(self):
        # min t subject to x = 5, x <= 2t (variables x, t >= 0)
        lp = LinearProgram([F(0), F(1)])
        lp.add([F(1), F(0)], "==", F(5))
        lp.add([F(1), F(-2)], "<=", F(0))
        result = lp_solve(lp)
        assert result.status is LPStatus.OPTIMAL
        assert result.value == F(5, 2)
        assert result.point == (F(5), F(5, 2))

    def test_infeasible(self):
        lp = LinearProgram([F(1)])
        lp.add([F(1)], ">=", F(3))
        lp.add([F(1)], "<=", F(2))
        assert lp_solve(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram([F(-1)])
        assert lp_solve(lp).status is LPStatus.UNBOUNDED

    def test_degenerate_does_not_cycle(self):
        # Classic degenerate corner; Bland's rule must still terminate.
        lp = LinearProgram([F(-3, 4), F(150), F(-1, 50), F(6)])
        lp.add([F(1, 4), F(-60), F(-1, 25), F(9)], "<=", F(0))
        lp.add([F(1, 2), F(-90), F(-1, 50), F(3)], "<=", F(0))
        lp.add([F(0), F(0), F(1), F(0)], "<=", F(1))
        result = lp_solve(lp)
        assert result.status is LPStatus.OPTIMAL
        assert result.value == F(-1, 20)

    def test_negative_rhs_normalization(self):
        # min x with x >= 4 written as -x <= -4
        lp = LinearProgram([F(1)])
        lp.add([F(-1)], "<=", F(-4))
        result = lp_solve(lp)
        assert result.status is LPStatus.OPTIMAL and result.value == F(4)

    def test_strong_duality_on_random_lps(self):
        # primal: min c.x, Ax >= b, x >= 0; dual: max b.y, A^T y <= c, y >= 0
        rng = random.Random(601)
        optimal_pairs = 0
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            A = [
                [F(rng.randint(-4, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
            b = [F(rng.randint(-4, 4)) for _ in range(rows)]
            c = [F(rng.randint(-2, 6)) for _ in range(cols)]
            primal = LinearProgram(list(c))
            for coeffs, rhs in zip(A, b):
                primal.add(coeffs, ">=", rhs)
            dual = LinearProgram([-v for v in b])
            for j in range(cols):
                dual.add([A[i][j] for i in range(rows)], "<=", c[j])
            p_res, d_res = lp_solve(primal), lp_solve(dual)
            if p_res.status is LPStatus.OPTIMAL:
                if d_res.status is LPStatus.OPTIMAL:
                    assert p_res.value == -d_res.value
                    optimal_pairs += 1
                else:
                    # a finite primal admits a finite dual
                    raise AssertionError("duality violated")
            elif p_res.status is LPStatus.UNBOUNDED:
                assert d_res.status is LPStatus.INFEASIBLE
        assert optimal_pairs > 10


class TestOracleLexmin:
    def test_single_arc(self):
        flow = oracle_lexmin(single_arc_problem())
        assert flow.values == {"uw": F(5)}

    def test_diamond_matches_solver(self, d4):
        assert oracle_lexmin(d4).values == balanced_flow(d4).flow.values

    def test_zero_balances(self):
        p = validate_problem(
            [("u", 0), ("w", 0)],
            [("uw", "u", "w", 1), ("wu", "w", "u", 1)],
        )
        assert all(v == 0 for v in oracle_lexmin(p).values.values())

    def test_infeasible_instance(self):
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        with pytest.raises(OracleInfeasible):
            oracle_lexmin(p)
        with pytest.raises(OracleInfeasible):
            oracle_lexmin(validate_problem([("u", 1), ("w", -1)], []))

    def test_output_dominates_random_weakly_feasible_flows(self):
        rng = random.Random(602)
        for _ in range(3):
            p = random_solvable_problem(rng, max_nodes=5, max_arcs=7)
            best = oracle_lexmin(p)
            assert all(
                r == 0 for r in node_balance_residual(p, best).values()
            )
            best_ratios = sorted_utilizations(best, p)
            for _ in range(100):
                other = _random_weakly_feasible_flow(p, rng)
                assert best_ratios <= sorted_utilizations(other, p)

    def test_no_tight_arc_raises_under_python_O(self):
        # Every probe LP reports an optimum below the bound, so no arc is
        # pinned; the check must stop the round loop even under -O.
        script = textwrap.dedent(
            '''
            import dataclasses, sys
            from lexflow import oracle, validate_problem

            solve = oracle.lp_solve

            def untight(lp):
                result = solve(lp)
                if len(lp.objective) == 1:  # a probe LP: x alone, no bound t
                    return dataclasses.replace(result, value=result.value - 1)
                return result

            oracle.lp_solve = untight
            p = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
            try:
                oracle.oracle_lexmin(p)
            except AssertionError as exc:
                print(sys.flags.optimize, exc)
            '''
        )
        src = str(Path(oracle_lexmin.__code__.co_filename).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "1 some arc must be tight at the optimal bound\n"


def _random_weakly_feasible_flow(p, rng) -> Flow:
    """Any weakly feasible flow, via an LP with a random positive objective."""
    m = len(p.arcs)
    lp = LinearProgram([F(rng.randint(1, 10)) for _ in range(m)])
    for v in p.node_ids:
        coeffs = [F(0)] * m
        for idx, arc in enumerate(p.arcs):
            if arc.tail == v:
                coeffs[idx] += 1
            if arc.head == v:
                coeffs[idx] -= 1
        lp.add(coeffs, "==", p.balances[v])
    result = lp_solve(lp)
    assert result.status is LPStatus.OPTIMAL
    return Flow({a.arc_id: x for a, x in zip(p.arcs, result.point)})


class TestEnumerateCuts:
    def test_diamond_census(self, d4):
        census = enumerate_cuts(d4)
        assert len(census.entries) == 14
        assert census.max_ratio == F(4, 3)
        assert [c.source_side for c in census.critical_cuts] == [
            frozenset({"s", "b"})
        ]
        assert census.fatal_cuts == ()
        assert len(census.deficient_cuts) == 1

    def test_known_ratios_present(self, d4):
        census = enumerate_cuts(d4)
        by_side = {cut.source_side: stats for cut, stats in census.entries}
        assert by_side[frozenset({"s"})].ratio == F(1)
        assert by_side[frozenset({"s", "a"})].ratio == F(4, 5)
        assert by_side[frozenset({"s", "a", "b"})].ratio == F(1)

    def test_fatal_detection(self):
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        census = enumerate_cuts(p)
        assert [c.source_side for c in census.fatal_cuts] == [frozenset({"w"})]

    def test_zero_balances_have_no_positive_cuts(self):
        p = validate_problem([("u", 0), ("w", 0)], [("uw", "u", "w", 1)])
        census = enumerate_cuts(p)
        assert census.max_ratio == 0
        assert census.critical_cuts == ()

    def test_too_large_guard(self):
        n = 21
        nodes = [(f"n{i}", 0) for i in range(n)]
        p = validate_problem(nodes, [("e", "n0", "n1", 1)])
        with pytest.raises(TooLarge):
            enumerate_cuts(p)

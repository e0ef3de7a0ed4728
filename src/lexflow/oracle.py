"""Desk-scale ground truth: exact simplex and sequential-LP lexmin.

Everything here exists to check the main solver from the outside, through
linear programming instead of flow theory. Tests and the `oracle` CLI
subcommand use it; the solver itself never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .model import Flow, Problem

LEXMIN_SOFT_ARC_LIMIT = 15  # documented guidance, not enforced


class OracleInfeasible(Exception):
    """The instance admits no weakly feasible flow."""


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


@dataclass
class LinearProgram:
    """min objective . x over x >= 0 subject to rows (coeffs, sense, rhs).

    Sense is one of "<=", "==", ">=". This covers exactly the shapes the
    sequential lexmin scheme needs; it is not a general modeling layer.
    """

    objective: list[Fraction]
    rows: list[tuple[list[Fraction], str, Fraction]] = field(default_factory=list)

    def add(self, coeffs: Sequence[Fraction], sense: str, rhs: Fraction) -> None:
        if sense not in ("<=", "==", ">="):
            raise ValueError(f"unknown sense {sense!r}")
        if len(coeffs) != len(self.objective):
            raise ValueError("coefficient count differs from variable count")
        self.rows.append((list(coeffs), sense, rhs))


def lp_solve(lp: LinearProgram) -> LPResult:
    """Two-phase simplex over exact rationals with Bland's rule.

    Bland's least-index pivoting (smallest eligible entering column,
    smallest basis variable on ratio ties) cannot cycle, so degeneracy is
    harmless. Deterministic for a fixed program.
    """
    n = len(lp.objective)

    normalized: list[tuple[list[Fraction], str, Fraction]] = []
    flipped = {"<=": ">=", ">=": "<=", "==": "=="}
    for coeffs, sense, rhs in lp.rows:
        a = [Fraction(c) for c in coeffs]
        b = Fraction(rhs)
        if b < 0:
            a = [-c for c in a]
            b = -b
            sense = flipped[sense]
        normalized.append((a, sense, b))

    num_slack = sum(1 for _, sense, _ in normalized if sense != "==")
    num_art = sum(1 for _, sense, _ in normalized if sense != "<=")
    art_start = n + num_slack
    width = art_start + num_art

    tab: list[list[Fraction]] = []
    basis: list[int] = []
    zero = Fraction(0)
    slack_col, art_col = n, art_start
    for a, sense, b in normalized:
        row = a + [zero] * (width - n) + [b]
        if sense == "<=":
            row[slack_col] = Fraction(1)
            basis.append(slack_col)
            slack_col += 1
        elif sense == ">=":
            row[slack_col] = Fraction(-1)
            slack_col += 1
            row[art_col] = Fraction(1)
            basis.append(art_col)
            art_col += 1
        else:
            row[art_col] = Fraction(1)
            basis.append(art_col)
            art_col += 1
        tab.append(row)

    def pivot(i: int, j: int) -> None:
        inv = 1 / tab[i][j]
        tab[i] = [v * inv for v in tab[i]]
        row_i = tab[i]
        for k in range(len(tab)):
            f = tab[k][j]
            if k != i and f != 0:
                tab[k] = [v - f * w for v, w in zip(tab[k], row_i)]
        basis[i] = j

    def run(cost: list[Fraction], allowed: int) -> str:
        while True:
            enter = next((j for j in range(allowed) if cost[j] < 0), -1)
            if enter < 0:
                return "optimal"
            leave = -1
            best: Fraction | None = None
            for i in range(len(tab)):
                if tab[i][enter] > 0:
                    ratio = tab[i][-1] / tab[i][enter]
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            pivot(leave, enter)
            f = cost[enter]
            if f != 0:
                row = tab[leave]
                for j in range(width + 1):
                    cost[j] -= f * row[j]

    # Phase 1: minimize the artificial total; positive optimum is infeasible.
    if num_art:
        cost1 = [Fraction(1) if art_start <= j < width else zero for j in range(width)]
        cost1.append(zero)
        for i, b in enumerate(basis):
            if b >= art_start:
                cost1 = [c - t for c, t in zip(cost1, tab[i])]
        status = run(cost1, width)
        if status != "optimal":
            raise AssertionError("phase 1 is bounded below by zero")
        if -cost1[-1] > 0:
            return LPResult(LPStatus.INFEASIBLE)
        # Pivot leftover artificials out of the basis; drop redundant rows.
        keep: list[int] = []
        for i in range(len(tab)):
            if basis[i] >= art_start:
                j = next((j for j in range(art_start) if tab[i][j] != 0), -1)
                if j < 0:
                    continue  # all-zero row: redundant constraint
                pivot(i, j)
            keep.append(i)
        tab = [tab[i] for i in keep]
        basis = [basis[i] for i in keep]

    cost2 = [Fraction(c) for c in lp.objective] + [zero] * (width - n) + [zero]
    for i, b in enumerate(basis):
        f = cost2[b]
        if f != 0:
            cost2 = [c - f * t for c, t in zip(cost2, tab[i])]
    status = run(cost2, art_start)
    if status == "unbounded":
        return LPResult(LPStatus.UNBOUNDED)

    values = [zero] * width
    for i, b in enumerate(basis):
        values[b] = tab[i][-1]
    point = tuple(values[:n])
    value = sum((c * x for c, x in zip(lp.objective, point)), zero)
    return LPResult(LPStatus.OPTIMAL, value, point)


def oracle_lexmin(problem: Problem) -> Flow:
    """Lexmin flow via the sequential linear programming scheme.

    Repeatedly minimize a common bound t with every pinned arc held at its
    value and every free arc constrained to at most t times its capacity;
    at the optimum, pin exactly the free arcs that cannot drop below the
    bound (each tested by a second LP). At least one arc is pinned per
    round, so the loop ends after at most one round per arc. Meant for
    small instances (roughly up to fifteen arcs); raises OracleInfeasible
    when no weakly feasible flow exists.
    """
    m = len(problem.arcs)
    if m == 0:
        if any(d != 0 for d in problem.balances.values()):
            raise OracleInfeasible("nonzero balances with no arcs")
        return Flow({})

    zero = Fraction(0)

    def conservation(num_vars: int) -> list[tuple[list[Fraction], str, Fraction]]:
        rows = []
        for v in problem.node_ids:
            coeffs = [zero] * num_vars
            for idx, arc in enumerate(problem.arcs):
                if arc.tail == v:
                    coeffs[idx] += 1
                if arc.head == v:
                    coeffs[idx] -= 1
            rows.append((coeffs, "==", problem.balances[v]))
        return rows

    fixed: dict[str, Fraction] = {}
    first_round = True
    while len(fixed) < m:
        # Bound LP: variables x_0..x_{m-1}, t; minimize t.
        lp = LinearProgram([zero] * m + [Fraction(1)])
        lp.rows.extend(conservation(m + 1))
        for idx, arc in enumerate(problem.arcs):
            coeffs = [zero] * (m + 1)
            if arc.arc_id in fixed:
                coeffs[idx] = Fraction(1)
                lp.add(coeffs, "==", fixed[arc.arc_id])
            else:
                coeffs[idx] = Fraction(1)
                coeffs[m] = -arc.capacity
                lp.add(coeffs, "<=", zero)
        outcome = lp_solve(lp)
        if outcome.status is LPStatus.INFEASIBLE:
            if first_round:
                raise OracleInfeasible("no weakly feasible flow exists")
            raise AssertionError("pinning arcs cannot lose feasibility")
        if outcome.status is not LPStatus.OPTIMAL or outcome.value is None:
            raise AssertionError("the bound LP has an optimum once feasible")
        bound = outcome.value
        first_round = False

        pinned_now: list[tuple[str, Fraction]] = []
        for idx, arc in enumerate(problem.arcs):
            if arc.arc_id in fixed:
                continue
            probe = LinearProgram([zero] * m)
            probe.objective[idx] = Fraction(1)
            probe.rows.extend(conservation(m))
            for jdx, other in enumerate(problem.arcs):
                coeffs = [zero] * m
                coeffs[jdx] = Fraction(1)
                if other.arc_id in fixed:
                    probe.add(coeffs, "==", fixed[other.arc_id])
                else:
                    probe.add(coeffs, "<=", bound * other.capacity)
            verdict = lp_solve(probe)
            if verdict.status is not LPStatus.OPTIMAL or verdict.value is None:
                raise AssertionError("a probe LP has an optimum at a feasible bound")
            if verdict.value == bound * arc.capacity:
                pinned_now.append((arc.arc_id, bound * arc.capacity))
        if not pinned_now:
            raise AssertionError("some arc must be tight at the optimal bound")
        fixed.update(pinned_now)

    return Flow({arc_id: fixed[arc_id] for arc_id in problem.arc_ids})

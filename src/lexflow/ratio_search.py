"""Exact search for the minmax excess ratio and a critical cut.

The default mode is a discrete Newton (Dinkelbach) iteration on the capacity
factor: every infeasible probe returns a witness cut whose ratio strictly
exceeds the probe, and a feasible probe at a value that is itself a cut
ratio pins the maximum exactly, with no epsilon management. A bisection mode
that recovers the ratio with `Fraction.limit_denominator` is a cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .gale_hoffman import (
    CutSide,
    FeasibilityReport,
    InvariantViolation,
    has_fatal_cut,
    is_feasible,
    total_integer_capacity,
)
from .model import Cut, Problem, cut_stats


class FatalCutPresent(Exception):
    """The problem is not weakly solvable; the offending cut is `.witness`."""

    def __init__(self, witness: Cut | None = None) -> None:
        super().__init__("problem has a fatal cut and no weakly feasible flow")
        self.witness = witness


class IterationCapExceeded(InvariantViolation):
    """A search safety cap tripped; this signals a bug, not bad input."""


@dataclass(frozen=True)
class SearchStep:
    """One infeasible probe: the factor tested, its witness, and its ratio."""

    z: Fraction
    cut: Cut
    ratio: Fraction


@dataclass(frozen=True)
class RatioResult:
    """The exact minmax ratio r0 together with a cut attaining it.

    `critical_cut` is None exactly when r0 is zero, i.e. when no cut has
    positive deficiency. The z values along `steps` strictly increase.
    """

    r0: Fraction
    critical_cut: Cut | None
    steps: tuple[SearchStep, ...]


def _require_no_fatal_cut(problem: Problem) -> None:
    report = has_fatal_cut(problem)
    if report.fatal:
        raise FatalCutPresent(report.witness_cut)


def _witness_ratio(report: FeasibilityReport) -> Fraction | None:
    stats = report.witness_stats
    return None if stats is None else stats.ratio


def minmax_ratio(
    problem: Problem,
    *,
    cut_side: CutSide = "source",
    check_fatal: bool = True,
) -> RatioResult:
    """Largest deficiency/capacity over all cuts, by discrete Newton steps.

    Seeds with the ratio of the all-producers cut, then alternates a
    feasibility test at the current candidate with a jump to the witness
    cut's ratio. Candidates are always ratios of actual cuts, so the first
    feasible candidate equals the maximum and the preceding witness is a
    critical cut. Callers that already know the problem has no fatal cut
    (e.g. because they reduced a solvable one) may pass check_fatal=False.
    """
    if check_fatal:
        _require_no_fatal_cut(problem)
    if problem.total_supply == 0:
        return RatioResult(Fraction(0), None, ())

    producers = [v for v in problem.node_ids if problem.balances[v] > 0]
    cut = Cut.from_source_side(problem, producers)
    seed = cut_stats(problem, cut).ratio
    if seed is None or seed <= 0:
        raise InvariantViolation("producer cut would be fatal")

    z = seed
    steps: list[SearchStep] = []
    cap = max(1, len(problem.arcs) * len(problem.node_ids))
    for _ in range(cap):
        report = is_feasible(problem, z, cut_side=cut_side)
        if report.feasible:
            return RatioResult(z, cut, tuple(steps))
        ratio = _witness_ratio(report)
        if report.witness_cut is None or ratio is None or ratio <= z:
            raise InvariantViolation("witness must beat the probe")
        cut = report.witness_cut
        steps.append(SearchStep(z, cut, ratio))
        z = ratio

    warnings.warn(
        "ratio search hit its iteration cap; falling back to bisection",
        RuntimeWarning,
        stacklevel=2,
    )
    return minmax_ratio_dichotomy(problem, cut_side=cut_side, check_fatal=False)


def minmax_ratio_dichotomy(
    problem: Problem,
    *,
    cut_side: CutSide = "source",
    check_fatal: bool = True,
) -> RatioResult:
    """Bisection on the capacity factor with exact rational reconstruction.

    Cut ratios are ΣD/ΣC with ΣC <= λ = `total_integer_capacity`, so their
    denominators are at most λ and distinct ratios lie 1/λ² apart or more.
    Bisection keeps r0 in (lo, hi] until hi - lo < 1/(2λ²); every other
    fraction with denominator at most λ is then farther from hi than r0, so
    r0 = hi.limit_denominator(λ). A critical cut is read off an infeasible
    probe half the separation below r0, where every minimum cut is critical.
    Cross-checking mode for `minmax_ratio`.
    """
    if check_fatal:
        _require_no_fatal_cut(problem)
    if problem.total_supply == 0:
        return RatioResult(Fraction(0), None, ())

    lam = total_integer_capacity(problem)
    gap = Fraction(1, 2 * lam * lam)
    upper = problem.total_supply / min(a.capacity for a in problem.arcs)

    lo, hi = Fraction(0), upper  # infeasible at lo (by r0 > 0), feasible at hi
    steps: list[SearchStep] = []
    while hi - lo >= gap:
        mid = (lo + hi) / 2
        report = is_feasible(problem, mid, cut_side=cut_side)
        if report.feasible:
            hi = mid
        else:
            lo = mid
            ratio = _witness_ratio(report)
            if report.witness_cut is None or ratio is None:
                raise InvariantViolation("infeasible probe without a witness")
            steps.append(SearchStep(mid, report.witness_cut, ratio))

    r0 = hi.limit_denominator(lam)
    if not lo < r0 <= hi:
        raise InvariantViolation("rational reconstruction left the bracket")
    probe = is_feasible(problem, r0 - gap, cut_side=cut_side)
    if probe.feasible or probe.witness_cut is None:
        raise InvariantViolation("no critical cut just below the ratio")
    return RatioResult(r0, probe.witness_cut, tuple(steps))

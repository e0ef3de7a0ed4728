"""Exact search for the minmax excess ratio and a critical cut.

The default mode is a discrete Newton (Dinkelbach) iteration on the capacity
factor: every infeasible probe returns a witness cut whose ratio strictly
exceeds the probe, and a feasible probe at a value that is itself a cut
ratio pins the maximum exactly, with no epsilon management. A bisection mode
with exact rational reconstruction is kept as an independent cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .gale_hoffman import (
    CutSide,
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


class IterationCapExceeded(Exception):
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
    assert seed is not None and seed > 0, "producer cut would be fatal"

    z = seed
    steps: list[SearchStep] = []
    cap = max(1, len(problem.arcs) * len(problem.node_ids))
    for _ in range(cap):
        report = is_feasible(problem, z, cut_side=cut_side)
        if report.feasible:
            return RatioResult(z, cut, tuple(steps))
        assert report.witness_cut is not None and report.witness_stats is not None
        ratio = report.witness_stats.ratio
        assert ratio is not None and ratio > z, "witness must beat the probe"
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

    Bisects over [0, total supply / minimum capacity] until the bracket is
    narrower than the minimum gap between distinct cut ratios, recovers the
    answer as the unique smallest-denominator rational in the bracket, and
    reads a critical cut off an infeasible probe just below it. The probe
    offset is half the ratio separation, so every minimum cut at that probe
    is critical. Cross-checking mode for `minmax_ratio`.
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
            assert report.witness_stats is not None
            ratio = report.witness_stats.ratio
            assert ratio is not None and report.witness_cut is not None
            steps.append(SearchStep(mid, report.witness_cut, ratio))

    r0 = _simplest_in_interval(lo, hi, lo_open=True, hi_open=False)
    if r0.denominator > lam:
        raise IterationCapExceeded(
            "rational reconstruction produced an impossible denominator"
        )
    probe = is_feasible(problem, r0 - gap, cut_side=cut_side)
    assert not probe.feasible and probe.witness_cut is not None
    return RatioResult(r0, probe.witness_cut, tuple(steps))


def _simplest_in_interval(
    lo: Fraction, hi: Fraction, *, lo_open: bool, hi_open: bool
) -> Fraction:
    """Smallest-denominator rational inside a (possibly half-open) interval.

    Stern-Brocot descent along the continued fraction of the endpoints, one
    loop pass per term, so no recursion limit caps the input; the interval
    must be nonempty.
    """
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        raise ValueError("empty interval")
    terms: list[int] = []
    while True:
        floor_lo = lo.numerator // lo.denominator
        if lo == floor_lo and not lo_open:
            tail = Fraction(floor_lo)
            break
        next_int = floor_lo + 1
        if next_int < hi or (next_int == hi and not hi_open):
            tail = Fraction(next_int)
            break
        if lo == floor_lo:
            # Interval sits inside (floor_lo, hi]: pick floor_lo + 1/y with
            # the smallest integer y satisfying 1/(hi - floor_lo) <= y.
            bound = 1 / (hi - floor_lo)
            y = -((-bound.numerator) // bound.denominator)
            if hi_open and y == bound:
                y += 1
            tail = floor_lo + Fraction(1, y)
            break
        # The answer is floor_lo + 1/x, x simplest in the mirrored interval.
        terms.append(floor_lo)
        lo, hi = 1 / (hi - floor_lo), 1 / (lo - floor_lo)
        lo_open, hi_open = hi_open, lo_open
    numerator, denominator = tail.numerator, tail.denominator
    for term in reversed(terms):
        numerator, denominator = term * numerator + denominator, numerator
    return Fraction(numerator, denominator)

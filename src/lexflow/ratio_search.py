"""Exact search for the minmax excess ratio and a critical cut.

The default mode is a discrete Newton (Dinkelbach) iteration on the capacity
factor: every infeasible probe returns a witness cut whose ratio strictly
exceeds the probe, and a feasible probe at a value that is itself a cut
ratio pins the maximum exactly, with no epsilon management. Newton needs
fewer steps the closer its seed is to the maximum, so it starts from the
best of the cuts rated without a max-flow: all producers and every
single-node cut (a producer, or all nodes but one consumer). Which seed
wins does not change the critical cut returned. A single-node seed is
probed just below its ratio, where no cut ratio lies, so when it is the
maximum one max-flow finds both the ratio and the cut. A fatal cut is found
inside the same search, as a witness without capacity. After the first
stage, only the blocks of nodes that the last level split are searched
again, each on its own (see `minmax_ratio`). A bisection mode that
recovers the ratio with `Fraction.limit_denominator` is a cross-check.
"""

from __future__ import annotations

import warnings
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Callable, NamedTuple, Sequence

from .gale_hoffman import (
    FeasibilityReport,
    InvariantViolation,
    has_fatal_cut,
    is_feasible,
    total_integer_capacity,
)
from .model import Cut, Problem
# cut_stats is not called here; perfbench/tracer.py wraps it in this module.
from .model import cut_stats  # noqa: F401


class FatalCutPresent(Exception):
    """The problem is not weakly solvable; the offending cut is `.witness`."""

    def __init__(self, witness: Cut) -> None:
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
    positive deficiency. `steps` lists the infeasible probes the search
    made. `blocks` is empty when one problem was searched as one block, and
    then the z values along `steps` strictly increase; for a stage of
    `balanced_flow` it holds every block (see `Block`) in ascending order of
    ratio, and `steps` lists the probes of the blocks searched in this call.
    """

    r0: Fraction
    critical_cut: Cut | None
    steps: tuple[SearchStep, ...]
    blocks: tuple[Block, ...] = ()


class Block(NamedTuple):
    """A set of a stage's nodes that no stage arc enters or leaves.

    The first stage of `balanced_flow` is one block, the whole problem. A level
    steps each tied block, one whose ratio it attains, and splits it into the
    weakly connected components of the arcs left (`model.components`), each on
    one side of the level's cut; `balancer.reduce_problem` drops those whose
    balances are all zero. Every other block carries over as is.

    `problem` is the stage restricted to the block, on its own integer grid,
    `arcs` the input positions of its arcs in order, and `result` the Newton
    search on `problem`: the block's ratio, its canonical critical cut and
    its witnesses, found on `problem` alone.
    """

    problem: Problem
    arcs: Sequence[int]
    result: RatioResult


class Stage(NamedTuple):
    """A stage of `balanced_flow`: the blocks searched, and the parts still to
    search, each a problem and the input positions of its arcs (see `Block`):
    the whole problem at first, then the parts the last level split off."""

    kept: Sequence[Block]
    split: Sequence[tuple[Problem, Sequence[int]]]


def _witness_ratio(report: FeasibilityReport) -> Fraction | None:
    stats = report.witness_stats
    return None if stats is None else stats.ratio


def _candidate_ratios(problem: Problem) -> tuple[Fraction | None, Fraction]:
    """Ratios of the producer cut and of the best other candidate cut.

    The other candidates are the single-node cuts, each producer {u} with
    ratio d_u / out(u) and each consumer's complement V - {w} with ratio
    -d_w / in(w) (balances sum to zero). Sums are taken on the integer view,
    in one pass over the arcs; candidates without forward capacity have no
    ratio and are skipped, and the best other ratio is 0 if none has.
    """
    _, balances, capacities = problem.integer_view
    out = [0] * len(balances)
    into = [0] * len(balances)
    producer_out = 0
    for (tail, head), c in zip(problem.ends, capacities):
        out[tail] += c
        into[head] += c
        if balances[tail] > 0 >= balances[head]:
            producer_out += c
    supply = sum(d for d in balances if d > 0)
    producer = Fraction(supply, producer_out) if producer_out else None

    # The largest single-node ratio, compared by cross-multiplying; a node
    # with zero balance has deficiency 0 and never replaces the start 0/1.
    deficiency, capacity = 0, 1
    for d, o, i in zip(balances, out, into):
        d, c = (d, o) if d > 0 else (-d, i)
        if c and d * capacity > deficiency * c:
            deficiency, capacity = d, c
    return producer, Fraction(deficiency, capacity)


def minmax_ratio(problem: Problem, *, stage: Stage | None = None) -> RatioResult:
    """Largest deficiency/capacity over all cuts, by discrete Newton steps.

    Seeds with the largest ratio among the all-producers cut and the
    single-node cuts ({u} for a producer u, V - {w} for a consumer w), found
    with one pass over the arcs and no max-flow; then alternates a
    feasibility test at the current candidate with a jump to the witness
    cut's ratio. Every candidate but a probe below a single-node seed (see
    below) is the ratio of an actual cut, so the first feasible candidate
    equals the maximum and the preceding witness is a critical cut. The
    producer cut wins ties; then the search is the one seeded with the
    producer cut alone, step for step, and it returns the producer cut
    itself when that is already critical.

    Raises FatalCutPresent with `has_fatal_cut`'s witness when a cut F has
    positive deficiency and no forward capacity. Then g >= D(F) > 0, no
    probe is feasible, and the search ends at a witness with C = 0: S_k is
    optimal at z_k, and S_{k+1} beats S_k's 0 at z_{k+1}, S_k's ratio, so
    subtracting gives (z_{k+1} - z_k)(C(S_{k+1}) - C(S_k)) < 0. Such a W
    maximizes D over the fatal cuts. At M = supply / min capacity a cut with
    capacity scores D - M·C <= 0, so the maximizers there are the fatal cuts
    of deficiency D(W); each maximizes D - z·C too, so W, the least at z, is
    the least at M. The producer cut, raised at once when it has no forward
    capacity, is the least fatal cut of deficiency D = supply.

    A larger seed gives the same critical cut. Let g(z) = max_S D(S) - z·C(S),
    convex and piecewise linear, zero from r0 on. The last infeasible probe
    has a witness of ratio r0, so it lies on g's last linear piece before r0;
    every probe strictly inside that piece returns the same inclusion-minimal
    min cut, and so does a probe at the piece's left end whose witness has
    ratio r0. A single-node seed r* = a/b above the producer cut's ratio is
    therefore probed first at r* - 1/(2bλ), λ being `total_integer_capacity`.
    Cut ratios have denominators at most λ, so none lies in that gap and the
    witness W has ratio >= r*. If it is r*, then r0 = r*: on the integer grid
    W scores C(W)/(2bλ) <= 1/(2b), a cut S of ratio above r* would score more
    than C(S)/(b·C(S)) = 1/b, and a fatal cut its deficiency, at least 1, so
    neither exists; the probe lies inside g's last piece, so W is the critical
    cut, found with one max-flow. If ratio(W) > r*, Newton goes on from it and
    ends at the cut the producer-seeded search ends at.

    `stage` is the stage of `balanced_flow` that `problem` was reduced to;
    without it the whole problem is searched as one block, as a one-shot
    query is. With it, only the blocks the last level split off are searched
    (see `Block`), and the result holds every block. No stage arc crosses a
    block, so g is the sum of the blocks' own, r0 is the largest block ratio,
    and just below r0 the inclusion-minimal min cut is the union of the
    blocks' own: empty for an untied block, whose g is zero there, and the
    block's critical cut for a tied one, because g's last piece lies inside
    the block's. A block's search returns that cut also when it stops at its
    producer cut with no step: a critical producer cut has the largest
    deficiency of all cuts, so the largest capacity of all critical cuts, and
    the critical cuts of that capacity, which are the min cuts just below r0,
    all contain it. The union is therefore the cut the whole-stage search
    returns, the all-producers cut included.

    The previous level split only its tied blocks, into the weakly connected
    components of their remaining arcs, each on one side of its cut. Each is
    searched on its own, as a one-shot query of it would be. An untied
    block lies wholly on the sink side of that level's cut, so its arcs and
    balances are unchanged, and its result is reused with no probe.
    """
    if stage is not None:
        return _search_blocks(stage, _newton)
    if problem.total_supply == 0:
        return RatioResult(Fraction(0), None, ())
    return _newton(problem)


def _newton(problem: Problem) -> RatioResult:
    """The Newton search on `problem` as one block; see `minmax_ratio`."""
    producer, seed = _candidate_ratios(problem)
    cut: Cut | None = None
    if producer is None or seed <= producer:
        balances = problem.integer_view.balances
        cut = Cut(frozenset(v for v, d in zip(problem.node_ids, balances) if d > 0))
        if producer is None:
            raise FatalCutPresent(cut)
        z = seed = producer
    else:
        z = seed - Fraction(1, 2 * seed.denominator * total_integer_capacity(problem))

    steps: list[SearchStep] = []
    cap = max(1, len(problem.arc_ids) * len(problem.node_ids))
    for _ in range(cap):
        report = is_feasible(problem, z)
        # Below a node seed its own cut is violated: a feasible report there
        # has no witness and fails the checks below.
        if report.feasible and cut is not None:
            return RatioResult(z, cut, tuple(steps))
        if report.witness_stats is not None and report.witness_stats.is_fatal:
            raise FatalCutPresent(report.witness_cut)
        ratio = _witness_ratio(report)
        if ratio is not None and ratio < seed:
            raise InvariantViolation("witness ratio below the seed")
        if report.witness_cut is None or ratio is None or ratio <= z:
            raise InvariantViolation("witness must beat the probe")
        cut = report.witness_cut
        steps.append(SearchStep(z, cut, ratio))
        if ratio == seed:  # only below a node seed: it is r0, see minmax_ratio
            return RatioResult(ratio, cut, tuple(steps))
        z = ratio

    warnings.warn(
        "ratio search hit its iteration cap; falling back to bisection",
        RuntimeWarning,
        stacklevel=3,
    )
    return minmax_ratio_dichotomy(problem)


def _search_blocks(stage: Stage, search: Callable[[Problem], RatioResult]) -> RatioResult:
    """The search of a stage, block by block; see `minmax_ratio`."""
    blocks = list(stage.kept)
    steps: list[SearchStep] = []
    for problem, arcs in stage.split:
        result = search(problem)
        insort(blocks, Block(problem, arcs, result), key=lambda b: b.result.r0)
        steps += result.steps
    r0 = blocks[-1].result.r0
    tied = takewhile(lambda b: b.result.r0 == r0, reversed(blocks))
    cut = Cut(frozenset().union(*(b.result.critical_cut.source_side for b in tied)))
    return RatioResult(r0, cut, tuple(steps), tuple(blocks))


def minmax_ratio_dichotomy(problem: Problem, *, stage: Stage | None = None) -> RatioResult:
    """Bisection on the capacity factor with exact rational reconstruction.

    Cut ratios are ΣD/ΣC with ΣC <= λ = `total_integer_capacity`, so their
    denominators are at most λ and distinct ratios lie 1/λ² apart or more.
    Bisection keeps r0 in (lo, hi] until hi - lo < 1/(2λ²); every other
    fraction with denominator at most λ is then farther from hi than r0, so
    r0 = hi.limit_denominator(λ). A critical cut is read off an infeasible
    probe half the separation below r0, where every minimum cut is critical.
    Cross-checking mode for `minmax_ratio`, with the same `stage`; a fatal
    cut is found first, by `has_fatal_cut`.
    """
    if stage is not None:
        return _search_blocks(stage, minmax_ratio_dichotomy)
    if (report := has_fatal_cut(problem)).fatal:
        raise FatalCutPresent(report.witness_cut)
    if problem.total_supply == 0:
        return RatioResult(Fraction(0), None, ())

    lam = total_integer_capacity(problem)
    gap = Fraction(1, 2 * lam * lam)
    _, balances, capacities = problem.integer_view
    upper = Fraction(sum(d for d in balances if d > 0), min(capacities))

    lo, hi = Fraction(0), upper  # infeasible at lo (by r0 > 0), feasible at hi
    steps: list[SearchStep] = []
    while hi - lo >= gap:
        mid = (lo + hi) / 2
        report = is_feasible(problem, mid)
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
    probe = is_feasible(problem, r0 - gap)
    if probe.feasible or probe.witness_cut is None:
        raise InvariantViolation("no critical cut just below the ratio")
    return RatioResult(r0, probe.witness_cut, tuple(steps))

"""Construct the unique balanced (lexmin) flow and verify its certificate.

The driver peels the network level by level: find the current minmax ratio
and a cut attaining it, load that cut's arcs uniformly, pin its reverse arcs
to zero, update the balances, and recurse on what remains. Once the residual
balances vanish, every remaining arc carries zero.

Reverse arcs must be pinned along with the forward ones: a minmax flow sends
exactly the cut's deficiency forward across a critical cut, and since the
forward arcs are already capped at ratio times capacity, any backflow would
force some forward arc above the ratio. Dropping only the forward arcs would
let the reduced problem route flow backward across the cut and lose
optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .gale_hoffman import (
    CutSide,
    InvariantViolation,
    has_fatal_cut,
    is_feasible,
    total_integer_capacity,
)
from .model import (
    Cut,
    Flow,
    InvalidPartition,
    Problem,
    cut_stats,
    node_balance_residual,
)
from .ratio_search import (
    FatalCutPresent,
    IterationCapExceeded,
    minmax_ratio,
    minmax_ratio_dichotomy,
)

SearchMode = Literal["dinkelbach", "dichotomy"]


class EmptyCutArcSet(Exception):
    """A positive-ratio critical cut must have at least one forward arc."""


class NotCritical(Exception):
    """The cut's ratio in the current problem differs from the claimed one."""


class MonotonicityViolation(Exception):
    """A level ratio increased; impossible for a correct search."""


@dataclass(frozen=True)
class Level:
    """One peeling step: a critical cut loaded uniformly at `ratio`.

    `fixed_forward` lists (arc_id, ratio * capacity) for exactly the cut's
    forward arcs in the reduced problem of this stage; `zeroed_reverse`
    lists the opposite-direction arcs pinned to zero.
    """

    ratio: Fraction
    cut: Cut
    fixed_forward: tuple[tuple[str, Fraction], ...]
    zeroed_reverse: tuple[str, ...]


@dataclass(frozen=True)
class Certificate:
    """Ordered levels with non-increasing positive ratios, plus the arcs
    that remained once the residual balances vanished (all carrying zero).

    Every arc of the original problem appears exactly once: in some level's
    `fixed_forward`, in some level's `zeroed_reverse`, or in `zero_tail`.
    """

    levels: tuple[Level, ...]
    zero_tail: tuple[str, ...]


@dataclass(frozen=True)
class BalancedSolution:
    """The balanced flow, its certificate, and the descending ratio vector."""

    flow: Flow
    certificate: Certificate
    sorted_ratios: tuple[Fraction, ...]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of an independent certificate check.

    On rejection, `failed_check` names the first check that failed, one of
    "conservation", "monotonicity", "level_replay", "stage_optimality", or
    "arc_partition".
    """

    accepted: bool
    failed_check: str | None = None
    detail: str | None = None


def reduce_problem(
    problem: Problem, cut: Cut, ratio: Fraction
) -> tuple[Problem, Level]:
    """Fix the uniform load on a critical cut and strip all its arcs.

    Forward arcs get ratio * capacity, with both endpoint balances updated;
    reverse arcs get zero, which needs no balance update. Nodes are kept, so
    later cuts live on the same node set, and the new balances still sum to
    zero.
    """
    if ratio <= 0:
        raise ValueError("level ratio must be positive")
    stats = cut_stats(problem, cut)
    forward = cut.forward_arcs(problem)
    if not forward:
        raise EmptyCutArcSet("cut has no forward arcs in the current problem")
    if stats.ratio != ratio:
        raise NotCritical(f"cut ratio is {stats.ratio}, expected {ratio}")

    balances = dict(problem.balances)
    fixed: list[tuple[str, Fraction]] = []
    for arc in forward:
        value = ratio * arc.capacity
        fixed.append((arc.arc_id, value))
        balances[arc.tail] -= value
        balances[arc.head] += value
    zeroed = tuple(a.arc_id for a in cut.reverse_arcs(problem))

    dropped = {arc_id for arc_id, _ in fixed}
    dropped.update(zeroed)
    remaining = tuple(a for a in problem.arcs if a.arc_id not in dropped)
    reduced = Problem(problem.node_ids, balances, remaining)
    return reduced, Level(ratio, cut, tuple(fixed), zeroed)


def balanced_flow(
    problem: Problem,
    *,
    mode: SearchMode = "dinkelbach",
    cut_side: CutSide = "source",
) -> BalancedSolution:
    """Compute the unique lexmin flow together with its certificate.

    Raises FatalCutPresent when the problem is not weakly solvable. Each
    level removes at least one arc, so there are at most as many levels as
    arcs; level ratios never increase. `mode` selects the ratio search and
    `cut_side` the min-cut extraction rule; both exist for cross-checking
    and neither changes the resulting flow.
    """
    fatal = has_fatal_cut(problem)
    if fatal.fatal:
        raise FatalCutPresent(fatal.witness_cut)
    search = minmax_ratio if mode == "dinkelbach" else minmax_ratio_dichotomy

    values: dict[str, Fraction] = {}
    levels: list[Level] = []
    previous: Fraction | None = None
    current = problem
    while any(d != 0 for d in current.balances.values()):
        # Reduced stages of a solvable problem stay solvable; skip re-checks.
        result = search(current, cut_side=cut_side, check_fatal=False)
        if result.r0 <= 0 or result.critical_cut is None:
            raise InvariantViolation("unbalanced stage without a critical cut")
        if previous is not None and result.r0 > previous:
            raise MonotonicityViolation(
                f"level ratio rose from {previous} to {result.r0}"
            )
        current, level = reduce_problem(current, result.critical_cut, result.r0)
        for arc_id, value in level.fixed_forward:
            values[arc_id] = value
        for arc_id in level.zeroed_reverse:
            values[arc_id] = Fraction(0)
        levels.append(level)
        previous = result.r0
        if len(levels) > len(problem.arcs):
            raise IterationCapExceeded("more levels than arcs")

    zero_tail = current.arc_ids
    for arc_id in zero_tail:
        values[arc_id] = Fraction(0)

    flow = Flow({arc_id: values[arc_id] for arc_id in problem.arc_ids})
    ratios = tuple(sorted(flow.ratio_vector(problem), reverse=True))
    return BalancedSolution(flow, Certificate(tuple(levels), zero_tail), ratios)


def verify_certificate(
    problem: Problem, solution: BalancedSolution
) -> VerificationResult:
    """Re-check a balanced solution without re-running any search.

    Checks, stopping at the first failure: exact conservation and
    nonnegativity of the flow; non-increasing level ratios; a faithful
    replay of every level against its stage (proper cut, positive capacity,
    deficiency equal to ratio times capacity, fixed arcs exactly the cut's
    forward arcs at their uniform values, zeroed arcs exactly the reverse
    ones, flow matching all of them); per-stage optimality of each ratio
    (feasible at the ratio, infeasible just below it); and that the levels
    plus the zero tail partition the arcs with the tail carrying no flow.

    A passing certificate pins the flow completely: each level's cut is a
    cut of its stage with ratio equal to the level ratio, and stage
    feasibility at that ratio shows no stage cut beats it, so the ratio is
    the stage's exact minmax value and the uniform loading is forced.
    """
    flow = solution.flow
    certificate = solution.certificate

    def reject(check: str, detail: str) -> VerificationResult:
        return VerificationResult(False, check, detail)

    # Conservation (and nonnegativity, which weak feasibility presumes).
    if set(flow.values) != set(problem.arc_ids):
        return reject("conservation", "flow keys do not match the arcs")
    negative = next((a for a, v in flow.values.items() if v < 0), None)
    if negative is not None:
        return reject("conservation", f"arc {negative!r} carries negative flow")
    residual = node_balance_residual(problem, flow)
    violated = next((v for v in problem.node_ids if residual[v] != 0), None)
    if violated is not None:
        return reject("conservation", f"conservation fails at node {violated!r}")

    # Monotonicity of the recorded ratios.
    ratios = [level.ratio for level in certificate.levels]
    if any(r <= 0 for r in ratios):
        return reject("monotonicity", "level ratios must be positive")
    if any(a < b for a, b in zip(ratios, ratios[1:])):
        return reject("monotonicity", "level ratios increase")

    # Replay each level against its reduced stage, and probe that the level
    # ratio is the stage's exact minmax ratio while the stage is at hand, so
    # only one stage is alive at a time. A replay failure at any level
    # outranks an optimality failure, which is kept until the replay is done.
    suboptimal: VerificationResult | None = None
    current = problem
    for k, level in enumerate(certificate.levels):
        where = f"level {k}"
        try:
            stats = cut_stats(current, level.cut)
        except InvalidPartition:
            return reject("level_replay", f"{where}: cut is not a proper partition")
        if stats.capacity == 0:
            return reject("level_replay", f"{where}: cut has no forward arcs")
        if stats.deficiency != level.ratio * stats.capacity:
            return reject("level_replay", f"{where}: cut ratio differs from {level.ratio}")

        forward = {a.arc_id: a for a in level.cut.forward_arcs(current)}
        fixed_ids = [arc_id for arc_id, _ in level.fixed_forward]
        if len(fixed_ids) != len(set(fixed_ids)) or set(fixed_ids) != set(forward):
            return reject("level_replay", f"{where}: fixed arcs differ from the cut arcs")
        for arc_id, value in level.fixed_forward:
            if value != level.ratio * forward[arc_id].capacity:
                return reject("level_replay", f"{where}: fixed value wrong on {arc_id!r}")
            if flow.values[arc_id] != value:
                return reject("level_replay", f"{where}: flow differs on {arc_id!r}")
        reverse_ids = {a.arc_id for a in level.cut.reverse_arcs(current)}
        if set(level.zeroed_reverse) != reverse_ids:
            return reject("level_replay", f"{where}: zeroed arcs differ from the reverse arcs")
        for arc_id in level.zeroed_reverse:
            if flow.values[arc_id] != 0:
                return reject("level_replay", f"{where}: reverse arc {arc_id!r} carries flow")

        if suboptimal is None:
            if not is_feasible(current, level.ratio).feasible:
                suboptimal = reject("stage_optimality", f"{where}: ratio is not sufficient")
            else:
                lam = total_integer_capacity(current)
                below = level.ratio * (1 - Fraction(1, 2 * lam * lam))
                if is_feasible(current, below).feasible:
                    suboptimal = reject("stage_optimality", f"{where}: ratio is not minimal")
        balances = dict(current.balances)
        for arc_id, value in level.fixed_forward:
            arc = forward[arc_id]
            balances[arc.tail] -= value
            balances[arc.head] += value
        dropped = set(fixed_ids) | set(level.zeroed_reverse)
        current = Problem(
            current.node_ids,
            balances,
            tuple(a for a in current.arcs if a.arc_id not in dropped),
        )

    if suboptimal is not None:
        return suboptimal

    # The levels plus the zero tail partition the arcs; the tail is idle.
    assigned = [arc_id for level in certificate.levels for arc_id, _ in level.fixed_forward]
    assigned += [arc_id for level in certificate.levels for arc_id in level.zeroed_reverse]
    assigned += list(certificate.zero_tail)
    if len(assigned) != len(set(assigned)):
        return reject("arc_partition", "an arc is assigned twice")
    if set(assigned) != set(problem.arc_ids):
        return reject("arc_partition", "arcs are not covered exactly")
    if set(certificate.zero_tail) != set(current.arc_ids):
        return reject("arc_partition", "zero tail differs from the leftover arcs")
    busy = next((a for a in certificate.zero_tail if flow.values[a] != 0), None)
    if busy is not None:
        return reject("arc_partition", f"zero-tail arc {busy!r} carries flow")
    nonzero = next((v for v in current.balances.values() if v != 0), None)
    if nonzero is not None:
        return reject("arc_partition", "residual balances do not vanish")

    return VerificationResult(True)

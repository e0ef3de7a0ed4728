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
from typing import Literal, Sequence

from .gale_hoffman import (
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
    fix_arcs,
    format_rational,
    node_balance_residual,
    restrict,
)
from .ratio_search import (
    FatalCutPresent,
    IterationCapExceeded,
    RatioResult,
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
    "conservation", "monotonicity", "level_replay", "stage_optimality",
    "arc_partition", or "summary" (the stated sorted ratio vector is not the
    flow's; `lexflow verify` also checks a document's `r0` and `status`
    under this name).
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
        raise NotCritical(
            f"cut ratio is {format_rational(stats.ratio)}, expected {format_rational(ratio)}"
        )

    fixed = tuple((arc.arc_id, ratio * arc.capacity) for arc in forward)
    zeroed = tuple(a.arc_id for a in cut.reverse_arcs(problem))
    reduced = fix_arcs(problem, dict(fixed), zeroed)
    return reduced, Level(ratio, cut, fixed, zeroed)


def balanced_flow(
    problem: Problem, *, mode: SearchMode = "dinkelbach"
) -> BalancedSolution:
    """Compute the unique lexmin flow together with its certificate.

    Raises FatalCutPresent when the problem is not weakly solvable. Level
    ratios never increase, and there are at most n - 1 levels for n nodes:
    a level's cut has a forward arc, and afterwards no stage arc crosses it
    (forward arcs are fixed, reverse arcs zeroed, both dropped), so each
    level splits a weakly connected component of the stage graph, and a
    graph on n nodes has at most n of them. `mode` selects the ratio search;
    it exists for cross-checking and does not change the resulting flow.

    Each Newton search gets the previous stage's result: the first stage is
    searched as one block, the whole problem, and every later one block by
    block (`minmax_ratio`), re-searching only the blocks the previous level
    split. g(z) = max_S D(S) - z·C(S) is the sum of the blocks' own, so r0
    is the largest block ratio, and the level's cut is the union of the
    tied blocks' canonical cuts, which is the cut the whole-stage search
    gives; untied blocks lie on its sink side and keep their results.
    """
    # The first Newton search finds a fatal cut itself (`minmax_ratio`).
    if mode != "dinkelbach" and (fatal := has_fatal_cut(problem)).fatal:
        raise FatalCutPresent(fatal.witness_cut)
    values = dict.fromkeys(problem.arc_ids, Fraction(0))
    levels: list[Level] = []
    result: RatioResult | None = None
    current = problem
    while current.total_supply:
        # Reduced stages of a solvable problem stay solvable; skip re-checks.
        last = result
        if mode == "dinkelbach":
            result = minmax_ratio(current, previous=last)
        else:
            result = minmax_ratio_dichotomy(current, check_fatal=False)
        if result.r0 <= 0 or result.critical_cut is None:
            raise InvariantViolation("unbalanced stage without a critical cut")
        if last is not None and result.r0 > last.r0:
            raise MonotonicityViolation(
                f"level ratio rose from {format_rational(last.r0)} "
                f"to {format_rational(result.r0)}"
            )
        current, level = reduce_problem(current, result.critical_cut, result.r0)
        values.update(level.fixed_forward)
        levels.append(level)
        if len(levels) >= len(problem.node_ids):
            raise IterationCapExceeded("more than n - 1 levels")

    flow = Flow(values)
    ratios = tuple(sorted(flow.ratio_vector(problem), reverse=True))
    return BalancedSolution(flow, Certificate(tuple(levels), current.arc_ids), ratios)


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
    plus the zero tail partition the arcs with the tail carrying no flow;
    and that `sorted_ratios` is the flow's ratio vector in descending order.

    A passing certificate pins the flow completely: each level's cut is a
    cut of its stage with ratio equal to the level ratio, and stage
    feasibility at that ratio shows no stage cut beats it, so the ratio is
    the stage's exact minmax value and the uniform loading is forced.

    Both probes of level k run on T_k, the union of the stage's weakly
    connected components that the level's cut crosses, not on the whole
    stage. λ in the minimality probe r_k - 1/(2bλ), b being r_k's
    denominator, is `total_integer_capacity(T_k)`. This accepts exactly the
    certificates the whole-stage probes accept:

    - Conservation and the replayed levels show that the flow on the stage
      arcs meets the stage balances, so every component's balances sum to
      zero. A component is feasible at a factor z by itself, and the stage
      is feasible at z exactly when all of its components are.
    - A stage-k component the cut does not cross lies on one side of it and
      keeps its arcs and balances, so it is a component of stage k+1. There
      it is covered at r_{k+1} <= r_k, a smaller capacity factor, so
      feasibility there implies it at r_k. By induction it is covered by
      the end, where all balances must vanish and it is feasible at every
      factor. Such a flaw may thus surface as `arc_partition` at the end
      rather than as `stage_optimality` at level k; it is rejected either
      way.
    - An uncrossed component contributes zero deficiency and no capacity
      to the level cut, so the cut has the same deficiency and capacity on
      T_k as on the whole stage, and is violated on T_k just below r_k.

    The components are the verifier's own, found from the stage's arcs. A
    union-find labels each node with its component's root; after a level,
    only T_k is split again, over its remaining arcs, because the other
    components do not change.
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
    # component[i] is the root position of node i's weakly connected
    # component in the current stage.
    position = problem.node_position
    component = list(range(len(problem.node_ids)))
    _split(component, range(len(component)), [
        (position[a.tail], position[a.head]) for a in problem.arcs
    ])
    for k, level in enumerate(certificate.levels):
        where = f"level {k}"
        try:
            stats = cut_stats(current, level.cut)
        except InvalidPartition:
            return reject("level_replay", f"{where}: cut is not a proper partition")
        if stats.capacity == 0:
            return reject("level_replay", f"{where}: cut has no forward arcs")
        if stats.deficiency != level.ratio * stats.capacity:
            return reject(
                "level_replay",
                f"{where}: cut ratio differs from {format_rational(level.ratio)}",
            )

        forward = {a.arc_id: a for a in level.cut.forward_arcs(current)}
        fixed_ids = [arc_id for arc_id, _ in level.fixed_forward]
        if len(fixed_ids) != len(set(fixed_ids)) or set(fixed_ids) != set(forward):
            return reject("level_replay", f"{where}: fixed arcs differ from the cut arcs")
        for arc_id, value in level.fixed_forward:
            if value != level.ratio * forward[arc_id].capacity:
                return reject("level_replay", f"{where}: fixed value wrong on {arc_id!r}")
            if flow.values[arc_id] != value:
                return reject("level_replay", f"{where}: flow differs on {arc_id!r}")
        reverse = level.cut.reverse_arcs(current)
        reverse_ids = {a.arc_id for a in reverse}
        if set(level.zeroed_reverse) != reverse_ids:
            return reject("level_replay", f"{where}: zeroed arcs differ from the reverse arcs")
        for arc_id in level.zeroed_reverse:
            if flow.values[arc_id] != 0:
                return reject("level_replay", f"{where}: reverse arc {arc_id!r} carries flow")

        # Once a probe has failed, no later probe runs and the labels lapse.
        if suboptimal is None:
            crossed = {component[position[a.tail]] for a in (*forward.values(), *reverse)}
            nodes = [i for i, c in enumerate(component) if c in crossed]
            inside = [
                (j, a) for j, a in enumerate(current.arcs)
                if component[position[a.tail]] in crossed
            ]
            touched = restrict(current, nodes, [j for j, _ in inside])
            if not is_feasible(touched, level.ratio).feasible:
                suboptimal = reject("stage_optimality", f"{where}: ratio is not sufficient")
            else:
                lam = total_integer_capacity(touched)
                below = level.ratio - Fraction(1, 2 * level.ratio.denominator * lam)
                if is_feasible(touched, below).feasible:
                    suboptimal = reject("stage_optimality", f"{where}: ratio is not minimal")
            _split(component, nodes, [
                (position[a.tail], position[a.head]) for _, a in inside
                if a.arc_id not in forward and a.arc_id not in reverse_ids
            ])
        current = fix_arcs(current, dict(level.fixed_forward), level.zeroed_reverse)

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

    # The replay pinned every fixed arc at its level's ratio and the rest at
    # zero, so with the ratios non-increasing, this is the flow's ratio
    # vector sorted descending, found without a division or a sort.
    ratios = [level.ratio for level in certificate.levels for _ in level.fixed_forward]
    ratios += [Fraction(0)] * (len(problem.arcs) - len(ratios))
    if solution.sorted_ratios != tuple(ratios):
        return reject("summary", "sorted ratios differ from the flow's")
    return VerificationResult(True)


def _split(
    component: list[int], nodes: Sequence[int], ends: list[tuple[int, int]]
) -> None:
    """Relabel `nodes` by the weakly connected pieces their arcs form.

    `component` maps each node position to its component's root position;
    `ends` holds the (tail, head) positions of every arc among `nodes`, and
    no arc joins them to another node. Each of `nodes` ends up labelled with
    a root among `nodes`, so the labels of the other nodes stay valid.
    """
    for i in nodes:
        component[i] = i

    def find(i: int) -> int:
        while component[i] != i:
            component[i] = component[component[i]]
            i = component[i]
        return i

    for tail, head in ends:
        component[find(tail)] = find(head)
    for i in nodes:
        component[i] = find(i)

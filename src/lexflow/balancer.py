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
from itertools import compress
from math import gcd
from typing import Literal

from .gale_hoffman import InvariantViolation, is_feasible, total_integer_capacity
# has_fatal_cut is not called here; perfbench/tracer.py wraps it in this module.
from .gale_hoffman import has_fatal_cut  # noqa: F401
from .model import (
    Cut,
    CutArcs,
    Flow,
    KeyMismatch,
    Problem,
    components,
    cut_arcs,
    cut_stats,
    fix_arcs,
    format_rational,
    node_balance_residual,
    restrict,
    union,
)
from .ratio_search import (
    IterationCapExceeded,
    RatioResult,
    Stage,
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


def reduce_problem(result: RatioResult) -> tuple[Stage, Level]:
    """Fix the uniform load on a stage's critical cut and strip all its arcs.

    `result` is `minmax_ratio`'s for a stage of `balanced_flow`; only its
    tied blocks, those of ratio r0, change. In each, forward arcs of the
    block's critical cut get r0 * capacity, with both endpoint balances
    updated on the block's grid, and reverse arcs get zero, which needs no
    balance update. The stepped block splits into parts that the next
    search makes blocks of (see `Block`); the arcs of a dropped one stay
    idle to the end. The level lists the fixed and zeroed arcs in input
    order, and its cut is the union of the tied ones.
    """
    ratio = result.r0
    if ratio <= 0:
        raise ValueError("level ratio must be positive")
    kept = list(result.blocks)
    split: list[tuple[Problem, list[int]]] = []
    fixed: list[tuple[int, str, Fraction]] = []
    zeroed: list[tuple[int, str]] = []
    # The blocks are in ascending order of ratio, so the tied ones are last.
    while kept and kept[-1].result.r0 == ratio:
        problem, positions, found = kept.pop()
        cut = found.critical_cut
        arcs = cut_arcs(problem, cut)
        stats = cut_stats(problem, cut, arcs)
        _, stay, forward, reverse = arcs
        if not forward:
            raise EmptyCutArcSet("cut has no forward arcs in the current problem")
        if stats.ratio != ratio:
            raise NotCritical(
                f"cut ratio is {format_rational(stats.ratio)}, expected {format_rational(ratio)}"
            )

        # ratio × C/L for grid value C on grid L. Reducing C/L first keeps a
        # kilobit ratio's terms out of the gcd that Fraction(p·C, q·L) would take.
        arc_ids, (denominator, _, capacities) = problem.arc_ids, problem.integer_view
        for k in forward:
            fixed.append((positions[k], arc_ids[k], ratio * Fraction(capacities[k], denominator)))
        zeroed += [(positions[k], arc_ids[k]) for k in reverse]
        stepped = fix_arcs(problem, arcs, ratio)
        balances = stepped.integer_view.balances
        for nodes, part_arcs in components(stepped):
            if any(balances[i] for i in nodes):
                part = restrict(stepped, nodes, part_arcs)
                split.append((part, [positions[stay[j]] for j in part_arcs]))
    fixed_forward = tuple([(arc_id, value) for _, arc_id, value in sorted(fixed)])
    level = Level(ratio, result.critical_cut, fixed_forward, tuple([a for _, a in sorted(zeroed)]))
    return Stage(kept, split), level


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

    The stage is a list of blocks (`ratio_search.Block`), each its own
    problem on its own integer grid; the first is the whole problem. g(z) =
    max_S D(S) - z·C(S) is the sum of the blocks' own, so r0 is the largest
    block ratio, and the level's cut is the union of the tied blocks'
    canonical cuts, which is the cut the whole-stage search gives
    (`minmax_ratio`). A level steps and splits only the tied blocks
    (`reduce_problem`), the next search runs only on their parts, and the
    untied blocks, on the cut's sink side, carry over with their results.
    Fixed arcs carry positive values, so the zero tail is the arcs left at
    zero that no level zeroed, in input order.
    """
    values = dict.fromkeys(problem.arc_ids, Fraction(0))
    levels: list[Level] = []
    result: RatioResult | None = None
    whole = [(problem, range(len(problem.arc_ids)))] if problem.total_supply else []
    stage = Stage((), whole)
    while stage.kept or stage.split:
        last = result
        if mode == "dinkelbach":
            result = minmax_ratio(problem, stage=stage)
        else:
            result = minmax_ratio_dichotomy(problem, stage=stage)
        if result.r0 <= 0 or result.critical_cut is None:
            raise InvariantViolation("unbalanced stage without a critical cut")
        if last is not None and result.r0 > last.r0:
            raise MonotonicityViolation(
                f"level ratio rose from {format_rational(last.r0)} "
                f"to {format_rational(result.r0)}"
            )
        stage, level = reduce_problem(result)
        values.update(level.fixed_forward)
        levels.append(level)
        if len(levels) >= len(problem.node_ids):
            raise IterationCapExceeded("more than n - 1 levels")

    # Fixed arcs carry their level's ratio, the rest zero, and the ratios
    # never increase: this is the flow's ratio vector sorted descending.
    ratios = [level.ratio for level in levels for _ in level.fixed_forward]
    ratios += [Fraction(0)] * (len(problem.arc_ids) - len(ratios))
    zeroed = {arc_id for level in levels for arc_id in level.zeroed_reverse}
    tail = tuple(a for a, value in values.items() if not value and a not in zeroed)
    return BalancedSolution(Flow(values), Certificate(tuple(levels), tail), tuple(ratios))


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

    Both probes of level k run on T_k, a union of blocks of stage k, not on the
    whole stage. A block is a set of nodes that no stage arc enters or leaves;
    the verifier keeps its stage as its blocks, each a `Problem` on its own
    grid. Stage 0 is one block; after level k, each block of T_k is stepped and
    split as the solver splits it, into the weakly connected components of its
    arcs left (`model.components`), but with no part dropped; every other block
    is kept. What follows holds for any split that no stage arc crosses. T_k is
    the union, on the lcm of their grids, of the blocks that hold an arc of the
    level's cut. λ in the minimality probe r_k - 1/(2bλ), b being r_k's
    denominator, is `total_integer_capacity` of T_k: on any grid of T_k, its
    cut ratios have denominators of at most λ (see `IntegerView`), so the probe
    lies above all of them below r_k, and its verdict does not depend on the
    grid. This accepts exactly the certificates the whole-stage probes accept:

    - Conservation and the replayed levels show that the flow on the stage
      arcs meets the stage balances, so the balances of every node set that
      no stage arc enters or leaves, each block among them, sum to zero. A
      block is feasible at a factor z by itself, and the stage is feasible
      at z exactly when all of its blocks are.
    - A stage-k block outside T_k keeps its arcs and balances, so it is a
      block of stage k+1. There it is covered at r_{k+1} <= r_k, a smaller
      capacity factor, so feasibility there implies it at r_k. By induction
      it is covered by the end, where all balances must vanish and it is
      feasible at every factor. Such a flaw may thus surface as
      `arc_partition` at the end rather than as `stage_optimality` at level
      k; it is rejected either way.
    - A block outside T_k holds no arc of the level's cut, so no stage arc
      enters or leaves its part on the source side. That part's balances
      sum to zero, so it adds zero deficiency and no capacity to the cut.
      The cut thus has the same deficiency and capacity on T_k as on the
      whole stage, and is violated on T_k just below r_k.
    """
    flow = solution.flow
    certificate = solution.certificate

    def reject(check: str, detail: str) -> VerificationResult:
        return VerificationResult(False, check, detail)

    # Conservation (and nonnegativity, which weak feasibility presumes).
    try:
        residual = node_balance_residual(problem, flow)
    except KeyMismatch:
        return reject("conservation", "flow keys do not match the arcs")
    negative = next((a for a, v in flow.values.items() if v < 0), None)
    if negative is not None:
        return reject("conservation", f"arc {negative!r} carries negative flow")
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
    # The stage as blocks; owner[v] is the position in `blocks` of v's block.
    blocks, owner = [problem], dict.fromkeys(problem.node_ids, 0)
    for k, level in enumerate(certificate.levels):
        where = f"level {k}"
        # The source side's nodes by block, a foreign id under -1.
        members: dict[int, list[str]] = {}
        for v in level.cut.source_side:
            members.setdefault(owner.get(v, -1), []).append(v)
        if -1 in members or not 0 < len(level.cut.source_side) < len(owner):
            return reject("level_replay", f"{where}: cut is not a proper partition")
        deficiency = capacity = Fraction(0)
        crossed: list[tuple[int, CutArcs]] = []
        # arc id -> (C, L) of each forward arc, and the reverse arc ids.
        forward, reverse = {}, set()
        for b in sorted(members):
            block = blocks[b]
            arcs = cut_arcs(block, Cut(frozenset(members[b])))
            arc_ids, (denominator, balances, capacities) = block.arc_ids, block.integer_view
            deficiency += Fraction(sum(compress(balances, arcs.inside)), denominator)
            if arcs.forward or arcs.reverse:
                crossed.append((b, arcs))
                capacity += Fraction(sum(capacities[j] for j in arcs.forward), denominator)
                forward.update((arc_ids[j], (capacities[j], denominator)) for j in arcs.forward)
                reverse.update(arc_ids[j] for j in arcs.reverse)
        if capacity == 0:
            return reject("level_replay", f"{where}: cut has no forward arcs")
        if deficiency != level.ratio * capacity:
            return reject(
                "level_replay",
                f"{where}: cut ratio differs from {format_rational(level.ratio)}",
            )

        p, q = level.ratio.numerator, level.ratio.denominator
        fixed_ids = [arc_id for arc_id, _ in level.fixed_forward]
        if len(fixed_ids) != len(set(fixed_ids)) or set(fixed_ids) != set(forward):
            return reject("level_replay", f"{where}: fixed arcs differ from the cut arcs")
        for arc_id, value in level.fixed_forward:
            # value == ratio × C/L, cross-multiplied once C/L is reduced.
            c, denominator = forward[arc_id]
            g = gcd(c, denominator)
            if value.numerator * q * (denominator // g) != value.denominator * p * (c // g):
                return reject("level_replay", f"{where}: fixed value wrong on {arc_id!r}")
            if flow.values[arc_id] != value:
                return reject("level_replay", f"{where}: flow differs on {arc_id!r}")
        if set(level.zeroed_reverse) != reverse:
            return reject("level_replay", f"{where}: zeroed arcs differ from the reverse arcs")
        for arc_id in level.zeroed_reverse:
            if flow.values[arc_id] != 0:
                return reject("level_replay", f"{where}: reverse arc {arc_id!r} carries flow")

        if suboptimal is None:
            touched = union([blocks[b] for b, _ in crossed])
            if not is_feasible(touched, level.ratio).feasible:
                suboptimal = reject("stage_optimality", f"{where}: ratio is not sufficient")
            else:
                lam = total_integer_capacity(touched)
                below = level.ratio - Fraction(1, 2 * q * lam)
                if is_feasible(touched, below).feasible:
                    suboptimal = reject("stage_optimality", f"{where}: ratio is not minimal")
        # The replay showed the level's arcs are the cut's, loaded at its ratio.
        # Each crossed block splits into the components of its arcs left.
        for b, arcs in crossed:
            stepped = fix_arcs(blocks[b], arcs, level.ratio)
            blocks[b], *rest = [restrict(stepped, *part) for part in components(stepped)]
            for part in rest:
                owner.update(dict.fromkeys(part.node_ids, len(blocks)))
                blocks.append(part)

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
    if set(certificate.zero_tail) != {arc_id for block in blocks for arc_id in block.arc_ids}:
        return reject("arc_partition", "zero tail differs from the leftover arcs")
    busy = next((a for a in certificate.zero_tail if flow.values[a] != 0), None)
    if busy is not None:
        return reject("arc_partition", f"zero-tail arc {busy!r} carries flow")
    if any(any(block.integer_view.balances) for block in blocks):
        return reject("arc_partition", "residual balances do not vanish")

    # The replay pinned every fixed arc at its level's ratio and the rest at
    # zero, so with the ratios non-increasing, this is the flow's ratio
    # vector sorted descending, found without a division or a sort.
    ratios = [level.ratio for level in certificate.levels for _ in level.fixed_forward]
    ratios += [Fraction(0)] * (len(problem.arc_ids) - len(ratios))
    if solution.sorted_ratios != tuple(ratios):
        return reject("summary", "sorted ratios differ from the flow's")
    return VerificationResult(True)


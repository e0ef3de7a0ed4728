"""Two-pole reduction and the cut criterion for transshipment feasibility.

A problem with capacities scaled by a factor z is solvable exactly when no
cut's deficiency exceeds z times its capacity. Instead of enumerating cuts,
attach a super source feeding every producer and a super sink draining every
consumer: the scaled problem is solvable iff the max flow of that two-pole
network saturates the total supply, and a failing min cut hands back a
violated cut as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .maxflow import FlowNetwork, max_flow
from .model import Cut, CutStats, Problem, cut_stats


class InvariantViolation(Exception):
    """A solver invariant failed; this signals a bug, not bad input.

    Raised explicitly rather than asserted, so the checks stay on under
    `python -O`.
    """


@dataclass(frozen=True)
class TwoPole:
    """Auxiliary s-t network whose max flow decides feasibility.

    Original node i keeps index i; the super source is index n and the super
    sink n+1. Producer u gets arc (s, u) with capacity d_u, consumer w gets
    (w, t) with capacity -d_w, and every original arc keeps z times its
    capacity. The network lists the pole arcs first, one per producer or
    consumer in node order, so arc k of the problem is network arc
    (#producers + #consumers) + k. All capacities are multiplied by one
    integerizing `scale` so the flow engine can stay integer-only. For
    z = p/q in lowest terms the scale is q*L, L being the denominator of the
    problem's integer view; it need not be the least common denominator of
    the capacities. For any cut
    (V', V'') of the problem, the matching two-pole cut has capacity
    scale * (D + z*capacity - deficiency), D being the total supply.
    """

    problem: Problem
    z: Fraction
    network: FlowNetwork
    total_supply: Fraction
    scale: int


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of one feasibility test at capacity factor z.

    When infeasible, `witness_cut` is a cut violating the criterion at the
    tested capacities; it maximizes deficiency - z*capacity over all cuts
    (which need not maximize the deficiency/capacity ratio). Its stats are
    taken at the original, unscaled capacities.
    """

    feasible: bool
    z: Fraction
    witness_cut: Cut | None = None
    witness_stats: CutStats | None = None


@dataclass(frozen=True)
class FatalCutReport:
    """Whether some cut has positive deficiency and no outgoing arcs."""

    fatal: bool
    witness_cut: Cut | None = None
    witness_stats: CutStats | None = None


def build_two_pole(problem: Problem, z: Fraction) -> TwoPole:
    """Build the scaled two-pole network for capacity factor z > 0."""
    if z <= 0:
        raise ValueError("capacity factor z must be positive")
    n = len(problem.node_ids)
    s, t = n, n + 1
    position = problem.node_position
    denominator, balances, capacities = problem.integer_view
    p, q = z.numerator, z.denominator

    arcs: list[tuple[int, int, int]] = []
    for i, d in enumerate(balances):
        if d > 0:
            arcs.append((s, i, q * d))
        elif d < 0:
            arcs.append((i, t, -q * d))
    for arc, c in zip(problem.arcs, capacities):
        arcs.append((position[arc.tail], position[arc.head], p * c))

    network = FlowNetwork(n + 2, tuple(arcs), s, t)
    return TwoPole(problem, z, network, problem.total_supply, q * denominator)


def is_feasible(problem: Problem, z: Fraction) -> FeasibilityReport:
    """Test solvability of the problem with every capacity scaled by z.

    Feasible iff the two-pole max flow saturates the scaled total supply.
    On failure the min cut, restricted to the original nodes, is a proper
    bipartition (the trivial all-source and all-sink cuts both carry the
    full supply, so neither can be minimal) and is returned as the witness.
    It is the inclusion-minimal min cut, the same for every maximum flow.
    """
    if problem.total_supply == 0:
        return FeasibilityReport(True, z)
    two_pole = build_two_pole(problem, z)
    result = max_flow(two_pole.network)
    if result.value == two_pole.total_supply * two_pole.scale:
        return FeasibilityReport(True, z)

    n = len(problem.node_ids)
    cut = Cut.from_source_side(
        problem, (problem.node_ids[i] for i in result.min_cut_source_side if i < n)
    )
    return FeasibilityReport(False, z, cut, cut_stats(problem, cut))


def has_fatal_cut(problem: Problem) -> FatalCutReport:
    """Detect a positive-deficiency cut with no outgoing arcs.

    Tests feasibility at M = total supply / minimum capacity: with that much
    slack, any cut with at least one outgoing arc is satisfied, so only an
    arcless cut can still be violated and any witness must be fatal.
    """
    if problem.total_supply == 0:
        return FatalCutReport(False)
    if problem.arcs:
        factor = problem.total_supply / min(a.capacity for a in problem.arcs)
    else:
        factor = Fraction(1)  # no arcs: the factor is irrelevant
    report = is_feasible(problem, factor)
    if report.feasible:
        return FatalCutReport(False)
    if report.witness_stats is None or report.witness_stats.capacity != 0:
        raise InvariantViolation(
            "witness at the fatal-test factor must have an empty arc set"
        )
    return FatalCutReport(True, report.witness_cut, report.witness_stats)


def total_integer_capacity(problem: Problem) -> int:
    """Total capacity λ once balances and capacities sit on an integer grid.

    Every cut ratio is ΣD/ΣC on that grid with ΣC <= λ, so its denominator
    is at most λ and distinct cut ratios differ by at least 1/λ²; a cut
    ratio a/b differs from every other fraction with denominator at most λ
    by at least 1/(bλ). The bisection's `limit_denominator` reconstruction
    relies on the first separation; the probes at a/b - 1/(2bλ) in the
    Newton search and in certificate verification on the second. Returns 1
    for arcless problems so callers can still form positive epsilons.
    """
    return max(sum(problem.integer_view.capacities), 1)

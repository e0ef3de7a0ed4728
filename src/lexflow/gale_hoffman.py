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
from .model import Cut, CutStats, IntegerView, Problem, cut_stats


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
    the capacities. For any cut of the problem, the two-pole cut of its
    source side plus s has capacity scale * (D + z*capacity - deficiency),
    D being the total supply.
    """

    network: FlowNetwork
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
    denominator, balances, capacities = problem.integer_view
    p, q = z.numerator, z.denominator

    arcs: list[tuple[int, int, int]] = []
    for i, d in enumerate(balances):
        if d > 0:
            arcs.append((s, i, q * d))
        elif d < 0:
            arcs.append((i, t, -q * d))
    arcs += [(tail, head, p * c) for (tail, head), c in zip(problem.ends, capacities)]

    network = FlowNetwork(n + 2, tuple(arcs), s, t)
    return TwoPole(network, q * denominator)


def is_feasible(problem: Problem, z: Fraction) -> FeasibilityReport:
    """Test solvability of the problem with every capacity scaled by z.

    Feasible iff the two-pole max flow saturates the scaled total supply.
    On failure the min cut, restricted to the original nodes, is a proper
    bipartition (the trivial all-source and all-sink cuts both carry the
    full supply, so neither can be minimal) and is returned as the witness.
    It is the inclusion-minimal min cut, the same for every maximum flow.
    """
    supply = sum(d for d in problem.integer_view.balances if d > 0)
    if not supply:
        return FeasibilityReport(True)
    # The source's arcs carry q times the positive grid balances.
    result = max_flow(build_two_pole(problem, z).network)
    if result.value == z.denominator * supply:
        return FeasibilityReport(True)

    n = len(problem.node_ids)
    cut = Cut(frozenset(problem.node_ids[i] for i in result.min_cut_source_side if i < n))
    return FeasibilityReport(False, cut, cut_stats(problem, cut))


def has_fatal_cut(problem: Problem) -> FatalCutReport:
    """Detect a positive-deficiency cut with no outgoing arcs.

    Such a cut's source side is closed under successors, so it is a union of
    strongly connected components (SCCs) closed in the condensation. The
    test runs on the condensation: one node per SCC carrying the summed
    balances on the same grid L, and only the arcs between SCCs. There
    `is_feasible` at M = supply / minimum capacity (both contracted) returns
    the least maximizer of D(T) - M·C(T), if positive. A non-closed T has
    C(T) >= that minimum, so M·C(T) >= supply >= D(T) and T scores <= 0; a
    closed T scores D(T), the deficiency of its members' union, and every
    closed set of the problem is such a union. So the least positive
    maximizer lifts unchanged: its members form the least closed set of
    largest deficiency, the witness the same test on the whole problem at
    its own M gives. With a single SCC every contracted balance is 0, and
    `is_feasible` answers without a max-flow.
    """
    if problem.total_supply == 0:
        return FatalCutReport(False)
    node_ids = problem.node_ids
    denominator, balances, capacities = problem.integer_view
    root = _strong_components(len(node_ids), problem.ends)
    index: dict[int, int] = {}  # an SCC's root -> its contracted node
    component = [index.setdefault(r, len(index)) for r in root]
    summed = [0] * len(index)
    for k, d in zip(component, balances):
        summed[k] += d
    arc_ids, ends, kept = [], [], []
    for arc_id, c, (tail, head) in zip(problem.arc_ids, capacities, problem.ends):
        if component[tail] != component[head]:
            arc_ids.append(arc_id)
            ends.append((component[tail], component[head]))
            kept.append(c)
    view = IntegerView(denominator, tuple(summed), tuple(kept))
    contracted = Problem(tuple(node_ids[r] for r in index), tuple(arc_ids), view, tuple(ends))
    factor = Fraction(sum(d for d in summed if d > 0), min(kept, default=1))
    report = is_feasible(contracted, factor)
    if report.feasible:
        return FatalCutReport(False)
    if report.witness_stats is None or report.witness_stats.capacity != 0:
        raise InvariantViolation(
            "witness at the fatal-test factor must have an empty arc set"
        )
    inside = contracted.side(report.witness_cut.source_side)
    cut = Cut(frozenset(v for v, k in zip(node_ids, component) if inside[k]))
    return FatalCutReport(True, cut, report.witness_stats)


def _strong_components(n: int, ends: tuple[tuple[int, int], ...]) -> list[int]:
    """Label each of n nodes with the first-reached node of its SCC.

    Tarjan's algorithm over the (tail, head) pairs `ends`, run from an extra
    node n with an arc to every node, on an explicit stack of successor
    iterators, so no recursion limit caps the input.
    """
    successors: list[list[int]] = [[] for _ in range(n)]
    for tail, head in ends:
        successors[tail].append(head)
    order, low, root = [-1] * n + [0], [0] * (n + 1), [-1] * (n + 1)
    stack, path, count = [n], [(n, iter(range(n)))], 1
    while path:
        v, pending = path[-1]
        for w in pending:
            if order[w] < 0:
                order[w] = low[w] = count
                count += 1
                stack.append(w)
                path.append((w, iter(successors[w])))
                break
            if root[w] < 0 and order[w] < low[v]:
                low[v] = order[w]  # w is still on the stack
        else:
            path.pop()
            if path and low[v] < low[path[-1][0]]:
                low[path[-1][0]] = low[v]
            while low[v] == order[v] and root[v] < 0:
                root[stack.pop()] = v
    return root[:n]


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

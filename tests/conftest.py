"""Shared fixtures and seeded random instance generators."""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import deque
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import pytest

from lexflow import (
    Arc,
    BalancedSolution,
    Certificate,
    Cut,
    CutStats,
    FatalCutReport,
    FeasibilityReport,
    Flow,
    FlowNetwork,
    InvalidPartition,
    InvariantViolation,
    KeyMismatch,
    Level,
    Problem,
    RatioResult,
    SearchStep,
    VerificationResult,
    build_two_pole,
    cut_stats,
    format_rational,
    is_feasible,
    minmax_ratio,
    minmax_ratio_dichotomy,
    node_balance_residual,
    total_integer_capacity,
    validate_problem,
)
from lexflow.model import IntegerView, cut_arcs


def diamond_problem(supply: int = 4) -> Problem:
    """Four-node diamond: one producer, one consumer, two parallel routes."""
    return validate_problem(
        [("s", supply), ("a", 0), ("b", 0), ("t", -supply)],
        [
            ("sa", "s", "a", 1),
            ("sb", "s", "b", 3),
            ("at", "a", "t", 2),
            ("bt", "b", "t", 2),
        ],
    )


def single_arc_problem() -> Problem:
    return validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])


def two_cycle_problem() -> Problem:
    return validate_problem(
        [("u", 3), ("w", -3)],
        [("uw", "u", "w", 1), ("wu", "w", "u", 1)],
    )


def random_rational(
    rng: random.Random, max_num: int = 12, max_den: int = 12
) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_problem(
    rng: random.Random,
    max_nodes: int = 10,
    max_arcs: int = 14,
    max_num: int = 12,
    max_den: int = 12,
) -> Problem:
    """Random instance; balances are sums of bounded transfers, so they are
    exactly zero in total. May contain fatal or deficient cuts."""
    n = rng.randint(2, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    balances = {v: Fraction(0) for v in ids}
    for _ in range(rng.randint(0, n)):
        u, w = rng.sample(ids, 2)
        t = random_rational(rng, max_num, max_den)
        balances[u] += t
        balances[w] -= t
    arcs = []
    for j in range(rng.randint(1, max_arcs)):
        tail, head = rng.sample(ids, 2)
        arcs.append((f"e{j}", tail, head, random_rational(rng, max_num, max_den)))
    return validate_problem([(v, balances[v]) for v in ids], arcs)


def random_solvable_problem(
    rng: random.Random,
    max_nodes: int = 7,
    max_arcs: int = 12,
    max_num: int = 12,
    max_den: int = 12,
) -> Problem:
    """Random weakly solvable instance: balances are induced by a random
    nonnegative flow on the generated arcs, so a weak solution exists by
    construction."""
    n = rng.randint(2, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    arcs = []
    balances = {v: Fraction(0) for v in ids}
    for j in range(rng.randint(1, max_arcs)):
        tail, head = rng.sample(ids, 2)
        arcs.append((f"e{j}", tail, head, random_rational(rng, max_num, max_den)))
        if rng.random() < 0.7:
            carried = Fraction(rng.randint(0, max_num), rng.randint(1, max_den))
            balances[tail] += carried
            balances[head] -= carried
    return validate_problem([(v, balances[v]) for v in ids], arcs)


def sparse_problem(rng: random.Random, n: int, m: int) -> Problem:
    """The criterion-8 acceptance generator at n nodes and m arcs: weakly
    solvable, its balances induced by a random nonnegative flow on the arcs,
    its denominators dividing 100."""
    ids = [f"n{i}" for i in range(n)]
    denominators = [1, 2, 4, 5, 10, 20, 25, 50, 100]
    arcs = []
    balances = dict.fromkeys(ids, Fraction(0))
    for j in range(m):
        tail, head = rng.sample(ids, 2)
        arcs.append((f"e{j}", tail, head, Fraction(rng.randint(1, 100), rng.choice(denominators))))
        if rng.random() < 0.7:
            carried = Fraction(rng.randint(0, 100), rng.choice(denominators))
            balances[tail] += carried
            balances[head] -= carried
    return validate_problem(list(balances.items()), arcs)


def disjoint_union(parts: list[Problem]) -> Problem:
    """The parts side by side, ids prefixed by the part's index."""
    nodes, arcs = [], []
    for k, part in enumerate(parts):
        nodes += [(f"c{k}_{v}", part.balances[v]) for v in part.node_ids]
        arcs += [
            (f"c{k}_{a.arc_id}", f"c{k}_{a.tail}", f"c{k}_{a.head}", a.capacity)
            for a in part.arcs
        ]
    return validate_problem(nodes, arcs)


def grid_problem(rng: random.Random, k: int) -> Problem:
    """k x k grid, both directions between 4-neighbours, k random transfers."""
    ids = [f"v{r}_{q}" for r in range(k) for q in range(k)]
    arcs = []
    for r in range(k):
        for q in range(k):
            for dr, dq in ((0, 1), (1, 0)):
                if r + dr < k and q + dq < k:
                    u, w = f"v{r}_{q}", f"v{r + dr}_{q + dq}"
                    for tail, head in ((u, w), (w, u)):
                        cap = Fraction(rng.randint(1, 30), rng.randint(1, 7))
                        arcs.append((f"a{len(arcs)}", tail, head, cap))
    balances = dict.fromkeys(ids, Fraction(0))
    for _ in range(k):
        u, w = rng.sample(ids, 2)
        amount = Fraction(rng.randint(1, 60), rng.randint(1, 7))
        balances[u] += amount
        balances[w] -= amount
    return validate_problem(list(balances.items()), arcs)


# Primes just above 10**4, the denominators of deep-denominator instances.
PRIMES = [q for q in range(10_001, 10_400) if all(q % k for k in range(2, 102))]


def mixed_rational(rng: random.Random) -> Fraction:
    """Mostly a deep rational (a prime denominator near 10**4), else a small one."""
    if rng.random() < 0.7:
        return Fraction(rng.randint(1, 10**6), rng.choice(PRIMES))
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def deep_problem(rng: random.Random) -> Problem:
    """Random instance whose numbers mostly have prime denominators near
    10**4, so the common denominator runs to kilobits."""
    n = rng.randint(2, 9)
    ids = [f"n{i}" for i in range(n)]
    balances = {v: Fraction(0) for v in ids}
    for _ in range(rng.randint(1, n)):
        u, w = rng.sample(ids, 2)
        amount = mixed_rational(rng)
        balances[u] += amount
        balances[w] -= amount
    arcs = []
    for j in range(rng.randint(1, 14)):
        tail, head = rng.sample(ids, 2)
        arcs.append((f"e{j}", tail, head, mixed_rational(rng)))
    return validate_problem([(v, balances[v]) for v in ids], arcs)


def forward_arcs(cut: Cut, problem: Problem) -> tuple[Arc, ...]:
    """The arcs leaving the cut's source side, read by node id."""
    side = cut.source_side
    return tuple(a for a in problem.arcs if a.tail in side and a.head not in side)


def reverse_arcs(cut: Cut, problem: Problem) -> tuple[Arc, ...]:
    """The arcs entering the cut's source side, read by node id."""
    side = cut.source_side
    return tuple(a for a in problem.arcs if a.tail not in side and a.head in side)


def reference_step(problem: Problem, cut: Cut, ratio: Fraction) -> IntegerView:
    """The reference for `step_block`'s stepped grid, rebuilt from `Fraction`s:
    move ratio × capacity along the cut's forward arcs in a balance dict,
    drop the forward and reverse arcs, and put what is left on the lcm of
    its denominators."""
    balances = dict(problem.balances)
    forward = forward_arcs(cut, problem)
    for arc in forward:
        balances[arc.tail] -= ratio * arc.capacity
        balances[arc.head] += ratio * arc.capacity
    dropped = {a.arc_id for a in (*forward, *reverse_arcs(cut, problem))}
    numbers = [balances[v] for v in problem.node_ids]
    numbers += [a.capacity for a in problem.arcs if a.arc_id not in dropped]
    lcm = math.lcm(*(x.denominator for x in numbers))
    grid = [lcm // x.denominator * x.numerator for x in numbers]
    n = len(problem.node_ids)
    return IntegerView(lcm, tuple(grid[:n]), tuple(grid[n:]))


def reference_stage(problem: Problem, cut: Cut, ratio: Fraction) -> Problem:
    """The whole stage after loading `cut` at `ratio`, unsplit: every node,
    the arcs the cut does not cross, in order, and `reference_step`'s view."""
    side = cut.source_side
    kept = [k for k, a in enumerate(problem.arcs) if (a.tail in side) == (a.head in side)]
    arc_ids = tuple(problem.arc_ids[k] for k in kept)
    ends = tuple(problem.ends[k] for k in kept)
    return Problem(problem.node_ids, arc_ids, reference_step(problem, cut, ratio), ends)


def sub_problem(problem: Problem, nodes: list[int], arcs: list[int]) -> Problem:
    """The problem on the nodes and arcs at the given positions, in order,
    validated afresh from their `Fraction`s; the arcs must join only the
    given nodes."""
    balances = problem.balances
    return validate_problem(
        [(problem.node_ids[i], balances[problem.node_ids[i]]) for i in nodes],
        [astuple(problem.arcs[k]) for k in arcs],
    )


def sorted_utilizations(flow: Flow, problem: Problem) -> tuple[Fraction, ...]:
    """The flow's utilizations value/capacity, one per arc, sorted
    descending. One flow is balanced against another exactly when this
    tuple is lexicographically smaller or equal."""
    ratios = (flow.values[a.arc_id] / a.capacity for a in problem.arcs)
    return tuple(sorted(ratios, reverse=True))


MAX_CENSUS_NODES = 20


class TooLarge(Exception):
    """The instance exceeds the enumeration guard."""


@dataclass(frozen=True)
class CutCensus:
    """Every ordered proper bipartition of a problem, with exact stats."""

    entries: tuple[tuple[Cut, CutStats], ...]

    @property
    def max_ratio(self) -> Fraction:
        """Largest finite cut ratio, floored at zero.

        Matches the solver's convention: zero when no cut has positive
        deficiency. Fatal cuts (infinite ratio) are not folded in; consult
        `fatal_cuts` first.
        """
        best = Fraction(0)
        for _, stats in self.entries:
            if stats.capacity > 0:
                ratio = stats.deficiency / stats.capacity
                if ratio > best:
                    best = ratio
        return best

    @property
    def critical_cuts(self) -> tuple[Cut, ...]:
        top = self.max_ratio
        if top == 0:
            return ()
        return tuple(
            cut
            for cut, stats in self.entries
            if stats.capacity > 0 and stats.deficiency == top * stats.capacity
        )

    @property
    def fatal_cuts(self) -> tuple[Cut, ...]:
        return tuple(cut for cut, stats in self.entries if stats.is_fatal)

    @property
    def deficient_cuts(self) -> tuple[Cut, ...]:
        return tuple(
            cut for cut, stats in self.entries if stats.deficiency > stats.capacity
        )


def enumerate_cuts(problem: Problem) -> CutCensus:
    """Brute-force census of all 2^n - 2 ordered cuts (guarded to 20 nodes)."""
    n = len(problem.node_ids)
    if n > MAX_CENSUS_NODES:
        raise TooLarge(f"{n} nodes exceed the enumeration guard of {MAX_CENSUS_NODES}")

    ids = problem.node_ids
    balances = [problem.balances[v] for v in ids]
    arc_bits = [
        (1 << tail, 1 << head, a.capacity)
        for a, (tail, head) in zip(problem.arcs, problem.ends)
    ]

    entries: list[tuple[Cut, CutStats]] = []
    zero = Fraction(0)
    for mask in range(1, (1 << n) - 1):
        deficiency = zero
        for i in range(n):
            if mask >> i & 1:
                deficiency += balances[i]
        capacity = zero
        for tail_bit, head_bit, cap in arc_bits:
            if mask & tail_bit and not mask & head_bit:
                capacity += cap
        cut = Cut(frozenset(ids[i] for i in range(n) if mask >> i & 1))
        entries.append((cut, CutStats(deficiency, capacity)))
    return CutCensus(tuple(entries))


def reference_max_flow(net: FlowNetwork) -> tuple[int, frozenset, frozenset]:
    """Reference Dinic with levels counted from the source, each augmenting
    walk restarting at the source. Returns the flow value, the nodes the
    source reaches in the final residual network (the inclusion-minimal min
    cut), and the complement of the nodes that reach the sink (the
    inclusion-maximal one)."""
    n, source, sink = net.num_nodes, net.source, net.sink
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for tail, head, capacity in net.arcs:
        adj[tail].append(len(to))
        to.append(head)
        cap.append(capacity)
        adj[head].append(len(to))
        to.append(tail)
        cap.append(0)

    def search(start: int, usable) -> list[int]:
        level = [-1] * n
        level[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for e in adj[v]:
                if usable(e) and level[to[e]] < 0:
                    level[to[e]] = level[v] + 1
                    queue.append(to[e])
        return level

    value = 0
    while True:
        level = search(source, lambda e: cap[e] > 0)
        if level[sink] < 0:
            break
        pointer = [0] * n
        while True:
            path: list[int] = []
            v = source
            while v != sink:
                while pointer[v] < len(adj[v]):
                    e = adj[v][pointer[v]]
                    if cap[e] > 0 and level[to[e]] == level[v] + 1:
                        break
                    pointer[v] += 1
                else:
                    if v == source:
                        break
                    level[v] = -1
                    v = to[path.pop() ^ 1]
                    pointer[v] += 1
                    continue
                path.append(e)
                v = to[e]
            if v != sink:
                break
            moved = min(cap[e] for e in path)
            for e in path:
                cap[e] -= moved
                cap[e ^ 1] += moved
            value += moved
    reachable = frozenset(v for v, d in enumerate(level) if d >= 0)
    reaches_sink = search(sink, lambda e: cap[e ^ 1] > 0)
    maximal = frozenset(v for v, d in enumerate(reaches_sink) if d < 0)
    return value, reachable, maximal


def sink_side_is_feasible(problem: Problem, z: Fraction) -> FeasibilityReport:
    """`is_feasible` through the reference kernel, with the inclusion-maximal
    min cut as the witness instead of the minimal one. Patched into
    `ratio_search.is_feasible`, it lets levels take other critical cuts
    where a stage has several, which must not change the flow."""
    if problem.total_supply == 0:
        return FeasibilityReport(True)
    two_pole = build_two_pole(problem, z)
    value, _, maximal = reference_max_flow(two_pole.network)
    if value == problem.total_supply * z.denominator * problem.integer_view.denominator:
        return FeasibilityReport(True)
    n = len(problem.node_ids)
    cut = Cut(frozenset(problem.node_ids[i] for i in maximal if i < n))
    return FeasibilityReport(False, cut, cut_stats(problem, cut))


def probe_below(problem: Problem, r: Fraction) -> FeasibilityReport:
    """`is_feasible` at r - 1/(2bλ), b being r's denominator and λ the
    problem's `total_integer_capacity`: no cut ratio lies in between, so
    for r = r0 the witness is the canonical critical cut."""
    lam = total_integer_capacity(problem)
    return is_feasible(problem, r - Fraction(1, 2 * r.denominator * lam))


def two_pole_has_fatal_cut(problem: Problem) -> FatalCutReport:
    """`has_fatal_cut` as one feasibility test on the whole problem at
    M = supply / minimum capacity, with no SCC contraction. The reference
    the condensation must agree with, witness and stats included."""
    if problem.total_supply == 0:
        return FatalCutReport(False)
    _, balances, capacities = problem.integer_view
    factor = Fraction(sum(d for d in balances if d > 0), min(capacities, default=1))
    report = is_feasible(problem, factor)
    if report.feasible:
        return FatalCutReport(False)
    return FatalCutReport(True, report.witness_cut, report.witness_stats)


def weak_components(problem: Problem) -> list[frozenset[int]]:
    """The node positions of each weakly connected component of `problem`'s
    arcs, found by networkx rather than by `model.step_block`."""
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(problem.node_ids)))
    graph.add_edges_from(problem.ends)
    return [frozenset(part) for part in nx.weakly_connected_components(graph)]


def lexmin_flaw(problem: Problem, flow: Flow) -> str | None:
    """Why `flow` is not `problem`'s lexmin flow, or None when it is, read
    from the flow alone: no certificate, no max-flow and no cut.

    Let r_e = x_e / λ_e. A weakly feasible flow x is the lexmin flow exactly
    when, for every ratio R > 0 that x attains, no arc u -> v of ratio R has
    u and v in one strongly connected component of
    G_R = {u -> v : r_e < R} ∪ {v -> u : x_e > 0}. Such a component holds a
    cycle through the arc's reverse that lowers it and raises only arcs
    below R, and a small step around that cycle lowers the sorted ratio
    vector; conversely, any other weakly feasible flow differs from x by
    such cycles. The components are networkx's, and ratios are compared by
    cross-multiplying on the problem's grid, where they are reduced pairs.
    """
    nx = pytest.importorskip("networkx")
    if set(flow.values) != set(problem.arc_ids):
        return "flow keys do not match the arcs"
    values = [flow.values[a] for a in problem.arc_ids]
    if any(x < 0 for x in values):
        return "negative flow"
    residual = [problem.balances[v] for v in problem.node_ids]
    for (tail, head), x in zip(problem.ends, values):
        residual[tail] -= x
        residual[head] += x
    if any(residual):
        return "conservation fails"

    # r_e / L = x_e / C_e, C_e being λ_e on the grid of L, in lowest terms.
    ratios = []
    for x, c in zip(values, problem.integer_view.capacities):
        p, q = x.numerator, x.denominator * c
        g = math.gcd(p, q)
        ratios.append((p // g, q // g))
    by_ratio: dict[tuple[int, int], list[int]] = {}
    for k, r in enumerate(ratios):
        by_ratio.setdefault(r, []).append(k)
    ascending = sorted(by_ratio, key=functools.cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))

    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(problem.node_ids)))
    graph.add_edges_from((head, tail) for (tail, head), x in zip(problem.ends, values) if x)
    for r in ascending:
        if r[0]:  # G_R holds every arc below R, forward, by now
            component = {}
            for label, members in enumerate(nx.strongly_connected_components(graph)):
                component.update(dict.fromkeys(members, label))
            for k in by_ratio[r]:
                tail, head = problem.ends[k]
                if component[tail] == component[head]:
                    return f"arc {problem.arc_ids[k]!r} can be lowered by raising lower ratios"
        graph.add_edges_from(problem.ends[k] for k in by_ratio[r])
    return None


def labelled_verify(problem: Problem, solution: BalancedSolution) -> VerificationResult:
    """`verify_certificate` as a replay of whole stages: each level runs
    `cut_arcs` and `cut_stats` on the whole stage and steps it with
    `reference_stage`, probes T_k, the blocks its cut crosses, cut out of
    the stage with `sub_problem`, and labels every node with its block: one
    block at first, then the weakly connected components of the stepped
    stage's arcs (`weak_components`). The reference the verifier's list of
    blocks must agree with, verdict and detail."""
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
    current = problem
    # block[i] is the position of the first node of node i's block.
    block = [0] * len(problem.node_ids)
    for k, level in enumerate(certificate.levels):
        where = f"level {k}"
        arcs = cut_arcs(current, level.cut)
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

        _, _, forward, reverse = arcs
        arc_ids, (denominator, _, capacities) = current.arc_ids, current.integer_view
        capacity = {arc_ids[k]: Fraction(capacities[k], denominator) for k in forward}
        fixed_ids = [arc_id for arc_id, _ in level.fixed_forward]
        if len(fixed_ids) != len(set(fixed_ids)) or set(fixed_ids) != set(capacity):
            return reject("level_replay", f"{where}: fixed arcs differ from the cut arcs")
        for arc_id, value in level.fixed_forward:
            if value != level.ratio * capacity[arc_id]:
                return reject("level_replay", f"{where}: fixed value wrong on {arc_id!r}")
            if flow.values[arc_id] != value:
                return reject("level_replay", f"{where}: flow differs on {arc_id!r}")
        if set(level.zeroed_reverse) != {arc_ids[k] for k in reverse}:
            return reject("level_replay", f"{where}: zeroed arcs differ from the reverse arcs")
        for arc_id in level.zeroed_reverse:
            if flow.values[arc_id] != 0:
                return reject("level_replay", f"{where}: reverse arc {arc_id!r} carries flow")

        # Once a probe has failed, no later probe runs.
        if suboptimal is None:
            ends = current.ends
            crossed = {block[ends[k][0]] for k in (*forward, *reverse)}
            nodes = [i for i, b in enumerate(block) if b in crossed]
            inside = [j for j, (tail, _) in enumerate(ends) if block[tail] in crossed]
            touched = sub_problem(current, nodes, inside)
            if not is_feasible(touched, level.ratio).feasible:
                suboptimal = reject("stage_optimality", f"{where}: ratio is not sufficient")
            elif probe_below(touched, level.ratio).feasible:
                suboptimal = reject("stage_optimality", f"{where}: ratio is not minimal")
        # The replay showed the level's arcs are the cut's, loaded at its ratio.
        current = reference_stage(current, level.cut, level.ratio)
        for part in weak_components(current):
            first = min(part)
            for i in part:
                block[i] = first

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
    if any(current.integer_view.balances):
        return reject("arc_partition", "residual balances do not vanish")

    # The replay pinned every fixed arc at its level's ratio and the rest at
    # zero, so with the ratios non-increasing, this is the flow's ratio
    # vector sorted descending, found without a division or a sort.
    ratios = [level.ratio for level in certificate.levels for _ in level.fixed_forward]
    ratios += [Fraction(0)] * (len(problem.arc_ids) - len(ratios))
    if solution.sorted_ratios != tuple(ratios):
        return reject("summary", "sorted ratios differ from the flow's")
    return VerificationResult(True)


def whole_stage_verify(problem: Problem, solution: BalancedSolution) -> VerificationResult:
    """`labelled_verify` with both probes of every level run on the whole
    stage instead of the blocks the level's cut crosses: `sub_problem` hands
    back the stage itself. The reference the narrowed probes must agree
    with."""
    with mock.patch.object(sys.modules[__name__], "sub_problem", lambda stage, nodes, arcs: stage):
        return labelled_verify(problem, solution)


class StageBlock(NamedTuple):
    """A block of a whole stage: its node positions in stage order and the
    Newton search on the stage restricted to them."""

    nodes: list[int]
    result: RatioResult


def whole_stage_search(problem: Problem, previous: RatioResult | None) -> RatioResult:
    """The per-block Newton search of a whole stage, found by scanning the
    stage: the first stage whole, and later ones by re-searching the two
    sides of each block `previous` tied, as cells of the whole stage cut
    out with `sub_problem`."""
    if previous is None:
        return minmax_ratio(problem)
    if previous.blocks:
        kept = [b for b in previous.blocks if b.result.r0 != previous.r0]
        tied = [b.nodes for b in previous.blocks if b.result.r0 == previous.r0]
    else:
        kept, tied = [], [range(len(problem.node_ids))]

    # Tied block k splits into cells 2k and 2k + 1, its nodes on the sink
    # and on the source side of the previous cut.
    split = problem.side(previous.critical_cut.source_side)
    cell = [-1] * len(problem.node_ids)
    cell_nodes: dict[int, list[int]] = {}
    for k, nodes in enumerate(tied):
        for i in nodes:
            cell[i] = 2 * k + split[i]
            cell_nodes.setdefault(cell[i], []).append(i)
    cell_arcs: dict[int, list[int]] = {c: [] for c in cell_nodes}
    for j, (tail, head) in enumerate(problem.ends):
        if (c := cell[tail]) != cell[head]:
            raise InvariantViolation("a stage arc leaves its block")
        if c >= 0:
            cell_arcs[c].append(j)

    balances = problem.integer_view.balances
    blocks = list(kept)
    steps: list[SearchStep] = []
    for c, nodes in cell_nodes.items():
        if not any(balances[i] for i in nodes):
            continue
        block = sub_problem(problem, nodes, cell_arcs[c])
        result = minmax_ratio(block)
        blocks.append(StageBlock(nodes, result))
        steps += result.steps

    r0 = max(b.result.r0 for b in blocks)
    tied_sides = (b.result.critical_cut.source_side for b in blocks if b.result.r0 == r0)
    cut = Cut(frozenset().union(*tied_sides))
    return RatioResult(r0, cut, tuple(steps), tuple(blocks))


def whole_stage_reduce(problem: Problem, cut: Cut, ratio: Fraction) -> tuple[Problem, Level]:
    """One level on a whole stage: load `cut` at `ratio` and strip its arcs."""
    arcs = cut_arcs(problem, cut)
    stats = cut_stats(problem, cut)
    _, _, forward, reverse = arcs
    if not forward or stats.ratio != ratio:
        raise InvariantViolation("the level's cut is not critical in its stage")
    arc_ids, (denominator, _, capacities) = problem.arc_ids, problem.integer_view
    fixed = tuple((arc_ids[k], ratio * Fraction(capacities[k], denominator)) for k in forward)
    zeroed = tuple(arc_ids[k] for k in reverse)
    return reference_stage(problem, cut, ratio), Level(ratio, cut, fixed, zeroed)


def whole_stage_balanced_flow(problem: Problem, search=whole_stage_search) -> BalancedSolution:
    """`balanced_flow` on whole stages: every level steps the whole stage and
    `search(stage, previous result)` searches it, by default block by block
    as `whole_stage_search` finds the blocks. The reference the solver's
    list of blocks must agree with, byte for byte; with
    `whole_stage_dichotomy` it is the bisection mode's."""
    values = dict.fromkeys(problem.arc_ids, Fraction(0))
    levels: list[Level] = []
    result: RatioResult | None = None
    current = problem
    while current.total_supply:
        last = result
        result = search(current, last)
        if result.r0 <= 0 or (last is not None and result.r0 > last.r0):
            raise InvariantViolation("level ratio is not positive or rose")
        current, level = whole_stage_reduce(current, result.critical_cut, result.r0)
        values.update(level.fixed_forward)
        levels.append(level)
    ratios = [level.ratio for level in levels for _ in level.fixed_forward]
    ratios += [Fraction(0)] * (len(problem.arc_ids) - len(ratios))
    certificate = Certificate(tuple(levels), current.arc_ids)
    return BalancedSolution(Flow(values), certificate, tuple(ratios))


def whole_stage_dichotomy(stage: Problem, previous: RatioResult | None) -> RatioResult:
    """The bisection mode's search of a whole stage."""
    return minmax_ratio_dichotomy(stage)


@pytest.fixture
def d4() -> Problem:
    return diamond_problem()

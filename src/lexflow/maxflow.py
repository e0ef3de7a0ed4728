"""Integer-capacity maximum flow (Dinic) with canonical min-cut extraction.

Capacities are Python ints, so arbitrary precision is free and termination
does not depend on capacity magnitudes: the number of blocking-flow phases
is bounded by the node count. Callers with rational capacities scale them
to a common integer grid first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class FlowNetwork:
    """Two-pole network; `arcs` are (tail, head, capacity) with capacity >= 0."""

    num_nodes: int
    arcs: tuple[tuple[int, int, int], ...]
    source: int
    sink: int

    def __post_init__(self) -> None:
        if not (0 <= self.source < self.num_nodes):
            raise ValueError("source out of range")
        if not (0 <= self.sink < self.num_nodes):
            raise ValueError("sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for tail, head, capacity in self.arcs:
            if capacity < 0:
                raise ValueError("arc capacity must be nonnegative")
            if not (0 <= tail < self.num_nodes and 0 <= head < self.num_nodes):
                raise ValueError("arc endpoint out of range")


@dataclass(frozen=True)
class _Residual:
    """Final residual network of a max-flow run: edge heads, capacities and
    per-node edge lists, paired so that edge e ^ 1 reverses edge e."""

    sink: int
    to: list[int]
    cap: list[int]
    adj: list[list[int]]


@dataclass(frozen=True)
class MaxFlowResult:
    """Maximum flow value, per-arc flows, and the two canonical min cuts.

    `min_cut_source_side` is the set of nodes reachable from the source in
    the final residual network: the inclusion-minimal min cut, which is the
    same for every maximum flow. `alt_min_cut_source_side` is the complement
    of the nodes that can still reach the sink, the inclusion-maximal min
    cut; it exists only to let callers cross-check results against a second
    extraction rule, so it is computed on first access.
    """

    value: int
    arc_flows: tuple[int, ...]
    min_cut_source_side: frozenset[int]
    _residual: _Residual = field(repr=False, compare=False)

    @cached_property
    def alt_min_cut_source_side(self) -> frozenset[int]:
        # The edges into w are the pairs e ^ 1 of the edges e leaving w.
        residual = self._residual
        to, cap = residual.to, residual.cap
        reaches_sink = {residual.sink}
        queue = deque([residual.sink])
        while queue:
            w = queue.popleft()
            for e in residual.adj[w]:
                v = to[e]
                if cap[e ^ 1] > 0 and v not in reaches_sink:
                    reaches_sink.add(v)
                    queue.append(v)
        return frozenset(
            i for i in range(len(residual.adj)) if i not in reaches_sink
        )


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Compute a maximum source-sink flow with Dinic's algorithm.

    Deterministic for a fixed input: adjacency lists follow the input arc
    order and both breadth-first passes scan them in that order.
    """
    n = net.num_nodes
    source, sink = net.source, net.sink

    # Paired residual edges: input arc i owns edges 2i (forward) and 2i+1.
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

    level = [-1] * n
    pointer = [0] * n

    def build_levels() -> bool:
        for i in range(n):
            level[i] = -1
        level[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for e in adj[v]:
                w = to[e]
                if cap[e] > 0 and level[w] < 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        return level[sink] >= 0

    def augment() -> int:
        # Iterative level-graph walk; `pointer` persists across calls so each
        # edge is abandoned at most once per phase.
        path: list[int] = []
        v = source
        while True:
            if v == sink:
                moved = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= moved
                    cap[e ^ 1] += moved
                return moved
            advanced = False
            while pointer[v] < len(adj[v]):
                e = adj[v][pointer[v]]
                w = to[e]
                if cap[e] > 0 and level[w] == level[v] + 1:
                    path.append(e)
                    v = w
                    advanced = True
                    break
                pointer[v] += 1
            if advanced:
                continue
            if v == source:
                return 0
            level[v] = -1  # dead end for this phase
            e = path.pop()
            v = to[e ^ 1]
            pointer[v] += 1

    value = 0
    while build_levels():
        for i in range(n):
            pointer[i] = 0
        while True:
            moved = augment()
            if moved == 0:
                break
            value += moved

    # The last level pass failed, so it already marks residual reachability.
    reachable = frozenset(i for i in range(n) if level[i] >= 0)

    flows = tuple(cap[2 * i + 1] for i in range(len(net.arcs)))
    return MaxFlowResult(value, flows, reachable, _Residual(sink, to, cap, adj))

"""Integer-capacity maximum flow (Dinic) with canonical min-cut extraction.

Capacities are Python ints, so arbitrary precision is free and termination
does not depend on capacity magnitudes: the number of blocking-flow phases
is bounded by the node count. Each phase labels nodes by their residual
distance to the sink, so the blocking-flow search from the source enters
only nodes that led to the sink when the phase began. Callers with rational
capacities scale them to a common integer grid first.

The flow value and both reported min cuts are the same for every maximum
flow, so they do not depend on the order in which paths are augmented;
only the per-arc flows do, and those are deterministic for a fixed input.
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

    Each phase labels the nodes by their residual distance to the sink,
    with a breadth-first search backwards from the sink that stops once the
    source is labelled, and then sends a blocking flow from the source along
    arcs that step one label closer to the sink. The source's distance grows
    with every phase, so there are at most n phases. After an augmentation
    the search backs up only to the tail of the first saturated edge.

    Deterministic for a fixed input: adjacency lists follow the input arc
    order and every search scans them in that order. The flow value and both
    min cuts are the same for every maximum flow; `arc_flows` is one of them.
    """
    n = net.num_nodes
    source, sink = net.source, net.sink

    # Paired residual edges: input arc i owns edges 2i (forward) and 2i+1.
    to = [0] * (2 * len(net.arcs))
    cap = [0] * (2 * len(net.arcs))
    adj: list[list[int]] = [[] for _ in range(n)]
    e = 0
    for tail, head, capacity in net.arcs:
        to[e] = head
        cap[e] = capacity
        adj[tail].append(e)
        to[e + 1] = tail
        adj[head].append(e + 1)
        e += 2

    value = 0
    while True:
        # Edge e leaves w, so e ^ 1 enters w; appending to `queue` while
        # iterating over it makes the loop a breadth-first search.
        dist = [-1] * n
        dist[sink] = 0
        queue = [sink]
        for w in queue:
            d = dist[w] + 1
            for e in adj[w]:
                if cap[e ^ 1] and dist[to[e]] < 0:
                    v = to[e]
                    dist[v] = d
                    queue.append(v)
            if dist[source] >= 0:
                break
        if dist[source] < 0:
            break

        # Iterative walk; `pointer[v]` is v's current edge, so each edge is
        # abandoned at most once per phase.
        pointer = [0] * n
        path: list[int] = []
        v = source
        while True:
            if v == sink:
                caps = [cap[e] for e in path]
                moved = min(caps)
                value += moved
                for e in path:
                    cap[e] -= moved
                    cap[e ^ 1] += moved
                cut = caps.index(moved)  # first saturated edge
                v = to[path[cut] ^ 1]
                del path[cut:]
                continue
            edges = adj[v]
            closer = dist[v] - 1
            p, end = pointer[v], len(edges)
            while p < end:
                e = edges[p]
                if cap[e] and dist[to[e]] == closer:
                    break
                p += 1
            pointer[v] = p
            if p < end:
                path.append(e)
                v = to[e]
            elif v == source:
                break
            else:
                dist[v] = -1  # dead end for this phase
                v = to[path.pop() ^ 1]
                pointer[v] += 1

    # Nodes reachable from the source in the final residual network.
    reached = [False] * n
    reached[source] = True
    queue = [source]
    for v in queue:
        for e in adj[v]:
            if cap[e] and not reached[to[e]]:
                reached[to[e]] = True
                queue.append(to[e])

    flows = tuple(cap[1::2])
    return MaxFlowResult(
        value, flows, frozenset(queue), _Residual(sink, to, cap, adj)
    )

"""Integer-capacity maximum flow (Dinic) with canonical min-cut extraction.

Capacities are Python ints, so arbitrary precision is free and termination
does not depend on capacity magnitudes: the number of blocking-flow phases
is bounded by the node count. Each phase labels nodes by their residual
distance to the sink, so the blocking-flow search from the source enters
only nodes that led to the sink when the phase began. Before the first
phase a greedy pass routes flow along paths of one or two arcs between
the poles' neighbours, which on two-pole networks carry most of the flow.
Callers with rational capacities scale them to a common integer grid first.

The flow value and the reported min cut are the same for every maximum
flow, so they do not depend on the order in which paths are augmented;
only the per-arc flows do, and those are deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass


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
class MaxFlowResult:
    """Maximum flow value, per-arc flows, and the canonical min cut.

    `min_cut_source_side` is the set of nodes reachable from the source in
    the final residual network: the inclusion-minimal min cut, which is the
    same for every maximum flow.
    """

    value: int
    arc_flows: tuple[int, ...]
    min_cut_source_side: frozenset[int]


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Compute a maximum source-sink flow with Dinic's algorithm.

    First one greedy pass over the source's edges, in adjacency order,
    routes s→u→x→t wherever x has sink capacity left, and then s→u→x→w→t
    through residual edges x→w into nodes w ≠ u that have some. The phases
    continue from that feasible flow, so at most n phases still follow, and
    the value and the min cut, the same for every maximum flow, do not
    depend on it.

    Each phase labels the nodes by their residual distance to the sink,
    with a breadth-first search backwards from the sink that stops once the
    source is labelled, and then sends a blocking flow from the source along
    arcs that step one label closer to the sink. The source's distance grows
    with every phase, so there are at most n phases. After an augmentation
    the search backs up only to the tail of the first saturated edge.

    Deterministic for a fixed input: adjacency lists follow the input arc
    order and every search scans them in that order. The flow value and the
    min cut are the same for every maximum flow; `arc_flows` is one of them.
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

    # `room[v]` is the capacity left on all of v's arcs into the sink; the
    # greedy pass draws on it and then spreads what it used over those arcs.
    room = [0] * n
    for f in adj[sink]:
        if f & 1:
            room[to[f]] += cap[f ^ 1]
    room[source] = room[sink] = 0
    value = 0
    for a in adj[source]:
        u = to[a]
        supply = cap[a]
        if not supply or u == source or u == sink:
            continue
        for b in adj[u]:
            through = cap[b]
            x = to[b]
            if not through or x == source or x == sink:
                continue
            if through > supply:
                through = supply
            sent = room[x]
            if sent >= through:
                room[x] = sent - through
                sent = through
            else:
                room[x] = 0
                for c in adj[x]:
                    w = to[c]
                    if room[w] and cap[c] and w != u:
                        moved = min(through - sent, cap[c], room[w])
                        cap[c] -= moved
                        cap[c ^ 1] += moved
                        room[w] -= moved
                        sent += moved
                        if sent == through:
                            break
            cap[b] -= sent
            cap[b ^ 1] += sent
            supply -= sent
            if not supply:
                break
        value += cap[a] - supply
        cap[a ^ 1] += cap[a] - supply
        cap[a] = supply
    for f in adj[sink]:
        v = to[f]
        if f & 1 and v != source and v != sink:
            left = min(cap[f ^ 1], room[v])
            room[v] -= left
            cap[f] += cap[f ^ 1] - left
            cap[f ^ 1] = left

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
    return MaxFlowResult(value, flows, frozenset(queue))

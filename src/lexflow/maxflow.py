"""Integer-capacity maximum flow with canonical min-cut extraction.

A greedy pass first routes flow along paths of one or two arcs between the
poles' neighbours, which on two-pole networks carry most of the flow.
Boykov–Kolmogorov search trees, one grown from each pole and kept across
augmentations, then find the rest. A breadth-first search from the source
finishes any flow they leave after their budget of augmentations, along
shortest paths, and then reads the min cut. Capacities are Python ints, so
arbitrary precision is free, and the time bound does not depend on
capacity magnitudes: at most one tree augmentation per arc, then at most
n·m/2 shortest augmenting paths. Callers with rational capacities scale
them to a common integer grid first.

The flow value and the reported min cut are the same for every maximum
flow, so they do not depend on the order in which paths are augmented;
only the per-arc flows do, and those are deterministic for a fixed input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

# Tree augmentations allowed per arc before shortest augmenting paths
# finish the flow, which keeps the time bound free of the capacities.
TREE_AUGMENTATIONS_PER_ARC = 1


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
    """Compute a maximum source-sink flow.

    First one greedy pass over the source's edges, in adjacency order,
    routes s→u→x→t wherever x has sink capacity left, and then s→u→x→w→t
    through residual edges x→w into nodes w ≠ u that have some.

    From that feasible flow, search trees grown from both poles augment
    along the paths where they meet (`_search_trees`). Between two
    augmentations the trees scan each node's edges at most twice, and the
    repair after one scans each orphan's edges and walks parent chains of at
    most n nodes, so each augmentation costs time polynomial in the size of
    the network; the trees make at most TREE_AUGMENTATIONS_PER_ARC
    augmentations per arc.

    A breadth-first search from the source over the residual network then
    augments along the shortest path to the sink and searches again, until
    it misses the sink; only a spent tree budget can leave it a path. From
    any flow, at most n·m/2 shortest augmenting paths follow (Edmonds and
    Karp, 1972), each after one O(n + m) search, so the time bound does not
    depend on the capacities. The last search reaches exactly the min cut's
    source side. Deterministic for a fixed input: adjacency lists follow the
    input arc order and every search scans them in that order. The flow
    value and min cut are the same for every maximum flow; `arc_flows` is
    one of them.
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

    value += _search_trees(n, source, sink, to, cap, adj)

    # `via[w]` is the edge that reached w; appending to `queue` while
    # iterating over it makes the loop a breadth-first search.
    while True:
        reached = [False] * n
        reached[source] = True
        via = [-1] * n
        queue = [source]
        for v in queue:
            for e in adj[v]:
                if cap[e] and not reached[to[e]]:
                    w = to[e]
                    reached[w] = True
                    via[w] = e
                    queue.append(w)
            if reached[sink]:
                break
        if not reached[sink]:
            break
        path = []
        w = sink
        while w != source:
            path.append(via[w])
            w = to[via[w] ^ 1]
        moved = min(cap[e] for e in path)
        value += moved
        for e in path:
            cap[e] -= moved
            cap[e ^ 1] += moved

    flows = tuple(cap[1::2])
    return MaxFlowResult(value, flows, frozenset(queue))


def _search_trees(
    n: int, source: int, sink: int, to: list[int], cap: list[int], adj: list[list[int]]
) -> int:
    """Augment along Boykov–Kolmogorov search trees; return the flow added.

    The source tree grows along residual edges out of its nodes, the sink
    tree along residual edges into its nodes; `tree[v]` is 0 or 1 for them
    and -1 for a free node. `parent[v]` is an edge from v towards its
    parent, in the tree's direction when it is the sink tree's and against
    it when it is the source tree's, so `to[parent[v]]` is always the
    parent; it is -1 at the poles and at orphans. Each tree keeps a FIFO of
    its active nodes, those whose edges may still reach a free node or the
    other tree, and the tree with fewer nodes grows first. An edge from
    the source tree into the sink tree closes a path. After augmenting it,
    each node whose parent edge saturated looks for a same-tree neighbour
    with a residual edge to it whose own parent chain still ends at the
    pole (`mark[v] == stamp` once v is known to); otherwise it leaves the
    tree, re-activates the neighbours that could grow into it again, and
    orphans its children. An inactive source-tree node has no residual edge
    out of its tree, and an inactive sink-tree node none into its tree, so
    once either tree has no active node, no residual path joins the poles
    and the flow is maximum. After TREE_AUGMENTATIONS_PER_ARC augmentations
    per arc the search stops early, and the flow may not be maximum yet.
    """
    budget = TREE_AUGMENTATIONS_PER_ARC * (len(to) // 2)
    tree = [-1] * n
    parent = [-1] * n
    queued = [-1] * n  # the tree whose FIFO v waits in, or -1
    mark = [0] * n
    tree[source] = queued[source] = 0
    tree[sink] = queued[sink] = 1
    fifos = (deque([source]), deque([sink]))
    size, active = [1, 1], [1, 1]
    stamp = value = 0
    while budget and active[0] and active[1]:
        side = 0 if size[0] <= size[1] else 1
        fifo = fifos[side]
        v = fifo.popleft()
        if queued[v] != side:
            continue  # stale: v left its tree, or an earlier entry was scanned
        queued[v] = -1
        active[side] -= 1
        bridged = False
        for f in adj[v]:
            if not cap[f ^ side]:  # f for the source tree, f ^ 1 for the sink's
                continue
            w = to[f]
            other = tree[w]
            if other < 0:
                tree[w], parent[w], queued[w] = side, f ^ 1, side
                size[side] += 1
                active[side] += 1
                fifo.append(w)
                continue
            if other == side:
                continue
            # The path runs source ... a -bridge-> b ... sink.
            a, bridge, b = (w, f ^ 1, v) if side else (v, f, w)
            moved = cap[bridge]
            x = a
            while x != source:
                e = parent[x]
                if cap[e ^ 1] < moved:
                    moved = cap[e ^ 1]
                x = to[e]
            x = b
            while x != sink:
                e = parent[x]
                if cap[e] < moved:
                    moved = cap[e]
                x = to[e]
            value += moved
            cap[bridge] -= moved
            cap[bridge ^ 1] += moved
            orphans = []
            x = a
            while x != source:
                e = parent[x]
                cap[e ^ 1] -= moved
                cap[e] += moved
                if not cap[e ^ 1]:
                    parent[x] = -1
                    orphans.append(x)
                x = to[e]
            x = b
            while x != sink:
                e = parent[x]
                cap[e] -= moved
                cap[e ^ 1] += moved
                if not cap[e]:
                    parent[x] = -1
                    orphans.append(x)
                x = to[e]
            budget -= 1
            bridged = True

            # Orphans that leave their tree orphan their children, which
            # join `orphans` and are handled in turn.
            stamp += 1
            mark[source] = mark[sink] = stamp
            for x in orphans:
                own = tree[x]
                for e in adj[x]:
                    y = to[e]
                    if tree[y] != own or not cap[e ^ own ^ 1]:
                        continue
                    z = y  # up y's parent chain, to a marked node or an orphan
                    while mark[z] != stamp and parent[z] >= 0:
                        z = to[parent[z]]
                    if mark[z] == stamp:
                        while mark[y] != stamp:
                            mark[y] = stamp
                            y = to[parent[y]]
                        parent[x] = e
                        mark[x] = stamp
                        break
                else:
                    tree[x] = -1
                    size[own] -= 1
                    if queued[x] >= 0:
                        active[own] -= 1
                        queued[x] = -1
                    for e in adj[x]:
                        y = to[e]
                        if tree[y] != own:
                            continue
                        if cap[e ^ own ^ 1] and queued[y] < 0:
                            queued[y] = own
                            active[own] += 1
                            fifos[own].append(y)
                        up = parent[y]
                        if up >= 0 and to[up] == x:
                            parent[y] = -1
                            orphans.append(y)
            if tree[v] != side or not budget:
                break
        if bridged and tree[v] == side and queued[v] < 0:
            # The bridge may have residual capacity left: scan v again.
            queued[v] = side
            active[side] += 1
            fifo.appendleft(v)
    return value

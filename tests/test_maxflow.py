"""Max-flow engine: examples, brute-force min-cut agreement, invariants."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from lexflow import FlowNetwork, balanced_flow, max_flow, verify_certificate
from conftest import random_solvable_problem


def brute_force_min_cut(net: FlowNetwork) -> int:
    """Minimum capacity over all 2^(n-2) source-sink cuts."""
    others = [v for v in range(net.num_nodes) if v not in (net.source, net.sink)]
    best = None
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            side = {net.source, *extra}
            capacity = sum(
                c for tail, head, c in net.arcs
                if tail in side and head not in side
            )
            if best is None or capacity < best:
                best = capacity
    return best


def cut_capacity(net: FlowNetwork, side: frozenset[int]) -> int:
    return sum(
        c for tail, head, c in net.arcs if tail in side and head not in side
    )


def _reference_max_flow(net: FlowNetwork) -> tuple[int, frozenset, frozenset]:
    """The original kernel: Dinic with levels counted from the source, each
    augmenting walk restarting at the source. Returns the flow value, the
    nodes the source reaches in the final residual network, and the
    complement of the nodes that reach the sink."""
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
    alt = frozenset(v for v, d in enumerate(reaches_sink) if d < 0)
    return value, reachable, alt


def assert_exact(net: FlowNetwork, result) -> None:
    """A feasible flow whose value equals a cut's capacity is maximum."""
    balance = [0] * net.num_nodes
    for flow, (tail, head, capacity) in zip(result.arc_flows, net.arcs):
        assert 0 <= flow <= capacity
        balance[tail] += flow
        balance[head] -= flow
    assert balance[net.source] == result.value == -balance[net.sink]
    assert all(
        b == 0 for v, b in enumerate(balance) if v not in (net.source, net.sink)
    )
    for side in (result.min_cut_source_side, result.alt_min_cut_source_side):
        assert net.source in side and net.sink not in side
        assert cut_capacity(net, side) == result.value


class TestExamples:
    def test_single_arc(self):
        net = FlowNetwork(2, ((0, 1, 7),), 0, 1)
        result = max_flow(net)
        assert result.value == 7
        assert result.arc_flows == (7,)
        assert result.min_cut_source_side == frozenset({0})

    def test_bottleneck_path(self):
        net = FlowNetwork(3, ((0, 1, 3), (1, 2, 5)), 0, 2)
        result = max_flow(net)
        assert result.value == 3
        assert result.min_cut_source_side == frozenset({0})

    def test_no_path(self):
        net = FlowNetwork(3, ((1, 2, 4),), 0, 2)
        result = max_flow(net)
        assert result.value == 0
        assert result.min_cut_source_side == frozenset({0})

    def test_diamond_two_pole_at_unit_factor(self):
        # Two-pole form of the diamond instance with unscaled capacities:
        # nodes s=0, a=1, b=2, t=3, super source 4, super sink 5.
        net = FlowNetwork(
            6,
            ((4, 0, 4), (0, 1, 1), (0, 2, 3), (1, 3, 2), (2, 3, 2), (3, 5, 4)),
            4,
            5,
        )
        result = max_flow(net)
        assert result.value == brute_force_min_cut(net) == 3
        assert result.min_cut_source_side == frozenset({4, 0, 2})

    def test_parallel_arcs(self):
        net = FlowNetwork(2, ((0, 1, 2), (0, 1, 5)), 0, 1)
        result = max_flow(net)
        assert result.value == 7
        assert result.arc_flows == (2, 5)


class TestRandomNetworks:
    def _random_network(self, rng: random.Random) -> FlowNetwork:
        n = rng.randint(2, 8)
        m = rng.randint(1, 14)
        arcs = []
        for _ in range(m):
            tail, head = rng.sample(range(n), 2)
            arcs.append((tail, head, rng.randint(0, 10)))
        return FlowNetwork(n, tuple(arcs), 0, n - 1)

    def test_value_matches_brute_force_min_cut(self):
        rng = random.Random(501)
        for _ in range(150):
            net = self._random_network(rng)
            result = max_flow(net)
            assert result.value == brute_force_min_cut(net)

    def test_result_invariants(self):
        rng = random.Random(502)
        for _ in range(150):
            net = self._random_network(rng)
            result = max_flow(net)
            # capacity bounds
            for flow, (_, _, capacity) in zip(result.arc_flows, net.arcs):
                assert 0 <= flow <= capacity
            # conservation away from the poles
            balance = [0] * net.num_nodes
            for flow, (tail, head, _) in zip(result.arc_flows, net.arcs):
                balance[tail] += flow
                balance[head] -= flow
            for v in range(net.num_nodes):
                if v not in (net.source, net.sink):
                    assert balance[v] == 0
            assert balance[net.source] == result.value
            # both reported cuts are minimum cuts
            for side in (result.min_cut_source_side, result.alt_min_cut_source_side):
                assert net.source in side and net.sink not in side
                assert cut_capacity(net, side) == result.value
            assert result.min_cut_source_side <= result.alt_min_cut_source_side

    def test_deterministic(self):
        rng = random.Random(503)
        for _ in range(25):
            net = self._random_network(rng)
            assert max_flow(net) == max_flow(net)


class TestCanonicalCuts:
    def test_cuts_are_intersection_and_union_of_all_min_cuts(self):
        # Every maximum flow leaves the same two cuts, so the solver's
        # witnesses do not depend on which maximum flow the kernel finds.
        rng = random.Random(505)
        ties = 0
        for _ in range(200):
            n = rng.randint(2, 8)
            arcs = []
            for _ in range(rng.randint(1, 16)):
                tail, head = rng.sample(range(n), 2)
                arcs.append((tail, head, rng.randint(0, 4)))
            net = FlowNetwork(n, tuple(arcs), 0, n - 1)
            result = max_flow(net)
            others = range(1, n - 1)
            minimum = [
                frozenset({0, *extra})
                for k in range(n - 1)
                for extra in itertools.combinations(others, k)
                if cut_capacity(net, frozenset({0, *extra})) == result.value
            ]
            assert result.min_cut_source_side == frozenset.intersection(*minimum)
            assert result.alt_min_cut_source_side == frozenset.union(*minimum)
            ties += len(minimum) > 1
        assert ties > 50


class TestAgainstReferenceKernel:
    def test_solver_stage_networks(self, monkeypatch):
        import lexflow.gale_hoffman as gale_hoffman

        networks: list[FlowNetwork] = []

        def recording(net: FlowNetwork):
            networks.append(net)
            return max_flow(net)

        monkeypatch.setattr(gale_hoffman, "max_flow", recording)
        rng = random.Random(506)
        for k in range(40):
            problem = random_solvable_problem(
                rng, max_nodes=6 + k // 2, max_arcs=10 + k, max_den=30
            )
            solution = balanced_flow(problem)
            assert verify_certificate(problem, solution).accepted
        assert len(networks) > 500
        for net in networks:
            result = max_flow(net)
            assert (
                result.value,
                result.min_cut_source_side,
                result.alt_min_cut_source_side,
            ) == _reference_max_flow(net)


class TestDeepNetworks:
    def test_long_path(self):
        n = 20_000
        rng = random.Random(507)
        caps = [rng.randint(10**6, 10**7) for _ in range(n - 1)]
        caps[12_345] = 17  # the bottleneck, far from both poles
        arcs = tuple((v, v + 1, c) for v, c in enumerate(caps))
        net = FlowNetwork(n, arcs, 0, n - 1)
        result = max_flow(net)
        assert result.value == 17
        assert result.min_cut_source_side == frozenset(range(12_346))
        assert result.alt_min_cut_source_side == result.min_cut_source_side
        assert_exact(net, result)

    def test_deep_layered_network(self):
        # 300 layers of 8 nodes between the poles, with back arcs, so the
        # augmenting paths are long and residual reverse edges are used.
        depth, width = 300, 8
        rng = random.Random(508)
        n = depth * width + 2
        source, sink = n - 2, n - 1
        arcs = [(source, v, rng.randint(1, 99)) for v in range(width)]
        for layer in range(depth - 1):
            for i in range(width):
                v = layer * width + i
                for j in rng.sample(range(width), 3):
                    arcs.append((v, (layer + 1) * width + j, rng.randint(1, 60)))
                if layer and rng.random() < 0.3:
                    arcs.append((v, (layer - 1) * width + i, rng.randint(1, 9)))
        last = (depth - 1) * width
        arcs += [(last + i, sink, rng.randint(1, 99)) for i in range(width)]
        net = FlowNetwork(n, tuple(arcs), source, sink)
        result = max_flow(net)
        assert result.value > 0
        assert_exact(net, result)
        expected = _reference_max_flow(net)
        assert (
            result.value,
            result.min_cut_source_side,
            result.alt_min_cut_source_side,
        ) == expected


class TestNetworkxReference:
    def test_value_and_cuts_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(504)
        for _ in range(6):
            n = rng.randint(200, 400)
            arcs = []
            for _ in range(4 * n):
                tail, head = rng.sample(range(n), 2)
                capacity = rng.choice((0, rng.randint(1, 50), rng.randint(1, 10**6)))
                arcs.append((tail, head, capacity))
            net = FlowNetwork(n, tuple(arcs), 0, n - 1)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            for tail, head, capacity in arcs:  # networkx merges parallel arcs
                if graph.has_edge(tail, head):
                    graph[tail][head]["capacity"] += capacity
                else:
                    graph.add_edge(tail, head, capacity=capacity)
            expected = nx.maximum_flow_value(graph, 0, n - 1)
            result = max_flow(net)
            assert expected > 0 and result.value == expected
            for side in (result.min_cut_source_side, result.alt_min_cut_source_side):
                assert net.source in side and net.sink not in side
                assert cut_capacity(net, side) == expected
            assert result.min_cut_source_side <= result.alt_min_cut_source_side


class TestValidation:
    def test_rejects_bad_poles(self):
        with pytest.raises(ValueError):
            FlowNetwork(2, (), 0, 0)
        with pytest.raises(ValueError):
            FlowNetwork(2, (), 0, 5)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            FlowNetwork(2, ((0, 1, -1),), 0, 1)

    def test_huge_capacities_are_exact(self):
        big = 10**40
        net = FlowNetwork(3, ((0, 1, big), (1, 2, big - 3)), 0, 2)
        assert max_flow(net).value == big - 3

"""Max-flow engine: examples, brute-force min-cut agreement, invariants."""

from __future__ import annotations

import itertools
import random

import pytest

from lexflow import FlowNetwork, max_flow


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

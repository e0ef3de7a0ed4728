"""Max-flow engine: examples, brute-force min-cut agreement, invariants."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from lexflow import (
    FlowNetwork,
    balanced_flow,
    build_two_pole,
    max_flow,
    total_integer_capacity,
    verify_certificate,
)
import lexflow.maxflow as maxflow
import lexflow.ratio_search as ratio_search
from conftest import random_problem, random_solvable_problem, reference_max_flow
from test_acceptance import _scale_instance


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
    side = result.min_cut_source_side
    assert net.source in side and net.sink not in side
    assert cut_capacity(net, side) == result.value


def residual_cuts(net: FlowNetwork, flows) -> tuple[frozenset, frozenset]:
    """The nodes the source reaches in the residual network of `flows`, and
    the complement of the nodes that reach the sink: for a maximum flow, the
    inclusion-minimal and inclusion-maximal min cuts."""
    forward = [[] for _ in range(net.num_nodes)]
    backward = [[] for _ in range(net.num_nodes)]
    for flow, (tail, head, capacity) in zip(flows, net.arcs):
        for v, w, residual in ((tail, head, capacity - flow), (head, tail, flow)):
            if residual:
                forward[v].append(w)
                backward[w].append(v)

    def reach(start, edges):
        seen = {start}
        stack = [start]
        while stack:
            for w in edges[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    everyone = frozenset(range(net.num_nodes))
    return frozenset(reach(net.source, forward)), everyone - reach(net.sink, backward)


def assert_same_as_reference(net: FlowNetwork, result) -> None:
    """`result` is an exact maximum flow with the reference's value and
    minimal cut, its residual network leaves both reference cuts, and no
    flow leaves the sink or enters the source."""
    assert_exact(net, result)
    assert not any(
        flow for flow, (tail, head, _) in zip(result.arc_flows, net.arcs)
        if tail == net.sink or head == net.source
    )
    value, minimal, maximal = reference_max_flow(net)
    assert (result.value, result.min_cut_source_side) == (value, minimal)
    assert residual_cuts(net, result.arc_flows) == (minimal, maximal)


def networkx_graph(nx, net: FlowNetwork):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(net.num_nodes))
    for tail, head, capacity in net.arcs:  # networkx merges parallel arcs
        if graph.has_edge(tail, head):
            graph[tail][head]["capacity"] += capacity
        else:
            graph.add_edge(tail, head, capacity=capacity)
    return graph


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
            # the reported cut is a minimum cut
            side = result.min_cut_source_side
            assert net.source in side and net.sink not in side
            assert cut_capacity(net, side) == result.value

    def test_deterministic(self):
        rng = random.Random(503)
        for _ in range(25):
            net = self._random_network(rng)
            assert max_flow(net) == max_flow(net)


class TestCanonicalCuts:
    def test_cuts_are_intersection_and_union_of_all_min_cuts(self):
        # Every maximum flow leaves the same cut, so the solver's witnesses
        # do not depend on which maximum flow the kernel finds. The reference
        # kernel's maximal side, which tests use as a second critical cut,
        # must be the union of all min cuts.
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
            value, minimal, maximal = reference_max_flow(net)
            assert (value, minimal) == (result.value, result.min_cut_source_side)
            assert maximal == frozenset.union(*minimum)
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
            value, minimal, _ = reference_max_flow(net)
            assert (result.value, result.min_cut_source_side) == (value, minimal)


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
        value, minimal, _ = reference_max_flow(net)
        assert (result.value, result.min_cut_source_side) == (value, minimal)


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
            expected = nx.maximum_flow_value(networkx_graph(nx, net), 0, n - 1)
            result = max_flow(net)
            assert expected > 0 and result.value == expected
            side = result.min_cut_source_side
            assert net.source in side and net.sink not in side
            assert cut_capacity(net, side) == expected


class TestGreedyRoutes:
    """The greedy one- and two-arc routes that precede the search trees."""

    # (name, nodes, arcs, value); node 0 is the source, the last the sink.
    CASES = [
        # x receives 9 units and has 12 of sink capacity on four parallel arcs.
        ("parallel_sink_arcs", 4, ((0, 1, 9), (1, 2, 9), (2, 3, 2), (2, 3, 0),
                                   (2, 3, 4), (2, 3, 6)), 9),
        # 3 units go s-u-x-t and 5 on through x-w into w's three sink arcs.
        ("two_arc_route_into_parallel_sink_arcs", 5,
         ((0, 1, 8), (1, 2, 8), (2, 4, 3), (2, 3, 8), (3, 4, 1), (3, 4, 2),
          (3, 4, 4)), 8),
        # Nothing may leave the sink or enter the source.
        ("arcs_out_of_the_sink_and_into_the_source", 4,
         ((0, 1, 5), (1, 2, 5), (2, 3, 3), (3, 2, 4), (3, 0, 2), (2, 0, 6),
          (1, 0, 1), (3, 1, 7)), 3),
        # Source edges whose head is a terminal are left to the searches.
        ("direct_source_to_sink_arc_and_terminal_heads", 4,
         ((0, 3, 5), (0, 0, 4), (0, 1, 2), (1, 2, 7), (2, 3, 7), (3, 3, 1),
          (0, 3, 1)), 8),
        # u1's one-arc route fills x; u2 then reaches u1's own sink arc
        # through x and the reverse residual edge x-u1 that route left.
        ("two_arc_route_through_a_reverse_edge", 5,
         ((0, 1, 5), (1, 3, 5), (3, 4, 5), (1, 4, 5), (0, 2, 5), (2, 3, 5)), 10),
    ]

    @pytest.mark.parametrize(
        "n, arcs, value", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
    )
    def test_edge_cases(self, n, arcs, value):
        net = FlowNetwork(n, arcs, 0, n - 1)
        result = max_flow(net)
        assert result.value == value
        assert_same_as_reference(net, result)

    def test_no_route_back_to_u(self):
        # u-x-u-t would put a useless cycle on u-x and x-u.
        net = FlowNetwork(4, ((0, 1, 4), (1, 2, 4), (2, 1, 4), (1, 3, 4)), 0, 3)
        result = max_flow(net)
        assert result.arc_flows == (4, 0, 0, 4)
        assert_same_as_reference(net, result)

    def test_random_networks_with_arcs_at_the_poles(self):
        # Self loops, parallel arcs and arcs out of the sink and into the
        # source, with several parallel arcs into the sink.
        rng = random.Random(509)
        for _ in range(400):
            n = rng.randint(2, 7)
            arcs = [
                (rng.randrange(n), rng.randrange(n), rng.randint(0, 9))
                for _ in range(rng.randint(1, 14))
            ]
            for v in rng.sample(range(n), rng.randint(1, n)):
                arcs += [(v, n - 1, rng.randint(0, 6))] * rng.randint(1, 3)
            rng.shuffle(arcs)
            net = FlowNetwork(n, tuple(arcs), 0, n - 1)
            assert_same_as_reference(net, max_flow(net))


class TestCriterion8TwoPoles:
    """Two-pole networks as `is_feasible` builds them for the check
    (z = 1) and for a probe just below the best single-node seed."""

    @staticmethod
    def networks():
        rng = random.Random(510)
        problems = [_scale_instance(seed) for seed in (11, 22, 33)]
        problems += [random_problem(rng, max_nodes=12, max_arcs=30) for _ in range(120)]
        for problem in problems:
            yield build_two_pole(problem, Fraction(1)).network
            _, seed = ratio_search._candidate_ratios(problem)
            if seed:
                lam = total_integer_capacity(problem)
                z = seed - Fraction(1, 2 * seed.denominator * lam)
                yield build_two_pole(problem, z).network

    def test_same_value_and_cut_as_the_references(self):
        nx = pytest.importorskip("networkx")
        probed = 0
        for net in self.networks():
            result = max_flow(net)
            assert_same_as_reference(net, result)
            residual = nx.algorithms.flow.edmonds_karp(
                networkx_graph(nx, net), net.source, net.sink
            )
            assert residual.graph["flow_value"] == result.value
            saturated = [
                (v, w) for v, w, data in residual.edges(data=True)
                if data["flow"] == data["capacity"]
            ]
            residual.remove_edges_from(saturated)
            reached = nx.descendants(residual, net.source) | {net.source}
            assert reached == result.min_cut_source_side
            probed += 1
        assert probed > 200


SPENDS_THE_BUDGET = (
    (6, 1, 1), (3, 7, 1104313860), (1, 8, 481066923), (4, 1, 12073143),
    (4, 8, 375459285), (0, 7, 943222495), (1, 8, 1584752530), (0, 4, 1177030549),
    (0, 6, 301741598), (1, 8, 416307995), (1, 4, 1), (0, 1, 785277315),
    (7, 1, 173624745), (0, 1, 418706685), (4, 8, 527910886), (0, 1, 676199197),
    (6, 4, 255626528), (0, 1, 86726988), (6, 8, 129446160), (7, 8, 909879526),
    (4, 3, 480586257),
)


class TestSearchTrees:
    """Search-tree cases that random networks rarely reach."""

    # (name, nodes, arcs, value, source side); node 0 is the source, the
    # last the sink.
    CASES = [
        # The last arc saturates, so 4 and then 3 leave the sink tree, which
        # has no active node left while the source tree is still {0, 1, 2}:
        # the cut must come from the final search, not from the source tree.
        ("sink_tree_stops_first", 6,
         ((0, 1, 10), (1, 2, 10), (2, 3, 10), (3, 4, 10), (4, 5, 1)), 1,
         {0, 1, 2, 3, 4}),
        # The first path saturates the first of each pair of parallel arcs,
        # orphaning 1 and 2. Orphan 2's candidate parents are orphan 1 and
        # its own child 3, so 2 leaves the source tree; only 1, adopted
        # again by the source and re-activated because its second arc still
        # reaches 2, can grow into 2 again.
        ("orphan_leaves_and_reactivates_the_source_tree", 7,
         ((0, 1, 2), (5, 6, 3), (0, 1, 1), (4, 5, 3), (1, 2, 2), (3, 4, 3),
          (1, 2, 1), (2, 3, 3)), 3, {0}),
        # The same chain reversed end to end, for the sink tree.
        ("orphan_leaves_and_reactivates_the_sink_tree", 7,
         ((5, 6, 2), (0, 1, 3), (5, 6, 1), (1, 2, 3), (4, 5, 2), (2, 3, 3),
          (4, 5, 1), (3, 4, 3)), 3, {0}),
        # After the second path, orphans 1 and 2 are each other's only
        # candidate parent, and both must leave: adopting an orphan would
        # close a cycle.
        ("candidate_parent_below_an_orphan", 4,
         ((0, 1, 1), (2, 3, 3), (2, 1, 3), (0, 2, 4), (1, 3, 3)), 5, {0}),
        # Direct arcs, parallel and empty, close a path at the source's
        # first scan; an arc from the sink to the source carries nothing.
        ("direct_source_to_sink_arcs", 4,
         ((0, 3, 5), (0, 1, 4), (3, 0, 2), (0, 3, 0), (1, 2, 3), (2, 3, 9),
          (0, 3, 1)), 9, {0, 1}),
        # Found by a hill climb: the trees spend their budget of one
        # augmentation per arc, and the shortest-path search finishes.
        ("spends_the_tree_budget", 9, SPENDS_THE_BUDGET, 4_095_303_931, {0, 3, 4, 6, 7}),
    ]

    @pytest.mark.parametrize(
        "n, arcs, value, side",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_cases(self, n, arcs, value, side):
        net = FlowNetwork(n, arcs, 0, n - 1)
        result = max_flow(net)
        assert (result.value, result.min_cut_source_side) == (value, side)
        assert_same_as_reference(net, result)

    def test_spent_budget_leaves_flow_to_the_finisher(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        net = FlowNetwork(9, SPENDS_THE_BUDGET, 0, 8)
        assert nx.maximum_flow_value(networkx_graph(nx, net), 0, 8) == 4_095_303_931
        added = []
        search_trees = maxflow._search_trees

        def recorded(*args):
            added.append(search_trees(*args))
            return added[-1]

        monkeypatch.setattr(maxflow, "_search_trees", recorded)
        spent = max_flow(net)
        monkeypatch.setattr(maxflow, "TREE_AUGMENTATIONS_PER_ARC", 2)
        lifted = max_flow(net)
        # The trees leave one unit to the finisher, and take it once they
        # may augment more often.
        assert added == [2_987_695_366, 2_987_695_367]
        assert spent.value == lifted.value == 4_095_303_931
        assert spent.min_cut_source_side == lifted.min_cut_source_side
        assert_same_as_reference(net, lifted)

    def test_arc_flows_are_pinned(self):
        # Four layers of two nodes, each joined to both nodes of the next,
        # with equal capacities: many maximum flows, and every path has five
        # arcs, beyond the greedy routes. The trees pick this one, from any
        # copy of the network.
        arcs = [(0, 1, 2), (0, 2, 2)]
        for a in (1, 3, 5):
            arcs += [(a, a + 2, 2), (a, a + 3, 2), (a + 1, a + 2, 2), (a + 1, a + 3, 2)]
        arcs += [(7, 9, 2), (8, 9, 2)]
        flows = (2, 2, 2, 0, 2, 0, 2, 2, 0, 0, 0, 2, 2, 0, 2, 2)
        for copy in (tuple(arcs), tuple(tuple(arc) for arc in arcs)):
            result = max_flow(FlowNetwork(10, copy, 0, 9))
            assert (result.value, result.arc_flows) == (4, flows)


@pytest.mark.usefixtures("shortest_paths_only")
class TestShortestPathsOnly(
    TestRandomNetworks,
    TestGreedyRoutes,
    TestCriterion8TwoPoles,
    TestNetworkxReference,
    TestDeepNetworks,
):
    """The reference comparisons again with no tree augmentation at all, so
    that the breadth-first search from the source, which finishes any flow
    the trees leave after their budget, finds the whole flow after the
    greedy routes along shortest augmenting paths."""

    # Direct source-sink arcs, arcs from the sink to the source and
    # parallel arcs, through the shortest-path search; the pinned arc flows
    # are the trees' and are not checked here.
    test_search_tree_cases = TestSearchTrees.test_cases

    @pytest.fixture
    def shortest_paths_only(self, monkeypatch):
        monkeypatch.setattr(maxflow, "TREE_AUGMENTATIONS_PER_ARC", 0)


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

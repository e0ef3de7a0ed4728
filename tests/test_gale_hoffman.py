"""Two-pole construction, the capacity identity, and feasibility tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from lexflow import (
    Cut,
    CutStats,
    FlowNetwork,
    InvalidPartition,
    build_two_pole,
    cut_stats,
    has_fatal_cut,
    is_feasible,
    max_flow,
    total_integer_capacity,
    validate_problem,
)
import lexflow.gale_hoffman as gale_hoffman
from conftest import (
    deep_problem,
    disjoint_union,
    enumerate_cuts,
    mixed_rational,
    random_problem,
    single_arc_problem,
    two_pole_has_fatal_cut,
)

F = Fraction


def two_pole_cut_capacity(problem, two_pole, source_nodes: set[str]) -> int:
    """Capacity of the network cut matching (source_nodes, rest) plus s in
    `problem`'s two-pole network."""
    position = problem.node_position
    side = {position[v] for v in source_nodes}
    side.add(two_pole.network.source)
    return sum(
        c for tail, head, c in two_pole.network.arcs
        if tail in side and head not in side
    )


class TestBuildTwoPole:
    def test_single_arc(self):
        p = single_arc_problem()
        tp = build_two_pole(p, F(1))
        assert tp.scale == 1
        # super source 2 -> u, u -> w, w -> super sink 3
        assert set(tp.network.arcs) == {(2, 0, 5), (0, 1, 2), (1, 3, 5)}
        # one producer and one consumer: problem arc k is network arc 2 + k
        assert tp.network.arcs[2] == (0, 1, 2)

    def test_diamond_identity_at_unit_factor(self, d4):
        tp = build_two_pole(d4, F(1))
        assert two_pole_cut_capacity(d4, tp, {"s", "b"}) == 4 + 3 - 4

    def test_diamond_scaling(self, d4):
        tp = build_two_pole(d4, F(4, 3))
        assert tp.scale == 3
        inner = [c for _, _, c in tp.network.arcs[2:]]  # after the two poles
        assert inner == [4, 12, 8, 8]  # (4/3, 4, 8/3, 8/3) times 3

    def test_rejects_nonpositive_factor(self, d4):
        with pytest.raises(ValueError):
            build_two_pole(d4, F(0))

    def test_capacity_identity_randomized(self):
        # scale * (D + z*capacity - deficiency) for every cut and factor.
        rng = random.Random(99)
        for _ in range(20):
            p = random_problem(rng, max_nodes=6, max_arcs=8)
            z = F(rng.randint(1, 9), rng.randint(1, 5))
            tp = build_two_pole(p, z)
            ids = list(p.node_ids)
            for _ in range(10):
                k = rng.randint(1, len(ids) - 1)
                side = set(rng.sample(ids, k))
                stats = cut_stats(p, Cut(frozenset(side)))
                expected = tp.scale * (
                    p.total_supply + z * stats.capacity - stats.deficiency
                )
                assert two_pole_cut_capacity(p, tp, side) == expected


class TestIsFeasible:
    def test_diamond(self, d4):
        assert is_feasible(d4, F(4, 3)).feasible
        report = is_feasible(d4, F(1))
        assert not report.feasible
        assert report.witness_cut.source_side == frozenset({"s", "b"})
        assert report.witness_stats.deficiency == F(4)
        assert report.witness_stats.capacity == F(3)

    def test_single_arc_threshold(self):
        p = single_arc_problem()
        assert is_feasible(p, F(5, 2)).feasible
        report = is_feasible(p, F(2))
        assert not report.feasible
        assert report.witness_cut.source_side == frozenset({"u"})

    def test_zero_balances_feasible_at_any_factor(self):
        p = validate_problem([("u", 0), ("w", 0)], [("uw", "u", "w", 1)])
        assert is_feasible(p, F(1, 100)).feasible

    def test_witness_is_deficient_at_tested_factor(self):
        rng = random.Random(100)
        seen = 0
        for _ in range(60):
            p = random_problem(rng, max_nodes=7, max_arcs=9)
            z = F(rng.randint(1, 4), rng.randint(1, 4))
            report = is_feasible(p, z)
            if not report.feasible:
                seen += 1
                stats = report.witness_stats
                assert stats.deficiency > z * stats.capacity
        assert seen > 5  # the corpus must actually exercise the branch

    def test_agrees_with_cut_census(self):
        rng = random.Random(101)
        for _ in range(80):
            p = random_problem(rng, max_nodes=7, max_arcs=9)
            z = F(rng.randint(1, 4), rng.randint(1, 4))
            census = enumerate_cuts(p)
            expected = all(
                stats.deficiency <= z * stats.capacity
                for _, stats in census.entries
            )
            assert is_feasible(p, z).feasible == expected

    def test_witness_maximizes_scaled_violation(self):
        # The reported cut maximizes deficiency - z*capacity over all cuts.
        rng = random.Random(104)
        seen = 0
        for _ in range(60):
            p = random_problem(rng, max_nodes=7, max_arcs=9)
            z = F(rng.randint(1, 4), rng.randint(1, 4))
            report = is_feasible(p, z)
            if report.feasible:
                continue
            seen += 1
            stats = report.witness_stats
            achieved = stats.deficiency - z * stats.capacity
            best = max(
                s.deficiency - z * s.capacity
                for _, s in enumerate_cuts(p).entries
            )
            assert achieved == best
        assert seen > 5

    def test_monotone_in_z(self):
        rng = random.Random(102)
        for _ in range(40):
            p = random_problem(rng, max_nodes=6, max_arcs=8)
            z = F(rng.randint(1, 6), rng.randint(1, 4))
            if is_feasible(p, z).feasible:
                assert is_feasible(p, z + F(rng.randint(1, 5), 3)).feasible


class TestHasFatalCut:
    def test_reversed_demand(self):
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        report = has_fatal_cut(p)
        assert report.fatal
        assert report.witness_cut.source_side == frozenset({"w"})
        assert report.witness_stats.capacity == 0

    def test_single_arc_fine(self):
        assert not has_fatal_cut(single_arc_problem()).fatal

    def test_isolated_producer(self):
        p = validate_problem(
            [("u", 1), ("v", -1), ("w", 0)], [("vw", "v", "w", 1)]
        )
        report = has_fatal_cut(p)
        assert report.fatal
        assert report.witness_cut.source_side == frozenset({"u"})

    def test_no_arcs_at_all(self):
        p = validate_problem([("u", 1), ("w", -1)], [])
        assert has_fatal_cut(p).fatal

    def test_zero_balances_never_fatal(self):
        p = validate_problem([("u", 0), ("w", 0)], [])
        assert not has_fatal_cut(p).fatal

    def test_agrees_with_cut_census(self):
        rng = random.Random(103)
        fatal_seen = 0
        for _ in range(80):
            p = random_problem(rng, max_nodes=7, max_arcs=7)
            expected = bool(enumerate_cuts(p).fatal_cuts)
            report = has_fatal_cut(p)
            assert report.fatal == expected
            if expected:
                fatal_seen += 1
                assert report.witness_stats.is_fatal
        assert fatal_seen > 5

    def test_same_report_as_the_two_pole_test(self):
        # Unions of random parts have several SCCs each, closed ones and not.
        rng = random.Random(108)
        verdicts = set()
        for k in range(300):
            if k % 2:
                parts = rng.randint(2, 4)
                p = disjoint_union(
                    [random_problem(rng, max_nodes=5, max_arcs=7) for _ in range(parts)]
                )
            else:
                p = random_problem(rng, max_nodes=9, max_arcs=14)
            report = has_fatal_cut(p)
            assert report == two_pole_has_fatal_cut(p)
            verdicts.add(report.fatal)
        assert verdicts == {True, False}

    def test_long_path_does_not_recurse(self):
        n = 20_000
        balances = [0] * n
        balances[0], balances[-1] = -1, 1
        p = validate_problem(
            [(f"v{i}", d) for i, d in enumerate(balances)],
            [(f"e{i}", f"v{i}", f"v{i + 1}", 1) for i in range(n - 1)],
        )
        report = has_fatal_cut(p)
        assert report.fatal
        assert report.witness_cut.source_side == frozenset({f"v{n - 1}"})

    def test_long_cycle_needs_no_max_flow(self, monkeypatch):
        n = 20_000
        calls = []

        def counting(network):
            calls.append(network)
            return max_flow(network)

        monkeypatch.setattr(gale_hoffman, "max_flow", counting)
        balances = [0] * n
        balances[0], balances[-1] = 1, -1
        p = validate_problem(
            [(f"v{i}", d) for i, d in enumerate(balances)],
            [(f"e{i}", f"v{i}", f"v{(i + 1) % n}", 1) for i in range(n)],
        )
        assert not has_fatal_cut(p).fatal
        assert calls == []


class TestTotalIntegerCapacity:
    def test_diamond(self, d4):
        assert total_integer_capacity(d4) == 8  # integral already: 1+3+2+2

    def test_scales_by_common_denominator(self):
        p = validate_problem(
            [("u", F(1, 6)), ("w", F(-1, 6))],
            [("uw", "u", "w", F(3, 4))],
        )
        # lcm(4, 6, 6) = 12, capacity total 3/4 -> 9
        assert total_integer_capacity(p) == 9

    def test_arcless_floor(self):
        p = validate_problem([("u", 0), ("w", 0)], [])
        assert total_integer_capacity(p) == 1


# The Fraction-based kernel the integer view replaced: every probe multiplies
# each capacity by z and takes the lcm of all denominators. It is the
# reference the integer kernel must reproduce up to a uniform rescale.


def _reference_build_two_pole(problem, z):
    n = len(problem.node_ids)
    s, t = n, n + 1
    position = problem.node_position
    ends, caps = [], []
    for v in problem.node_ids:
        d = problem.balances[v]
        if d > 0:
            ends.append((s, position[v]))
            caps.append(d)
        elif d < 0:
            ends.append((position[v], t))
            caps.append(-d)
    for arc in problem.arcs:
        ends.append((position[arc.tail], position[arc.head]))
        caps.append(z * arc.capacity)
    scale = math.lcm(*(c.denominator for c in caps)) if caps else 1
    arcs = tuple((tail, head, int(c * scale)) for (tail, head), c in zip(ends, caps))
    return FlowNetwork(n + 2, arcs, s, t), scale


def _reference_witness(problem, z):
    """Source side of the Fraction kernel's witness cut, or None if feasible."""
    network, scale = _reference_build_two_pole(problem, z)
    result = max_flow(network)
    if result.value == problem.total_supply * scale:
        return None
    n = len(problem.node_ids)
    return frozenset(problem.node_ids[i] for i in result.min_cut_source_side if i < n)


def _reference_cut_stats(problem, cut):
    """Stats from `Fraction`s, with the sink side taken as the complement of
    the source side and the bipartition checked by set algebra."""
    nodes = frozenset(problem.node_ids)
    sink_side = nodes - cut.source_side
    if (
        not cut.source_side
        or not sink_side
        or cut.source_side & sink_side
        or cut.source_side | sink_side != nodes
    ):
        raise InvalidPartition("cut is not a proper bipartition of the nodes")
    deficiency = sum((problem.balances[v] for v in cut.source_side), F(0))
    capacity = F(0)
    for arc in problem.arcs:
        if arc.tail in cut.source_side and arc.head in sink_side:
            capacity += arc.capacity
    return CutStats(deficiency, capacity)


def _reference_total_integer_capacity(problem):
    denominators = [a.capacity.denominator for a in problem.arcs]
    denominators += [d.denominator for d in problem.balances.values()]
    scale = math.lcm(*denominators) if denominators else 1
    return max(int(sum((a.capacity for a in problem.arcs), F(0)) * scale), 1)


class TestAgainstFractionKernel:
    def cases(self, seed):
        """(rng, problem, z) triples, a third of them on small denominators."""
        rng = random.Random(seed)
        for k in range(60):
            if k % 3:
                p = deep_problem(rng)
            else:
                p = random_problem(rng, max_nodes=8, max_arcs=12)
            for _ in range(4):
                yield rng, p, mixed_rational(rng)

    def test_network_is_an_integer_multiple(self):
        for _, p, z in self.cases(105):
            tp = build_two_pole(p, z)
            network, scale = _reference_build_two_pole(p, z)
            assert tp.scale % scale == 0
            factor = tp.scale // scale
            assert tp.network.arcs == tuple(
                (tail, head, factor * c) for tail, head, c in network.arcs
            )
            assert (tp.network.num_nodes, tp.network.source, tp.network.sink) == (
                network.num_nodes, network.source, network.sink,
            )
            assert total_integer_capacity(p) == _reference_total_integer_capacity(p)

    def test_same_verdict_and_witness(self):
        verdicts = set()
        for _, p, z in self.cases(106):
            report = is_feasible(p, z)
            expected = _reference_witness(p, z)
            verdicts.add(report.feasible)
            if expected is None:
                assert report.feasible
            else:
                assert not report.feasible
                assert report.witness_cut.source_side == expected
        assert verdicts == {True, False}

    def test_cut_stats_equal(self):
        for rng, p, _ in self.cases(107):
            ids = list(p.node_ids)
            for _ in range(3):
                side = rng.sample(ids, rng.randint(1, len(ids) - 1))
                cut = Cut(frozenset(side))
                assert cut_stats(p, cut) == _reference_cut_stats(p, cut)

    def test_partition_check_equals_the_set_algebra(self):
        # Source sides of any size, some with an id the problem lacks.
        verdicts = {"valid": 0, "invalid": 0}
        for rng, p, _ in self.cases(108):
            ids = list(p.node_ids)
            for _ in range(4):
                side = set(rng.sample(ids, rng.choice([0, 1, len(ids) - 1, len(ids)])))
                if rng.random() < 0.3:
                    side.add(rng.choice(["zz", "n99", ""]))
                cut = Cut(frozenset(side))
                try:
                    expected = _reference_cut_stats(p, cut)
                except InvalidPartition:
                    verdicts["invalid"] += 1
                    with pytest.raises(InvalidPartition):
                        cut_stats(p, cut)
                else:
                    verdicts["valid"] += 1
                    assert cut_stats(p, cut) == expected
        assert min(verdicts.values()) >= 100, verdicts

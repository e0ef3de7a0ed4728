"""Minmax ratio: Newton and bisection modes, traces, exact reconstruction."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lexflow
import lexflow.balancer as balancer
import lexflow.gale_hoffman as gale_hoffman
import lexflow.ratio_search as ratio_search
from lexflow import (
    Cut,
    FatalCutPresent,
    Problem,
    RatioResult,
    SearchStep,
    balanced_flow,
    cut_stats,
    has_fatal_cut,
    is_feasible,
    minmax_ratio,
    minmax_ratio_dichotomy,
    oracle_lexmin,
    total_integer_capacity,
    validate_problem,
    verify_certificate,
)
from lexflow.cli import solution_document
from conftest import (
    deep_problem,
    disjoint_union,
    enumerate_cuts,
    grid_problem,
    probe_below,
    random_problem,
    random_solvable_problem,
    single_arc_problem,
    sink_side_is_feasible,
    whole_stage_balanced_flow,
    whole_stage_search,
)
from test_acceptance import _scale_instance

F = Fraction


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run `script` under `python -O` against this checkout's lexflow."""
    src = str(Path(lexflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestMinmaxRatio:
    def test_single_arc(self):
        result = minmax_ratio(single_arc_problem())
        assert result.r0 == F(5, 2)
        assert result.critical_cut.source_side == frozenset({"u"})

    def test_diamond(self, d4):
        result = minmax_ratio(d4)
        assert result.r0 == F(4, 3)
        assert result.critical_cut.source_side == frozenset({"s", "b"})

    def test_zero_balances(self):
        p = validate_problem([("u", 0), ("w", 0)], [("uw", "u", "w", 3)])
        result = minmax_ratio(p)
        assert result.r0 == 0 and result.critical_cut is None
        assert result.steps == ()

    def test_fatal_cut_raises(self, monkeypatch):
        # The producer cut {w} has no forward capacity: raised with no probe.
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        probes = count_probes(monkeypatch)
        with pytest.raises(FatalCutPresent) as info:
            minmax_ratio(p)
        assert info.value.witness.source_side == frozenset({"w"})
        assert probes[0] == 0

    def test_fatal_witness_of_a_probe_raises(self, monkeypatch):
        # The producer cut {u, x} has ratio 3; the probe at 3 returns the
        # fatal cut {x} as its witness.
        p = validate_problem([("u", 2), ("x", 1), ("w", -3)], [("uw", "u", "w", 1)])
        probes = count_probes(monkeypatch)
        with pytest.raises(FatalCutPresent) as info:
            minmax_ratio(p)
        assert info.value.witness.source_side == frozenset({"x"})
        assert probes[0] == 1

    def test_trace_strictly_increases(self):
        rng = random.Random(301)
        for _ in range(60):
            p = random_problem(rng, max_nodes=8, max_arcs=10)
            try:
                result = minmax_ratio(p)
            except FatalCutPresent:
                continue
            zs = [step.z for step in result.steps]
            assert all(a < b for a, b in zip(zs, zs[1:]))
            for step in result.steps:
                assert step.ratio > step.z
                assert cut_stats(p, step.cut).ratio == step.ratio

    def test_critical_cut_attains_r0(self):
        rng = random.Random(302)
        for _ in range(60):
            p = random_problem(rng, max_nodes=8, max_arcs=10)
            try:
                result = minmax_ratio(p)
            except FatalCutPresent:
                continue
            if result.critical_cut is not None:
                assert cut_stats(p, result.critical_cut).ratio == result.r0


class TestFatalCutInTheSearch:
    """The Newton search is the fatal check: `has_fatal_cut`'s verdict and
    witness, with no max-flow of its own."""

    def test_same_verdict_and_witness_as_has_fatal_cut(self, monkeypatch):
        rng = random.Random(318)
        probes = count_probes(monkeypatch)
        searches = [
            minmax_ratio,
            balanced_flow,
            lambda p: balanced_flow(p, mode="dichotomy"),
        ]
        at_once = by_witness = 0
        for _ in range(300):
            p = random_problem(rng)
            report = has_fatal_cut(p)
            for search in searches:
                before = probes[0]
                if not report.fatal:
                    search(p)
                    continue
                with pytest.raises(FatalCutPresent) as info:
                    search(p)
                assert info.value.witness == report.witness_cut
                if search is minmax_ratio:
                    at_once += probes[0] == before
                    by_witness += probes[0] > before
        assert at_once > 20 and by_witness > 20

    def test_no_fatal_probe_on_a_criterion_8_instance(self, monkeypatch):
        flows = [0]
        max_flow = gale_hoffman.max_flow

        def counted(network):
            flows[0] += 1
            return max_flow(network)

        fatal_checks = [0]
        check = gale_hoffman.has_fatal_cut

        def checked(problem):
            fatal_checks[0] += 1
            return check(problem)

        monkeypatch.setattr(gale_hoffman, "max_flow", counted)
        for module in (balancer, ratio_search):
            monkeypatch.setattr(module, "has_fatal_cut", checked)
        # Seed 11 ends at the probe below its node seed, seed 4 at a
        # feasible probe.
        ended_below = []
        for seed in (11, 4):
            p = _scale_instance(seed)
            before = flows[0]
            result = minmax_ratio(p)
            lam = total_integer_capacity(p)
            below = result.r0 - F(1, 2 * result.r0.denominator * lam)
            ended_below.append(result.steps[-1].z == below)
            assert flows[0] - before == len(result.steps) + (not ended_below[-1])
            balanced_flow(p)
        assert ended_below == [True, False]
        assert fatal_checks == [0]

    def test_fatal_cut_found_from_a_node_seed(self, monkeypatch):
        # The node seed {u1} (ratio 5) beats the producer cut {u1, u2, x}
        # (7/11); the probe below 5 returns {u1, x} at 6, and the probe at 6
        # the fatal cut {x}.
        p = validate_problem(
            [("u1", 5), ("w1", -5), ("u2", 1), ("w2", -2), ("x", 1)],
            [("a1", "u1", "w1", 1), ("a2", "u2", "w2", 10)],
        )
        probes = count_probes(monkeypatch)
        with pytest.raises(FatalCutPresent) as info:
            minmax_ratio(p)
        assert info.value.witness == has_fatal_cut(p).witness_cut
        assert info.value.witness.source_side == frozenset({"x"})
        assert probes[0] == 2

        rng = random.Random(319)
        checked = 0
        for _ in range(400):
            p = random_problem(rng, max_nodes=8, max_arcs=10)
            report = has_fatal_cut(p)
            if not report.fatal:
                continue
            producer, node = seed_ratios(p)
            if producer is None or node <= producer:
                continue
            with pytest.raises(FatalCutPresent) as info:
                minmax_ratio(p)
            assert info.value.witness == report.witness_cut
            checked += 1
        assert checked > 20


def _reference_minmax_ratio(problem, previous=None):
    """Newton seeded with the producer cut alone, for solvable problems.

    The search before seeding from single-node cuts and before the
    per-block search; it ignores `previous`, the last stage's result that
    `conftest.whole_stage_balanced_flow` passes. It probes through
    `ratio_search.is_feasible`, so a patch there counts its probes too.
    """
    if problem.total_supply == 0:
        return RatioResult(F(0), None, ())
    producers = [v for v in problem.node_ids if problem.balances[v] > 0]
    cut = Cut(frozenset(producers))
    z = cut_stats(problem, cut).ratio
    steps = []
    while True:
        report = ratio_search.is_feasible(problem, z)
        if report.feasible:
            return RatioResult(z, cut, tuple(steps))
        cut, ratio = report.witness_cut, report.witness_stats.ratio
        assert ratio > z
        steps.append(SearchStep(z, cut, ratio))
        z = ratio


def seed_ratios(problem: Problem) -> tuple[Fraction | None, Fraction]:
    """The producer cut's ratio and the largest single-node cut ratio (0 if
    no single-node cut has capacity), rated with `cut_stats`."""
    nodes = frozenset(problem.node_ids)
    producers = frozenset(v for v in nodes if problem.balances[v] > 0)
    singles = [frozenset({v}) for v in producers]
    singles += [nodes - {v} for v in nodes if problem.balances[v] < 0]
    ratios = [cut_stats(problem, Cut(side)).ratio for side in singles]
    return cut_stats(problem, Cut(producers)).ratio, max(filter(None, ratios), default=F(0))


def count_probes(monkeypatch, within: frozenset[str] | None = None) -> list[int]:
    """Count the Newton search's feasibility probes from here on, or only
    the probes of problems that have a node in `within`."""
    probes = [0]
    probe = ratio_search.is_feasible

    def counted(problem, *args, **kwargs):
        if within is None or not within.isdisjoint(problem.node_ids):
            probes[0] += 1
        return probe(problem, *args, **kwargs)

    monkeypatch.setattr(ratio_search, "is_feasible", counted)
    return probes


@pytest.fixture(params=["source", "sink"])
def side(request, monkeypatch):
    """Which min cut every `ratio_search` probe returns: the library's
    inclusion-minimal one, or the reference kernel's maximal one. A seed
    must not change the critical cut under either rule."""
    if request.param == "sink":
        monkeypatch.setattr(ratio_search, "is_feasible", sink_side_is_feasible)
    return request.param


class TestSeeding:
    """Seeds from single-node cuts change nothing but cost."""

    def unions(self, seed: int, count: int):
        rng = random.Random(seed)
        for _ in range(count):
            parts = [random_solvable_problem(rng) for _ in range(rng.randint(2, 4))]
            yield disjoint_union(parts)

    def test_same_ratio_and_cut_as_producer_seeding(self, side):
        for p in self.unions(311, 150):
            seeded = minmax_ratio(p)
            reference = _reference_minmax_ratio(p)
            assert seeded.r0 == reference.r0
            assert seeded.critical_cut == reference.critical_cut

    def test_same_documents_as_producer_seeding(self):
        # Unions of components and 6 x 6 grids split into several blocks
        # after their first levels; the per-block search must give the same
        # bytes as one producer-seeded search of each whole stage.
        rng = random.Random(314)
        grids = [grid_problem(rng, 6) for _ in range(6)]
        for p in [*self.unions(312, 80), *grids]:
            solution = balanced_flow(p)
            seeded = json.dumps(solution_document(p, solution), indent=2)
            reference = solution_document(p, whole_stage_balanced_flow(p, _reference_minmax_ratio))
            assert seeded == json.dumps(reference, indent=2)
            assert verify_certificate(p, solution).accepted
            if len(p.arcs) <= 9:
                assert oracle_lexmin(p).values == solution.flow.values

    @pytest.mark.parametrize("seed", [315, 316])
    def test_critical_producer_cut_is_the_canonical_cut(self, seed):
        # The per-block search unions the blocks' cuts as they come, also a
        # producer cut a block stopped at with no step; that is sound because
        # a critical producer cut is the minimal min cut just below r0.
        rng = random.Random(seed)
        checked = 0
        for _ in range(300):
            p = random_solvable_problem(rng, max_nodes=6, max_arcs=8)
            result = minmax_ratio(p)
            if result.critical_cut is None or result.steps:
                continue
            producers = {v for v in p.node_ids if p.balances[v] > 0}
            assert result.critical_cut.source_side == producers
            probed = probe_below(p, result.r0)
            assert probed.witness_cut == result.critical_cut
            checked += 1
        assert checked > 20

    def test_untied_block_is_reused_without_probes(self, monkeypatch):
        # Level 1 at 9 cuts {p1, q} off {t, r, s}, found with one probe
        # below the node seed V - {t} at 9. Stage 2 searches both sides,
        # {t, r, s} with one probe (its ratio 1/2 is below 1), and level 2
        # cuts {p1} at 1. Stage 3 reuses the result of {t, r, s}, and level 3
        # is its cut {r} at 1/2, with no probe.
        p = validate_problem(
            [("p1", 10), ("q", -1), ("t", -9), ("r", 1), ("s", -1)],
            [
                ("a", "p1", "q", 1), ("b", "p1", "t", 1), ("c", "t", "r", 1),
                ("d", "r", "s", 2),
            ],
        )
        probes = count_probes(monkeypatch, within=frozenset({"r", "s"}))
        per_stage = []
        search = balancer.minmax_ratio

        def recorded(*args, **kwargs):
            before = probes[0]
            result = search(*args, **kwargs)
            per_stage.append(probes[0] - before)
            return result

        monkeypatch.setattr(balancer, "minmax_ratio", recorded)
        solution = balanced_flow(p)
        assert [level.ratio for level in solution.certificate.levels] == [9, 1, F(1, 2)]
        assert solution.certificate.levels[2].cut.source_side == frozenset({"r"})
        assert per_stage == [1, 1, 0]

    @pytest.mark.parametrize(
        "d1,c1,d2,c2,r0,below",
        [
            # The producer cut {u1, u2} has ratio 6/11, the node cut {u1}
            # ratio 5 = r0: feasible at once, so one probe at 5 - 1/(2·1·11).
            (5, 1, 1, 10, F(5), 5 - F(1, 22)),
            # r0 = 11/19 and g's last breakpoint 4/7 lie 1/133 apart, less
            # than 1/(2λ) = 1/52; the probe has to be 1/(2·19·26) below.
            (11, 19, 4, 7, F(11, 19), F(11, 19) - F(1, 988)),
        ],
        ids=["seed-is-r0", "narrow-last-piece"],
    )
    def test_feasible_seed_probes_once_below_the_ratio(self, d1, c1, d2, c2, r0, below):
        p = validate_problem(
            [("u1", d1), ("w1", -d1), ("u2", d2), ("w2", -d2)],
            [("a1", "u1", "w1", c1), ("a2", "u2", "w2", c2)],
        )
        result = minmax_ratio(p)
        assert result.r0 == r0
        assert result.critical_cut.source_side == frozenset({"u1"})
        assert result.steps == (SearchStep(below, result.critical_cut, r0),)

    def test_critical_cut_is_a_consumer_complement(self, side):
        # The producer cut {u} has ratio 7/11; V - {w} has 6/1 = r0, found
        # without a max-flow, so the one probe is at 6 - 1/(2·1·11).
        p = validate_problem(
            [("u", 7), ("w", -6), ("w2", -1)],
            [("uw", "u", "w", 1), ("uw2", "u", "w2", 10)],
        )
        result = minmax_ratio(p)
        assert result.r0 == 6
        assert result.critical_cut.source_side == frozenset({"u", "w2"})
        assert result.steps == (SearchStep(6 - F(1, 22), result.critical_cut, F(6)),)

    def test_probe_below_a_node_seed_finds_the_larger_critical_cut(self, side):
        # {u1} and {u2} each have ratio 5 = r0, but {u1, u2} has ratio 5 with
        # twice the capacity, so it alone is a min cut just below r0.
        p = validate_problem(
            [("u1", 5), ("u2", 5), ("u3", 1), ("w", -11)],
            [("a1", "u1", "w", 1), ("a2", "u2", "w", 1), ("a3", "u3", "w", 10)],
        )
        result = minmax_ratio(p)
        assert result.r0 == 5
        assert result.critical_cut.source_side == frozenset({"u1", "u2"})
        assert result.steps == (SearchStep(5 - F(1, 24), result.critical_cut, F(5)),)
        reference = _reference_minmax_ratio(p)
        assert result.critical_cut == reference.critical_cut

    def test_single_node_critical_cut_costs_one_probe(self, monkeypatch):
        # Producer ratios 1, 1/2 and 1/4: Newton from the producer cut (3/7)
        # climbs 3/7 -> 2/3 -> 1 in three probes; the node seed {u0} is r0,
        # so the one probe just below it returns {u0} at r0.
        p = validate_problem(
            [("u0", 1), ("u1", 1), ("u2", 1), ("w", -3)],
            [("a0", "u0", "w", 1), ("a1", "u1", "w", 2), ("a2", "u2", "w", 4)],
        )
        probes = count_probes(monkeypatch)
        result = minmax_ratio(p)
        assert probes[0] == 1
        reference = _reference_minmax_ratio(p)
        assert probes[0] == 1 + 3
        assert result.r0 == reference.r0
        assert result.critical_cut == reference.critical_cut
        assert result.critical_cut.source_side == frozenset({"u0"})

    @pytest.mark.parametrize("make", [random_problem, deep_problem])
    def test_node_seed_at_r0_costs_one_max_flow(self, make, monkeypatch):
        # Same ratio and cut as the bisection, and one max-flow in all when
        # a single-node cut beats the producer cut and is critical.
        flows = [0]
        max_flow = gale_hoffman.max_flow

        def counted(network):
            flows[0] += 1
            return max_flow(network)

        monkeypatch.setattr(gale_hoffman, "max_flow", counted)
        rng = random.Random(317)
        compared = at_r0 = 0
        while compared < 200:
            p = make(rng)
            if p.total_supply == 0 or has_fatal_cut(p).fatal:
                continue
            before = flows[0]
            result = minmax_ratio(p)
            cost = flows[0] - before
            bisect = minmax_ratio_dichotomy(p)
            assert (result.r0, result.critical_cut) == (bisect.r0, bisect.critical_cut)
            compared += 1
            producer, node = seed_ratios(p)
            if node > producer and node == result.r0:
                assert cost == 1
                at_r0 += 1
        assert at_r0 > 30

    def test_fewer_probes_on_a_grid(self, monkeypatch):
        p = grid_problem(random.Random(313), 6)
        probes = count_probes(monkeypatch)
        seeded = balanced_flow(p)
        seeded_probes = probes[0]
        reference = whole_stage_balanced_flow(p, _reference_minmax_ratio)
        assert seeded == reference
        assert 0 < seeded_probes < probes[0] - seeded_probes


class TestBlocks:
    """Every stage's blocks are disjoint closed node sets of the whole stage
    with some nonzero balance, each the stage restricted to them, in
    ascending order of ratio; an untied block carries over as it is."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_blocks_partition_the_stage_into_closed_sets(self, rng, union):
        if union:
            parts = [random_problem(rng, max_nodes=5, max_arcs=7) for _ in range(3)]
            p = disjoint_union(parts[: rng.randint(2, 3)])
        else:
            p = random_problem(rng)
        results, stages = [], []
        search = balancer.minmax_ratio

        def recorded(problem, **kwargs):
            results.append(search(problem, **kwargs))
            return results[-1]

        def whole(stage, previous):
            stages.append(stage)
            return whole_stage_search(stage, previous)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(balancer, "minmax_ratio", recorded)
            try:
                balanced_flow(p)
            except FatalCutPresent:
                return
        whole_stage_balanced_flow(p, whole)
        assert len(results) == len(stages)
        for result, stage, after in zip(results, stages, results[1:] + [None]):
            ratios = [b.result.r0 for b in result.blocks]
            assert ratios == sorted(ratios) and ratios[-1] == result.r0
            owner: dict[str, int] = {}
            for k, block in enumerate(result.blocks):
                q = block.problem
                assert not owner.keys() & set(q.node_ids)
                owner.update(dict.fromkeys(q.node_ids, k))
                assert q.node_ids == stage.ordered_nodes(q.node_ids)
                assert q.balances == {v: stage.balances[v] for v in q.node_ids}
                assert q.arc_ids == tuple(p.arc_ids[j] for j in block.arcs)
                assert list(block.arcs) == sorted(block.arcs)
                assert any(q.balances.values())
                if after is not None and block.result.r0 != result.r0:
                    assert any(block is b for b in after.blocks)
            # The stage's arcs between block nodes are the blocks' arcs.
            inner = [a for a in stage.arcs if a.tail in owner or a.head in owner]
            assert all(owner.get(a.tail) == owner.get(a.head) for a in inner)
            assert sorted(a.arc_id for a in inner) == sorted(
                a for b in result.blocks for a in b.problem.arc_ids
            )

    def test_block_result_is_its_own_search(self, monkeypatch):
        # A block's search depends on the block alone: at every stage, each
        # block's result is the one-shot search of its problem, probes too.
        rng = random.Random(7)
        results = []
        search = balancer.minmax_ratio

        def recorded(problem, **kwargs):
            results.append(search(problem, **kwargs))
            return results[-1]

        monkeypatch.setattr(balancer, "minmax_ratio", recorded)
        for _ in range(6):
            balanced_flow(grid_problem(rng, 6))
        blocks = [block for result in results for block in result.blocks]
        assert len(blocks) > 500
        for block in blocks:
            assert block.result == minmax_ratio(block.problem)


class TestDichotomy:
    def test_diamond_matches(self, d4):
        result = minmax_ratio_dichotomy(d4)
        assert result.r0 == F(4, 3)
        assert result.critical_cut.source_side == frozenset({"s", "b"})

    def test_small_ratio(self):
        p = validate_problem([("u", 1), ("w", -1)], [("uw", "u", "w", 3)])
        assert minmax_ratio_dichotomy(p).r0 == F(1, 3)

    def test_zero_balances(self):
        p = validate_problem([("u", 0), ("w", 0)], [("uw", "u", "w", 3)])
        assert minmax_ratio_dichotomy(p).r0 == 0

    def test_modes_agree(self):
        rng = random.Random(303)
        for _ in range(50):
            p = random_problem(rng, max_nodes=7, max_arcs=9)
            try:
                newton = minmax_ratio(p)
            except FatalCutPresent:
                with pytest.raises(FatalCutPresent):
                    minmax_ratio_dichotomy(p)
                continue
            bisect = minmax_ratio_dichotomy(p)
            assert newton.r0 == bisect.r0
            if bisect.critical_cut is not None:
                assert cut_stats(p, bisect.critical_cut).ratio == bisect.r0
            zs = [step.z for step in bisect.steps]
            assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_matches_census_max(self):
        rng = random.Random(304)
        for _ in range(40):
            p = random_problem(rng, max_nodes=6, max_arcs=8)
            census = enumerate_cuts(p)
            if census.fatal_cuts:
                continue
            assert minmax_ratio_dichotomy(p).r0 == census.max_ratio


class TestFeasibilityFlipsAtR0:
    def test_threshold_is_exact(self):
        rng = random.Random(305)
        for _ in range(40):
            p = random_problem(rng, max_nodes=7, max_arcs=9)
            try:
                r0 = minmax_ratio(p).r0
            except FatalCutPresent:
                continue
            if r0 == 0:
                continue
            lam = total_integer_capacity(p)
            delta = F(1, 2 * lam * lam)
            assert is_feasible(p, r0).feasible
            assert not is_feasible(p, r0 * (1 - delta)).feasible
            assert is_feasible(p, r0 * (1 + delta)).feasible


@st.composite
def solvable_problems(draw) -> Problem:
    """Small weakly solvable instances: balances come from a nonnegative flow."""
    n = draw(st.integers(2, 5))
    ids = [f"n{i}" for i in range(n)]
    balances = {v: F(0) for v in ids}
    arcs = []
    for j in range(draw(st.integers(1, 7))):
        tail = draw(st.integers(0, n - 1))
        head = (tail + draw(st.integers(1, n - 1))) % n
        capacity = F(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
        carried = F(draw(st.integers(0, 12)), draw(st.integers(1, 6)))
        balances[ids[tail]] += carried
        balances[ids[head]] -= carried
        arcs.append((f"e{j}", ids[tail], ids[head], capacity))
    return validate_problem([(v, balances[v]) for v in ids], arcs)


class TestReconstruction:
    def test_deep_continued_fraction(self):
        # F(k+1)/F(k) = [1; 1, ..., 1] has 3100 continued-fraction terms, far
        # more than the interpreter's default recursion limit. The reverse
        # arc makes the minimum capacity 1, so the bracket does not start at
        # r0 and the reconstruction has to find it.
        a, b = 1, 1
        for _ in range(3100):
            a, b = a + b, a
        p = validate_problem(
            [("u", a), ("w", -a)],
            [("uw", "u", "w", b), ("wu", "w", "u", 1)],
        )
        result = minmax_ratio_dichotomy(p)
        assert result.r0 == F(a, b)
        assert result.critical_cut.source_side == frozenset({"u"})

    SCRIPT = """
import sys
from fractions import Fraction
from lexflow import Cut, FeasibilityReport, InvariantViolation, cut_stats
from lexflow import validate_problem
import lexflow.ratio_search as rs

if __debug__:
    sys.exit("asserts are on")
problem = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
cut = Cut(frozenset(["u"]))

def lying(p, z):
    # Flips at 7/3, whose denominator exceeds the total capacity 2.
    if z >= Fraction(7, 3):
        return FeasibilityReport(True)
    return FeasibilityReport(False, cut, cut_stats(p, cut))

rs.is_feasible = lying
try:
    rs.minmax_ratio_dichotomy(problem)
except InvariantViolation as exc:
    print(f"raised: {exc}")
"""

    def test_impossible_threshold_raises_under_python_O(self):
        done = run_optimized(self.SCRIPT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: rational reconstruction left the bracket\n"


class TestAgainstCensusProperty:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(solvable_problems())
    def test_modes_census_and_verifier_agree(self, p):
        newton = minmax_ratio(p)
        assert newton.r0 == minmax_ratio_dichotomy(p).r0 == enumerate_cuts(p).max_ratio
        solution = balanced_flow(p)
        assert balanced_flow(p, mode="dichotomy").flow == solution.flow
        assert verify_certificate(p, solution).accepted


class TestInvariantsUnderOptimize:
    # A feasibility oracle whose witness never beats the probe: the Newton
    # search must stop with InvariantViolation, also when asserts are off.
    SCRIPT = """
import sys
from lexflow import Cut, FeasibilityReport, InvariantViolation, cut_stats
from lexflow import validate_problem
import lexflow.ratio_search as rs

if __debug__:
    sys.exit("asserts are on")
problem = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
cut = Cut(frozenset(["u"]))

def stuck(p, z):
    return FeasibilityReport(False, cut, cut_stats(p, cut))

rs.is_feasible = stuck
try:
    rs.minmax_ratio(problem)
except InvariantViolation as exc:
    print(f"raised: {exc}")
"""

    def test_witness_must_beat_the_probe_under_python_O(self):
        done = run_optimized(self.SCRIPT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: witness must beat the probe\n"

    # A feasibility oracle that answers the probe below the node seed r0 = 5
    # with the producer cut, whose ratio 6/11 is below the seed.
    BELOW_SCRIPT = """
import sys
from fractions import Fraction
from lexflow import Cut, FeasibilityReport, InvariantViolation, cut_stats
from lexflow import validate_problem
import lexflow.ratio_search as rs

if __debug__:
    sys.exit("asserts are on")
problem = validate_problem(
    [("u1", 5), ("w1", -5), ("u2", 1), ("w2", -1)],
    [("a1", "u1", "w1", 1), ("a2", "u2", "w2", 10)],
)
cut = Cut(frozenset(["u1", "u2"]))

def lying(p, z):
    if z >= 5:
        return FeasibilityReport(True)
    return FeasibilityReport(False, cut, cut_stats(p, cut))

rs.is_feasible = lying
try:
    rs.minmax_ratio(problem)
except InvariantViolation as exc:
    print(f"raised: {exc}")
"""

    def test_probe_below_a_feasible_seed_checked_under_python_O(self):
        done = run_optimized(self.BELOW_SCRIPT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: witness ratio below the seed\n"

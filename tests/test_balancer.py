"""Balanced-flow driver: reduction, goldens, verification, invariances."""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from lexflow import (
    BalancedSolution,
    Certificate,
    Cut,
    EmptyCutArcSet,
    FatalCutPresent,
    Flow,
    InvariantViolation,
    IterationCapExceeded,
    Level,
    MonotonicityViolation,
    NotCritical,
    Problem,
    RatioResult,
    VerificationResult,
    balanced_flow,
    cut_stats,
    minmax_ratio,
    node_balance_residual,
    oracle_lexmin,
    reduce_problem,
    validate_problem,
    verify_certificate,
)
import conftest
import lexflow.balancer as balancer
import lexflow.ratio_search as ratio_search
from lexflow.cli import solution_document
from lexflow.ratio_search import Block, Stage
from conftest import (
    deep_problem,
    diamond_problem,
    disjoint_union,
    enumerate_cuts,
    forward_arcs,
    grid_problem,
    labelled_verify,
    lexmin_flaw,
    random_problem,
    random_rational,
    random_solvable_problem,
    reference_stage,
    reverse_arcs,
    single_arc_problem,
    sink_side_is_feasible,
    sorted_utilizations,
    sparse_problem,
    two_cycle_problem,
    weak_components,
    whole_stage_balanced_flow,
    whole_stage_dichotomy,
    whole_stage_search,
    whole_stage_verify,
)

F = Fraction


def reduce_whole(problem: Problem, cut: Cut, ratio: F):
    """`reduce_problem` on a stage of one block, `problem`, whose search
    claims `cut` at `ratio`."""
    found = RatioResult(ratio, cut, ())
    block = Block(problem, range(len(problem.arc_ids)), found)
    return reduce_problem(RatioResult(ratio, cut, (), (block,)))


class TestReduceProblem:
    def test_diamond_first_level(self, d4):
        cut = Cut(frozenset(["s", "b"]))
        stage, level = reduce_whole(d4, cut, F(4, 3))
        assert dict(level.fixed_forward) == {"sa": F(4, 3), "bt": F(8, 3)}
        assert level.zeroed_reverse == ()
        # {s, b} and {a, t} are left to search, each a part with the arcs
        # left in it and their input positions.
        assert stage.kept == []
        assert [(q.balances, q.arc_ids, arcs) for q, arcs in stage.split] == [
            ({"s": F(8, 3), "b": F(-8, 3)}, ("sb",), [1]),
            ({"a": F(4, 3), "t": F(-4, 3)}, ("at",), [2]),
        ]

    def test_single_arc(self):
        p = single_arc_problem()
        stage, level = reduce_whole(p, Cut(frozenset(["u"])), F(5, 2))
        assert dict(level.fixed_forward) == {"uw": F(5)}
        # Both sides are left without balance, so both are dropped.
        assert stage == ([], [])

    def test_two_cycle_zeroes_reverse_arc(self):
        p = two_cycle_problem()
        stage, level = reduce_whole(p, Cut(frozenset(["u"])), F(3))
        assert dict(level.fixed_forward) == {"uw": F(3)}
        assert level.zeroed_reverse == ("wu",)
        assert stage == ([], [])

    def test_not_critical_rejected(self, d4):
        with pytest.raises(NotCritical):
            reduce_whole(d4, Cut(frozenset(["s", "b"])), F(2))

    def test_empty_cut_arc_set_rejected(self, d4):
        # {a, b, t} has no outgoing arcs in the diamond
        with pytest.raises(EmptyCutArcSet):
            reduce_whole(d4, Cut(frozenset(["a", "b", "t"])), F(1))

    def test_ratio_that_is_not_positive_rejected(self, d4):
        with pytest.raises(ValueError) as raised:
            reduce_whole(d4, Cut(frozenset(["s", "b"])), F(0))
        assert str(raised.value) == "level ratio must be positive"


class TestBalancedFlow:
    def test_level_cap(self, d4, monkeypatch):
        # A stage that keeps its blocks repeats its level at one ratio, n
        # times, until the cap of n - 1 levels trips.
        reduce, levels = balancer.reduce_problem, []

        def stuck(result):
            _, level = reduce(result)
            levels.append(level)
            return Stage(result.blocks, ()), level

        monkeypatch.setattr(balancer, "reduce_problem", stuck)
        with pytest.raises(IterationCapExceeded, match="more than n - 1 levels"):
            balanced_flow(d4)
        assert levels == [levels[0]] * len(d4.node_ids)

    def test_diamond_golden(self, d4):
        sol = balanced_flow(d4)
        assert sol.flow.values == {
            "sa": F(4, 3),
            "sb": F(8, 3),
            "at": F(4, 3),
            "bt": F(8, 3),
        }
        assert [
            (lv.ratio, lv.cut.source_side) for lv in sol.certificate.levels
        ] == [
            (F(4, 3), frozenset({"s", "b"})),
            (F(8, 9), frozenset({"s"})),
            (F(2, 3), frozenset({"a"})),
        ]
        assert sol.sorted_ratios == (F(4, 3), F(4, 3), F(8, 9), F(2, 3))
        assert sol.certificate.zero_tail == ()

    def test_diamond_half_supply(self):
        p = diamond_problem(supply=2)
        sol = balanced_flow(p)
        assert sol.flow.values == {
            "sa": F(2, 3),
            "sb": F(4, 3),
            "at": F(2, 3),
            "bt": F(4, 3),
        }
        assert [lv.ratio for lv in sol.certificate.levels] == [
            F(2, 3),
            F(4, 9),
            F(1, 3),
        ]
        assert max(sol.sorted_ratios) <= 1  # feasible instance

    def test_zero_balances_zero_flow(self):
        p = validate_problem(
            [("u", 0), ("v", 0), ("w", 0)],
            [("uv", "u", "v", 1), ("vw", "v", "w", 2), ("wu", "w", "u", 3)],
        )
        sol = balanced_flow(p)
        assert all(v == 0 for v in sol.flow.values.values())
        assert sol.certificate.levels == ()
        assert set(sol.certificate.zero_tail) == {"uv", "vw", "wu"}

    def test_fatal_cut_raises(self):
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        with pytest.raises(FatalCutPresent):
            balanced_flow(p)

    def test_degenerate_instances(self):
        # single node, and nodes without any arcs: empty but valid solutions
        for p in (
            validate_problem([("u", 0)], []),
            validate_problem([("u", 0), ("w", 0)], []),
        ):
            sol = balanced_flow(p)
            assert sol.flow.values == {} and sol.certificate.levels == ()
            assert verify_certificate(p, sol).accepted

    def test_isolated_transit_node(self):
        p = validate_problem(
            [("u", 5), ("w", -5), ("z", 0)], [("uw", "u", "w", 2)]
        )
        sol = balanced_flow(p)
        assert sol.flow.values == {"uw": F(5)}
        assert verify_certificate(p, sol).accepted

    def test_output_weakly_feasible_and_minmax(self):
        rng = random.Random(401)
        for _ in range(40):
            p = random_solvable_problem(rng)
            sol = balanced_flow(p)
            assert all(
                r == 0 for r in node_balance_residual(p, sol.flow).values()
            )
            census = enumerate_cuts(p)
            top = max(sol.sorted_ratios) if sol.sorted_ratios else F(0)
            assert top == census.max_ratio
            assert len(sol.certificate.levels) <= len(p.arcs)

    def test_search_without_a_critical_cut_is_an_invariant_violation(self, d4, monkeypatch):
        monkeypatch.setattr(balancer, "minmax_ratio", lambda p, stage: RatioResult(F(1), None, ()))
        with pytest.raises(InvariantViolation) as raised:
            balanced_flow(d4)
        assert str(raised.value) == "unbalanced stage without a critical cut"

    def test_search_whose_ratio_rises_is_a_monotonicity_violation(self, d4, monkeypatch):
        # The diamond's second level is at 8/9; the search claims 2 instead.
        search, results = balancer.minmax_ratio, []

        def rising(p, stage):
            results.append(search(p, stage=stage))
            return replace(results[-1], r0=F(2)) if len(results) == 2 else results[-1]

        monkeypatch.setattr(balancer, "minmax_ratio", rising)
        with pytest.raises(MonotonicityViolation) as raised:
            balanced_flow(d4)
        assert str(raised.value) == "level ratio rose from 4/3 to 2"

    def test_level_ratios_never_increase(self):
        rng = random.Random(402)
        for _ in range(40):
            p = random_solvable_problem(rng)
            ratios = [lv.ratio for lv in balanced_flow(p).certificate.levels]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_at_most_n_minus_one_levels(self, rng):
        # Each level splits a weakly connected component of the stage graph.
        p = random_solvable_problem(rng, max_nodes=8, max_arcs=20)
        assert len(balanced_flow(p).certificate.levels) <= len(p.node_ids) - 1

    def test_uniform_loading_of_first_critical_cut(self):
        rng = random.Random(403)
        for _ in range(30):
            p = random_solvable_problem(rng)
            result = minmax_ratio(p)
            if result.critical_cut is None:
                continue
            sol = balanced_flow(p)
            for arc in forward_arcs(result.critical_cut, p):
                assert sol.flow.values[arc.arc_id] == result.r0 * arc.capacity
            for arc in reverse_arcs(result.critical_cut, p):
                assert sol.flow.values[arc.arc_id] == 0

    def test_nested_critical_cuts_share_the_ratio(self):
        # Chain with two nested critical cuts over disjoint arc sets: the
        # second level must repeat the first level's ratio.
        p = validate_problem(
            [("s", 2), ("m", 0), ("t", -2)],
            [("sm", "s", "m", 1), ("mt", "m", "t", 1)],
        )
        sol = balanced_flow(p)
        assert [lv.ratio for lv in sol.certificate.levels] == [F(2), F(2)]
        assert sol.flow.values == {"sm": F(2), "mt": F(2)}

    def test_extra_critical_cut_repeats_the_ratio(self):
        # When another critical cut contributes arcs outside the chosen one,
        # those arcs must also be loaded at r0, so the next level keeps the
        # same ratio. Tested, not relied on by the driver. Integer data makes
        # tied cut ratios common enough to observe.
        rng = random.Random(408)
        observed = 0
        for _ in range(120):
            p = random_solvable_problem(
                rng, max_nodes=6, max_arcs=8, max_num=3, max_den=1
            )
            sol = balanced_flow(p)
            if not sol.certificate.levels:
                continue
            first = sol.certificate.levels[0]
            own_arcs = {arc_id for arc_id, _ in first.fixed_forward}
            census = enumerate_cuts(p)
            fresh = [
                cut
                for cut in census.critical_cuts
                if {a.arc_id for a in forward_arcs(cut, p)} - own_arcs
            ]
            if not fresh:
                continue
            observed += 1
            assert len(sol.certificate.levels) >= 2
            assert sol.certificate.levels[1].ratio == first.ratio
        assert observed > 3  # the corpus must exercise the multiplicity case

    def test_modes_and_cut_sides_agree(self, monkeypatch):
        # The sink side takes the inclusion-maximal min cut at every probe,
        # so levels may take other critical cuts; the flow must not change.
        rng = random.Random(404)
        differed = 0
        for _ in range(25):
            p = random_solvable_problem(rng, max_nodes=6, max_arcs=9)
            base = balanced_flow(p)
            assert balanced_flow(p, mode="dichotomy").flow == base.flow
            with monkeypatch.context() as patch:
                patch.setattr(ratio_search, "is_feasible", sink_side_is_feasible)
                sink = balanced_flow(p)
            assert sink.flow == base.flow
            assert verify_certificate(p, sink).accepted
            differed += sink.certificate != base.certificate
        assert differed

    def test_capacity_scaling_invariance(self):
        rng = random.Random(405)
        for _ in range(20):
            p = random_solvable_problem(rng, max_nodes=6, max_arcs=8)
            c = F(rng.randint(1, 7), rng.randint(1, 5))
            scaled = validate_problem(
                [(v, p.balances[v]) for v in p.node_ids],
                [(a.arc_id, a.tail, a.head, c * a.capacity) for a in p.arcs],
            )
            base, other = balanced_flow(p), balanced_flow(scaled)
            assert other.flow == base.flow
            assert [lv.ratio for lv in other.certificate.levels] == [
                lv.ratio / c for lv in base.certificate.levels
            ]

    def test_balance_scaling_invariance(self):
        rng = random.Random(406)
        for _ in range(20):
            p = random_solvable_problem(rng, max_nodes=6, max_arcs=8)
            c = F(rng.randint(1, 7), rng.randint(1, 5))
            scaled = validate_problem(
                [(v, c * p.balances[v]) for v in p.node_ids],
                [(a.arc_id, a.tail, a.head, a.capacity) for a in p.arcs],
            )
            base, other = balanced_flow(p), balanced_flow(scaled)
            assert other.flow.values == {
                k: c * v for k, v in base.flow.values.items()
            }
            assert [lv.ratio for lv in other.certificate.levels] == [
                c * lv.ratio for lv in base.certificate.levels
            ]


class TestVerifyCertificate:
    def test_accepts_solver_output(self, d4):
        sol = balanced_flow(d4)
        assert verify_certificate(d4, sol).accepted

    def test_accepts_on_random_instances(self):
        rng = random.Random(407)
        for _ in range(25):
            p = random_solvable_problem(rng)
            assert verify_certificate(p, balanced_flow(p)).accepted

    def test_perturbed_flow_fails_conservation(self, d4):
        sol = balanced_flow(d4)
        tampered = dict(sol.flow.values)
        tampered["sa"] = F(1)
        verdict = verify_certificate(d4, replace(sol, flow=Flow(tampered)))
        assert not verdict.accepted and verdict.failed_check == "conservation"

    def test_reordered_levels_fail_monotonicity(self, d4):
        sol = balanced_flow(d4)
        ascending = Certificate(
            tuple(reversed(sol.certificate.levels)), sol.certificate.zero_tail
        )
        verdict = verify_certificate(d4, replace(sol, certificate=ascending))
        assert not verdict.accepted and verdict.failed_check == "monotonicity"

    def test_noncritical_cut_fails_stage_optimality(self, d4):
        # Replay-consistent certificate built on {s} (ratio 1 < 4/3): its
        # single level checks out arithmetic-wise, so the stage probe is
        # what has to expose that 1 is not the minmax ratio.
        from lexflow import BalancedSolution

        cut = Cut(frozenset(["s"]))
        level0 = Level(F(1), cut, (("sa", F(1)), ("sb", F(3))), ())
        flow = Flow({"sa": F(1), "sb": F(3), "at": F(1), "bt": F(3)})
        candidate = BalancedSolution(
            flow,
            Certificate((level0,), ("at", "bt")),
            sorted_utilizations(flow, d4),
        )
        verdict = verify_certificate(d4, candidate)
        assert not verdict.accepted
        assert verdict.failed_check == "stage_optimality"

    def test_later_replay_failure_outranks_stage_optimality(self, d4):
        # Level 0 is the non-critical {s} cut above; level 1 claims arcs the
        # flow does not carry at their fixed values. Replay is checked for
        # every level before optimality is reported for any.
        from lexflow import BalancedSolution

        level0 = Level(
            F(1), Cut(frozenset(["s"])), (("sa", F(1)), ("sb", F(3))), ()
        )
        level1 = Level(
            F(1),
            Cut(frozenset(["s", "a", "b"])),
            (("at", F(2)), ("bt", F(2))),
            (),
        )
        flow = Flow({"sa": F(1), "sb": F(3), "at": F(1), "bt": F(3)})
        candidate = BalancedSolution(
            flow,
            Certificate((level0, level1), ()),
            sorted_utilizations(flow, d4),
        )
        verdict = verify_certificate(d4, candidate)
        assert (verdict.failed_check, verdict.detail) == (
            "level_replay", "level 1: flow differs on 'at'",
        )

    def test_noncritical_cut_with_honest_tail_trips_monotonicity(self, d4):
        # Loading {s} at ratio 1 under-serves b, so the honest continuation
        # needs ratio 3/2 > 1 and the ratio sequence itself betrays the swap.
        from lexflow import BalancedSolution

        cut = Cut(frozenset(["s"]))
        level0 = Level(F(1), cut, (("sa", F(1)), ("sb", F(3))), ())
        inner = validate_problem(
            [("s", 0), ("a", 1), ("b", 3), ("t", -4)],
            [("at", "a", "t", 2), ("bt", "b", "t", 2)],
        )
        rest = balanced_flow(inner)
        flow = Flow(
            {
                "sa": F(1),
                "sb": F(3),
                "at": rest.flow.values["at"],
                "bt": rest.flow.values["bt"],
            }
        )
        candidate = BalancedSolution(
            flow,
            Certificate(
                (level0,) + rest.certificate.levels,
                rest.certificate.zero_tail,
            ),
            sorted_utilizations(flow, d4),
        )
        verdict = verify_certificate(d4, candidate)
        assert not verdict.accepted
        assert verdict.failed_check == "monotonicity"

    def test_positive_reverse_arc_fails_level_replay(self):
        # Keep conservation by adding the same slack on both cycle arcs. The
        # forward arc then differs from its fixed value, which is what fails:
        # flow on a reverse arc always comes with such a difference.
        p = two_cycle_problem()
        sol = balanced_flow(p)
        assert sol.flow.values == {"uw": F(3), "wu": F(0)}
        tampered = Flow({"uw": F(4), "wu": F(1)})
        verdict = verify_certificate(p, replace(sol, flow=tampered))
        assert not verdict.accepted and verdict.failed_check == "level_replay"

    def test_zero_tail_circulation_fails_arc_partition(self):
        p = validate_problem(
            [("u", 0), ("w", 0)],
            [("uw", "u", "w", 1), ("wu", "w", "u", 1)],
        )
        sol = balanced_flow(p)
        circulating = Flow({"uw": F(1), "wu": F(1)})
        verdict = verify_certificate(p, replace(sol, flow=circulating))
        assert not verdict.accepted and verdict.failed_check == "arc_partition"

    def test_missing_arc_assignment_fails_partition(self, d4):
        sol = balanced_flow(d4)
        chopped = Certificate(sol.certificate.levels[:-1], ())
        verdict = verify_certificate(d4, replace(sol, certificate=chopped))
        assert not verdict.accepted
        assert verdict.failed_check == "arc_partition"


def with_flow(sol: BalancedSolution, **values: F) -> BalancedSolution:
    return replace(sol, flow=Flow({**sol.flow.values, **values}))


def with_level(sol: BalancedSolution, k: int, **fields) -> BalancedSolution:
    levels = list(sol.certificate.levels)
    levels[k] = replace(levels[k], **fields)
    return replace(sol, certificate=replace(sol.certificate, levels=tuple(levels)))


def with_certificate(sol: BalancedSolution, **fields) -> BalancedSolution:
    return replace(sol, certificate=replace(sol.certificate, **fields))


def noncritical_first_level(sol: BalancedSolution) -> BalancedSolution:
    """The diamond loaded on {s} at ratio 1 < 4/3, which replays
    faithfully; the probe at the ratio rejects it before the partition
    check reaches the zero tail, which carries flow."""
    level = Level(F(1), Cut(frozenset(["s"])), (("sa", F(1)), ("sb", F(3))), ())
    flow = Flow({"sa": F(1), "sb": F(3), "at": F(1), "bt": F(3)})
    return BalancedSolution(
        flow, Certificate((level,), ("at", "bt")), sorted_utilizations(flow, diamond_problem())
    )


# One row per rejection in `verify_certificate`: its check and exact detail,
# an instance, and a change to the solver's solution that must fail there
# first. The diamond solves in levels {s, b} at 4/3 (sa, bt), {s} at 8/9
# (sb) and {a} at 2/3 (at); the two-cycle u -> w, w -> u with u = 3 in one
# level {u} at 3 that fixes uw and zeroes wu. The source rule in
# `test_source_rules.py` requires a row for every `reject(...)` call.
REJECTIONS = [
    ("conservation", "flow keys do not match the arcs",
     diamond_problem, lambda sol: with_flow(sol, extra=F(0))),
    ("conservation", "arc 'sa' carries negative flow",
     diamond_problem, lambda sol: with_flow(sol, sa=F(-1))),
    ("conservation", "conservation fails at node 's'",
     diamond_problem, lambda sol: with_flow(sol, sa=F(1))),
    ("monotonicity", "level ratios must be positive",
     diamond_problem, lambda sol: with_level(sol, 2, ratio=F(0))),
    ("monotonicity", "level ratios increase",
     diamond_problem,
     lambda sol: with_certificate(sol, levels=sol.certificate.levels[::-1])),
    ("level_replay", "level 0: cut is not a proper partition",
     diamond_problem, lambda sol: with_level(sol, 0, cut=Cut(frozenset()))),
    ("level_replay", "level 0: cut has no forward arcs",
     diamond_problem, lambda sol: with_level(sol, 0, cut=Cut(frozenset(["a", "b", "t"])))),
    ("level_replay", "level 0: cut ratio differs from 2",
     diamond_problem, lambda sol: with_level(sol, 0, ratio=F(2))),
    ("level_replay", "level 0: fixed arcs differ from the cut arcs",
     diamond_problem, lambda sol: with_level(sol, 0, fixed_forward=(("sa", F(4, 3)),))),
    ("level_replay", "level 0: fixed value wrong on 'sa'",
     diamond_problem,
     lambda sol: with_level(sol, 0, fixed_forward=(("sa", F(1)), ("bt", F(8, 3))))),
    # Flow pushed around the cycle keeps conservation.
    ("level_replay", "level 0: flow differs on 'uw'",
     two_cycle_problem, lambda sol: with_flow(sol, uw=F(4), wu=F(1))),
    ("level_replay", "level 0: zeroed arcs differ from the reverse arcs",
     two_cycle_problem, lambda sol: with_level(sol, 0, zeroed_reverse=())),
    ("stage_optimality", "level 0: ratio is not sufficient",
     diamond_problem, noncritical_first_level),
    ("arc_partition", "an arc is assigned twice",
     two_cycle_problem, lambda sol: with_certificate(sol, zero_tail=("uw",))),
    ("arc_partition", "arcs are not covered exactly",
     diamond_problem, lambda sol: with_certificate(sol, levels=sol.certificate.levels[:2])),
    ("arc_partition", "zero-tail arc 'at' carries flow",
     diamond_problem,
     lambda sol: with_certificate(sol, levels=sol.certificate.levels[:2], zero_tail=("at",))),
    ("summary", "sorted ratios differ from the flow's",
     diamond_problem, lambda sol: replace(sol, sorted_ratios=sol.sorted_ratios[::-1])),
]


@pytest.mark.parametrize(
    "check,detail,instance,change", REJECTIONS, ids=[row[1] for row in REJECTIONS]
)
def test_each_rejection_fires(check, detail, instance, change):
    p = instance()
    candidate = change(balanced_flow(p))
    verdict = verify_certificate(p, candidate)
    assert verdict == VerificationResult(False, check, detail)
    assert labelled_verify(p, candidate) == verdict


def cycle_perturbed(rng: random.Random, p: Problem, flow: Flow) -> Flow | None:
    """`flow` moved by ε > 0 around a cycle of its residual network through a
    random arc: the cycle's arcs raised where it runs along them and lowered
    where it runs against them, so the flow stays weakly feasible. None when
    no arc tried lies on such a cycle."""
    nx = pytest.importorskip("networkx")
    values = [flow.values[a] for a in p.arc_ids]
    for _ in range(20):
        if not values:
            return None
        k = rng.randrange(len(values))
        sign = -1 if values[k] and rng.random() < 0.5 else 1
        start, end = p.ends[k] if sign > 0 else p.ends[k][::-1]
        residual = nx.DiGraph()
        for j, ((tail, head), x) in enumerate(zip(p.ends, values)):
            if j != k:
                residual.add_edge(tail, head, step=(j, 1))
                if x:
                    residual.add_edge(head, tail, step=(j, -1))
        if end not in residual or start not in residual or not nx.has_path(residual, end, start):
            continue
        path = nx.shortest_path(residual, end, start)
        steps = [(k, sign), *(residual.edges[u, v]["step"] for u, v in zip(path, path[1:]))]
        eps = min((values[j] for j, s in steps if s < 0), default=F(2)) / 2
        moved = dict(flow.values)
        for j, s in steps:
            moved[p.arc_ids[j]] += s * eps
        return Flow(moved)
    return None


class TestLexminWithoutCertificate:
    """`conftest.lexmin_flaw` checks flows against the lexmin criterion with
    no certificate, no max-flow and no cut, at sizes the LP oracle, which
    takes about 15 arcs, cannot reach. The lexmin flow is unique, so every
    flow a cycle step moves away from it must be refused."""

    KINDS = {
        "random": random_solvable_problem,
        "grid": lambda rng: grid_problem(rng, rng.randint(2, 5)),
        "deep": deep_problem,
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_solver_flows_pass_and_cycle_steps_fail(self, kind):
        rng = random.Random(f"lexmin-{kind}")
        solved = moved = 0
        for _ in range(60):
            p = self.KINDS[kind](rng)
            try:
                flow = balanced_flow(p).flow
            except FatalCutPresent:
                continue
            assert lexmin_flaw(p, flow) is None
            solved += 1
            other = cycle_perturbed(rng, p, flow)
            if other is not None:
                assert lexmin_flaw(p, other) is not None
                moved += 1
        assert solved >= 20 and moved >= 15

    def test_oracle_flows_pass(self):
        rng = random.Random("lexmin-oracle")
        for _ in range(20):
            p = random_solvable_problem(rng, max_arcs=12)
            assert lexmin_flaw(p, oracle_lexmin(p)) is None

    @pytest.mark.parametrize(
        "size", ["grid 10x10", "sparse n=250 m=1000", "sparse n=500 m=2000"]
    )
    def test_beyond_the_oracle(self, size):
        rng = random.Random(size)
        if size.startswith("grid"):
            p = grid_problem(rng, 10)
        else:
            n, m = (int(term.split("=")[1]) for term in size.split()[1:])
            p = sparse_problem(rng, n, m)
        flow = balanced_flow(p).flow
        assert lexmin_flaw(p, flow) is None
        for _ in range(5):
            assert lexmin_flaw(p, cycle_perturbed(rng, p, flow)) is not None


def crossed_blocks(p: Problem, levels) -> Iterator[tuple[Problem, list[frozenset[str]]]]:
    """Each level's whole stage and the blocks its cut crosses, found by node
    id: one block of all nodes, then the weakly connected components of
    each stepped stage's arcs (`conftest.weak_components`)."""
    stage, blocks = p, [frozenset(p.node_ids)]
    for level in levels:
        assert all((a.tail in b) == (a.head in b) for b in blocks for a in stage.arcs)
        crossing = (*forward_arcs(level.cut, stage), *reverse_arcs(level.cut, stage))
        tails = {a.tail for a in crossing}
        yield stage, [b for b in blocks if b & tails]
        stage = reference_stage(stage, level.cut, level.ratio)
        blocks = [frozenset(stage.node_ids[i] for i in c) for c in weak_components(stage)]


class TestProbeScope:
    def test_probes_run_on_the_blocks_the_cut_touches(self, monkeypatch):
        probe = balancer.is_feasible
        probed: list[tuple[Problem, F]] = []

        def recording(problem, z):
            probed.append((problem, z))
            return probe(problem, z)

        # Small integer data makes a level's cut cross several blocks.
        rng = random.Random(409)
        instances = [
            disjoint_union(
                [
                    random_solvable_problem(rng, max_num=3, max_den=1)
                    for _ in range(rng.randint(2, 4))
                ]
            )
            for _ in range(12)
        ]
        instances.append(grid_problem(random.Random(410), 6))
        monkeypatch.setattr(balancer, "is_feasible", recording)
        several = 0
        for p in instances:
            sol = balanced_flow(p)
            probed.clear()
            assert verify_certificate(p, sol).accepted
            levels, start = sol.certificate.levels, 0
            for level, (stage, touched) in zip(levels, crossed_blocks(p, levels)):
                # Each crossed block at r_k, then the first one just below.
                arcs = {b: {a.arc_id for a in stage.arcs if a.tail in b} for b in touched}
                c = len(touched)
                at, below = probed[start : start + c], probed[start + c]
                start += c + 1
                assert [z for _, z in at] == [level.ratio] * c and below[1] < level.ratio
                assert {frozenset(sub.node_ids) for sub, _ in at} == set(touched)
                for sub, _ in [*at, below]:
                    assert set(sub.arc_ids) == arcs[frozenset(sub.node_ids)]
                several += c > 1
            assert start == len(probed)
        assert several

    def test_steps_only_the_crossed_blocks(self, monkeypatch):
        # A level steps each block its cut crosses once, and nothing else;
        # whole stages would step the blocks it leaves alone as well. The
        # verifier splits blocks as the solver does, so it steps the
        # solver's blocks, of the same sizes.
        rng = random.Random(1901)
        kinds = ("union", "tied", "interleaved")
        instances = [two_level_chains(30), *(union_instance(rng, k) for k in kinds * 4)]
        step = balancer.step_block
        stepped: list[int] = []

        def counting(problem, arcs, ratio):
            stepped.append(len(problem.node_ids) + len(problem.arc_ids))
            return step(problem, arcs, ratio)

        monkeypatch.setattr(balancer, "step_block", counting)
        crossed = whole = 0
        for p in instances:
            stepped.clear()
            sol = balanced_flow(p)
            solver = sorted(stepped)
            stepped.clear()
            assert verify_certificate(p, sol).accepted
            assert sorted(stepped) == solver
            bound = 0
            for stage, touched in crossed_blocks(p, sol.certificate.levels):
                nodes = frozenset().union(*touched)
                bound += len(nodes) + sum(a.tail in nodes for a in stage.arcs)
                whole += len(stage.node_ids) + len(stage.arc_ids)
            assert sum(stepped) <= bound
            crossed += bound
        assert whole > 1.2 * crossed


def noncritical_cut(rng, p, sol):
    """A random cut loaded at its own ratio, with a replay-consistent flow:
    the reduced problem's balanced flow, either behind the cut's level as
    more levels or left in the zero tail (as in the d4 case)."""
    for _ in range(20):
        side = [v for v in p.node_ids if rng.random() < 0.5]
        if not 0 < len(side) < len(p.node_ids):
            continue
        cut = Cut(frozenset(side))
        stats = cut_stats(p, cut)
        if not stats.capacity or stats.deficiency <= 0:
            continue
        fixed = tuple((a.arc_id, stats.ratio * a.capacity) for a in forward_arcs(cut, p))
        zeroed = tuple(a.arc_id for a in reverse_arcs(cut, p))
        reduced = reference_stage(p, cut, stats.ratio)
        try:
            rest = balanced_flow(reduced)
        except FatalCutPresent:
            continue
        flow = Flow({**dict(fixed), **dict.fromkeys(zeroed, F(0)), **rest.flow.values})
        level = Level(stats.ratio, cut, fixed, zeroed)
        if rng.random() < 0.5:
            certificate = Certificate((level,), reduced.arc_ids)
        else:
            certificate = Certificate(
                (level, *rest.certificate.levels), rest.certificate.zero_tail
            )
        ratios = sorted_utilizations(flow, p)
        return BalancedSolution(flow, certificate, ratios)
    return None


def nudged_ratio(rng, p, sol):
    """One level's ratio moved to the next higher or lower level ratio."""
    levels = list(sol.certificate.levels)
    ratios = sorted({level.ratio for level in levels})
    if len(ratios) < 2:
        return None
    k = rng.randrange(len(levels))
    i = ratios.index(levels[k].ratio)
    neighbours = ratios[max(i - 1, 0) : i] + ratios[i + 1 : i + 2]
    levels[k] = replace(levels[k], ratio=rng.choice(neighbours))
    return replace(sol, certificate=replace(sol.certificate, levels=tuple(levels)))


def dropped_last_level(rng, p, sol):
    """The last level left out, its arcs moved to the zero tail."""
    levels = sol.certificate.levels
    if not levels:
        return None
    last = levels[-1]
    tail = sol.certificate.zero_tail + tuple(a for a, _ in last.fixed_forward)
    return replace(sol, certificate=Certificate(levels[:-1], tail + last.zeroed_reverse))


def swapped_levels(rng, p, sol):
    """Two adjacent levels in the other order."""
    levels = sol.certificate.levels
    if len(levels) < 2:
        return None
    i = rng.randrange(len(levels) - 1)
    swapped = levels[:i] + (levels[i + 1], levels[i]) + levels[i + 2 :]
    return replace(sol, certificate=replace(sol.certificate, levels=swapped))


def zero_tail_cycle(rng, p, sol):
    """Flow pushed around a directed cycle of zero-tail arcs, if one exists."""
    tail = set(sol.certificate.zero_tail)
    arcs = [a for a in p.arcs if a.arc_id in tail]
    rng.shuffle(arcs)
    for first in arcs:
        # Search back from first.tail to first.head over the tail arcs.
        via = {first.head: None}
        queue = deque([first.head])
        while queue and first.tail not in via:
            v = queue.popleft()
            for a in arcs:
                if a.tail == v and a.head not in via:
                    via[a.head] = a
                    queue.append(a.head)
        if first.tail in via:
            values = dict(sol.flow.values)
            delta = random_rational(rng)
            values[first.arc_id] += delta
            v = first.tail
            while via[v] is not None:
                values[via[v].arc_id] += delta
                v = via[v].tail
            return replace(sol, flow=Flow(values))
    return None


def two_level_chains(count: int) -> Problem:
    """Chains u -> x -> w with supply 2k + 1 at u for k < count: levels at
    2k + 1 and (2k + 1)/2, all distinct."""
    parts = [
        validate_problem(
            [("u", 2 * k + 1), ("x", 0), ("w", -(2 * k + 1))],
            [("a", "u", "x", 1), ("b", "x", "w", 2)],
        )
        for k in range(count)
    ]
    return disjoint_union(parts)


def wrong_fixed_value(rng, p, sol):
    """One fixed value of one level times a random factor, often 1."""
    levels = list(sol.certificate.levels)
    if not levels:
        return None
    k = rng.randrange(len(levels))
    fixed = list(levels[k].fixed_forward)
    i = rng.randrange(len(fixed))
    fixed[i] = (fixed[i][0], fixed[i][1] * random_rational(rng, 3, 3))
    levels[k] = replace(levels[k], fixed_forward=tuple(fixed))
    return replace(sol, certificate=replace(sol.certificate, levels=tuple(levels)))


def improper_cut(rng, p, sol):
    """One level's source side emptied, made all nodes, or given a foreign id."""
    levels = list(sol.certificate.levels)
    if not levels:
        return None
    k = rng.randrange(len(levels))
    side = levels[k].cut.source_side
    side = rng.choice([frozenset(), frozenset(p.node_ids), side | {"foreign"}])
    levels[k] = replace(levels[k], cut=Cut(side))
    return replace(sol, certificate=replace(sol.certificate, levels=tuple(levels)))


MUTATORS = [noncritical_cut, nudged_ratio, dropped_last_level, swapped_levels, zero_tail_cycle]


def mutated(rng, mutate, union: bool) -> tuple[Problem, BalancedSolution]:
    """A random instance, or a disjoint union of two or three, with its
    solution changed by `mutate` where it applies."""
    if union:
        parts = [
            random_solvable_problem(rng, max_nodes=4, max_arcs=8, max_num=4, max_den=2)
            for _ in range(3)
        ]
        p = disjoint_union(parts[: rng.randint(2, 3)])
    else:
        p = random_solvable_problem(rng)
    sol = balanced_flow(p)
    return p, mutate(rng, p, sol) or sol


class TestVerdictsUnchanged:
    """The verifier's probes on the crossed blocks give the verdicts of
    whole-stage probes (`conftest.whole_stage_verify`), and its blocks give
    the verdicts and details of the whole-stage replay that labels them
    (`conftest.labelled_verify`)."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(MUTATORS), st.booleans())
    def test_same_verdict_as_whole_stage_probes(self, rng, mutate, union):
        p, candidate = mutated(rng, mutate, union)
        ours, reference = verify_certificate(p, candidate), whole_stage_verify(p, candidate)
        assert ours.accepted == reference.accepted
        # A flaw in a component that no later level crosses shows only after
        # the replay, as arcs left uncovered or a zero-tail arc with flow.
        assert ours.failed_check == reference.failed_check or (
            reference.failed_check, ours.failed_check
        ) == ("stage_optimality", "arc_partition")

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from([*MUTATORS, wrong_fixed_value, improper_cut]),
        st.booleans(),
    )
    def test_same_result_as_the_labelled_replay(self, rng, mutate, union):
        p, candidate = mutated(rng, mutate, union)
        assert verify_certificate(p, candidate) == labelled_verify(p, candidate)


def scaled(problem: Problem, c: F) -> Problem:
    """`problem` with every balance and capacity times c: the same ratios."""
    return validate_problem(
        [(v, c * problem.balances[v]) for v in problem.node_ids],
        [(a.arc_id, a.tail, a.head, c * a.capacity) for a in problem.arcs],
    )


def shuffled(rng: random.Random, problem: Problem) -> Problem:
    """`problem` with its nodes and its arcs each in a random input order."""
    nodes = [(v, problem.balances[v]) for v in problem.node_ids]
    arcs = [(a.arc_id, a.tail, a.head, a.capacity) for a in problem.arcs]
    rng.shuffle(nodes)
    rng.shuffle(arcs)
    return validate_problem(nodes, arcs)


def union_instance(rng: random.Random, kind: str) -> Problem:
    small = [
        random_solvable_problem(rng, max_nodes=5, max_arcs=7, max_num=4, max_den=2)
        for _ in range(rng.randint(2, 4))
    ]
    if kind == "tied":
        # Copies of one part at other scales tie at every level.
        first = small[0]
        small = [first, *(scaled(first, F(rng.randint(1, 5), rng.randint(1, 3))) for _ in small)]
    p = disjoint_union(small)
    return shuffled(rng, p) if kind == "interleaved" else p


class TestStageOfBlocks:
    """The solver's stage is a list of blocks, each on its own grid; the
    reference steps and searches whole stages
    (`conftest.whole_stage_balanced_flow`)."""

    KINDS = {
        "random": lambda rng: random_problem(rng),
        "grid": lambda rng: grid_problem(rng, rng.randint(2, 5)),
        "deep": deep_problem,
        "union": lambda rng: union_instance(rng, "union"),
        "tied": lambda rng: union_instance(rng, "tied"),
        "interleaved": lambda rng: union_instance(rng, "interleaved"),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_same_documents_as_whole_stages(self, kind, monkeypatch):
        rng = random.Random(f"blocks-{kind}")
        tied = []
        search = balancer.minmax_ratio

        def recorded(problem, **kwargs):
            result = search(problem, **kwargs)
            tied.append(sum(b.result.r0 == result.r0 for b in result.blocks))
            return result

        monkeypatch.setattr(balancer, "minmax_ratio", recorded)
        solved = 0
        for _ in range(30):
            p = self.KINDS[kind](rng)
            for mode, reference in (
                ("dinkelbach", whole_stage_search),
                ("dichotomy", whole_stage_dichotomy),
            ):
                try:
                    expected = whole_stage_balanced_flow(p, reference)
                except FatalCutPresent:
                    with pytest.raises(FatalCutPresent):
                        balanced_flow(p, mode=mode)
                    continue
                ours = balanced_flow(p, mode=mode)
                assert json.dumps(solution_document(p, ours), indent=2) == json.dumps(
                    solution_document(p, expected), indent=2
                )
                solved += 1
        assert solved >= 20
        if kind in ("tied", "interleaved"):
            assert max(tied) > 1  # several tied blocks in one level

    def test_untied_blocks_carry_over_and_steps_stay_linear(self, monkeypatch):
        # Thirty chains u -> x -> w with supply 2k + 1 at u: levels at
        # 2k + 1 and (2k + 1)/2, all distinct. After the first level each
        # chain is its own block, and a level steps only its chain's.
        p = two_level_chains(30)
        size = len(p.node_ids) + len(p.arc_ids)
        stepped = {"blocks": 0, "whole": 0}

        def counting(kind, step):
            def counted(problem, *args):
                stepped[kind] += len(problem.node_ids) + len(problem.arc_ids)
                return step(problem, *args)
            return counted

        results = []
        search = balancer.minmax_ratio

        def recorded(problem, **kwargs):
            results.append(search(problem, **kwargs))
            return results[-1]

        monkeypatch.setattr(balancer, "step_block", counting("blocks", balancer.step_block))
        monkeypatch.setattr(conftest, "reference_stage", counting("whole", reference_stage))
        monkeypatch.setattr(balancer, "minmax_ratio", recorded)
        solution = balanced_flow(p)
        assert solution == whole_stage_balanced_flow(p)
        assert len(solution.certificate.levels) == 60
        for result, after in zip(results, results[1:]):
            for block in result.blocks:
                if block.result.r0 != result.r0:
                    carried = [b for b in after.blocks if b is block]
                    assert carried and carried[0].problem is block.problem
        assert stepped["blocks"] <= 3 * size
        assert stepped["whole"] > 10 * size

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the corpora are seeded, so every run checks the same instances.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from lexflow import (
    BalancedSolution,
    Certificate,
    Cut,
    FatalCutPresent,
    Flow,
    Level,
    balanced_flow,
    is_feasible,
    minmax_ratio,
    oracle_lexmin,
    total_integer_capacity,
    validate_problem,
    verify_certificate,
)
import lexflow.ratio_search as ratio_search
from conftest import (
    diamond_problem,
    enumerate_cuts,
    random_problem,
    random_solvable_problem,
    sink_side_is_feasible,
    sparse_problem,
    two_cycle_problem,
)

F = Fraction


def _conclude(number: int, name: str, ok: bool, details: object = "") -> None:
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, details


@pytest.fixture(scope="module")
def mixed_corpus():
    """500 unrestricted instances: n <= 10, m <= 14, numerators and
    denominators <= 12. May contain fatal and deficient cuts."""
    rng = random.Random(0xBA1A)
    return [
        random_problem(rng, max_nodes=10, max_arcs=14, max_num=12, max_den=12)
        for _ in range(500)
    ]


@pytest.fixture(scope="module")
def censused(mixed_corpus):
    return [(p, enumerate_cuts(p)) for p in mixed_corpus]


@pytest.fixture(scope="module")
def solvable_corpus():
    """200 weakly solvable instances with m <= 12."""
    rng = random.Random(0x50AB1E)
    return [random_solvable_problem(rng, max_arcs=12) for _ in range(200)]


@pytest.fixture(scope="module")
def solvable_solutions(solvable_corpus):
    return [(p, balanced_flow(p)) for p in solvable_corpus]


def test_criterion_1_gale_hoffman_equivalence(censused):
    failures = []
    for p, census in censused:
        brute = not census.deficient_cuts
        if is_feasible(p, F(1)).feasible != brute:
            failures.append(p)
    _conclude(
        1,
        "feasibility test agrees with brute-force cut conditions on "
        f"{len(censused)} instances",
        not failures,
        failures[:3],
    )


def test_criterion_2_minmax_ratio_and_threshold(censused):
    failures = []
    checked = 0
    for p, census in censused:
        if census.fatal_cuts:
            try:
                minmax_ratio(p)
                failures.append((p, "missed fatal cut"))
            except FatalCutPresent:
                pass
            continue
        checked += 1
        r0 = minmax_ratio(p).r0
        if r0 != census.max_ratio:
            failures.append((p, r0, census.max_ratio))
            continue
        if r0 == 0:
            continue
        lam = total_integer_capacity(p)
        delta = F(1, 2 * lam * lam)
        if not is_feasible(p, r0).feasible:
            failures.append((p, "not feasible at r0"))
        if is_feasible(p, r0 * (1 - delta)).feasible:
            failures.append((p, "feasible below r0"))
        if not is_feasible(p, r0 * (1 + delta)).feasible:
            failures.append((p, "not feasible above r0"))
    _conclude(
        2,
        f"exact minmax ratio and threshold flip on {checked} instances",
        not failures,
        failures[:3],
    )


def test_criterion_3_lexmin_agreement_with_oracle(solvable_solutions):
    failures = []
    for p, solution in solvable_solutions:
        reference = oracle_lexmin(p)
        if reference.values != solution.flow.values:
            failures.append((p, reference.values, solution.flow.values))
    _conclude(
        3,
        f"balanced flow equals the sequential-LP oracle flow on "
        f"{len(solvable_solutions)} solvable instances",
        not failures,
        failures[:2],
    )


def test_criterion_4_certificate_monotonicity(censused, solvable_solutions):
    solutions = [sol for _, sol in solvable_solutions]
    for p, census in censused:
        if not census.fatal_cuts:
            solutions.append(balanced_flow(p))
    violations = 0
    for sol in solutions:
        ratios = [lv.ratio for lv in sol.certificate.levels]
        if any(a < b for a, b in zip(ratios, ratios[1:])):
            violations += 1
    _conclude(
        4,
        f"non-increasing level ratios across {len(solutions)} certificates",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_5_determinism_under_symmetry(monkeypatch):
    rng = random.Random(0xDE7E12)
    failures = []
    other_certificates = 0
    for _ in range(100):
        p = random_solvable_problem(rng, max_arcs=10)
        solution = balanced_flow(p)
        base = solution.flow.values

        node_order = list(p.node_ids)
        rng.shuffle(node_order)
        permuted_nodes = validate_problem(
            [(v, p.balances[v]) for v in node_order],
            [(a.arc_id, a.tail, a.head, a.capacity) for a in p.arcs],
        )
        if balanced_flow(permuted_nodes).flow.values != base:
            failures.append((p, "node permutation"))

        arcs = list(p.arcs)
        rng.shuffle(arcs)
        permuted_arcs = validate_problem(
            [(v, p.balances[v]) for v in p.node_ids],
            [(a.arc_id, a.tail, a.head, a.capacity) for a in arcs],
        )
        if balanced_flow(permuted_arcs).flow.values != base:
            failures.append((p, "arc permutation"))

        # Every probe takes the inclusion-maximal min cut instead.
        with monkeypatch.context() as patch:
            patch.setattr(ratio_search, "is_feasible", sink_side_is_feasible)
            sink = balanced_flow(p)
        if sink.flow.values != base or not verify_certificate(p, sink).accepted:
            failures.append((p, "sink-side min cut"))
        other_certificates += sink.certificate != solution.certificate
    _conclude(
        5,
        "bit-identical flows under node/arc permutation and sink-side cuts "
        "on 100 instances",
        not failures and other_certificates > 0,
        (failures[:3], other_certificates),
    )


def test_criterion_6_feasible_instances_stay_within_capacity(censused):
    failures = []
    checked = 0
    for p, census in censused:
        if census.fatal_cuts or census.deficient_cuts:
            continue
        checked += 1
        solution = balanced_flow(p)
        for arc in p.arcs:
            if solution.flow.values[arc.arc_id] > arc.capacity:
                failures.append((p, arc.arc_id))
    _conclude(
        6,
        f"balanced flow within capacities on {checked} feasible instances",
        checked > 20 and not failures,
        failures[:3] or f"only {checked} feasible instances",
    )


def test_criterion_7_diamond_goldens():
    p = diamond_problem()
    solution = balanced_flow(p)
    ratio = minmax_ratio(p)
    ok = (
        solution.flow.values
        == {"sa": F(4, 3), "sb": F(8, 3), "at": F(4, 3), "bt": F(8, 3)}
        and ratio.r0 == F(4, 3)
        and ratio.critical_cut.source_side == frozenset({"s", "b"})
        and solution.sorted_ratios == (F(4, 3), F(4, 3), F(8, 9), F(2, 3))
    )
    _conclude(7, "diamond instance reproduces its frozen solution", ok, solution)


def _scale_instance(seed: int):
    return sparse_problem(random.Random(seed), 50, 200)


def test_criterion_8_scale():
    worst = 0.0
    failures = []
    for seed in (11, 22, 33):
        p = _scale_instance(seed)
        start = time.perf_counter()
        solution = balanced_flow(p)
        verdict = verify_certificate(p, solution)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if not verdict.accepted:
            failures.append((seed, verdict))
        if len(solution.certificate.levels) > len(p.arcs):
            failures.append((seed, "too many levels"))
        if elapsed >= 10.0:
            failures.append((seed, f"{elapsed:.1f}s"))
    _conclude(
        8,
        f"n=50 m=200 instances solve and verify end-to-end "
        f"(worst {worst:.2f}s of the 10s budget)",
        not failures,
        failures,
    )


def test_criterion_9_certificate_soundness(solvable_solutions):
    failures = []

    # Every solver output is accepted.
    for p, solution in solvable_solutions[:50]:
        if not verify_certificate(p, solution).accepted:
            failures.append((p, "rejected honest certificate"))

    d4 = diamond_problem()
    d4_solution = balanced_flow(d4)

    def expect(label: str, problem, candidate) -> None:
        verdict = verify_certificate(problem, candidate)
        if verdict.accepted or verdict.failed_check != label:
            failures.append((label, verdict))

    # Perturbed flow value.
    tampered = dict(d4_solution.flow.values)
    tampered["sa"] = F(1)
    expect("conservation", d4, replace(d4_solution, flow=Flow(tampered)))

    # Swapped level order.
    swapped = Certificate(
        tuple(reversed(d4_solution.certificate.levels)),
        d4_solution.certificate.zero_tail,
    )
    expect("monotonicity", d4, replace(d4_solution, certificate=swapped))

    # Non-critical cut substituted (consistent replay, wrong optimum).
    noncritical = BalancedSolution(
        Flow({"sa": F(1), "sb": F(3), "at": F(1), "bt": F(3)}),
        Certificate(
            (
                Level(
                    F(1),
                    Cut(frozenset(["s"])),
                    (("sa", F(1)), ("sb", F(3))),
                    (),
                ),
            ),
            ("at", "bt"),
        ),
        (F(3, 2), F(1), F(1), F(1, 2)),
    )
    expect("stage_optimality", d4, noncritical)

    # Reverse-arc value made positive (conservation preserved).
    cycle = two_cycle_problem()
    cycle_solution = balanced_flow(cycle)
    pumped = Flow({"uw": F(4), "wu": F(1)})
    expect("level_replay", cycle, replace(cycle_solution, flow=pumped))

    _conclude(
        9,
        "verifier accepts honest certificates and labels each mutation",
        not failures,
        failures,
    )

"""Domain types: validation, residuals, cut stats, the lexmin comparator."""

from __future__ import annotations

import math
import random
import sys
import time
from collections import deque
from decimal import Decimal
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

import lexflow.balancer as balancer
import lexflow.gale_hoffman as gale_hoffman
from lexflow import (
    Arc,
    BalanceSumNonzero,
    Cut,
    DuplicateId,
    FatalCutPresent,
    Flow,
    InvalidPartition,
    KeyMismatch,
    ModelError,
    NonpositiveCapacity,
    SelfLoop,
    balanced_flow,
    cut_stats,
    format_rational,
    has_fatal_cut,
    is_feasible,
    minmax_ratio,
    node_balance_residual,
    parse_rational,
    validate_problem,
    verify_certificate,
)
from lexflow.model import (
    MAX_DECIMAL_EXPONENT,
    IntegerView,
    components,
    cut_arcs,
    fix_arcs,
    restrict,
    union,
)
from conftest import (
    deep_problem,
    diamond_problem,
    disjoint_union,
    forward_arcs,
    random_problem,
    random_solvable_problem,
    reference_step,
    reverse_arcs,
    weak_components,
)

F = Fraction


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", F(42)),
            ("-7", F(-7)),
            ("5/2", F(5, 2)),
            ("-3/9", F(-1, 3)),
            ("1.25", F(5, 4)),
            (" 0.5 ", F(1, 2)),
            ("0", F(0)),
        ],
    )
    def test_string_forms(self, text, expected):
        assert parse_rational(text) == expected

    def test_int_and_fraction_pass_through(self):
        assert parse_rational(3) == F(3)
        assert parse_rational(F(2, 6)) == F(1, 3)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5.2", 1.5, None, True])
    def test_rejects(self, bad):
        with pytest.raises(ModelError):
            parse_rational(bad)

    @given(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @settings(max_examples=400)
    @given(
        st.one_of(
            st.from_regex(r"[+-]?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
            # Near misses of that form; at most 7 characters keep any
            # exponent inside MAX_DECIMAL_EXPONENT.
            st.text(alphabet="0123456789+-/_ .eE\u0661\u00a0", max_size=7),
        )
    )
    def test_same_as_fraction_from_a_string(self, text):
        try:
            expected = F(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ModelError):
                parse_rational(text)
        else:
            assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["+6/4", "-6/4", "-0/5", "0/7", "+0", "-12", "10/2", "-9/3", "4/6",
         f"-{'6' * 4400}/{'4' * 4400}", f"{'9' * 4400}/3"],
    )
    def test_reduced_once_to_the_same_terms(self, text):
        # `_plain_terms` leaves "p/q" as written and `Fraction(p, q)`
        # reduces it; `validate_problem` reduces it itself, so the grid is
        # still the least common denominator. The last two are past
        # int(str)'s digit limit, which `Fraction(str)` is lifted over here.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = F(text)
        finally:
            sys.set_int_max_str_digits(limit)
        value = parse_rational(text)
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        view = validate_problem([("u", text), ("w", -expected)], []).integer_view
        assert view.denominator == expected.denominator
        assert view.balances == (expected.numerator, -expected.numerator)

    def test_format_lowest_terms(self):
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(F(-6, 4)) == "-3/2"

    def test_digits_past_the_int_string_limit(self):
        huge = 10**5000 + 1  # more digits than str(int) accepts by default
        for q in (F(huge), F(-huge, 7), F(3, huge)):
            text = format_rational(q)
            assert text.lstrip("-").replace("/", "").isdigit()
            assert parse_rational(text) == q
        digits = format_rational(F(huge))
        for bad in (f"{digits}/0", f"1.5/{digits}", f"{digits}x"):
            with pytest.raises(ModelError):
                parse_rational(bad)

    def test_long_decimals_past_the_int_string_limit(self):
        ones = (10**5000 - 1) // 9  # 5000 ones
        cases = {
            "1" * 5000 + ".5": F(2 * ones + 1, 2),
            "-" + "1" * 5000 + "e-5000": F(-ones, 10**5000),
            "." + "1" * 5000 + "E+5000": F(ones),
        }
        for text, expected in cases.items():
            value = parse_rational(text)
            assert value == expected
            assert parse_rational(format_rational(value)) == value
        for bad in ("nan", "inf", "-Infinity", "1e", "1" * 5000 + "e", "1" * 5000 + ".5x"):
            with pytest.raises(ModelError):
                parse_rational(bad)


    @pytest.mark.parametrize("text", ["1e1000000000", "1e-1000000000", "1E+100_001"])
    def test_exponent_past_the_limit_is_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ModelError, match="exponent"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1

    def test_exponent_at_the_limit_parses(self):
        assert parse_rational(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT
        assert parse_rational(f"2e-{MAX_DECIMAL_EXPONENT}") == F(2, 10**MAX_DECIMAL_EXPONENT)


class TestValidateProblem:
    def test_minimal_legal_instance(self):
        p = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
        assert p.node_ids == ("u", "w")
        assert p.balances["u"] == F(5)
        assert p.arcs[0].capacity == F(2)
        assert p.total_supply == F(5)

    def test_total_supply_is_the_positive_balance_sum(self):
        rng = random.Random(107)
        for _ in range(100):
            p = random_problem(rng, max_nodes=8, max_arcs=10)
            positive = sum((d for d in p.balances.values() if d > 0), F(0))
            assert p.total_supply == positive

    def test_balance_sum_nonzero(self):
        with pytest.raises(BalanceSumNonzero):
            validate_problem([("u", 1), ("w", -2)], [])

    def test_zero_capacity(self):
        with pytest.raises(NonpositiveCapacity):
            validate_problem([("u", 0), ("w", 0)], [("uw", "u", "w", 0)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            validate_problem([("u", 0), ("w", 0)], [("uu", "u", "u", 1)])

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            validate_problem([("u", 1), ("u", -1)], [])
        with pytest.raises(DuplicateId):
            validate_problem(
                [("u", 0), ("w", 0)],
                [("e", "u", "w", 1), ("e", "w", "u", 1)],
            )

    def test_unknown_endpoint(self):
        with pytest.raises(ModelError):
            validate_problem([("u", 0), ("w", 0)], [("e", "u", "q", 1)])

    def test_parallel_arcs_allowed(self):
        p = validate_problem(
            [("u", 0), ("w", 0)],
            [("e1", "u", "w", 1), ("e2", "u", "w", 2)],
        )
        assert len(p.arcs) == 2


def reference_validate(nodes, arcs):
    """`validate_problem` built from `Fraction`s: every number through
    `parse_rational`, one `Arc` per arc, then the grid on the lcm of the
    denominators. Returns the integer view and the arcs."""
    balances = {}
    for node_id, raw in nodes:
        node_id = str(node_id)
        if node_id in balances:
            raise DuplicateId(f"duplicate node id {node_id!r}")
        balances[node_id] = parse_rational(raw)
    if not balances:
        raise ModelError("instance has no nodes")
    built, seen = [], set()
    for arc_id, tail, head, raw in arcs:
        arc_id, tail, head = str(arc_id), str(tail), str(head)
        if arc_id in seen:
            raise DuplicateId(f"duplicate arc id {arc_id!r}")
        seen.add(arc_id)
        if tail not in balances:
            raise ModelError(f"arc {arc_id!r} has unknown tail {tail!r}")
        if head not in balances:
            raise ModelError(f"arc {arc_id!r} has unknown head {head!r}")
        if tail == head:
            raise SelfLoop(f"arc {arc_id!r} is a self-loop on {tail!r}")
        capacity = parse_rational(raw)
        if capacity <= 0:
            raise NonpositiveCapacity(f"arc {arc_id!r} has capacity {format_rational(capacity)}")
        built.append(Arc(arc_id, tail, head, capacity))
    if total := sum(balances.values()):
        raise BalanceSumNonzero(f"balances sum to {format_rational(total)}, expected 0")
    numbers = [*balances.values(), *(a.capacity for a in built)]
    lcm = math.lcm(*(x.denominator for x in numbers))
    grid = [lcm // x.denominator * x.numerator for x in numbers]
    n = len(balances)
    return IntegerView(lcm, tuple(grid[:n]), tuple(grid[n:])), tuple(built)


def outcome(validate, nodes, arcs):
    """What `validate` makes of the instance: (view, arcs), or the class and
    message of the error it raises."""
    try:
        result = validate(nodes, arcs)
    except ModelError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else (result.integer_view, result.arcs)


HUGE = 10**4400 + 7  # past int(str)'s default limit of 4300 digits


def digits(n: int) -> str:
    """str(n), also past the digit limit."""
    return format_rational(Fraction(n))


@st.composite
def spelling(draw, value: Fraction):
    """One of the forms `validate_problem` reads `value` from."""
    p, q = value.numerator, value.denominator
    forms = [value, f"{digits(p)}/{digits(q)}"]
    k = draw(st.integers(1, 40))
    sign = "+" if p >= 0 and draw(st.booleans()) else ""
    forms.append(f"{sign}{digits(k * p)}/{'0' * draw(st.integers(0, 2))}{digits(k * q)}")
    if q == 1:
        forms += [p, digits(p), f"{digits(p)}e0"]
    j = next((j for j in range(9) if 10**j % q == 0), None)
    if j is not None and abs(p) < 10**4000:
        scaled = p * 10**j // q
        forms += [str(Decimal(scaled).scaleb(-j)), f"{scaled}e-{j}", f"{scaled * 10}E-{j + 1}"]
    # Indexed rather than sampled: hypothesis cannot repr the huge ints.
    return forms[draw(st.integers(0, len(forms) - 1))]


# A rational whose numerator or denominator is now and then HUGE.
numbers = st.builds(
    lambda p, huge, q: Fraction(p * HUGE if huge else p, q or HUGE),
    st.integers(-(10**6), 10**6),
    st.integers(0, 9).map(lambda k: k == 0),
    st.sampled_from([1, 2, 3, 4, 5, 8, 12, 25, 100, 9973, 0]),
)


@st.composite
def raw_instances(draw):
    """Spelled nodes and arcs: mostly valid, sometimes with a nonzero balance
    sum, a nonpositive capacity, an unknown endpoint, a self-loop or a
    repeated id."""
    values = draw(st.lists(numbers, min_size=1, max_size=5))
    if draw(st.integers(0, 9)):
        values.append(-sum(values))
    ids = [f"n{i}" for i in range(len(values))]
    if len(ids) > 2 and not draw(st.integers(0, 19)):
        ids[-1] = ids[0]
    nodes = [(v, draw(spelling(x))) for v, x in zip(ids, values)]
    arcs = []
    for j in range(draw(st.integers(0, 6)) if len(set(ids)) > 1 else 0):
        tail, head = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        while head == tail:
            head = draw(st.sampled_from(ids))
        arc_id, capacity = f"e{j}", abs(draw(numbers.filter(bool)))
        flaw = draw(st.integers(0, 39))
        if flaw == 0:
            capacity = -capacity if draw(st.booleans()) else Fraction(0)
        elif flaw == 1:
            tail = "zz"
        elif flaw == 2:
            head = tail
        elif flaw == 3:
            arc_id = "e0"
        arcs.append((arc_id, tail, head, draw(spelling(capacity))))
    return nodes, arcs


class TestGridFirstParse:
    """`validate_problem` writes each number straight onto the grid; the
    reference builds a `Fraction` per number and takes the lcm. Views, arcs
    and errors must be the same."""

    @settings(max_examples=300, deadline=None)
    @given(raw_instances())
    def test_same_as_the_lcm_of_fractions(self, instance):
        nodes, arcs = instance
        assert outcome(validate_problem, nodes, arcs) == outcome(reference_validate, nodes, arcs)

    @pytest.mark.parametrize(
        "nodes,arcs",
        [
            ([("u", 0), ("w", 0)], [("e", "u", "w", "0/7")]),
            ([("u", 0), ("w", 0)], [("e", "u", "w", "-4/6")]),
            ([("u", 0), ("w", 0)], [("e", "u", "w", -3)]),
            ([("u", 0), ("w", 0)], [("e", "u", "w", f"-{digits(HUGE)}/3")]),
            ([("u", "3/0"), ("w", 0)], []),
            ([("u", 0), ("w", 0)], [("e", "u", "w", "1/0")]),
            ([("u", True), ("w", 0)], []),
            ([("u", 0), ("w", 0)], [("e", "u", "w", True)]),
            ([("u", 0), ("w", 0)], [("e", "u", "x", 1)]),
            ([("u", 0), ("w", 0)], [("e", "x", "w", 1)]),
            ([("u", 0), ("w", 0)], [("e", "u", "u", 1)]),
            ([("u", "1/2"), ("u", "-1/2")], []),
            ([("u", 0), ("w", 0)], [("e", "u", "w", 1), ("e", "w", "u", "x")]),
            ([("u", "2/4"), ("w", "-1/3")], []),
            ([("u", digits(HUGE)), ("w", 0)], []),
            ([], []),
        ],
    )
    def test_errors_keep_their_class_and_message(self, nodes, arcs):
        ours = outcome(validate_problem, nodes, arcs)
        assert issubclass(ours[0], ModelError)
        assert ours == outcome(reference_validate, nodes, arcs)

    def test_check_and_ratio_build_no_fraction_views(self):
        # The oneshot path: `lexflow check` then `lexflow ratio`.
        rng = random.Random(1501)
        for _ in range(40):
            p = random_solvable_problem(rng, max_nodes=8, max_arcs=14)
            has_fatal_cut(p)
            is_feasible(p, F(1))
            minmax_ratio(p)
            assert "arcs" not in vars(p) and "balances" not in vars(p)


class TestFixArcs:
    def test_moves_fixed_values_and_drops_arcs(self, d4):
        # Cut {s, a}: forward sb (3) and at (2), deficiency 4, ratio 4/5.
        stage = fix_arcs(d4, cut_arcs(d4, Cut(frozenset({"s", "a"}))), F(4, 5))
        assert stage.node_ids == d4.node_ids
        assert stage.balances == {
            "s": F(8, 5), "a": F(-8, 5), "b": F(12, 5), "t": F(-12, 5)
        }
        assert stage.arc_ids == ("sa", "bt")
        assert stage.integer_view == (5, (8, -8, 12, -12), (5, 10))
        assert stage.total_supply == F(4)

    def test_reverse_arcs_are_dropped_unloaded(self, d4):
        # Cut {a}: forward at, reverse sa; a's deficiency is 0.
        stage = fix_arcs(d4, cut_arcs(d4, Cut(frozenset({"a"}))), F(1, 3))
        assert stage.balances == {"s": F(4), "a": F(-2, 3), "b": F(0), "t": F(-10, 3)}
        assert stage.arc_ids == ("sb", "bt")
        assert stage.integer_view == (3, (12, -2, 0, -10), (9, 6))

    def test_no_arcs_fixed_keeps_the_problem(self):
        p = validate_problem(
            [("u", F(1, 2)), ("w", F(-1, 2)), ("x", 0), ("y", 0)],
            [("uw", "u", "w", 1), ("xy", "x", "y", F(1, 3))],
        )
        assert fix_arcs(p, cut_arcs(p, Cut(frozenset({"u", "w"}))), F(7, 2)) == p


class TestUnion:
    def test_parts_side_by_side_on_the_lcm_of_their_grids(self):
        rng = random.Random(1903)
        for _ in range(40):
            parts = []
            for k in range(rng.randint(2, 4)):
                part = deep_problem(rng) if rng.random() < 0.5 else random_problem(rng)
                parts.append(
                    validate_problem(
                        [(f"p{k}_{v}", part.balances[v]) for v in part.node_ids],
                        [
                            (f"p{k}_{a.arc_id}", f"p{k}_{a.tail}", f"p{k}_{a.head}", a.capacity)
                            for a in part.arcs
                        ],
                    )
                )
            joined = union(parts)
            assert joined.node_ids == sum((part.node_ids for part in parts), ())
            assert joined.arcs == sum((part.arcs for part in parts), ())
            assert joined.balances == {v: d for part in parts for v, d in part.balances.items()}
            grids = [part.integer_view.denominator for part in parts]
            assert joined.integer_view.denominator == math.lcm(*grids)
        assert union(parts[:1]) is parts[0]


class TestComponents:
    def test_same_parts_as_networkx_in_order(self):
        # Stepped along a random cut, a union has parts of every size,
        # isolated nodes among them.
        rng = random.Random(2301)
        for _ in range(60):
            p = disjoint_union([random_problem(rng) for _ in range(rng.randint(1, 3))])
            side = [v for v in p.node_ids if rng.random() < 0.3]
            if 0 < len(side) < len(p.node_ids):
                p = fix_arcs(p, cut_arcs(p, Cut(frozenset(side))), F(1))
            parts = components(p)
            assert [set(nodes) for nodes, _ in parts] == sorted(weak_components(p), key=min)
            for nodes, arcs in parts:
                assert nodes == sorted(nodes)
                assert arcs == [j for j, (tail, _) in enumerate(p.ends) if tail in nodes]


class TestGridStep:
    """`fix_arcs` steps the integer grid; the reference rebuilds it from
    `Fraction`s with an lcm. They must agree exactly, L included."""

    def instances(self, rng):
        for _ in range(150):
            yield random_problem(rng)
            yield disjoint_union(
                [random_problem(rng, max_nodes=5, max_arcs=7) for _ in range(rng.randint(2, 3))]
            )
            yield deep_problem(rng)

    def test_every_stage_equals_the_lcm_build(self, monkeypatch):
        steps = []
        p = None

        def recording(problem, arcs, ratio):
            stage = fix_arcs(problem, arcs, ratio)
            cut = Cut(frozenset(compress(problem.node_ids, arcs.inside)))
            steps.append((p, problem, cut, ratio, stage))
            return stage

        monkeypatch.setattr(balancer, "fix_arcs", recording)
        solved = 0
        for p in self.instances(random.Random(1201)):
            try:
                sol = balanced_flow(p)
            except FatalCutPresent:
                continue
            assert verify_certificate(p, sol).accepted
            solved += 1
        assert solved >= 150
        # Each stage is stepped twice: by the solver and by the verifier.
        assert len(steps) >= 600
        for source, problem, cut, ratio, stage in steps:
            assert stage.integer_view == reference_step(problem, cut, ratio)
            # The stage keeps the validated arcs its cut does not cross.
            given = {a.arc_id: a for a in source.arcs}
            side = cut.source_side
            assert stage.arcs == tuple(
                given[k] for k in problem.arc_ids
                if (given[k].tail in side) == (given[k].head in side)
            )

    def test_uncrossed_cut_leaves_the_view(self):
        rng = random.Random(1202)
        for _ in range(100):
            parts = [random_problem(rng, max_nodes=5, max_arcs=7) for _ in range(2)]
            if rng.random() < 0.5:
                parts[0] = deep_problem(rng)
            p = disjoint_union(parts)
            side = {f"c0_{v}" for v in parts[0].node_ids}
            cut = Cut(frozenset(side))
            ratio = F(rng.randint(1, 10**6), rng.randint(1, 10**4))
            assert reference_step(p, cut, ratio) == p.integer_view
            assert fix_arcs(p, cut_arcs(p, cut), ratio) == p


def strong_components(problem):
    """Each node's strongly connected component, by breadth-first search."""
    successors = {v: [] for v in problem.node_ids}
    for a in problem.arcs:
        successors[a.tail].append(a.head)
    reach = {}
    for v in problem.node_ids:
        seen, queue = {v}, deque([v])
        while queue:
            for w in successors[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach[v] = seen
    return {v: frozenset(w for w in reach[v] if v in reach[w]) for v in problem.node_ids}


class TestEnds:
    """`Problem.ends` holds each arc's endpoint positions on every problem
    built from a validated one: stepped by `fix_arcs`, cut out by `restrict`
    (the solver's blocks and the verifier's), and contracted by
    `has_fatal_cut`. The arcs read off them must be the validated arcs of the
    same ids."""

    def test_ends_are_the_positions_of_the_arc_names(self, monkeypatch):
        # Each problem built, with the validated instance it came from.
        built: dict[str, list] = {"stage": [], "block": [], "contracted": []}
        p = None

        def recorder(kind, build):
            def recorded(*args):
                problem = build(*args)
                built[kind].append((problem, p))
                return problem
            return recorded

        monkeypatch.setattr(balancer, "fix_arcs", recorder("stage", fix_arcs))
        monkeypatch.setattr(balancer, "restrict", recorder("block", restrict))
        probe = gale_hoffman.is_feasible

        def contracted(problem, z):
            built["contracted"].append((problem, p))
            return probe(problem, z)

        monkeypatch.setattr(gale_hoffman, "is_feasible", contracted)
        rng = random.Random(1401)
        for _ in range(150):
            if rng.random() < 0.5:
                p = random_problem(rng)
            else:
                parts = [random_problem(rng, max_nodes=5, max_arcs=7) for _ in range(3)]
                p = disjoint_union(parts[: rng.randint(2, 3)])
            has_fatal_cut(p)
            try:
                verify_certificate(p, balanced_flow(p))
            except FatalCutPresent:
                pass
        for kind, problems in built.items():
            assert len(problems) >= 100, kind
            for problem, source in problems:
                given = {a.arc_id: a for a in source.arcs}
                if kind != "contracted":
                    assert problem.arcs == tuple(given[k] for k in problem.arc_ids), kind
                    continue
                # A contracted node is named by a member of its component.
                component = strong_components(source)
                assert len({component[v] for v in problem.node_ids}) == len(problem.node_ids)
                for arc in problem.arcs:
                    a = given[arc.arc_id]
                    assert arc.capacity == a.capacity
                    assert component[arc.tail] == component[a.tail] != component[a.head]
                    assert component[arc.head] == component[a.head]
        # Blocks and contractions renumber the nodes they keep.
        for kind in ("block", "contracted"):
            assert any(
                q.arcs and len(q.node_ids) < len(source.node_ids) for q, source in built[kind]
            ), kind


class TestNodeBalanceResidual:
    def test_single_arc_exact(self):
        p = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
        assert node_balance_residual(p, Flow({"uw": F(5)})) == {
            "u": F(0),
            "w": F(0),
        }
        assert node_balance_residual(p, Flow({"uw": F(4)})) == {
            "u": F(-1),
            "w": F(1),
        }

    def test_diamond_balanced_flow_is_weakly_feasible(self):
        p = diamond_problem()
        x = Flow({"sa": F(4, 3), "sb": F(8, 3), "at": F(4, 3), "bt": F(8, 3)})
        assert all(r == 0 for r in node_balance_residual(p, x).values())

    def test_key_mismatch(self):
        p = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
        with pytest.raises(KeyMismatch):
            node_balance_residual(p, Flow({"other": F(5)}))


class TestCutStats:
    def test_diamond_sb(self, d4):
        stats = cut_stats(d4, Cut(frozenset(["s", "b"])))
        assert (stats.deficiency, stats.capacity) == (F(4), F(3))
        assert stats.ratio == F(4, 3)
        assert not stats.is_fatal and stats.deficiency > stats.capacity

    def test_fatal_cut(self):
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        stats = cut_stats(p, Cut(frozenset(["w"])))
        assert stats.deficiency == F(1) and stats.capacity == F(0)
        assert stats.is_fatal and stats.ratio is None

    def test_with_flow(self, d4):
        stats = cut_stats(d4, Cut(frozenset(["s"])))
        assert (stats.deficiency, stats.capacity) == (F(4), F(4))
        assert stats.ratio == F(1)

    @pytest.mark.parametrize(
        "side", [[], ["s", "a", "b", "t"], ["s", "zz"], ["zz"], ["s", "a", "b", "t", "zz"]]
    )
    def test_invalid_partition(self, d4, side):
        cut = Cut(frozenset(side))
        with pytest.raises(InvalidPartition):
            cut_stats(d4, cut)

    def test_cut_arcs_match_the_arcs_by_id(self):
        rng = random.Random(1203)
        for _ in range(50):
            p = random_problem(rng, max_nodes=6)
            ids = list(p.node_ids)
            cut = Cut(frozenset(rng.sample(ids, rng.randint(1, len(ids) - 1))))
            inside, kept, forward, reverse = cut_arcs(p, cut)
            assert [p.node_ids[i] for i in range(len(ids)) if inside[i]] == [
                v for v in ids if v in cut.source_side
            ]
            arcs = p.arcs
            assert [arcs[k] for k in forward] == list(forward_arcs(cut, p))
            assert [arcs[k] for k in reverse] == list(reverse_arcs(cut, p))
            assert sorted(kept + forward + reverse) == list(range(len(arcs)))
            assert cut_stats(p, cut, cut_arcs(p, cut)) == cut_stats(p, cut)

    def test_antisymmetry_of_deficiency(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_problem(rng, max_nodes=6)
            ids = list(p.node_ids)
            for _ in range(10):
                k = rng.randint(1, len(ids) - 1)
                side = rng.sample(ids, k)
                fwd = cut_stats(p, Cut(frozenset(side)))
                rev = cut_stats(
                    p, Cut(frozenset(set(ids) - set(side)))
                )
                assert fwd.deficiency == -rev.deficiency

    def test_flow_across_cut_equals_deficiency(self):
        # For weakly feasible x: forward flow minus reverse flow is d_C.
        rng = random.Random(11)
        for _ in range(25):
            p = random_solvable_problem(rng)
            from lexflow import balanced_flow

            x = balanced_flow(p).flow
            ids = list(p.node_ids)
            for _ in range(8):
                k = rng.randint(1, len(ids) - 1)
                cut = Cut(frozenset(rng.sample(ids, k)))
                forward = sum(
                    (x.values[a.arc_id] for a in forward_arcs(cut, p)), F(0)
                )
                reverse = sum(
                    (x.values[a.arc_id] for a in reverse_arcs(cut, p)), F(0)
                )
                assert forward - reverse == cut_stats(p, cut).deficiency

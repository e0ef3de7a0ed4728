"""Domain types: validation, residuals, cut stats, the lexmin comparator."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lexflow import (
    BalanceSumNonzero,
    Cut,
    DuplicateId,
    Flow,
    InvalidPartition,
    KeyMismatch,
    LengthMismatch,
    ModelError,
    NonpositiveCapacity,
    Ordering,
    SelfLoop,
    cut_stats,
    format_rational,
    lexmin_compare,
    node_balance_residual,
    parse_rational,
    validate_problem,
)
from conftest import diamond_problem, random_problem, random_solvable_problem

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


class TestValidateProblem:
    def test_minimal_legal_instance(self):
        p = validate_problem([("u", 5), ("w", -5)], [("uw", "u", "w", 2)])
        assert p.node_ids == ("u", "w")
        assert p.balances["u"] == F(5)
        assert p.arcs[0].capacity == F(2)
        assert p.total_supply == F(5)

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
        stats = cut_stats(d4, Cut.from_source_side(d4, ["s", "b"]))
        assert (stats.deficiency, stats.capacity) == (F(4), F(3))
        assert stats.ratio == F(4, 3)
        assert not stats.is_fatal and stats.is_deficient

    def test_fatal_cut(self):
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        stats = cut_stats(p, Cut.from_source_side(p, ["w"]))
        assert stats.deficiency == F(1) and stats.capacity == F(0)
        assert stats.is_fatal and stats.ratio is None

    def test_with_flow(self, d4):
        x = Flow({"sa": F(4, 3), "sb": F(8, 3), "at": F(4, 3), "bt": F(8, 3)})
        stats = cut_stats(d4, Cut.from_source_side(d4, ["s"]), x)
        assert (stats.deficiency, stats.capacity) == (F(4), F(4))
        assert stats.ratio == F(1) and stats.flow == F(4)

    @pytest.mark.parametrize("side", [[], ["s", "a", "b", "t"], ["s", "zz"]])
    def test_invalid_partition(self, d4, side):
        cut = Cut(frozenset(side), frozenset(d4.node_ids) - frozenset(side))
        with pytest.raises(InvalidPartition):
            cut_stats(d4, cut)

    def test_antisymmetry_of_deficiency(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_problem(rng, max_nodes=6)
            ids = list(p.node_ids)
            for _ in range(10):
                k = rng.randint(1, len(ids) - 1)
                side = rng.sample(ids, k)
                fwd = cut_stats(p, Cut.from_source_side(p, side))
                rev = cut_stats(
                    p, Cut.from_source_side(p, set(ids) - set(side))
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
                cut = Cut.from_source_side(p, rng.sample(ids, k))
                stats = cut_stats(p, cut, x)
                reverse = sum(
                    (x.values[a.arc_id] for a in cut.reverse_arcs(p)), F(0)
                )
                assert stats.flow - reverse == stats.deficiency


def _level_set_order(a, b):
    """Reference comparator straight from the level-set definition."""
    def count_at_or_above(z, vec):
        return sum(1 for x in vec if x >= z)

    for z in sorted(set(a) | set(b), reverse=True):
        ca, cb = count_at_or_above(z, a), count_at_or_above(z, b)
        if ca != cb:
            return Ordering.LESS if ca < cb else Ordering.GREATER
    return Ordering.EQUIVALENT


class TestLexminCompare:
    def test_permutation_is_equivalent(self):
        assert lexmin_compare([F(2), F(1)], [F(1), F(2)]) is Ordering.EQUIVALENT

    def test_second_largest_decides(self):
        assert lexmin_compare([F(2), F(1)], [F(2), F(2)]) is Ordering.LESS

    def test_diamond_vectors(self):
        a = [F(4, 3), F(8, 9), F(2, 3), F(4, 3)]
        b = [F(4, 3), F(4, 3), F(4, 3), F(0)]
        assert lexmin_compare(a, b) is Ordering.LESS
        assert lexmin_compare(b, a) is Ordering.GREATER

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            lexmin_compare([F(1)], [F(1), F(2)])

    @given(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=6),
        st.data(),
    )
    def test_matches_level_set_definition(self, a, data):
        b = data.draw(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=4),
                min_size=len(a),
                max_size=len(a),
            )
        )
        assert lexmin_compare(a, b) is _level_set_order(a, b)

    @given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=6))
    def test_shuffled_copy_is_equivalent(self, a):
        shuffled = list(a)
        random.Random(0).shuffle(shuffled)
        assert lexmin_compare(a, shuffled) is Ordering.EQUIVALENT

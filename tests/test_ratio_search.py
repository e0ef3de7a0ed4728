"""Minmax ratio: Newton and bisection modes, traces, reconstruction helper."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lexflow import (
    FatalCutPresent,
    cut_stats,
    enumerate_cuts,
    is_feasible,
    minmax_ratio,
    minmax_ratio_dichotomy,
    total_integer_capacity,
    validate_problem,
)
from lexflow.ratio_search import _simplest_in_interval
from conftest import random_problem, single_arc_problem

F = Fraction


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

    def test_fatal_cut_raises(self):
        p = validate_problem([("u", -1), ("w", 1)], [("uw", "u", "w", 2)])
        with pytest.raises(FatalCutPresent) as info:
            minmax_ratio(p)
        assert info.value.witness.source_side == frozenset({"w"})

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


class TestSimplestInInterval:
    def all_fractions(self, max_den: int, lo: F, hi: F) -> list[F]:
        out = set()
        for den in range(1, max_den + 1):
            num = (lo.numerator * den) // lo.denominator - 1
            while F(num, den) <= hi:
                if F(num, den) >= lo:
                    out.add(F(num, den))
                num += 1
        return sorted(out)

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_exhaustive_small_intervals(self, lo_open, hi_open):
        rng = random.Random(306)
        for _ in range(300):
            lo = F(rng.randint(-20, 40), rng.randint(1, 8))
            hi = lo + F(rng.randint(0, 30), rng.randint(1, 8))
            if lo == hi and (lo_open or hi_open):
                continue
            got = _simplest_in_interval(lo, hi, lo_open=lo_open, hi_open=hi_open)
            assert (lo < got or (not lo_open and lo == got))
            assert (got < hi or (not hi_open and got == hi))
            # nothing with a smaller denominator fits
            for den in range(1, got.denominator):
                for candidate in self.all_fractions(den, lo, hi):
                    if candidate.denominator > den:
                        continue
                    inside = (lo < candidate or (not lo_open and lo == candidate)) and (
                        candidate < hi or (not hi_open and candidate == hi)
                    )
                    assert not inside, (lo, hi, got, candidate)

    def test_deep_continued_fraction(self):
        # F(k+1)/F(k) = [1; 1, ..., 1] has k continued-fraction terms, far
        # more than the interpreter's default recursion limit.
        a, b = 1, 1
        for _ in range(3100):
            a, b = a + b, a
        x = F(a, b)
        # Every other fraction with denominator at most b is 1/b**2 away.
        gap = F(1, 2 * b * b)
        assert _simplest_in_interval(x - gap, x + gap, lo_open=True, hi_open=True) == x
        assert _simplest_in_interval(x, x, lo_open=False, hi_open=False) == x

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            _simplest_in_interval(F(1), F(1), lo_open=True, hi_open=False)
        with pytest.raises(ValueError):
            _simplest_in_interval(F(2), F(1), lo_open=False, hi_open=False)

"""Exact domain model for transshipment balancing: problems, flows, cuts.

Every numeric quantity is a `fractions.Fraction`, or an integer on a
problem's common-denominator grid (`Problem.integer_view`); the solver path
never touches floating point. Instances are immutable after construction,
so they can be shared freely between threads, and all operations here are
pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

RationalLike = Fraction | int | str

_INTEGER_RATIO = re.compile(r"([+-]?\d+)(?:/(\d+))?")


class ModelError(ValueError):
    """Base class for domain validation failures."""


class BalanceSumNonzero(ModelError):
    """Node balances do not sum to zero."""


class NonpositiveCapacity(ModelError):
    """An arc capacity is zero or negative."""


class SelfLoop(ModelError):
    """An arc starts and ends at the same node."""


class DuplicateId(ModelError):
    """A node or arc identifier occurs more than once."""


class KeyMismatch(ModelError):
    """A flow is not keyed by exactly the problem's arcs."""


class InvalidPartition(ModelError):
    """A cut is not a proper ordered bipartition of the problem's nodes."""


class LengthMismatch(ModelError):
    """Ratio vectors of different lengths cannot be compared."""


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Strings may be integers ("42"), fractions ("5/3"), or finite decimals
    ("0.25"); all are normalized to lowest terms with a positive denominator.
    Floats are rejected because binary floats do not represent decimal input
    exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            try:
                return Fraction(text)
            except ValueError:
                # Fraction reads digits with int(str), which refuses more
                # than sys.get_int_max_str_digits() of them; Decimal does not.
                match = _INTEGER_RATIO.fullmatch(text)
                if match is None:
                    raise
                return Fraction(int(Decimal(match[1])), int(Decimal(match[2] or 1)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"cannot parse rational from {value!r}") from exc
    raise ModelError(
        f"cannot parse rational from {value!r} (quote decimals as strings)"
    )


def format_rational(value: Fraction) -> str:
    """Render in lowest terms as "p/q", or bare "p" when the denominator is 1."""
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _digits(n: int) -> str:
    # str(int) refuses more than sys.get_int_max_str_digits() digits, a
    # process-wide setting; Decimal converts exactly without consulting it.
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


class Ordering(Enum):
    """Outcome of a lexmin comparison of two ratio vectors."""

    LESS = "less"
    EQUIVALENT = "equivalent"
    GREATER = "greater"


@dataclass(frozen=True)
class Arc:
    """Directed arc with a strictly positive capacity."""

    arc_id: str
    tail: str
    head: str
    capacity: Fraction


class IntegerView(NamedTuple):
    """A problem's numbers scaled onto one integer grid.

    `denominator` is the lcm L of every balance and capacity denominator;
    `balances[i]` is L times the balance of node i in node order and
    `capacities[a]` is L times the capacity of arc a in arc order.
    """

    denominator: int
    balances: tuple[int, ...]
    capacities: tuple[int, ...]


@dataclass(frozen=True)
class Problem:
    """A transshipment instance: a digraph with node balances and capacities.

    Balances sum to zero, capacities are positive, parallel arcs are allowed
    and self-loops are not. Node and arc order is the input order; every
    iteration order downstream derives from it, which makes all results
    deterministic. Construct through `validate_problem`.
    """

    node_ids: tuple[str, ...]
    balances: Mapping[str, Fraction]
    arcs: tuple[Arc, ...]

    @cached_property
    def node_position(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.node_ids)}

    @cached_property
    def arc_ids(self) -> tuple[str, ...]:
        return tuple(a.arc_id for a in self.arcs)

    @cached_property
    def arc_by_id(self) -> dict[str, Arc]:
        return {a.arc_id: a for a in self.arcs}

    @cached_property
    def integer_view(self) -> IntegerView:
        """Balances and capacities on one integer grid, computed once.

        Every feasibility probe and cut sum on this problem reads it, so none
        of them needs `Fraction` arithmetic or an lcm of its own.
        """
        balances = [self.balances[v] for v in self.node_ids]
        capacities = [a.capacity for a in self.arcs]
        lcm = math.lcm(*(x.denominator for x in balances + capacities))
        return IntegerView(
            lcm,
            tuple(lcm // x.denominator * x.numerator for x in balances),
            tuple(lcm // x.denominator * x.numerator for x in capacities),
        )

    @cached_property
    def total_supply(self) -> Fraction:
        """Total positive balance; zero exactly when all balances vanish."""
        return sum((d for d in self.balances.values() if d > 0), Fraction(0))

    def ordered_nodes(self, subset: Iterable[str]) -> tuple[str, ...]:
        """Members of `subset` listed in problem node order."""
        members = set(subset)
        return tuple(v for v in self.node_ids if v in members)


@dataclass(frozen=True)
class Flow:
    """Nonnegative per-arc values keyed by arc id."""

    values: Mapping[str, Fraction]

    def ratio_vector(self, problem: Problem) -> tuple[Fraction, ...]:
        """Utilizations value/capacity per arc, in arc input order."""
        return tuple(self.values[a.arc_id] / a.capacity for a in problem.arcs)


@dataclass(frozen=True)
class Cut:
    """Ordered proper bipartition (source_side, sink_side) of the nodes.

    The cut's arc set contains exactly the arcs from source_side to
    sink_side; arcs going the other way are its reverse arcs and do not
    count toward its capacity.
    """

    source_side: frozenset[str]
    sink_side: frozenset[str]

    @classmethod
    def from_source_side(cls, problem: Problem, nodes: Iterable[str]) -> "Cut":
        side = frozenset(nodes)
        return cls(side, frozenset(problem.node_ids) - side)

    def forward_arcs(self, problem: Problem) -> tuple[Arc, ...]:
        return tuple(
            a for a in problem.arcs
            if a.tail in self.source_side and a.head in self.sink_side
        )

    def reverse_arcs(self, problem: Problem) -> tuple[Arc, ...]:
        return tuple(
            a for a in problem.arcs
            if a.tail in self.sink_side and a.head in self.source_side
        )


@dataclass(frozen=True)
class CutStats:
    """Exact aggregates of a cut: deficiency, capacity, optional flow."""

    deficiency: Fraction
    capacity: Fraction
    flow: Fraction | None = None

    @property
    def is_fatal(self) -> bool:
        """Positive deficiency with no outgoing arcs: no weak solution exists."""
        return self.deficiency > 0 and self.capacity == 0

    @property
    def is_deficient(self) -> bool:
        return self.deficiency > self.capacity

    @property
    def ratio(self) -> Fraction | None:
        """deficiency/capacity, or None when the capacity is zero.

        A zero-capacity cut has an infinite ratio if it is fatal and an
        undefined one otherwise; either way it never participates in finite
        maxima, so both cases map to None and `is_fatal` disambiguates.
        """
        if self.capacity == 0:
            return None
        return self.deficiency / self.capacity


def validate_problem(
    nodes: Iterable[tuple[str, RationalLike]] | Mapping[str, RationalLike],
    arcs: Iterable[tuple[str, str, str, RationalLike]],
) -> Problem:
    """Validate and normalize a raw instance description.

    `nodes` holds (id, balance) pairs (or a mapping), `arcs` holds
    (id, tail, head, capacity) tuples; numbers may be ints, Fractions, or
    strings. Input order is preserved and becomes the canonical order.

    Raises DuplicateId, SelfLoop, NonpositiveCapacity, BalanceSumNonzero, or
    plain ModelError for unknown endpoints and malformed numbers.
    """
    node_items = nodes.items() if isinstance(nodes, Mapping) else nodes

    node_ids: list[str] = []
    balances: dict[str, Fraction] = {}
    for node_id, raw in node_items:
        node_id = str(node_id)
        if node_id in balances:
            raise DuplicateId(f"duplicate node id {node_id!r}")
        balances[node_id] = parse_rational(raw)
        node_ids.append(node_id)
    if not node_ids:
        raise ModelError("instance has no nodes")

    built: list[Arc] = []
    seen: set[str] = set()
    for arc_id, tail, head, raw_cap in arcs:
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
        capacity = parse_rational(raw_cap)
        if capacity <= 0:
            raise NonpositiveCapacity(f"arc {arc_id!r} has capacity {capacity}")
        built.append(Arc(arc_id, tail, head, capacity))

    total = sum(balances.values(), Fraction(0))
    if total != 0:
        raise BalanceSumNonzero(f"balances sum to {total}, expected 0")

    return Problem(tuple(node_ids), balances, tuple(built))


def node_balance_residual(problem: Problem, flow: Flow) -> dict[str, Fraction]:
    """Per-node conservation residual: (outflow - inflow) - balance.

    All residuals are zero exactly when `flow` is weakly feasible.
    """
    if set(flow.values) != set(problem.arc_ids):
        raise KeyMismatch("flow keys do not match the problem's arcs")
    residual = {v: -problem.balances[v] for v in problem.node_ids}
    for arc in problem.arcs:
        x = flow.values[arc.arc_id]
        residual[arc.tail] += x
        residual[arc.head] -= x
    return residual


def cut_stats(problem: Problem, cut: Cut, flow: Flow | None = None) -> CutStats:
    """Exact deficiency, capacity, and (when a flow is given) crossing flow."""
    nodes = frozenset(problem.node_ids)
    if (
        not cut.source_side
        or not cut.sink_side
        or cut.source_side & cut.sink_side
        or cut.source_side | cut.sink_side != nodes
    ):
        raise InvalidPartition("cut is not a proper bipartition of the nodes")
    if flow is not None and set(flow.values) != set(problem.arc_ids):
        raise KeyMismatch("flow keys do not match the problem's arcs")

    denominator, balances, capacities = problem.integer_view
    position = problem.node_position
    deficiency = sum(balances[position[v]] for v in cut.source_side)
    capacity = 0
    crossing = Fraction(0) if flow is not None else None
    for arc, c in zip(problem.arcs, capacities):
        if arc.tail in cut.source_side and arc.head in cut.sink_side:
            capacity += c
            if flow is not None:
                crossing += flow.values[arc.arc_id]
    return CutStats(
        Fraction(deficiency, denominator),
        Fraction(capacity, denominator),
        crossing,
    )


def lexmin_compare(
    r1: Sequence[Fraction], r2: Sequence[Fraction]
) -> Ordering:
    """Compare two ratio vectors in the balanced (lexmin) pre-order.

    A vector precedes another when, at the largest threshold where the
    counts of components at or above it differ, it keeps fewer components
    there; this is the same as comparing the descending-sorted vectors
    lexicographically. Vectors that are permutations of each other are
    Equivalent.
    """
    if len(r1) != len(r2):
        raise LengthMismatch(f"vector lengths differ: {len(r1)} vs {len(r2)}")
    a = sorted(r1, reverse=True)
    b = sorted(r2, reverse=True)
    if a == b:
        return Ordering.EQUIVALENT
    return Ordering.LESS if a < b else Ordering.GREATER

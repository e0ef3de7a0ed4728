"""Exact domain model for transshipment balancing: problems, flows, cuts.

A problem's numbers live on one integer grid (`Problem.integer_view`), built
by `validate_problem` and stepped by `fix_arcs`; `fractions.Fraction`s only
enter and leave there. The solver path never touches floating point.
Instances are immutable after construction, so they can be shared freely
between threads, and all operations here are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

RationalLike = Fraction | int | str

# Integers and "p/q" in ASCII digits, read with int() and no Fraction regex.
_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# The forms `Fraction` reads from a string, for the digit-limit fallback.
_INTEGER_RATIO = re.compile(r"([+-]?\d+)/(\d+)")
_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# A short string with a large exponent asks for a huge integer ("1e1000000000"
# is a 415 MB one), so exponents past this bound are refused before parsing.
MAX_DECIMAL_EXPONENT = 100_000
_EXPONENT = re.compile(r"[eE][+-]?([\d_]+)")


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
    """A cut's source side is empty, holds every node, or holds a foreign id."""


class LengthMismatch(ModelError):
    """Ratio vectors of different lengths cannot be compared."""


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Strings may be integers ("42"), fractions ("5/3"), or finite decimals
    with an optional exponent ("0.25", "1e-3"), with any number of digits;
    all are normalized to lowest terms with a positive denominator. A bare
    ASCII integer or "p/q" is read with `int()`, faster than `Fraction(str)`
    and to the same value. An
    exponent may be at most MAX_DECIMAL_EXPONENT in absolute value. Floats
    are rejected because binary floats do not represent decimal input
    exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        plain = _PLAIN_RATIONAL.fullmatch(value)
        if plain is not None:
            try:
                return Fraction(int(plain[1]), int(plain[2] or 1))
            except (ValueError, ZeroDivisionError):
                pass  # past int(str)'s digit limit, or "p/0": the path below decides
        text = value.strip()
        exponent = _EXPONENT.search(text)
        if exponent is not None:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > 6 or int(digits or "0") > MAX_DECIMAL_EXPONENT:
                raise ModelError(
                    f"exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT} in size"
                )
        try:
            try:
                return Fraction(text)
            except ValueError:
                # Fraction reads digits with int(str), which refuses more
                # than sys.get_int_max_str_digits() of them; Decimal does not.
                match = _INTEGER_RATIO.fullmatch(text)
                if match is not None:
                    return Fraction(int(Decimal(match[1])), int(Decimal(match[2])))
                if _DECIMAL.fullmatch(text) is None:
                    raise
                return Fraction(Decimal(text))
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

    `denominator` is a common multiple L of every balance and capacity
    denominator: the least one for a problem built by `validate_problem` or
    `fix_arcs`, and its stage's L for a block cut out by `restrict`.
    `balances[i]` is L times the balance of node i in node order and
    `capacities[a]` is L times the capacity of arc a in arc order. Every cut
    sum on the grid is exact whichever common multiple L is, so every bound
    derived from it (such as `total_integer_capacity`'s separations) holds.
    """

    denominator: int
    balances: tuple[int, ...]
    capacities: tuple[int, ...]


@dataclass(frozen=True)
class Problem:
    """A transshipment instance: a digraph with node balances and capacities.

    Balances, kept only on the grid `integer_view`, sum to zero; capacities
    are positive, parallel arcs are allowed and self-loops are not. Arc k
    joins the node positions `ends[k]` (tail, head). Orders follow the input
    order, so results are deterministic. Construct via `validate_problem`.
    """

    node_ids: tuple[str, ...]
    arcs: tuple[Arc, ...]
    integer_view: IntegerView
    ends: tuple[tuple[int, int], ...]

    @cached_property
    def node_position(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.node_ids)}

    @cached_property
    def arc_ids(self) -> tuple[str, ...]:
        return tuple(a.arc_id for a in self.arcs)

    @cached_property
    def balances(self) -> dict[str, Fraction]:
        denominator, balances, _ = self.integer_view
        return {v: Fraction(d, denominator) for v, d in zip(self.node_ids, balances)}

    @cached_property
    def total_supply(self) -> Fraction:
        """Total positive balance; zero exactly when all balances vanish."""
        denominator, balances, _ = self.integer_view
        return Fraction(sum(d for d in balances if d > 0), denominator)

    def ordered_nodes(self, subset: Iterable[str]) -> tuple[str, ...]:
        """Members of `subset` listed in problem node order."""
        members = set(subset)
        return tuple(v for v in self.node_ids if v in members)

    def side(self, nodes: Iterable[str]) -> bytearray:
        """A mask with 1 at the position of each of `nodes` it has, else 0."""
        mask, position = bytearray(len(self.node_ids)), self.node_position
        for v in nodes:
            if v in position:
                mask[position[v]] = 1
        return mask


@dataclass(frozen=True)
class Flow:
    """Nonnegative per-arc values keyed by arc id."""

    values: Mapping[str, Fraction]

    def ratio_vector(self, problem: Problem) -> tuple[Fraction, ...]:
        """Utilizations value/capacity per arc, in arc input order."""
        return tuple(self.values[a.arc_id] / a.capacity for a in problem.arcs)


@dataclass(frozen=True)
class Cut:
    """A cut, given by its source side; the sink side is the rest.

    Its arcs are those leaving the source side; arcs entering it are its
    reverse arcs and do not count toward its capacity.
    """

    source_side: frozenset[str]

    def forward_arcs(self, problem: Problem) -> tuple[Arc, ...]:
        side = self.source_side
        return tuple(a for a in problem.arcs if a.tail in side and a.head not in side)

    def reverse_arcs(self, problem: Problem) -> tuple[Arc, ...]:
        side = self.source_side
        return tuple(a for a in problem.arcs if a.tail not in side and a.head in side)


@dataclass(frozen=True)
class CutStats:
    """Exact aggregates of a cut: deficiency and capacity."""

    deficiency: Fraction
    capacity: Fraction

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

    balances: dict[str, Fraction] = {}
    for node_id, raw in node_items:
        node_id = str(node_id)
        if node_id in balances:
            raise DuplicateId(f"duplicate node id {node_id!r}")
        balances[node_id] = parse_rational(raw)
    if not balances:
        raise ModelError("instance has no nodes")

    position = dict(zip(balances, range(len(balances))))
    built: list[Arc] = []
    ends: list[tuple[int, int]] = []
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
        if capacity.numerator <= 0:
            raise NonpositiveCapacity(
                f"arc {arc_id!r} has capacity {format_rational(capacity)}"
            )
        built.append(Arc(arc_id, tail, head, capacity))
        ends.append((position[tail], position[head]))

    numbers = [*balances.values(), *(a.capacity for a in built)]
    lcm = math.lcm(*(x.denominator for x in numbers))
    grid = [lcm // x.denominator * x.numerator for x in numbers]
    view = IntegerView(lcm, tuple(grid[: len(balances)]), tuple(grid[len(balances) :]))
    if total := Fraction(sum(view.balances), lcm):
        raise BalanceSumNonzero(f"balances sum to {format_rational(total)}, expected 0")

    return Problem(tuple(balances), tuple(built), view, tuple(ends))


def fix_arcs(problem: Problem, cut: Cut, ratio: Fraction) -> Problem:
    """The next stage after loading `cut`, a proper cut, at `ratio`:
    forward arcs carry ratio × capacity tail to head; crossing arcs are dropped.

    The grid is stepped on the least L without an lcm. With ratio = p/q, the
    numbers on grid q·L are q·x, except each balance with a net forward
    inflow e ≠ 0, t = q·D + p·e. Their gcd is g = gcd(q·h, every t) for
    h = gcd(L, the other balances, the kept capacities), so L' = q·L/g: x
    becomes x/h·f with f = q·h/g, and t becomes t/g.
    """
    denominator, balances, capacities = problem.integer_view
    inside = problem.side(cut.source_side)
    net = [0] * len(balances)
    arcs, ends, kept = [], [], []
    for arc, (tail, head), c in zip(problem.arcs, problem.ends, capacities):
        if inside[tail] == inside[head]:
            arcs.append(arc)
            ends.append((tail, head))
            kept.append(c)
        elif inside[tail]:
            net[tail] -= c
            net[head] += c
    p, q = ratio.numerator, ratio.denominator
    h = math.gcd(denominator, *(d for d, e in zip(balances, net) if not e), *kept)
    moved = {i: q * balances[i] + p * e for i, e in enumerate(net) if e}
    g = math.gcd(q * h, *moved.values())
    f = q * h // g
    if h != 1 or f != 1:
        balances, kept = [d // h * f for d in balances], [c // h * f for c in kept]
    stepped = tuple(moved[i] // g if e else d for i, (d, e) in enumerate(zip(balances, net)))
    view = IntegerView(denominator // h * f, stepped, tuple(kept))
    return Problem(problem.node_ids, tuple(arcs), view, tuple(ends))


def restrict(problem: Problem, nodes: Sequence[int], arcs: Sequence[int]) -> Problem:
    """The sub-problem on the nodes and arcs at the given positions.

    Positions are in `problem`'s node and arc order and stay in that order;
    the arcs must join only the given nodes. The integer view is sliced from
    `problem`'s, on the same grid L, with no gcd or lcm work.
    """
    denominator, balances, capacities = problem.integer_view
    view = IntegerView(
        denominator, tuple(balances[i] for i in nodes), tuple(capacities[k] for k in arcs)
    )
    node_ids = tuple(problem.node_ids[i] for i in nodes)
    index = dict(zip(nodes, range(len(nodes))))
    kept = map(problem.ends.__getitem__, arcs)
    ends = tuple([(index[tail], index[head]) for tail, head in kept])
    return Problem(node_ids, tuple(problem.arcs[k] for k in arcs), view, ends)


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


def cut_stats(problem: Problem, cut: Cut) -> CutStats:
    """Exact deficiency and capacity of `cut`.

    Raises InvalidPartition unless its source side S has 0 < |S| < n and
    holds only the problem's nodes.
    """
    inside = problem.side(cut.source_side)
    if not 0 < len(cut.source_side) == sum(inside) < len(inside):
        raise InvalidPartition("cut is not a proper bipartition of the nodes")
    denominator, balances, capacities = problem.integer_view
    forward = [inside[tail] and not inside[head] for tail, head in problem.ends]
    deficiency, capacity = sum(compress(balances, inside)), sum(compress(capacities, forward))
    return CutStats(Fraction(deficiency, denominator), Fraction(capacity, denominator))


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

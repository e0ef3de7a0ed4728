"""Exact domain model for transshipment balancing: problems, flows, cuts.

A problem's numbers live on one integer grid (`Problem.integer_view`),
written by `validate_problem` straight from the input and stepped by
`step_block`; `fractions.Fraction`s only enter and leave there. The solver
path never touches floating point. Instances are immutable after
construction, so they can be shared freely between threads, and all
operations here are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from typing import Iterable, Mapping, NamedTuple

RationalLike = Fraction | int | str

# Integers and "p/q" in ASCII digits, read with int() and no Fraction regex.
_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# The other number forms a string may take, the same on every Python version:
# "p/q" past int(str)'s digit limit, and decimals with an optional exponent.
_INTEGER_RATIO = re.compile(r"([+-]?[0-9]+)/([0-9]+)")
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?([0-9]+))?")
# A short string with a large exponent asks for a huge integer ("1e1000000000"
# is a 415 MB one), so exponents past this bound are refused before parsing.
MAX_DECIMAL_EXPONENT = 100_000


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


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    A string, once stripped of surrounding whitespace, is an integer ("42"),
    a fraction "p/q" ("-5/3"), or a finite decimal with an optional exponent
    ("0.25", ".5", "1e-3"), in ASCII digits of any number, with an optional
    sign in front; nothing else, `_` and inner spaces included, is a number
    on any Python version. All are normalized to lowest terms with a
    positive denominator. A bare integer or "p/q" is read by
    `_plain_terms`, the fast path. An exponent may be at most
    MAX_DECIMAL_EXPONENT in absolute value. Floats are rejected because
    binary floats do not represent decimal input exactly.
    """
    if isinstance(value, Fraction):
        return value
    terms = _plain_terms(value)
    if terms is not None:
        return Fraction(*terms)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # int(str) refuses more than sys.get_int_max_str_digits() digits, a
        # process-wide setting; Decimal reads any number of them.
        text = value.strip()
        ratio = _INTEGER_RATIO.fullmatch(text)
        if ratio is not None and ratio[2].lstrip("0"):
            return Fraction(int(Decimal(ratio[1])), int(Decimal(ratio[2])))
        decimal = None if ratio else _DECIMAL.fullmatch(text)
        if decimal is not None:
            exponent = (decimal[1] or "").lstrip("0")
            if len(exponent) > 6 or int(exponent or "0") > MAX_DECIMAL_EXPONENT:
                raise ModelError(
                    f"exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT} in size"
                )
            return Fraction(Decimal(text))
        raise ModelError(f"cannot parse rational from {value!r}")
    raise ModelError(
        f"cannot parse rational from {value!r} (quote decimals as strings)"
    )


def _plain_terms(value: RationalLike) -> tuple[int, int] | None:
    """An int, or a bare ASCII integer or "p/q" string, as (numerator,
    denominator) as written, read with int() alone and not yet reduced, so
    that each caller reduces once. None for any other value, for "p/0", and
    past int(str)'s digit limit: `parse_rational` decides those."""
    if type(value) is int:
        return value, 1
    plain = _PLAIN_RATIONAL.fullmatch(value) if type(value) is str else None
    if plain is None:
        return None
    try:
        p, q = int(plain[1]), int(plain[2] or 1)
    except ValueError:
        return None
    return (p, q) if q else None


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
    denominator: the least one for a problem built by `validate_problem`, the
    least one of the whole stepped block for each part `step_block` returns,
    so each of the solver's and the verifier's blocks has a grid of its own.
    `balances[i]` is L times the balance of node i in node order and
    `capacities[a]` is L times the capacity of arc a in arc order; a problem
    keeps its numbers nowhere else. Every cut sum on the grid is exact
    whichever common multiple L is, so every bound derived from it (such as
    `total_integer_capacity`'s separations) holds.
    """

    denominator: int
    balances: tuple[int, ...]
    capacities: tuple[int, ...]


@dataclass(frozen=True)
class Problem:
    """A transshipment instance: a digraph with node balances and capacities.

    Its numbers are kept only on the grid `integer_view`: balances sum to
    zero and capacities are positive. Arc k, named `arc_ids[k]`, joins the
    node positions `ends[k]` (tail, head); parallel arcs are allowed and
    self-loops are not. Orders follow the input order, so results are
    deterministic. `arcs` and `balances` are `Fraction` views built on first
    use, for the oracle and the tests; the solver reads neither. Construct
    via `validate_problem`.
    """

    node_ids: tuple[str, ...]
    arc_ids: tuple[str, ...]
    integer_view: IntegerView
    ends: tuple[tuple[int, int], ...]

    @cached_property
    def node_position(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.node_ids)}

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        node_ids, (denominator, _, capacities) = self.node_ids, self.integer_view
        return tuple(
            Arc(arc_id, node_ids[tail], node_ids[head], Fraction(c, denominator))
            for arc_id, (tail, head), c in zip(self.arc_ids, self.ends, capacities)
        )

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


@dataclass(frozen=True)
class Cut:
    """A cut, given by its source side; the sink side is the rest.

    Its arcs are those leaving the source side; arcs entering it are its
    reverse arcs and do not count toward its capacity.
    """

    source_side: frozenset[str]


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
    def ratio(self) -> Fraction | None:
        """deficiency/capacity, or None when the capacity is zero.

        A zero-capacity cut has an infinite ratio if it is fatal and an
        undefined one otherwise; either way it never participates in finite
        maxima, so both cases map to None and `is_fatal` disambiguates.
        """
        if self.capacity == 0:
            return None
        return self.deficiency / self.capacity


def _lowest_terms(raw: RationalLike) -> tuple[int, int]:
    terms = _plain_terms(raw)
    if terms is None:
        x = parse_rational(raw)
        return x.numerator, x.denominator
    p, q = terms
    if q == 1:
        return terms
    g = math.gcd(p, q)
    return p // g, q // g


def validate_problem(
    nodes: Iterable[tuple[str, RationalLike]] | Mapping[str, RationalLike],
    arcs: Iterable[tuple[str, str, str, RationalLike]],
) -> Problem:
    """Validate and normalize a raw instance description.

    `nodes` holds (id, balance) pairs (or a mapping), `arcs` holds
    (id, tail, head, capacity) tuples; numbers may be ints, Fractions, or
    strings. Input order is preserved and becomes the canonical order.

    Raises DuplicateId, SelfLoop, NonpositiveCapacity, BalanceSumNonzero, or
    plain ModelError for unknown endpoints and malformed numbers. Each number
    is read as (numerator, denominator) in lowest terms, each distinct string
    once per call, and written straight onto the grid of their least common
    denominator.
    """
    node_items = nodes.items() if isinstance(nodes, Mapping) else nodes

    position: dict[str, int] = {}
    terms: list[tuple[int, int]] = []
    # Read each distinct str once per call; only exact strs, as True == 1 and
    # both hash alike, and a list cannot be hashed.
    terms_of = cache(_lowest_terms)
    for node_id, raw in node_items:
        node_id = str(node_id)
        if node_id in position:
            raise DuplicateId(f"duplicate node id {node_id!r}")
        position[node_id] = len(terms)
        terms.append(terms_of(raw) if type(raw) is str else _lowest_terms(raw))
    if not position:
        raise ModelError("instance has no nodes")

    arc_ids: list[str] = []
    ends: list[tuple[int, int]] = []
    seen: set[str] = set()
    for arc_id, tail, head, raw_cap in arcs:
        arc_id, tail, head = str(arc_id), str(tail), str(head)
        if arc_id in seen:
            raise DuplicateId(f"duplicate arc id {arc_id!r}")
        seen.add(arc_id)
        t, h = position.get(tail), position.get(head)
        if t is None:
            raise ModelError(f"arc {arc_id!r} has unknown tail {tail!r}")
        if h is None:
            raise ModelError(f"arc {arc_id!r} has unknown head {head!r}")
        if t == h:
            raise SelfLoop(f"arc {arc_id!r} is a self-loop on {tail!r}")
        p, q = terms_of(raw_cap) if type(raw_cap) is str else _lowest_terms(raw_cap)
        if p <= 0:
            raise NonpositiveCapacity(
                f"arc {arc_id!r} has capacity {format_rational(Fraction(p, q))}"
            )
        terms.append((p, q))
        arc_ids.append(arc_id)
        ends.append((t, h))

    lcm = math.lcm(*{q for _, q in terms})
    grid = [lcm // q * p for p, q in terms]
    n = len(position)
    view = IntegerView(lcm, tuple(grid[:n]), tuple(grid[n:]))
    if total := sum(view.balances):
        raise BalanceSumNonzero(
            f"balances sum to {format_rational(Fraction(total, lcm))}, expected 0"
        )

    return Problem(tuple(position), tuple(arc_ids), view, tuple(ends))


def step_block(
    problem: Problem, arcs: CutArcs, ratio: Fraction
) -> list[tuple[Problem, list[int]]]:
    """The parts of `problem` after loading a proper cut, read as `arcs` =
    `cut_arcs(problem, cut)`, at `ratio`: forward arcs carry ratio × capacity
    tail to head, and crossing arcs are dropped. A part is a weakly connected
    component of the arcs left, one-node parts included, in order of first
    node: a problem on the stepped grid L', with the positions in `problem`
    of its arcs. Parts keep `problem`'s node and arc order.

    The grid is stepped on the least L' without an lcm. With ratio = p/q, the
    numbers on grid q·L are q·x, except each balance with a net forward
    inflow e ≠ 0, t = q·D + p·e. Their gcd is g = gcd(q·h, every t) for
    h = gcd(L, the other balances, the kept capacities), so L' = q·L/g: each
    kept x becomes x/h·f with f = q·h/g, and t becomes t/g.
    """
    denominator, balances, capacities = problem.integer_view
    ends = problem.ends
    _, stay, forward, _ = arcs
    net = [0] * len(balances)
    for k in forward:
        tail, head = ends[k]
        net[tail] -= capacities[k]
        net[head] += capacities[k]
    p, q = ratio.numerator, ratio.denominator
    h = math.gcd(
        denominator, *(d for d, e in zip(balances, net) if not e), *(capacities[k] for k in stay)
    )
    moved = {i: q * balances[i] + p * e for i, e in enumerate(net) if e}
    g = math.gcd(q * h, *moved.values())
    f = q * h // g
    stepped = [moved[i] // g if e else d // h * f for i, (d, e) in enumerate(zip(balances, net))]

    # Union-find on the arcs left; each tree's root is its least node, so
    # label[i] < i except at a root.
    label = list(range(len(balances)))
    for k in stay:
        tail, head = ends[k]
        while label[tail] != tail:
            label[tail] = tail = label[label[tail]]
        while label[head] != head:
            label[head] = head = label[label[head]]
        if tail < head:
            tail, head = head, tail
        label[tail] = head
    # part_of[i] holds the node and arc positions of i's part; local[i] is
    # i's position within it.
    part_of: list[tuple[list[int], list[int]]] = []
    local: list[int] = []
    for i, up in enumerate(label):
        part_of.append(part_of[up] if up < i else ([], []))
        local.append(len(part_of[i][0]))
        part_of[i][0].append(i)
    for k in stay:
        part_of[ends[k][0]][1].append(k)

    node_ids, arc_ids, grid = problem.node_ids, problem.arc_ids, denominator // h * f
    parts = []
    for nodes, kept in (part_of[i] for i, up in enumerate(label) if up == i):
        view = IntegerView(
            grid, tuple([stepped[i] for i in nodes]), tuple([capacities[k] // h * f for k in kept])
        )
        renumbered = [(local[tail], local[head]) for tail, head in map(ends.__getitem__, kept)]
        part = Problem(
            tuple([node_ids[i] for i in nodes]), tuple([arc_ids[k] for k in kept]), view,
            tuple(renumbered),
        )
        parts.append((part, kept))
    return parts


def node_balance_residual(problem: Problem, flow: Flow) -> dict[str, Fraction]:
    """Per-node conservation residual: (outflow - inflow) - balance.

    All residuals are zero exactly when `flow` is weakly feasible.
    """
    if set(flow.values) != set(problem.arc_ids):
        raise KeyMismatch("flow keys do not match the problem's arcs")
    denominator, balances, _ = problem.integer_view
    residual = [Fraction(-d, denominator) for d in balances]
    for arc_id, (tail, head) in zip(problem.arc_ids, problem.ends):
        x = flow.values[arc_id]
        residual[tail] += x
        residual[head] -= x
    return dict(zip(problem.node_ids, residual))


class CutArcs(NamedTuple):
    """A cut read by position: `inside` is `Problem.side` of its source side,
    and `kept`, `forward` and `reverse` hold, in arc order, the positions of
    the arcs within one side, leaving the source side and entering it."""

    inside: bytearray
    kept: list[int]
    forward: list[int]
    reverse: list[int]


def cut_arcs(problem: Problem, cut: Cut) -> CutArcs:
    """`cut`'s mask and arc positions in `problem`, in one pass over its arcs."""
    inside = problem.side(cut.source_side)
    kept: list[int] = []
    forward: list[int] = []
    reverse: list[int] = []
    for k, (tail, head) in enumerate(problem.ends):
        if inside[tail] == inside[head]:
            kept.append(k)
        else:
            (forward if inside[tail] else reverse).append(k)
    return CutArcs(inside, kept, forward, reverse)


def cut_stats(problem: Problem, cut: Cut) -> CutStats:
    """Exact deficiency and capacity of `cut`, read from its side mask in one
    pass over the arcs.

    Raises InvalidPartition unless its source side S has 0 < |S| < n and
    holds only the problem's nodes.
    """
    inside = problem.side(cut.source_side)
    if not 0 < len(cut.source_side) == sum(inside) < len(inside):
        raise InvalidPartition("cut is not a proper bipartition of the nodes")
    denominator, balances, capacities = problem.integer_view
    deficiency = sum(compress(balances, inside))
    capacity = sum(
        c for c, (tail, head) in zip(capacities, problem.ends) if inside[tail] > inside[head]
    )
    return CutStats(Fraction(deficiency, denominator), Fraction(capacity, denominator))

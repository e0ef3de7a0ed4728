"""Seeded instance generators for the three benchmark workloads.

Each workload has a fixed catalog of instances, numbered 0..CATALOG[w]-1.
Catalog entry c is generated from c alone, and its golden digest is stored
in `golden.json`; a run's `--seed` chooses the order in which it visits
the entries (see `pick`), and so which of them it visits twice. Instances are produced as the JSON text that
`lexflow solve` reads, so the benchmark feeds the solver exactly what a CLI
user would.

Nothing here imports lexflow, so the inputs do not depend on the program
under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Catalog sizes: small enough that a 30 s run visits every entry at least
# once even when the host is slow (a grid instance takes up to 2.2 s, a
# deepden one 0.75 s, a oneshot one 2.6 s), so runs with different seeds
# measure the same instances, in different orders.
CATALOG = {"grid": 12, "deepden": 40, "oneshot": 10}

GRID_K = 10
DEEPDEN_N = 40
ONESHOT_N, ONESHOT_M = 2000, 8000

# Distinct primes just above 10**4: denominators for the deepden family.
_PRIMES = [
    p for p in range(10_001, 11_500, 2) if all(p % q for q in range(3, 108, 2))
][:128]


def instance_text(balances: dict[str, Fraction], arcs: list[tuple]) -> str:
    """The canonical JSON instance document, with exact "p/q" strings."""
    return json.dumps(
        {
            "nodes": [{"id": v, "d": str(d)} for v, d in balances.items()],
            "arcs": [
                {"id": a, "tail": t, "head": h, "capacity": str(c)}
                for a, t, h, c in arcs
            ],
        }
    )


def grid(c: int) -> str:
    """k x k grid, both directions between 4-neighbours, k random transfers.

    Capacities and transfer amounts are rationals with denominators <= 7.
    Every cut of a strongly connected grid has outgoing arcs, so no cut is
    fatal and the instance is always weakly solvable.
    """
    rng = random.Random(f"grid:{c}")
    k = GRID_K
    ids = [f"v{r}_{q}" for r in range(k) for q in range(k)]
    arcs = []
    for r in range(k):
        for q in range(k):
            for dr, dq in ((0, 1), (1, 0)):
                if r + dr < k and q + dq < k:
                    u, w = f"v{r}_{q}", f"v{r + dr}_{q + dq}"
                    for tail, head in ((u, w), (w, u)):
                        cap = Fraction(rng.randint(1, 30), rng.randint(1, 7))
                        arcs.append((f"a{len(arcs)}", tail, head, cap))
    balances = {v: Fraction(0) for v in ids}
    for _ in range(k):
        u, w = rng.sample(ids, 2)
        amount = Fraction(rng.randint(1, 60), rng.randint(1, 7))
        balances[u] += amount
        balances[w] -= amount
    return instance_text(balances, arcs)


def deepden(c: int) -> str:
    """Sparse random digraph (m = 4n) with p/q data, q a prime near 10**4.

    As in the criterion-8 generator, balances are induced by a nonnegative
    flow on the generated arcs, so the instance is weakly solvable by
    construction. The distinct prime denominators make the capacities of a
    two-pole network, once scaled to integers, about 2.7 kbit long.
    """
    rng = random.Random(f"deepden:{c}")
    n = DEEPDEN_N
    ids = [f"n{i}" for i in range(n)]
    balances = {v: Fraction(0) for v in ids}
    arcs = []
    for j in range(4 * n):
        tail, head = rng.sample(ids, 2)
        arcs.append(
            (f"e{j}", tail, head, Fraction(rng.randint(1, 10**6), rng.choice(_PRIMES)))
        )
        if rng.random() < 0.7:
            carried = Fraction(rng.randint(0, 10**6), rng.choice(_PRIMES))
            balances[tail] += carried
            balances[head] -= carried
    return instance_text(balances, arcs)


def scale_instance(seed: int, n: int, m: int) -> str:
    """The criterion-8 acceptance generator, at any size.

    Draws from the random stream in exactly the order the acceptance test's
    `_scale_instance` does, so at n=50, m=200 it yields the same instances.
    """
    rng = random.Random(seed)
    ids = [f"n{i}" for i in range(n)]
    denominators = [1, 2, 4, 5, 10, 20, 25, 50, 100]
    arcs = []
    balances = {v: Fraction(0) for v in ids}
    for j in range(m):
        tail, head = rng.sample(ids, 2)
        arcs.append(
            (f"e{j}", tail, head, Fraction(rng.randint(1, 100), rng.choice(denominators)))
        )
        if rng.random() < 0.7:
            carried = Fraction(rng.randint(0, 100), rng.choice(denominators))
            balances[tail] += carried
            balances[head] -= carried
    return instance_text(balances, arcs)


def oneshot(c: int) -> str:
    return scale_instance(1000 + c, ONESHOT_N, ONESHOT_M)


GENERATORS = {"grid": grid, "deepden": deepden, "oneshot": oneshot}


def pick(workload: str, seed: int, count: int) -> list[int]:
    """Catalog entries a run with this seed visits, in order.

    A seeded shuffle of the whole catalog, repeated (reshuffled) if a run
    needs more entries than the catalog holds.
    """
    rng = random.Random(f"{workload}:{seed}")
    size = CATALOG[workload]
    order: list[int] = []
    while len(order) < count:
        order += rng.sample(range(size), size)
    return order[:count]

"""Per-layer spans and counters, recorded from outside the solver.

The lexflow modules import each other with `from .x import y`, so every
consuming module holds its own reference to a function: replacing
`lexflow.maxflow.max_flow` alone would count nothing. `Tracer.install`
therefore replaces the names in each consuming module's namespace, and
`uninstall` puts the originals back. Nothing under `src/` changes.

A span's self time is its duration minus the time covered by the spans it
caused. Bookkeeping done after a span closes (such as summing capacity bit
lengths) is charged to that span's parent as child time, so it inflates no
layer's self time; it does show in the traced pipeline time, which is why
the benchmark reports traced minus untraced pipeline time as the overhead.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable


class Stopwatch:
    """The untraced recorder: inclusive time of the benchmark's own calls.

    Given a `reference.Speed`, it times with the speed's clock and also sums
    each span scaled by the speed sampled during that span into `scaled`.
    """

    def __init__(self, speed: Any = None) -> None:
        self.speed = speed
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.scaled: defaultdict[str, float] = defaultdict(float)

    def timed(self, name: str, fn: Callable, *args: Any) -> Any:
        clock = self.speed.clock if self.speed else time.perf_counter
        since = len(self.speed.samples) if self.speed else 0
        start = clock()
        result = fn(*args)
        elapsed = clock() - start
        self.inclusive[name] += elapsed
        self.scaled[name] += elapsed * (self.speed.factor(since) if self.speed else 1.0)
        return result


class Tracer:
    """Span and counter sink for one traced pass over one instance."""

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, Any]] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []

    def timed(
        self,
        name: str,
        fn: Callable,
        *args: Any,
        count: Callable[[Counter, tuple, Any], None] | None = None,
        **kwargs: Any,
    ) -> Any:
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._children.pop()
            self.calls[name] += 1
            self.inclusive[name] += elapsed
            self.self_time[name] += elapsed - children
        if count is not None:
            count(self.counts, args, result)
        if self._children:
            self._children[-1] += time.perf_counter() - start
        return result

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.timed(name, fn, *args, count=count, **kwargs)

        return traced

    def install(self, api: Any) -> None:
        """Wrap the public layer functions in every namespace that calls them.

        The `cli` namespace is wrapped too, because the benchmark makes its
        top-level calls through it, as the `lexflow` commands do.
        """
        gh, rs, bal, cli = api.gale_hoffman, api.ratio_search, api.balancer, api.cli
        probe = self.wrap("gale_hoffman.is_feasible", gh.is_feasible)
        fatal = self.wrap("gale_hoffman.has_fatal_cut", gh.has_fatal_cut)
        ratio = self.wrap("ratio_search", rs.minmax_ratio, _count_newton_steps)
        cut_stats = self.wrap("model.cut_stats", gh.cut_stats)
        self._patch(gh, "max_flow", self.wrap("maxflow", gh.max_flow, _count_network))
        self._patch(
            gh,
            "build_two_pole",
            self.wrap("gale_hoffman.build_two_pole", gh.build_two_pole, _count_cap_bits),
        )
        for module in (gh, rs, bal):
            self._patch(module, "cut_stats", cut_stats)
        for module in (gh, rs, cli):
            self._patch(module, "is_feasible", probe)
        # Only the verifier calls is_feasible through the balancer namespace.
        self._patch(bal, "is_feasible", self.wrap("balancer.verify_probe", probe))
        for module in (bal, cli):
            self._patch(module, "has_fatal_cut", fatal)
            self._patch(module, "minmax_ratio", ratio)
        self._patch(
            bal, "reduce_problem", self.wrap("balancer.reduce_problem", bal.reduce_problem)
        )

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, module: Any, attr: str, replacement: Callable) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)


def _count_network(counts: Counter, args: tuple, result: Any) -> None:
    network = args[0]
    counts["maxflow.nodes"] += network.num_nodes
    counts["maxflow.arcs"] += len(network.arcs)


def _count_cap_bits(counts: Counter, args: tuple, two_pole: Any) -> None:
    counts["two_pole_cap_bits"] += sum(c.bit_length() for _, _, c in two_pole.network.arcs)


def _count_newton_steps(counts: Counter, args: tuple, result: Any) -> None:
    counts["newton_steps"] += len(result.steps) + 1

"""Spans around the public functions of each `pdp` layer, for the traced run.

Each listed function is wrapped where its callers look it up: every
`pdp.*` module attribute bound to the original function is rebound to the
wrapper, so `pdp.designer.is_feasible` and `pdp.game.competitive_solve`
are traced in the modules that call them.  Nothing under `src/` is edited.
A call is one span with a parent; a layer's self time is its spans'
durations minus the time covered by their child spans.  Spans are kept in
memory in flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from array import array

# (module, function, layer): the layer names the per-layer metrics.
LAYERS = (
    ("cli", "main", "cli.self"),
    ("cli", "parse_instance", "cli.parse"),
    ("core", "derived_params", "core.derived_params"),
    ("agent", "greedy_solve", "agent.greedy"),
    ("agent", "greedy_solve_signed", "agent.greedy"),
    ("agent", "agent_oracle", "agent.oracle"),
    ("agent", "is_feasible", "agent.is_feasible"),
    ("designer", "preprocess", "designer.preprocess"),
    ("designer", "fptas_solve", "designer.fptas"),
    ("designer", "designer_oracle", "designer.oracle"),
    ("multiagent", "multi_agent_solve", "multiagent.solve"),
    ("multiagent", "competitive_solve", "multiagent.competitive"),
    ("multiagent", "competitive_profit", "multiagent.competitive_profit"),
    ("multiplatform", "prune_redundant", "multiplatform.prune"),
    ("multiplatform", "multi_greedy_solve", "multiplatform.greedy"),
    ("game", "pure_nash_search", "game.nash"),
    ("game", "best_response_dynamics", "game.dynamics"),
    ("game", "best_response", "game.best_response"),
    ("game", "profile_profit", "game.profile_profit"),
)


def _rss_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _masks(args) -> int:
    """Subsets an exhaustive oracle sweeps for an instance of n petals."""
    return (1 << args[0].n) - 1


class Tracer:
    def __init__(self):
        self.op = 0
        self.names = [layer for _, _, layer in LAYERS]
        self.absent = []
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.counts = {"agent.oracle_masks": 0, "designer.oracle_masks": 0, "designer.fptas_bins": 0}
        self.oracle_peak = 0
        self.derived_params = None
        # One span per call: layer index, parent span (-1 at the root),
        # operation index, start and end in perf_counter_ns.
        self.span_layer = array("b")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []  # [span index, child ns] per open span

    def install(self):
        """Wrap every listed function; returns the wrapped `pdp.cli.main`."""
        modules = {name[4:]: mod for name, mod in sys.modules.items() if name.startswith("pdp.")}
        main = None
        for index, (module, name, layer) in enumerate(LAYERS):
            original = getattr(modules.get(module), name, None)
            if original is None:
                self.absent.append(f"{module}.{name}")
                continue
            if name == "derived_params":
                self.derived_params = original
            wrapper = self._wrap(index, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            if name == "main":
                main = wrapper
        return main

    def _wrap(self, index, fn):
        layer = LAYERS[index][2]
        stack = self._stack
        peak = layer == "designer.oracle"
        masks = "agent.oracle_masks" if layer == "agent.oracle" else "designer.oracle_masks" if peak else None
        bins = layer == "designer.fptas"

        def wrapper(*args, **kwargs):
            span = len(self.span_layer)
            self.span_layer.append(index)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            frame = [span, 0]
            stack.append(frame)
            if peak:
                rss_before = _rss_bytes()
                high_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start = time.perf_counter_ns()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if peak:
                    # A call that raised the high-water mark grew the process
                    # by (new mark - RSS before it); smaller calls cannot
                    # raise it and do not matter for the maximum.
                    high = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    if high > high_before:
                        self.oracle_peak = max(self.oracle_peak, high * 1024 - rss_before)
                stack.pop()
                duration = end - start
                self.self_ns[index] += duration - frame[1]
                self.calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                self.span_end[span] = end
            if masks:
                self.counts[masks] += _masks(args)
            if bins:
                self.counts["designer.fptas_bins"] += getattr(result, "bins", 0) or 0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict:
        """Self time (ms) and call count per layer, plus the layer counters."""
        ms, calls = {}, {}
        for index, layer in enumerate(self.names):
            ms[layer] = ms.get(layer, 0) + self.self_ns[index] / 1e6
            calls[layer] = calls.get(layer, 0) + self.calls[index]
        cache = getattr(self.derived_params, "cache_info", None)
        return {
            "ms": ms,
            "calls": calls,
            "counts": dict(
                self.counts,
                **{
                    "designer.oracle_peak_mb": self.oracle_peak / 2**20,
                    "core.derived_params_cache_size": cache().currsize if cache else 0,
                },
            ),
            "absent": self.absent,
            "spans": len(self.span_layer),
        }

    def write(self, path: str) -> None:
        """One tab-separated line per span, in the order spans opened."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tlayer\tstart_ns\tend_ns\n")
            for span, layer in enumerate(self.span_layer):
                fh.write(
                    f"{self.span_op[span]}\t{span}\t{self.span_parent[span]}\t{self.names[layer]}\t"
                    f"{self.span_start[span]}\t{self.span_end[span]}\n"
                )

"""Per-layer tracing of aoi_access from outside the library.

The library binds names with `from ... import`, so one function is
reachable under several module attributes (markov.stationary is also
deadline_queue.stationary and validate.stationary). install() replaces
every attribute that holds a traced function, in every aoi_access
module, with one wrapper per function, and uninstall() puts the
originals back. Spans (name, start, end, parent) stay in memory until
the run writes them out.

A wrapper may take a hook that reads the call's arguments and result
after the span has closed. Hook time is booked as a child of the parent
span, so it lowers no layer's self time; it shows in tracing.overhead_s.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import weakref
from dataclasses import dataclass, field

import oracle


@dataclass
class Span:
    name: str
    phase: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    phase: str = "setup"
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.phase, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if hook is not None:
                t0 = time.perf_counter()
                hook(span, args, kwargs, result)
                if span.parent >= 0:
                    self.spans[span.parent].child_s += time.perf_counter() - t0
            return result

        return traced

    def install(self, targets: dict) -> None:
        """targets maps 'module.function' to a hook or None."""
        wrappers = {}
        for qualified, hook in targets.items():
            module_name, fn_name = qualified.rsplit(".", 1)
            fn = getattr(sys.modules[f"aoi_access.{module_name}"], fn_name)
            wrappers[id(fn)] = (fn, self.wrap(qualified, fn, hook))
        for module_name, module in list(sys.modules.items()):
            if module_name != "aoi_access" and not module_name.startswith("aoi_access."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self, phase: str) -> dict:
        totals: dict = {}
        for span in self.spans:
            if span.phase == phase:
                totals[span.name] = totals.get(span.name, 0.0) + span.self_s
        return totals

    def calls(self, phase: str) -> dict:
        counts: dict = {}
        for span in self.spans:
            if span.phase == phase:
                counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "phase": span.phase, "parent": span.parent,
                    "start": span.start, "end": span.end, "self_s": span.self_s,
                }) + "\n")


# Per-layer metrics, all per traced pass. Each name maps to the function
# whose self time it reports; aoi.self_s sums the aoi module's functions.
SELF_TIMED = (
    "markov.stationary",
    "deadline_queue.build_waiting_time_matrix",
    "deadline_queue.queue_metrics",
    "deadline_queue.build_2d_action_chain",
    "deadline_queue.verify_lumpability",
    "system.analyze",
    "channel.success_probs",
    "sim.simulate",
    "sim.occupancy_vs_stationary",
    "sim.transition_frequency_check",
    "validate.check_analytical_vs_decoupled",
    "validate.check_lumpability",
    "validate.check_occupancy",
    "validate.check_transitions",
    "results.analytical_row",
    "results.write_csv",
    "results.write_json",
    "scenarios.load_scenario",
)
AOI_FUNCTIONS = ("aoi.average_aoi", "aoi.aoi_violation")
SIM_DEADLINES = (3, 20)


@dataclass
class LayerStats:
    """Counts the hooks gather from traced calls made during passes."""

    states: int = 0
    residual_max: float = 0.0
    matrix_bytes: int = 0
    bytes_written: int = 0
    slots: int = 0
    slots_by_d: dict = field(default_factory=dict)
    self_s_by_d: dict = field(default_factory=dict)


def hooks(stats: LayerStats) -> dict:
    """Wrapper targets for install(), with hooks that fill stats."""
    chain_params = weakref.WeakKeyDictionary()

    def built(span, args, kwargs, matrix):
        p = args[0]
        chain_params[matrix] = (p.arrival_prob, p.service_prob, p.deadline)
        if span.phase == "pass":
            stats.matrix_bytes += matrix.entries.nbytes

    def solved(span, args, kwargs, pi):
        if span.phase != "pass":
            return
        matrix = args[0]
        stats.states += matrix.n
        params = chain_params.get(matrix)
        if params is not None:
            residual = oracle.stationarity_residual(pi.probs, *params)
            stats.residual_max = max(stats.residual_max, residual)

    def simulated(span, args, kwargs, report):
        if span.phase != "pass":
            return
        cfg = args[0]
        slots = cfg.slots * cfg.replications
        d = cfg.params.deadline
        stats.slots += slots
        stats.slots_by_d[d] = stats.slots_by_d.get(d, 0) + slots
        stats.self_s_by_d[d] = stats.self_s_by_d.get(d, 0.0) + span.self_s

    def written(span, args, kwargs, result):
        if span.phase == "pass":
            stats.bytes_written += os.path.getsize(args[0])

    targets = {name: None for name in SELF_TIMED + AOI_FUNCTIONS}
    targets.update({
        "deadline_queue.build_waiting_time_matrix": built,
        "markov.stationary": solved,
        "sim.simulate": simulated,
        "results.write_csv": written,
        "results.write_json": written,
    })
    return targets


def per_layer_metrics(tracer: Tracer, stats: LayerStats, plain: list, traced: list) -> dict:
    n = len(traced)
    self_s = tracer.self_times("pass")
    calls = tracer.calls("pass")
    setup_self_s = tracer.self_times("setup")

    def m(value, unit):
        return {"value": value, "unit": unit}

    out = {f"{name}.self_s": m(self_s.get(name, 0.0) / n, "s") for name in SELF_TIMED}
    out["scenarios.load_scenario.self_s"] = m(
        setup_self_s.get("scenarios.load_scenario", 0.0) + self_s.get("scenarios.load_scenario", 0.0) / n, "s")
    out["aoi.self_s"] = m(sum(self_s.get(name, 0.0) for name in AOI_FUNCTIONS) / n, "s")
    out["markov.stationary.calls"] = m(calls.get("markov.stationary", 0) / n, "count")
    out["markov.stationary.states"] = m(stats.states / n, "count")
    out["markov.stationary.residual_max"] = m(stats.residual_max, "1")
    out["deadline_queue.build_waiting_time_matrix.calls"] = m(
        calls.get("deadline_queue.build_waiting_time_matrix", 0) / n, "count")
    out["deadline_queue.build_waiting_time_matrix.bytes"] = m(stats.matrix_bytes / n, "B")
    out["system.analyze.calls"] = m(calls.get("system.analyze", 0) / n, "count")
    out["sim.simulate.slots"] = m(stats.slots / n, "slots")
    for d in SIM_DEADLINES:
        busy = stats.self_s_by_d.get(d, 0.0)
        out[f"sim.simulate.d{d}.slots_per_s"] = m(stats.slots_by_d.get(d, 0) / busy if busy else 0.0, "slots/s")
    out["results.bytes_written"] = m(stats.bytes_written / n, "B")
    out["tracing.overhead_s"] = m(statistics.median(traced) - statistics.median(plain), "s")
    return out

"""Layer spans recorded from the benchmark's own code.

The traced run wraps the program's public layer entry points at the
place where their callers look them up (``module.name = wrapper``), so
the program runs unchanged apart from one extra Python call per layer
crossing.  Each span records its layer, start, end and parent span;
spans stay in memory and are written out when the run ends.

The program's own ``TraceRecorder`` is deliberately not used: while it
is active the pool runner sends replay down the scalar path, so a traced
run would measure a different program.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Callable
from typing import Any

#: (module or class, attribute, layer): the name is replaced on the
#: module or class its caller looks it up on
SWEEP_TARGETS = (
    ("repro.simulation.runner", "fit_model", "fitting"),
    ("repro.core.schedule", "optimize_interval", "core"),
    ("repro.core.markov:MarkovIntervalModel", "overhead_ratio_batch", "core.pass"),
    ("repro.simulation.runner", "replay_batch", "simulation"),
    ("repro.experiments.study", "mean_ci", "stats"),
    ("repro.experiments.study", "significance_markers", "stats"),
    ("repro.experiments.study:SimulationStudy", "efficiency_table", "stats"),
    ("repro.experiments.study:SimulationStudy", "bandwidth_table", "stats"),
    ("repro.experiments.format:PaperTable", "render", "stats"),
)

SERVE_TARGETS = (
    ("repro.serve.server", "parse_request", "protocol"),
    ("repro.serve.server", "dumps", "protocol.encode"),
    ("repro.serve.batcher:MicroBatcher", "_flush", "batcher"),
    ("repro.serve.batcher", "optimize_intervals_batch", "core"),
    ("repro.core.markov:MarkovIntervalModel", "overhead_ratio_batch", "core.pass"),
)


class SpanRecorder:
    """In-memory spans of one single-threaded process.

    ``spans`` holds ``[layer, start, end, parent_index]`` lists with
    ``time.perf_counter`` times (``CLOCK_MONOTONIC`` on Linux, so they
    compare across processes on one host); ``counts`` holds counters the
    wrappers bump, ``samples`` ``(time, value)`` pairs such as batch
    sizes and queue waits.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self._stack: list[int] = []

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        before: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call; ``before(*args)`` runs
        first, outside the span, to take counts from the arguments."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, at: float, value: float) -> None:
        self.samples.setdefault(name, []).append((at, value))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "samples": self.samples}, fh)


def _hooks(recorder: SpanRecorder) -> dict[str, Callable[..., None]]:
    """Counts taken from a wrapped call's arguments, by attribute name."""

    def replay_batch(items: Any) -> None:
        recorder.count("simulation.segments", sum(len(item.durations) for item in items))

    def flush(batcher: Any) -> None:
        # the queries this flush answers, and how long each waited
        # since submit (``_Pending.enqueued``, a perf_counter stamp)
        now = time.perf_counter()
        pending = batcher._pending
        if pending:
            recorder.sample("batch_size", now, float(len(pending)))
        for item in pending:
            recorder.sample("queue_wait_s", now, now - item.enqueued)

    return {"replay_batch": replay_batch, "_flush": flush}


def install(recorder: SpanRecorder, targets: tuple[tuple[str, str, str], ...]) -> None:
    """Replace every target with a span-recording wrapper."""
    hooks = _hooks(recorder)
    for where, attr, layer in targets:
        module_path, _, cls_name = where.partition(":")
        owner: Any = importlib.import_module(module_path)
        if cls_name:
            owner = getattr(owner, cls_name)
        setattr(owner, attr, recorder.wrap(layer, getattr(owner, attr), hooks.get(attr)))


def self_times(
    spans: list[list[Any]], window: tuple[float, float] | None = None
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per-layer self time, calls and longest single call.

    A span's self time is its duration minus its direct children's; with
    ``window`` only spans starting inside it count.
    """
    child_time = [0.0] * len(spans)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    longest: dict[str, float] = {}
    for i, (layer, start, end, _parent) in enumerate(spans):
        if window is not None and not window[0] <= start < window[1]:
            continue
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[i]
        calls[layer] = calls.get(layer, 0) + 1
        longest[layer] = max(longest.get(layer, 0.0), end - start)
    return self_s, calls, longest

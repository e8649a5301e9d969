"""Overhead benchmark for the event-tracing layer.

The tracing layer inherits the metrics registry's contract: *disabled*
instrumentation is a module-attribute read plus a ``None`` test per
site, and must stay within 1 % of the uninstrumented replay hot path;
*enabled* tracing appends plain dicts to a ring buffer and must stay
within 10 %.  This bench times the trace-replay hot path in all three
states and writes ``BENCH_trace_overhead.json`` (uploaded as a CI
artifact) so both ratios are tracked across commits.

Both states time the same cold-cache work: every replay runs under
``use_solver(cache=False)``.  With the process-global SolverCache on,
the warm-up pass (and any earlier test in the process) fills it, so the
solves cost next to nothing while tracing still records every event at
full cost: the disabled time collapsed, and the ratio followed the
cache's state rather than the cost of tracing.

The in-test assertions are deliberately loose (disabled 1.5x, enabled
3x) -- shared CI runners jitter far more than the real overhead -- the
JSON artifact is the precise record; the checked-in baseline holds the
measured values from a quiet machine.
"""

import json
import time

import numpy as np

from repro.core.optimizer import use_solver
from repro.distributions import Weibull
from repro.obs.tracing import TraceRecorder, disable, use
from repro.simulation import SimulationConfig, simulate_trace

WEIBULL = Weibull(0.43, 3409.0)
N_REPLAYS = 20


def _replay_once(durations):
    cfg = SimulationConfig(checkpoint_cost=110.0, latency=10.0)
    return simulate_trace(WEIBULL, durations, cfg)


def _time_replays(durations) -> float:
    start = time.perf_counter()
    for d in durations:
        _replay_once(d)
    return time.perf_counter() - start


def _measure_disabled_overhead(traces, disabled_s: float) -> tuple[int, float]:
    """The disabled path's true cost: guard evaluations x guard cost.

    Two identical timed runs cannot resolve a sub-1 % delta above run
    jitter, so the disabled overhead is measured directly instead:
    count how many times the hot path evaluates the ``active()`` guard,
    time the guard primitive in isolation, and take the product as a
    fraction of the replay time.
    """
    import repro.core.schedule as schedule_mod
    import repro.simulation.trace_sim as trace_sim_mod

    calls = 0

    def counting_guard():
        nonlocal calls
        calls += 1
        return None

    patched = [
        (trace_sim_mod, trace_sim_mod._trace_active),
        (schedule_mod, schedule_mod._trace_active),
    ]
    try:
        for mod, _ in patched:
            mod._trace_active = counting_guard
        _time_replays(traces)
    finally:
        for mod, original in patched:
            mod._trace_active = original

    from repro.obs.tracing import active

    n_probe = 1_000_000
    start = time.perf_counter()
    for _ in range(n_probe):
        if active() is not None:  # pragma: no cover - tracing is off here
            raise AssertionError
    guard_s = (time.perf_counter() - start) / n_probe
    return calls, (calls * guard_s) / disabled_s if disabled_s > 0 else 0.0


def test_bench_trace_overhead(benchmark):
    rng = np.random.default_rng(7)
    traces = [WEIBULL.sample(60, rng) for _ in range(N_REPLAYS)]

    disable()
    with use_solver(cache=False):
        _time_replays(traces)  # warm every code path before timing
        disabled_s = min(_time_replays(traces) for _ in range(5))

        rec = TraceRecorder()
        with use(rec):
            enabled_s = min(_time_replays(traces) for _ in range(5))

        guard_calls, disabled_fraction = _measure_disabled_overhead(traces, disabled_s)

    assert rec.n_recorded > 0
    cats = {ev["cat"] for ev in rec.events()}
    assert {"replay", "link", "opt"} <= cats

    result = {
        "schema": "repro.bench.trace/1",
        "n_replays": N_REPLAYS * 5,
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "disabled_overhead_budget": 0.01,
        "enabled_overhead_budget": 0.10,
        "disabled_guard_calls_per_run": guard_calls,
        "disabled_overhead_fraction": disabled_fraction,
        "enabled_ratio": enabled_s / disabled_s if disabled_s > 0 else None,
        "n_events_recorded": rec.n_recorded,
        "n_events_dropped": rec.n_dropped,
    }
    with open("BENCH_trace_overhead.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # design targets: <1% disabled, <10% enabled -- the enabled bound is
    # slackened for noisy shared runners (the checked-in baseline holds
    # quiet-machine values); the disabled fraction is jitter-free
    assert disabled_fraction < 0.01
    assert enabled_s <= disabled_s * 3.0

    # register the disabled-path timing with pytest-benchmark so it
    # shows up alongside the other hot-path benches
    disable()
    with use_solver(cache=False):
        benchmark.pedantic(lambda: _time_replays(traces), rounds=3, iterations=1)

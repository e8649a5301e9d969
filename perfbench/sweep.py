"""The ``sweep`` and ``sweep-2proc`` workloads: the fig3 study.

Each repetition runs the Tables 1/3 study on a fresh seed-derived pool
in a fresh program process (``sweep_child.py``), so the solver cache
starts cold every time, as it does for ``repro fig3``.  The harness
waits for each child, then checks a sample of its results against the
repo's independent oracles (``checks.py``).
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from common import TMP, median, program_env
from hostspeed import HostSpeed
from spans import self_times

CHILD = str(Path(__file__).resolve().parent / "sweep_child.py")

#: (machines, observations) of the study: ``repro fig3 --machines 24``
FULL_SIZE = (24, 125)
TINY_SIZE = (3, 40)

#: nominal seconds of one full-size study on a 2-core host; a run makes
#: ``seconds // NOMINAL_SWEEP_S`` repetitions, each on its own pool of
#: the seed, and reports their medians
NOMINAL_SWEEP_S = 12
#: least repetitions per run, by worker count.  The serial study runs on
#: one CPU, whose speed wanders by +-10 % over seconds on a shared host,
#: so it runs three times: the median is not moved by one slow
#: repetition, and the pools' differing solve counts average out.  The
#: fan-out keeps both CPUs busy, which averages them (ten runs of two
#: repetitions spread 0.04 of their median), and a repetition takes up
#: to 18 s, so it runs once.
MIN_REPS = {1: 3, 2: 1}

#: interpreter starts per run that ``setup_s`` is the median of: the
#: repetitions' own starts, topped up with import-only starts
SETUP_STARTS = 3

CHILD_TIMEOUT_S = 150

#: least share of the serial study's traced wall time the layer self
#: times must account for
MIN_COVERAGE = 0.97


def _spawn(argv: list[str]) -> tuple[float, str | None]:
    """Run one child to completion; returns (seconds until it printed
    ``ready``, ``None`` or the tail of its stderr if it failed)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=program_env(),
    )
    try:
        first = proc.stdout.readline() if proc.stdout is not None else ""
        ready = time.perf_counter() - start
        _out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        return ready, f"sweep child failed: {(err or '').strip()[-2000:]}"
    return ready, None


def run_one(
    seed: int, rep: int, size: tuple[int, int], workers: int, tmpdir: str, *, traced: bool
) -> tuple[float, dict[str, Any] | None, dict[str, Any] | None, str | None]:
    """One study repetition: (setup seconds, measurements, spans, error)."""
    out = str(Path(tmpdir) / f"sweep-{rep}-{int(traced)}.json")
    spans_path = str(Path(tmpdir) / f"spans-{rep}.json")
    argv = [
        "--seed", str(seed), "--rep", str(rep),
        "--machines", str(size[0]), "--observations", str(size[1]),
        "--workers", str(workers), "--out", out,
    ]
    if traced:
        argv += ["--spans", spans_path]
    ready, error = _spawn(argv)
    if error is not None:
        return ready, None, None, error
    with open(out) as fh:
        measured = json.load(fh)
    spans = None
    if traced:
        with open(spans_path) as fh:
            spans = json.load(fh)
    return ready, measured, spans, None


def run(seed: int, seconds: int, workers: int, *, trace: bool, tiny: bool) -> dict[str, Any]:
    from checks import check_sweep

    size = TINY_SIZE if tiny else FULL_SIZE
    # a traced run measures the same pool untraced, then traced, so
    # trace.overhead compares like with like
    plan = (
        [(0, False), (0, True)]
        if trace
        else [(rep, False) for rep in range(max(MIN_REPS[workers], seconds // NOMINAL_SWEEP_S))]
    )
    setups: list[float] = []
    runs: list[tuple[int, dict[str, Any]]] = []
    traced_run: tuple[dict[str, Any], dict[str, Any]] | None = None
    notes: list[str] = []
    attempted = failed = 0
    TMP.mkdir(exist_ok=True)
    cpus = os.sched_getaffinity(0)
    if workers == 1:
        # the serial study and the host-speed sampler share one CPU, so
        # the sampler times the CPU the study runs on: a sampler on the
        # other CPU did not follow the study's slow stretches
        os.sched_setaffinity(0, {max(cpus)})
    try:
        with tempfile.TemporaryDirectory(dir=TMP) as tmpdir:
            speed = HostSpeed(Path(tmpdir) / "speed.txt")
            with contextlib.nullcontext() if trace else speed:
                for rep, traced in plan:
                    ready, measured, spans, error = run_one(
                        seed, rep, size, workers, tmpdir, traced=traced
                    )
                    setups.append(ready)
                    attempted += 1
                    if measured is None:
                        failed += 1
                        notes.append(str(error))
                    elif spans is not None:
                        traced_run = (measured, spans)
                    else:
                        runs.append((rep, measured))
                if not trace:
                    for _ in range(SETUP_STARTS - len(plan)):
                        ready, error = _spawn(["--import-only"])
                        attempted += 1
                        if error is None:
                            setups.append(ready)
                        else:
                            failed += 1
                            notes.append(error)
    finally:
        os.sched_setaffinity(0, cpus)
    # the output checks run after every measurement is taken
    for rep, measured in runs:
        a, f, check_notes = check_sweep(seed, rep, size, measured)
        attempted += a
        failed += f
        notes += check_notes
    report: dict[str, Any] = {"attempted": attempted, "failed": failed, "notes": notes}
    if runs and not trace:
        raw = _end_to_end(runs, setups)
        factor = speed.factor()
        report["end_to_end"] = {
            name: value * factor if name in TIMES else value for name, value in raw.items()
        }
        report["reported"] = {
            **{f"{name}.raw": (raw[name], "s") for name in TIMES},
            "host_speed": (factor, "ratio"),
        }
    if traced_run is not None:
        layers = report["per_layer"] = _per_layer(runs, traced_run)
        report["notes"] += _layer_notes(traced_run, workers)
        if workers == 1:
            # conservation: the layers account for the study's wall time
            report["attempted"] += 1
            if layers["trace.coverage"] < MIN_COVERAGE:
                report["failed"] += 1
                report["notes"].append(
                    f"layer self times cover only {layers['trace.coverage']:.1%} "
                    f"of the traced wall time (need {MIN_COVERAGE:.0%})"
                )
    return report


#: the end-to-end metrics that are times, and so scaled to the
#: reference host's speed (see ``hostspeed.py``)
TIMES = ("sweep_s", "cpu_s", "setup_s")


def _end_to_end(runs: list[tuple[int, dict[str, Any]]], setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics in this host's seconds."""
    sweep_s = median([m["wall_s"] for _, m in runs])
    cpu_s = median([m["parent_cpu_s"] + m["worker_cpu_s"] for _, m in runs])
    rss = median([max(m["parent_rss_mb"], m["worker_rss_mb"]) for _, m in runs])
    return {
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss,
        "setup_s": median(setups),
    }


SERVE_LAYER_METRICS = (
    "protocol.parse_us", "protocol.encode_us",
    "batcher.queue_wait_ms.p50", "batcher.queue_wait_ms.p99",
    "batcher.batch_size", "batcher.solves_per_request",
    "server.cpu_us_per_req", "loadgen.lag_p99_ms",
)

#: the layers whose self times must cover the study's wall time
SWEEP_LAYERS = ("fitting", "core", "simulation", "stats")


def _layers(
    measured: dict[str, Any], spans: dict[str, Any]
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Self time, calls and longest call per layer inside the study's
    timed window; ``core`` includes its nested objective passes."""
    self_s, calls, longest = self_times(spans["spans"], tuple(measured["window"]))
    self_s["core"] = self_s.get("core", 0.0) + self_s.pop("core.pass", 0.0)
    return self_s, calls, longest


def _layer_notes(traced_run: tuple[dict[str, Any], dict[str, Any]], workers: int) -> list[str]:
    if workers > 1:
        return [
            "fit, solve and replay spans are recorded in the forked workers and "
            "never return; this workload's layer numbers are runner.* process accounting"
        ]
    measured, spans = traced_run
    self_s, _calls, _longest = _layers(measured, spans)
    shares = sorted(
        ((self_s.get(layer, 0.0) / measured["wall_s"], layer) for layer in SWEEP_LAYERS),
        reverse=True,
    )
    return [
        "layer self-time shares of the traced wall time: "
        + ", ".join(f"{layer} {share:.1%}" for share, layer in shares),
        f"largest self-time layer: {shares[0][1]}",
    ]


def _per_layer(
    runs: list[tuple[int, dict[str, Any]]],
    traced_run: tuple[dict[str, Any], dict[str, Any]],
) -> dict[str, float]:
    measured, spans = traced_run
    self_s, calls, longest = _layers(measured, spans)
    generate_s, _, _ = self_times(spans["spans"])
    lookups = measured["cache_hits"] + measured["cache_misses"]
    solves = measured["cache_misses"]
    return {
        "traces.generate_s": generate_s.get("traces", 0.0),
        "fitting.fit_s": self_s.get("fitting", 0.0),
        "fitting.fits": float(calls.get("fitting", 0)),
        "core.solve_s": self_s["core"],
        "core.solves": float(solves),
        "core.solve_us": 1e6 * self_s["core"] / max(calls.get("core", 0), 1),
        "core.cache_hit_rate": measured["cache_hits"] / lookups if lookups else 0.0,
        "core.passes_per_solve": calls.get("core.pass", 0) / solves if solves else 0.0,
        "core.batch_solve_ms.max": 1e3 * longest.get("core", 0.0),
        "simulation.replay_s": self_s.get("simulation", 0.0),
        "simulation.segments": float(spans["counts"].get("simulation.segments", 0)),
        "stats.tables_s": self_s.get("stats", 0.0),
        "runner.parent_cpu_s": measured["parent_cpu_s"],
        "runner.worker_cpu_s": measured["worker_cpu_s"],
        "trace.coverage": sum(self_s.get(layer, 0.0) for layer in SWEEP_LAYERS)
        / measured["wall_s"],
        "trace.overhead": measured["wall_s"] / runs[0][1]["wall_s"] if runs else 0.0,
        # layers this workload does not run
        **{name: 0.0 for name in SERVE_LAYER_METRICS},
    }

"""Pool-scale simulation sweeps (machines x models x checkpoint costs).

This drives the paper's Figure 3 / Table 1 (efficiency) and Figure 4 /
Table 3 (network load) protocol:

1. for every machine trace, fit the four candidate models to the first
   ``n_train`` observations (the training set);
2. replay the machine's *entire* trace ("a job that begins before the
   first measurement ... and continues to run after the last") once per
   (model, checkpoint cost) pair;
3. aggregate per-machine efficiencies and megabyte counts into the
   per-(model, cost) vectors that the statistics layer turns into means,
   confidence intervals and paired significance tests.

On the vectorized path every machine is fitted first and then all
(machine, model, cost) replays go to one
:func:`~repro.simulation.batch_replay.replay_batch` call, so the
lockstep solver (:mod:`repro.core.lockstep`) advances every schedule of
the sweep at once.  Machines are independent, so the sweep optionally
fans out across processes (``n_workers``): each worker takes one
round-robin shard of the machines and runs the same pipeline on it,
shipping back its results and, when the parent collects them, its
metrics and trace snapshots.  Results are reassembled in machine order,
so a parallel sweep returns exactly what the serial one does.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.schedule import CheckpointSchedule
from repro.distributions.base import AvailabilityDistribution
from repro.distributions.fitting import MODEL_NAMES, fit_model
from repro.obs.metrics import MetricsRegistry, active as _metrics, use as _use_metrics
from repro.obs.tracing import (
    TraceRecorder,
    active as _trace_active,
    use as _use_trace,
)
from repro.simulation.accounting import SimulationConfig, SimulationResult
from repro.simulation.batch_replay import BatchReplayItem, replay_batch
from repro.simulation.trace_sim import simulate_trace, storage_schedule_costs
from repro.traces.model import TRAINING_SET_SIZE, AvailabilityTrace, MachinePool

__all__ = ["PoolSweep", "SweepSettings", "simulate_machine", "simulate_pool"]


@dataclass(frozen=True)
class SweepSettings:
    """Protocol parameters for a pool sweep.

    Attributes
    ----------
    checkpoint_costs:
        The ``C`` values swept on the x-axis (the paper uses
        50..1500 s).
    model_names:
        Candidate models fitted per machine (defaults to the paper's
        four).
    n_train:
        Training-prefix length (the paper's 25).
    replay:
        ``"full"`` replays training+experimental observations (the
        paper's steady-state protocol); ``"experimental"`` replays only
        the held-out suffix.
    base_config:
        Template :class:`SimulationConfig`; its ``checkpoint_cost`` is
        overridden per sweep point.
    em_seed:
        Seed for the hyperexponential EM restarts (per-machine streams
        are derived from it).
    batch_replay:
        Use the vectorized batch replay kernel
        (:mod:`repro.simulation.batch_replay`) for the flat
        (non-storage) path.  The kernel matches the scalar loop to
        <= 1e-9 relative on every result field; set ``False`` to force
        the scalar golden reference.  Storage-backed configs and runs
        with an active trace recorder always take the scalar path,
        which keeps per-event fidelity.
    """

    checkpoint_costs: tuple[float, ...] = (50.0, 100.0, 200.0, 250.0, 400.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0)
    model_names: tuple[str, ...] = MODEL_NAMES
    n_train: int = TRAINING_SET_SIZE
    replay: str = "full"
    base_config: SimulationConfig = SimulationConfig(checkpoint_cost=0.0)
    em_seed: int = 424242
    batch_replay: bool = True

    def __post_init__(self) -> None:
        if not self.checkpoint_costs:
            raise ValueError("at least one checkpoint cost is required")
        if self.replay not in ("full", "experimental"):
            raise ValueError(f"unknown replay mode: {self.replay!r}")


def _fit_machine(
    trace: AvailabilityTrace, settings: SweepSettings
) -> list[tuple[str, AvailabilityDistribution]]:
    """Fit every candidate model to one machine's training prefix.

    All models share one deterministic per-machine EM stream (crc32, not
    ``hash()``: the latter is salted per interpreter) consumed in
    ``model_names`` order, so pool results are reproducible regardless
    of worker scheduling *and* of whether fitting happens in the parent
    or in a worker.
    """
    train, _test = trace.split(settings.n_train)
    machine_key = zlib.crc32(trace.machine_id.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([settings.em_seed, machine_key]))
    return [(name, fit_model(name, train, rng=rng)) for name in settings.model_names]


def _replay_durations(trace: AvailabilityTrace, settings: SweepSettings) -> np.ndarray:
    _train, test = trace.split(settings.n_train)
    return trace.durations if settings.replay == "full" else test


def _batch_eligible(settings: SweepSettings) -> bool:
    """Whether the sweep's replays can take the vectorized kernel.

    The batch kernel covers the flat path only and records no trace
    events, so storage-backed configs and runs with an active recorder
    fall back to the scalar golden reference.
    """
    base = settings.base_config
    return (
        settings.batch_replay
        and not (base.storage is not None and base.checkpoint_size_mb > 0)
        and _trace_active() is None
    )


def _sweep_items(
    dist: AvailabilityDistribution,
    replay: np.ndarray,
    machine_id: str,
    model_name: str,
    settings: SweepSettings,
) -> list[BatchReplayItem]:
    """One batch-replay item per sweep cost for a fitted (machine, model)."""
    items: list[BatchReplayItem] = []
    for cost in settings.checkpoint_costs:
        config = replace(settings.base_config, checkpoint_cost=float(cost))
        schedule = CheckpointSchedule(
            dist,
            storage_schedule_costs(dist, config),
            t_elapsed=0.0,
            converge_rel_tol=config.schedule_converge_rel_tol,
        )
        items.append(
            BatchReplayItem(
                schedule=schedule,
                durations=replay,
                config=config,
                machine_id=machine_id,
                model_name=model_name,
            )
        )
    return items


def _simulate_machines(
    traces: Sequence[AvailabilityTrace], settings: SweepSettings
) -> list[list[SimulationResult]]:
    """Fit and replay a group of machines; one result list per machine.

    On the vectorized path all fits come first and every replay of the
    group is one :func:`replay_batch` call; otherwise each (model, cost)
    runs through the scalar :func:`simulate_trace` loop.
    """
    fitted = [(trace, _fit_machine(trace, settings)) for trace in traces]
    if not _batch_eligible(settings):
        return [
            [
                simulate_trace(
                    dist,
                    _replay_durations(trace, settings),
                    replace(settings.base_config, checkpoint_cost=float(cost)),
                    machine_id=trace.machine_id,
                    model_name=model_name,
                )
                for model_name, dist in fits
                for cost in settings.checkpoint_costs
            ]
            for trace, fits in fitted
        ]
    items: list[BatchReplayItem] = []
    for trace, fits in fitted:
        replay = _replay_durations(trace, settings)
        for model_name, dist in fits:
            items.extend(_sweep_items(dist, replay, trace.machine_id, model_name, settings))
    results = replay_batch(items)
    per = len(settings.model_names) * len(settings.checkpoint_costs)
    return [results[i * per : (i + 1) * per] for i in range(len(fitted))]


def simulate_machine(
    trace: AvailabilityTrace, settings: SweepSettings
) -> list[SimulationResult]:
    """Fit models to one machine's training prefix and run its sweep."""
    return _simulate_machines([trace], settings)[0]


@dataclass(frozen=True)
class PoolSweep:
    """All per-(machine, model, cost) results of one pool sweep."""

    settings: SweepSettings
    results: tuple[SimulationResult, ...]

    def metric_matrix(self, model_name: str, metric: str) -> np.ndarray:
        """``(n_machines, n_costs)`` array of ``metric`` for one model.

        ``metric`` is any numeric attribute/property of
        :class:`SimulationResult` (e.g. ``"efficiency"``, ``"mb_total"``).
        Rows are machines in first-seen order; columns follow
        ``settings.checkpoint_costs``.
        """
        costs = {c: j for j, c in enumerate(self.settings.checkpoint_costs)}
        machines: dict[str, int] = {}
        rows: list[list[float]] = []
        for r in self.results:
            if r.model_name != model_name:
                continue
            if r.machine_id not in machines:
                machines[r.machine_id] = len(rows)
                rows.append([np.nan] * len(costs))
            rows[machines[r.machine_id]][costs[r.checkpoint_cost]] = float(
                getattr(r, metric)
            )
        out = np.asarray(rows, dtype=np.float64)
        if out.size and np.any(np.isnan(out)):
            raise ValueError(f"incomplete sweep for model {model_name!r}")
        return out

    def machines(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for r in self.results:
            seen.setdefault(r.machine_id, None)
        return tuple(seen)


def _shard_star(
    args: tuple[list[AvailabilityTrace], SweepSettings, bool, bool],
) -> tuple[list[list[SimulationResult]], dict[str, Any] | None, dict[str, Any] | None]:
    """Worker entry point: one shard of machines through the serial
    pipeline, plus (when the parent collects them) snapshots of the
    metrics and trace events the work recorded.

    Worker processes do not inherit the parent's registry or recorder,
    so the shard records into private sinks and ships their
    ``as_dict()`` back with the results.
    """
    traces, settings, collect_metrics, collect_trace = args
    metrics_snapshot: dict[str, Any] | None = None
    trace_snapshot: dict[str, Any] | None = None
    if not collect_metrics and not collect_trace:
        return _simulate_machines(traces, settings), None, None
    with _use_metrics() as reg:
        if collect_trace:
            with _use_trace() as rec:
                results = _simulate_machines(traces, settings)
            trace_snapshot = rec.as_dict()
        else:
            results = _simulate_machines(traces, settings)
    if collect_metrics:
        metrics_snapshot = reg.as_dict()
    return results, metrics_snapshot, trace_snapshot


def simulate_pool(
    pool: MachinePool | Sequence[AvailabilityTrace],
    settings: SweepSettings | None = None,
    *,
    n_workers: int | None = None,
) -> PoolSweep:
    """Run the full sweep over a machine pool.

    ``n_workers=None`` or ``1`` runs serially; larger values split the
    machines round-robin into one shard per worker process.  When a
    metrics registry or trace recorder is active (see :mod:`repro.obs`),
    the workers' snapshots are merged back into it, so fan-out is
    invisible in the run report.
    """
    if settings is None:
        settings = SweepSettings()
    traces = list(pool)
    parent_reg: MetricsRegistry | None = _metrics()
    parent_trace: TraceRecorder | None = _trace_active()
    if parent_reg is not None:
        parent_reg.inc("sim.pool.sweeps")
        parent_reg.inc("sim.pool.machines", len(traces))
    n_shards = min(n_workers or 1, len(traces))
    if n_shards <= 1:
        if parent_reg is not None:
            parent_reg.set_gauge("sim.pool.workers", 1)
        per_machine = _simulate_machines(traces, settings)
    else:
        if parent_reg is not None:
            parent_reg.set_gauge("sim.pool.workers", n_shards)
        collect = (parent_reg is not None, parent_trace is not None)
        shards = [traces[i::n_shards] for i in range(n_shards)]
        per_machine = [[] for _ in traces]
        with ProcessPoolExecutor(max_workers=n_shards) as pool_exec:
            futures = [
                pool_exec.submit(_shard_star, (shard, settings, *collect)) for shard in shards
            ]
            # merge in shard order so snapshots fold deterministically
            for i, fut in enumerate(futures):
                chunk, metrics_snapshot, trace_snapshot = fut.result()
                per_machine[i::n_shards] = chunk
                if metrics_snapshot is not None and parent_reg is not None:
                    parent_reg.merge_dict(metrics_snapshot)
                if trace_snapshot is not None and parent_trace is not None:
                    parent_trace.merge_dict(trace_snapshot)
    results = tuple(r for machine in per_machine for r in machine)
    return PoolSweep(settings=settings, results=results)

"""Micro-batched dispatch of concurrent schedule queries.

The daemon's hot path.  Solve requests do not call the optimizer
directly; they are appended to a pending list and answered when the
batch *flushes*, which happens when either

* the **batching window** elapses (an ``asyncio`` timer armed by the
  first query of a burst; default 2 ms), or
* the pending list reaches **max_batch** (back-pressure bound).

At flush time the batch is grouped by *solve identity* -- distribution
fingerprint and cost triple -- and each group is
dispatched through one
:func:`~repro.core.optimizer.optimize_intervals_batch` call: duplicate
ages inside a group collapse to a single solve (the dominant effect for
a pool manager polling a fleet at bucketed uptimes), each distinct age
probes the solver cache once, and the misses cost one scalar hybrid
solve each -- or, eight or more of them, one lockstep call together
(:func:`~repro.core.lockstep.solve_intervals`).  Results are therefore
**bitwise identical** to per-request scalar solves; batching only
changes *when* and *how often* the solver runs, never what it returns.

Solving happens on the event loop, not in a worker thread: the
process-global :class:`~repro.core.solver_cache.SolverCache` and the
metrics registry are single-threaded by design, and a grouped solve is
short (microseconds when cached, a few ms cold; a burst's wide cold
group costs one lockstep call rather than a chain of scalar solves).
The batching window bounds how much solve work a single flush can
accumulate.

Counters: ``serve.batch.count`` / ``serve.batch.size`` /
``serve.batch.groups`` / ``serve.batch.collapsed``; one
``serve``/``batch`` trace span per flush.  The request-lifecycle histograms
(``serve.lifecycle.queue_wait_seconds`` per query,
``serve.lifecycle.batch_group_seconds`` /
``serve.lifecycle.solve_seconds`` per flush) and the tenant-labeled
cache attribution (``serve.tenant.cache.hits`` / ``.misses``: the
solver-cache delta of each group solve, credited to the group's tenant
-- a group is single-tenant unless two pools registered an identical
model + cost set, in which case the head tenant absorbs the shared
delta) are recorded here too, all on sim-time-free wall clocks.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.markov import CheckpointCosts
from repro.core.optimizer import OptimalInterval, optimize_intervals_batch
from repro.core.solver_cache import active_cache
from repro.distributions.base import AvailabilityDistribution
from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active

__all__ = ["BatcherStats", "MicroBatcher", "SolveQuery"]


@dataclass(frozen=True)
class SolveQuery:
    """One schedule query: (model, costs, age).

    ``tenant`` is observability-only: the pool name the query arrived
    under (``"-"`` for inline-model queries).  It labels the per-tenant
    metrics but is deliberately **not** part of :meth:`group_key`, so
    two tenants sharing a model still share one batched solve.
    """

    distribution: AvailabilityDistribution
    costs: CheckpointCosts
    age: float
    tenant: str = "-"

    def __post_init__(self) -> None:
        if self.age < 0:
            raise ValueError(f"age must be non-negative, got {self.age}")

    def group_key(self) -> tuple[Any, ...]:
        """Queries with equal group keys share one batched dispatch."""
        return (
            self.distribution.fingerprint(),
            self.costs.checkpoint,
            self.costs.recovery,
            self.costs.latency,
        )


@dataclass
class BatcherStats:
    """Cumulative dispatch accounting (mirrored into ``serve.batch.*``)."""

    queries: int = 0
    batches: int = 0
    groups: int = 0
    solves: int = 0
    collapsed: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "batches": self.batches,
            "groups": self.groups,
            "solves": self.solves,
            "collapsed": self.collapsed,
            "errors": self.errors,
        }


@dataclass
class _Pending:
    query: SolveQuery
    future: "asyncio.Future[OptimalInterval]" = field(repr=False)
    #: ``time.perf_counter()`` at submit, for the queue-wait histogram
    enqueued: float = 0.0


class MicroBatcher:
    """Collect concurrent solve queries; flush them in grouped batches.

    Parameters
    ----------
    window_s:
        Batching window in seconds.  The timer is armed when the first
        query of a burst arrives, so an isolated query waits at most
        ``window_s`` and a saturating stream flushes continuously.
        ``0`` flushes on the next event-loop tick (still batching
        queries submitted in the same tick).
    max_batch:
        Flush immediately once this many queries are pending.
    clock:
        Returns the trace timestamp for batch spans (seconds since the
        server started, by default since batcher creation).
    """

    def __init__(
        self,
        *,
        window_s: float = 0.002,
        max_batch: int = 256,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"batch window must be >= 0, got {window_s}")
        if max_batch < 1:
            raise ValueError(f"max batch size must be >= 1, got {max_batch}")
        self.window_s = window_s
        self.max_batch = max_batch
        self.stats = BatcherStats()
        self._pending: list[_Pending] = []
        self._timer: asyncio.Task[None] | None = None
        epoch = time.perf_counter()
        self._clock = clock if clock is not None else (lambda: time.perf_counter() - epoch)

    # ------------------------------------------------------------------
    async def submit(self, query: SolveQuery) -> OptimalInterval:
        """Enqueue a query and wait for its batched result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future[OptimalInterval] = loop.create_future()
        self._pending.append(_Pending(query, future, time.perf_counter()))
        self.stats.queries += 1
        if len(self._pending) >= self.max_batch:
            self._cancel_timer()
            self._flush()
        elif self._timer is None:
            self._timer = loop.create_task(self._window())
        return await future

    def drain(self) -> None:
        """Flush whatever is pending right now (shutdown path)."""
        self._cancel_timer()
        self._flush()

    @property
    def pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    async def _window(self) -> None:
        try:
            await asyncio.sleep(self.window_s)
        except asyncio.CancelledError:
            raise
        self._timer = None
        self._flush()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _flush(self) -> None:
        pending, self._pending = self._pending, []
        if not pending:
            return
        reg = _metrics()
        trace = _trace_active()
        started = self._clock()
        wall0 = time.perf_counter()
        if reg is not None:
            for item in pending:
                reg.observe(
                    "serve.lifecycle.queue_wait_seconds", wall0 - item.enqueued
                )

        groups: dict[tuple[Any, ...], list[_Pending]] = {}
        for item in pending:
            groups.setdefault(item.query.group_key(), []).append(item)
        if reg is not None:
            reg.observe(
                "serve.lifecycle.batch_group_seconds", time.perf_counter() - wall0
            )
        cache = active_cache()

        batch_solves = 0
        batch_collapsed = 0
        for items in groups.values():
            head = items[0].query
            ages = [item.query.age for item in items]
            distinct = len(set(ages))
            hits0 = cache.hits if cache is not None else 0
            misses0 = cache.misses if cache is not None else 0
            solve0 = time.perf_counter()
            try:
                results = optimize_intervals_batch(head.distribution, head.costs, ages)
            except Exception as exc:  # reprolint: ignore[RL006] - re-delivered to every waiter via set_exception; the daemon must outlive one bad group
                self.stats.errors += 1
                if reg is not None:
                    reg.inc("serve.batch.errors")
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
                continue
            if reg is not None:
                reg.observe(
                    "serve.lifecycle.solve_seconds", time.perf_counter() - solve0
                )
                if cache is not None:
                    tenant = {"tenant": head.tenant}
                    hit_delta = cache.hits - hits0
                    miss_delta = cache.misses - misses0
                    if hit_delta:
                        reg.inc("serve.tenant.cache.hits", hit_delta, labels=tenant)
                    if miss_delta:
                        reg.inc("serve.tenant.cache.misses", miss_delta, labels=tenant)
            batch_solves += distinct
            batch_collapsed += len(items) - distinct
            for item, result in zip(items, results, strict=True):
                if not item.future.done():
                    item.future.set_result(result)

        self.stats.batches += 1
        self.stats.groups += len(groups)
        self.stats.solves += batch_solves
        self.stats.collapsed += batch_collapsed
        if reg is not None:
            reg.inc("serve.batch.count")
            reg.observe("serve.batch.size", len(pending))
            reg.observe("serve.batch.groups", len(groups))
            if batch_collapsed:
                reg.inc("serve.batch.collapsed", batch_collapsed)
        if trace is not None:
            trace.span(
                "serve",
                "batch",
                started,
                self._clock() - started,
                args={
                    "size": len(pending),
                    "groups": len(groups),
                    "solves": batch_solves,
                    "collapsed": batch_collapsed,
                },
            )

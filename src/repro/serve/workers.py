"""Multi-worker serving: the ``SO_REUSEPORT`` supervisor/worker pool.

``repro serve --workers N`` scales the single-event-loop daemon across
processes without a userspace load balancer: every worker binds the
*same* TCP port with ``SO_REUSEPORT`` and the kernel spreads incoming
connections across the listening sockets.  Each worker runs today's
:class:`~repro.serve.server.ScheduleServer` unchanged -- same batcher,
same solver cache, same protocol -- so served results stay bit-identical
to direct solves no matter which worker answers.

Architecture::

    WorkerPool (supervisor process)
        |-- reserves the shared port (a bound, never-listening
        |   SO_REUSEPORT socket, so port 0 resolves once and the port
        |   cannot be stolen between worker restarts)
        |-- spawns N worker processes ("spawn" context; a Pipe carries
        |   the one-shot ready handshake: pid, bound port, control port)
        |-- monitors liveness: a worker that dies with a non-zero exit
        |   is restarted (``serve.workers.restarts``); exit code 0 means
        |   a deliberate ``shutdown`` op reached that worker, which
        |   stops the whole pool
        |-- merges per-worker solver-cache snapshots into one file on a
        |   timer and at shutdown (see repro.serve.snapshot); workers
        |   warm-boot from the merged file, so an entry solved by any
        |   worker warms every worker after restart
        `-- aggregates telemetry on --metrics-port: /metrics fans a
            scrape out to every worker's control port and merges the
            registries with a ``worker`` label; /health reports
            per-worker and aggregate readiness

    worker process (x N)
        |-- ScheduleServer on the shared port (reuse_port=True)
        |-- a private localhost *control* listener (ephemeral port)
        |   serving the same JSON-lines protocol: the supervisor's
        |   stats/metrics/health fan-in and rolling shutdown use it,
        |   so supervision never competes with client traffic
        `-- per-worker snapshot file (<base>.worker<i>), warm-loaded
            from the merged <base>

Dynamic ``register``/``unregister`` ops apply only to the worker the
kernel routed them to; shared pools belong in ``--pools``/``--demo`` at
boot (documented in docs/SERVING.md).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import sys
import time
from dataclasses import dataclass, field, replace
from typing import IO, TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import active as _metrics
from repro.obs.metrics import disable as _metrics_disable
from repro.obs.metrics import enable as _metrics_enable
from repro.obs.prometheus import render_prometheus
from repro.serve.metrics_http import MetricsHttpEndpoint
from repro.serve.models import distribution_from_spec
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA,
    costs_from_payload,
    dumps,
)
from repro.serve.registry import TenantRegistry
from repro.serve.server import ScheduleServer, ServerConfig
from repro.serve.snapshot import (
    MergeResult,
    merge_snapshot_files,
    record_snapshot_merge,
    worker_snapshot_path,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import SpawnProcess

__all__ = ["WorkerPool", "WorkerPoolConfig"]

#: how long a spawned worker may take to report ready (spawn re-imports
#: the package; CI machines are slow)
_BOOT_TIMEOUT_S = 60.0

#: liveness poll cadence of the supervisor's monitor loop
_MONITOR_INTERVAL_S = 0.2

#: per-op timeout for supervisor -> worker control requests
_CONTROL_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class WorkerPoolConfig:
    """Static configuration of one :class:`WorkerPool`.

    ``server`` is the per-worker template: the supervisor stamps the
    resolved shared port, ``reuse_port``, the per-worker snapshot path
    (``snapshot_path`` is reinterpreted as the *merged* target) and the
    worker index onto it; ``metrics_port`` moves to the supervisor's
    aggregated endpoint.  ``merge_interval_s`` paces the periodic
    snapshot merge; ``restart_backoff_s`` delays each crash restart so
    a boot-crashing worker cannot spin; after ``max_boot_failures``
    consecutive failed boots of one worker slot the pool stops instead
    of looping forever.
    """

    workers: int
    server: ServerConfig = field(default_factory=ServerConfig)
    merge_interval_s: float = 30.0
    restart_backoff_s: float = 0.5
    max_boot_failures: int = 5

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")
        if self.merge_interval_s <= 0:
            raise ValueError(
                f"merge interval must be positive, got {self.merge_interval_s}"
            )
        if self.restart_backoff_s < 0:
            raise ValueError(
                f"restart backoff must be >= 0, got {self.restart_backoff_s}"
            )
        if self.max_boot_failures < 1:
            raise ValueError(
                f"max boot failures must be >= 1, got {self.max_boot_failures}"
            )


# ----------------------------------------------------------------------
# worker process side
# ----------------------------------------------------------------------
def _worker_main(
    index: int,
    config: ServerConfig,
    pool_specs: list[dict[str, Any]],
    conn: "Connection",
) -> None:
    """Entry point of one worker process (the spawn target)."""
    asyncio.run(_worker_async(index, config, pool_specs, conn))


async def _worker_async(
    index: int,
    config: ServerConfig,
    pool_specs: list[dict[str, Any]],
    conn: "Connection",
) -> None:
    _metrics_enable()  # per-worker registry; the supervisor merges them
    registry = TenantRegistry()
    for spec in pool_specs:
        registry.register(
            str(spec["pool"]),
            distribution_from_spec(spec["model"]),
            costs_from_payload(spec["costs"]),
        )
    server = ScheduleServer(config, registry=registry)
    loop = asyncio.get_running_loop()
    # graceful stop on both signals: the supervisor prefers a control-op
    # shutdown but falls back to SIGTERM, and a terminal Ctrl-C reaches
    # the whole process group
    loop.add_signal_handler(signal.SIGTERM, server.request_stop)
    loop.add_signal_handler(signal.SIGINT, server.request_stop)
    await server.start()
    control = await asyncio.start_server(
        server.handle_connection,
        host=config.host,
        port=0,
        limit=MAX_LINE_BYTES + 1024,
        backlog=socket.SOMAXCONN,
    )
    sockets = control.sockets
    control_port = int(sockets[0].getsockname()[1]) if sockets else 0
    await asyncio.to_thread(
        conn.send,
        {
            "ready": True,
            "worker": index,
            "pid": os.getpid(),
            "port": server.port,
            "control_port": control_port,
        },
    )
    conn.close()
    try:
        await server.wait_stopped()
    finally:
        control.close()
        await control.wait_closed()
        # server.stop() EOF-closes any connection (client or control)
        # still parked in readline, then writes the final snapshot
        await server.stop()


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Supervisor-side state of one worker slot."""

    index: int
    process: "SpawnProcess"
    conn: "Connection"
    pid: int | None = None
    control_port: int | None = None
    boot_failures: int = 0


class WorkerPool:
    """The supervisor: spawn, monitor, merge, aggregate, shut down."""

    def __init__(
        self,
        config: WorkerPoolConfig,
        pools: list[dict[str, Any]] | None = None,
        *,
        log: IO[str] | None = None,
    ) -> None:
        self.config = config
        self._pools = pools if pools is not None else []
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: dict[int, _Worker] = {}
        self._reserve: socket.socket | None = None
        self.port: int | None = None
        self.metrics_port: int | None = None
        self.restarts = 0
        self._stop: asyncio.Event | None = None
        self._stopping = False
        self._monitor_task: asyncio.Task[None] | None = None
        self._merge_task: asyncio.Task[None] | None = None
        self._merge_lock = asyncio.Lock()
        self._metrics_endpoint: MetricsHttpEndpoint | None = None
        self._owns_metrics = False
        self._epoch = time.perf_counter()
        self._log = log if log is not None else sys.stderr

    # ------------------------------------------------------------------
    def _say(self, message: str) -> None:
        """One supervisor log line on stderr (bound ports, restarts)."""
        print(f"[repro serve] {message}", file=self._log, flush=True)

    def _alive_count(self) -> int:
        return sum(
            1 for w in self._workers.values() if w.process.exitcode is None
        )

    def _record_alive(self) -> None:
        reg = _metrics()
        if reg is not None:
            reg.set_gauge("serve.workers.alive", self._alive_count())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Reserve the shared port, merge-boot, spawn every worker,
        start the aggregated metrics endpoint and the supervision
        tasks.  Returns once all workers accept connections."""
        if self._reserve is not None:
            raise RuntimeError("worker pool already started")
        self._stop = asyncio.Event()
        self._stopping = False
        if self.config.server.metrics_port is not None and _metrics() is None:
            _metrics_enable()
            self._owns_metrics = True
        server = self.config.server
        self._reserve = _reserve_shared_port(server.host, server.port)
        self.port = int(self._reserve.getsockname()[1])
        merge = await self._merge_snapshots()  # warm boot: fold worker files
        if merge is not None and merge.written:
            self._say(
                f"merged {merge.entries} cache entries from "
                f"{len(merge.merged)} snapshot(s) for warm boot"
            )
        for index in range(self.config.workers):
            started = await self._spawn(index)
            if not started:
                await self.stop()
                raise RuntimeError(f"worker {index} failed to start")
        if server.metrics_port is not None:
            self._metrics_endpoint = MetricsHttpEndpoint(
                host=server.host,
                port=server.metrics_port,
                render_metrics=self._render_merged_metrics,
                render_health=self.aggregate_health,
            )
            await self._metrics_endpoint.start()
            self.metrics_port = self._metrics_endpoint.port
            self._say(
                f"aggregated metrics on "
                f"http://{server.host}:{self.metrics_port}/metrics"
            )
        self._monitor_task = asyncio.ensure_future(self._monitor_loop())
        if server.snapshot_path is not None:
            self._merge_task = asyncio.ensure_future(self._merge_loop())

    async def _spawn(self, index: int) -> bool:
        """Start worker ``index`` and wait for its ready handshake."""
        assert self.port is not None
        base = self.config.server.snapshot_path
        config = replace(
            self.config.server,
            port=self.port,
            reuse_port=True,
            metrics_port=None,
            snapshot_path=None if base is None else worker_snapshot_path(base, index),
            snapshot_source_path=base,
            worker_index=index,
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, config, self._pools, child_conn),
            daemon=True,
        )
        await asyncio.to_thread(process.start)
        child_conn.close()
        previous = self._workers.get(index)
        failures = previous.boot_failures if previous is not None else 0
        worker = _Worker(
            index=index, process=process, conn=parent_conn, boot_failures=failures
        )
        self._workers[index] = worker
        hello = await self._handshake(worker)
        if hello is None:
            worker.boot_failures += 1
            if process.exitcode is None:
                process.terminate()
                await asyncio.to_thread(process.join, 5.0)
            self._say(f"worker {index} failed to report ready")
            return False
        worker.boot_failures = 0
        worker.pid = int(hello.get("pid", 0)) or None
        worker.control_port = int(hello.get("control_port", 0)) or None
        reg = _metrics()
        if reg is not None:
            reg.inc("serve.workers.started")
        self._record_alive()
        # satellite contract: the *actually bound* ports go to stderr at
        # boot (port 0 resolves to an ephemeral assignment)
        self._say(
            f"worker {index} ready: pid {worker.pid}, "
            f"port {hello.get('port')}, control "
            f"{self.config.server.host}:{worker.control_port}"
        )
        return True

    async def _handshake(self, worker: _Worker) -> dict[str, Any] | None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _BOOT_TIMEOUT_S
        while loop.time() < deadline:
            if worker.conn.poll(0):
                try:
                    message = await asyncio.to_thread(worker.conn.recv)
                except (EOFError, OSError):
                    return None
                return message if isinstance(message, dict) else None
            if worker.process.exitcode is not None:
                return None
            await asyncio.sleep(0.05)
        return None

    async def _monitor_loop(self) -> None:
        """Crash detection: restart non-zero exits, treat a clean exit
        as a pool-wide shutdown request (a ``shutdown`` op landed on
        that worker)."""
        while not self._stopping:
            await asyncio.sleep(_MONITOR_INTERVAL_S)
            for worker in list(self._workers.values()):
                code = worker.process.exitcode
                if code is None or self._stopping:
                    continue
                if code == 0:
                    self._say(
                        f"worker {worker.index} exited cleanly; "
                        "stopping the pool"
                    )
                    self.request_stop()
                    return
                self.restarts += 1
                reg = _metrics()
                if reg is not None:
                    reg.inc("serve.workers.restarts")
                self._record_alive()
                self._say(
                    f"worker {worker.index} died (exit {code}); restarting"
                )
                await asyncio.to_thread(worker.process.join, 1.0)
                worker.conn.close()
                if worker.boot_failures >= self.config.max_boot_failures:
                    self._say(
                        f"worker {worker.index} failed "
                        f"{worker.boot_failures} consecutive boots; "
                        "stopping the pool"
                    )
                    self.request_stop()
                    return
                if self.config.restart_backoff_s > 0:
                    await asyncio.sleep(self.config.restart_backoff_s)
                if not self._stopping:
                    await self._spawn(worker.index)

    async def _merge_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.merge_interval_s)
            await self._merge_snapshots()

    async def _merge_snapshots(self) -> MergeResult | None:
        """Fold the merged file plus every per-worker snapshot into the
        merged target (existing merged entries win; all bit-identical)."""
        base = self.config.server.snapshot_path
        if base is None:
            return None
        sources = [base] + [
            worker_snapshot_path(base, index)
            for index in range(self.config.workers)
        ]
        async with self._merge_lock:
            result = await asyncio.to_thread(merge_snapshot_files, sources, base)
        record_snapshot_merge(result)
        for path in result.skipped:
            self._say(f"snapshot merge skipped unreadable {path}")
        return result

    async def wait_stopped(self) -> None:
        """Block until a worker-delivered ``shutdown`` op (or
        :meth:`request_stop`) ends the pool."""
        if self._stop is None:
            raise RuntimeError("worker pool not started")
        await self._stop.wait()

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def stop(self) -> None:
        """Graceful rolling shutdown: stop workers one at a time (each
        EOF-closes its parked connections and writes its final
        per-worker snapshot), then merge snapshots one last time."""
        self._stopping = True
        for task in (self._monitor_task, self._merge_task):
            if task is not None:
                task.cancel()
        self._monitor_task = None
        self._merge_task = None
        for worker in list(self._workers.values()):
            if worker.process.exitcode is None:
                response = await self._control_request(worker, {"op": "shutdown"})
                if response is None and worker.pid is not None:
                    # control channel gone (worker wedged mid-boot or its
                    # listener died): fall back to SIGTERM
                    worker.process.terminate()
                await asyncio.to_thread(worker.process.join, 10.0)
                if worker.process.exitcode is None:
                    worker.process.kill()
                    await asyncio.to_thread(worker.process.join, 5.0)
            worker.conn.close()
        self._record_alive()
        await self._merge_snapshots()
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.stop()
            self._metrics_endpoint = None
            self.metrics_port = None
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        if self._owns_metrics:
            _metrics_disable()
            self._owns_metrics = False
        if self._stop is not None:
            self._stop.set()

    async def serve_forever(self) -> None:
        """The worker-mode daemon main: start, supervise, clean up."""
        await self.start()
        try:
            await self.wait_stopped()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # telemetry fan-in
    # ------------------------------------------------------------------
    async def _control_request(
        self,
        worker: _Worker,
        request: dict[str, Any],
        *,
        timeout: float = _CONTROL_TIMEOUT_S,
    ) -> dict[str, Any] | None:
        """One op over a worker's private control port; ``None`` when
        the worker is unreachable (dead, restarting, or wedged)."""
        if worker.control_port is None or worker.process.exitcode is not None:
            return None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    self.config.server.host, worker.control_port
                ),
                timeout,
            )
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            writer.write((dumps(request) + "\n").encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout)
            if not raw:
                return None
            data = json.loads(raw)
            return data if isinstance(data, dict) else None
        except (OSError, ValueError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.TimeoutError):
                pass

    async def _fan_in(self, op: str) -> dict[int, dict[str, Any]]:
        """The same op to every worker, concurrently; dead workers are
        simply absent from the result."""
        workers = list(self._workers.values())
        responses = await asyncio.gather(
            *(self._control_request(w, {"op": op}) for w in workers)
        )
        return {
            w.index: response
            for w, response in zip(workers, responses, strict=True)
            if response is not None and bool(response.get("ok"))
        }

    async def _render_merged_metrics(self) -> str:
        """``GET /metrics`` body: every worker registry merged with a
        ``worker`` label, plus the supervisor's own (unlabeled) series."""
        merged = MetricsRegistry()
        own = _metrics()
        if own is not None:
            merged.merge_dict(own.as_dict())
        responses = await self._fan_in("metrics")
        for index, response in sorted(responses.items()):
            if response.get("enabled"):
                merged.merge_dict(
                    response["metrics"], extra_labels={"worker": index}
                )
        return render_prometheus(merged)

    async def aggregate_health(self) -> dict[str, Any]:
        """Per-worker and aggregate readiness (the supervisor's
        ``GET /health`` body): ``ok`` only when every configured worker
        answered its health probe."""
        responses = await self._fan_in("health")
        workers: list[dict[str, Any]] = []
        answering = 0
        for index in range(self.config.workers):
            worker = self._workers.get(index)
            response = responses.get(index)
            doc = response.get("health") if response is not None else None
            if doc is not None:
                answering += 1
            workers.append(
                {
                    "worker": index,
                    "pid": worker.pid if worker is not None else None,
                    "alive": (
                        worker.process.exitcode is None
                        if worker is not None
                        else False
                    ),
                    "health": doc,
                }
            )
        return {
            "status": "ok" if answering == self.config.workers else "degraded",
            "schema": PROTOCOL_SCHEMA,
            "uptime_s": time.perf_counter() - self._epoch,
            "port": self.port,
            "metrics_port": self.metrics_port,
            "workers_configured": self.config.workers,
            "workers_answering": answering,
            "restarts": self.restarts,
            "workers": workers,
        }

    async def aggregate_stats(self) -> dict[str, Any]:
        """Per-worker and aggregate ``stats`` views, fanned in over the
        control ports (used by the CLI's shutdown summary, the bench's
        warm-boot hit-rate measurement and the tests)."""
        responses = await self._fan_in("stats")
        per_worker: list[dict[str, Any]] = []
        totals = {"requests": 0, "errors": 0, "rejected": 0}
        cache = {"hits": 0, "misses": 0, "entries": 0}
        warm_loaded = 0
        for index in sorted(responses):
            stats = responses[index].get("stats")
            if not isinstance(stats, dict):
                continue
            per_worker.append(stats)
            for key in totals:
                totals[key] += int(stats.get(key, 0) or 0)
            warm_loaded += int(stats.get("warm_loaded_entries", 0) or 0)
            cache_stats = stats.get("cache")
            if isinstance(cache_stats, dict):
                for key in cache:
                    cache[key] += int(cache_stats.get(key, 0) or 0)
        lookups = cache["hits"] + cache["misses"]
        return {
            "schema": PROTOCOL_SCHEMA,
            "workers_configured": self.config.workers,
            "workers_answering": len(per_worker),
            "restarts": self.restarts,
            "aggregate": {
                **totals,
                "warm_loaded_entries": warm_loaded,
                "cache": {
                    **cache,
                    "hit_rate": cache["hits"] / lookups if lookups else None,
                },
            },
            "workers": per_worker,
        }


def _reserve_shared_port(host: str, port: int) -> socket.socket:
    """Bind (but never listen on) an ``SO_REUSEPORT`` socket.

    Resolves ``port 0`` to one concrete ephemeral port that every
    worker can then bind, and keeps that port owned across worker
    restarts.  Only *listening* sockets receive connections, so the
    reservation never steals traffic from the workers.
    """
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock

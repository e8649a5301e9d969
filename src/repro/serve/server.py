"""The ``repro serve`` daemon: an asyncio schedule-query service.

A single-process, dependency-free asyncio server that turns the
checkpoint-interval optimizer into infrastructure: JSON-lines requests
over TCP (or stdio for tests and scripting), answered through the
micro-batcher so concurrent queries share solver work, with the
process-global solver cache persisted to disk so restarts begin hot.

Layering::

    transport (TCP connections / stdio loop)
        -> ScheduleServer.handle_request   (op dispatch, admin ops)
            -> MicroBatcher.submit         (solve path: batching window)
                -> optimize_intervals_batch (grouped, deduplicated)
                    -> SolverCache          (process-global, snapshotted)

Connections are *pipelined*: each request line spawns its own task and
responses are written as they complete (out of order; clients match on
``id``).  That is what gives the micro-batcher concurrent in-flight
queries to batch even over a single connection.

Metrics (``serve.*``, catalogued in ``docs/OBSERVABILITY.md``) and one
``serve``/``request`` trace span per request report what the daemon is
doing; ``docs/SERVING.md`` documents the protocol and lifecycle.  The
labeled per-tenant series (``serve.tenant.*`` with ``tenant``/``op``
labels), the request-lifecycle histograms (``serve.lifecycle.*``), the
``metrics``/``health`` introspection ops, and the ``--metrics-port``
Prometheus scrape endpoint make the running daemon observable without
restarting it; requests slower than ``slow_request_s`` additionally
emit one structured (JSON) log line on the ``repro.serve`` logger.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import time
from dataclasses import dataclass
from typing import Any, TextIO

from repro.core.solver_cache import active_cache
from repro.obs.metrics import active as _metrics
from repro.obs.metrics import disable as _metrics_disable
from repro.obs.metrics import enable as _metrics_enable
from repro.obs.prometheus import render_prometheus
from repro.obs.tracing import active as _trace_active
from repro.serve.batcher import MicroBatcher, SolveQuery
from repro.serve.models import distribution_from_spec, distribution_to_spec
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA,
    ProtocolError,
    costs_from_payload,
    costs_to_payload,
    dumps,
    error_response,
    interval_to_payload,
    ok_response,
    parse_request,
)
from repro.serve.metrics_http import MetricsHttpEndpoint
from repro.serve.registry import TenantRegistry, UnknownPoolError
from repro.serve.snapshot import (
    SnapshotError,
    apply_snapshot_payload,
    load_cache_snapshot,
    read_snapshot_payload,
    record_snapshot_error,
    record_snapshot_saved,
    save_cache_snapshot,
    snapshot_payload,
    write_snapshot_payload,
)

__all__ = ["ScheduleServer", "ServerConfig"]

#: slow-request structured log lines land here (stdlib logging; the CLI
#: leaves configuration to the operator, so they are silent by default)
_logger = logging.getLogger("repro.serve")

#: response writes skip ``drain()`` until the transport buffer exceeds
#: this many bytes (a slow or stalled client); below it, a response is a
#: single synchronous buffer append
_DRAIN_WATERMARK = 1 << 16


def _request_envelope_of(line: str) -> tuple[Any, str | None]:
    """Best-effort ``(id, op)`` extraction for the backpressure fast
    path: a rejected request still gets its id echoed when the line
    parses (``None`` -- an id-less ``busy`` response -- when it does
    not), and the op decides whether the cap applies at all."""
    try:
        data = json.loads(line)
    except ValueError:
        return None, None
    if not isinstance(data, dict):
        return None, None
    op = data.get("op")
    return data.get("id"), op if isinstance(op, str) else None


@dataclass(frozen=True)
class ServerConfig:
    """Static configuration of one :class:`ScheduleServer`.

    ``port=0`` binds an ephemeral port (the bound port is published as
    :attr:`ScheduleServer.port` once started -- used by tests and the
    in-process bench).  ``snapshot_interval_s`` only matters when
    ``snapshot_path`` is set.  ``metrics_port`` (``None`` = off, ``0``
    = ephemeral) adds the HTTP scrape endpoint; ``slow_request_s`` is
    the structured-log threshold for slow requests.

    Worker-pool fields (see :mod:`repro.serve.workers`):
    ``reuse_port`` binds the listener with ``SO_REUSEPORT`` so several
    worker processes share one TCP port; ``snapshot_source_path`` warm-
    loads from a different file than periodic snapshots write to (a
    worker boots from the pool's *merged* snapshot but persists its own
    per-worker file); ``worker_index`` stamps ``stats``/``health``
    responses so a client can tell which worker answered.
    ``max_inflight`` is the backpressure cap: a ``solve`` request
    arriving while the server already has that many requests in flight
    gets an immediate ``busy`` error response instead of unbounded
    queueing (``None`` = no cap; control-plane ops are never shed, so
    health probes keep answering under saturation).
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window_s: float = 0.002
    max_batch: int = 256
    snapshot_path: str | None = None
    snapshot_interval_s: float = 30.0
    metrics_port: int | None = None
    slow_request_s: float = 1.0
    max_inflight: int | None = None
    reuse_port: bool = False
    snapshot_source_path: str | None = None
    worker_index: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max in-flight cap must be >= 1, got {self.max_inflight}"
            )
        if self.worker_index is not None and self.worker_index < 0:
            raise ValueError(
                f"worker index must be >= 0, got {self.worker_index}"
            )
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError(
                f"metrics port must be in [0, 65535], got {self.metrics_port}"
            )
        if self.slow_request_s <= 0:
            raise ValueError(
                f"slow-request threshold must be positive, got {self.slow_request_s}"
            )
        if self.batch_window_s < 0:
            raise ValueError(f"batch window must be >= 0, got {self.batch_window_s}")
        if self.max_batch < 1:
            raise ValueError(f"max batch must be >= 1, got {self.max_batch}")
        if self.snapshot_interval_s <= 0:
            raise ValueError(
                f"snapshot interval must be positive, got {self.snapshot_interval_s}"
            )


class ScheduleServer:
    """The daemon: registry + batcher + snapshot lifecycle + transports."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        registry: TenantRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.registry = registry if registry is not None else TenantRegistry()
        self._epoch = time.perf_counter()
        self.batcher = MicroBatcher(
            window_s=self.config.batch_window_s,
            max_batch=self.config.max_batch,
            clock=self._now,
        )
        self.port: int | None = None if self.config.port == 0 else self.config.port
        self.metrics_port: int | None = None
        self.requests = 0
        self.errors = 0
        self.rejected = 0
        self._inflight = 0
        self.warm_loaded_entries = 0
        self.op_counts: dict[str, int] = {}
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._snapshot_task: asyncio.Task[None] | None = None
        self._snapshot_lock = asyncio.Lock()
        self._connections: dict[asyncio.Task[None], asyncio.StreamWriter] = {}
        self._metrics_endpoint: MetricsHttpEndpoint | None = None
        self._owns_metrics = False
        self._last_snapshot_wall: float | None = None

    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Wall-clock seconds since the server object was created (the
        trace timeline of the daemon)."""
        return time.perf_counter() - self._epoch

    def warm_load(self) -> int:
        """Load the configured snapshot into the active solver cache.

        Synchronous variant for scripts and tests; the running daemon
        uses :meth:`_warm_load_async` so the disk read happens off-loop.
        Returns the number of entries inserted; a missing or invalid
        snapshot file is a *cold start*, not an error (the daemon logs
        it via ``serve.snapshot.load_failures`` and serves anyway).
        """
        path = self._warm_source()
        if path is None:
            return 0
        try:
            self.warm_loaded_entries = load_cache_snapshot(path)
        except SnapshotError:
            reg = _metrics()
            if reg is not None:
                reg.inc("serve.snapshot.load_failures")
            self.warm_loaded_entries = 0
        return self.warm_loaded_entries

    def _warm_source(self) -> str | None:
        """The file warm loads read: the explicit source path when set
        (worker mode: boot from the pool's merged snapshot), else the
        snapshot path itself."""
        return self.config.snapshot_source_path or self.config.snapshot_path

    async def _warm_load_async(self) -> int:
        """:meth:`warm_load` with the blocking read off the event loop."""
        path = self._warm_source()
        if path is None:
            return 0
        try:
            payload = await asyncio.to_thread(read_snapshot_payload, path)
            self.warm_loaded_entries = apply_snapshot_payload(
                payload, source=f"snapshot {path!r}"
            )
        except SnapshotError:
            reg = _metrics()
            if reg is not None:
                reg.inc("serve.snapshot.load_failures")
            self.warm_loaded_entries = 0
        return self.warm_loaded_entries

    def snapshot_now(self, path: str | None = None) -> int:
        """Write a snapshot to ``path`` (default: the configured path).

        Synchronous variant for scripts and tests; the running daemon
        uses :meth:`_snapshot_async` so the disk write happens off-loop.
        """
        target = self._snapshot_target(path)
        entries = save_cache_snapshot(target)
        self._last_snapshot_wall = time.perf_counter()
        return entries

    def _snapshot_target(self, path: str | None) -> str:
        target = path if path is not None else self.config.snapshot_path
        if target is None:
            raise SnapshotError(
                "no snapshot path configured (start with --snapshot or pass 'path')"
            )
        return target

    async def _snapshot_async(self, path: str | None = None) -> int:
        """Write a snapshot without stalling the event loop.

        The cache view is captured *on* the loop (a consistent snapshot,
        since all mutation happens there too) and the file write runs in
        a worker thread.  The lock serialises concurrent snapshot
        requests so two writers never race on the same temp file.
        """
        target = self._snapshot_target(path)
        async with self._snapshot_lock:
            payload = snapshot_payload()
            try:
                entries = await asyncio.to_thread(
                    write_snapshot_payload, target, payload
                )
            except SnapshotError:
                record_snapshot_error()
                raise
        self._last_snapshot_wall = time.perf_counter()
        record_snapshot_saved(entries)
        return entries

    # ------------------------------------------------------------------
    # request handling (transport-independent)
    # ------------------------------------------------------------------
    async def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Answer one parsed request object."""
        request_id = request.get("id")
        reg = _metrics()
        trace = _trace_active()
        started = self._now()
        self.requests += 1
        if reg is not None:
            reg.inc("serve.requests")
        op = str(request.get("op"))
        op_key = op if op in _OP_COUNTERS else "invalid"
        self.op_counts[op_key] = self.op_counts.get(op_key, 0) + 1
        pool = request.get("pool")
        tenant = pool if isinstance(pool, str) and pool else "-"
        try:
            response = await self._dispatch(op, request, request_id)
        except ProtocolError as exc:
            response = error_response(request_id, exc.code, exc.message)
        except UnknownPoolError as exc:
            response = error_response(request_id, "unknown-pool", str(exc))
        except (ValueError, OverflowError, ArithmeticError) as exc:
            # solver/domain failures: the query was structurally fine but
            # unanswerable (e.g. age beyond the distribution's support)
            response = error_response(request_id, "solver-error", str(exc))
        ok = bool(response.get("ok", False))
        if not ok:
            self.errors += 1
            if reg is not None:
                reg.inc("serve.errors")
        elapsed = self._now() - started
        if reg is not None:
            reg.observe("serve.request_seconds", elapsed)
            reg.inc(f"serve.op.{op}" if op in _OP_COUNTERS else "serve.op.invalid")
            labels = {"tenant": tenant, "op": op_key}
            reg.inc("serve.tenant.requests", labels=labels)
            if not ok:
                reg.inc("serve.tenant.errors", labels=labels)
            reg.observe("serve.tenant.request_seconds", elapsed, labels=labels)
        if elapsed > self.config.slow_request_s:
            if reg is not None:
                reg.inc("serve.requests.slow")
            _logger.warning(
                "%s",
                json.dumps(
                    {
                        "event": "slow_request",
                        "op": op_key,
                        "tenant": tenant,
                        "elapsed_s": round(elapsed, 6),
                        "threshold_s": self.config.slow_request_s,
                        "ok": ok,
                    },
                    sort_keys=True,
                ),
            )
        if trace is not None:
            trace.span(
                "serve",
                "request",
                started,
                elapsed,
                args={"op": op, "ok": ok},
            )
        return response

    async def handle_line(self, line: str) -> dict[str, Any]:
        """Parse one request line and answer it (stdio / test helper)."""
        reg = _metrics()
        parse0 = time.perf_counter()
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.requests += 1
            self.errors += 1
            self.op_counts["invalid"] = self.op_counts.get("invalid", 0) + 1
            if reg is not None:
                reg.observe(
                    "serve.lifecycle.parse_seconds", time.perf_counter() - parse0
                )
                reg.inc("serve.requests")
                reg.inc("serve.errors")
            return error_response(None, exc.code, exc.message)
        if reg is not None:
            reg.observe("serve.lifecycle.parse_seconds", time.perf_counter() - parse0)
        return await self.handle_request(request)

    async def _dispatch(
        self, op: str, request: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        if op == "ping":
            return ok_response(request_id, pong=True, schema=PROTOCOL_SCHEMA)
        if op == "solve":
            return await self._op_solve(request, request_id)
        if op == "register":
            return self._op_register(request, request_id)
        if op == "unregister":
            pool = self._pool_name(request)
            self.registry.unregister(pool)
            return ok_response(request_id, pool=pool, unregistered=True)
        if op == "pools":
            return ok_response(
                request_id,
                pools=[
                    {
                        "pool": entry.name,
                        "model": distribution_to_spec(entry.distribution),
                        "costs": costs_to_payload(entry.costs),
                    }
                    for entry in self.registry.entries()
                ],
            )
        if op == "stats":
            return ok_response(request_id, stats=self.stats())
        if op == "metrics":
            reg = _metrics()
            return ok_response(
                request_id,
                enabled=reg is not None,
                metrics=reg.as_dict()
                if reg is not None
                else {"counters": {}, "gauges": {}, "histograms": {}},
            )
        if op == "health":
            return ok_response(request_id, health=self.health())
        if op == "snapshot":
            path = request.get("path")
            if path is not None and not isinstance(path, str):
                raise ProtocolError("bad-request", "'path' must be a string")
            try:
                entries = await self._snapshot_async(path)
            except SnapshotError as exc:
                return error_response(request_id, "snapshot-failed", str(exc))
            target = path if path is not None else self.config.snapshot_path
            return ok_response(request_id, entries=entries, path=target)
        if op == "shutdown":
            if self._stop is not None:
                self._stop.set()
            return ok_response(request_id, stopping=True)
        raise ProtocolError("unknown-op", f"unknown op {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    @staticmethod
    def _pool_name(request: dict[str, Any]) -> str:
        pool = request.get("pool")
        if not isinstance(pool, str) or not pool:
            raise ProtocolError("bad-request", "'pool' must be a non-empty string")
        return pool

    async def _op_solve(self, request: dict[str, Any], request_id: Any) -> dict[str, Any]:
        age = request.get("age")
        if isinstance(age, bool) or not isinstance(age, int | float):
            raise ProtocolError("bad-request", f"'age' must be numeric, got {age!r}")
        if age < 0:
            raise ProtocolError("bad-request", f"'age' must be non-negative, got {age}")
        pool = request.get("pool")
        model = request.get("model")
        if pool is not None and model is not None:
            raise ProtocolError(
                "bad-request", "give either 'pool' or an inline 'model', not both"
            )
        if pool is not None:
            entry = self.registry.get(self._pool_name(request))
            distribution = entry.distribution
            costs = costs_from_payload(request.get("costs"), entry.costs)
            tenant = entry.name
        elif model is not None:
            try:
                distribution = distribution_from_spec(model)
            except ValueError as exc:
                raise ProtocolError("bad-model", str(exc)) from exc
            costs = costs_from_payload(request.get("costs"))
            tenant = "-"
        else:
            raise ProtocolError(
                "bad-request", "a solve needs a 'pool' name or an inline 'model'"
            )
        query = SolveQuery(
            distribution=distribution, costs=costs, age=float(age), tenant=tenant
        )
        result = await self.batcher.submit(query)
        return ok_response(request_id, result=interval_to_payload(result))

    def _op_register(self, request: dict[str, Any], request_id: Any) -> dict[str, Any]:
        pool = self._pool_name(request)
        model = request.get("model")
        if model is None:
            raise ProtocolError("bad-request", "register needs a 'model' spec")
        try:
            distribution = distribution_from_spec(model)
        except ValueError as exc:
            raise ProtocolError("bad-model", str(exc)) from exc
        costs = costs_from_payload(request.get("costs"))
        replaced = self.registry.register(pool, distribution, costs)
        return ok_response(request_id, pool=pool, replaced=replaced)

    def stats(self) -> dict[str, Any]:
        """The daemon's cumulative accounting (the ``stats`` op body)."""
        cache = active_cache()
        cache_stats: dict[str, Any] = {"enabled": cache is not None}
        if cache is not None:
            lookups = cache.hits + cache.misses
            cache_stats.update(
                entries=len(cache),
                capacity=cache.capacity,
                hits=cache.hits,
                misses=cache.misses,
                evictions=cache.evictions,
                hit_rate=cache.hits / lookups if lookups else None,
            )
        batch = self.batcher.stats
        return {
            "schema": PROTOCOL_SCHEMA,
            "uptime_s": self._now(),
            "worker": self.config.worker_index,
            "port": self.port,
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "ops": dict(sorted(self.op_counts.items())),
            "pools": len(self.registry),
            "batch": batch.as_dict(),
            "solves_per_request": batch.solves / batch.queries if batch.queries else None,
            "cache": cache_stats,
            "warm_loaded_entries": self.warm_loaded_entries,
        }

    def health(self) -> dict[str, Any]:
        """The daemon's readiness document (``health`` op and ``GET
        /health`` body): liveness plus the signals an operator checks
        first -- warm-load state, snapshot age, queue depth."""
        snapshot_age = (
            None
            if self._last_snapshot_wall is None
            else time.perf_counter() - self._last_snapshot_wall
        )
        return {
            "status": "ok",
            "schema": PROTOCOL_SCHEMA,
            "uptime_s": self._now(),
            # the *actually bound* ports: with port 0 (or metrics-port 0)
            # these are the ephemeral assignments, so worker mode can
            # publish what the kernel picked rather than what was asked
            "worker": self.config.worker_index,
            "port": self.port,
            "metrics_port": self.metrics_port,
            "queue_depth": self.batcher.pending,
            "inflight": self._inflight,
            "pools": len(self.registry),
            "warm_loaded_entries": self.warm_loaded_entries,
            "snapshot_configured": self.config.snapshot_path is not None,
            "snapshot_age_s": snapshot_age,
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "metrics_enabled": _metrics() is not None,
        }

    def _render_prometheus(self) -> str:
        """``GET /metrics`` body (empty exposition when disabled)."""
        reg = _metrics()
        return render_prometheus(reg) if reg is not None else ""

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One TCP client: pipelined JSON-lines until EOF."""
        # track the connection so stop() can close the transport under a
        # handler still parked in readline (it then sees EOF and exits;
        # cancelling instead is noisy on 3.11, bpo streams callback)
        current = asyncio.current_task()
        if current is not None:
            self._connections[current] = writer
        reg = _metrics()
        if reg is not None:
            reg.inc("serve.connections.opened")
        drain_lock = asyncio.Lock()
        tasks: set[asyncio.Task[None]] = set()

        async def respond(line: str) -> None:
            response = await self.handle_line(line)
            payload = (dumps(response) + "\n").encode()
            respond0 = time.perf_counter()
            # each response is one complete line in one write() call, so
            # concurrent responders cannot interleave framing; drain only
            # once the transport buffer backs up (a slow client), which
            # keeps the hot path to a single buffer append
            writer.write(payload)
            transport = writer.transport
            if (
                transport is not None
                and transport.get_write_buffer_size() > _DRAIN_WATERMARK
            ):
                async with drain_lock:
                    await writer.drain()
            if reg is not None:
                reg.observe(
                    "serve.lifecycle.respond_seconds",
                    time.perf_counter() - respond0,
                )

        def finish(task: asyncio.Task[None]) -> None:
            tasks.discard(task)
            self._inflight -= 1

        cap = self.config.max_inflight
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # line exceeded the stream limit (MAX_LINE_BYTES);
                    # the framing is lost, so drop the connection
                    break
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                if cap is not None and self._inflight >= cap:
                    # overload: shed the request with a cheap immediate
                    # error instead of queueing without bound (the id is
                    # echoed when the line parses, so pipelined clients
                    # can still match the rejection).  Only ``solve``
                    # requests are shed -- they are what queues in the
                    # batcher; control-plane ops (health, metrics,
                    # stats, shutdown, ...) are answered inline and must
                    # keep working exactly when the server is saturated.
                    rid, op = _request_envelope_of(line)
                    if op == "solve":
                        self.rejected += 1
                        if reg is not None:
                            reg.inc("serve.requests.rejected")
                        busy = error_response(
                            rid,
                            "busy",
                            f"server at max in-flight requests ({cap})",
                        )
                        writer.write((dumps(busy) + "\n").encode())
                        continue
                self._inflight += 1
                task = asyncio.ensure_future(respond(line))
                tasks.add(task)
                task.add_done_callback(finish)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            if current is not None:
                self._connections.pop(current, None)
            if reg is not None:
                reg.inc("serve.connections.closed")
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass  # the client is already gone; nothing left to flush

    async def start(self) -> None:
        """Bind the TCP listener, warm-load the snapshot, start the
        periodic snapshot task.  Returns once the server is accepting."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stop = asyncio.Event()
        if self.config.metrics_port is not None and _metrics() is None:
            # a scrape endpoint without a registry would expose nothing;
            # enable one for the daemon's lifetime (released in stop())
            _metrics_enable()
            self._owns_metrics = True
        await self._warm_load_async()
        self._server = await asyncio.start_server(
            self.handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES + 1024,
            reuse_port=self.config.reuse_port or None,
            # asyncio's default backlog of 100 drops the SYNs of a larger
            # connect burst, and the kernel only retries them after ~1 s
            backlog=socket.SOMAXCONN,
        )
        sockets = self._server.sockets
        if sockets:
            self.port = int(sockets[0].getsockname()[1])
        if self.config.metrics_port is not None:
            self._metrics_endpoint = MetricsHttpEndpoint(
                host=self.config.host,
                port=self.config.metrics_port,
                render_metrics=self._render_prometheus,
                render_health=self.health,
            )
            await self._metrics_endpoint.start()
            self.metrics_port = self._metrics_endpoint.port
        if self.config.snapshot_path is not None:
            self._snapshot_task = asyncio.ensure_future(self._snapshot_loop())

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.snapshot_interval_s)
            try:
                await self._snapshot_async()
            except SnapshotError:
                # already counted via serve.snapshot.errors; a full disk
                # must not kill the serving loop
                continue

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._stop is None:
            raise RuntimeError("server not started")
        await self._stop.wait()

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def stop(self) -> None:
        """Stop accepting, drain the batcher, final snapshot, close."""
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            self._snapshot_task = None
        self.batcher.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            # connections still parked in readline: close their
            # transports (the handlers see EOF and exit) and reap them
            for conn_writer in self._connections.values():
                conn_writer.close()
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        if self.config.snapshot_path is not None:
            try:
                await self._snapshot_async()
            except SnapshotError:
                pass  # counted in serve.snapshot.errors; shutdown proceeds
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.stop()
            self._metrics_endpoint = None
            self.metrics_port = None
        if self._owns_metrics:
            _metrics_disable()
            self._owns_metrics = False
        if self._stop is not None:
            self._stop.set()

    async def serve_forever(self) -> None:
        """The daemon main: start, serve until shutdown, clean up."""
        await self.start()
        try:
            await self.wait_stopped()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    async def run_stdio(self, lines: "Any", out: TextIO) -> int:
        """Serve requests from an iterable of text lines (tests, CLI
        ``--stdio``): strictly sequential, one response line per request.

        Returns the number of requests served.  A ``shutdown`` op ends
        the loop early.
        """
        self._stop = asyncio.Event()
        await self._warm_load_async()
        served = 0
        for line in lines:
            text = line.strip()
            if not text:
                continue
            response = await self.handle_line(text)
            print(dumps(response), file=out, flush=True)
            served += 1
            if self._stop.is_set():
                break
        self.batcher.drain()
        if self.config.snapshot_path is not None:
            try:
                await self._snapshot_async()
            except SnapshotError:
                pass  # counted in serve.snapshot.errors
        return served


#: ops that get a per-op counter (anything else counts as invalid)
_OP_COUNTERS = frozenset(
    (
        "ping",
        "solve",
        "register",
        "unregister",
        "pools",
        "stats",
        "metrics",
        "health",
        "snapshot",
        "shutdown",
    )
)

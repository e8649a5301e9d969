"""Minimal HTTP scrape endpoint for the serving daemon.

``repro serve --metrics-port N`` starts this next to the JSON-lines
listener: a tiny HTTP/1.0-style responder on the same event loop, just
enough surface for a Prometheus scraper and a load-balancer probe --
not a web framework.  Two routes:

* ``GET /metrics``: the process metrics registry in Prometheus text
  exposition format (:func:`~repro.obs.prometheus.render_prometheus`);
* ``GET /health``: the daemon's readiness document as JSON (the same
  body as the ``health`` protocol op).

Anything else is a 404; non-GET methods are a 405.  Connections are
close-after-response, so each scrape is one short-lived task and a
stuck scraper cannot wedge the daemon.  The handlers take callables
(not the server object) so the module stays import-cycle-free; a
render callable may be synchronous (the single-process daemon reads
its own registry) or a coroutine function (the multi-worker supervisor
fans a scrape out to its workers' control ports and merges, so every
scrape sees live per-worker numbers).
"""

from __future__ import annotations

import asyncio
import inspect
import json
import socket
from collections.abc import Awaitable, Callable
from typing import Any, TypeVar, cast

from repro.obs.metrics import active as _metrics

__all__ = ["MetricsHttpEndpoint"]

_T = TypeVar("_T")


async def _resolve(value: "_T | Awaitable[_T]") -> "_T":
    """Await ``value`` when a render callable returned a coroutine."""
    if inspect.isawaitable(value):
        return cast("_T", await value)
    return cast("_T", value)

#: request line + headers must fit in this many bytes (a scrape's GET
#: line is tens of bytes; anything bigger is not a scraper)
_MAX_HEADER_BYTES = 8192


class MetricsHttpEndpoint:
    """The ``--metrics-port`` HTTP listener: ``/metrics`` + ``/health``."""

    def __init__(
        self,
        *,
        host: str,
        port: int,
        render_metrics: Callable[[], str | Awaitable[str]],
        render_health: Callable[[], dict[str, Any] | Awaitable[dict[str, Any]]],
    ) -> None:
        self.host = host
        self.config_port = port
        self.port: int | None = None
        self._render_metrics = render_metrics
        self._render_health = render_health
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("metrics endpoint already started")
        self._server = await asyncio.start_server(
            self._handle,
            host=self.host,
            port=self.config_port,
            limit=_MAX_HEADER_BYTES,
            backlog=socket.SOMAXCONN,
        )
        sockets = self._server.sockets
        if sockets:
            self.port = int(sockets[0].getsockname()[1])

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # ------------------------------------------------------------------
    async def _respond(self, path: str) -> tuple[int, str, str]:
        """Route one GET; returns (status, content-type, body)."""
        if path == "/metrics":
            body = await _resolve(self._render_metrics())
            return 200, "text/plain; version=0.0.4; charset=utf-8", body
        if path == "/health":
            health = await _resolve(self._render_health())
            status = 200 if health.get("status") == "ok" else 503
            return status, "application/json", json.dumps(health, sort_keys=True) + "\n"
        return 404, "text/plain; charset=utf-8", "not found\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, content_type, body = 400, "text/plain; charset=utf-8", "bad request\n"
        path = "*"
        try:
            header = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0
            )
            request_line = header.split(b"\r\n", 1)[0].decode("latin-1")
            parts = request_line.split()
            if len(parts) == 3:
                method, target, _version = parts
                if method != "GET":
                    status, body = 405, "method not allowed\n"
                else:
                    path = target.split("?", 1)[0]
                    status, content_type, body = await self._respond(path)
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            TimeoutError,
            ValueError,
        ):
            pass  # fall through to the 400 already staged
        reg = _metrics()
        if reg is not None:
            reg.inc(
                "serve.http.requests",
                labels={
                    # bound the path label to the known routes
                    "path": path if path in ("/metrics", "/health") else "*",
                    "status": status,
                },
            )
        encoded = body.encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 503: "Service Unavailable"}
        writer.write(
            (
                f"HTTP/1.1 {status} {reason.get(status, 'Error')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(encoded)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        writer.write(encoded)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # scraper hung up mid-response; nothing to salvage
        finally:
            writer.close()

"""Tests for the ScheduleServer: dispatch, transports, snapshots."""

import asyncio
import io
import json
import time
from pathlib import Path

import pytest

from repro.core import CheckpointCosts, SolverCache, optimize_interval, use_solver_cache
from repro.distributions import Exponential, Weibull
from repro.obs.metrics import use as use_metrics
from repro.serve.bench import demo_registry
from repro.serve.models import distribution_to_spec
from repro.serve.protocol import PROTOCOL_SCHEMA
from repro.serve.registry import TenantRegistry
from repro.serve.server import ScheduleServer, ServerConfig
from repro.serve.snapshot import SnapshotError

WEIBULL_SPEC = distribution_to_spec(Weibull(0.43, 3409.0))
COSTS_PAYLOAD = {"checkpoint": 110.0, "recovery": 110.0, "latency": 0.0}


def _server(**overrides):
    overrides.setdefault("batch_window_s", 0.001)
    return ScheduleServer(ServerConfig(**overrides), registry=demo_registry())


def _ask(server, request):
    return asyncio.run(server.handle_request(request))


class TestConfig:
    def test_defaults_valid(self):
        ServerConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"port": -1},
            {"port": 70000},
            {"batch_window_s": -0.1},
            {"max_batch": 0},
            {"snapshot_interval_s": 0.0},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServerConfig(**overrides)


class TestDispatch:
    def test_ping(self):
        response = _ask(_server(), {"op": "ping", "id": 1})
        assert response == {"ok": True, "id": 1, "pong": True, "schema": PROTOCOL_SCHEMA}

    def test_solve_by_pool(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            response = _ask(
                server, {"op": "solve", "id": 2, "pool": "campus-weibull", "age": 100.0}
            )
        assert response["ok"] is True
        result = response["result"]
        assert result["converged"] is True
        assert result["age"] == 100.0
        assert result["T_opt"] > 0

    def test_solve_inline_model(self):
        with use_solver_cache(SolverCache()):
            response = _ask(
                _server(),
                {
                    "op": "solve",
                    "id": 3,
                    "model": WEIBULL_SPEC,
                    "costs": COSTS_PAYLOAD,
                    "age": 100.0,
                },
            )
        assert response["ok"] is True

    def test_solve_pool_and_model_conflict(self):
        response = _ask(
            _server(),
            {"op": "solve", "pool": "campus-exp", "model": WEIBULL_SPEC, "age": 0.0},
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_solve_needs_pool_or_model(self):
        response = _ask(_server(), {"op": "solve", "age": 0.0})
        assert response["error"]["code"] == "bad-request"

    def test_solve_unknown_pool(self):
        response = _ask(_server(), {"op": "solve", "pool": "nope", "age": 0.0})
        assert response["error"]["code"] == "unknown-pool"
        assert "campus-exp" in response["error"]["message"]

    def test_solve_bad_age(self):
        for age in (-1.0, "old", None, True):
            response = _ask(_server(), {"op": "solve", "pool": "campus-exp", "age": age})
            assert response["error"]["code"] == "bad-request"

    def test_solve_bad_model(self):
        response = _ask(
            _server(),
            {"op": "solve", "model": {"family": "gaussian", "params": {}}, "age": 0.0},
        )
        assert response["error"]["code"] == "bad-model"

    def test_solve_per_request_cost_override(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            base = _ask(
                server, {"op": "solve", "id": 1, "pool": "campus-weibull", "age": 0.0}
            )
            costly = _ask(
                server,
                {
                    "op": "solve",
                    "id": 2,
                    "pool": "campus-weibull",
                    "age": 0.0,
                    "costs": {"checkpoint": 440.0},
                },
            )
        # costlier checkpoints push the optimal interval out
        assert costly["result"]["T_opt"] > base["result"]["T_opt"]

    def test_register_unregister_pools(self):
        server = _server()
        response = _ask(
            server,
            {
                "op": "register",
                "pool": "lab",
                "model": WEIBULL_SPEC,
                "costs": COSTS_PAYLOAD,
            },
        )
        assert response == {"ok": True, "pool": "lab", "replaced": False}
        assert "lab" in server.registry

        pools = _ask(server, {"op": "pools", "id": 9})
        names = [p["pool"] for p in pools["pools"]]
        assert names == sorted(names)
        assert "lab" in names
        lab = next(p for p in pools["pools"] if p["pool"] == "lab")
        assert lab["model"] == WEIBULL_SPEC
        assert lab["costs"] == COSTS_PAYLOAD

        response = _ask(server, {"op": "unregister", "pool": "lab"})
        assert response["ok"] is True
        assert "lab" not in server.registry

    def test_register_replaces(self):
        server = _server()
        request = {
            "op": "register",
            "pool": "lab",
            "model": WEIBULL_SPEC,
            "costs": COSTS_PAYLOAD,
        }
        assert _ask(server, request)["replaced"] is False
        assert _ask(server, request)["replaced"] is True

    def test_stats_op(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            response = _ask(server, {"op": "stats", "id": 4})
        stats = response["stats"]
        assert stats["schema"] == PROTOCOL_SCHEMA
        assert stats["requests"] == 2
        assert stats["errors"] == 0
        assert stats["pools"] == 3
        assert stats["batch"]["queries"] == 1
        assert stats["cache"]["enabled"] is True
        assert stats["cache"]["entries"] == 1

    def test_errors_counted(self):
        server = _server()
        _ask(server, {"op": "solve", "pool": "nope", "age": 0.0})
        assert server.errors == 1

    def test_handle_line_parse_error(self):
        server = _server()
        response = asyncio.run(server.handle_line("{broken"))
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-json"
        assert server.errors == 1


class TestTelemetryOps:
    def test_metrics_op_disabled(self):
        response = _ask(_server(), {"op": "metrics", "id": 1})
        assert response["ok"] is True
        assert response["enabled"] is False
        assert response["metrics"] == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_metrics_op_returns_live_snapshot(self):
        with use_solver_cache(SolverCache()), use_metrics():
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            response = _ask(server, {"op": "metrics", "id": 2})
        assert response["enabled"] is True
        counters = response["metrics"]["counters"]
        assert counters["serve.tenant.requests{op=solve,tenant=campus-exp}"] == 1.0

    def test_health_op(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            response = _ask(server, {"op": "health", "id": 3})
        health = response["health"]
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0
        assert health["queue_depth"] == 0
        assert health["pools"] == 3
        assert health["requests"] == 2  # the health op itself counts
        assert health["errors"] == 0
        assert health["snapshot_configured"] is False
        assert health["snapshot_age_s"] is None

    def test_stats_derived_fields(self):
        with use_solver_cache(SolverCache()):
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})  # cache hit
            _ask(server, {"op": "ping"})
            response = _ask(server, {"op": "stats", "id": 4})
        stats = response["stats"]
        assert stats["ops"] == {"ping": 1, "solve": 2, "stats": 1}
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
        # sequential requests never share a batch: one dispatch per query
        assert stats["solves_per_request"] == pytest.approx(1.0)

    def test_stats_derived_fields_absent_without_traffic(self):
        with use_solver_cache(None):
            stats = _ask(_server(), {"op": "stats"})["stats"]
        assert stats["solves_per_request"] is None
        assert stats["cache"]["enabled"] is False

    def test_invalid_op_counted(self):
        server = _server()
        _ask(server, {"op": "frobnicate"})
        assert server.op_counts["invalid"] == 1

    def test_tenant_and_op_labels(self):
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            _ask(server, {"op": "solve", "pool": "campus-weibull", "age": 0.0})
            _ask(server, {"op": "solve", "pool": "nope", "age": 0.0})  # error
            _ask(server, {"op": "ping"})
        counters = reg.as_dict()["counters"]
        assert counters["serve.tenant.requests{op=solve,tenant=campus-exp}"] == 1.0
        assert counters["serve.tenant.requests{op=solve,tenant=campus-weibull}"] == 1.0
        assert counters["serve.tenant.requests{op=solve,tenant=nope}"] == 1.0
        assert counters["serve.tenant.errors{op=solve,tenant=nope}"] == 1.0
        assert counters["serve.tenant.requests{op=ping,tenant=-}"] == 1.0
        hists = reg.as_dict()["histograms"]
        assert hists["serve.tenant.request_seconds{op=solve,tenant=campus-exp}"]["count"] == 1

    def test_lifecycle_histograms_and_cache_attribution(self):
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            server = _server()
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
            _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
        d = reg.as_dict()
        for stage in ("queue_wait", "batch_group", "solve"):
            assert d["histograms"][f"serve.lifecycle.{stage}_seconds"]["count"] >= 1
        counters = d["counters"]
        assert counters["serve.tenant.cache.misses{tenant=campus-exp}"] == 1.0
        assert counters["serve.tenant.cache.hits{tenant=campus-exp}"] == 1.0

    def test_registry_actions_labeled(self):
        with use_metrics() as reg:
            server = _server()
            request = {
                "op": "register",
                "pool": "lab",
                "model": WEIBULL_SPEC,
                "costs": COSTS_PAYLOAD,
            }
            _ask(server, request)
            _ask(server, request)
            _ask(server, {"op": "unregister", "pool": "lab"})
        counters = reg.as_dict()["counters"]
        assert counters["serve.tenant.registry{action=register,tenant=lab}"] == 1.0
        assert counters["serve.tenant.registry{action=replace,tenant=lab}"] == 1.0
        assert counters["serve.tenant.registry{action=unregister,tenant=lab}"] == 1.0

    def test_slow_request_logged_and_counted(self, caplog):
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            server = _server(slow_request_s=1e-9)  # everything is "slow"
            with caplog.at_level("WARNING", logger="repro.serve"):
                _ask(server, {"op": "solve", "pool": "campus-exp", "age": 0.0})
        assert reg.as_dict()["counters"]["serve.requests.slow"] == 1.0
        records = [r for r in caplog.records if r.name == "repro.serve"]
        assert len(records) == 1
        event = json.loads(records[0].getMessage())
        assert event["event"] == "slow_request"
        assert event["op"] == "solve"
        assert event["tenant"] == "campus-exp"
        assert event["ok"] is True
        assert event["elapsed_s"] > event["threshold_s"]

    def test_fast_request_not_logged(self, caplog):
        with use_solver_cache(SolverCache()):
            server = _server()  # default 1 s threshold
            with caplog.at_level("WARNING", logger="repro.serve"):
                _ask(server, {"op": "ping"})
        assert not [r for r in caplog.records if r.name == "repro.serve"]

    def test_slow_request_threshold_validated(self):
        with pytest.raises(ValueError):
            ServerConfig(slow_request_s=0.0)


class TestMetricsHttpEndpoint:
    @staticmethod
    async def _http_get(port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, body.decode()

    def _run_with_endpoint(self, scenario):
        async def session():
            server = _server(metrics_port=0)
            await server.start()
            assert server.metrics_port is not None
            try:
                return await scenario(server)
            finally:
                await server.stop()

        with use_solver_cache(SolverCache()):
            return asyncio.run(session())

    def test_metrics_endpoint_parses_as_prometheus(self):
        from repro.obs.prometheus import parse_prometheus_text

        async def scenario(server):
            await server.handle_request({"op": "solve", "pool": "campus-exp", "age": 0.0})
            return await self._http_get(server.metrics_port, "/metrics")

        status, body = self._run_with_endpoint(scenario)
        assert status == 200
        samples = parse_prometheus_text(body)
        names = {name for name, _labels, _value in samples}
        assert "repro_serve_tenant_requests_total" in names

    def test_health_endpoint_returns_json(self):
        async def scenario(server):
            return await self._http_get(server.metrics_port, "/health")

        status, body = self._run_with_endpoint(scenario)
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["metrics_enabled"] is True

    def test_unknown_path_404(self):
        async def scenario(server):
            return await self._http_get(server.metrics_port, "/nope")

        status, _body = self._run_with_endpoint(scenario)
        assert status == 404

    def test_post_is_405(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            writer.write(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            await writer.wait_closed()
            return int(raw.split(b" ", 2)[1])

        assert self._run_with_endpoint(scenario) == 405

    def test_owned_registry_uninstalled_on_stop(self):
        from repro.obs.metrics import active

        async def scenario(server):
            return active() is not None

        assert self._run_with_endpoint(scenario) is True
        assert active() is None

    def test_no_endpoint_without_metrics_port(self):
        async def session():
            server = _server()
            await server.start()
            port = server.metrics_port
            await server.stop()
            return port

        with use_solver_cache(SolverCache()):
            assert asyncio.run(session()) is None


class TestSnapshotLifecycle:
    def test_snapshot_op_and_warm_load(self, tmp_path):
        path = str(tmp_path / "cache.json")
        with use_solver_cache(SolverCache()):
            server = _server(snapshot_path=path)
            _ask(server, {"op": "solve", "pool": "campus-weibull", "age": 100.0})
            response = _ask(server, {"op": "snapshot", "id": 5})
        assert response["ok"] is True
        assert response["entries"] == 1
        assert response["path"] == path

        with use_solver_cache(SolverCache()) as fresh:
            restarted = _server(snapshot_path=path)
            assert restarted.warm_load() == 1
            assert restarted.warm_loaded_entries == 1
            assert len(fresh) == 1
            # the warm entry answers without a new solve
            _ask(restarted, {"op": "solve", "pool": "campus-weibull", "age": 100.0})
            assert fresh.hits == 1
            assert fresh.misses == 0

    def test_committed_snapshot_warm_loads_and_serves_all_hits(self):
        """A snapshot written by an earlier release keeps answering from cache.

        The fixture holds the demo pools solved at four ages each, saved
        when solve requests still carried ``t_min``/``rel_tol``/``method``
        settings.  Its keys must still match what the server builds, so
        replaying the same stream is all hits with unchanged answers.
        """
        path = Path(__file__).parent / "data" / "solver_cache_snapshot_v1.json"
        stored = json.loads(path.read_text())["entries"]
        with use_solver_cache(SolverCache()) as fresh:
            server = _server(snapshot_path=str(path))
            assert server.warm_load() == len(stored) == 12
            responses = [
                _ask(server, {"op": "solve", "pool": pool, "age": age})
                for pool in ("campus-exp", "campus-hyper2", "campus-weibull")
                for age in (0.0, 250.0, 3600.0, 86400.0)
            ]
            assert fresh.hits == len(stored)
            assert fresh.misses == 0
            assert len(fresh) == len(stored)
        served = sorted(r["result"]["T_opt"] for r in responses)
        assert served == sorted(value["T_opt"] for _, value in stored)
        # and today's cold solves reproduce the stored answers bit for bit
        registry = demo_registry()
        with use_solver_cache(None):
            cold = sorted(
                optimize_interval(
                    registry.get(pool).distribution, registry.get(pool).costs, age=age
                ).T_opt
                for pool in ("campus-exp", "campus-hyper2", "campus-weibull")
                for age in (0.0, 250.0, 3600.0, 86400.0)
            )
        assert cold == served

    def test_snapshot_op_explicit_path(self, tmp_path):
        path = str(tmp_path / "explicit.json")
        with use_solver_cache(SolverCache()):
            response = _ask(_server(), {"op": "snapshot", "path": path})
        assert response["ok"] is True
        assert json.load(open(path))["schema"] == "repro.opt.solver_cache/1"

    def test_snapshot_op_without_path_fails(self):
        with use_solver_cache(SolverCache()):
            response = _ask(_server(), {"op": "snapshot", "id": 6})
        assert response["error"]["code"] == "snapshot-failed"

    def test_snapshot_now_requires_path(self):
        with pytest.raises(SnapshotError, match="no snapshot path"):
            _server().snapshot_now()

    def test_corrupt_snapshot_is_cold_start(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{definitely not json")
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            server = _server(snapshot_path=str(path))
            assert server.warm_load() == 0
        assert reg.as_dict()["counters"]["serve.snapshot.load_failures"] == 1.0

    def test_missing_snapshot_is_cold_start(self, tmp_path):
        server = _server(snapshot_path=str(tmp_path / "absent.json"))
        with use_solver_cache(SolverCache()):
            assert server.warm_load() == 0

    def test_wrong_schema_snapshot_is_cold_start(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"schema": "something/else", "entries": []}))
        with use_solver_cache(SolverCache()):
            assert _server(snapshot_path=str(path)).warm_load() == 0


class TestTCP:
    def test_full_session_over_tcp(self, tmp_path):
        snapshot = str(tmp_path / "cache.json")

        async def session():
            server = _server(snapshot_path=snapshot)
            await server.start()
            assert server.port is not None
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

            async def ask(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            responses = {}
            responses["ping"] = await ask({"op": "ping", "id": 0})
            responses["solve"] = await ask(
                {"op": "solve", "id": 1, "pool": "campus-exp", "age": 500.0}
            )
            responses["dup"] = await ask(
                {"op": "solve", "id": 2, "pool": "campus-exp", "age": 500.0}
            )
            responses["stats"] = await ask({"op": "stats", "id": 3})
            responses["shutdown"] = await ask({"op": "shutdown", "id": 4})
            writer.close()
            await writer.wait_closed()
            await asyncio.wait_for(server.wait_stopped(), timeout=5.0)
            await server.stop()
            return responses

        with use_solver_cache(SolverCache()):
            responses = asyncio.run(session())
        assert responses["ping"]["pong"] is True
        assert responses["solve"]["ok"] is True
        assert responses["dup"]["result"] == responses["solve"]["result"]
        assert responses["stats"]["stats"]["requests"] >= 3
        assert responses["shutdown"]["stopping"] is True
        # the shutdown path wrote a final snapshot
        assert json.load(open(snapshot))["schema"] == "repro.opt.solver_cache/1"

    def test_pipelined_requests_batch_together(self):
        async def session():
            server = _server(batch_window_s=0.02)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # fire 6 requests without waiting for responses
            for i in range(6):
                payload = {"op": "solve", "id": i, "pool": "campus-exp", "age": float(i % 2)}
                writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            responses = [json.loads(await reader.readline()) for _ in range(6)]
            writer.close()
            await writer.wait_closed()
            stats = server.batcher.stats
            await server.stop()
            return responses, stats

        with use_solver_cache(SolverCache()):
            responses, stats = asyncio.run(session())
        assert all(r["ok"] for r in responses)
        assert {r["id"] for r in responses} == set(range(6))
        # 6 concurrent queries with 2 distinct ages collapsed into few solves
        assert stats.queries == 6
        assert stats.solves <= 2 * stats.batches
        assert stats.collapsed >= 1

    def test_bad_line_gets_error_response_and_connection_survives(self):
        async def session():
            server = _server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            writer.write((json.dumps({"op": "ping", "id": 1}) + "\n").encode())
            await writer.drain()
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return first, second

        with use_solver_cache(SolverCache()):
            first, second = asyncio.run(session())
        assert first["ok"] is False
        assert first["error"]["code"] == "bad-json"
        assert second == {"ok": True, "id": 1, "pong": True, "schema": PROTOCOL_SCHEMA}

    def test_connection_metrics(self):
        async def session():
            server = _server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)  # let the handler observe EOF
            await server.stop()

        with use_solver_cache(SolverCache()), use_metrics() as reg:
            asyncio.run(session())
        counters = reg.as_dict()["counters"]
        assert counters["serve.connections.opened"] == 1.0
        assert counters["serve.connections.closed"] == 1.0

    def test_connect_storm_is_not_throttled_by_the_listen_backlog(self):
        """256 clients connecting at once all get through without SYN retries.

        With asyncio's default listen backlog of 100 the kernel drops the
        excess SYNs of such a burst and the clients only retry after about
        one second, so the storm takes over 1 s instead of a few ms.
        """
        clients = 256

        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "ping", "id": 1}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

        async def session():
            server = _server()
            await server.start()
            started = time.perf_counter()
            responses = await asyncio.gather(*(client(server.port) for _ in range(clients)))
            elapsed = time.perf_counter() - started
            await server.stop()
            return responses, elapsed

        with use_solver_cache(SolverCache()):
            responses, elapsed = asyncio.run(session())
        assert len(responses) == clients
        assert all(r["pong"] is True for r in responses)
        assert elapsed < 0.5, f"{clients} connects took {elapsed:.2f} s"


class TestStdio:
    def test_stdio_round_trip(self):
        lines = [
            json.dumps({"op": "ping", "id": 1}),
            json.dumps({"op": "solve", "id": 2, "pool": "campus-exp", "age": 0.0}),
            "",  # blank lines are skipped
            json.dumps({"op": "stats", "id": 3}),
        ]
        out = io.StringIO()
        with use_solver_cache(SolverCache()):
            server = _server()
            served = asyncio.run(server.run_stdio(lines, out))
        assert served == 3
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)

    def test_stdio_shutdown_stops_early(self):
        lines = [
            json.dumps({"op": "shutdown", "id": 1}),
            json.dumps({"op": "ping", "id": 2}),  # never reached
        ]
        out = io.StringIO()
        with use_solver_cache(SolverCache()):
            served = asyncio.run(_server().run_stdio(lines, out))
        assert served == 1


class TestServedEqualsDirect:
    def test_solve_matches_direct_optimizer(self):
        registry = TenantRegistry()
        dist = Exponential(1.0 / 5000.0)
        costs = CheckpointCosts.symmetric(110.0)
        registry.register("p", dist, costs)
        server = ScheduleServer(ServerConfig(batch_window_s=0.0), registry=registry)
        with use_solver_cache(None):
            response = _ask(server, {"op": "solve", "pool": "p", "age": 123.0})
            direct = optimize_interval(dist, costs, age=123.0)
        assert response["result"]["T_opt"] == direct.T_opt
        assert response["result"]["gamma"] == direct.gamma

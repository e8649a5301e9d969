"""Golden-master equivalence of the served solve path.

The acceptance bar for the serving layer: for any mixed stream of
queries, the T_opt a client receives from the daemon -- through the
protocol codec, the micro-batcher's grouping/dedup and
``optimize_intervals_batch`` -- must be *bitwise identical* to calling
:func:`repro.core.optimize_interval` directly (the batched path is a
dispatch device, never a different solver).  The sweep mirrors
``tests/test_solver_equivalence.py``: the paper's model families from
age 0 into the deep conditional tail, plus an interleaved multi-tenant
stream over real TCP.  Groups of at least ``_LOCKSTEP_MIN_LANES``
cache misses take the lockstep path, so every family is also checked
at widths on both sides of that threshold.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core import (
    CheckpointCosts,
    SolverCache,
    optimize_interval,
    use_solver,
    use_solver_cache,
)
from repro.core.optimizer import _LOCKSTEP_MIN_LANES, optimize_intervals_batch
from repro.distributions import Exponential, Hyperexponential, LogNormal, Weibull
from repro.obs.metrics import use as use_metrics
from repro.serve.batcher import MicroBatcher, SolveQuery
from repro.serve.registry import TenantRegistry
from repro.serve.server import ScheduleServer, ServerConfig

REL_BUDGET = 1e-12  # the served path must be exact, not merely close

COSTS = CheckpointCosts.symmetric(110.0)

#: (distribution, ages from job start into the deep conditional tail)
CASES = {
    "exp": (Exponential(1.0 / 5000.0), (0.0, 500.0, 5000.0, 1e6)),
    "weib-heavy": (Weibull(0.43, 3409.0), (0.0, 340.0, 3409.0, 34090.0, 4e6)),
    "hyper2": (
        Hyperexponential([0.5, 0.5], [1.0 / 100.0, 1.0 / 9000.0]),
        (0.0, 90.0, 9000.0, 2e5),
    ),
    "hyper3": (
        Hyperexponential([0.3, 0.5, 0.2], [1.0 / 50.0, 1.0 / 2000.0, 1.0 / 20000.0]),
        (0.0, 200.0, 20000.0, 4e5),
    ),
}


def _registry():
    registry = TenantRegistry()
    for name, (dist, _) in CASES.items():
        registry.register(name, dist, COSTS)
    return registry


def _direct(dist, age):
    with use_solver_cache(None):
        return optimize_interval(dist, COSTS, age=age)


@pytest.mark.parametrize("name", sorted(CASES))
class TestBatchApiEquivalence:
    def test_batch_matches_scalar_bitwise(self, name):
        dist, ages = CASES[name]
        with use_solver_cache(None):
            batched = optimize_intervals_batch(dist, COSTS, ages)
            direct = [optimize_interval(dist, COSTS, age=a) for a in ages]
        for served, reference in zip(batched, direct, strict=True):
            assert served.T_opt == reference.T_opt  # bitwise
            assert served == reference

    def test_duplicate_ages_get_identical_results(self, name):
        dist, ages = CASES[name]
        doubled = list(ages) + list(ages)
        with use_solver_cache(None):
            batched = optimize_intervals_batch(dist, COSTS, doubled)
        n = len(ages)
        for i in range(n):
            assert batched[i] == batched[n + i]

    def test_cached_batch_matches_cold(self, name):
        dist, ages = CASES[name]
        cold = [_direct(dist, a) for a in ages]
        with use_solver_cache(SolverCache()):
            warm = optimize_intervals_batch(dist, COSTS, ages)
            again = optimize_intervals_batch(dist, COSTS, ages)
        for served, reference in zip(warm, cold, strict=True):
            assert served.T_opt == reference.T_opt
        assert again == warm


#: group widths: a lone query, both sides of the lockstep threshold, a
#: burst's full 64 in flight
WIDTHS = (1, _LOCKSTEP_MIN_LANES - 1, _LOCKSTEP_MIN_LANES, 64)


def _group(name, width):
    """``width`` distinct ages, log-spaced from 10 s to twice the case's
    last age (past S(a) < 1e-9 for weib-heavy, whose lanes the lockstep
    hands to the scalar solve)."""
    dist, ages = CASES[name]
    return dist, [float(a) for a in np.geomspace(10.0, 2.0 * max(ages), width)]


def _lockstep_lanes(reg):
    return reg.as_dict()["counters"].get("opt.lockstep.lanes", 0.0)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(CASES))
class TestColdGroupEquivalence:
    def test_group_matches_scalar_bitwise(self, name, width):
        dist, ages = _group(name, width)
        if name == "weib-heavy" and width >= _LOCKSTEP_MIN_LANES:
            assert min(dist.sf(a) for a in ages) < 1e-9  # deep-tail lanes present
        with use_solver_cache(None), use_metrics() as reg:
            batched = optimize_intervals_batch(dist, COSTS, ages)
        assert _lockstep_lanes(reg) == (width if width >= _LOCKSTEP_MIN_LANES else 0)
        assert batched == [_direct(dist, a) for a in ages]  # every field, bitwise

    def test_cache_counts_and_results(self, name, width):
        dist, ages = _group(name, width)
        cache = SolverCache()
        with use_solver_cache(cache):
            cold = optimize_intervals_batch(dist, COSTS, ages)
            assert (cache.hits, cache.misses) == (0, width)
            again = optimize_intervals_batch(dist, COSTS, ages)
            assert (cache.hits, cache.misses) == (width, width)
        assert cold == again == [_direct(dist, a) for a in ages]


class TestColdGroupDispatch:
    def test_duplicate_ages_share_one_lane(self):
        dist, ages = _group("hyper2", 64)
        stream = ages + ages[::3]
        with use_solver_cache(SolverCache()), use_metrics() as reg:
            batched = optimize_intervals_batch(dist, COSTS, stream)
        assert _lockstep_lanes(reg) == 64
        assert reg.as_dict()["counters"]["opt.cache.misses"] == 64
        for i, a in enumerate(stream):
            assert batched[i] is batched[ages.index(a)]
            assert batched[i] == _direct(dist, a)

    @pytest.mark.parametrize("fresh", [3, 48])
    def test_mixed_cached_and_fresh_ages(self, fresh):
        """A wide group whose misses fall below or above the threshold:
        probes, counts and answers match sequential scalar solves."""
        dist, ages = _group("weib-heavy", 64)
        warm = ages[fresh:]
        batch_cache, scalar_cache = SolverCache(), SolverCache()
        with use_metrics() as reg:
            with use_solver_cache(batch_cache):
                for a in warm:
                    optimize_interval(dist, COSTS, age=a)
                batched = optimize_intervals_batch(dist, COSTS, ages)
        with use_solver_cache(scalar_cache):
            for a in warm:
                optimize_interval(dist, COSTS, age=a)
            sequential = [optimize_interval(dist, COSTS, age=a) for a in ages]
        assert batched == sequential
        assert (batch_cache.hits, batch_cache.misses) == (scalar_cache.hits, scalar_cache.misses)
        assert batch_cache.hits == len(warm)
        assert _lockstep_lanes(reg) == (fresh if fresh >= _LOCKSTEP_MIN_LANES else 0)

    def test_ages_sharing_a_cache_key_share_its_solve(self):
        """Distinct ages the cache key rounds together: the later one is
        the earlier one's cache hit, as in a sequential loop."""
        dist, ages = _group("exp", _LOCKSTEP_MIN_LANES)
        near = [a + 1e-11 for a in ages[:2]]
        assert all(n != a for n, a in zip(near, ages[:2], strict=True))
        batch_cache, scalar_cache = SolverCache(), SolverCache()
        with use_solver_cache(batch_cache):
            batched = optimize_intervals_batch(dist, COSTS, ages + near)
        with use_solver_cache(scalar_cache):
            sequential = [optimize_interval(dist, COSTS, age=a) for a in ages + near]
        assert batched == sequential
        assert batched[-1] is batched[1]
        assert (batch_cache.hits, batch_cache.misses) == (scalar_cache.hits, scalar_cache.misses) == (2, len(ages))

    def test_family_without_kernel_stays_scalar(self):
        dist = LogNormal(7.0, 1.5)
        ages = [float(a) for a in np.geomspace(10.0, 1e5, _LOCKSTEP_MIN_LANES)]
        with use_solver_cache(None), use_metrics() as reg:
            batched = optimize_intervals_batch(dist, COSTS, ages)
        assert _lockstep_lanes(reg) == 0
        assert batched == [_direct(dist, a) for a in ages]

    def test_golden_solver_stays_scalar(self):
        dist, ages = _group("hyper2", 2 * _LOCKSTEP_MIN_LANES)
        with use_solver(method="golden"), use_solver_cache(None), use_metrics() as reg:
            batched = optimize_intervals_batch(dist, COSTS, ages)
            direct = [optimize_interval(dist, COSTS, age=a) for a in ages]
        assert _lockstep_lanes(reg) == 0
        assert batched == direct

    def test_batcher_tenant_cache_attribution(self):
        """One flushed 64-query group: the tenant's cache hits and
        misses are the group's own probes, counted once."""
        dist, ages = _group("hyper3", 64)
        warm = ages[::4]

        async def burst():
            batcher = MicroBatcher(window_s=0.05)
            queries = [SolveQuery(dist, COSTS, a, tenant="pool-a") for a in ages]
            return await asyncio.gather(*(batcher.submit(q) for q in queries)), batcher.stats

        cache = SolverCache()
        with use_solver_cache(cache):
            for a in warm:
                optimize_interval(dist, COSTS, age=a)
            with use_metrics() as reg:
                results, stats = asyncio.run(burst())
        counters = reg.as_dict()["counters"]
        assert stats.batches == 1 and stats.groups == 1
        assert counters["serve.tenant.cache.hits{tenant=pool-a}"] == len(warm)
        assert counters["serve.tenant.cache.misses{tenant=pool-a}"] == 64 - len(warm)
        assert (cache.hits, cache.misses) == (len(warm), 64)
        assert _lockstep_lanes(reg) == 64 - len(warm)
        assert list(results) == [_direct(dist, a) for a in ages]


class TestServedStreamEquivalence:
    def _mixed_stream(self):
        """Every (case, age) pair, interleaved across tenants, with
        duplicates -- the adversarial shape for grouping and dedup."""
        stream = []
        for name, (_, ages) in sorted(CASES.items()):
            for age in ages:
                stream.append((name, age))
        # interleave: round-robin across tenants, then repeat the
        # first half so duplicates ride alongside fresh queries
        stream = sorted(stream, key=lambda pair: pair[1])
        return stream + stream[: len(stream) // 2]

    def test_served_T_opt_identical_to_direct(self):
        stream = self._mixed_stream()

        async def session():
            server = ScheduleServer(
                ServerConfig(batch_window_s=0.005), registry=_registry()
            )
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # pipeline the whole stream so the batcher sees real groups
            for i, (pool, age) in enumerate(stream):
                payload = {"op": "solve", "id": i, "pool": pool, "age": age}
                writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            responses = {}
            for _ in stream:
                response = json.loads(await reader.readline())
                responses[response["id"]] = response
            writer.close()
            await writer.wait_closed()
            stats = server.batcher.stats
            await server.stop()
            return responses, stats

        with use_solver_cache(SolverCache()):
            responses, stats = asyncio.run(session())

        assert stats.queries == len(stream)
        assert stats.collapsed > 0  # the duplicates actually deduped
        for i, (pool, age) in enumerate(stream):
            response = responses[i]
            assert response["ok"], response
            reference = _direct(CASES[pool][0], age)
            served = response["result"]["T_opt"]
            if served != reference.T_opt:  # bitwise first, budget fallback
                assert served == pytest.approx(reference.T_opt, rel=REL_BUDGET)
            assert response["result"]["gamma"] == pytest.approx(
                reference.gamma, rel=REL_BUDGET
            )
            assert response["result"]["age"] == age

    def test_stdio_stream_equivalence(self):
        stream = self._mixed_stream()
        lines = [
            json.dumps({"op": "solve", "id": i, "pool": pool, "age": age})
            for i, (pool, age) in enumerate(stream)
        ]
        import io

        out = io.StringIO()
        with use_solver_cache(SolverCache()):
            server = ScheduleServer(
                ServerConfig(batch_window_s=0.0), registry=_registry()
            )
            served = asyncio.run(server.run_stdio(lines, out))
        assert served == len(stream)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        for response, (pool, age) in zip(responses, stream, strict=True):
            assert response["ok"]
            reference = _direct(CASES[pool][0], age)
            assert response["result"]["T_opt"] == reference.T_opt  # bitwise

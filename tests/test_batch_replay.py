"""Equivalence and behaviour tests for the vectorized batch replay kernel.

``replay_schedule`` is the golden reference; the batch kernel must match
it on every ``SimulationResult`` field to <= 1e-9 relative (counts and
strings exactly) across all partial-transfer policies, both
``recover_on_start`` settings, and arbitrary random pools.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CheckpointCosts, CheckpointSchedule
from repro.distributions import Exponential, Hyperexponential, Weibull
from repro.obs.metrics import use as use_metrics
from repro.simulation import (
    BatchReplayItem,
    SimulationConfig,
    SweepSettings,
    replay_batch,
    replay_flat_pool,
    replay_schedule,
    replay_schedule_batch,
    simulate_pool,
)
from repro.simulation import batch_replay
from repro.storage.policy import StoragePolicy
from repro.traces.model import AvailabilityTrace

REL_BUDGET = 1e-9

INT_FIELDS = {
    "n_intervals",
    "n_failures",
    "n_checkpoints_completed",
    "n_checkpoints_attempted",
    "n_recoveries_completed",
    "n_recoveries_attempted",
    "n_full_checkpoints",
    "n_delta_checkpoints",
    "max_restore_chain_len",
}


def fixed_schedule(T):
    """A duck-typed schedule with a constant work interval."""
    sched = CheckpointSchedule(Exponential(1e-9), CheckpointCosts.symmetric(0.0))

    class Fixed:
        costs = sched.costs

        def work_interval(self, i):
            return T

        def intervals(self, n):
            return [T] * n

        def expected_efficiency(self, i=0):
            return 1.0

    return Fixed()


def assert_results_match(batch, scalar):
    """Every dataclass field equal: ints/strs exactly, floats to 1e-9."""
    for f in dataclasses.fields(type(scalar)):
        got = getattr(batch, f.name)
        want = getattr(scalar, f.name)
        if f.name in INT_FIELDS:
            assert got == want, f"{f.name}: {got} != {want}"
        elif isinstance(want, str):
            assert got == want, f"{f.name}: {got!r} != {want!r}"
        else:
            assert got == pytest.approx(want, rel=REL_BUDGET, abs=1e-12), (
                f"{f.name}: {got} != {want}"
            )


class TestHandComputed:
    """The scalar suite's hand checks, replayed through the kernel."""

    def test_perfect_interval(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        (res,) = replay_schedule_batch(
            fixed_schedule(600.0), [np.array([750.0])], cfg
        )
        assert res.useful_work == pytest.approx(600.0)
        assert res.recovery_overhead == pytest.approx(50.0)
        assert res.checkpoint_overhead == pytest.approx(100.0)
        assert res.lost_work == 0.0
        assert res.n_checkpoints_completed == 1
        assert res.mb_checkpoint == pytest.approx(500.0)

    def test_eviction_phases(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        sched = fixed_schedule(600.0)
        # mid-recovery, mid-work, mid-checkpoint, multi-cycle -- one call
        mid_rec, mid_work, mid_ckpt, multi = replay_schedule_batch(
            sched,
            [
                np.array([20.0]),
                np.array([250.0]),
                np.array([680.0]),
                np.array([2250.0]),
            ],
            cfg,
        )
        assert mid_rec.recovery_overhead == pytest.approx(20.0)
        assert mid_rec.n_recoveries_completed == 0
        assert mid_rec.mb_recovery == pytest.approx(500.0 * 20.0 / 50.0)
        assert mid_work.lost_work == pytest.approx(200.0)
        assert mid_work.n_checkpoints_attempted == 0
        assert mid_ckpt.lost_work == pytest.approx(600.0)
        assert mid_ckpt.checkpoint_overhead == pytest.approx(30.0)
        assert mid_ckpt.mb_checkpoint == pytest.approx(500.0 * 30.0 / 100.0)
        assert multi.n_checkpoints_completed == 3
        assert multi.useful_work == pytest.approx(1800.0)
        assert multi.lost_work == pytest.approx(100.0)

    def test_exact_fit_is_midwork_eviction(self):
        # same settled semantics as the scalar path: no attempt, no bytes
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            recovery_cost=50.0,
            partial_transfer_policy="full",
        )
        (res,) = replay_schedule_batch(
            fixed_schedule(600.0), [np.array([650.0])], cfg
        )
        assert res.n_checkpoints_attempted == 0
        assert res.mb_checkpoint == 0.0
        assert res.lost_work == pytest.approx(600.0)

    def test_multi_interval_machine(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        (res,) = replay_schedule_batch(
            fixed_schedule(600.0), [np.array([750.0, 20.0, 2250.0])], cfg
        )
        scalar = replay_schedule(
            fixed_schedule(600.0),
            np.array([750.0, 20.0, 2250.0]),
            cfg,
            machine_id=res.machine_id,
        )
        assert_results_match(res, scalar)


def _random_pool(rng, n_machines, dist):
    pool = []
    for _ in range(n_machines):
        n = int(rng.integers(1, 40))
        pool.append(dist.sample(n, rng))
    return pool


class TestScalarEquivalence:
    @pytest.mark.parametrize("policy", ["proportional", "full", "none"])
    @pytest.mark.parametrize("recover", [True, False])
    @pytest.mark.parametrize("latency", [0.0, 25.0])
    def test_random_pool_matches_scalar(self, policy, recover, latency):
        rng = np.random.default_rng(7)
        dist = Weibull(0.55, 2800.0)
        pool = _random_pool(rng, 25, Weibull(0.5, 3000.0))
        cfg = SimulationConfig(
            checkpoint_cost=180.0,
            partial_transfer_policy=policy,
            recover_on_start=recover,
            latency=latency,
        )
        sched = CheckpointSchedule(
            dist,
            CheckpointCosts(
                checkpoint=180.0, recovery=cfg.effective_recovery_cost, latency=latency
            ),
            converge_rel_tol=1e-3,
        )
        batch = replay_schedule_batch(sched, pool, cfg)
        for res, durations in zip(batch, pool, strict=True):
            scalar = replay_schedule(
                sched, durations, cfg, machine_id=res.machine_id
            )
            assert_results_match(res, scalar)

    def test_conservation(self):
        rng = np.random.default_rng(11)
        pool = _random_pool(rng, 30, Weibull(0.45, 2000.0))
        cfg = SimulationConfig(checkpoint_cost=300.0)
        sched = CheckpointSchedule(
            Hyperexponential([0.5, 0.5], [1.0 / 300.0, 1.0 / 9000.0]),
            CheckpointCosts.symmetric(300.0),
            converge_rel_tol=1e-3,
        )
        for res in replay_schedule_batch(sched, pool, cfg):
            assert abs(res.conservation_residual()) < 1e-6 * max(res.total_time, 1.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(["proportional", "full", "none"]),
        recover=st.booleans(),
        shape=st.floats(0.35, 1.5),
        scale=st.floats(200.0, 8000.0),
        cost=st.floats(10.0, 800.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_pools(self, seed, policy, recover, shape, scale, cost):
        """Satellite: scalar-vs-batch equality of every result field over
        random pools, all policies, both recovery settings."""
        rng = np.random.default_rng(seed)
        pool = _random_pool(rng, 8, Weibull(shape, scale))
        cfg = SimulationConfig(
            checkpoint_cost=cost,
            partial_transfer_policy=policy,
            recover_on_start=recover,
        )
        sched = CheckpointSchedule(
            Weibull(shape, scale),
            CheckpointCosts.symmetric(cost),
            converge_rel_tol=1e-3,
        )
        batch = replay_schedule_batch(sched, pool, cfg)
        for res, durations in zip(batch, pool, strict=True):
            scalar = replay_schedule(
                sched, durations, cfg, machine_id=res.machine_id
            )
            assert_results_match(res, scalar)
            assert abs(res.conservation_residual()) < 1e-6 * max(res.total_time, 1.0)


class TestDegenerateGuardParity:
    def test_zero_cycle_raises_like_scalar(self):
        cfg = SimulationConfig(checkpoint_cost=0.0, recover_on_start=False)
        with pytest.raises(ValueError, match="no forward progress"):
            replay_schedule_batch(fixed_schedule(0.0), [np.array([100.0])], cfg)
        with pytest.raises(ValueError, match="no forward progress"):
            replay_schedule(fixed_schedule(0.0), np.array([100.0]), cfg)

    def test_zero_cycle_unreached_is_fine(self):
        # budgets that never enter the degenerate cycle replay normally,
        # in both paths
        cfg = SimulationConfig(checkpoint_cost=0.0, recover_on_start=False)
        (res,) = replay_schedule_batch(
            fixed_schedule(50.0), [np.array([40.0])], cfg
        )
        assert res.lost_work == pytest.approx(40.0)


class TestInputValidation:
    def test_storage_config_rejected(self):
        cfg = SimulationConfig(
            checkpoint_cost=100.0,
            storage=StoragePolicy(mode="full", full_every_k=1),
        )
        with pytest.raises(ValueError, match="flat"):
            replay_schedule_batch(fixed_schedule(600.0), [np.array([750.0])], cfg)

    def test_mismatched_ids_rejected(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        with pytest.raises(ValueError, match="machine ids"):
            replay_schedule_batch(
                fixed_schedule(600.0),
                [np.array([750.0])],
                cfg,
                machine_ids=["a", "b"],
            )

    def test_negative_duration_rejected(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        with pytest.raises(ValueError, match="non-negative"):
            replay_schedule_batch(fixed_schedule(600.0), [np.array([-1.0])], cfg)

    def test_empty_batch(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        assert replay_schedule_batch(fixed_schedule(600.0), [], cfg) == []


class TestFlatPoolCore:
    """The struct-of-arrays entry point used at 100k-machine scale."""

    def test_arrays_match_materialized_results(self):
        rng = np.random.default_rng(23)
        pool = _random_pool(rng, 12, Weibull(0.5, 3000.0))
        cfg = SimulationConfig(checkpoint_cost=150.0)
        sched = fixed_schedule(600.0)
        lengths = np.array([d.size for d in pool], dtype=np.int64)
        batch = replay_flat_pool(sched, np.concatenate(pool), lengths, cfg)
        assert len(batch) == 12
        results = batch.to_results()
        for m, res in enumerate(results):
            assert batch.total_time[m] == pytest.approx(res.total_time)
            assert batch.useful_work[m] == pytest.approx(res.useful_work)
            assert int(batch.n_checkpoints_completed[m]) == res.n_checkpoints_completed
            assert batch.efficiency[m] == pytest.approx(res.efficiency)
            assert batch.mb_total[m] == pytest.approx(res.mb_total)

    def test_zero_length_machines(self):
        # machines with no availability segments produce all-zero rows
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        a = np.array([750.0])
        lengths = np.array([0, 1, 0], dtype=np.int64)
        batch = replay_flat_pool(fixed_schedule(600.0), a, lengths, cfg)
        assert batch.total_time.tolist() == [0.0, 750.0, 0.0]
        assert batch.useful_work.tolist() == [0.0, 600.0, 0.0]
        assert batch.n_recoveries_attempted.tolist() == [0, 1, 0]
        assert batch.efficiency.tolist() == [0.0, 0.8, 0.0]

    def test_mismatched_lengths_rejected(self):
        cfg = SimulationConfig(checkpoint_cost=100.0)
        with pytest.raises(ValueError, match="segment lengths"):
            replay_flat_pool(
                fixed_schedule(600.0),
                np.array([750.0, 800.0]),
                np.array([1], dtype=np.int64),
                cfg,
            )


class TestReplayBatchGrouping:
    def test_heterogeneous_items_keep_input_order(self):
        cfg_a = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        cfg_b = SimulationConfig(checkpoint_cost=200.0, recovery_cost=50.0)
        sched_a = fixed_schedule(600.0)
        sched_b = fixed_schedule(400.0)
        rng = np.random.default_rng(3)
        traces = [Weibull(0.5, 2500.0).sample(12, rng) for _ in range(6)]
        items = [
            BatchReplayItem(
                schedule=sched_a if i % 2 == 0 else sched_b,
                durations=traces[i],
                config=cfg_a if i % 2 == 0 else cfg_b,
                machine_id=f"m{i}",
            )
            for i in range(6)
        ]
        out = replay_batch(items)
        assert [r.machine_id for r in out] == [f"m{i}" for i in range(6)]
        for i, res in enumerate(out):
            scalar = replay_schedule(
                items[i].schedule,
                traces[i],
                items[i].config,
                machine_id=items[i].machine_id,
            )
            assert_results_match(res, scalar)


class TestRunnerIntegration:
    def _pool(self):
        rng = np.random.default_rng(19)
        return [
            AvailabilityTrace(
                machine_id=f"mach{i}",
                durations=Weibull(0.6, 3000.0).sample(40, rng),
            )
            for i in range(3)
        ]

    def test_batch_sweep_matches_scalar_sweep(self):
        base = dict(
            checkpoint_costs=(100.0, 500.0),
            model_names=("exponential", "weibull"),
        )
        fast = simulate_pool(self._pool(), SweepSettings(batch_replay=True, **base))
        slow = simulate_pool(self._pool(), SweepSettings(batch_replay=False, **base))
        assert len(fast.results) == len(slow.results)
        for f, s in zip(fast.results, slow.results, strict=True):
            assert_results_match(f, s)

    def test_batch_sweep_records_counters(self):
        with use_metrics() as reg:
            simulate_pool(
                self._pool(),
                SweepSettings(
                    batch_replay=True,
                    checkpoint_costs=(100.0,),
                    model_names=("exponential",),
                ),
            )
            snap = reg.as_dict()
        counters = snap["counters"]
        assert counters["sim.batch.calls"] > 0
        assert counters["sim.batch.machines"] > 0
        assert counters["sim.batch.segments"] > 0
        assert counters["sim.replays"] > 0
        assert snap["histograms"]["sim.replay_seconds"]["count"] > 0
        assert snap["histograms"]["schedule.lockstep.seconds"]["count"] == 1
        assert "sim.batch.replay_seconds" not in snap["histograms"]


class TestKernelMetrics:
    def test_counters_match_scalar_semantics(self):
        cfg = SimulationConfig(checkpoint_cost=100.0, recovery_cost=50.0)
        pool = [np.array([750.0, 2250.0]), np.array([20.0])]
        with use_metrics() as reg:
            results = replay_schedule_batch(fixed_schedule(600.0), pool, cfg)
            snap = reg.as_dict()
        counters = snap["counters"]
        assert counters["sim.replays"] == len(pool)
        assert counters["sim.machine_seconds"] == pytest.approx(3020.0)
        assert counters["sim.checkpoints.completed"] == sum(
            r.n_checkpoints_completed for r in results
        )
        assert counters["sim.batch.machines"] == 2
        assert counters["sim.batch.segments"] == 3


class TestCycleTableTrim:
    """The cycle table solves exactly the schedule prefix the longest
    budget reaches: one interval at a time while the schedule moves,
    then free converged/periodic copies."""

    COSTS = CheckpointCosts.symmetric(50.0)
    CFG = SimulationConfig(checkpoint_cost=50.0, recovery_cost=50.0)

    def _needed(self, budget):
        twin = CheckpointSchedule(Weibull(0.6, 2000.0), self.COSTS, converge_rel_tol=1e-3)
        cum, k = 0.0, 0
        while cum <= budget and twin._converged_at is None:
            cum += twin.work_interval(k) + 50.0
            k += 1
        return k

    @pytest.mark.parametrize("budget", [10.0, 4e3, 3e4, 2e6])
    def test_weibull_replay_solves_exactly_the_needed_prefix(self, budget):
        durations = np.array([budget + 50.0, 0.5 * budget + 50.0])
        needed = self._needed(budget)
        for replay in (
            lambda s: replay_schedule_batch(s, [durations], self.CFG),
            lambda s: replay_batch([BatchReplayItem(s, durations, self.CFG)]),
        ):
            sched = CheckpointSchedule(Weibull(0.6, 2000.0), self.COSTS, converge_rel_tol=1e-3)
            with use_metrics() as reg:
                replay(sched)
            assert reg.as_dict()["counters"]["schedule.solves"] == needed

    class Drifting:
        """A stub whose intervals never repeat exactly (free to fetch)."""

        def __init__(self, step):
            self.step = step
            self.calls = 0

        def intervals(self, n):
            self.calls += 1
            return [100.0 + self.step * i for i in range(n)]

        def expected_efficiency(self, i=0):
            return 1.0

    def test_never_repeating_stub_doubles_to_a_large_budget(self):
        sched = self.Drifting(1e-6)
        budget = 5e7  # ~4.5e5 cycles of ~110 s
        cum, T, cumT, first_bad = batch_replay._cycle_tables(sched, 10.0, budget)
        assert sched.calls <= 22
        assert cum[-1] > budget and first_bad == -1
        assert T.tolist() == sched.intervals(T.size)
        assert np.array_equal(cum[1:], np.cumsum(T + 10.0))
        assert np.array_equal(cumT[1:], np.cumsum(T))

    def test_never_repeating_stub_hits_the_table_ceiling_quickly(self, monkeypatch):
        monkeypatch.setattr(batch_replay, "MAX_TABLE_CYCLES", 1 << 12)
        sched = self.Drifting(1e-9)
        with pytest.raises(ValueError, match="degenerate schedule"):
            batch_replay._cycle_tables(sched, 10.0, 1e9)
        assert sched.calls <= 14

"""Lockstep schedule solver vs the lazy scalar chain.

:func:`repro.core.lockstep.solve_schedules` advances many
``CheckpointSchedule`` chains at once; the lazy chain
(``CheckpointSchedule._extend_to`` -> ``optimize_interval``) is the
independent oracle.  Every interval the lockstep writes -- ``T_opt``,
``gamma``, ``expected_efficiency``, the objective value and the age it
was solved at -- must agree with the lazy chain to <= 1e-9 relative,
and both must stop (converge) at the same index.  The suite covers the
paper's four fitted families, lockstep widths 1, 10 and >= 500, ages
from job start into the deep tail (where the lockstep hands the lane to
the scalar solver), convergence and horizon stops, and the whole sweep
pipeline (serial vs two workers, Tables 1/3 vs the scalar replay loop).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CheckpointCosts, CheckpointSchedule, use_solver
from repro.core.lockstep import solve_schedules
from repro.core.schedule import cycles_to_cover
from repro.distributions import Exponential, Hyperexponential, Weibull
from repro.distributions.fitting import fit_model
from repro.distributions.lognormal import LogNormal
from repro.experiments.study import SimulationStudy
from repro.obs.metrics import use as use_metrics
from repro.simulation import SimulationConfig, SweepSettings, simulate_pool
from repro.traces import SyntheticPoolConfig, generate_condor_pool

REL = 1e-9
FIELDS = ("T_opt", "gamma", "expected_efficiency", "overhead_ratio", "age")


def _fits():
    """The paper's four models fitted to one heavy-tailed sample."""
    rng = np.random.default_rng(11)
    data = Weibull(0.55, 4000.0).sample(60, rng)
    return {
        name: fit_model(name, data, rng=np.random.default_rng(5))
        for name in ("exponential", "weibull", "hyperexp2", "hyperexp3")
    }


FITS = _fits()


def _pair(dist, cost, **kw):
    kw.setdefault("converge_rel_tol", 1e-3)
    costs = CheckpointCosts.symmetric(cost)
    return CheckpointSchedule(dist, costs, **kw), CheckpointSchedule(dist, costs, **kw)


def _close(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b)) or a == b


def assert_chain_matches(lock, lazy):
    n = len(lock._intervals)
    assert n >= 1
    lazy.intervals(n)
    for i in range(n):
        got, want = lock.interval(i), lazy.interval(i)
        for field in FIELDS:
            assert _close(getattr(got, field), getattr(want, field)), (i, field, got, want)
        assert got.converged == want.converged
        assert _close(lock.age_of_interval(i), lazy.age_of_interval(i))
    assert lock._converged_at == lazy._converged_at
    # the lazy chain carries on seamlessly from where the lockstep stopped
    for i in range(n, n + 3):
        assert _close(lock.work_interval(i), lazy.work_interval(i))


def _solve(pairs, horizons):
    solve_schedules([lock for lock, _ in pairs], horizons)
    for lock, lazy in pairs:
        assert_chain_matches(lock, lazy)


@pytest.mark.parametrize("name", sorted(FITS))
class TestFamilies:
    def test_width_one(self, name):
        _solve([_pair(FITS[name], 110.0)], [2e5])

    def test_width_ten(self, name):
        costs = np.linspace(50.0, 1500.0, 10)
        _solve([_pair(FITS[name], float(c)) for c in costs], [1e5] * 10)


def test_width_over_five_hundred():
    rng = np.random.default_rng(3)
    pairs, horizons = [], []
    names = sorted(FITS)
    for k in range(520):
        dist = FITS[names[k % len(names)]]
        pairs.append(_pair(dist, float(rng.uniform(30.0, 1500.0)), t_elapsed=float(rng.uniform(0.0, 2e4))))
        horizons.append(float(rng.uniform(0.0, 3e4)))
    with use_metrics() as reg:
        solve_schedules([lock for lock, _ in pairs], horizons)
    snap = reg.as_dict()
    # one schedule.solves per lane solve, one lockstep call
    assert snap["counters"]["schedule.lockstep.lanes"] == 520
    assert snap["counters"]["schedule.solves"] == sum(len(lock._intervals) for lock, _ in pairs)
    assert snap["histograms"]["schedule.lockstep.seconds"]["count"] == 1
    for lock, lazy in pairs:
        assert_chain_matches(lock, lazy)


class TestAges:
    def test_job_start_to_deep_tail(self):
        weibull = Weibull(0.43, 3409.0)
        ages = (0.0, 340.0, 3409.0, 34090.0, 4e6)
        # the last lane sits where the lazy chain integrates numerically
        assert float(weibull.sf(ages[-1])) < 1e-9
        pairs = [_pair(weibull, 110.0, t_elapsed=a) for a in ages]
        hyper = Hyperexponential([0.3, 0.5, 0.2], [1.0 / 50.0, 1.0 / 2000.0, 1.0 / 20000.0])
        pairs += [_pair(hyper, 110.0, t_elapsed=a) for a in (0.0, 200.0, 2e4, 4e5)]
        pairs += [_pair(Exponential(1.0 / 5000.0), 110.0, t_elapsed=a) for a in (0.0, 1e6)]
        _solve(pairs, [5e4] * len(pairs))

    def test_recovery_age_and_explicit_bounds(self):
        pairs = [
            _pair(FITS["weibull"], 200.0, include_recovery_age=True),
            _pair(FITS["hyperexp2"], 200.0, t_min=1.0, t_max=5e4),
            # a bound below the optimum: no interior grid minimum, so the
            # lane takes the scalar solver's robust fallback
            _pair(FITS["weibull"], 200.0, t_min=1.0, t_max=5.0),
        ]
        _solve(pairs, [6e4] * len(pairs))

    def test_other_family_left_to_the_lazy_chain(self):
        other = [_pair(LogNormal(7.0, 1.5), c, t_elapsed=a)[0] for c in (50.0, 750.0) for a in (0.0, 9e4)]
        lock, lazy = _pair(FITS["weibull"], 50.0)
        with use_metrics() as reg:
            solve_schedules([*other, lock], [4e4] * (len(other) + 1))
        assert all(not s._intervals for s in other)
        assert reg.as_dict()["counters"]["schedule.lockstep.lanes"] == 1
        assert_chain_matches(lock, lazy)


class TestStops:
    def test_convergence_stop(self):
        lock, lazy = _pair(FITS["hyperexp2"], 50.0)
        solve_schedules([lock], [1e12])
        assert lock._converged_at is not None
        assert len(lock._intervals) == lock._converged_at + 1
        assert_chain_matches(lock, lazy)

    def test_horizon_stop(self):
        lock, lazy = _pair(FITS["weibull"], 50.0, converge_rel_tol=None)
        horizon = 2e4
        solve_schedules([lock], [horizon])
        T = np.array([it.T_opt for it in lock._intervals])
        cum = np.cumsum(T + 50.0)
        # exactly the prefix whose cycles first exceed the horizon
        assert cum[-1] > horizon >= (cum[-2] if T.size > 1 else 0.0)
        assert lock._converged_at is None
        assert_chain_matches(lock, lazy)

    def test_zero_horizon_still_solves_the_first_interval(self):
        lock, lazy = _pair(FITS["weibull"], 100.0)
        solve_schedules([lock], [0.0])
        assert len(lock._intervals) == 1
        assert_chain_matches(lock, lazy)

    def test_resumes_after_lazily_solved_prefix(self):
        lock, lazy = _pair(FITS["weibull"], 100.0, converge_rel_tol=None)
        lock.intervals(4)
        solve_schedules([lock, lock], [3e4, 5e4])  # duplicates: widest horizon wins
        assert np.cumsum([it.T_opt + 100.0 for it in lock._intervals])[-1] > 5e4
        assert_chain_matches(lock, lazy)

    def test_memoryless_needs_one_solve(self):
        lock, lazy = _pair(FITS["exponential"], 100.0)
        solve_schedules([lock], [1e7])
        assert len(lock._intervals) == 1
        assert_chain_matches(lock, lazy)

    def test_golden_method_leaves_the_lazy_chain_in_charge(self):
        lock, _lazy = _pair(FITS["weibull"], 100.0)
        with use_solver(method="golden"):
            solve_schedules([lock], [1e5])
        assert lock._intervals == []

    def test_mismatched_horizons_rejected(self):
        lock, _lazy = _pair(FITS["weibull"], 100.0)
        with pytest.raises(ValueError):
            solve_schedules([lock], [])


def test_cycles_to_cover():
    assert int(cycles_to_cover(10.0, 5.0, 9.0)) == 0
    assert int(cycles_to_cover(10.0, 5.0, 10.0)) == 1
    assert int(cycles_to_cover(10.0, 5.0, 24.0)) == 3
    np.testing.assert_array_equal(
        cycles_to_cover(np.array([0.0, 30.0]), np.array([10.0, 10.0]), np.array([25.0, 25.0])), [3, 0]
    )


_family = st.sampled_from(["exponential", "weibull", "hyperexp2", "hyperexp3"])


def _random_dist(family, a, b, c):
    if family == "exponential":
        return Exponential(1.0 / (100.0 + 2e4 * a))
    if family == "weibull":
        return Weibull(0.3 + 1.5 * a, 200.0 + 2e4 * b)
    if family == "hyperexp2":
        return Hyperexponential([0.2 + 0.6 * a, 0.8 - 0.6 * a], [1.0 / (50.0 + 500.0 * b), 1.0 / (5e3 + 5e4 * c)])
    w = np.array([1.0 + a, 1.0 + b, 1.0 + c])
    return Hyperexponential(w / w.sum(), [1.0 / 60.0, 1.0 / (600.0 + 3e3 * b), 1.0 / (1e4 + 9e4 * c)])


@given(
    st.lists(
        st.tuples(
            _family,
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.floats(10.0, 2000.0),
            st.floats(0.0, 5e4),
            st.floats(0.0, 4e4),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=25, deadline=None)
def test_random_fits_and_costs_match_the_lazy_chain(lanes):
    pairs, horizons = [], []
    for family, a, b, c, cost, age, horizon in lanes:
        pairs.append(_pair(_random_dist(family, a, b, c), cost, t_elapsed=age))
        horizons.append(horizon)
    _solve(pairs, horizons)


class TestSweep:
    @pytest.fixture(scope="class")
    def pool(self):
        return generate_condor_pool(
            SyntheticPoolConfig(n_machines=6, n_observations=40), np.random.default_rng(8)
        )

    SETTINGS = SweepSettings(
        checkpoint_costs=(50.0, 250.0, 1000.0),
        n_train=12,
        base_config=SimulationConfig(checkpoint_cost=0.0, checkpoint_size_mb=500.0),
    )

    def test_serial_and_two_workers_identical(self, pool):
        serial = simulate_pool(pool, self.SETTINGS)
        parallel = simulate_pool(pool, self.SETTINGS, n_workers=2)
        assert serial.results == parallel.results

    def test_tables_match_the_scalar_replay_loop(self, pool):
        from dataclasses import replace

        fast = simulate_pool(pool, self.SETTINGS)
        slow = simulate_pool(pool, replace(self.SETTINGS, batch_replay=False))
        for make in ("efficiency_table", "bandwidth_table"):
            got = getattr(SimulationStudy(sweep=fast, checkpoint_size_mb=500.0), make)().render()
            want = getattr(SimulationStudy(sweep=slow, checkpoint_size_mb=500.0), make)().render()
            assert got == want
        for f, s in zip(fast.results, slow.results, strict=True):
            assert f.machine_id == s.machine_id and f.n_checkpoints_completed == s.n_checkpoints_completed
            assert math.isclose(f.useful_work, s.useful_work, rel_tol=REL, abs_tol=1e-12)

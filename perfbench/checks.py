"""Output checks against the repo's independent oracles.

Tolerances are the ones the repo's own equivalence suites gate on:

* batch replay vs the scalar ``simulate_trace`` loop
  (``tests/test_batch_replay.py``): every float field within 1e-9
  relative (1e-12 absolute), every count exact;
* the production hybrid solver vs golden section
  (``tests/test_solver_equivalence.py``): the hybrid never on a worse
  objective value, and ``T_opt`` within 5e-5 relative wherever the two
  objectives agree to 1e-8.  The suite asserts the objective agreement
  too, but it only solves unimodal cases: a fitted three-phase
  hyperexponential can have two local minima of Gamma(T)/T, and golden
  section, started from Young's guess, then stops in the worse one
  (for example T = 555 s at ratio 1.508 where the hybrid's grid finds
  T = 8058 s at 1.419).  That is the oracle's limit, not a program
  error, so only a worse hybrid objective counts as a mismatch there;
* served vs direct solves (``tests/test_serve_equivalence.py``):
  bit-for-bit equal.

Every check returns ``(attempted, failed, notes)``; each mismatch is
one failed operation.
"""

from __future__ import annotations

import math
import zlib
from typing import Any

import numpy as np

REPLAY_REL = 1e-9
REPLAY_ABS = 1e-12
GOLDEN_T_REL = 5e-5
GOLDEN_OBJ_REL = 1e-8

#: machines per pool whose sweep results are recomputed by the scalar
#: loop, and (machine, model) fits whose T_opt chain is re-solved by
#: golden section
REPLAY_MACHINES = 1
GOLDEN_FITS = 2
GOLDEN_AGES = 4


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= max(rel * max(abs(got), abs(want)), abs_tol)


def results_match(got: dict[str, Any], want: dict[str, Any]) -> bool:
    """Field-by-field replay equality at the batch-replay suite's budget."""
    if got.keys() != want.keys():
        return False
    for key, value in want.items():
        other = got[key]
        if isinstance(value, float) or isinstance(other, float):
            if not _close(float(other), float(value), REPLAY_REL, REPLAY_ABS):
                return False
        elif other != value:
            return False
    return True


def oracle_settings() -> Any:
    """The settings ``run_simulation_study`` uses for Tables 1/3, on the
    scalar replay loop."""
    from repro.experiments.study import PAPER_CHECKPOINT_COSTS
    from repro.simulation.accounting import SimulationConfig
    from repro.simulation.runner import SweepSettings

    return SweepSettings(
        checkpoint_costs=PAPER_CHECKPOINT_COSTS,
        base_config=SimulationConfig(checkpoint_cost=0.0, checkpoint_size_mb=500.0),
        batch_replay=False,
    )


def check_sweep(
    seed: int, rep: int, size: tuple[int, int], measured: dict[str, Any]
) -> tuple[int, int, list[str]]:
    """Structural checks on a whole sweep plus oracle recomputation of
    a seed-chosen sample of it."""
    import dataclasses

    from pool import make_pool
    from repro.simulation.runner import simulate_machine

    pool = make_pool(seed, rep, *size)
    settings = oracle_settings()
    notes: list[str] = []
    failed = 0
    results = measured["results"]
    expected = len(pool) * len(settings.model_names) * len(settings.checkpoint_costs)
    # every result present, finite, and both tables rendered in full
    failed += max(expected - len(results), 0)
    bad = [
        r for r in results
        if not all(math.isfinite(v) for v in r.values() if isinstance(v, float))
        or not 0.0 <= r["useful_work"] <= r["total_time"] * (1 + 1e-12)
    ]
    failed += len(bad)
    if bad:
        notes.append(f"{len(bad)} non-finite or impossible results")
    for table in measured["tables"]:
        rows = [line for line in table.splitlines() if "±" in line]
        if len(rows) != len(settings.checkpoint_costs):
            failed += 1
            notes.append("a rendered table is missing rows")
    attempted = expected + len(measured["tables"])

    by_key = {(r["machine_id"], r["model_name"], r["checkpoint_cost"]): r for r in results}
    rng = np.random.default_rng([seed, rep, 1])
    sample = rng.choice(len(pool), size=min(REPLAY_MACHINES, len(pool)), replace=False)
    for i in sample:
        trace = pool.traces[int(i)]
        for oracle in simulate_machine(trace, settings):
            want = dataclasses.asdict(oracle)
            got = by_key.get((want["machine_id"], want["model_name"], want["checkpoint_cost"]))
            attempted += 1
            if got is None or not results_match(got, want):
                failed += 1
                notes.append(
                    f"replay of {want['machine_id']}/{want['model_name']}/"
                    f"C={want['checkpoint_cost']:g} differs from the scalar loop"
                )

    a, f, golden_notes = check_golden(pool, settings, rng)
    return attempted + a, failed + f, notes + golden_notes


def check_golden(pool: Any, settings: Any, rng: np.random.Generator) -> tuple[int, int, list[str]]:
    """Re-solve a sample of the sweep's T_opt chains by golden section.

    The fits use the runner's per-machine EM stream convention, so the
    distributions are the ones the sweep solved for; the ages follow
    the schedule chain ``age_{k+1} = age_k + T_k + C + L``.
    """
    from dataclasses import replace

    from repro.core.optimizer import optimize_interval, use_solver
    from repro.distributions.fitting import fit_model
    from repro.simulation.trace_sim import storage_schedule_costs

    attempted = failed = 0
    notes: list[str] = []
    for _ in range(GOLDEN_FITS):
        trace = pool.traces[int(rng.integers(len(pool)))]
        model = settings.model_names[int(rng.integers(len(settings.model_names)))]
        cost = float(settings.checkpoint_costs[int(rng.integers(len(settings.checkpoint_costs)))])
        train, _test = trace.split(settings.n_train)
        machine_key = zlib.crc32(trace.machine_id.encode("utf-8"))
        fit_rng = np.random.default_rng(np.random.SeedSequence([settings.em_seed, machine_key]))
        fits = {name: fit_model(name, train, rng=fit_rng) for name in settings.model_names}
        dist = fits[model]
        costs = storage_schedule_costs(dist, replace(settings.base_config, checkpoint_cost=cost))
        age = 0.0
        for _k in range(GOLDEN_AGES):
            with use_solver(cache=False):
                hybrid = optimize_interval(dist, costs, age=age)
            with use_solver(method="golden", cache=False):
                golden = optimize_interval(dist, costs, age=age)
            attempted += 1
            same_minimum = _close(hybrid.overhead_ratio, golden.overhead_ratio, GOLDEN_OBJ_REL)
            if not (
                hybrid.overhead_ratio <= golden.overhead_ratio * (1.0 + 1e-12)
                and (not same_minimum or _close(hybrid.T_opt, golden.T_opt, GOLDEN_T_REL))
            ):
                failed += 1
                notes.append(
                    f"T_opt of {trace.machine_id}/{model}/C={cost:g} at age {age:.1f}: "
                    f"hybrid {hybrid.T_opt!r} vs golden {golden.T_opt!r}"
                )
            age += hybrid.T_opt + costs.checkpoint + costs.latency
    return attempted, failed, notes


def check_served(
    served: list[tuple[str, float, float]], n_checks: int
) -> tuple[int, int, list[str]]:
    """Every Nth served ``T_opt`` must equal, bit for bit, a direct
    ``optimize_interval`` call on the demo pool with the cache off."""
    from repro.core.optimizer import optimize_interval
    from repro.core.solver_cache import use_solver_cache
    from repro.serve.bench import demo_registry

    registry = demo_registry()
    step = max(1, len(served) // max(n_checks, 1))
    direct: dict[tuple[str, float], float] = {}
    attempted = failed = 0
    notes: list[str] = []
    with use_solver_cache(None):
        for pool, age, t_opt in served[::step]:
            key = (pool, age)
            if key not in direct:
                entry = registry.get(pool)
                direct[key] = optimize_interval(entry.distribution, entry.costs, age=age).T_opt
            attempted += 1
            if t_opt != direct[key]:
                failed += 1
                if len(notes) < 5:
                    notes.append(
                        f"served T_opt for {pool} at age {age!r}: {t_opt!r}, "
                        f"direct solve {direct[key]!r}"
                    )
    return attempted, failed, notes

"""Optimal work-interval selection (``T_opt``).

The optimal interval minimises the expected overhead ratio
``Gamma(T) / T`` of the Markov model.  The objective is coercive at both
ends -- as ``T -> 0`` every interval pays the fixed checkpoint cost for
vanishing work, and as ``T -> inf`` the retry term ``K22 * P22 / P21``
blows up because a failure before ``L + R + T`` becomes certain -- so an
interior minimum exists whenever the availability distribution has
unbounded support.

Two solvers locate it, selected process-wide with :func:`use_solver`:

* ``"golden"`` -- bracketing plus Golden Section Search, exactly the
  method the paper cites from Numerical Recipes; kept as the test
  oracle and the benchmark baseline.
* ``"hybrid"`` (the default) -- the vectorised golden/Brent
  hybrid of :func:`repro.numerics.optimize.minimize_positive_hybrid`:
  one batched grid pass through
  :meth:`~repro.core.markov.MarkovIntervalModel.overhead_ratio_batch`
  brackets the minimum (or a warm-start triple seeded from a nearby
  solve skips the grid), Brent refines, and a parabolic polish pins
  ``T_opt`` to ~1e-10 relative so warm, cold and cached solves agree.

Solves are memoised in the process-global
:class:`~repro.core.solver_cache.SolverCache` keyed on (distribution
fingerprint, costs, age bucket); see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro.core.markov import CheckpointCosts, MarkovIntervalModel
from repro.core.solver_cache import SolverCache, SolverCacheKey, active_cache, use_solver_cache
from repro.distributions.base import ArrayLike, AvailabilityDistribution, FloatArray
from repro.numerics.optimize import minimize_positive_hybrid, minimize_positive_scalar

__all__ = [
    "OptimalInterval",
    "default_solver_method",
    "optimize_interval",
    "optimize_intervals_batch",
    "use_solver",
    "young_approximation",
]

#: solver methods accepted by :func:`use_solver`
_METHODS = ("hybrid", "golden")

_default_method = "hybrid"

#: default search floor and bracket tolerance of :func:`optimize_interval`,
#: which :func:`optimize_intervals_batch` always uses
_T_MIN = 1e-3
_REL_TOL = 1e-6

#: fewest cache misses in one :func:`optimize_intervals_batch` call that
#: are solved in one lockstep call rather than one scalar solve each:
#: the lockstep's per-call cost (~3-5 ms of array set-up and masked
#: steps) pays off from about this width (docs/PERFORMANCE.md)
_LOCKSTEP_MIN_LANES = 8

#: memo of the default ``t_max`` bound per (fingerprint, age) -- a pure
#: function of its key, recomputed identically on any miss, so clearing
#: the (bounded) memo never changes results
_TMAX_MEMO: dict[tuple[tuple[object, ...], float], float] = {}
_TMAX_MEMO_CAPACITY = 4096


def default_solver_method() -> str:
    """The process-wide solver method used when none is requested."""
    return _default_method


@contextmanager
def use_solver(
    *,
    method: str | None = None,
    cache: SolverCache | None | bool = True,
) -> Iterator[None]:
    """Temporarily override the process solver defaults.

    This is the only way to pick the solver: ``method="golden"`` swaps
    in the reference oracle for equivalence tests and benchmarks.

    Parameters
    ----------
    method:
        ``"hybrid"`` or ``"golden"``; ``None`` keeps the current default.
    cache:
        ``True`` keeps the currently active cache, ``False``/``None``
        disables caching inside the block, a :class:`SolverCache`
        installs that instance.
    """
    global _default_method
    if method is not None and method not in _METHODS:
        raise ValueError(f"unknown solver method: {method!r}")
    previous = _default_method
    if method is not None:
        _default_method = method
    try:
        if cache is True:
            yield
        else:
            with use_solver_cache(cache if isinstance(cache, SolverCache) else None):
                yield
    finally:
        _default_method = previous


@dataclass(frozen=True)
class OptimalInterval:
    """The optimiser's output for one (distribution, costs, age) triple."""

    T_opt: float
    gamma: float
    overhead_ratio: float
    expected_efficiency: float
    age: float
    converged: bool


def young_approximation(distribution: AvailabilityDistribution, costs: CheckpointCosts, age: float = 0.0) -> float:
    """Young's first-order estimate ``T ~ sqrt(2 * C * MTTF)``.

    Used only to seed the bracketing search; the mean time to failure is
    taken as the mean residual life at the current uptime, which adapts
    the seed to heavy-tailed ageing.
    """
    mttf = float(distribution.mean_residual_life(age))
    if not math.isfinite(mttf) or mttf <= 0.0:
        mttf = max(distribution.mean(), 1.0)
    c = max(costs.checkpoint, 1e-6)
    return math.sqrt(2.0 * c * mttf)


def optimize_interval(
    distribution: AvailabilityDistribution,
    costs: CheckpointCosts,
    *,
    age: float = 0.0,
    t_min: float = _T_MIN,
    t_max: float | None = None,
    rel_tol: float = _REL_TOL,
    warm_start: float | None = None,
) -> OptimalInterval:
    """Compute ``T_opt`` for a distribution, cost set and elapsed uptime.

    Parameters
    ----------
    distribution:
        Fitted availability model.
    costs:
        ``C``/``R``/``L`` constants.
    age:
        ``T_elapsed``: time the resource has been available already
        (ignored by the memoryless exponential).
    t_min, t_max:
        Search bounds for the work interval.  ``t_max`` defaults to
        ``clamp(1e4 * MRL, 1e6, 1e9)`` seconds, where MRL is the mean
        residual life at ``age`` (see :func:`search_bound`): wide enough
        that the heavy-tailed optima of the paper's traces are interior.
    rel_tol:
        Relative tolerance of the bracket refinement.
    warm_start:
        A nearby known solution (typically ``T_opt`` of the previous
        schedule age); seeds a narrow bracket that skips the global
        scan.  Correctness is unaffected: if the narrow bracket's
        refinement would hit an edge, the solver falls back to the full
        cold path.

    The solver is the process default (see :func:`use_solver`).
    """
    method = _default_method
    cache = active_cache()
    fingerprint = distribution.fingerprint() if cache is not None else None
    if t_max is None:
        t_max = _resolve_t_max(distribution, fingerprint, age)

    key = None
    if cache is not None:
        key = SolverCache.key(
            fingerprint,
            costs.checkpoint,
            costs.recovery,
            costs.latency,
            age,
            t_min,
            t_max,
            rel_tol,
            method,
        )
        hit = cache.get(key)
        if hit is not None:
            return hit

    opt = _solve_interior(
        distribution,
        costs,
        age=age,
        t_min=t_min,
        t_max=t_max,
        rel_tol=rel_tol,
        method=method,
        warm_start=warm_start,
    )
    if cache is not None and key is not None:
        cache.put(key, opt)
    return opt


def search_bound(mrl: ArrayLike, mean: Callable[[], ArrayLike]) -> FloatArray:
    """The default search upper bound from a mean residual life, elementwise.

    ``clamp(1e4 * mrl, 1e6, 1e9)``; where ``mrl`` is not finite and
    positive, ``max(mean(), 1)`` stands in (``mean`` is called only
    then: some families integrate for it).  Shared by
    :func:`_resolve_t_max` and the lockstep kernels.
    """
    arr = np.asarray(mrl, dtype=np.float64)
    usable = np.isfinite(arr) & (arr > 0.0)
    if not usable.all():
        arr = np.where(usable, arr, np.maximum(mean(), 1.0))
    out: FloatArray = np.minimum(np.maximum(1e4 * arr, 1e6), 1e9)
    return out


def _resolve_t_max(
    distribution: AvailabilityDistribution,
    fingerprint: tuple[object, ...] | None,
    age: float,
) -> float:
    """The default search upper bound for one (distribution, age).

    A pure function of its inputs, memoised per (fingerprint, age) so a
    cache-hit query does not pay a ``mean_residual_life`` evaluation
    (the serving hot path -- for heavy-tailed families that call costs
    more than the cache lookup it guards).  The memoised value is the
    same float the direct computation produces, so solves stay
    bit-identical; the memo is only consulted when a fingerprint is in
    hand (i.e. a solver cache is active).
    """
    memo_key = (fingerprint, age) if fingerprint is not None else None
    if memo_key is not None:
        cached = _TMAX_MEMO.get(memo_key)
        if cached is not None:
            return cached
    t_max = float(search_bound(distribution.mean_residual_life(age), distribution.mean))
    if memo_key is not None:
        if len(_TMAX_MEMO) >= _TMAX_MEMO_CAPACITY:
            _TMAX_MEMO.clear()
        _TMAX_MEMO[memo_key] = t_max
    return t_max


def _solve_interior(
    distribution: AvailabilityDistribution,
    costs: CheckpointCosts,
    *,
    age: float,
    t_min: float,
    t_max: float,
    rel_tol: float,
    method: str,
    warm_start: float | None = None,
) -> OptimalInterval:
    """The uncached solve: bracket + refine with resolved bounds."""
    model = MarkovIntervalModel(distribution, costs, age)
    guess = young_approximation(distribution, costs, age)
    guess = min(max(guess, t_min * 2.0), t_max / 2.0)

    def objective(T: float) -> float:
        ratio = model.overhead_ratio(T)
        return ratio if math.isfinite(ratio) else 1e300

    if method == "golden":
        result = minimize_positive_scalar(
            objective, guess=guess, lo=t_min, hi=t_max, rel_tol=rel_tol
        )
    else:

        def objective_batch(T: FloatArray) -> FloatArray:
            ratios = model.overhead_ratio_batch(T)
            out: FloatArray = np.where(np.isfinite(ratios), ratios, 1e300)
            return out

        result = minimize_positive_hybrid(
            objective,
            func_batch=objective_batch,
            guess=guess,
            warm_start=warm_start,
            lo=t_min,
            hi=t_max,
            rel_tol=rel_tol,
        )
    x = min(max(result.x, t_min), t_max)
    g = model.gamma(x)
    return OptimalInterval(
        T_opt=x,
        gamma=g,
        overhead_ratio=result.fx,
        expected_efficiency=x / g if math.isfinite(g) and g > 0 else 0.0,
        age=age,
        converged=result.converged,
    )


def optimize_intervals_batch(
    distribution: AvailabilityDistribution,
    costs: CheckpointCosts,
    ages: Iterable[float],
) -> list[OptimalInterval]:
    """Solve one (distribution, costs) pair at many elapsed uptimes.

    This is the dispatch primitive behind the ``repro serve``
    micro-batcher: a burst of concurrent queries that share a fitted
    model and cost set collapses to **one solve per distinct age** --
    duplicate ages (the common case for a pool manager polling many
    machines at the same bucketed uptime) are answered from the first
    solve of the burst.  Each distinct age probes the solver cache once;
    the misses are then solved together: at least
    ``_LOCKSTEP_MIN_LANES`` of them under the hybrid solver, of a family
    with a lockstep kernel, take one vectorised
    :func:`~repro.core.lockstep.solve_intervals` call, and fewer take
    one scalar hybrid solve (:func:`_solve_interior`) each.

    Every returned interval is **bitwise identical** to what the scalar
    :func:`optimize_interval` returns with its default settings: distinct
    ages build the same cache key and get the same warm-start-free cold
    solve -- only the shared distribution fingerprint is hoisted out of
    the loop -- and duplicates reuse the identical result object.  A
    distinct age whose cache key an earlier miss of the batch already
    holds (ages equal to the key's rounding) shares that miss's solve
    and is then probed like the sequential loop's hit.  The equivalence
    suite (``tests/test_serve_equivalence.py``) gates this.

    Results are returned in input order.
    """
    method = _default_method
    cache = active_cache()
    # the whole batch shares one distribution: hoist the fingerprint (and
    # the per-age cache key construction) out of optimize_interval so a
    # burst of cache hits costs one dict probe per distinct age
    fingerprint = distribution.fingerprint() if cache is not None else None
    ages = [float(age) for age in ages]
    resolved: dict[float, OptimalInterval] = {}
    # distinct cache-missed ages -> (t_max, cache key)
    misses: dict[float, tuple[float, SolverCacheKey | None]] = {}
    # cache key of each miss -> its age; ages whose key a miss holds
    held: dict[SolverCacheKey, float] = {}
    shared: dict[float, SolverCacheKey] = {}
    for a in ages:
        if a in resolved or a in misses or a in shared:
            continue
        t_max = _resolve_t_max(distribution, fingerprint, a)
        key = None
        if cache is not None:
            key = SolverCache.key(
                fingerprint,
                costs.checkpoint,
                costs.recovery,
                costs.latency,
                a,
                _T_MIN,
                t_max,
                _REL_TOL,
                method,
            )
            if key in held:  # probed after the puts, as a sequential loop would hit
                shared[a] = key
                continue
            opt = cache.get(key)
            if opt is not None:
                resolved[a] = opt
                continue
            held[key] = a
        misses[a] = (t_max, key)

    solved: list[OptimalInterval] | None = None
    if method == "hybrid" and len(misses) >= _LOCKSTEP_MIN_LANES:
        # deferred: repro.core.lockstep imports this module
        from repro.core.lockstep import has_kernel, solve_intervals

        if has_kernel(distribution):
            bounds = [t_max for t_max, _key in misses.values()]
            solved = solve_intervals(distribution, costs, list(misses), bounds)
    if solved is None:
        solved = [
            _solve_interior(
                distribution,
                costs,
                age=a,
                t_min=_T_MIN,
                t_max=t_max,
                rel_tol=_REL_TOL,
                method=method,
            )
            for a, (t_max, _key) in misses.items()
        ]
    for (a, (_t_max, key)), opt in zip(misses.items(), solved, strict=True):
        if cache is not None and key is not None:
            cache.put(key, opt)
        resolved[a] = opt
    for a, key in shared.items():
        hit = cache.get(key) if cache is not None else None
        # None only if this batch's own puts evicted it (a cache smaller
        # than the batch)
        resolved[a] = hit if hit is not None else resolved[held[key]]
    return [resolved[a] for a in ages]

"""Optimal work-interval selection (``T_opt``).

The optimal interval minimises the expected overhead ratio
``Gamma(T) / T`` of the Markov model.  The objective is coercive at both
ends -- as ``T -> 0`` every interval pays the fixed checkpoint cost for
vanishing work, and as ``T -> inf`` the retry term ``K22 * P22 / P21``
blows up because a failure before ``L + R + T`` becomes certain -- so an
interior minimum exists whenever the availability distribution has
unbounded support.

Two solvers locate it:

* ``method="golden"`` -- bracketing plus Golden Section Search, exactly
  the method the paper cites from Numerical Recipes; kept as the
  reference implementation and the benchmark baseline.
* ``method="hybrid"`` (the default) -- the vectorised golden/Brent
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
from collections.abc import Callable, Iterator

import numpy as np

from repro.core.markov import CheckpointCosts, MarkovIntervalModel
from repro.core.solver_cache import SolverCache, active_cache, use_solver_cache
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

#: solver methods accepted by :func:`optimize_interval`
_METHODS = ("hybrid", "golden")

_default_method = "hybrid"

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
    t_min: float = 1e-3,
    t_max: float | None = None,
    rel_tol: float = 1e-6,
    warm_start: float | None = None,
    method: str | None = None,
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
        ``1e4`` times the mean residual life (capped at ``1e9`` s), wide
        enough that the heavy-tailed optima of the paper's traces are
        interior.
    rel_tol:
        Relative tolerance of the bracket refinement.
    warm_start:
        A nearby known solution (typically ``T_opt`` of the previous
        schedule age); seeds a narrow bracket that skips the global
        scan.  Correctness is unaffected: if the narrow bracket's
        refinement would hit an edge, the solver falls back to the full
        cold path.
    method:
        ``"hybrid"`` (vectorised golden/Brent, the default) or
        ``"golden"`` (the paper's reference path); ``None`` uses the
        process default (see :func:`use_solver`).
    """
    if method is None:
        method = _default_method
    elif method not in _METHODS:
        raise ValueError(f"unknown solver method: {method!r}")
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
    ages: "Iterable[float]",
    *,
    t_min: float = 1e-3,
    t_max: float | None = None,
    rel_tol: float = 1e-6,
    method: str | None = None,
) -> list[OptimalInterval]:
    """Solve one (distribution, costs) pair at many elapsed uptimes.

    This is the dispatch primitive behind the ``repro serve``
    micro-batcher: a burst of concurrent queries that share a fitted
    model and cost set collapses to **one solve per distinct age** --
    duplicate ages (the common case for a pool manager polling many
    machines at the same bucketed uptime) are answered from the first
    solve of the burst, and each distinct age takes a single vectorised
    hybrid pass (one :meth:`~repro.core.markov.MarkovIntervalModel.\
overhead_ratio_batch` grid evaluation plus Brent refinement) rather
    than a golden-section evaluation chain.

    Every returned interval is **bitwise identical** to what the scalar
    :func:`optimize_interval` returns for the same arguments: distinct
    ages build the same cache key and run the same warm-start-free cold
    solve (:func:`_solve_interior`) -- only the shared distribution
    fingerprint and bound resolution are hoisted out of the loop -- and
    duplicates reuse the identical result object.  The equivalence
    suite (``tests/test_serve_equivalence.py``) gates this.

    Results are returned in input order.
    """
    if method is None:
        method = _default_method
    elif method not in _METHODS:
        raise ValueError(f"unknown solver method: {method!r}")
    cache = active_cache()
    # the whole batch shares one distribution: hoist the fingerprint (and
    # the per-age cache key construction) out of optimize_interval so a
    # burst of cache hits costs one dict probe per distinct age
    fingerprint = distribution.fingerprint() if cache is not None else None
    resolved: dict[float, OptimalInterval] = {}
    out: list[OptimalInterval] = []
    for age in ages:
        a = float(age)
        opt = resolved.get(a)
        if opt is None:
            bound = t_max if t_max is not None else _resolve_t_max(distribution, fingerprint, a)
            if cache is not None:
                key = SolverCache.key(
                    fingerprint,
                    costs.checkpoint,
                    costs.recovery,
                    costs.latency,
                    a,
                    t_min,
                    bound,
                    rel_tol,
                    method,
                )
                opt = cache.get(key)
                if opt is None:
                    opt = _solve_interior(
                        distribution,
                        costs,
                        age=a,
                        t_min=t_min,
                        t_max=bound,
                        rel_tol=rel_tol,
                        method=method,
                    )
                    cache.put(key, opt)
            else:
                opt = _solve_interior(
                    distribution,
                    costs,
                    age=a,
                    t_min=t_min,
                    t_max=bound,
                    rel_tol=rel_tol,
                    method=method,
                )
            resolved[a] = opt
        out.append(opt)
    return out

"""Aperiodic checkpoint schedules -- the sequence ``T_opt(i)``.

For a memoryless (exponential) model a single periodic interval is
optimal.  For the Weibull and hyperexponential models the future-lifetime
distribution changes as the resource ages, so the paper computes a
*schedule*: ``T_opt(0)`` at job initiation (using ``T_elapsed``, the time
the resource has already been available), then each successive
``T_opt(i)`` at the uptime the resource will have reached at the start of
work interval ``i``.  The schedule remains valid until the next failure,
after which a fresh schedule is computed.

:class:`CheckpointSchedule` materialises the sequence lazily and caches
it, since the trace simulator asks for the same prefixes over and over.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.core.markov import CheckpointCosts
from repro.core.optimizer import OptimalInterval, optimize_interval
from repro.distributions.base import AvailabilityDistribution
from repro.distributions.exponential import Exponential
from repro.obs.metrics import active as _metrics
from repro.obs.tracing import active as _trace_active

__all__ = ["CheckpointSchedule", "cycles_to_cover"]

#: ceiling on :func:`cycles_to_cover` (exactly representable, so the
#: integer cast never overflows however small the cycle)
_MAX_COVER = float(1 << 53)


def cycles_to_cover(
    elapsed: float | np.ndarray, cycle: float | np.ndarray, horizon: float | np.ndarray
) -> "np.ndarray[Any, np.dtype[np.int64]]":
    """Further cycles of length ``cycle`` until ``elapsed`` exceeds ``horizon``.

    The least ``n >= 0`` with ``elapsed + n * cycle > horizon``,
    elementwise: ``0`` once the committed cycle time ``elapsed`` already
    covers the horizon (the stop rule of both the replay's cycle table
    and the lockstep solver), else the count of repeats of a settled
    (periodic or converged) ``cycle`` still needed.  ``cycle`` must be
    positive wherever the answer is non-zero.
    """
    gap = np.asarray(horizon, dtype=np.float64) - np.asarray(elapsed, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.floor(gap / np.asarray(cycle, dtype=np.float64)) + 1.0
    out: np.ndarray[Any, np.dtype[np.int64]] = np.where(
        gap < 0.0, 0.0, np.clip(n, 1.0, _MAX_COVER)
    ).astype(np.int64)
    return out


class CheckpointSchedule:
    """Lazy, cached sequence of optimal work intervals for one uptime run.

    Parameters
    ----------
    distribution:
        Fitted availability model for the resource.
    costs:
        ``C``/``R``/``L`` constants in effect for this run.
    t_elapsed:
        Resource uptime at job initiation (``T_elapsed`` in the paper).
    include_recovery_age:
        If ``True``, the initial recovery phase of duration ``R`` ages
        the resource before the first work interval begins (the resource
        is up, just not doing useful work).  The paper computes
        ``T_opt(0)`` at initiation time, i.e. without the recovery
        offset, so the default is ``False``; the ablation benchmarks
        exercise both settings.
    converge_rel_tol:
        Optional early-out for long schedules: once two consecutive
        ``T_opt`` values differ by less than this relative tolerance the
        schedule is treated as converged and the last interval is reused
        for all later indices.  Non-memoryless optima settle quickly as
        the conditional distribution stabilises (the hyperexponential
        converges to its slowest phase; the Weibull drifts ever more
        slowly), so the trace simulator enables this with ``1e-3`` to
        bound the number of golden-section solves per schedule.
        ``None`` (the default) disables the shortcut.
    """

    def __init__(
        self,
        distribution: AvailabilityDistribution,
        costs: CheckpointCosts,
        *,
        t_elapsed: float = 0.0,
        include_recovery_age: bool = False,
        t_min: float = 1e-3,
        t_max: float | None = None,
        converge_rel_tol: float | None = None,
    ) -> None:
        if t_elapsed < 0:
            raise ValueError(f"t_elapsed must be non-negative, got {t_elapsed}")
        self.distribution = distribution
        self.costs = costs
        self.t_elapsed = float(t_elapsed)
        self.include_recovery_age = include_recovery_age
        self._t_min = t_min
        self._t_max = t_max
        self._intervals: list[OptimalInterval] = []
        self._ages: list[float] = []
        self._memoryless = isinstance(distribution, Exponential)
        self._converge_rel_tol = converge_rel_tol
        self._converged_at: int | None = None

    # ------------------------------------------------------------------
    @property
    def is_periodic(self) -> bool:
        """True when every interval is identical (memoryless model)."""
        return self._memoryless

    def age_of_interval(self, i: int) -> float:
        """Resource uptime at the start of work interval ``i``."""
        self._extend_to(i)
        return self._ages[i]

    def interval(self, i: int) -> OptimalInterval:
        """The full optimiser output for work interval ``i``."""
        self._extend_to(i)
        return self._intervals[i]

    def work_interval(self, i: int) -> float:
        """``T_opt(i)`` in seconds."""
        return self.interval(i).T_opt

    def intervals(self, n: int) -> list[float]:
        """The first ``n`` work intervals ``[T_opt(0), ..., T_opt(n-1)]``.

        ``n = 0`` is a valid (empty) prefix; negative ``n`` is an error.
        """
        if n < 0:
            raise ValueError(f"interval count must be >= 0, got {n}")
        if n == 0:
            return []
        self._extend_to(n - 1)
        return [it.T_opt for it in self._intervals[:n]]

    def __iter__(self) -> Iterator[float]:
        i = 0
        while True:
            yield self.work_interval(i)
            i += 1

    def expected_efficiency(self, i: int = 0) -> float:
        """Model-predicted efficiency ``T / Gamma`` of interval ``i``."""
        return self.interval(i).expected_efficiency

    def restarted(self, t_elapsed: float = 0.0) -> "CheckpointSchedule":
        """A fresh schedule after a failure (new ``T_elapsed``)."""
        return CheckpointSchedule(
            self.distribution,
            self.costs,
            t_elapsed=t_elapsed,
            include_recovery_age=self.include_recovery_age,
            t_min=self._t_min,
            t_max=self._t_max,
            converge_rel_tol=self._converge_rel_tol,
        )

    def with_costs(self, costs: CheckpointCosts, *, t_elapsed: float | None = None) -> "CheckpointSchedule":
        """A schedule with re-measured costs (the live system re-measures
        ``C``/``R`` from each observed transfer)."""
        return CheckpointSchedule(
            self.distribution,
            costs,
            t_elapsed=self.t_elapsed if t_elapsed is None else t_elapsed,
            include_recovery_age=self.include_recovery_age,
            t_min=self._t_min,
            t_max=self._t_max,
            converge_rel_tol=self._converge_rel_tol,
        )

    # ------------------------------------------------------------------
    def _extend_to(self, i: int) -> None:
        if i < 0:
            raise IndexError(f"interval index must be >= 0, got {i}")
        while len(self._intervals) <= i:
            idx = len(self._intervals)
            if idx == 0:
                age = self.t_elapsed
                if self.include_recovery_age:
                    age += self.costs.recovery
            else:
                # the machine is up throughout the strictly sequential
                # work / transfer / commit-latency phases, so interval
                # i+1 starts T + C + L after interval i did
                prev_age = self._ages[-1]
                prev_t = self._intervals[-1].T_opt
                age = prev_age + prev_t + self.costs.checkpoint + self.costs.latency
            reg = _metrics()
            trace = _trace_active()
            if self._memoryless and self._intervals:
                # memorylessness: T_opt is age-invariant; reuse interval 0
                first = self._intervals[0]
                self._intervals.append(first)
                self._ages.append(age)
                if reg is not None:
                    reg.inc("schedule.reuses.memoryless")
                if trace is not None:
                    trace.point("opt", "cache_hit", ts=age, args={"kind": "memoryless"})
                continue
            if self._converged_at is not None:
                self._intervals.append(self._intervals[-1])
                self._ages.append(age)
                if reg is not None:
                    reg.inc("schedule.reuses.converged")
                if trace is not None:
                    trace.point("opt", "cache_hit", ts=age, args={"kind": "converged"})
                continue
            if not math.isfinite(age):  # pragma: no cover - defensive
                raise OverflowError("schedule age overflowed")
            if reg is not None:
                reg.inc("schedule.solves")
            # cross-age warm start: T_opt varies slowly along the age
            # chain (that is what converge_rel_tol exploits), so seed
            # the bracket for age k+1 from T_opt(k).  The solver falls
            # back to the full cold bracket if the seed misleads, so
            # this is purely a performance hint.
            warm = self._intervals[-1].T_opt if self._intervals else None
            if warm is not None and reg is not None:
                reg.observe("schedule.warm_depth", idx)
            wall0 = time.perf_counter()
            opt = optimize_interval(
                self.distribution,
                self.costs,
                age=age,
                t_min=self._t_min,
                t_max=self._t_max,
                warm_start=warm,
            )
            if trace is not None:
                # the solve is instantaneous in sim time (a zero-width
                # span at the resource age it was computed for); its real
                # cost is the wall_s argument
                trace.span(
                    "opt", "solve", age, 0.0,
                    args={
                        "index": idx,
                        "T_opt": opt.T_opt,
                        "wall_s": time.perf_counter() - wall0,
                    },
                )
            self._intervals.append(opt)
            self._ages.append(age)
            if (
                self._converge_rel_tol is not None
                and idx >= 1
                and abs(opt.T_opt - self._intervals[idx - 1].T_opt)
                <= self._converge_rel_tol * self._intervals[idx - 1].T_opt
            ):
                self._converged_at = idx

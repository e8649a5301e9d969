"""Vaidya's three-state Markov model of a checkpoint interval (Section 3.5).

The execution of one checkpoint interval is modelled with three states:

* **state 0** -- start of the interval (the previous checkpoint, if any,
  is committed); the job computes for ``T`` seconds then checkpoints for
  ``C`` seconds;
* **state 1** -- the interval completed: ``T`` seconds of work are
  durable;
* **state 2** -- the resource failed (owner reclamation) somewhere in
  the interval; leaving state 2 requires surviving checkpoint latency
  ``L``, recovery ``R`` and a fresh work interval ``T``.

Transition probabilities and expected sojourn costs (the paper's
``P_ij`` / ``K_ij``)::

    P01 = 1 - F(C + T)            K01 = C + T
    P02 = F(C + T)                K02 = E[t | t < C + T]
    P21 = 1 - F(L + R + T)        K21 = L + R + T
    P22 = F(L + R + T)            K22 = E[t | t < L + R + T]

and the expected time to travel from state 0 to state 1 (eq. 11)::

    Gamma = P01 * K01 + P02 * (K02 + K22 * P22 / P21 + K21)

(The paper's eq. 11 prints ``K20``; by the first-step analysis of the
geometric number of retries out of state 2 the term is ``K21``, matching
Vaidya's original derivation.)

Two distributions appear: the 0-state transitions must use the
*future-lifetime* distribution conditioned on the resource's elapsed
uptime ``age`` (eq. 8), while the 2-state transitions use the
unconditional distribution, because a failure has just occurred and the
resource restarts fresh.  ``Gamma / T`` is the expected overhead ratio
minimised by the optimizer; its reciprocal ``T / Gamma`` is the expected
efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.distributions.base import ArrayLike, AvailabilityDistribution, FloatArray

__all__ = ["CheckpointCosts", "IntervalTransitions", "MarkovIntervalModel", "gamma_from_parts"]


def gamma_from_parts(
    h0: FloatArray, F0: FloatArray, PE0: FloatArray, h2: FloatArray, F2: FloatArray, PE2: FloatArray
) -> FloatArray:
    """Eq. 11 elementwise from the raw transition inputs.

    ``h0 = C + T`` and ``h2 = L + R + T`` are the two horizons, ``F0``/
    ``PE0`` the future-lifetime CDF and partial expectation at ``h0``
    and ``F2``/``PE2`` the unconditional ones at ``h2``.  The assembly
    behind :meth:`MarkovIntervalModel.gamma_batch`, shared with the
    lockstep solver's family kernels (:mod:`repro.core.lockstep`) so
    both round identically.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # state-0 transitions: future-lifetime distribution at the age
        f0 = np.clip(F0, 0.0, 1.0)
        k02 = np.where(f0 > 0.0, np.minimum(PE0 / np.where(f0 > 0.0, f0, 1.0), h0), 0.0)
        # state-2 transitions: unconditional distribution (fresh resource)
        f2 = np.clip(F2, 0.0, 1.0)
        k22 = np.where(f2 > 0.0, np.minimum(PE2 / np.where(f2 > 0.0, f2, 1.0), h2), 0.0)
        p21 = 1.0 - f2
        retry_cost = np.where(p21 > 0.0, k22 * f2 / np.where(p21 > 0.0, p21, 1.0) + h2, np.inf)
        inner = (1.0 - f0) * h0 + f0 * (k02 + retry_cost)
    out: FloatArray = np.where(f0 <= 0.0, h0, inner)
    return out


@dataclass(frozen=True)
class CheckpointCosts:
    """Constant per-interval costs of the Markov model.

    Attributes
    ----------
    checkpoint:
        ``C`` -- seconds to write one checkpoint over the network.
    recovery:
        ``R`` -- seconds to restore the last checkpoint.  The paper's
        experiments set ``R = C`` (both are 500 MB transfers over the
        same link).
    latency:
        ``L`` -- checkpoint latency: time after a checkpoint completes
        before it is safely committed at the storage site.  With the
        paper's strictly sequential recovery/compute/checkpoint phases
        the checkpoint is committed the moment it finishes, so ``L``
        defaults to ``0``; Vaidya's general model allows ``L > 0``.
    """

    checkpoint: float
    recovery: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.checkpoint < 0 or self.recovery < 0 or self.latency < 0:
            raise ValueError(f"costs must be non-negative: {self}")

    @classmethod
    def symmetric(cls, cost: float, *, latency: float = 0.0) -> "CheckpointCosts":
        """The paper's ``C = R`` convention."""
        return cls(checkpoint=cost, recovery=cost, latency=latency)


@dataclass(frozen=True)
class IntervalTransitions:
    """The eight ``P_ij`` / ``K_ij`` quantities for one work interval ``T``."""

    T: float
    p01: float
    k01: float
    p02: float
    k02: float
    p21: float
    k21: float
    p22: float
    k22: float


@dataclass
class MarkovIntervalModel:
    """Evaluator of the three-state model for one (distribution, costs, age).

    Parameters
    ----------
    distribution:
        The fitted availability model (unconditional).
    costs:
        Constant ``C``/``R``/``L`` values.
    age:
        ``T_elapsed`` -- how long the resource has already been
        available; the 0-state transitions condition on it (for the
        exponential this is a no-op by memorylessness).
    """

    distribution: AvailabilityDistribution
    costs: CheckpointCosts
    age: float = 0.0
    _cond: AvailabilityDistribution = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.age < 0:
            raise ValueError(f"age must be non-negative, got {self.age}")
        self._cond = self.distribution.conditional(self.age)

    # ------------------------------------------------------------------
    def transitions(self, T: float) -> IntervalTransitions:
        """All transition probabilities and costs for work interval ``T``."""
        if T <= 0:
            raise ValueError(f"work interval must be positive, got {T}")
        C, R, L = self.costs.checkpoint, self.costs.recovery, self.costs.latency
        horizon0 = C + T
        horizon2 = L + R + T

        # state-0 transitions: future-lifetime distribution at `age`
        # (clamped: round-off in conditional ratios can stray a few ulps
        # outside [0, 1], which would make the probabilities negative)
        f0 = min(max(self._cond.cdf_one(horizon0), 0.0), 1.0)
        p01 = 1.0 - f0
        p02 = f0
        if f0 > 0.0:
            k02 = min(self._cond.partial_expectation_one(horizon0) / f0, horizon0)
        else:
            k02 = 0.0

        # state-2 transitions: unconditional distribution (fresh resource)
        f2 = min(max(self.distribution.cdf_one(horizon2), 0.0), 1.0)
        p21 = 1.0 - f2
        p22 = f2
        if f2 > 0.0:
            k22 = min(self.distribution.partial_expectation_one(horizon2) / f2, horizon2)
        else:
            k22 = 0.0

        return IntervalTransitions(
            T=T,
            p01=p01,
            k01=horizon0,
            p02=p02,
            k02=k02,
            p21=p21,
            k21=horizon2,
            p22=p22,
            k22=k22,
        )

    def gamma(self, T: float) -> float:
        """Expected time from state 0 to state 1 (eq. 11)."""
        tr = self.transitions(T)
        if tr.p02 <= 0.0:
            return tr.k01
        if tr.p21 <= 0.0:
            # a failure is certain to recur before any retry completes:
            # the job can never commit this interval
            return math.inf
        retry_cost = tr.k22 * tr.p22 / tr.p21 + tr.k21
        return tr.p01 * tr.k01 + tr.p02 * (tr.k02 + retry_cost)

    def overhead_ratio(self, T: float) -> float:
        """``Gamma(T) / T`` -- the quantity the paper minimises."""
        return self.gamma(T) / T

    # ------------------------------------------------------------------
    # batched evaluation (the vectorised-solver fast path)
    # ------------------------------------------------------------------
    def gamma_batch(self, T: ArrayLike) -> FloatArray:
        """Eq. 11 for a whole vector of candidate work intervals.

        One call evaluates the Markov objective at every element of ``T``
        through the distributions' array-form ``cdf`` /
        ``partial_expectation``, which is what makes grid bracketing in
        the hybrid solver cost roughly one scalar evaluation instead of
        one per abscissa.  Agrees with :meth:`gamma` pointwise (the
        scalar fast paths and the ndarray paths share formulas; they can
        differ by a few ulps of round-off, never more).
        """
        Tarr = np.atleast_1d(np.asarray(T, dtype=np.float64))
        if np.any(Tarr <= 0.0):
            raise ValueError("work intervals must be positive")
        C, R, L = self.costs.checkpoint, self.costs.recovery, self.costs.latency
        horizon0 = C + Tarr
        horizon2 = L + R + Tarr
        return gamma_from_parts(
            horizon0,
            np.asarray(self._cond.cdf(horizon0), dtype=np.float64),
            np.asarray(self._cond.partial_expectation(horizon0), dtype=np.float64),
            horizon2,
            np.asarray(self.distribution.cdf(horizon2), dtype=np.float64),
            np.asarray(self.distribution.partial_expectation(horizon2), dtype=np.float64),
        )

    def overhead_ratio_batch(self, T: ArrayLike) -> FloatArray:
        """``Gamma(T) / T`` elementwise for a vector of candidates."""
        Tarr = np.atleast_1d(np.asarray(T, dtype=np.float64))
        out: FloatArray = self.gamma_batch(Tarr) / Tarr
        return out

    def expected_efficiency(self, T: float) -> float:
        """``T / Gamma(T)`` -- expected fraction of time doing useful work."""
        g = self.gamma(T)
        return T / g if math.isfinite(g) and g > 0.0 else 0.0

    def at_age(self, age: float) -> "MarkovIntervalModel":
        """A model for the same distribution/costs at a different uptime."""
        return MarkovIntervalModel(self.distribution, self.costs, age)

"""Expectation-maximisation for k-phase hyperexponential models.

The paper fits hyperexponentials with the EMPht package because "it is
numerically difficult to find estimators which have statistically
desirable properties for their parameters".  A k-phase hyperexponential
is a mixture of exponentials, for which EM is the standard estimator:

E-step (responsibilities, uncensored observation ``x_i``)::

    r_ik = p_k lam_k e^{-lam_k x_i} / sum_j p_j lam_j e^{-lam_j x_i}

E-step (right-censored observation, survival contributions)::

    r_ik = p_k e^{-lam_k x_i} / sum_j p_j e^{-lam_j x_i}

M-step (complete-data MLE in expectation; censored lifetimes have
conditional expectation ``x_i + 1/lam_k`` under phase ``k``)::

    p_k   = mean_i r_ik
    lam_k = sum_i r_ik / ( sum_{unc} r_ik x_i + sum_{cens} r_ik (x_i + 1/lam_k) )

The implementation is fully vectorised, monotone in log-likelihood (the
EM ascent property, asserted in debug mode), deterministic under the
default quantile initialisation, and supports random restarts for
rugged likelihood surfaces.  Near-duplicate rates are merged at the end
so the returned model satisfies the paper's ``lam_i != lam_j`` condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.distributions.base import ArrayLike, FloatArray

from repro.distributions.hyperexponential import Hyperexponential

__all__ = ["EMResult", "fit_hyperexponential"]

_MIN_DURATION = 1e-9
_MIN_RATE = 1e-12
_MAX_RATE = 1e12


@dataclass(frozen=True)
class EMResult:
    """Outcome of one EM fit."""

    distribution: Hyperexponential
    log_likelihood: float
    iterations: int
    converged: bool
    restarts_used: int


def _e_step(
    x: FloatArray, cens: npt.NDArray[np.bool_], probs: FloatArray, rates: FloatArray
) -> tuple[FloatArray, float]:
    """Responsibilities at ``(probs, rates)`` and the mixture
    log-likelihood there, both from one log-sum-exp over the
    per-phase log densities (survival terms for censored rows)."""
    with np.errstate(divide="ignore"):
        log_p = np.log(probs)
        log_lam = np.log(rates)
    comp = log_p - np.multiply.outer(x, rates)
    comp = np.where(cens[:, None], comp, comp + log_lam)
    m = comp.max(axis=1, keepdims=True)
    comp -= m
    resp = np.exp(comp)
    total = resp.sum(axis=1, keepdims=True)
    ll = float(np.sum(m.ravel() + np.log(total.ravel())))
    resp /= total
    return resp, ll


def _quantile_init(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic initialisation: split the sorted data into k groups."""
    xs = np.sort(x)
    groups = np.array_split(xs, k)
    rates = np.empty(k)
    probs = np.full(k, 1.0 / k)
    for i, grp in enumerate(groups):
        mean = float(np.mean(grp)) if grp.size else float(np.mean(xs))
        rates[i] = 1.0 / max(mean, _MIN_DURATION)
    # jitter exactly equal rates apart
    for i in range(1, k):
        if rates[i] >= rates[i - 1]:
            rates[i] = rates[i - 1] * 0.5
    return probs, rates


def _em_iterate(
    x: np.ndarray,
    cens: np.ndarray,
    probs: np.ndarray,
    rates: np.ndarray,
    *,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float, int, bool]:
    resp, ll_prev = _e_step(x, cens, probs, rates)
    n = x.size
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        # M-step
        nk = resp.sum(axis=0)
        probs_new = nk / n
        # expected total lifetime attributed to phase k
        exposure = resp.T @ x  # (k,)
        if np.any(cens):
            exposure = exposure + (resp[cens].sum(axis=0)) / np.maximum(rates, _MIN_RATE)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates_new = np.where(exposure > 0.0, nk / exposure, rates)
        rates_new = np.clip(rates_new, _MIN_RATE, _MAX_RATE)
        # guard collapsed phases (zero weight)
        dead = probs_new < 1e-300
        if np.any(dead):
            probs_new = np.where(dead, 1e-300, probs_new)
            probs_new /= probs_new.sum()
        probs, rates = probs_new, rates_new
        # the next iteration's E-step: its log-sum-exp is the new
        # parameters' log-likelihood
        resp, ll = _e_step(x, cens, probs, rates)
        if ll + 1e-9 < ll_prev:  # EM must ascend up to round-off
            break
        if abs(ll - ll_prev) <= tol * (1.0 + abs(ll)):
            ll_prev = ll
            converged = True
            break
        ll_prev = ll
    return probs, rates, ll_prev, it, converged


def _merge_duplicate_rates(
    probs: FloatArray, rates: FloatArray, rel_tol: float = 1e-6
) -> tuple[FloatArray, FloatArray]:
    """Merge phases whose rates coincide (paper requires distinct rates)."""
    order = np.argsort(rates)
    probs, rates = probs[order], rates[order]
    out_p, out_r = [probs[0]], [rates[0]]
    for p, r in zip(probs[1:], rates[1:]):
        if abs(r - out_r[-1]) <= rel_tol * max(abs(r), abs(out_r[-1])):
            out_p[-1] += p
        else:
            out_p.append(p)
            out_r.append(r)
    return np.asarray(out_p), np.asarray(out_r)


def fit_hyperexponential(
    data: ArrayLike,
    k: int = 2,
    censored: ArrayLike | None = None,
    *,
    max_iter: int = 500,
    tol: float = 1e-10,
    n_restarts: int = 2,
    rng: np.random.Generator | None = None,
) -> EMResult:
    """Fit a ``k``-phase hyperexponential to ``data`` by EM.

    Parameters
    ----------
    data, censored:
        Durations and optional right-censoring mask.
    k:
        Number of phases (the paper uses 2 and 3).
    max_iter, tol:
        EM iteration cap and relative log-likelihood tolerance.
    n_restarts:
        Number of additional randomly-perturbed initialisations; the
        best (highest log-likelihood) fit wins.  ``0`` keeps only the
        deterministic quantile initialisation.
    rng:
        Generator used for restart perturbations; defaults to a fixed
        seed so fitting is reproducible.
    """
    if k < 1:
        raise ValueError(f"number of phases must be >= 1, got {k}")
    x = np.asarray(data, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot fit a distribution to an empty trace")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("availability durations must be non-negative and finite")
    x = np.maximum(x, _MIN_DURATION)
    if censored is None:
        cens = np.zeros(x.shape, dtype=bool)
    else:
        cens = np.asarray(censored, dtype=bool).ravel()
        if cens.shape != x.shape:
            raise ValueError("censored mask must match data shape")
        if np.all(cens):
            raise ValueError("at least one uncensored observation is required")
    if rng is None:
        rng = np.random.default_rng(20050926)  # CLUSTER 2005 conference date

    best = None
    restarts_used = 0
    p0, r0 = _quantile_init(x, k)
    inits = [(p0, r0)]
    for _ in range(n_restarts):
        jitter = np.exp(rng.normal(0.0, 0.75, size=k))
        pr = rng.dirichlet(np.ones(k))
        inits.append((pr, np.clip(r0 * jitter, _MIN_RATE, _MAX_RATE)))
    for i, (p_init, r_init) in enumerate(inits):
        probs, rates, ll, iters, conv = _em_iterate(
            x, cens, p_init.copy(), r_init.copy(), max_iter=max_iter, tol=tol
        )
        if best is None or ll > best[2]:
            best = (probs, rates, ll, iters, conv)
            restarts_used = i
    probs, rates, ll, iters, conv = best
    probs, rates = _merge_duplicate_rates(probs, rates)
    dist = Hyperexponential(probs, rates)
    return EMResult(
        distribution=dist,
        log_likelihood=ll,
        iterations=iters,
        converged=conv,
        restarts_used=restarts_used,
    )

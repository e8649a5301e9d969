"""The lognormal availability model.

Not one of the paper's three candidates, but a standard heavy-tailed
alternative in the availability literature (and one of the synthetic
pool's ground truths), included to demonstrate that the checkpoint
optimizer genuinely works for *any* family with the required algebra:
the partial expectation has the closed form::

    int_0^x t f(t) dt = e^{mu + sigma^2/2} * Phi((ln x - mu - sigma^2) / sigma)

and the future-lifetime distribution comes from the generic conditional
wrapper.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.distributions.base import ArrayLike, AvailabilityDistribution, FloatArray, ScalarOrArray

__all__ = ["LogNormal", "fit_lognormal"]

_SQRT2 = math.sqrt(2.0)


def _phi(z: FloatArray) -> FloatArray:
    """Standard normal CDF (vectorised)."""
    return 0.5 * (1.0 + special.erf(np.asarray(z) / _SQRT2))


class LogNormal(AvailabilityDistribution):
    """Lognormal distribution: ``ln X ~ N(mu, sigma^2)``."""

    name = "lognormal"

    __slots__ = ("mu", "sigma")

    def __init__(self, mu: float, sigma: float) -> None:
        if not np.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        if not (sigma > 0.0) or not np.isfinite(sigma):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    # -- primitives ----------------------------------------------------
    def _pdf(self, x: FloatArray) -> FloatArray:
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (np.log(x) - self.mu) / self.sigma
            out = np.exp(-0.5 * z * z) / (x * self.sigma * math.sqrt(2.0 * math.pi))
        return np.where(x > 0.0, out, 0.0)

    def _cdf(self, x: FloatArray) -> FloatArray:
        with np.errstate(divide="ignore"):
            z = (np.log(x) - self.mu) / self.sigma
        return np.where(x > 0.0, _phi(z), 0.0)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    @property
    def n_params(self) -> int:
        return 2

    def params(self) -> dict[str, float]:
        return {"mu": self.mu, "sigma": self.sigma}

    # -- scalar fast paths ------------------------------------------------
    def cdf_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        z = (math.log(x) - self.mu) / self.sigma
        return 0.5 * (1.0 + math.erf(z / _SQRT2))

    def partial_expectation_one(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if not math.isfinite(x):
            return self.mean()
        z = (math.log(x) - self.mu - self.sigma**2) / self.sigma
        return self.mean() * 0.5 * (1.0 + math.erf(z / _SQRT2))

    # -- closed forms ---------------------------------------------------
    def partial_expectation(self, x: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(x, dtype=np.float64)
        xp = np.maximum(arr, 1e-300)
        with np.errstate(divide="ignore"):
            z = (np.log(xp) - self.mu - self.sigma**2) / self.sigma
        out = self.mean() * _phi(z)
        out = np.where(arr <= 0.0, 0.0, out)
        out = np.where(np.isfinite(arr), out, self.mean())
        return float(out) if arr.ndim == 0 else out

    def quantile(self, q: ArrayLike) -> ScalarOrArray:
        arr = np.asarray(q, dtype=np.float64)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = np.exp(self.mu + self.sigma * _SQRT2 * special.erfinv(2.0 * arr - 1.0))
        return float(out) if arr.ndim == 0 else out

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> FloatArray:
        return rng.lognormal(self.mu, self.sigma, size=size)


def fit_lognormal(data: ArrayLike, censored: ArrayLike | None = None) -> LogNormal:
    """MLE lognormal fit, with optional right censoring.

    Uncensored data has the closed form ``mu = mean(ln x)``,
    ``sigma = std(ln x)``; with censored observations the likelihood
    (density terms for events, survival terms for censored points) is
    maximised numerically from the closed-form start.
    """
    x = np.asarray(data, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot fit a distribution to an empty trace")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("availability durations must be non-negative and finite")
    x = np.maximum(x, 1e-9)
    if censored is None:
        cens = np.zeros(x.shape, dtype=bool)
    else:
        cens = np.asarray(censored, dtype=bool).ravel()
        if cens.shape != x.shape:
            raise ValueError("censored mask must match data shape")
        if np.all(cens):
            raise ValueError("at least one uncensored observation is required")
    obs = np.log(x[~cens])
    mu0 = float(obs.mean())
    sigma0 = float(obs.std()) if obs.size > 1 else 1.0
    sigma0 = max(sigma0, 1e-3)
    if not np.any(cens):
        return LogNormal(mu=mu0, sigma=sigma0)

    log_all = np.log(x)

    def neg_ll(theta: FloatArray) -> float:
        mu, log_sigma = theta
        sigma = math.exp(log_sigma)
        z = (log_all - mu) / sigma
        ll = 0.0
        zo = z[~cens]
        ll += float(np.sum(-0.5 * zo * zo - log_all[~cens]) - zo.size * math.log(sigma * math.sqrt(2 * math.pi)))
        zc = z[cens]
        surv = np.clip(1.0 - _phi(zc), 1e-300, 1.0)
        ll += float(np.sum(np.log(surv)))
        return -ll

    from scipy import optimize as spo  # first use only: it is a heavy import

    res = spo.minimize(
        neg_ll, x0=[mu0, math.log(sigma0)], method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000},
    )
    mu, log_sigma = res.x
    return LogNormal(mu=float(mu), sigma=float(math.exp(log_sigma)))

"""Monte-Carlo oracle for the Markov interval cost Gamma(T).

Every schedule the reproduction computes minimises ``Gamma(T) / T`` from
:class:`~repro.core.markov.MarkovIntervalModel`.  This suite checks that
closed form against a direct simulation of Vaidya's interval that shares
no code with it: lifetimes are drawn with numpy from the families'
closed-form inverse survival functions, never through repro's own
``sample``/``quantile``/``conditional``.

One simulated interval at elapsed uptime ``a``:

* draw the future lifetime ``X`` of a machine already up for ``a``
  seconds; if ``X >= C + T`` the work and its checkpoint commit and the
  interval costs ``C + T``;
* otherwise the interval costs ``X`` plus retries: each retry runs on a
  fresh machine with lifetime ``Y``, costs ``Y`` if ``Y < L + R + T``
  (and retries again), and ends the interval with ``L + R + T`` once
  ``Y >= L + R + T``.

The sample mean must match ``gamma(T)`` within five standard errors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import CheckpointCosts, MarkovIntervalModel, optimize_interval
from repro.distributions import Exponential, Hyperexponential, Weibull

SAMPLES = 200_000
WEIBULL_SHAPE, WEIBULL_SCALE = 0.43, 3409.0
#: an uptime so deep in the Weibull tail (S(a) ~ 1e-10) that the model's
#: conditional distribution switches to its quadrature formulas
WEIBULL_DEEP_AGE = 5.0e6
HYPER_PROBS, HYPER_RATES = (0.5, 0.5), (1.0 / 100.0, 1.0 / 9000.0)


def _exponential_lifetimes(rng, n, age):
    del age  # memoryless
    return rng.exponential(5000.0, n)


def _weibull_lifetimes(rng, n, age):
    # S(a + x) / S(a) = exp(-E) with E ~ Exp(1) gives
    # x = scale * ((a / scale)**k + E)**(1 / k) - a; the expm1/log1p form
    # below is the same expression without the cancellation at large a
    k, scale = WEIBULL_SHAPE, WEIBULL_SCALE
    e = rng.exponential(1.0, n)
    if age == 0.0:
        return scale * e ** (1.0 / k)
    base = (age / scale) ** k
    return age * np.expm1(np.log1p(e / base) / k)


def _hyper_lifetimes(rng, n, age):
    # surviving to `a` reweights phase i by p_i * exp(-rate_i * a); within
    # a phase the lifetime is memoryless
    probs, rates = np.asarray(HYPER_PROBS), np.asarray(HYPER_RATES)
    logw = np.log(probs) - rates * age
    weights = np.exp(logw - logw.max())
    phase = rng.choice(len(probs), size=n, p=weights / weights.sum())
    return rng.exponential(1.0 / rates[phase])


FAMILIES = {
    "exponential": (Exponential(1.0 / 5000.0), _exponential_lifetimes),
    "weibull": (Weibull(WEIBULL_SHAPE, WEIBULL_SCALE), _weibull_lifetimes),
    "hyperexp2": (Hyperexponential(HYPER_PROBS, HYPER_RATES), _hyper_lifetimes),
}

CASES = [
    ("exponential", 0.0),
    ("exponential", 1.0e4),
    ("weibull", 0.0),
    ("weibull", WEIBULL_SCALE),
    ("weibull", WEIBULL_DEEP_AGE),
    ("hyperexp2", 0.0),
    ("hyperexp2", 1000.0),
    ("hyperexp2", 1.0e5),
]


def simulate_interval_costs(lifetimes, rng, n, age, T, costs):
    """Cost of ``n`` independent intervals of work ``T`` started at uptime ``age``."""
    first = costs.checkpoint + T
    retry = costs.latency + costs.recovery + T
    x = lifetimes(rng, n, age)
    total = np.where(x >= first, first, x)
    active = np.flatnonzero(x < first)
    while active.size:
        y = lifetimes(rng, active.size, 0.0)
        done = y >= retry
        total[active] += np.where(done, retry, y)
        active = active[~done]
    return total


def test_deep_age_is_past_the_quadrature_threshold():
    survival = math.exp(-((WEIBULL_DEEP_AGE / WEIBULL_SCALE) ** WEIBULL_SHAPE))
    assert survival < 1e-9


@pytest.mark.parametrize("cost", [110.0, 500.0])
@pytest.mark.parametrize(("family", "age"), CASES)
def test_gamma_matches_simulated_interval_cost(family, age, cost):
    distribution, lifetimes = FAMILIES[family]
    costs = CheckpointCosts(checkpoint=cost, recovery=cost)
    model = MarkovIntervalModel(distribution, costs, age)
    t_opt = optimize_interval(distribution, costs, age=age).T_opt
    seed = [list(FAMILIES).index(family), int(age), int(cost)]
    rng = np.random.default_rng(seed)
    for T in (0.5 * t_opt, t_opt, 2.0 * t_opt):
        draws = simulate_interval_costs(lifetimes, rng, SAMPLES, age, T, costs)
        mean = float(draws.mean())
        stderr = float(draws.std(ddof=1)) / math.sqrt(SAMPLES)
        expected = model.gamma(T)
        assert abs(mean - expected) <= 5.0 * stderr, (
            f"{family} age={age} C=R={cost} T={T:.1f}: simulated {mean:.3f} "
            f"+- {stderr:.3f}, model {expected:.3f}"
        )

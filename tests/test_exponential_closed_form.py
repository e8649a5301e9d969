"""Closed-form oracle for the exponential model.

Under an exponential availability model with rate ``lam``, eq. 11
collapses to

    Gamma(T) = (1 - exp(-lam (C + T))) * exp(lam (L + R + T)) / lam,

so ``Gamma(T) / T`` is ``exp(lam (L + R)) / lam`` times
``(exp(lam T) - exp(-lam C)) / T``.  Setting the derivative to zero
gives ``(x - 1) e^x = -exp(-lam C)`` with ``x = lam T``, whose positive
root is ``x = 1 + W0(-exp(-1 - lam C))`` (``W0`` the principal Lambert
W branch).  T_opt therefore does not depend on ``L`` or ``R``, and as
``lam C -> 0`` it tends to Young's ``sqrt(2 C / lam)``.

Nothing here goes through :mod:`repro.core.markov` or the solvers: the
oracle is this closed form alone.
"""

import math

import pytest
from scipy.special import lambertw

from repro.core.lockstep import solve_intervals
from repro.core.markov import CheckpointCosts, MarkovIntervalModel
from repro.core.optimizer import optimize_interval, search_bound, use_solver
from repro.distributions import Exponential

LAM_C = [1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0]
RATES = [1.0 / 3600.0, 1.0 / 86400.0]
#: both solvers refine the bracket to 1e-6 relative
T_REL = 2e-6


def gamma_closed_form(lam: float, C: float, R: float, L: float, T: float) -> float:
    return -math.expm1(-lam * (C + T)) * math.exp(lam * (L + R + T)) / lam


def ratio_closed_form(lam: float, C: float, R: float, L: float, T: float) -> float:
    return gamma_closed_form(lam, C, R, L, T) / T


def t_opt_closed_form(lam: float, C: float) -> float:
    w = lambertw(-math.exp(-1.0 - lam * C), 0)
    assert abs(w.imag) == 0.0
    return (1.0 + w.real) / lam


def costs_for(lam: float, lam_c: float) -> CheckpointCosts:
    C = lam_c / lam
    return CheckpointCosts(checkpoint=C, recovery=0.7 * C + 20.0, latency=45.0)


@pytest.mark.parametrize("lam", RATES)
@pytest.mark.parametrize("lam_c", LAM_C)
def test_markov_gamma_matches_closed_form(lam, lam_c):
    costs = costs_for(lam, lam_c)
    model = MarkovIntervalModel(Exponential(lam), costs, age=0.0)
    # lam T >= 1e-2: below that, exp_partial_expectation_one's direct
    # formula (used from lam x = 1e-4 up) loses digits to cancellation
    # and Gamma drifts to ~4e-13 relative -- far from any optimum
    for lam_t in (1e-2, 0.3, 1.0, 4.0):
        T = lam_t / lam
        ref = gamma_closed_form(lam, costs.checkpoint, costs.recovery, costs.latency, T)
        assert model.gamma(T) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lam_c", LAM_C)
def test_closed_form_argmin_is_a_minimum(lam_c):
    lam = RATES[0]
    costs = costs_for(lam, lam_c)
    args = (lam, costs.checkpoint, costs.recovery, costs.latency)
    t_star = t_opt_closed_form(lam, costs.checkpoint)
    best = ratio_closed_form(*args, t_star)
    for step in (1e-3, 1e-2, 0.1):
        assert best < ratio_closed_form(*args, t_star * (1.0 - step))
        assert best < ratio_closed_form(*args, t_star * (1.0 + step))


@pytest.mark.parametrize("lam", RATES)
@pytest.mark.parametrize("lam_c", LAM_C)
def test_optimize_interval_finds_closed_form_argmin(lam, lam_c):
    costs = costs_for(lam, lam_c)
    t_star = t_opt_closed_form(lam, costs.checkpoint)
    best = ratio_closed_form(lam, costs.checkpoint, costs.recovery, costs.latency, t_star)
    for age in (0.0, 3.0 / lam):
        with use_solver(cache=False):
            opt = optimize_interval(Exponential(lam), costs, age=age)
        assert opt.T_opt == pytest.approx(t_star, rel=T_REL)
        assert opt.overhead_ratio == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("lam", RATES)
def test_lockstep_kernel_finds_closed_form_argmin(lam):
    dist = Exponential(lam)
    ages = [0.0, 1.0 / lam, 5.0 / lam]
    t_max = [float(search_bound(dist.mean_residual_life(a), dist.mean)) for a in ages]
    for lam_c in LAM_C:
        costs = costs_for(lam, lam_c)
        t_star = t_opt_closed_form(lam, costs.checkpoint)
        best = ratio_closed_form(lam, costs.checkpoint, costs.recovery, costs.latency, t_star)
        for opt in solve_intervals(dist, costs, ages, t_max):
            assert opt.T_opt == pytest.approx(t_star, rel=T_REL)
            assert opt.overhead_ratio == pytest.approx(best, rel=1e-12)


def test_t_opt_tends_to_young():
    lam = RATES[0]
    gaps = []
    for lam_c in (1e-2, 1e-4, 1e-6, 1e-8):
        C = lam_c / lam
        gaps.append(abs(t_opt_closed_form(lam, C) / math.sqrt(2.0 * C / lam) - 1.0))
    # the first-order correction is ~ sqrt(lam C) / 3: it falls tenfold
    # per hundredfold drop in lam C
    assert gaps[-1] < 1e-4
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    with use_solver(cache=False):
        C = 1e-6 / lam
        opt = optimize_interval(Exponential(lam), CheckpointCosts(C, C, 10.0))
    assert opt.T_opt == pytest.approx(math.sqrt(2.0 * C / lam), rel=1e-3)

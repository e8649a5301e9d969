"""Tests for the hyperexponential EM estimator."""

import numpy as np
import pytest

from repro.distributions import Hyperexponential, fit_hyperexponential
from repro.distributions.fitting.em import _merge_duplicate_rates


@pytest.fixture
def bimodal_data():
    """A clearly bimodal mixture: 5-minute and 3-hour phases."""
    rng = np.random.default_rng(7)
    true = Hyperexponential([0.6, 0.4], [1.0 / 300.0, 1.0 / 10800.0])
    return true, true.sample(3000, rng)


class TestEMBasics:
    def test_recovers_bimodal_mixture(self, bimodal_data):
        true, data = bimodal_data
        res = fit_hyperexponential(data, k=2)
        fit = res.distribution
        assert fit.k == 2
        # rates sorted ascending; compare against the truth loosely
        assert fit.rates[0] == pytest.approx(1.0 / 10800.0, rel=0.25)
        assert fit.rates[1] == pytest.approx(1.0 / 300.0, rel=0.25)
        assert fit.probs[1] == pytest.approx(0.6, abs=0.1)

    def test_loglik_beats_single_exponential(self, bimodal_data):
        _, data = bimodal_data
        from repro.distributions import fit_exponential

        h2 = fit_hyperexponential(data, k=2).distribution
        e = fit_exponential(data)
        assert h2.log_likelihood(data) > e.log_likelihood(data)

    def test_k1_reduces_to_exponential_mle(self, bimodal_data):
        _, data = bimodal_data
        res = fit_hyperexponential(data, k=1)
        assert res.distribution.k == 1
        assert res.distribution.rates[0] == pytest.approx(1.0 / data.mean(), rel=1e-6)

    def test_more_phases_never_hurt_loglik(self, bimodal_data):
        _, data = bimodal_data
        lls = [
            fit_hyperexponential(data, k=k, n_restarts=3).log_likelihood for k in (1, 2, 3)
        ]
        assert lls[1] >= lls[0] - 1e-6
        assert lls[2] >= lls[1] - 1e-3  # k=3 may only tie numerically

    def test_reported_loglik_matches_distribution(self, bimodal_data):
        _, data = bimodal_data
        res = fit_hyperexponential(data, k=2)
        assert res.log_likelihood == pytest.approx(
            res.distribution.log_likelihood(np.maximum(data, 1e-9)), rel=1e-9
        )

    def test_deterministic_under_fixed_rng(self, bimodal_data):
        _, data = bimodal_data
        a = fit_hyperexponential(data, k=2, rng=np.random.default_rng(1))
        b = fit_hyperexponential(data, k=2, rng=np.random.default_rng(1))
        assert np.allclose(a.distribution.rates, b.distribution.rates)
        assert np.allclose(a.distribution.probs, b.distribution.probs)


class TestCensoring:
    def test_censoring_improves_truth_recovery(self):
        rng = np.random.default_rng(8)
        true = Hyperexponential([0.7, 0.3], [1.0 / 200.0, 1.0 / 5000.0])
        full = true.sample(4000, rng)
        cutoff = 3000.0
        observed = np.minimum(full, cutoff)
        cens = full > cutoff
        naive = fit_hyperexponential(observed, k=2).distribution
        aware = fit_hyperexponential(observed, censored=cens, k=2).distribution
        # slow-phase mean is badly truncated without censoring support
        slow_true = 5000.0
        slow_naive = 1.0 / naive.rates[0]
        slow_aware = 1.0 / aware.rates[0]
        assert abs(slow_aware - slow_true) < abs(slow_naive - slow_true)

    def test_all_censored_rejected(self):
        with pytest.raises(ValueError):
            fit_hyperexponential([1.0, 2.0], censored=[True, True])


class TestEdgeCases:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_hyperexponential([])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            fit_hyperexponential([1.0, 2.0], k=0)

    def test_tiny_sample(self):
        res = fit_hyperexponential([10.0, 20.0, 5000.0], k=2)
        assert res.distribution.k in (1, 2)  # duplicate merge may collapse
        assert np.isfinite(res.log_likelihood)

    def test_identical_data_collapses_phases(self):
        res = fit_hyperexponential([100.0] * 50, k=3)
        # all phases converge to the same rate and get merged
        assert res.distribution.k == 1
        assert res.distribution.rates[0] == pytest.approx(1.0 / 100.0, rel=1e-6)

    def test_paper_requires_distinct_rates(self, ):
        rng = np.random.default_rng(11)
        data = np.random.default_rng(11).exponential(100.0, size=500)
        res = fit_hyperexponential(data, k=3, rng=rng)
        rates = res.distribution.rates
        assert len(set(np.round(rates, 12))) == len(rates)


class TestMergeDuplicates:
    def test_merge(self):
        p, r = _merge_duplicate_rates(
            np.array([0.3, 0.3, 0.4]), np.array([1.0, 1.0 + 1e-9, 5.0])
        )
        assert len(r) == 2
        assert p[0] == pytest.approx(0.6)

    def test_no_merge_when_distinct(self):
        p, r = _merge_duplicate_rates(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        assert len(r) == 2


def _pinned_data(censored):
    """400 draws of a 3-phase mixture; optionally right-censored at 20000 s."""
    rng = np.random.default_rng(2005)
    true = Hyperexponential([0.55, 0.3, 0.15], [1.0 / 200.0, 1.0 / 4000.0, 1.0 / 40000.0])
    x = true.sample(400, rng)
    if not censored:
        return x, None
    cap = 20000.0
    return np.minimum(x, cap), x >= cap


#: (censored, k) -> (probs, rates, log_likelihood, iterations, converged,
#: restarts_used), as float.hex so the pin is exact
_PINNED = {
    (False, 2): (
        ["0x1.7724b65180090p-2", "0x1.446da4d73ffb8p-1"],
        ["0x1.a0783b749b58dp-15", "0x1.1ee200156f9b1p-8"],
        "-0x1.afc61452659f3p+11", 16, True, 1,
    ),
    (False, 3): (
        ["0x1.1af0fa5a1d85cp-3", "0x1.22bd6de163d0dp-2", "0x1.27e50a78c6b64p-1"],
        ["0x1.7893a357dfe51p-16", "0x1.d8733ec003cd6p-13", "0x1.5d249153101ebp-8"],
        "-0x1.ab15be57cbcdep+11", 72, True, 0,
    ),
    (True, 2): (
        ["0x1.8e1ddaed43545p-2", "0x1.38f112895e55ep-1"],
        ["0x1.6531025881dcap-14", "0x1.3a989ffd4830ep-8"],
        "-0x1.7566b8a8475b9p+11", 18, True, 2,
    ),
    (True, 3): (
        ["0x1.93dad29c803aap-4", "0x1.48a7d46c73a21p-2", "0x1.2930bb763627ap-1"],
        ["0x1.66690b924a851p-18", "0x1.9cfc24f1ac2e6p-13", "0x1.5adae7fb323d2p-8"],
        "-0x1.73ca0d41be27ep+11", 500, False, 1,
    ),
}


@pytest.mark.parametrize("censored,k", sorted(_PINNED))
def test_em_result_pinned_exactly(censored, k):
    """Every EMResult field, bit for bit: the E-step, the log-likelihood
    it feeds and the early-stop rules may be restructured, never moved
    (the (True, 3) case runs to the iteration cap)."""
    x, cens = _pinned_data(censored)
    res = fit_hyperexponential(x, k=k, censored=cens)
    probs, rates, ll, iterations, converged, restarts = _PINNED[(censored, k)]
    assert [float(v).hex() for v in res.distribution.probs] == probs
    assert [float(v).hex() for v in res.distribution.rates] == rates
    assert float(res.log_likelihood).hex() == ll
    assert res.iterations == iterations
    assert res.converged is converged
    assert res.restarts_used == restarts

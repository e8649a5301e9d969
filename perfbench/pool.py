"""The sweep workloads' input: a synthetic Condor pool made from the seed.

The pool has the statistical character of ``repro``'s own synthetic
Condor pool (same ground-truth families, family weights and parameter
ranges, see ``repro.traces.synthetic.SyntheticPoolConfig``) but is built
for a steady measurement rather than drawn i.i.d.:

* the machines are fixed *slots*: families apportioned to the family
  weights, Weibull shape/scale taken at Latin-hypercube midpoints of
  the configured ranges with a fixed pairing;
* each machine's durations are the slot's quantiles at the stratum
  midpoints ``(i + 0.5) / n``, and the **seed shuffles their order**
  (and draws the idle gaps).

The chronological order decides the 25-observation training prefix, so
the seed changes every fitted model, every schedule and every replay,
while the pool's marginal statistics stay fixed.  Drawing i.i.d.
instead lets one extreme duration (Weibull shape 0.3 has a very heavy
tail) swing a 24-machine sweep's solve count, and so its wall time, by
about 20 % from seed to seed, which would drown the changes the
benchmark exists to detect.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.distributions.base import AvailabilityDistribution
from repro.distributions.hyperexponential import Hyperexponential
from repro.distributions.lognormal import LogNormal
from repro.distributions.weibull import Weibull
from repro.traces.model import AvailabilityTrace, MachinePool
from repro.traces.synthetic import SyntheticPoolConfig

#: slot parameters are paired by this fixed permutation seed, so the
#: slot set is the same for every workload seed
_SLOT_SEED = 2005


def _log_mid(lo: float, hi: float, u: np.ndarray) -> np.ndarray:
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def slot_distributions(n_machines: int) -> list[AvailabilityDistribution]:
    """The ground-truth distribution of every machine slot."""
    config = SyntheticPoolConfig(n_machines=n_machines)
    families = list(config.family_weights)
    quota = np.array([config.family_weights[f] for f in families]) * n_machines
    counts = np.floor(quota).astype(int)
    for i in np.argsort(counts - quota)[: n_machines - counts.sum()]:
        counts[i] += 1
    rng = np.random.default_rng(_SLOT_SEED)
    u_shape = (rng.permutation(n_machines) + 0.5) / n_machines
    u_scale = (rng.permutation(n_machines) + 0.5) / n_machines
    shapes = _log_mid(*config.shape_range, u_shape)
    scales = _log_mid(*config.scale_range, u_scale)
    slots: list[AvailabilityDistribution] = []
    for i, family in enumerate(np.repeat(families, counts)):
        shape, scale = float(shapes[i]), float(scales[i])
        if family == "weibull":
            slots.append(Weibull(shape=shape, scale=scale))
        elif family == "hyperexponential":
            # fast phase (owner back quickly) + slow phase, mean matched
            # to the Weibull with the same shape/scale, as the repo's
            # generator does
            mean = scale * math.gamma(1.0 + 1.0 / shape)
            p_fast = 0.35 + 0.4 * u_shape[i]
            fast_mean = (0.02 + 0.13 * u_scale[i]) * mean
            slow_mean = (mean - p_fast * fast_mean) / (1.0 - p_fast)
            slots.append(
                Hyperexponential([p_fast, 1.0 - p_fast], [1.0 / fast_mean, 1.0 / slow_mean])
            )
        else:
            slots.append(LogNormal(mu=math.log(scale) - 0.5, sigma=1.0 + float(u_shape[i])))
    return slots


def _quantiles(dist: AvailabilityDistribution, levels: np.ndarray) -> np.ndarray:
    if not isinstance(dist, Hyperexponential):
        return np.asarray(dist.quantile(levels), dtype=np.float64)
    # no closed form: vectorised bisection on the cdf
    lo = np.zeros_like(levels)
    hi = np.full_like(levels, 1.0)
    while np.any(np.asarray(dist.cdf(hi)) < levels):
        hi = np.where(np.asarray(dist.cdf(hi)) < levels, hi * 2.0, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = np.asarray(dist.cdf(mid)) < levels
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@lru_cache(maxsize=4)
def _slot_durations(n_machines: int, n_observations: int) -> tuple[np.ndarray, ...]:
    levels = (np.arange(n_observations) + 0.5) / n_observations
    return tuple(_quantiles(d, levels) for d in slot_distributions(n_machines))


def make_pool(seed: int, rep: int, n_machines: int, n_observations: int) -> MachinePool:
    """Pool number ``rep`` of one workload seed (same arguments, same pool)."""
    rng = np.random.default_rng([seed, rep])
    gap = SyntheticPoolConfig().mean_idle_gap
    traces = []
    for i, sorted_durations in enumerate(_slot_durations(n_machines, n_observations)):
        durations = sorted_durations[rng.permutation(n_observations)]
        gaps = rng.exponential(gap, size=n_observations)
        starts = np.concatenate(([0.0], np.cumsum(durations[:-1] + gaps[:-1])))
        traces.append(
            AvailabilityTrace(
                machine_id=f"bench-{i:04d}", durations=durations, timestamps=starts
            )
        )
    return MachinePool(traces=tuple(traces), name=f"perfbench-{seed}-{rep}")

"""Paired significance testing and the paper's marker notation.

Tables 1 and 3 annotate each cell with the single-letter codes of every
*other* distribution whose metric was statistically significantly
**smaller** for that checkpoint duration ("e" exponential, "w" Weibull,
"2" / "3" the hyperexponentials), using two-sided paired t-tests at the
0.05 level.  The pairing is per machine: the same trace is replayed
under both models, so differences are taken machine-by-machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np
from scipy import special

from repro.distributions.fitting.select import MODEL_MARKERS

__all__ = [
    "PairedComparison",
    "SignificanceRow",
    "holm_adjust",
    "paired_ttest",
    "significance_markers",
]

#: the paper's significance level
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class PairedComparison:
    """Two-sided paired t-test result for metric(a) - metric(b)."""

    t_statistic: float
    p_value: float
    mean_difference: float
    n: int

    def significant(self, alpha: float = DEFAULT_ALPHA) -> bool:
        return self.p_value < alpha


def paired_ttest(a, b) -> PairedComparison:
    """Two-sided paired t-test between matched samples ``a`` and ``b``."""
    xa = np.asarray(a, dtype=np.float64).ravel()
    xb = np.asarray(b, dtype=np.float64).ravel()
    if xa.shape != xb.shape:
        raise ValueError(f"paired samples must match in length: {xa.shape} vs {xb.shape}")
    n = xa.size
    if n < 2:
        raise ValueError("paired t-test requires at least two pairs")
    diff = xa - xb
    mean_d = float(np.mean(diff))
    sd = float(np.std(diff, ddof=1))
    if sd == 0.0:
        # identical columns: no evidence of difference
        t_stat = 0.0 if mean_d == 0.0 else math.copysign(math.inf, mean_d)
        p = 1.0 if mean_d == 0.0 else 0.0
        return PairedComparison(t_statistic=t_stat, p_value=p, mean_difference=mean_d, n=n)
    t_stat = mean_d / (sd / math.sqrt(n))
    # two-sided tail; bit-equal to 2 * scipy.stats.t.sf(|t|) without loading scipy.stats
    p = 2.0 * float(special.stdtr(n - 1, -abs(t_stat)))
    return PairedComparison(t_statistic=t_stat, p_value=p, mean_difference=mean_d, n=n)


@dataclass(frozen=True)
class SignificanceRow:
    """Markers for one table row: model name -> string such as ``"e,w"``."""

    markers: Mapping[str, str]

    def __getitem__(self, model: str) -> str:
        return self.markers[model]

    def cell_suffix(self, model: str) -> str:
        """``" (e,w)"`` if non-empty, else ``""`` -- ready to append."""
        m = self.markers[model]
        return f" ({m})" if m else ""


def holm_adjust(p_values: Sequence[float]) -> list[float]:
    """Holm-Bonferroni step-down adjustment of a family of p-values.

    Returns the adjusted p-values in the input order; each adjusted
    value is ``max_{j <= i} min((m - j + 1) * p_(j), 1)`` over the
    sorted family, which controls the family-wise error rate without
    Bonferroni's full conservativeness.
    """
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, min((m - rank) * p_values[idx], 1.0))
        adjusted[idx] = running
    return adjusted


def significance_markers(
    samples: Mapping[str, Sequence[float]],
    *,
    alpha: float = DEFAULT_ALPHA,
    method: str = "unadjusted",
) -> SignificanceRow:
    """The paper's per-row marker annotation.

    For each model ``m``, the marker string lists the codes of every
    other model whose paired metric is statistically significantly
    *smaller* than ``m``'s (two-sided test, difference sign decides the
    direction) -- e.g. in Table 1 an ``(e,2)`` against the Weibull cell
    means the Weibull's efficiency is significantly larger than the
    exponential's and the 2-phase hyperexponential's.

    ``method`` is ``"unadjusted"`` (the paper's protocol: each pairwise
    test at level alpha) or ``"holm"`` (Holm-Bonferroni correction over
    the row's pairwise family, for readers worried about multiplicity).
    """
    if method not in ("unadjusted", "holm"):
        raise ValueError(f"unknown correction method: {method!r}")
    names = list(samples)
    # one test per unordered pair
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    comparisons = {pair: paired_ttest(samples[pair[0]], samples[pair[1]]) for pair in pairs}
    p_values = [comparisons[pair].p_value for pair in pairs]
    if method == "holm":
        p_values = holm_adjust(p_values)
    significant = {
        pair: (p < alpha) for pair, p in zip(pairs, p_values)
    }

    out: dict[str, str] = {}
    order = {v: i for i, v in enumerate(MODEL_MARKERS.values())}
    for m in names:
        smaller: list[str] = []
        for other in names:
            if other == m:
                continue
            pair = (m, other) if (m, other) in comparisons else (other, m)
            cmp = comparisons[pair]
            diff = cmp.mean_difference if pair[0] == m else -cmp.mean_difference
            if significant[pair] and diff > 0.0:
                smaller.append(MODEL_MARKERS.get(other, other[:1]))
        # keep the paper's canonical ordering e, w, 2, 3
        smaller.sort(key=lambda s: order.get(s, 99))
        out[m] = ",".join(smaller)
    return SignificanceRow(markers=out)

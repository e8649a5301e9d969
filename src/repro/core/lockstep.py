"""Lockstep schedule solver: advance many ``T_opt`` chains at once.

A pool sweep builds one :class:`~repro.core.schedule.CheckpointSchedule`
per (machine, model, checkpoint cost) -- 960 of them for the paper's
24-machine Figure 3 -- and the lazy chain solves each schedule's
intervals one scalar minimisation at a time.  Within a schedule the
solves are sequential (interval ``k + 1`` starts at uptime
``age_k + T_k + C + L``), but different schedules are independent, so
:func:`solve_schedules` advances every chain in lockstep.  At chain
step ``k`` each distribution family makes one array-parameter
``Gamma(T)/T`` call over all lanes still solving, and the per-problem
logic of :func:`~repro.numerics.optimize.minimize_positive_hybrid` --
warm triple ``x1.3`` then ``x4``, 48-point cold grid, Brent refinement,
parabolic polish -- runs as masked numpy updates across the lanes.

Family kernels (struct-of-arrays parameters, one row per lane):

* **exponential** -- rate per lane; the age is irrelevant.
* **hyperexponential** -- one kernel per phase count ``k``, with
  ``(n, k)`` probabilities and rates (padding to a common ``k`` would
  change the rounding of the phase sums); ageing reweights the phases
  by log-sum-exp exactly as
  :meth:`~repro.distributions.hyperexponential.Hyperexponential.conditional`.
* **Weibull** -- shape/scale per lane with the future-lifetime
  formulas of :class:`~repro.distributions.conditional.ConditionalDistribution`,
  including its ``S(age) < 0.5`` survival-ratio branch.

Schedules of any other family are left to the lazy chain.

:func:`solve_intervals` runs that step once for one model and cost
set at many ages, each a cold lane (no warm seed; fallback lanes take
the uncached scalar solve): ``repro serve``'s
:func:`~repro.core.optimizer.optimize_intervals_batch` sends it a wide
group's cache misses.

A lane stops when its schedule converges (``converge_rel_tol``) or when
its committed cycles cover the lane's horizon (the longest replay
budget the schedule will see, see
:func:`~repro.core.schedule.cycles_to_cover`).  Results are written into
the schedules' own interval lists, so the lazy chain serves every later
index unchanged.  Lanes whose grid has no interior minimum, and Weibull
lanes deep in the tail (``S(age) < 1e-9``, where the conditional
partial expectation needs quadrature), take
:func:`~repro.core.optimizer.optimize_interval` for that step -- the
lazy chain's own solve.  The lazy chain is the oracle:
``tests/test_lockstep.py`` and ``tests/test_serve_equivalence.py`` pin
every interval to it.

The results are bit-identical to the lazy chain, not merely close:
deep in a heavy tail the objective is so flat that a last-bit change in
one evaluation moves ``T_opt`` by up to ~1e-6 and can shift the
``converge_rel_tol`` stop by an index.  So each kernel repeats the
scalar solver's floating-point operations in the same order, with
numpy where the scalar path uses numpy and the C library (through
Python floats) where it uses ``math`` and float ``**``.  This relies on
numpy's ufuncs and small ``matmul`` rounding an element the same way
whatever the array's shape, which the equivalence suite checks.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np
from numpy.typing import NDArray
from scipy import special

from repro.core.markov import CheckpointCosts, gamma_from_parts
from repro.core.optimizer import (
    _T_MIN,
    OptimalInterval,
    _solve_interior,
    default_solver_method,
    optimize_interval,
    search_bound,
)
from repro.core.schedule import CheckpointSchedule, cycles_to_cover
from repro.distributions.base import AvailabilityDistribution, FloatArray, residual_life
from repro.distributions.conditional import _DEEP_TAIL_SURV
from repro.distributions.exponential import (
    Exponential,
    _exp_partial_expectation,
    exp_partial_expectation_one,
)
from repro.distributions.hyperexponential import Hyperexponential
from repro.distributions.weibull import Weibull
from repro.obs.metrics import active as _metrics

__all__ = ["has_kernel", "solve_intervals", "solve_schedules"]

IntArray = NDArray[np.int64]
BoolArray = NDArray[np.bool_]

#: solver constants, identical to the scalar path's defaults
#: (``optimize_interval`` rel_tol, ``brent_minimize`` abs_tol/max_iter,
#: ``minimize_positive_hybrid`` grid and ``_parabolic_polish`` stencil)
_REL_TOL = 1e-6
_ABS_TOL = 1e-10
_ZEPS = 1e-18
_BRENT_MAX_ITER = 200
_CGOLD = 0.3819660112501051
_WIDEN = (1.3, 4.0)
_GRID = 48
_POLISH_H = 1e-3
#: the objective value standing in for a non-finite ``Gamma(T)/T``
_HUGE = 1e300


def _libm(fn: Callable[..., float], *arrays: FloatArray) -> FloatArray:
    """``fn`` elementwise through Python floats: the C library's
    ``pow``/``exp``/``expm1``, which the scalar objective uses, rather
    than numpy's vectorised implementations (they differ in the last
    bit)."""
    if len({a.shape for a in arrays}) > 1:
        arrays = tuple(np.broadcast_arrays(*arrays))
    shape = arrays[0].shape
    flat = [a.ravel().tolist() for a in arrays]
    return np.fromiter(map(fn, *flat), dtype=np.float64, count=arrays[0].size).reshape(shape)


def _pow(base: float, exponent: float) -> float:
    out: float = base**exponent
    return out


def _neg_expm1(v: float) -> float:
    return -math.expm1(-v)


class _Kernel:
    """``Gamma(T)/T`` for the lanes of one family at their current ages.

    :meth:`begin` fixes a step's lanes and ages; ``rows`` arguments are
    positions within that step, and work intervals come as a
    ``(len(rows), m)`` matrix.  ``libm`` selects which of the lazy
    chain's two objective paths to reproduce bit for bit: ``False`` for
    :meth:`~repro.core.markov.MarkovIntervalModel.gamma_batch` (the
    warm triples, the grid and the polish stencil), ``True`` for the
    scalar :meth:`~repro.core.markov.MarkovIntervalModel.gamma` (Brent
    steps, the polish vertex and the reported ``gamma``).  Subclasses
    supply the raw conditional (state-0) and unconditional (state-2)
    ``F``/``PE`` values.
    """

    def __init__(
        self, dists: Sequence[AvailabilityDistribution], costs: Sequence[CheckpointCosts]
    ) -> None:
        self.dists = dists
        self.C_all = np.array([c.checkpoint for c in costs])
        self.R_all = np.array([c.recovery for c in costs])
        self.L_all = np.array([c.latency for c in costs])
        self.lanes = np.empty(0, dtype=np.int64)
        self.age = np.empty(0)
        self.C = self.R = self.L = self.age

    def begin(self, lanes: IntArray, ages: FloatArray) -> None:
        self.lanes = lanes
        self.age = ages
        self.C = self.C_all[lanes]
        self.R = self.R_all[lanes]
        self.L = self.L_all[lanes]

    def t_max(self) -> FloatArray:
        """The default upper search bound per step lane
        (:func:`~repro.core.optimizer.search_bound`)."""
        raise NotImplementedError

    def deep(self) -> BoolArray:
        """Step lanes this kernel cannot evaluate (scalar fallback)."""
        return np.zeros(self.age.size, dtype=bool)

    def _parts(
        self, rows: IntArray, h0: FloatArray, h2: FloatArray, libm: bool
    ) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
        """``(F_age(h0), PE_age(h0), F(h2), PE(h2))``."""
        raise NotImplementedError

    def gamma(self, rows: IntArray, T: FloatArray, libm: bool) -> FloatArray:
        """Eq. 11 per lane and column, assembled by
        :func:`~repro.core.markov.gamma_from_parts` (the scalar and the
        batch assembly round identically)."""
        h0 = self.C[rows, None] + T
        h2 = self.L[rows, None] + self.R[rows, None] + T
        c0, pe0, c2, pe2 = self._parts(rows, h0, h2, libm)
        return gamma_from_parts(h0, c0, pe0, h2, c2, pe2)

    def ratio(self, rows: IntArray, T: FloatArray, libm: bool) -> FloatArray:
        """The minimised objective, non-finite values mapped to ``1e300``."""
        with np.errstate(invalid="ignore", over="ignore"):
            r = self.gamma(rows, T, libm) / T
        out: FloatArray = np.where(np.isfinite(r), r, _HUGE)
        return out


class _ExponentialKernel(_Kernel):
    def __init__(
        self, dists: Sequence[AvailabilityDistribution], costs: Sequence[CheckpointCosts]
    ) -> None:
        super().__init__(dists, costs)
        self.lam_all = np.array([d.lam for d in self.dists])  # type: ignore[attr-defined]
        self.lam = self.lam_all

    def begin(self, lanes: IntArray, ages: FloatArray) -> None:
        super().begin(lanes, ages)
        self.lam = self.lam_all[lanes]

    def t_max(self) -> FloatArray:
        # Exponential.mean_residual_life: 1 / lam at every age
        return search_bound(1.0 / self.lam, lambda: 1.0 / self.lam)

    def _fpe(self, lam: FloatArray, x: FloatArray, libm: bool) -> tuple[FloatArray, FloatArray]:
        if libm:
            return -_libm(math.expm1, -lam * x), _libm(exp_partial_expectation_one, lam, x)
        return -np.expm1(-lam * x), _exp_partial_expectation(lam, x)

    def _parts(
        self, rows: IntArray, h0: FloatArray, h2: FloatArray, libm: bool
    ) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
        # memoryless: the state-0 distribution ignores the age
        lam = self.lam[rows, None]
        return (*self._fpe(lam, h0, libm), *self._fpe(lam, h2, libm))


class _HyperexponentialKernel(_Kernel):
    """Lanes of one phase count ``k`` (parameters ``(n, k)``)."""

    def __init__(
        self, dists: Sequence[AvailabilityDistribution], costs: Sequence[CheckpointCosts]
    ) -> None:
        super().__init__(dists, costs)
        self.P_all = np.array([d.probs for d in self.dists])  # type: ignore[attr-defined]
        self.lam_all = np.array([d.rates for d in self.dists])  # type: ignore[attr-defined]
        self.mean_all = np.array([d.mean() for d in self.dists])
        self.P = self.Pc = self.lam = self.P_all

    def begin(self, lanes: IntArray, ages: FloatArray) -> None:
        super().begin(lanes, ages)
        self.P = self.P_all[lanes]
        self.lam = self.lam_all[lanes]
        # Hyperexponential.conditional: log-sum-exp reweighting, then the
        # constructor's renormalisation; age 0 is the distribution itself
        with np.errstate(divide="ignore"):
            logw = np.log(self.P) - self.lam * ages[:, None]
        logw = logw - np.max(logw, axis=1, keepdims=True)
        w = np.exp(logw)
        p = w / w.sum(axis=1, keepdims=True)
        self.Pc = np.where(ages[:, None] > 0.0, p / p.sum(axis=1, keepdims=True), self.P)

    def t_max(self) -> FloatArray:
        # sf is exp(-age (x) rates) @ probs, partial_expectation a phase sum
        age = self.age[:, None]
        surv = np.matmul(np.exp(-(age * self.lam))[:, None, :], self.P[:, :, None])[:, 0, 0]
        pe = np.zeros(age.shape)
        for i in range(self.P.shape[1]):
            pe = pe + self.P[:, i, None] * _exp_partial_expectation(self.lam[:, i, None], age)
        mean = self.mean_all[self.lanes]
        return search_bound(residual_life(mean, surv, pe[:, 0], self.age), lambda: mean)

    def _fpe(
        self, P: FloatArray, lam: FloatArray, x: FloatArray, libm: bool
    ) -> tuple[FloatArray, FloatArray]:
        if libm:
            # cdf_one / partial_expectation_one: phase by phase
            surv: FloatArray | float = 0.0
            pe: FloatArray | float = 0.0
            for i in range(P.shape[1]):
                p, li = P[:, i, None], lam[:, i, None]
                surv = surv + p * _libm(math.exp, -li * x)
                pe = pe + p * _libm(exp_partial_expectation_one, li, x)
            return 1.0 - np.asarray(surv), np.asarray(pe)
        # _cdf: exp(-x (x) rates) @ probs; partial_expectation: phase sum
        e = np.exp(-(x[:, :, None] * lam[:, None, :]))
        F = 1.0 - np.matmul(e, P[:, :, None])[:, :, 0]
        PE = np.zeros(x.shape)
        for i in range(P.shape[1]):
            PE = PE + P[:, i, None] * _exp_partial_expectation(lam[:, i, None], x)
        return F, PE

    def _parts(
        self, rows: IntArray, h0: FloatArray, h2: FloatArray, libm: bool
    ) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
        lam = self.lam[rows]
        return (*self._fpe(self.Pc[rows], lam, h0, libm), *self._fpe(self.P[rows], lam, h2, libm))


class _WeibullKernel(_Kernel):
    """The base family plus :class:`ConditionalDistribution`'s ageing:
    ``F_a(x) = 1 - S(a + x) / S(a)`` while ``S(a) < 0.5``, else
    ``(F(a + x) - F(a)) / S(a)``, and
    ``PE_a(x) = [PE(a + x) - PE(a) - a (F(a + x) - F(a))] / S(a)``.
    At age 0 the constants ``(S, F, PE)(a)`` are exactly ``(1, 0, 0)``,
    which reduces both to the base family's values bit for bit."""

    def __init__(
        self, dists: Sequence[AvailabilityDistribution], costs: Sequence[CheckpointCosts]
    ) -> None:
        super().__init__(dists, costs)
        self.shape_all = np.array([d.shape for d in self.dists])  # type: ignore[attr-defined]
        self.scale_all = np.array([d.scale for d in self.dists])  # type: ignore[attr-defined]
        self.mean_all = np.array([d.mean() for d in self.dists])
        self.shape = self.scale = self.mean = self.surv = self.cdf_a = self.pe_a = self.shape_all

    def begin(self, lanes: IntArray, ages: FloatArray) -> None:
        super().begin(lanes, ages)
        self.shape = self.shape_all[lanes]
        self.scale = self.scale_all[lanes]
        self.mean = self.mean_all[lanes]
        # ConditionalDistribution's constants: sf/cdf/partial_expectation
        # of a Python float, i.e. C-library pow, numpy exp/expm1
        z = _libm(_pow, ages / self.scale, self.shape)
        young = ages <= 0.0
        self.surv = np.where(young, 1.0, np.exp(-z))
        self.cdf_a = np.where(young, 0.0, -np.expm1(-z))
        self.pe_a = np.where(young, 0.0, self.mean * special.gammainc(1.0 + 1.0 / self.shape, z))

    def t_max(self) -> FloatArray:
        # the conditioning constants are exactly sf/partial_expectation
        # of the raw family at the age (and S = 1, PE = 0 at age 0)
        return search_bound(
            residual_life(self.mean, self.surv, self.pe_a, self.age), lambda: self.mean
        )

    def deep(self) -> BoolArray:
        # below this survival the lazy chain integrates numerically
        out: BoolArray = self.surv < _DEEP_TAIL_SURV
        return out

    def _base(
        self, rows: IntArray, y: FloatArray, libm: bool
    ) -> tuple[FloatArray, FloatArray, FloatArray]:
        """``(S, F, PE)`` of the unconditioned family at ``y``: ``sf`` is
        numpy ``exp`` on both paths, ``cdf_one`` is ``math.expm1``."""
        shape = self.shape[rows, None]
        r = y / self.scale[rows, None]
        z = _libm(_pow, r, shape) if libm else r**shape
        F = _libm(_neg_expm1, z) if libm else -np.expm1(-z)
        pe: FloatArray = self.mean[rows, None] * special.gammainc(1.0 + 1.0 / shape, z)
        return np.exp(-z), F, pe

    def _parts(
        self, rows: IntArray, h0: FloatArray, h2: FloatArray, libm: bool
    ) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
        age = self.age[rows, None]
        surv = self.surv[rows, None]
        cdf_a = self.cdf_a[rows, None]
        S, F, PE = self._base(rows, age + h0, libm)
        c0 = np.where(surv < 0.5, 1.0 - S / surv, (F - cdf_a) / surv)
        pe0 = np.maximum((PE - self.pe_a[rows, None] - age * (F - cdf_a)) / surv, 0.0)
        _S2, F2, PE2 = self._base(rows, h2, libm)
        return c0, pe0, F2, PE2


# ----------------------------------------------------------------------
# the vectorised hybrid minimiser (one chain step for every lane)
# ----------------------------------------------------------------------


def _brent(
    kernel: _Kernel,
    rows: IntArray,
    bracket: tuple[FloatArray, FloatArray, FloatArray, FloatArray],
    lo: FloatArray,
    hi: FloatArray,
) -> tuple[FloatArray, FloatArray, BoolArray]:
    """``numerics.optimize.brent_minimize`` over many brackets at once.

    Every lane follows the scalar routine's branch logic; a lane leaves
    the loop the iteration its own stopping test passes.
    """
    a, b, x, fx = (arr.copy() for arr in bracket)
    w, v, fw, fv = x.copy(), x.copy(), fx.copy(), fx.copy()
    d = np.zeros_like(x)
    e = np.zeros_like(x)
    live = np.ones(x.size, dtype=bool)
    conv = np.zeros(x.size, dtype=bool)
    for _ in range(_BRENT_MAX_ITER):
        xm = 0.5 * (a + b)
        tol1 = _REL_TOL * np.abs(x) + max(_ABS_TOL, _ZEPS)
        tol2 = 2.0 * tol1
        done = live & (np.abs(x - xm) <= tol2 - 0.5 * (b - a))
        conv |= done
        live &= ~done
        if not live.any():
            break
        # parabola through (v, w, x); accepted only inside the bracket
        # and shorter than half the step before last
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        accept = (np.abs(e) > tol1) & ~(
            (np.abs(p) >= np.abs(0.5 * q * e)) | (p <= q * (a - x)) | (p >= q * (b - x))
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            dp = p / np.where(accept, q, 1.0)
        up = x + dp
        dp = np.where((up - a < tol2) | (b - up < tol2), np.copysign(tol1, xm - x), dp)
        eg = np.where(x >= xm, a - x, b - x)
        e_new = np.where(accept, d, eg)
        d_new = np.where(accept, dp, _CGOLD * eg)
        u = np.where(np.abs(d_new) >= tol1, x + d_new, x + np.copysign(tol1, d_new))
        sel = np.flatnonzero(live)
        fu = fx.copy()
        fu[sel] = kernel.ratio(rows[sel], np.clip(u[sel], lo[sel], hi[sel])[:, None], True)[:, 0]
        le = fu <= fx
        right = u >= x
        a_new = np.where(le, np.where(right, x, a), np.where(right, a, u))
        b_new = np.where(le, np.where(right, b, x), np.where(right, u, b))
        # Brent's exact-coincidence tests on stored abscissae, as in
        # numerics.optimize.brent_minimize
        c1 = ~le & ((fu <= fw) | (w == x))
        c2 = ~le & ~c1 & ((fu <= fv) | (v == x) | (v == w))  # reprolint: ignore[RL002]
        v_new = np.where(le | c1, w, np.where(c2, u, v))
        fv_new = np.where(le | c1, fw, np.where(c2, fu, fv))
        w_new = np.where(le, x, np.where(c1, u, w))
        fw_new = np.where(le, fx, np.where(c1, fu, fw))
        x_new = np.where(le, u, x)
        fx_new = np.where(le, fu, fx)
        a, b = np.where(live, a_new, a), np.where(live, b_new, b)
        v, fv = np.where(live, v_new, v), np.where(live, fv_new, fv)
        w, fw = np.where(live, w_new, w), np.where(live, fw_new, fw)
        x, fx = np.where(live, x_new, x), np.where(live, fx_new, fx)
        d, e = np.where(live, d_new, d), np.where(live, e_new, e)
    return x, fx, conv


def _polish(
    kernel: _Kernel, rows: IntArray, x: FloatArray, fx: FloatArray, lo: FloatArray, hi: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """``numerics.optimize._parabolic_polish`` per lane."""
    x0 = x * (1.0 - _POLISH_H)
    x2 = x * (1.0 + _POLISH_H)
    sel = np.flatnonzero((lo <= x0) & (x2 <= hi))
    if sel.size == 0:
        return x, fx
    f = kernel.ratio(rows[sel], np.stack([x0[sel], x2[sel]], axis=1), False)
    f0, f2 = f[:, 0], f[:, 1]
    xs, fxs = x[sel], fx[sel]
    denom = (f0 - fxs) + (f2 - fxs)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 0.5 * _POLISH_H * xs * (f0 - f2) / denom
    ok = np.isfinite(denom) & (denom > 0.0) & (np.abs(shift) < _POLISH_H * xs)
    sel, shift, f0, f2 = sel[ok], shift[ok], f0[ok], f2[ok]
    if sel.size == 0:
        return x, fx
    vx = x[sel] + shift
    fv = kernel.ratio(rows[sel], np.clip(vx, lo[sel], hi[sel])[:, None], True)[:, 0]
    take = fv <= np.maximum(f0, f2)
    x, fx = x.copy(), fx.copy()
    x[sel[take]] = vx[take]
    fx[sel[take]] = fv[take]
    return x, fx


def _hybrid(
    kernel: _Kernel, warm: FloatArray, lo: FloatArray, hi: FloatArray, skip: BoolArray
) -> tuple[FloatArray, FloatArray, BoolArray, BoolArray]:
    """One ``minimize_positive_hybrid`` solve per step lane.

    Returns ``(x, fx, converged, fallback)``; ``fallback`` marks lanes
    (``skip`` ones included) whose solve must be redone by the scalar
    path -- no warm or grid bracket held an interior minimum.
    """
    n = lo.size
    ba, bb, bc, fb = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    have = np.zeros(n, dtype=bool)

    # -- warm triples: x1.3, then x4; a seed near the domain edge goes cold
    pend = ~skip & np.isfinite(warm) & (lo < warm) & (warm < hi)
    for widen in _WIDEN:
        x0, x2 = warm / widen, warm * widen
        pend &= ~((x0 <= lo) | (x2 >= hi))
        rows = np.flatnonzero(pend)
        if rows.size == 0:
            break
        f = kernel.ratio(rows, np.stack([x0[rows], warm[rows], x2[rows]], axis=1), False)
        ok = (
            (f[:, 1] <= f[:, 0])
            & (f[:, 1] <= f[:, 2])
            & ((f[:, 1] < f[:, 0]) | (f[:, 1] < f[:, 2]))
        )
        hit = rows[ok]
        ba[hit], bb[hit], bc[hit], fb[hit] = x0[hit], warm[hit], x2[hit], f[ok, 1]
        have[hit] = True
        pend[hit] = False

    # -- cold: one 48-point log grid; its best interior cell brackets
    rows = np.flatnonzero(~have & ~skip)
    if rows.size:
        log_lo, log_hi = _libm(math.log, lo[rows]), _libm(math.log, hi[rows])
        steps = np.arange(_GRID, dtype=np.float64)
        xs = _libm(math.exp, log_lo[:, None] + (log_hi - log_lo)[:, None] * steps / (_GRID - 1))
        f = kernel.ratio(rows, xs, False)
        best = np.argmin(f, axis=1)
        mid = np.clip(best, 1, _GRID - 2)
        at = np.arange(rows.size)
        fm, fl, fr = f[at, mid], f[at, mid - 1], f[at, mid + 1]
        ok = (best == mid) & (fm <= fl) & (fm <= fr) & ((fm < fl) | (fm < fr))
        hit = rows[ok]
        ba[hit], bb[hit], bc[hit], fb[hit] = xs[ok, mid[ok] - 1], xs[ok, mid[ok]], xs[ok, mid[ok] + 1], fm[ok]
        have[hit] = True

    x, fx = bb.copy(), fb.copy()
    conv = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(have)
    if rows.size:
        lo_r, hi_r = lo[rows], hi[rows]
        xr, fxr, cr = _brent(kernel, rows, (ba[rows], bc[rows], bb[rows], fb[rows]), lo_r, hi_r)
        xr, fxr = _polish(kernel, rows, xr, fxr, lo_r, hi_r)
        x[rows], fx[rows], conv[rows] = xr, fxr, cr
    return x, fx, conv, ~have


# ----------------------------------------------------------------------
# one solve per lane: the step both entry points share
# ----------------------------------------------------------------------


#: the kernel for each family the lockstep solves
_KERNELS: dict[type, type[_Kernel]] = {
    Exponential: _ExponentialKernel,
    Weibull: _WeibullKernel,
    Hyperexponential: _HyperexponentialKernel,
}


def has_kernel(distribution: AvailabilityDistribution) -> bool:
    """Whether the lockstep can solve ``distribution``'s family."""
    return type(distribution) in _KERNELS


def _step(
    kernel: _Kernel,
    act: IntArray,
    ages: FloatArray,
    lo: FloatArray,
    hi: FloatArray,
    warm: FloatArray,
    fallback: Callable[[int, float], OptimalInterval],
) -> tuple[list[OptimalInterval], FloatArray]:
    """Solve kernel lanes ``act`` at ``ages`` within ``[lo, hi]``.

    ``hi`` is NaN where the lane takes the default bound
    (:meth:`_Kernel.t_max`) and ``warm`` where it has no seed (a cold
    solve).  Lanes the kernel cannot finish go to ``fallback(lane,
    age)``, the scalar solve.  Returns the intervals and their ``T_opt``.
    """
    kernel.begin(act, ages)
    if np.isnan(hi).any():
        hi = np.where(np.isnan(hi), kernel.t_max(), hi)
    x, fx, conv, fallback_lane = _hybrid(kernel, warm, lo, hi, kernel.deep())
    T = np.clip(x, lo, hi)
    good = np.flatnonzero(~fallback_lane)
    g = np.zeros(act.size)
    if good.size:
        g[good] = kernel.gamma(good, T[good, None], True)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(np.isfinite(g) & (g > 0.0), T / g, 0.0)
    rows = zip(
        act.tolist(), ages.tolist(), T.tolist(), g.tolist(), fx.tolist(),
        eff.tolist(), conv.tolist(), fallback_lane.tolist(), strict=True,
    )
    out: list[OptimalInterval] = []
    for j, (lane, a, t, gj, fj, ej, cj, fb) in enumerate(rows):
        if fb:
            opt = fallback(lane, a)
            T[j] = opt.T_opt
        else:
            opt = OptimalInterval(
                T_opt=t, gamma=gj, overhead_ratio=fj, expected_efficiency=ej,
                age=a, converged=cj,
            )
        out.append(opt)
    return out, T


def solve_intervals(
    distribution: AvailabilityDistribution,
    costs: CheckpointCosts,
    ages: Sequence[float],
    t_max: Sequence[float],
) -> list[OptimalInterval]:
    """Cold ``T_opt`` solves of one model and cost set at many ages at once.

    Interval ``i`` is bit-identical to the uncached
    ``optimize_interval(distribution, costs, age=ages[i],
    t_max=t_max[i])`` under the hybrid solver: one lockstep step with
    every age a lane.  The caller resolves the bounds (the cache key
    needs them anyway) and owns caching: the solver cache is neither
    read nor written here.  ``distribution`` must have a kernel
    (:func:`has_kernel`).  Records ``opt.lockstep.lanes`` and
    ``opt.lockstep.seconds``.
    """
    n = len(ages)
    if n == 0:
        return []
    wall0 = time.perf_counter()
    kernel = _KERNELS[type(distribution)]([distribution] * n, [costs] * n)
    hi = np.asarray(t_max, dtype=np.float64)

    def scalar(lane: int, age: float) -> OptimalInterval:
        return _solve_interior(
            distribution, costs, age=age, t_min=_T_MIN, t_max=float(hi[lane]),
            rel_tol=_REL_TOL, method="hybrid",
        )

    out, _T = _step(
        kernel, np.arange(n), np.asarray(ages, dtype=np.float64), np.full(n, _T_MIN), hi,
        np.full(n, math.nan), scalar,
    )
    reg = _metrics()
    if reg is not None:
        reg.inc("opt.lockstep.lanes", float(n))
        reg.observe("opt.lockstep.seconds", time.perf_counter() - wall0)
    return out


# ----------------------------------------------------------------------
# advancing the chains
# ----------------------------------------------------------------------


def _kernel_groups(
    lanes: Sequence[CheckpointSchedule],
) -> list[tuple[type[_Kernel], list[int]]]:
    """Lane indices per kernel: exponential, Weibull and
    hyperexponential per phase count (every lane has a kernel)."""
    groups: dict[tuple[type[_Kernel], int], list[int]] = {}
    for i, s in enumerate(lanes):
        d = s.distribution
        kind = _KERNELS[type(d)]
        k = d.k if kind is _HyperexponentialKernel else 0  # type: ignore[attr-defined]
        groups.setdefault((kind, k), []).append(i)
    return [(kind, idx) for (kind, _k), idx in groups.items()]


def _run_chains(
    kind: type[_Kernel],
    lanes: Sequence[CheckpointSchedule],
    horizons: FloatArray,
    reg: Any,
) -> int:
    """Advance one kernel's lanes to their stops; returns the step count."""
    n = len(lanes)
    kernel = kind([s.distribution for s in lanes], [s.costs for s in lanes])
    overhead = np.array([s.costs.checkpoint + s.costs.latency for s in lanes])
    t_min = np.array([s._t_min for s in lanes], dtype=np.float64)
    t_max = np.array([math.nan if s._t_max is None else s._t_max for s in lanes])
    tol = np.array(
        [math.nan if s._converge_rel_tol is None else s._converge_rel_tol for s in lanes]
    )
    # chain state: the next solve's age, the previous T_opt (the warm
    # seed; NaN before the first solve) and the committed cycle time
    age = np.empty(n)
    warm = np.full(n, math.nan)
    cum = np.zeros(n)
    for i, s in enumerate(lanes):
        if s._intervals:
            prev = np.array([it.T_opt for it in s._intervals])
            warm[i] = prev[-1]
            cum[i] = np.cumsum(prev + overhead[i])[-1]
            age[i] = s._ages[-1] + prev[-1] + kernel.C_all[i] + kernel.L_all[i]
        else:
            age[i] = s.t_elapsed + (s.costs.recovery if s.include_recovery_age else 0.0)

    def lazy_solve(lane: int, a: float) -> OptimalInterval:
        # the lazy chain's own solve, seeded like it
        s, seed = lanes[lane], warm[lane]
        return optimize_interval(
            s.distribution, s.costs, age=a, t_min=s._t_min, t_max=s._t_max,
            warm_start=None if math.isnan(seed) else float(seed),
        )

    alive = np.ones(n, dtype=bool)
    steps = 0
    while alive.any():
        act = np.flatnonzero(alive)
        ages = age[act]
        if not np.all(np.isfinite(ages)):  # pragma: no cover - defensive
            raise OverflowError("schedule age overflowed")
        opts, T = _step(kernel, act, ages, t_min[act], t_max[act], warm[act], lazy_solve)
        for lane, a, opt in zip(act.tolist(), ages.tolist(), opts, strict=True):
            lanes[lane]._intervals.append(opt)
            lanes[lane]._ages.append(a)
        prev = warm[act]
        settled = np.abs(T - prev) <= tol[act] * prev  # NaN seed or tol: False
        for lane in act[settled].tolist():
            lanes[lane]._converged_at = len(lanes[lane]._intervals) - 1
        memoryless = np.array([lanes[i]._memoryless for i in act.tolist()], dtype=bool)
        cum[act] = cum[act] + (T + overhead[act])
        age[act] = ages + T + kernel.C + kernel.L
        warm[act] = T
        covered = cycles_to_cover(cum[act], T + overhead[act], horizons[act]) == 0
        alive[act] = ~(settled | memoryless | covered)
        steps += 1
        if reg is not None:
            reg.inc("schedule.solves", float(act.size))
    return steps


def solve_schedules(
    schedules: Sequence[CheckpointSchedule], horizons: Sequence[float]
) -> None:
    """Solve every schedule's ``T_opt`` prefix in one lockstep pass.

    ``horizons[i]`` is the longest cycle budget schedule ``i`` must
    cover: its chain stops at the first interval whose committed cycles
    ``sum_{j<=k} (T_j + C + L)`` exceed it, or earlier when the
    schedule converges.  Intervals already materialised are kept and
    the chain resumes after them.  The results are written into each
    schedule (``interval(i)`` then answers without solving) and are
    bit-identical to the lazy scalar chain's.

    Only exponential, Weibull and hyperexponential schedules have a
    kernel; schedules of other families are left to the lazy chain, as
    is everything under ``use_solver(method="golden")`` (the
    golden-section reference path).  The solver cache
    is neither read nor written, and no trace events are recorded
    (like the batch replay kernel this feeds).
    """
    if len(schedules) != len(horizons):
        raise ValueError(f"got {len(horizons)} horizons for {len(schedules)} schedules")
    if default_solver_method() != "hybrid":
        return
    # one lane per distinct schedule, at its longest horizon
    widest: dict[int, tuple[CheckpointSchedule, float]] = {}
    for s, h in zip(schedules, horizons, strict=True):
        prior = widest.get(id(s))
        if prior is None or h > prior[1]:
            widest[id(s)] = (s, float(h))
    lanes: list[CheckpointSchedule] = []
    lane_h: list[float] = []
    for s, h in widest.values():
        done = s._converged_at is not None or (s._memoryless and bool(s._intervals))
        if s._intervals and not done:
            cyc = np.array([it.T_opt for it in s._intervals]) + (s.costs.checkpoint + s.costs.latency)
            done = bool(cycles_to_cover(float(np.cumsum(cyc)[-1]), float(cyc[-1]), h) == 0)
        if not done and math.isfinite(h) and has_kernel(s.distribution):
            lanes.append(s)
            lane_h.append(h)
    if not lanes:
        return
    reg = _metrics()
    wall0 = time.perf_counter()
    horizon = np.asarray(lane_h, dtype=np.float64)
    steps = 0
    for kind, idx in _kernel_groups(lanes):
        steps += _run_chains(kind, [lanes[i] for i in idx], horizon[idx], reg)
    if reg is not None:
        reg.inc("schedule.lockstep.lanes", float(len(lanes)))
        reg.inc("schedule.lockstep.steps", float(steps))
        reg.observe("schedule.lockstep.seconds", time.perf_counter() - wall0)

"""Cumulative baseline hazard estimators and martingale score residuals.

The hazard estimators are step functions with one jump per distinct event
time.  The Breslow jumps and the risk-set mean are ratios of the at-risk
sums ``S0`` and ``S1`` of one risk-set sweep (:class:`_Sweep` in
:mod:`coxsub.partial_likelihood`); this module does not sort or sum
``exp(beta'X)`` itself.  Score residuals integrate the covariate-centred
counting-process increments against such a step function, so every
integral is an exact finite sum over jump times; no quadrature is involved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import partial_likelihood
from .data import SurvivalDataset, _write_columns
from .errors import NumericsError, PilotError
from .partial_likelihood import CoxFit, _SortedRows, _Sweep

FULL_DATA = "full_data"
PILOT_UNIFORM = "pilot_uniform"
TRUE_SIMULATED = "true_simulated"


@dataclass(frozen=True)
class CumulativeHazard:
    """Non-decreasing right-continuous step function, zero before the first jump."""

    jump_times: np.ndarray
    jumps: np.ndarray
    source: str = FULL_DATA
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=np.float64)
        j = np.asarray(self.jumps, dtype=np.float64)
        if jt.shape != j.shape or jt.ndim != 1:
            raise ValueError("jump_times and jumps must be matching 1-D arrays")
        if not np.all(np.isfinite(jt)) or np.any(np.diff(jt) <= 0):
            raise ValueError("jump_times must be finite and strictly increasing")
        if np.any(j <= 0) or not np.all(np.isfinite(j)):
            raise ValueError("jumps must be positive and finite")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jumps", j)
        object.__setattr__(self, "cumulative", np.cumsum(j))

    def __call__(self, t) -> np.ndarray | float:
        t_arr = np.asarray(t, dtype=np.float64)
        pos = np.searchsorted(self.jump_times, t_arr, side="right") - 1
        out = np.where(pos >= 0, self.cumulative[np.maximum(pos, 0)], 0.0)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def write_csv(self, path: str | os.PathLike) -> None:
        _write_columns(path, ["time", "cumhaz"], [(self.jump_times, float), (self.cumulative, float)])


class RiskSetMean:
    """Step-function evaluator of the at-risk covariate mean.

    Holds ``S1 / S0`` at the distinct times of the rows it was built from; a
    query at ``t`` returns the exp-weighted mean covariate of the rows still
    at risk at ``t``.  Queries beyond the last time clamp to the last defined
    value and are counted in ``clamped_queries``.
    """

    __slots__ = ("times", "values", "beta", "clamped_queries")

    def __init__(self, times: np.ndarray, values: np.ndarray, beta: np.ndarray):
        self.times = times
        self.values = values
        self.beta = beta
        self.clamped_queries = 0

    @classmethod
    def build(cls, time: np.ndarray, covariates: np.ndarray, beta: np.ndarray) -> "RiskSetMean":
        time = np.asarray(time, dtype=np.float64)
        no_events = np.zeros(time.size, dtype=np.int8)
        return _risk_set_mean(_Sweep(_SortedRows.of_rows(time, no_events, covariates), beta))

    def at(self, t) -> np.ndarray:
        """Vectorised lookup; accepts a scalar or an array of times."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        pos = np.searchsorted(self.times, t_arr, side="left")
        over = pos >= self.times.size
        n_over = int(np.count_nonzero(over))
        if n_over:
            self.clamped_queries += n_over
            pos = np.where(over, self.times.size - 1, pos)
        out = self.values[pos]
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def _risk_set_mean(sweep: _Sweep) -> RiskSetMean:
    """``S1 / S0`` at every distinct time of the swept rows."""
    time = sweep.rows.time
    starts = np.flatnonzero(np.concatenate(([True], time[1:] != time[:-1])))
    return RiskSetMean(times=time[starts], values=sweep.means(starts), beta=sweep.beta)


def _breslow(sweep: _Sweep, source: str) -> CumulativeHazard:
    """Breslow jumps: events over ``S0`` at every distinct event time."""
    rows = sweep.rows
    if rows.n_events == 0:
        raise NumericsError("no events: cumulative hazard is identically zero")
    starts, counts = np.unique(rows.event_risk_start, return_counts=True)
    denom = sweep.s0(starts)
    try:
        with np.errstate(over="raise"):
            jumps = counts * np.exp(-sweep.shift) / denom
    except FloatingPointError:
        raise NumericsError("hazard increments overflow; rescale covariates") from None
    return CumulativeHazard(jump_times=rows.time[starts], jumps=jumps, source=source)


def breslow_cumhaz(ds: SurvivalDataset, beta: np.ndarray) -> CumulativeHazard:
    """Full-data cumulative baseline hazard estimate at ``beta``.

    At ``beta = 0`` this reduces exactly to the Nelson-Aalen estimator.
    """
    return _breslow(_Sweep(_SortedRows.of_dataset(ds), beta), FULL_DATA)


def pilot_breslow(ds: SurvivalDataset, pilot_indices: np.ndarray, beta: np.ndarray) -> CumulativeHazard:
    """Cumulative hazard estimate from a with-replacement pilot multiset.

    Repeated indices contribute repeatedly, both as events and to the
    at-risk sums.
    """
    idx = np.asarray(pilot_indices)
    if idx.ndim != 1 or idx.size == 0:
        raise PilotError("pilot is empty")
    rows = _SortedRows.of_dataset(ds, subset=idx)
    if rows.n_events == 0:
        raise PilotError("pilot uninformative (no events); increase the pilot size")
    return _breslow(_Sweep(rows, beta), PILOT_UNIFORM)


@dataclass
class PilotContext:
    """Everything the second sampling stage needs from the pilot subsample.

    The pilot rows are kept so the risk-set mean and hazard tables can be
    re-evaluated at a different coefficient vector (the covariance
    estimator needs them at the final estimate).
    """

    pilot_indices: np.ndarray
    time: np.ndarray
    status: np.ndarray
    covariates: np.ndarray
    pilot_beta: np.ndarray
    fit: CoxFit
    pilot_cumhaz: CumulativeHazard
    xbar: RiskSetMean

    @classmethod
    def from_fit(cls, ds: SurvivalDataset, pilot_indices: np.ndarray, fit: CoxFit) -> "PilotContext":
        """The pilot rows and their tables at the pilot estimate ``fit.beta``."""
        idx = pilot_indices
        time, status = ds.time[idx], ds.status[idx]
        covariates = np.ascontiguousarray(ds.covariates[idx])
        cumhaz, xbar = _pilot_tables(time, status, covariates, fit.beta)
        return cls(idx, time, status, covariates, fit.beta, fit, cumhaz, xbar)

    @property
    def size(self) -> int:
        return self.pilot_indices.size

    def curvature(self) -> np.ndarray:
        """Event-weighted at-risk curvature of the pilot fit."""
        return self.fit.hessian

    def tables_at(self, beta: np.ndarray) -> tuple[CumulativeHazard, RiskSetMean]:
        """Pilot hazard and risk-set mean re-evaluated at ``beta``."""
        if np.array_equal(np.asarray(beta, dtype=np.float64), self.pilot_beta):
            return self.pilot_cumhaz, self.xbar
        return _pilot_tables(self.time, self.status, self.covariates, beta)


def _pilot_tables(
    time: np.ndarray, status: np.ndarray, covariates: np.ndarray, beta: np.ndarray
) -> tuple[CumulativeHazard, RiskSetMean]:
    """Hazard and risk-set mean of the pilot rows from one sweep."""
    sweep = _Sweep(_SortedRows.of_rows(time, status, covariates), beta)
    return _breslow(sweep, PILOT_UNIFORM), _risk_set_mean(sweep)


def _risk(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Unshifted ``exp(beta'X)`` per row: residuals need its absolute scale."""
    eta = X @ np.asarray(beta, dtype=np.float64)
    if not np.all(np.isfinite(eta)):
        raise NumericsError("non-finite linear predictor; rescale covariates")
    with np.errstate(over="raise"):
        try:
            return np.exp(eta, out=eta)
        except FloatingPointError:
            raise NumericsError("exp(beta'X) overflows; rescale covariates") from None


def score_residuals(
    ds: SurvivalDataset,
    xbar: RiskSetMean,
    cumhaz: CumulativeHazard,
    beta: np.ndarray,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Per-record martingale score residuals, one row per record.

    Each row is the exact sum over hazard jump times of the centred
    covariate against the record's estimated martingale increments:
    the event contribution (if any) minus the record's compensator
    accumulated over jumps up to its observed time.
    """
    ds.check_values()
    if subset is None:
        time, status, X = ds.time, ds.status, ds.covariates
    else:
        idx = np.asarray(subset)
        time, status, X = ds.time[idx], ds.status[idx], ds.covariates[idx]
    risk = _risk(X, beta)
    out = np.zeros((time.size, X.shape[1]))
    events = status == 1
    if np.any(events):
        out[events] = X[events] - xbar.at(time[events])

    jt = cumhaz.jump_times
    mean_at_jumps = xbar.at(jt)
    cum_mean_haz = np.cumsum(mean_at_jumps * cumhaz.jumps[:, None], axis=0)
    pos = np.searchsorted(jt, time, side="right") - 1
    seen = pos >= 0
    lam = np.where(seen, cumhaz.cumulative[np.maximum(pos, 0)], 0.0)
    drift = np.where(seen[:, None], cum_mean_haz[np.maximum(pos, 0)], 0.0)
    out -= risk[:, None] * (X * lam[:, None] - drift)
    return out


_BLOCKWISE_MAX_SEGMENTS = 4096


def score_residual_norms(
    ds: SurvivalDataset,
    xbar: RiskSetMean,
    cumhaz: CumulativeHazard,
    beta: np.ndarray,
    curvature: np.ndarray | None = None,
) -> np.ndarray:
    """Euclidean norms of all score residuals, in record order.

    Equals ``norm(score_residuals(...), axis=1)`` up to floating-point
    reassociation, but runs over the sorted view, where the hazard, the
    drift and the risk-set mean are constant on runs of records between
    jump times and knots.  When the tables have few steps relative to the
    data (the pilot-table case) one cache-resident pass computes each
    run's residual rows and their norms directly; otherwise the step
    tables are expanded and the norms accumulated one column at a time.

    With a positive definite ``curvature`` matrix ``Psi`` the norms are
    those of ``Psi^-1`` times each residual (the A-optimal metric).  A
    residual is linear in the record's covariates, the drift and the
    risk-set mean, so these three are transformed by ``Psi^-1`` and the
    same kernels run; the risk ``exp(beta'X)`` stays on the untransformed
    covariates.
    """
    ds.check_values()
    time_s, status_s, X_s = ds.sorted_view()
    n, p = ds.n, ds.p

    # hazard accumulated up to each record's time: constant on segments
    # between jump times
    jt = cumhaz.jump_times
    bounds = np.concatenate(([0], np.searchsorted(time_s, jt, side="left"), [n]))
    lam_rows = np.concatenate(([0.0], cumhaz.cumulative))
    cum_mean_haz = np.cumsum(xbar.at(jt) * cumhaz.jumps[:, None], axis=0)
    drift_rows = np.concatenate((np.zeros((1, p)), cum_mean_haz), axis=0)
    mean_rows = xbar.values
    metric = None
    if curvature is not None:
        metric = np.linalg.inv(curvature).T
        drift_rows, mean_rows = drift_rows @ metric, mean_rows @ metric

    # the risk-set mean for the event terms is constant between its knots;
    # events after the last knot clamp to its value
    K = xbar.times.size
    knot_starts = np.searchsorted(time_s, xbar.times, side="right")

    if bounds.size - 1 + K <= _BLOCKWISE_MAX_SEGMENTS:
        norm2 = _norms_blockwise(
            X_s, status_s, beta, metric, bounds, lam_rows, drift_rows, knot_starts, mean_rows
        )
    else:
        risk_s = _risk(X_s, beta)
        ev_s = np.flatnonzero(status_s == 1)
        knot_ids = np.minimum(np.searchsorted(knot_starts, ev_s, side="right"), K - 1)
        X_m = X_s if metric is None else X_s @ metric
        norm2 = _norms_columnwise(
            X_m, risk_s, ev_s, mean_rows[knot_ids], np.diff(bounds), lam_rows, drift_rows
        )
    # one clamped query per event after the last knot, once the pass succeeds
    xbar.clamped_queries += int(np.count_nonzero(status_s[knot_starts[-1] :] == 1))
    out = np.empty(n)
    out[ds.sort_index] = np.sqrt(norm2, out=norm2)
    return out


def _norms_columnwise(X_s, risk_s, ev_s, event_means, seg_len, lam_rows, drift_rows):
    """Generic path: expand the step tables and stream one column at a time."""
    lam_risk = np.repeat(lam_rows, seg_len)
    lam_risk *= risk_s
    norm2 = np.zeros(X_s.shape[0])
    for j in range(X_s.shape[1]):
        col = X_s[:, j]
        rj = risk_s * np.repeat(drift_rows[:, j], seg_len)
        rj -= col * lam_risk
        rj[ev_s] += col[ev_s] - event_means[:, j]
        norm2 += rj * rj
    return norm2


def _norms_blockwise(X_s, status_s, beta, metric, bounds, lam_rows, drift_rows, knot_starts, mean_rows):
    """Few-segment path: squared residual norms, run by run.

    The residual of a sorted record is ``X*(status - Lam*risk) +
    risk*drift - status*xbar``, where ``Lam`` and ``drift`` are constant on
    hazard segments and ``xbar`` between knots.  Blocks of
    ``partial_likelihood._BLOCK_ROWS`` records are taken in turn: first the
    block's risk and metric-transformed covariates, then each merged run of
    segments and knots inside it, whose residual rows and squared norms are
    computed directly.  ``metric`` is ``None`` or the transposed inverse
    curvature.
    """
    block = partial_likelihood._BLOCK_ROWS
    n = X_s.shape[0]
    K = mean_rows.shape[0]
    # merged runs: cut at every segment bound, knot start and block start
    edges = np.unique(np.concatenate((bounds, knot_starts, np.arange(0, n, block))))
    seg_ids = np.searchsorted(bounds[1:-1], edges[:-1], side="right")
    knot_ids = np.minimum(np.searchsorted(knot_starts, edges[:-1], side="right"), K - 1)
    runs = zip(edges[:-1].tolist(), edges[1:].tolist(), seg_ids.tolist(), knot_ids.tolist())
    lam = lam_rows.tolist()
    drift_cols, mean_cols = drift_rows[:, :, None], mean_rows[:, :, None]
    norm2 = np.empty(n)
    for a in range(0, n, block):
        b = min(a + block, n)
        risk = _risk(X_s[a:b], beta)
        delta = status_s[a:b].astype(np.float64)
        # covariates as p rows of the block's length: the arithmetic below
        # then runs along the records, not along the p covariates
        X_t = X_s[a:b].T.copy() if metric is None else metric.T @ X_s[a:b].T
        # no run crosses a block start, so the block's runs end with one at b
        for lo, hi, s, k in runs:
            r, d = risk[lo - a : hi - a], delta[lo - a : hi - a]
            resid = X_t[:, lo - a : hi - a] * (d - lam[s] * r)
            resid += drift_cols[s] * r
            resid -= mean_cols[k] * d
            resid *= resid
            norm2[lo:hi] = resid.sum(axis=0)
            if hi == b:
                break
    return norm2

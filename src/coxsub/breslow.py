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
    reassociation, but runs over the sorted view: step-function lookups
    become run-length expansions over segments between jump times.  When
    the hazard has few jumps relative to the data (the pilot-table case)
    the compensator part collapses to per-segment scalar tables and one
    blockwise matrix-vector product, which roughly halves the memory
    traffic of the pass.

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
    risk_s = _risk(X_s, beta)

    # hazard accumulated up to each record's time: constant on segments
    # between jump times, so expand per-segment values by segment length
    jt = cumhaz.jump_times
    bounds = np.concatenate(([0], np.searchsorted(time_s, jt, side="left"), [n]))
    seg_len = np.diff(bounds)
    lam_rows = np.concatenate(([0.0], cumhaz.cumulative))
    cum_mean_haz = np.cumsum(xbar.at(jt) * cumhaz.jumps[:, None], axis=0)
    drift_rows = np.concatenate((np.zeros((1, p)), cum_mean_haz), axis=0)
    mean_rows = xbar.values
    if curvature is not None:
        metric = np.linalg.inv(curvature).T
        X_s, drift_rows, mean_rows = X_s @ metric, drift_rows @ metric, mean_rows @ metric

    # risk-set-mean table rows for the event terms, same expansion trick
    ev_s = np.flatnonzero(status_s == 1)
    knots = xbar.times
    K = knots.size
    knot_starts = np.searchsorted(time_s, knots, side="right")
    knot_len = np.diff(np.concatenate(([0], knot_starts, [n])))
    knot_ids = np.repeat(np.arange(K + 1), knot_len)[ev_s]
    n_over = int(np.count_nonzero(knot_ids >= K))
    if n_over:
        xbar.clamped_queries += n_over
        knot_ids = np.minimum(knot_ids, K - 1)

    if seg_len.size + K <= _BLOCKWISE_MAX_SEGMENTS:
        norm2 = _norms_blockwise(
            X_s, status_s, risk_s, bounds, lam_rows, drift_rows, knot_starts, mean_rows
        )
    else:
        norm2 = _norms_columnwise(
            X_s, risk_s, ev_s, mean_rows[knot_ids], seg_len, lam_rows, drift_rows
        )
    out = np.empty(n)
    out[ds.sort_index] = np.sqrt(np.maximum(norm2, 0.0, out=norm2), out=norm2)
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


def _norms_blockwise(X_s, status_s, risk_s, bounds, lam_rows, drift_rows, knot_starts, mean_rows):
    """Few-segment path: squared norms from per-record scalars.

    Writing the residual as ``X*(status - Lam*risk) + (risk*drift -
    status*xbar)`` with ``drift`` and ``xbar`` constant on runs of the
    sorted records, the squared norm is a quadratic in per-record scalars:
    three blockwise record-by-table products plus run-length-expanded
    per-segment tables.  One pass over the covariates replaces the
    per-column streaming of the generic path.
    """
    n, p = X_s.shape
    seg_len = np.diff(bounds)
    delta = status_s.astype(np.float64)
    lam_risk = np.repeat(lam_rows, seg_len)
    lam_risk *= risk_s
    alpha = delta - lam_risk

    K = mean_rows.shape[0]
    knot_bounds = np.concatenate(([0], knot_starts, [n]))
    knot_len = np.diff(knot_bounds)

    x_sq = np.einsum("ij,ij->i", X_s, X_s)
    xdot_drift = np.empty(n)
    for s in range(seg_len.size):
        a, b = bounds[s], bounds[s + 1]
        if a < b:
            xdot_drift[a:b] = X_s[a:b] @ drift_rows[s]
    xdot_mean = np.empty(n)
    for k in range(knot_len.size):
        a, b = knot_bounds[k], knot_bounds[k + 1]
        if a < b:
            xdot_mean[a:b] = X_s[a:b] @ mean_rows[min(k, K - 1)]

    drift_sq_seg = np.repeat(np.einsum("ij,ij->i", drift_rows, drift_rows), seg_len)
    mean_sq = np.einsum("ij,ij->i", mean_rows, mean_rows)
    mean_sq_knot = np.repeat(np.concatenate((mean_sq, mean_sq[-1:])), knot_len)

    # drift . xbar is constant on the merged run structure of both tables
    edges = np.unique(np.concatenate((bounds, knot_bounds)))
    seg_ids = np.searchsorted(bounds[1:-1], edges[:-1], side="right")
    knot_ids = np.minimum(np.searchsorted(knot_starts, edges[:-1], side="right"), K - 1)
    pair = np.einsum("ij,ij->i", drift_rows[seg_ids], mean_rows[knot_ids])
    pair_dot = np.repeat(pair, np.diff(edges))

    norm2 = alpha * alpha * x_sq
    norm2 += 2.0 * alpha * (risk_s * xdot_drift - delta * xdot_mean)
    norm2 += risk_s * risk_s * drift_sq_seg
    norm2 -= 2.0 * (risk_s * delta) * pair_dot
    norm2 += delta * mean_sq_knot
    return norm2

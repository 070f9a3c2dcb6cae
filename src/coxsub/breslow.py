"""Cumulative baseline hazard estimators and martingale score residuals.

The hazard estimators are step functions with one jump per distinct event
time.  Score residuals integrate the covariate-centred counting-process
increments against such a step function, so every integral is an exact
finite sum over jump times; no quadrature is involved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .data import SurvivalDataset, _write_columns
from .errors import NumericsError, PilotError
from .partial_likelihood import CoxFit

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
        if jt.size and np.any(np.diff(jt) <= 0):
            raise ValueError("jump_times must be strictly increasing")
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

    Holds suffix-sum tables over the distinct times of the rows it was
    built from; a query at ``t`` returns the exp-weighted mean covariate of
    the rows still at risk at ``t``.  Queries beyond the last time clamp to
    the last defined value and are counted in ``clamped_queries``.
    """

    __slots__ = ("times", "values", "beta", "clamped_queries")

    def __init__(self, times: np.ndarray, values: np.ndarray, beta: np.ndarray):
        self.times = times
        self.values = values
        self.beta = beta
        self.clamped_queries = 0

    @classmethod
    def build(cls, time: np.ndarray, covariates: np.ndarray, beta: np.ndarray) -> "RiskSetMean":
        beta = np.asarray(beta, dtype=np.float64)
        eta = covariates @ beta
        if not np.all(np.isfinite(eta)):
            raise NumericsError("non-finite linear predictor; rescale covariates")
        order = np.argsort(time, kind="stable")
        t_sorted = time[order]
        g = np.exp(eta[order] - eta.max())
        denom = np.cumsum(g[::-1])[::-1]
        numer = np.cumsum((g[:, None] * covariates[order])[::-1], axis=0)[::-1]
        distinct = np.unique(t_sorted)
        pos = np.searchsorted(t_sorted, distinct, side="left")
        d = denom[pos]
        if d.min() <= 0.0 or not np.all(np.isfinite(d)):
            raise NumericsError("at-risk sum underflowed; rescale covariates")
        return cls(times=distinct, values=numer[pos] / d[:, None], beta=beta)

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


def _breslow_from_rows(
    time: np.ndarray, status: np.ndarray, covariates: np.ndarray, beta: np.ndarray, source: str
) -> CumulativeHazard:
    beta = np.asarray(beta, dtype=np.float64)
    eta = covariates @ beta
    if not np.all(np.isfinite(eta)):
        raise NumericsError("non-finite linear predictor; rescale covariates")
    shift = float(eta.max())
    order = np.argsort(time, kind="stable")
    t_sorted = time[order]
    g = np.exp(eta[order] - shift)
    at_risk = np.cumsum(g[::-1])[::-1]
    t_events = t_sorted[status[order] == 1]
    ev_times = np.unique(t_events)
    if ev_times.size == 0:
        raise NumericsError("no events: cumulative hazard is identically zero")
    pos = np.searchsorted(t_sorted, ev_times, side="left")
    counts = np.searchsorted(t_events, ev_times, side="right") - np.searchsorted(
        t_events, ev_times, side="left"
    )
    denom = at_risk[pos]
    if denom.min() <= 0.0 or not np.all(np.isfinite(denom)):
        raise NumericsError("at-risk sum underflowed at an event time; rescale covariates")
    try:
        with np.errstate(over="raise"):
            jumps = counts * np.exp(-shift) / denom
    except FloatingPointError:
        raise NumericsError("hazard increments overflow; rescale covariates") from None
    return CumulativeHazard(jump_times=ev_times, jumps=jumps, source=source)


def breslow_cumhaz(ds: SurvivalDataset, beta: np.ndarray) -> CumulativeHazard:
    """Full-data cumulative baseline hazard estimate at ``beta``.

    At ``beta = 0`` this reduces exactly to the Nelson-Aalen estimator.
    """
    return _breslow_from_rows(ds.time, ds.status, ds.covariates, beta, FULL_DATA)


def pilot_breslow(ds: SurvivalDataset, pilot_indices: np.ndarray, beta: np.ndarray) -> CumulativeHazard:
    """Cumulative hazard estimate from a with-replacement pilot multiset.

    Repeated indices contribute repeatedly, both as events and to the
    at-risk sums.
    """
    idx = np.asarray(pilot_indices)
    if idx.ndim != 1 or idx.size == 0:
        raise PilotError("pilot is empty")
    status = ds.status[idx]
    if not np.any(status == 1):
        raise PilotError("pilot uninformative (no events); increase the pilot size")
    return _breslow_from_rows(ds.time[idx], status, ds.covariates[idx], beta, PILOT_UNIFORM)


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
        cumhaz = _breslow_from_rows(self.time, self.status, self.covariates, beta, PILOT_UNIFORM)
        xbar = RiskSetMean.build(self.time, self.covariates, beta)
        return cumhaz, xbar


def pilot_xbar(ctx: PilotContext, t: float, beta: np.ndarray) -> np.ndarray:
    """At-risk covariate mean of the pilot rows at time ``t``.

    Strict single-query form: raises when no pilot row is at risk at ``t``.
    Batch consumers use :meth:`RiskSetMean.at`, which clamps instead.
    """
    _, xbar = ctx.tables_at(beta)
    if t > xbar.times[-1]:
        raise ValueError(f"no pilot record at risk at t={t}; clamp queries to the observed range")
    return xbar.at(t)


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
    if subset is None:
        time, status, X = ds.time, ds.status, ds.covariates
    else:
        idx = np.asarray(subset)
        time, status, X = ds.time[idx], ds.status[idx], ds.covariates[idx]
    beta = np.asarray(beta, dtype=np.float64)
    eta = X @ beta
    if not np.all(np.isfinite(eta)):
        raise NumericsError("non-finite linear predictor; rescale covariates")

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
    with np.errstate(over="raise"):
        try:
            risk = np.exp(eta)
        except FloatingPointError:
            raise NumericsError("exp(beta'X) overflows; rescale covariates") from None
    out -= risk[:, None] * (X * lam[:, None] - drift)
    return out


def score_residual(
    ds: SurvivalDataset,
    i: int,
    xbar: RiskSetMean,
    cumhaz: CumulativeHazard,
    beta: np.ndarray,
) -> np.ndarray:
    """Martingale score residual of a single record."""
    return score_residuals(ds, xbar, cumhaz, beta, subset=np.array([i]))[0]


_BLOCKWISE_MAX_SEGMENTS = 4096


def score_residual_norms(
    ds: SurvivalDataset,
    xbar: RiskSetMean,
    cumhaz: CumulativeHazard,
    beta: np.ndarray,
) -> np.ndarray:
    """Euclidean norms of all score residuals, in record order.

    Equals ``norm(score_residuals(...), axis=1)`` up to floating-point
    reassociation, but runs over the sorted view: step-function lookups
    become run-length expansions over segments between jump times.  When
    the hazard has few jumps relative to the data (the pilot-table case)
    the compensator part collapses to per-segment scalar tables and one
    blockwise matrix-vector product, which roughly halves the memory
    traffic of the pass.
    """
    time_s, status_s, X_s = ds.sorted_view()
    n, p = ds.n, ds.p
    beta = np.asarray(beta, dtype=np.float64)
    eta_s = X_s @ beta
    if not np.all(np.isfinite(eta_s)):
        raise NumericsError("non-finite linear predictor; rescale covariates")
    with np.errstate(over="raise"):
        try:
            risk_s = np.exp(eta_s, out=eta_s)
        except FloatingPointError:
            raise NumericsError("exp(beta'X) overflows; rescale covariates") from None

    # hazard accumulated up to each record's time: constant on segments
    # between jump times, so expand per-segment values by segment length
    jt = cumhaz.jump_times
    bounds = np.concatenate(([0], np.searchsorted(time_s, jt, side="left"), [n]))
    seg_len = np.diff(bounds)
    lam_rows = np.concatenate(([0.0], cumhaz.cumulative))
    cum_mean_haz = np.cumsum(xbar.at(jt) * cumhaz.jumps[:, None], axis=0)
    drift_rows = np.concatenate((np.zeros((1, p)), cum_mean_haz), axis=0)

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
            X_s, status_s, risk_s, bounds, lam_rows, drift_rows, knot_starts, xbar.values
        )
    else:
        event_means = xbar.values[knot_ids]
        norm2 = _norms_columnwise(
            X_s, risk_s, ev_s, event_means, seg_len, lam_rows, drift_rows
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

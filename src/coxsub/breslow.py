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
from .data import SurvivalDataset, _adopt, _frozen, _write_columns
from .errors import NumericsError, PilotError
from .partial_likelihood import CoxFit, _run_starts, _SortedRows, _Sweep


@dataclass(frozen=True)
class CumulativeHazard:
    """Non-decreasing right-continuous step function, zero before the first jump."""

    jump_times: np.ndarray
    jumps: np.ndarray
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        jt = _adopt(self.jump_times, np.float64)
        j = _adopt(self.jumps, np.float64)
        if jt.shape != j.shape or jt.ndim != 1:
            raise ValueError("jump_times and jumps must be matching 1-D arrays")
        if not np.all(np.isfinite(jt)) or np.any(jt[1:] <= jt[:-1]):
            raise ValueError("jump_times must be finite and strictly increasing")
        if np.any(j <= 0) or not np.all(np.isfinite(j)):
            raise ValueError("jumps must be positive and finite")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jumps", j)
        object.__setattr__(self, "cumulative", _frozen(np.cumsum(j))[0])

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

    __slots__ = ("times", "values", "clamped_queries")

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self.times = times
        self.values = values
        self.clamped_queries = 0

    @classmethod
    def build(cls, time: np.ndarray, covariates: np.ndarray, beta: np.ndarray) -> "RiskSetMean":
        """The mean over the given rows, swept as a dataset with no events.

        Raises ``ValueError`` on a broken time or covariate (see
        :meth:`SurvivalDataset.check_values`).
        """
        no_events = np.zeros(np.shape(time), dtype=np.int8)
        ds = SurvivalDataset(covariates=covariates, time=time, status=no_events)
        return _risk_set_mean(_Sweep(_SortedRows.of_dataset(ds), beta))

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
    starts = _run_starts(time)
    return RiskSetMean(times=time[starts], values=sweep.means(starts))


def _breslow(sweep: _Sweep) -> CumulativeHazard:
    """Breslow jumps: events over ``S0`` at every distinct event time."""
    rows = sweep.rows
    if rows.n_events == 0:
        raise NumericsError("no events: cumulative hazard is identically zero")
    first = _run_starts(rows.event_risk_start)  # one run per tied event time
    starts = rows.event_risk_start[first]
    counts = np.diff(first, append=rows.n_events)
    denom = sweep.s0(starts)
    with np.errstate(over="ignore"):
        jumps = counts * np.exp(-sweep.shift) / denom
    if not np.all((jumps > 0.0) & np.isfinite(jumps)):
        raise NumericsError("hazard increments overflow or underflow; rescale covariates")
    return CumulativeHazard(*_frozen(rows.time[starts], jumps))


def breslow_cumhaz(ds: SurvivalDataset, beta: np.ndarray) -> CumulativeHazard:
    """Full-data cumulative baseline hazard estimate at ``beta``.

    At ``beta = 0`` this reduces exactly to the Nelson-Aalen estimator.
    """
    return _breslow(_Sweep(_SortedRows.of_dataset(ds), beta))


def pilot_breslow(ds: SurvivalDataset, pilot_indices: np.ndarray, beta: np.ndarray) -> CumulativeHazard:
    """Cumulative hazard estimate from a with-replacement pilot multiset.

    Repeated indices contribute repeatedly, both as events and to the
    at-risk sums.  The sweep runs over the sorted rows a
    :class:`PilotContext` keeps, so the jumps equal its ``tables_at(beta)``.
    """
    idx = np.asarray(pilot_indices)
    if idx.ndim != 1 or idx.size == 0:
        raise PilotError("pilot is empty")
    rows = _SortedRows.of_dataset(ds, subset=idx)
    if rows.n_events == 0:
        raise PilotError("pilot uninformative (no events); increase the pilot size")
    return _breslow(_Sweep(rows, beta))


@dataclass
class PilotContext:
    """Everything the second sampling stage needs from the pilot subsample.

    ``fit`` holds the pilot estimate ``fit.beta`` and its curvature
    ``fit.hessian``; ``rows`` the time-sorted pilot multiset the fit swept,
    from which :meth:`tables_at` re-evaluates the hazard and risk-set mean
    at another coefficient vector, such as the final two-step estimate.
    """

    pilot_indices: np.ndarray
    rows: _SortedRows
    fit: CoxFit
    pilot_cumhaz: CumulativeHazard
    xbar: RiskSetMean

    @classmethod
    def from_fit(cls, ds: SurvivalDataset, pilot_indices: np.ndarray, fit: CoxFit) -> "PilotContext":
        """The sorted pilot rows and their tables at the pilot estimate ``fit.beta``."""
        rows = _SortedRows.of_dataset(ds, subset=pilot_indices)
        return cls(pilot_indices, rows, fit, *_pilot_tables(rows, fit.beta))

    def tables_at(self, beta: np.ndarray) -> tuple[CumulativeHazard, RiskSetMean]:
        """Pilot hazard and risk-set mean re-evaluated at ``beta``."""
        if np.array_equal(np.asarray(beta, dtype=np.float64), self.fit.beta):
            return self.pilot_cumhaz, self.xbar
        return _pilot_tables(self.rows, beta)


def _pilot_tables(rows: _SortedRows, beta: np.ndarray) -> tuple[CumulativeHazard, RiskSetMean]:
    """Hazard and risk-set mean of the sorted pilot rows from one sweep."""
    sweep = _Sweep(rows, beta)
    return _breslow(sweep), _risk_set_mean(sweep)


def _risk(X: np.ndarray, beta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unshifted ``exp(beta'X)`` per row of ``X``: residuals need its absolute scale."""
    eta = partial_likelihood._linear_predictor(X, beta, out)
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
    accumulated over jumps up to its observed time.  The residuals are
    computed on the dataset's stored rows; without a subset they are
    computed in sweep order and gathered back into record order once, at
    the end.
    """
    ds.check_values()
    if subset is None:
        time, status, X = ds.sorted_view()
    else:
        time, status, X = ds._records
        rows = ds._stored_rows(np.asarray(subset))
        time, status, X = time[rows], status[rows], X[rows]
    risk = _risk(X, beta)
    out = np.zeros((time.size, X.shape[1]))
    events = status == 1
    if np.any(events):
        out[events] = X[events] - xbar.at(time[events])

    lam_rows, drift_rows = _hazard_rows(xbar, cumhaz)
    k = np.searchsorted(cumhaz.jump_times, time, side="right")
    out -= risk[:, None] * (X * lam_rows[k, None] - drift_rows[k])
    return out if subset is not None else out[ds.sort_rank()]


def _hazard_rows(xbar: RiskSetMean, cumhaz: CumulativeHazard) -> tuple[np.ndarray, np.ndarray]:
    """Hazard and drift ``sum xbar(t_j) dLambda_j`` over the first k jumps, k = 0..K.

    A record at time t reads row ``searchsorted(jump_times, t, side="right")``.
    """
    p = xbar.values.shape[1]
    lam_rows = np.concatenate(([0.0], cumhaz.cumulative))
    cum_mean_haz = np.cumsum(xbar.at(cumhaz.jump_times) * cumhaz.jumps[:, None], axis=0)
    drift_rows = np.concatenate((np.zeros((1, p)), cum_mean_haz), axis=0)
    return lam_rows, drift_rows


def score_residual_norms(
    ds: SurvivalDataset,
    xbar: RiskSetMean,
    cumhaz: CumulativeHazard,
    beta: np.ndarray,
    metric: np.ndarray | None = None,
) -> np.ndarray:
    """Euclidean norms of all score residuals, in record order.

    Equals ``norm(score_residuals(...), axis=1)`` up to floating-point
    reassociation, but runs over the sorted view, where the hazard, the
    drift and the risk-set mean are constant on runs of records between
    jump times and knots, takes one matrix product per run, and gathers
    the norms back to record order through the dataset's
    :meth:`~SurvivalDataset.sort_rank`, which the first call builds and
    caches; records that came in sweep order need neither.  This is the
    kernel for pilot tables, whose few steps make few long runs; it stays
    correct for tables with a step at every record (full-data tables), at
    one product per record: far slower.

    With a ``metric`` matrix ``Psi^-1``, the inverse of a positive definite
    curvature, the norms are those of ``Psi^-1`` times each residual (the
    A-optimal metric).  A residual is linear in the record's covariates,
    the drift and the risk-set mean, so these three are transformed by
    ``Psi^-1``; the risk ``exp(beta'X)`` stays on the untransformed
    covariates.
    """
    ds.check_values()
    time_s, status_s, X_s = ds.sorted_view()
    n = ds.n

    # hazard accumulated up to each record's time: constant on segments
    # between jump times
    bounds = np.concatenate(([0], np.searchsorted(time_s, cumhaz.jump_times, side="left"), [n]))
    lam_rows, drift_rows = _hazard_rows(xbar, cumhaz)
    mean_rows = xbar.values
    if metric is not None:
        drift_rows, mean_rows = drift_rows @ metric.T, mean_rows @ metric.T

    # the risk-set mean for the event terms is constant between its knots;
    # events after the last knot clamp to its value
    knot_starts = np.searchsorted(time_s, xbar.times, side="right")
    norms = _norms_blockwise(X_s, status_s, beta, metric, bounds, lam_rows, drift_rows, knot_starts, mean_rows)
    # one clamped query per event after the last knot, once the pass succeeds
    xbar.clamped_queries += int(np.count_nonzero(status_s[knot_starts[-1] :] == 1))
    if not ds._permuted:  # records stored in record order: the rank is the identity
        return norms
    # back to record order by a gather through the rank, in blocks: np.take
    # widens int32 indices to intp, and a block's copy stays in cache where
    # one of all n would be a fresh 8 MB buffer
    rank, out, block = ds.sort_rank(), np.empty(n), partial_likelihood._BLOCK_ROWS
    for a in range(0, n, block):
        np.take(norms, rank[a : a + block], out=out[a : a + block], mode="clip")
    return out


def _norms_blockwise(X_s, status_s, beta, metric, bounds, lam_rows, drift_rows, knot_starts, mean_rows):
    """Residual norms of the sorted records, block by block.

    The residual of a sorted record is ``M X c + risk*drift - status*xbar``
    with ``c = status - Lam*risk``, where ``Lam`` and ``drift`` are constant
    on hazard segments, ``xbar`` between knots, and ``M`` is the inverse
    curvature ``metric`` (the identity when it is ``None``).  The records
    are cut into runs at every segment bound, knot start and block start,
    so a run has one ``Lam``, ``drift`` and ``xbar``, and its residuals are
    one product ``W @ Z`` with ``W = [M, drift, -xbar]`` and ``Z`` the
    stacked rows ``X c``, ``risk`` and ``status``.

    Blocks of ``partial_likelihood._BLOCK_ROWS`` records are taken in turn.
    Each block builds its ``Z`` from its p-by-block view of the
    column-major ``X_s``, then takes one product per run.  The square roots
    are taken per block, while its squared norms are still in cache.
    """
    block = partial_likelihood._BLOCK_ROWS
    n, p = X_s.shape
    # sort and drop repeats: np.unique would load numpy.ma on first use
    cuts = np.sort(np.concatenate((bounds, knot_starts, np.arange(0, n, block))))
    edges = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    los, lens = edges[:-1], np.diff(edges)
    seg_ids = np.searchsorted(bounds[1:-1], los, side="right")
    knot_ids = np.minimum(np.searchsorted(knot_starts, los, side="right"), mean_rows.shape[0] - 1)
    lam_runs = lam_rows[seg_ids]
    run_cuts = np.searchsorted(los, np.arange(0, n + block, block)).tolist()
    run_edges = edges.tolist()

    # one W per run; no run crosses a block start
    W = np.empty((los.size, p, p + 2))
    W[:, :, :p] = np.eye(p) if metric is None else metric
    W[:, :, p] = drift_rows[seg_ids]
    W[:, :, p + 1] = -mean_rows[knot_ids]

    norms = np.empty(n)
    # per block: Z = [X c; risk; status] and the residuals R = W @ Z
    Z, R = np.empty((p + 2, block)), np.empty((p, block))
    for k, a in enumerate(range(0, n, block)):
        b = min(a + block, n)
        X_t, z, resid = X_s[a:b].T, Z[:, : b - a], R[:, : b - a]
        risk = _risk(X_s[a:b], beta, out=z[p])
        delta = z[p + 1]
        delta[:] = status_s[a:b]
        i, j = run_cuts[k], run_cuts[k + 1]
        c = np.repeat(lam_runs[i:j], lens[i:j])
        c *= risk
        np.subtract(delta, c, out=c)
        np.multiply(X_t, c, out=z[:p])
        for run in range(i, j):
            lo, hi = run_edges[run] - a, run_edges[run + 1] - a
            np.matmul(W[run], z[:, lo:hi], out=resid[:, lo:hi])
        np.sqrt(np.einsum("ij,ij->j", resid, resid, out=norms[a:b]), out=norms[a:b])
    return norms

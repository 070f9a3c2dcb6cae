"""Partial-likelihood machinery for right-censored proportional hazards data.

Everything here is built on one primitive, :class:`_Sweep`: a single reverse
sweep over time-sorted records accumulating suffix sums ``S0`` of
``g_i = w_i * exp(beta'X_i)`` and ``S1`` of ``g_i * X_i``, read at the first
row of each tie group.  The sweep serves the full dataset, an index subset,
or a with-replacement multiset (repeated indices) with per-row weights, so
the same code path evaluates the ordinary criterion and its
inverse-probability-weighted subsample counterpart; the Breslow hazard and
the risk-set mean in :mod:`coxsub.breslow` are ratios of the same sums.

Conventions:

- ``weights=None`` means unit weights.  A weight vector is interpreted as
  inverse-probability weights ``1/(n*pi_i)`` aligned with ``subset``.
- Moments are normalised by total weight.  For unit weights on the full
  data this is exactly the classical ``(1/n) * sum`` definition; for a
  subsample whose indices cover the full data once with uniform
  probabilities it coincides with the weighted definition exactly.
- ``exp(beta'X)`` is stabilised by subtracting the in-sweep maximum of the
  linear predictor; the shift cancels in every ratio and enters the
  criterion value only as a known constant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset, _gather_rows, _time_order
from .errors import NumericsError, SingularHessianError

# Newton stopping rule: score sup-norm, step sup-norm, iteration and halving limits
_TOL_SCORE = 1e-8
_TOL_STEP = 1e-10
_MAX_ITER = 50
_MAX_HALVINGS = 20
_NLL_SLACK = 1e-12  # relative slack when judging a step-halving candidate
# curvature trace, relative to its value at the start, below which a still
# growing |beta| is read as a monotone likelihood (separated data)
_CURVATURE_COLLAPSE = 1e-4
# rows per block of the curvature and residual-norm passes, small enough
# that each block's temporaries stay in cache
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class CoxFit:
    """A fitted coefficient vector with solver diagnostics."""

    beta: np.ndarray
    role: str  # "full_mpl" | "pilot" | "two_step"
    converged: bool
    iterations: int
    final_score_norm: float
    neg_logpl: float
    hessian: np.ndarray

    def standard_errors(self, n: int) -> np.ndarray:
        """Model-based SEs for a full-data fit: inverse curvature over n; :class:`SingularHessianError` if singular."""
        return np.sqrt(np.diag(_require_positive_definite(self.hessian, "fitted")) / n)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """First index of each run of equal values in ``a``; one pass, no sort."""
    new_run = np.empty(a.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(a[1:], a[:-1], out=new_run[1:])
    return np.flatnonzero(new_run)


class _SortedRows:
    """Time-sorted multiset of the records entering one risk-set sweep.

    ``X`` is column-major for the dataset and its subsets (see
    :func:`coxsub.data._gather_rows`), so each covariate of a block of
    sorted rows is one contiguous run.  Unit weights (no ``weights`` given)
    allocate nothing: ``w`` is a read-only zero-stride view of one 1.0.
    """

    __slots__ = (
        "time",
        "status",
        "X",
        "w",
        "m",
        "p",
        "total_weight",
        "n_ref",
        "event_rows",
        "event_weights",
        "event_scatter",
        "event_risk_start",
    )

    def __init__(self, time: np.ndarray, status: np.ndarray, X: np.ndarray, w: np.ndarray, n_ref: int):
        self.time = time
        self.status = status
        self.X = X
        self.w = w
        self.m = time.size
        self.p = X.shape[1]
        self.total_weight = float(w.sum())
        # additive constant in the criterion: n for IPW weights (the full
        # data size the probabilities refer to), the multiset size otherwise
        self.n_ref = n_ref
        ev = np.flatnonzero(status == 1)
        self.event_rows = ev
        self.event_weights = w[ev]
        scatter = np.zeros(self.m)
        scatter[ev] = self.event_weights
        self.event_scatter = scatter
        # first row of each event's tie group: its risk set is that row onwards;
        # one pass carries each group's first row forward over its ties
        group_start = np.zeros(self.m, dtype=np.intp)
        new_group = _run_starts(time)
        group_start[new_group] = new_group
        np.maximum.accumulate(group_start, out=group_start)
        self.event_risk_start = group_start[ev]

    @classmethod
    def of_dataset(
        cls, ds: SurvivalDataset, weights: np.ndarray | None = None, subset: np.ndarray | None = None
    ) -> _SortedRows:
        """The dataset, or the multiset ``subset`` of its records, with weights.

        Raises ``ValueError`` on a dataset with a broken value (see
        :meth:`SurvivalDataset.check_values`).
        """
        ds.check_values()
        if subset is None:
            time, status, X = ds.sorted_view()
            m = ds.n
        else:
            subset = np.asarray(subset)
            if subset.ndim != 1 or subset.size == 0:
                raise ValueError("subset must be a non-empty 1-D index array")
            if subset.min() < 0 or subset.max() >= ds.n:
                raise ValueError("subset indices out of range")
            order = _time_order(ds.time[subset], ds.status[subset])
            rows = subset[order]
            time, status, X = ds.time[rows], ds.status[rows], _gather_rows(ds.covariates, rows)
            m = subset.size
        if weights is None:
            return cls(time, status, X, np.broadcast_to(np.float64(1.0), (m,)), m)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,):
            raise ValueError(f"weights must have length {m}, got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and positive")
        return cls(time, status, X, w[order] if subset is not None else w[ds.sort_index], ds.n)

    @property
    def n_events(self) -> int:
        return self.event_rows.size


def _suffix_cumsum(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a[::-1], axis=0)[::-1]


def _linear_predictor(rows: _SortedRows, beta: np.ndarray) -> tuple[np.ndarray, float]:
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (rows.p,):
        raise ValueError(f"beta must have shape ({rows.p},), got {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    eta = rows.X @ beta
    if not np.all(np.isfinite(eta)):
        raise NumericsError("non-finite linear predictor; rescale covariates")
    shift = float(eta.max()) if rows.m else 0.0
    return eta, shift


class _Sweep:
    """The risk-set sweep over sorted rows at one ``beta``, computed lazily.

    ``g = w * exp(eta - max eta)``; :meth:`s0` and :meth:`means` read the
    suffix sums of ``g`` and ``g * X`` at tie-group starts, i.e. over every
    row whose time is at least the group's.  The criterion, gradient and
    curvature are built on it here, the Breslow hazard and the risk-set mean
    in :mod:`coxsub.breslow`.

    The gradient and curvature avoid per-event second-moment tables: the
    double sum over (event, at-risk record) pairs is re-ordered into a
    prefix-accumulated per-record factor, leaving a matrix-vector product
    for the gradient.  The curvature's centering term, a sum over events of
    the outer products of their risk-set means, is regrouped the same way:
    it is ``sum_j c_j S1_j S1_j'`` over rows, with the per-row weight
    ``c_j = sum_e w_e / S0_j**2`` over the events whose risk sets start at
    row ``j``.  One reverse pass over blocks of ``_BLOCK_ROWS`` rows
    (:meth:`_s1_blocks`) yields each block's running sum of ``g * X`` and
    the carry from later blocks; :meth:`means` reads the suffix sums at its
    starts and :meth:`hessian` weights every row, so no n-by-p temporary is
    formed.  On the column-major rows each block's products and running
    sums run along contiguous columns.
    """

    def __init__(self, rows: _SortedRows, beta: np.ndarray):
        self.rows = rows
        self.beta = np.asarray(beta, dtype=np.float64)
        eta, shift = _linear_predictor(rows, beta)
        self.eta = eta
        self.shift = shift
        self.g = rows.w * np.exp(eta - shift)
        self._e0 = None
        self._denoms = None
        self._ga = None

    def s0(self, starts: np.ndarray) -> np.ndarray:
        """Shifted at-risk sums ``S0`` at the given tie-group starts."""
        if self._e0 is None:
            self._e0 = _suffix_cumsum(self.g)
        d = self._e0[starts]
        if d.size and (d.min() <= 0.0 or not np.all(np.isfinite(d))):
            raise NumericsError("risk-set sum underflowed to zero; rescale covariates")
        return d

    def means(self, starts: np.ndarray) -> np.ndarray:
        """At-risk covariate means ``S1 / S0`` at ascending tie-group starts."""
        s1 = np.empty((starts.size, self.rows.p))
        hi = starts.size
        for a, b, tail, carry in self._s1_blocks():
            lo = int(np.searchsorted(starts[:hi], a, side="left"))
            s1[lo:hi] = tail[(b - 1) - starts[lo:hi]] + carry
            hi = lo
        return s1 / self.s0(starts)[:, None]

    def _s1_blocks(self):
        """Suffix sums ``S1`` of ``g * X``, block by block from the last.

        Walks blocks of ``_BLOCK_ROWS`` rows from the last to the first and
        yields ``(a, b, tail, carry)``: the block is rows ``a:b``, ``tail``
        its reversed running sum (row ``i`` of the block sits at index
        ``b - 1 - i``) and ``carry`` the sum over all later blocks, so the
        suffix sum at row ``i`` is ``tail[b - 1 - i] + carry``.
        """
        X, g = self.rows.X, self.g
        carry = np.zeros(self.rows.p)
        for a in range((self.rows.m - 1) // _BLOCK_ROWS * _BLOCK_ROWS, -1, -_BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, self.rows.m)
            tail = np.cumsum((g[a:b, None] * X[a:b])[::-1], axis=0)
            yield a, b, tail, carry
            carry = carry + tail[-1]

    def _risk_denominators(self) -> np.ndarray:
        if self._denoms is None:
            self._denoms = self.s0(self.rows.event_risk_start)
        return self._denoms

    def _prefix_factor(self) -> np.ndarray:
        """Per-record weight: sum of w_e/denom_e over events at risk of covering it."""
        if self._ga is None:
            rows = self.rows
            q = rows.event_weights / self._risk_denominators()
            per_pos = np.bincount(rows.event_risk_start, weights=q, minlength=rows.m)
            self._ga = self.g * np.cumsum(per_pos)
        return self._ga

    def nll(self) -> float:
        rows = self.rows
        ev = rows.event_rows
        if ev.size == 0:
            return 0.0
        d = self._risk_denominators()
        terms = (self.eta[ev] - self.shift) - np.log(d) - np.log(rows.n_ref / rows.total_weight)
        return float(-(rows.event_weights @ terms) / rows.total_weight)

    def score(self) -> np.ndarray:
        rows = self.rows
        if rows.n_events == 0:
            return np.zeros(rows.p)
        return -((rows.event_scatter - self._prefix_factor()) @ rows.X) / rows.total_weight

    def hessian(self) -> np.ndarray:
        """``sum_i ga_i X_i X_i' - sum_j c_j S1_j S1_j'`` over total weight.

        The centering term ``sum_e w_e xbar_e xbar_e'`` is regrouped by the
        row ``j`` where each event's risk set starts: ``xbar_e = S1_j / S0_j``
        there, so it equals ``sum_j c_j S1_j S1_j'`` with the per-row weight
        ``c_j = sum_e w_e / S0_j**2`` over the events starting at ``j`` (zero
        on other rows).  Both sums are accumulated block by block over the
        suffix sums ``S1 = tail + carry`` of :meth:`_s1_blocks`, with no
        per-event gather or division.
        """
        rows = self.rows
        if rows.n_events == 0:
            return np.zeros((rows.p, rows.p))
        ga = self._prefix_factor()
        denoms = self._risk_denominators()
        # a risk-set sum below ~1e-154 squares to zero; the weights are
        # positive, so a finite sum means finite weights
        with np.errstate(divide="ignore", over="ignore"):
            q = rows.event_weights / (denoms * denoms)
            if not np.isfinite(q.sum()):
                raise NumericsError(
                    "risk-set sum too small for the curvature; rescale covariates or check for separation"
                )
        c = np.bincount(rows.event_risk_start, weights=q, minlength=rows.m)
        moments = np.zeros((rows.p, rows.p))
        centering = np.zeros((rows.p, rows.p))
        for a, b, tail, carry in self._s1_blocks():
            Xb = rows.X[a:b]
            moments += Xb.T @ (ga[a:b, None] * Xb)
            s1 = tail + carry
            centering += s1.T @ (c[a:b][::-1, None] * s1)
        H = (moments - centering) / rows.total_weight
        return (H + H.T) / 2.0


def neg_log_partial_likelihood(
    ds: SurvivalDataset,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
) -> float:
    return _Sweep(_SortedRows.of_dataset(ds, weights, subset), beta).nll()


def score(
    ds: SurvivalDataset,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the (weighted) negative log partial likelihood."""
    return _Sweep(_SortedRows.of_dataset(ds, weights, subset), beta).score()


def hessian(
    ds: SurvivalDataset,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Curvature of the (weighted) negative log partial likelihood (PSD)."""
    return _Sweep(_SortedRows.of_dataset(ds, weights, subset), beta).hessian()


def _require_positive_definite(curvature: np.ndarray, name: str) -> np.ndarray:
    """The inverse of ``curvature``; :class:`SingularHessianError` unless it is positive definite with a finite inverse."""
    try:
        np.linalg.cholesky(curvature)
        # the factor can exist for a matrix singular to working precision; the solves after it cannot
        inverse = np.linalg.inv(curvature)
        if np.all(np.isfinite(inverse)):
            return inverse
    except np.linalg.LinAlgError:
        pass
    finite = np.all(np.isfinite(curvature))
    raise SingularHessianError(
        f"{name} curvature matrix is not positive definite; check for collinear covariates or perfect separation",
        cond=float(np.linalg.cond(curvature)) if finite else float("inf"),
    )


def newton_solve(
    ds: SurvivalDataset,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
    init: np.ndarray | None = None,
    role: str = "full_mpl",
) -> CoxFit:
    """Safeguarded Newton solve of the (weighted) estimating equation.

    Starts from ``init`` (zero when ``None``).  Stops when the sup-norm of
    the gradient falls below ``_TOL_SCORE`` or that of the step below
    ``_TOL_STEP``; a candidate step that increases the criterion is halved
    up to ``_MAX_HALVINGS`` times.  Deterministic given its inputs.  A
    singular curvature matrix raises :class:`SingularHessianError`; reaching
    ``_MAX_ITER`` iterations returns a fit flagged as non-converged.  So
    does a monotone likelihood (Heinze & Schemper, 2001), whose estimate
    diverges on separated data: it is recognised when a step grows
    ``|beta|`` and leaves the curvature's trace below
    ``_CURVATURE_COLLAPSE`` times its value at the start.
    """
    rows = _SortedRows.of_dataset(ds, weights, subset)
    if rows.n_events == 0:
        raise NumericsError("at least one event is required to fit")
    beta = np.zeros(rows.p) if init is None else np.asarray(init, dtype=np.float64).copy()
    if beta.shape != (rows.p,):
        raise ValueError(f"init must have shape ({rows.p},)")

    state = _Sweep(rows, beta)
    nll = state.nll()
    g = state.score()
    H = state.hessian()
    collapsed_trace = _CURVATURE_COLLAPSE * float(np.trace(H))
    iterations = 0
    converged = False
    while True:
        gnorm = float(np.abs(g).max())
        if gnorm <= _TOL_SCORE:
            converged = True
            break
        if iterations >= _MAX_ITER:
            warnings.warn(
                f"newton_solve: iteration limit ({_MAX_ITER}) reached before convergence", stacklevel=2
            )
            break
        _require_positive_definite(H, "Newton")
        step = np.linalg.solve(H, g)
        scale = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            cand = beta - scale * step
            cand_state = _Sweep(rows, cand)
            cand_nll = cand_state.nll()
            if np.isfinite(cand_nll) and cand_nll <= nll + _NLL_SLACK * (1.0 + abs(nll)):
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            warnings.warn("newton_solve: step halving failed to reduce the criterion", stacklevel=2)
            break
        step_norm = float(np.abs(scale * step).max())
        growing = np.linalg.norm(cand) > np.linalg.norm(beta)
        beta = cand
        state = cand_state
        nll = cand_nll
        g = state.score()
        H = state.hessian()
        iterations += 1
        if growing and np.trace(H) < collapsed_trace:
            warnings.warn(
                "newton_solve: monotone likelihood, the curvature collapsed while |beta| kept "
                "growing; the estimate diverges (separated data)",
                stacklevel=2,
            )
            break
        if step_norm <= _TOL_STEP:
            converged = float(np.abs(g).max()) <= _TOL_SCORE
            break

    return CoxFit(
        beta=beta,
        role=role,
        converged=converged,
        iterations=iterations,
        final_score_norm=float(np.abs(g).max()),
        neg_logpl=nll,
        hessian=H,
    )

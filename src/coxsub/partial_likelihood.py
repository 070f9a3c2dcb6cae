"""Partial-likelihood machinery for right-censored proportional hazards data.

Everything here is built on one primitive: a single reverse sweep over
time-sorted records accumulating suffix sums of ``w_i * exp(beta'X_i)`` and
its covariate moments.  The sweep serves the full dataset, an index subset,
or a with-replacement multiset (repeated indices) with per-row weights, so
the same code path evaluates the ordinary criterion and its
inverse-probability-weighted subsample counterpart.

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

from .data import SurvivalDataset
from .errors import NumericsError, SingularHessianError

_NLL_SLACK = 1e-12  # relative slack when judging a step-halving candidate


@dataclass(frozen=True)
class RiskSetSums:
    """Weighted at-risk covariate moments evaluated at every event time.

    ``s0[j]``, ``s1[j]`` and ``s2[j]`` are the order-0/1/2 moments of the
    risk set at the j-th distinct event time; ``tau`` is the last event
    time (the horizon of all integrals).
    """

    event_times: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    tau: float


@dataclass(frozen=True)
class SolverOptions:
    tol_score: float = 1e-8
    tol_step: float = 1e-10
    max_iter: int = 50
    step_halving_max: int = 20
    init: np.ndarray | None = None

    def __post_init__(self):
        if self.tol_score <= 0 or self.tol_step <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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
        """Model-based SEs for a full-data fit: inverse curvature over n."""
        return np.sqrt(np.diag(np.linalg.inv(self.hessian)) / n)


def _gather_rows(X: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Row gather into a C-order array, column-wise when the source is F-order."""
    out = np.empty((order.size, X.shape[1]))
    for j in range(X.shape[1]):
        out[:, j] = X[:, j][order]
    return out


class _EvalContext:
    """Sorted multiset view of the records entering one estimating equation."""

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

    def __init__(self, ds: SurvivalDataset, weights: np.ndarray | None, subset: np.ndarray | None):
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
            t_raw = ds.time[subset]
            s_raw = ds.status[subset]
            order = np.lexsort((1 - (s_raw == 1).astype(np.int8), t_raw))
            time = t_raw[order]
            status = s_raw[order]
            X = _gather_rows(ds.covariates, subset[order])
            m = subset.size
        if weights is None:
            w = np.ones(m)
            ipw = False
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (m,):
                raise ValueError(f"weights must have length {m}, got {w.shape}")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be finite and positive")
            w = w[order] if subset is not None else w[ds.sort_index]
            ipw = True
        self.time = time
        self.status = status
        self.X = X
        self.w = w
        self.m = m
        self.p = X.shape[1]
        self.total_weight = float(w.sum())
        # additive constant in the criterion: n for IPW weights (the full
        # data size the probabilities refer to), the multiset size otherwise
        self.n_ref = ds.n if ipw else m
        ev = np.flatnonzero(status == 1)
        self.event_rows = ev
        self.event_weights = w[ev]
        scatter = np.zeros(m)
        scatter[ev] = self.event_weights
        self.event_scatter = scatter
        self.event_risk_start = np.searchsorted(time, time[ev], side="left")

    @property
    def n_events(self) -> int:
        return self.event_rows.size


def _suffix_cumsum(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a[::-1], axis=0)[::-1]


def _linear_predictor(ctx: _EvalContext, beta: np.ndarray) -> tuple[np.ndarray, float]:
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (ctx.p,):
        raise ValueError(f"beta must have shape ({ctx.p},), got {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    eta = ctx.X @ beta
    if not np.all(np.isfinite(eta)):
        raise NumericsError("non-finite linear predictor; rescale covariates")
    shift = float(eta.max()) if ctx.m else 0.0
    return eta, shift


class _Evaluation:
    """Lazy per-beta sweep results shared by criterion/gradient/curvature.

    The gradient and curvature avoid per-event second-moment tables: the
    double sum over (event, at-risk record) pairs is re-ordered into a
    prefix-accumulated per-record factor, reducing everything to dense
    matrix products over the records.
    """

    def __init__(self, ctx: _EvalContext, beta: np.ndarray):
        self.ctx = ctx
        self.beta = np.asarray(beta, dtype=np.float64)
        eta, shift = _linear_predictor(ctx, beta)
        self.eta = eta
        self.shift = shift
        self.g = ctx.w * np.exp(eta - shift)
        self._e0 = None
        self._denoms = None
        self._ga = None

    @property
    def e0(self) -> np.ndarray:
        if self._e0 is None:
            self._e0 = _suffix_cumsum(self.g)
        return self._e0

    def _risk_denominators(self) -> np.ndarray:
        if self._denoms is None:
            d = self.e0[self.ctx.event_risk_start]
            if d.size and (d.min() <= 0.0 or not np.all(np.isfinite(d))):
                raise NumericsError(
                    "risk-set sum underflowed to zero at an event time; rescale covariates"
                )
            self._denoms = d
        return self._denoms

    def _prefix_factor(self) -> np.ndarray:
        """Per-record weight: sum of w_e/denom_e over events at risk of covering it."""
        if self._ga is None:
            ctx = self.ctx
            q = ctx.event_weights / self._risk_denominators()
            per_pos = np.bincount(ctx.event_risk_start, weights=q, minlength=ctx.m)
            self._ga = self.g * np.cumsum(per_pos)
        return self._ga

    def nll(self) -> float:
        ctx = self.ctx
        ev = ctx.event_rows
        if ev.size == 0:
            return 0.0
        d = self._risk_denominators()
        terms = (self.eta[ev] - self.shift) - np.log(d) - np.log(ctx.n_ref / ctx.total_weight)
        return float(-(ctx.event_weights @ terms) / ctx.total_weight)

    def score(self) -> np.ndarray:
        ctx = self.ctx
        if ctx.n_events == 0:
            return np.zeros(ctx.p)
        return -((ctx.event_scatter - self._prefix_factor()) @ ctx.X) / ctx.total_weight

    def hessian(self) -> np.ndarray:
        ctx = self.ctx
        if ctx.n_events == 0:
            return np.zeros((ctx.p, ctx.p))
        ga = self._prefix_factor()
        moments = ctx.X.T @ (ga[:, None] * ctx.X)
        d = self._risk_denominators()
        e1 = _suffix_cumsum(self.g[:, None] * ctx.X)
        xbar = e1[ctx.event_risk_start] / d[:, None]
        centering = xbar.T @ (ctx.event_weights[:, None] * xbar)
        H = (moments - centering) / ctx.total_weight
        return (H + H.T) / 2.0


def risk_set_sums(
    ds: SurvivalDataset,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
) -> RiskSetSums:
    """Evaluate the at-risk covariate moments at every distinct event time.

    Raises :class:`NumericsError` when ``exp(beta'X)`` cannot be represented
    even after stabilisation (the moments themselves overflow).
    """
    ctx = _EvalContext(ds, weights, subset)
    state = _Evaluation(ctx, beta)
    event_times = np.unique(ctx.time[ctx.event_rows])
    pos = np.searchsorted(ctx.time, event_times, side="left")
    W = ctx.total_weight
    iu0, iu1 = np.triu_indices(ctx.p)
    e1 = _suffix_cumsum(state.g[:, None] * ctx.X)
    e2 = _suffix_cumsum(state.g[:, None] * (ctx.X[:, iu0] * ctx.X[:, iu1]))
    try:
        with np.errstate(over="raise"):
            scale = np.exp(state.shift) / W
            s0 = state.e0[pos] * scale
            s1 = e1[pos] * scale
            packed = e2[pos] * scale
    except FloatingPointError:
        raise NumericsError("exp(beta'X) overflows; rescale covariates") from None
    d = event_times.size
    s2 = np.zeros((d, ctx.p, ctx.p))
    s2[:, iu0, iu1] = packed
    s2[:, iu1, iu0] = packed
    tau = float(event_times[-1]) if d else 0.0
    return RiskSetSums(event_times=event_times, s0=s0, s1=s1, s2=s2, tau=tau)


def neg_log_partial_likelihood(
    ds: SurvivalDataset,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
) -> float:
    return _Evaluation(_EvalContext(ds, weights, subset), beta).nll()


def score(
    ds: SurvivalDataset,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the (weighted) negative log partial likelihood."""
    return _Evaluation(_EvalContext(ds, weights, subset), beta).score()


def hessian(
    ds: SurvivalDataset,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Curvature of the (weighted) negative log partial likelihood (PSD)."""
    return _Evaluation(_EvalContext(ds, weights, subset), beta).hessian()


def _solve_newton_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        np.linalg.cholesky(H)
        step = np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        step = None
    if step is None or not np.all(np.isfinite(step)):
        cond = float(np.linalg.cond(H)) if np.all(np.isfinite(H)) else float("inf")
        raise SingularHessianError(
            "curvature matrix is not positive definite; "
            "check for collinear covariates or perfect separation",
            cond=cond,
        )
    return step


def newton_solve(
    ds: SurvivalDataset,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
    opts: SolverOptions | None = None,
    role: str = "full_mpl",
) -> CoxFit:
    """Safeguarded Newton solve of the (weighted) estimating equation.

    Stops when the sup-norm of the gradient falls below ``tol_score`` or the
    step falls below ``tol_step``; a candidate step that increases the
    criterion is halved up to ``step_halving_max`` times.  Deterministic
    given its inputs.  A singular curvature matrix raises
    :class:`SingularHessianError`; exceeding ``max_iter`` returns a fit
    flagged as non-converged.
    """
    opts = opts or SolverOptions()
    ctx = _EvalContext(ds, weights, subset)
    if ctx.n_events == 0:
        raise NumericsError("at least one event is required to fit")
    beta = np.zeros(ctx.p) if opts.init is None else np.asarray(opts.init, dtype=np.float64).copy()
    if beta.shape != (ctx.p,):
        raise ValueError(f"init must have shape ({ctx.p},)")

    state = _Evaluation(ctx, beta)
    nll = state.nll()
    g = state.score()
    iterations = 0
    converged = False
    while True:
        gnorm = float(np.abs(g).max())
        if gnorm <= opts.tol_score:
            converged = True
            break
        if iterations >= opts.max_iter:
            warnings.warn("newton_solve: max_iter reached before convergence", stacklevel=2)
            break
        step = _solve_newton_step(state.hessian(), g)
        scale = 1.0
        accepted = False
        for _ in range(opts.step_halving_max + 1):
            cand = beta - scale * step
            cand_state = _Evaluation(ctx, cand)
            cand_nll = cand_state.nll()
            if np.isfinite(cand_nll) and cand_nll <= nll + _NLL_SLACK * (1.0 + abs(nll)):
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            warnings.warn("newton_solve: step halving failed to reduce the criterion", stacklevel=2)
            break
        step_norm = float(np.abs(scale * step).max())
        beta = cand
        state = cand_state
        nll = cand_nll
        g = state.score()
        iterations += 1
        if step_norm <= opts.tol_step:
            converged = float(np.abs(g).max()) <= opts.tol_score
            break

    return CoxFit(
        beta=beta,
        role=role,
        converged=converged,
        iterations=iterations,
        final_score_norm=float(np.abs(g).max()),
        neg_logpl=nll,
        hessian=state.hessian(),
    )

"""Subsampling plans, weighted draws, and the two-step estimator.

The selection probabilities are driven by per-record martingale score
residual norms: records whose residuals are large carry more information
about the coefficients and are sampled more often.  The plans build the
residuals from pilot-subsample tables only; the full-data (oracle) plans
of the optimality tests live with the tests.
"""

from __future__ import annotations

import os
import time as _time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .breslow import PilotContext, score_residual_norms, score_residuals
from .breslow import pilot_breslow  # noqa: F401  the benchmark's traced mode patches this name here
from .data import SurvivalDataset, _adopt, _frozen, _write_columns
from .errors import CoxSubError, NumericsError, PilotError, TwoStepError
from .partial_likelihood import CoxFit, _require_positive_definite, newton_solve

_SUM_TOL = 1e-12
_FLOOR_TOL = 1e-15


@dataclass(frozen=True)
class SubsamplePlan:
    """Selection probabilities over the records and their uniform-mixing rate.

    ``delta`` is the uniform-mixing rate: 0 is a pure residual-driven plan,
    1 is pure uniform.  Mixed plans have every probability floored at
    ``delta/n`` so importance weights stay bounded.  ``probs`` is stored
    as float64 by :func:`coxsub.data._adopt`.
    """

    probs: np.ndarray
    delta: float

    def __post_init__(self):
        probs = _adopt(self.probs, np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        # every check reads one sum and one minimum: a finite sum means
        # finite entries, and a NaN entry makes the minimum NaN; an
        # overflowing or inf-minus-inf sum is caught here, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            total, low = float(probs.sum()), float(probs.min())
            if not (np.isfinite(total) and low >= 0.0):
                if not np.all(np.isfinite(probs)) or low < 0.0:
                    raise ValueError("probabilities must be finite and nonnegative")
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if low < self.delta / probs.size - _FLOOR_TOL:
            raise ValueError("mixed plan violates the delta/n probability floor")
        if self.delta > 0 and low <= 0.0:
            raise ValueError("mixed plans must have strictly positive probabilities")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.size

    def write_csv(self, path: str | os.PathLike, status: np.ndarray | None = None) -> None:
        """Export per-record probabilities (optionally with event status)."""
        header = ["index", "prob"]
        columns = [(np.arange(self.n), int), (self.probs, float)]
        if status is not None:
            header.append("status")
            columns.append((status, int))
        _write_columns(path, header, columns)


@dataclass(frozen=True)
class Subsample:
    """Drawn record indices (with replacement) and their importance weights ``1/(n*pi)``."""

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        idx = _adopt(self.indices)
        w = _adopt(self.weights, np.float64)
        if idx.shape != w.shape or idx.ndim != 1:
            raise ValueError("indices and weights must be matching 1-D arrays")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"indices must be integers, got {idx.dtype}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and positive")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sandwich covariance of the two-step estimate, subsample-only.

    ``covariance = inv(curvature) @ score_outer @ inv(curvature)`` where
    ``curvature`` is the inverse-probability-weighted at-risk curvature and
    ``score_outer`` the weighted outer product of the per-draw residuals.
    """

    curvature: np.ndarray
    score_outer: np.ndarray
    covariance: np.ndarray
    standard_errors: np.ndarray


@dataclass(frozen=True)
class TwoStepResult:
    """A finished two-step run: every step's output and each phase's wall time."""

    pilot: PilotContext
    plan: SubsamplePlan
    subsample: Subsample
    fit: CoxFit
    covariance: CovarianceEstimate
    timings: dict


def uniform_plan(n: int) -> SubsamplePlan:
    return SubsamplePlan(probs=_frozen(np.full(n, 1.0 / n))[0], delta=1.0)


def draw_uniform(ds: SurvivalDataset, r0: int, rng: np.random.Generator) -> Subsample:
    """Uniform with-replacement draw; importance weights are identically 1."""
    if r0 < 1:
        raise ValueError("subsample size must be at least 1")
    indices = rng.integers(0, ds.n, size=r0)
    return Subsample(indices=indices, weights=np.ones(r0))


def fit_pilot(ds: SurvivalDataset, pilot: Subsample) -> PilotContext:
    """Fit the pilot estimating equation and precompute the pilot tables.

    The pilot solve is the plain (unit-weight) partial likelihood on the
    pilot multiset; its curvature matrix doubles as the pilot information
    matrix used by the A-optimal probabilities.
    """
    idx = pilot.indices
    if not np.any(ds.records_at(idx)[1] == 1):
        raise PilotError("pilot uninformative (no events); increase the pilot size")
    try:
        fit = newton_solve(ds, weights=None, subset=idx, role="pilot")
    except NumericsError as exc:
        raise PilotError(f"pilot fit failed ({exc}); increase the pilot size") from exc
    return PilotContext.from_fit(ds, idx, fit)


def _mixed_plan(norms: np.ndarray, delta: float) -> SubsamplePlan:
    """``(1 - delta) * norms / sum(norms) + delta / n``, computed in place.

    ``norms`` (a float64 array the caller hands over) becomes the plan's
    frozen probability vector.
    """
    n = norms.size
    total = norms.sum()
    if total <= 0.0:
        warnings.warn(
            "all residual norms are zero; falling back to uniform probabilities", stacklevel=3
        )
        norms.fill(1.0 / n)
    else:
        norms /= total
    norms *= 1.0 - delta
    norms += delta / n
    return SubsamplePlan(probs=_frozen(norms)[0], delta=delta)


def compute_lopt_probs(ds: SurvivalDataset, ctx: PilotContext, delta: float) -> SubsamplePlan:
    """L-optimal plan approximated through the pilot tables, mixed with uniform."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    norms = score_residual_norms(ds, ctx.xbar, ctx.pilot_cumhaz, ctx.fit.beta)
    return _mixed_plan(norms, delta)


def compute_aopt_probs(ds: SurvivalDataset, ctx: PilotContext, delta: float) -> SubsamplePlan:
    """A-optimal plan: residual norms in the metric of the inverse pilot curvature."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    metric = _require_positive_definite(ctx.fit.hessian, "pilot", ctx.fit.moments)
    norms = score_residual_norms(ds, ctx.xbar, ctx.pilot_cumhaz, ctx.fit.beta, metric)
    return _mixed_plan(norms, delta)


def draw_weighted(plan: SubsamplePlan, r: int, rng: np.random.Generator) -> Subsample:
    """Draw ``r`` indices i.i.d. from the plan via inverse-CDF sampling.

    The cumulative table costs O(n) once and each draw is a binary search;
    importance weights are ``1/(n*pi)`` for the drawn records.
    """
    if r < 1:
        raise ValueError("subsample size must be at least 1")
    cdf = np.cumsum(plan.probs)
    indices = np.searchsorted(cdf, rng.random(r) * cdf[-1], side="right")
    indices = np.minimum(indices, plan.n - 1)
    weights = 1.0 / (plan.n * plan.probs[indices])
    return Subsample(indices=indices, weights=weights)


def weighted_fit(ds: SurvivalDataset, sub: Subsample, init: np.ndarray | None = None) -> CoxFit:
    """Solve the inverse-probability-weighted estimating equation on a subsample.

    Risk sets are formed within the subsample multiset only; the weights
    make the weighted score conditionally unbiased for the full-data one.
    Newton starts from ``init`` (zero when ``None``).
    """
    if sub.size < 2:
        raise NumericsError("subsample too small: no risk-set variation with fewer than 2 draws")
    return newton_solve(ds, weights=sub.weights, subset=sub.indices, init=init, role="two_step")


def estimate_covariance(
    ds: SurvivalDataset, ctx: PilotContext, sub: Subsample, fit: CoxFit
) -> CovarianceEstimate:
    """Subsample-only sandwich covariance of the two-step estimate.

    The middle term integrates each drawn record against the pilot hazard
    and pilot risk-set mean re-evaluated at the final estimate; the outer
    terms invert the weighted curvature at the solution.
    """
    if not fit.converged:
        raise ValueError("covariance requires a converged fit")
    r = sub.size
    cumhaz, xbar = ctx.tables_at(fit.beta)
    resids = score_residuals(ds, xbar, cumhaz, fit.beta, subset=sub.indices)
    scaled = sub.weights[:, None] * resids
    score_outer = (scaled.T @ scaled) / r**2
    # per-draw curvature: explicit 1/r normalisation against the count, so
    # halving every probability doubles it (and quadruples score_outer)
    curvature = fit.hessian * (sub.weights.sum() / r)
    _require_positive_definite(curvature, "weighted")
    covariance = np.linalg.solve(curvature, np.linalg.solve(curvature, score_outer).T)
    covariance = (covariance + covariance.T) / 2.0
    return CovarianceEstimate(
        curvature=curvature,
        score_outer=score_outer,
        covariance=covariance,
        standard_errors=np.sqrt(np.maximum(np.diag(covariance), 0.0)),
    )


@contextmanager
def _phase(timings: dict, name: str):
    """Time the block into ``timings[name]``, failing or not; a coxsub error leaves as ``TwoStepError(name, ...)``."""
    t0 = _time.perf_counter()
    try:
        yield
    except TwoStepError:
        raise
    except CoxSubError as exc:
        raise TwoStepError(name, str(exc)) from exc
    finally:
        timings[name] = _time.perf_counter() - t0


def two_step(
    ds: SurvivalDataset,
    r0: int,
    r: int,
    delta: float,
    criterion: str,
    rng: np.random.Generator,
) -> TwoStepResult:
    """Run the full two-step procedure: pilot, plan, draw, fit, covariance.

    ``criterion`` is one of ``"lopt"``, ``"aopt"`` or ``"unif"``.  The pilot
    subsample never enters the second-stage estimating equation except
    through the pilot estimate and its hazard/risk-set tables.  A dataset
    with a broken value raises ``ValueError`` before anything is drawn (see
    :meth:`SurvivalDataset.check_values`).  The pilot fit starts from zero,
    the second fit from the pilot estimate.  A step that cannot finish
    raises :class:`TwoStepError` naming its phase and the reason: a pilot
    or weighted fit that does not converge, or a sandwich variance that
    is zero or not finite.
    """
    crit = criterion.lower()
    if crit not in ("lopt", "aopt", "unif"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    ds.check_values()
    timings: dict = {}
    with _phase(timings, "pilot_fit"):
        pilot_sub = draw_uniform(ds, r0, rng)
        ctx = fit_pilot(ds, pilot_sub)
    with _phase(timings, "probability_pass"):
        if crit == "lopt":
            plan = compute_lopt_probs(ds, ctx, delta)
        elif crit == "aopt":
            plan = compute_aopt_probs(ds, ctx, delta)
        else:
            plan = uniform_plan(ds.n)
    with _phase(timings, "draw"):
        sub = draw_weighted(plan, r, rng)
    with _phase(timings, "second_fit"):
        fit = weighted_fit(ds, sub, init=ctx.fit.beta)
    with _phase(timings, "covariance"):
        covariance = estimate_covariance(ds, ctx, sub, fit)
        # zero where every drawn residual vanishes along some direction, as on separated data
        se = covariance.standard_errors
        if not np.all((se > 0.0) & np.isfinite(se)):
            raise NumericsError("sandwich variance is not positive and finite; check for separation")
    return TwoStepResult(
        pilot=ctx, plan=plan, subsample=sub, fit=fit, covariance=covariance, timings=timings
    )

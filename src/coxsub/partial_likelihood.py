"""Partial-likelihood machinery for right-censored proportional hazards data.

Everything here is built on one primitive, :class:`_Sweep`: a single reverse
sweep over time-sorted records accumulating suffix sums ``S0`` of
``g_i = w_i * exp(beta'X_i)`` and ``S1`` of ``g_i * X_i``, read at the first
row of each tie group.  The sweep serves the full dataset, an index subset,
or a with-replacement multiset (repeated indices) with per-row weights, so
the same code path evaluates the ordinary criterion and its
inverse-probability-weighted subsample counterpart; the Breslow hazard and
the risk-set mean in :mod:`coxsub.breslow` are ratios of the same sums.
The full-data rows a sweep reads are built once per dataset and cached on
it, so fits, hazards and evaluations of one dataset share one build.

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

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset, _adopt, _frozen, _gather_rows, _time_order
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
# smallest eigenvalue of a converged curvature, with each covariate scaled to
# a unit uncentred second moment, below which it is singular to working precision
_SINGULAR_FLOOR = 1e-12


@dataclass(frozen=True)
class CoxFit:
    """A fitted coefficient vector with solver diagnostics; its arrays are stored by :func:`coxsub.data._adopt`."""

    beta: np.ndarray
    role: str  # "full_mpl" | "pilot" | "two_step"
    converged: bool
    iterations: int
    final_score_norm: float
    neg_logpl: float
    hessian: np.ndarray
    # the uncentred moments term the curvature was formed from; a fit built
    # by hand may leave it out, and its curvature is then judged absolutely
    moments: np.ndarray | None = None

    def __post_init__(self):
        for name in ("beta", "hessian", "moments"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, _adopt(value, np.float64))

    def standard_errors(self, n: int) -> np.ndarray:
        """Model-based SEs for a full-data fit: inverse curvature over n; :class:`SingularHessianError` if singular."""
        return np.sqrt(np.diag(_require_positive_definite(self.hessian, "fitted", self.moments)) / n)


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
    allocate nothing: ``w`` and ``event_weights`` are read-only zero-stride
    views of one 1.0.
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
        "n_events",
        "event_weights",
        "event_risk_start",
    )

    def __init__(self, time: np.ndarray, status: np.ndarray, X: np.ndarray, w=None, n_ref: int | None = None):
        self.time = time
        self.status = status
        self.X = X
        self.m = time.size
        self.p = X.shape[1]
        w = self.w = np.broadcast_to(np.float64(1.0), (self.m,)) if w is None else w
        self.total_weight = float(w.sum())
        # additive constant in the criterion: n for IPW weights (the full
        # data size the probabilities refer to), the multiset size otherwise
        self.n_ref = self.m if n_ref is None else n_ref
        is_event = status == 1
        # first row of each event's tie group: its risk set is that row onwards;
        # one pass carries each group's first row forward over its ties
        group_start = np.zeros(self.m, dtype=np.intp)
        new_group = _run_starts(time)
        group_start[new_group] = new_group
        np.maximum.accumulate(group_start, out=group_start)
        self.event_risk_start = _frozen(group_start[is_event])[0]
        self.n_events = self.event_risk_start.size
        self.event_weights = w[is_event] if w.strides[0] else w[: self.n_events]

    @classmethod
    def of_dataset(
        cls, ds: SurvivalDataset, weights: np.ndarray | None = None, subset: np.ndarray | None = None
    ) -> _SortedRows:
        """The dataset, or the multiset ``subset`` of its records, with weights.

        The unit-weight full-data rows are built once per dataset and
        cached on it; weighted and subset rows are built per call.  Raises
        ``ValueError`` on a dataset with a broken value (see
        :meth:`SurvivalDataset.check_values`).
        """
        ds.check_values()
        if subset is None:
            time, status, X = ds.sorted_view()
            m = ds.n
            if weights is None:
                return ds._cached("_sweep_rows", lambda: cls(time, status, X))
        else:
            subset = np.asarray(subset)
            if subset.ndim != 1 or subset.size == 0 or not np.issubdtype(subset.dtype, np.integer):
                raise ValueError("subset must be a non-empty 1-D integer index array")
            if subset.min() < 0 or subset.max() >= ds.n:
                raise ValueError("subset indices out of range")
            # the records' stored rows, put in sweep order by their own values,
            # so tied records keep their order in ``subset``; a dataset that
            # is not yet swept stays unsorted
            time, status, X = ds._records
            rows = ds._stored_rows(subset)
            order = _time_order(time[rows], status[rows])
            rows = rows[order]
            time, status, X = time[rows], status[rows], _gather_rows(X, rows)
            m = subset.size
        if weights is None:
            return cls(time, status, X)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,):
            raise ValueError(f"weights must have length {m}, got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and positive")
        return cls(time, status, X, w[order] if subset is not None else w[ds.sort_index], ds.n)


def _linear_predictor(X: np.ndarray, beta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``X @ beta`` per row of ``X``, into ``out`` when given.

    ``ValueError`` unless ``beta`` is p finite values; :class:`NumericsError`
    when a finite ``beta`` still gives a non-finite value.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (X.shape[1],):
        raise ValueError(f"beta must have shape ({X.shape[1]},), got {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    # a finite sum means finite entries; only a non-finite one needs the scan.
    # An overflow in the product or the sum is reported here, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        eta = np.matmul(X, beta, out=out)
        if not np.isfinite(eta.sum()) and not np.all(np.isfinite(eta)):
            raise NumericsError("non-finite linear predictor; rescale covariates")
    return eta


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
    starts and :meth:`curvature` weights every row, so no n-by-p temporary
    is formed.  On the column-major rows each block's products and running
    sums run along contiguous columns.

    Every n- or event-length array of the sweep is computed in place in one
    of five named buffers, created on first use: ``g``, ``e0`` and ``ga``
    of n rows, ``eta_events`` and ``denoms`` of one row per event.  ``g``
    is written over the linear predictor, whose values are kept only at
    the events, which is all :meth:`nll` reads; :meth:`nll` turns them
    into its terms in place, and from then on ``eta_events`` is the
    event-length scratch.  :meth:`score` writes its per-row factor over the
    suffix sums ``e0`` once the risk-set denominators are read from them;
    a later :meth:`s0` sums ``g`` again.  :func:`newton_solve` passes the
    buffers of one sweep to the next over the same rows (:meth:`release`),
    so a fit holds one sweep's arrays at a time.  A sweep's arrays stay
    valid until it is released; a released sweep must not be read.
    """

    def __init__(self, rows: _SortedRows, beta: np.ndarray, buffers: dict | None = None):
        self.rows = rows
        self.beta = np.asarray(beta, dtype=np.float64)
        self._buffers = {} if buffers is None else buffers
        lp = _linear_predictor(rows.X, beta, self._buffer("g", rows.m))
        shift = self.shift = float(lp.max()) if rows.m else 0.0
        np.subtract(lp, shift, out=lp)
        # eta - shift at the events, in row order, one block's mask at a time:
        # no n-length mask or per-event row index is formed
        eta_events = self._eta_events = self._buffer("eta_events", rows.n_events)
        k = 0
        for a in range(0, rows.m, _BLOCK_ROWS):
            is_event = rows.status[a : a + _BLOCK_ROWS] == 1
            size = int(np.count_nonzero(is_event))
            np.compress(is_event, lp[a : a + _BLOCK_ROWS], out=eta_events[k : k + size])
            k += size
        # g over the linear predictor; unit weights (zero-stride) would
        # multiply exp(eta - max eta), which lies in [0, 1], by 1.0
        self.g = np.exp(lp, out=lp)
        if rows.w.strides[0]:
            np.multiply(rows.w, self.g, out=self.g)
        self._nll = None
        self._e0 = None
        self._denoms = None
        self._ga = None

    def _buffer(self, name: str, size: int) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None:
            buf = self._buffers[name] = np.empty(size)
        return buf

    def release(self) -> dict:
        """This sweep's buffers, for the next sweep over the same rows; the sweep is unusable after."""
        buffers = self._buffers
        self._buffers = self.g = self._eta_events = self._e0 = self._denoms = self._ga = self._nll = None
        return buffers

    def s0(self, starts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Shifted at-risk sums ``S0`` at the given tie-group starts."""
        if self._e0 is None:
            e0 = self._buffer("e0", self.rows.m)
            np.cumsum(self.g[::-1], out=e0[::-1])
            self._e0 = e0
        # starts index rows, so clipping never moves one; it spares take a buffered copy
        d = np.take(self._e0, starts, out=out, mode="clip")
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
            rows = self.rows
            self._denoms = self.s0(rows.event_risk_start, out=self._buffer("denoms", rows.n_events))
        return self._denoms

    def _scratch(self) -> np.ndarray:
        """The event-length scratch: the spent linear predictor at the events, once :meth:`nll` has read it."""
        self.nll()
        return self._eta_events

    def _prefix_factor(self) -> np.ndarray:
        """Per-record weight: sum of w_e/denom_e over events at risk of covering it."""
        if self._ga is None:
            rows = self.rows
            q = np.divide(rows.event_weights, self._risk_denominators(), out=self._scratch())
            # add.at sums each row's events in event order, as bincount would
            ga = self._buffer("ga", rows.m)
            ga.fill(0.0)
            np.add.at(ga, rows.event_risk_start, q)
            np.cumsum(ga, out=ga)
            self._ga = np.multiply(self.g, ga, out=ga)
        return self._ga

    def nll(self) -> float:
        """The criterion, computed once: the linear predictor at the events becomes its terms."""
        if self._nll is None:
            self._nll = self._criterion()
        return self._nll

    def _criterion(self) -> float:
        rows = self.rows
        if rows.n_events == 0:
            return 0.0
        d = self._risk_denominators()
        terms = self._eta_events
        log_ratio = np.log(rows.n_ref / rows.total_weight)
        log_d = np.empty(min(_BLOCK_ROWS, rows.n_events))
        for a in range(0, rows.n_events, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, rows.n_events)
            t = terms[a:b]
            np.subtract(t, np.log(d[a:b], out=log_d[: b - a]), out=t)
            np.subtract(t, log_ratio, out=t)
            np.multiply(rows.event_weights[a:b], t, out=t)
        # a pairwise sum, where a BLAS dot product's order would follow its thread count
        return float(-np.add.reduce(terms) / rows.total_weight)

    def score(self) -> np.ndarray:
        rows = self.rows
        if rows.n_events == 0:
            return np.zeros(rows.p)
        ga = self._prefix_factor()
        # events minus the prefix factor, written over the suffix sums, which
        # the denominators have been read from: a later s0 sums g again
        v = np.multiply(rows.w, rows.status, out=self._buffer("e0", rows.m))
        self._e0 = None
        np.subtract(v, ga, out=v)
        return -(v @ rows.X) / rows.total_weight

    def curvature(self) -> tuple[np.ndarray, np.ndarray]:
        """``sum_i ga_i X_i X_i' - sum_j c_j S1_j S1_j'`` and its first term, over total weight.

        The first term is the uncentred moments term, the scale against
        which the curvature's smallest eigenvalue is judged
        (:func:`_require_positive_definite`).  The centering term
        ``sum_e w_e xbar_e xbar_e'`` is regrouped by the row ``j`` where each
        event's risk set starts: ``xbar_e = S1_j / S0_j`` there, so it equals
        ``sum_j c_j S1_j S1_j'`` with the per-row weight
        ``c_j = sum_e w_e / S0_j**2`` over the events starting at ``j`` (zero
        on other rows).  Both sums are accumulated block by block over the
        suffix sums ``S1 = tail + carry`` of :meth:`_s1_blocks`; a block's
        ``c`` is binned from its own slice of the sorted
        ``event_risk_start``, with no per-event gather or division.
        """
        rows = self.rows
        if rows.n_events == 0:
            return np.zeros((rows.p, rows.p)), np.zeros((rows.p, rows.p))
        ga = self._prefix_factor()
        denoms = self._risk_denominators()
        starts = rows.event_risk_start
        # a risk-set sum below ~1e-154 squares to zero; the weights are
        # positive, so a finite sum means finite weights
        with np.errstate(divide="ignore", over="ignore"):
            q = np.multiply(denoms, denoms, out=self._scratch())
            np.divide(rows.event_weights, q, out=q)
            if not np.isfinite(q.sum()):
                raise NumericsError(
                    "risk-set sum too small for the curvature; rescale covariates or check for separation"
                )
        moments = np.zeros((rows.p, rows.p))
        centering = np.zeros((rows.p, rows.p))
        for a, b, tail, carry in self._s1_blocks():
            Xb = rows.X[a:b]
            moments += Xb.T @ (ga[a:b, None] * Xb)
            lo, hi = np.searchsorted(starts, (a, b))
            c = np.bincount(starts[lo:hi] - a, weights=q[lo:hi], minlength=b - a)
            s1 = tail + carry
            centering += s1.T @ (c[::-1, None] * s1)
        H = (moments - centering) / rows.total_weight
        return (H + H.T) / 2.0, moments / rows.total_weight


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
    return _Sweep(_SortedRows.of_dataset(ds, weights, subset), beta).curvature()[0]


def _require_positive_definite(
    curvature: np.ndarray, name: str, moments: np.ndarray | None = None
) -> np.ndarray:
    """The inverse of ``curvature``; :class:`SingularHessianError` unless it is positive definite with a finite inverse.

    Given ``moments``, the uncentred moments term the curvature was formed
    from (:meth:`_Sweep.curvature`), the curvature must also be positive
    definite to working precision: with every covariate scaled to a unit
    second moment, its smallest eigenvalue must reach ``_SINGULAR_FLOOR``.
    Below that it is what is left when two nearly equal terms cancel.  A
    covariate with no second moment keeps its own scale.  The error names
    the smallest eigenvalue of the matrix judged and the floor it missed.
    """
    judged, floor = curvature, 0.0
    if moments is not None:
        scale = np.sqrt(np.diag(moments))
        scale[scale == 0.0] = 1.0
        judged, floor = curvature / np.outer(scale, scale), _SINGULAR_FLOOR
    try:
        np.linalg.cholesky(curvature)
        # the factor can exist for a matrix singular to working precision; the solves after it cannot
        inverse = np.linalg.inv(curvature)
        if np.all(np.isfinite(inverse)) and (moments is None or np.linalg.eigvalsh(judged)[0] >= floor):
            return inverse
    except np.linalg.LinAlgError:
        pass
    finite = bool(np.all(np.isfinite(curvature)))
    raise SingularHessianError(
        f"{name} curvature matrix is not positive definite{' to working precision' if floor else ''}; "
        "check for collinear or constant covariates or perfect separation",
        cond=float(np.linalg.cond(curvature)) if finite else float("inf"),
        smallest_eigenvalue=float(np.linalg.eigvalsh(judged)[0]) if finite and curvature.size else None,
        floor=floor,
    )


def newton_solve(
    ds: SurvivalDataset,
    weights: np.ndarray | None = None,
    subset: np.ndarray | None = None,
    init: np.ndarray | None = None,
    role: str = "full_mpl",
) -> CoxFit:
    """Safeguarded Newton solve of the (weighted) estimating equation.

    Starts from ``init`` (zero when ``None``) and returns only a converged
    fit, one whose gradient sup-norm is at most ``_TOL_SCORE``.  A step that
    increases the criterion is halved up to ``_MAX_HALVINGS`` times.
    Deterministic given its inputs.  A singular curvature matrix raises
    :class:`SingularHessianError`, and so does a converged fit whose
    curvature is singular to working precision
    (:func:`_require_positive_definite`), such as one with a constant
    covariate.  Two converged fits are exempt: a criterion that does not
    depend on ``beta`` at all (every covariate zero) returns ``init``, and a
    ``"pilot"`` fit is judged by the plan that uses its curvature.

    Every other stop raises :class:`NumericsError` naming the iterations,
    the gradient sup-norm and the reason: the ``_MAX_ITER`` limit, step
    halving that fails, a step below ``_TOL_STEP`` before the gradient
    converged, or a monotone likelihood (Heinze & Schemper, 2001), whose
    estimate diverges on separated data: a step grows ``|beta|`` and leaves
    the curvature's trace below ``_CURVATURE_COLLAPSE`` times its start.

    The fit holds one sweep's arrays at a time: once a point's criterion,
    score and curvature are read, or a candidate step is rejected, its
    sweep is released and the next sweep computes in the same buffers.
    """
    rows = _fit_rows(ds, weights, subset)
    beta = np.zeros(rows.p) if init is None else np.asarray(init, dtype=np.float64).copy()

    state = _Sweep(rows, beta)
    nll = state.nll()
    g, H, moments, buffers = _derivatives(state)
    collapsed_trace = _CURVATURE_COLLAPSE * float(np.trace(H))
    iterations, step_norm = 0, np.inf
    while float(np.abs(g).max()) > _TOL_SCORE:
        if step_norm <= _TOL_STEP:
            raise _not_converged(iterations, g, f"step below tolerance ({_TOL_STEP:g}) before the score converged")
        if iterations >= _MAX_ITER:
            raise _not_converged(iterations, g, f"iteration limit ({_MAX_ITER}) reached")
        _require_positive_definite(H, "Newton")
        step = np.linalg.solve(H, g)
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = beta - scale * step
            state = _Sweep(rows, cand, buffers)
            cand_nll = state.nll()
            if np.isfinite(cand_nll) and cand_nll <= nll + _NLL_SLACK * (1.0 + abs(nll)):
                break
            buffers = state.release()
            scale *= 0.5
        else:
            raise _not_converged(iterations, g, "step halving failed to lower the criterion")
        step_norm = float(np.abs(scale * step).max())
        growing = np.linalg.norm(cand) > np.linalg.norm(beta)
        beta = cand
        nll = cand_nll
        g, H, moments, buffers = _derivatives(state)
        iterations += 1
        if growing and np.trace(H) < collapsed_trace:
            raise _not_converged(iterations, g, "monotone likelihood, the curvature collapsed while |beta| kept "
                                 "growing; the estimate diverges (separated data)")
    return _fit_result(beta, role, iterations, nll, g, H, moments)


def _not_converged(iterations: int, g: np.ndarray, reason: str) -> NumericsError:
    """The error of a Newton solve stopped short of convergence at score ``g``, naming why."""
    score_norm = float(np.abs(g).max())
    return NumericsError(f"did not converge after {iterations} iterations (score sup-norm {score_norm:.3e}): {reason}")


def _fit_rows(ds: SurvivalDataset, weights=None, subset=None) -> _SortedRows:
    """The rows a fit sweeps; :class:`NumericsError` unless they hold an event."""
    rows = _SortedRows.of_dataset(ds, weights, subset)
    if rows.n_events == 0:
        raise NumericsError("at least one event is required to fit")
    return rows


def _derivatives(state: _Sweep) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """The sweep's score, curvature and moments term, and its buffers: the sweep is released."""
    g = state.score()
    H, moments = state.curvature()
    return g, H, moments, state.release()


def _fit_result(beta, role, iterations, nll, g, H, moments) -> CoxFit:
    """The converged fit at ``beta``; it must pass :func:`newton_solve`'s working-precision rule."""
    if role != "pilot" and np.trace(moments) > 0.0:
        _require_positive_definite(H, "fitted", moments)
    return CoxFit(beta, role, True, iterations, float(np.abs(g).max()), nll, H, moments)


def _fit_at(ds: SurvivalDataset, beta: np.ndarray) -> CoxFit:
    """The full-data fit at a fixed ``beta`` from one sweep, judged as a converged :func:`newton_solve` fit."""
    state = _Sweep(_fit_rows(ds), beta)
    nll = state.nll()
    g, H, moments, _ = _derivatives(state)
    return _fit_result(state.beta, "full_mpl", 0, nll, g, H, moments)

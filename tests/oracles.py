"""Independent brute-force implementations used as test oracles.

Everything here is written as direct loops over the defining formulas, with
no shared code or vectorisation tricks from the package under test.  The
simulation section draws each design as one row-major matrix, the
reference for the package's chunked draw path; it takes only the design's
constants (the case names, the AR(1) matrix, the calibration stream and
batch size) from the package.  The other exception is the last section:
the oracle plans of the optimality tests, built from the package's dense
per-record residuals (themselves checked against
:func:`naive_score_residual`) and full-data tables.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from coxsub.breslow import RiskSetMean, breslow_cumhaz, score_residuals
from coxsub.errors import CalibrationError
from coxsub.simulation import _CALIBRATION_BATCH, _CALIBRATION_STREAM, CASES, ar1_covariance
from coxsub.subsampling import _mixed_plan, _require_positive_definite


def naive_neg_logpl(time, status, X, beta, weights=None, n_ref=None):
    """Direct double-loop negative log partial likelihood.

    Unit weights reproduce the classical (1/n) * sum definition; explicit
    weights normalise by total weight and use ``n_ref`` (default: the full
    size) inside the log term.
    """
    m = len(time)
    w = np.ones(m) if weights is None else np.asarray(weights, float)
    W = w.sum()
    n_ref = (m if weights is None else n_ref) or m
    total = 0.0
    for i in range(m):
        if status[i] != 1:
            continue
        denom = 0.0
        for j in range(m):
            if time[j] >= time[i]:
                denom += w[j] * np.exp(X[j] @ beta)
        total += w[i] * (X[i] @ beta - np.log(n_ref * denom / W))
    return -total / W


def naive_score(time, status, X, beta, weights=None):
    m, p = X.shape
    w = np.ones(m) if weights is None else np.asarray(weights, float)
    W = w.sum()
    out = np.zeros(p)
    for i in range(m):
        if status[i] != 1:
            continue
        num = np.zeros(p)
        den = 0.0
        for j in range(m):
            if time[j] >= time[i]:
                e = w[j] * np.exp(X[j] @ beta)
                num += e * X[j]
                den += e
        out += w[i] * (X[i] - num / den)
    return -out / W


def naive_hessian(time, status, X, beta, weights=None):
    m, p = X.shape
    w = np.ones(m) if weights is None else np.asarray(weights, float)
    W = w.sum()
    out = np.zeros((p, p))
    for i in range(m):
        if status[i] != 1:
            continue
        s0 = 0.0
        s1 = np.zeros(p)
        s2 = np.zeros((p, p))
        for j in range(m):
            if time[j] >= time[i]:
                e = w[j] * np.exp(X[j] @ beta)
                s0 += e
                s1 += e * X[j]
                s2 += e * np.outer(X[j], X[j])
        xbar = s1 / s0
        out += w[i] * (s2 / s0 - np.outer(xbar, xbar))
    return out / W


def naive_nelson_aalen(time, status):
    """Classical increment-per-event-time estimator: d_k / (number at risk)."""
    event_times = np.unique(np.asarray(time)[np.asarray(status) == 1])
    jumps = []
    for t in event_times:
        d = sum(1 for i in range(len(time)) if time[i] == t and status[i] == 1)
        at_risk = sum(1 for i in range(len(time)) if time[i] >= t)
        jumps.append(d / at_risk)
    return event_times, np.asarray(jumps)


def naive_breslow(time, status, X, beta):
    """Per-record loop over the defining sum, grouped by distinct event time."""
    event_times = np.unique(np.asarray(time)[np.asarray(status) == 1])
    jumps = []
    for t in event_times:
        total = 0.0
        for i in range(len(time)):
            if time[i] == t and status[i] == 1:
                denom = sum(
                    np.exp(X[j] @ beta) for j in range(len(time)) if time[j] >= time[i]
                )
                total += 1.0 / denom
        jumps.append(total)
    return event_times, np.asarray(jumps)


def true_cumulative_hazard(t):
    """Baseline cumulative hazard of the simulated model, ``0.25 * t**2``."""
    return 0.25 * np.square(t)


def naive_risk_set_mean(time, X, beta, t):
    """Exp-weighted mean covariate of the rows with time at least ``t``.

    Beyond the last time the mean is that of the rows at the last time (the
    clamp of a step-function table).
    """
    at_risk = [j for j in range(len(time)) if time[j] >= min(t, max(time))]
    total, weighted = 0.0, np.zeros(X.shape[1])
    for j in at_risk:
        e = np.exp(X[j] @ beta)
        total += e
        weighted += e * X[j]
    return weighted / total


def naive_score_residual(time, status, X, i, xbar_at, jump_times, jumps, beta):
    """Exact sum over hazard jumps for one record.

    ``xbar_at`` is a callable t -> p-vector.
    """
    p = X.shape[1]
    out = np.zeros(p)
    if status[i] == 1:
        out += X[i] - xbar_at(time[i])
    risk = np.exp(X[i] @ beta)
    for t, dlam in zip(jump_times, jumps):
        if t <= time[i]:
            out -= (X[i] - xbar_at(t)) * risk * dlam
    return out


@dataclass(frozen=True)
class RiskSetSums:
    """Weighted at-risk covariate moments evaluated at every event time.

    ``s0[j]``, ``s1[j]`` and ``s2[j]`` are the order-0/1/2 moments of the
    risk set at the j-th distinct event time, over total weight; ``tau`` is
    the last event time (the horizon of all integrals).
    """

    event_times: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    tau: float


def risk_set_sums(ds, beta, weights=None, subset=None):
    """Direct loop over the records at risk at each distinct event time.

    ``subset`` is a with-replacement multiset of record indices and
    ``weights`` is aligned with it; no shift, sort or suffix sum.
    """
    idx = np.arange(ds.n) if subset is None else np.asarray(subset)
    w = np.ones(idx.size) if weights is None else np.asarray(weights, float)
    time, status, X = ds.time[idx], ds.status[idx], ds.covariates[idx]
    W = w.sum()
    p = X.shape[1]
    event_times = np.unique(time[status == 1])
    s0, s1, s2 = [], [], []
    for t in event_times:
        a0, a1, a2 = 0.0, np.zeros(p), np.zeros((p, p))
        for j in range(idx.size):
            if time[j] >= t:
                e = w[j] * np.exp(X[j] @ beta)
                a0 += e
                a1 += e * X[j]
                a2 += e * np.outer(X[j], X[j])
        s0.append(a0 / W)
        s1.append(a1 / W)
        s2.append(a2 / W)
    tau = float(event_times[-1]) if event_times.size else 0.0
    return RiskSetSums(
        event_times=event_times,
        s0=np.asarray(s0),
        s1=np.asarray(s1).reshape(-1, p),
        s2=np.asarray(s2).reshape(-1, p, p),
        tau=tau,
    )


def finite_diff_grad(f, x, h=1e-6):
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def finite_diff_jacobian(g, x, h=1e-5):
    x = np.asarray(x, float)
    g0 = np.asarray(g(x))
    out = np.zeros((g0.size, x.size))
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[:, k] = (np.asarray(g(x + e)) - np.asarray(g(x - e))) / (2 * h)
    return out


# ---- the record-order rules a dataset stored in sweep order must keep


def oracle_violations(time, status, X):
    """``validate``'s value violations of record-order arrays, as (code, message, row, column).

    Kind by kind (non-finite times, negative times, bad status, non-finite
    covariates), each in record order, then the missing-events flag.
    """
    out = []
    for i, t in enumerate(time):
        if not np.isfinite(t):
            out.append(("nonfinite_time", f"time at row {i} is not finite", i, None))
    for i, t in enumerate(time):
        if np.isfinite(t) and t < 0:
            out.append(("negative_time", f"time at row {i} is negative", i, None))
    for i, s in enumerate(status):
        if s not in (0, 1):
            out.append(("bad_status", f"status at row {i} is {s.item()!r}, expected 0 or 1", i, None))
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            if not np.isfinite(X[i, j]):
                out.append(("nonfinite_covariate", f"covariate ({i},{j}) is not finite", i, j))
    if not any(s == 1 for s in status):
        out.append(("no_events", "dataset has no events; partial likelihood is degenerate", None, None))
    return out


def oracle_csv_error(time, status, X, cov_names):
    """The ``CsvError`` text and 1-based row ``load_csv`` reports for a file of these values, or None."""
    first = next((v for v in oracle_violations(time, status, X) if v[0] != "no_events"), None)
    if first is None:
        return None
    code, _, i, j = first
    r = i + 1
    if code == "nonfinite_covariate":
        return f"row {r}: covariate {cov_names[j]!r} is not finite", r
    if code == "bad_status":
        return f"row {r}: status must be 0 or 1, got {float(status[i])!r}", r
    return f"row {r}: time must be a finite nonnegative number, got {float(time[i])!r}", r


def oracle_sorted_rows(time, status, X, subset, weights=None):
    """(time, status, X, weights) of the multiset ``subset`` of record-order arrays, in sweep order.

    Sweep order: time ascending, events before censorings at ties, then the
    position in ``subset``; the rows are gathered from the record-order arrays.
    """
    subset = np.asarray(subset)
    t, s = np.asarray(time)[subset], np.asarray(status)[subset]
    order = sorted(range(subset.size), key=lambda k: (t[k], s[k] != 1, k))
    rows = subset[order]
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[order]
    return np.asarray(time)[rows], np.asarray(status)[rows], np.asfortranarray(np.asarray(X)[rows]), w


# ---- CSV writers: the csv.writer row loops the vectorised writers replace


def oracle_write_dataset_csv(ds, path, time_column="time", status_column="status", cov_names=None,
                             delimiter=",", has_header=True):
    cov_names = cov_names or [f"x{j + 1}" for j in range(ds.p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        if has_header:
            writer.writerow([time_column, status_column, *cov_names])
        for i in range(ds.n):
            writer.writerow(
                [repr(float(ds.time[i])), int(ds.status[i]), *(repr(float(v)) for v in ds.covariates[i])]
            )


def oracle_write_plan_csv(probs, path, status=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if status is None:
            writer.writerow(["index", "prob"])
            for i, p in enumerate(probs):
                writer.writerow([i, repr(float(p))])
        else:
            writer.writerow(["index", "prob", "status"])
            for i, p in enumerate(probs):
                writer.writerow([i, repr(float(p)), int(status[i])])


def oracle_write_cumhaz_csv(jump_times, cumulative, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "cumhaz"])
        for t, v in zip(jump_times, cumulative):
            writer.writerow([repr(float(t)), repr(float(v))])


# ---- the simulation designs, drawn as one row-major matrix: the reference the
# package's chunked, column-major draw path reproduces bit for bit


def gen_covariates(case: str, n: int, rng: np.random.Generator, p: int = 5) -> np.ndarray:
    """Draw n i.i.d. covariate rows for the given simulation case.

    Cases: I uniform(-1,1); II equal mixture of two correlated normals
    centred at -1 and +1; III independent exponentials with rate 2;
    IV correlated heavy-tailed rows (multivariate t, 10 df), scaled by
    ``(df - 2) / df`` so the covariance matrix equals the AR(1) target.
    """
    case = str(case).upper()
    if case == "I":
        return rng.uniform(-1.0, 1.0, size=(n, p))
    if case == "III":
        return rng.exponential(scale=0.5, size=(n, p))
    chol = np.linalg.cholesky(ar1_covariance(p))
    if case == "II":
        signs = rng.integers(0, 2, size=n) * 2 - 1
        z = rng.standard_normal((n, p))
        return signs[:, None] + z @ chol.T
    if case == "IV":
        df = 10
        z = rng.standard_normal((n, p)) @ chol.T
        mix = rng.chisquare(df, size=n)
        return z * np.sqrt((df - 2.0) / mix)[:, None]
    raise ValueError(f"case must be one of {CASES}, got {case!r}")


def gen_failure_times(X: np.ndarray, beta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Invert the cumulative hazard at a uniform draw.

    With cumulative baseline hazard ``0.25*t**2`` the failure time is
    ``2*sqrt(-log(u))*exp(-beta'x/2)``, with ``u = 1 - rng.random(n)`` on
    (0, 1], one draw per row of ``X``.
    """
    u = 1.0 - rng.random(np.shape(X)[0])
    return 2.0 * np.sqrt(-np.log(u)) * np.exp(-(np.asarray(X) @ np.asarray(beta)) / 2.0)


def calibrate_c0(case, beta, target_cr, *, seed, tol=0.002):
    """The censoring bound's bisection on a whole-matrix batch from the generators above."""
    if not 0.01 < target_cr < 0.99:
        raise ValueError("target_cr must lie in (0.01, 0.99)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    beta = np.asarray(beta, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _CALIBRATION_STREAM]))

    X = gen_covariates(case, _CALIBRATION_BATCH, rng, p=beta.size)
    t_fail = gen_failure_times(X, beta, rng)
    unit_censor = rng.random(_CALIBRATION_BATCH)

    def censoring_rate(c0):
        return float(np.mean(t_fail > c0 * unit_censor))

    lo, hi = 1e-9, 1.0
    for _ in range(200):
        if censoring_rate(hi) <= target_cr:
            break
        hi *= 2.0
    else:
        raise CalibrationError("could not bracket the target censoring rate from above")
    if censoring_rate(lo) < target_cr:
        raise CalibrationError("could not bracket the target censoring rate from below")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cr = censoring_rate(mid)
        if abs(cr - target_cr) <= tol:
            return mid
        if cr > target_cr:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    raise CalibrationError("bisection failed to reach the target censoring rate")


# ------------------------------------------------------------------ oracle plans


def oracle_residual_norms(ds, mpl, curvature=None):
    """Norms of the full-data score residuals at ``mpl.beta``.

    With a ``curvature`` matrix ``Psi`` the norms are those of ``Psi^-1``
    times each residual (the A-optimal metric).
    """
    xbar = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), mpl.beta)
    resids = score_residuals(ds, xbar, breslow_cumhaz(ds, mpl.beta), mpl.beta)
    if curvature is not None:
        resids = np.linalg.solve(curvature, resids.T).T
    return np.linalg.norm(resids, axis=1)


def oracle_lopt_probs(ds, mpl):
    """Unmixed L-optimal plan built from full-data tables."""
    if mpl.role != "full_mpl":
        raise ValueError("oracle plans require a full-data fit")
    return _mixed_plan(oracle_residual_norms(ds, mpl), 0.0)


def oracle_aopt_probs(ds, mpl):
    """Unmixed A-optimal plan built from full-data tables."""
    if mpl.role != "full_mpl":
        raise ValueError("oracle plans require a full-data fit")
    _require_positive_definite(mpl.hessian, "full-data")
    return _mixed_plan(oracle_residual_norms(ds, mpl, mpl.hessian), 0.0)


def trace_score_variance(ds, plan, mpl, r, norms=None):
    """L-optimality objective of a plan: trace of the sampling covariance
    of the importance-weighted score for a subsample of size ``r``.

    Records with a zero residual contribute nothing regardless of their
    probability; a zero probability on a contributing record makes the
    objective infinite.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if norms is None:
        norms = oracle_residual_norms(ds, mpl)
    active = norms > 0.0
    if np.any(active & (plan.probs == 0.0)):
        return float("inf")
    sq = np.zeros_like(norms)
    sq[active] = norms[active] ** 2 / plan.probs[active]
    return float(sq.sum() / (r * ds.n**2))

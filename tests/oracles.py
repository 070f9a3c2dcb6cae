"""Independent brute-force implementations used as test oracles.

Everything here is written as direct loops over the defining formulas, with
no shared code or vectorisation tricks from the package under test.  The
exception is the last section: the oracle plans of the optimality tests,
built from the package's dense per-record residuals (themselves checked
against :func:`naive_score_residual`) and full-data tables.
"""

import csv
from dataclasses import dataclass

import numpy as np

from coxsub import breslow_cumhaz, score_residuals
from coxsub.breslow import RiskSetMean
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

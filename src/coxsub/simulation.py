"""Synthetic survival data generation and replication studies.

Failure times follow a proportional hazards model with baseline hazard
``0.5 * t`` (cumulative ``0.25 * t**2``), inverted analytically from a
uniform draw.  Censoring times are uniform on ``(0, c0)`` with ``c0``
calibrated by bisection against Monte Carlo censoring-rate estimates on a
fixed batch, so the search is deterministic given the seed.

Every record comes from one draw path, :func:`_draw_records`, in the
order of the determinism contract: covariates, failure uniforms, then
censoring uniforms.  :func:`gen_dataset`, :func:`calibrate_c0` and
``coxsub calibrate`` all draw through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import SurvivalDataset, _frozen
from .errors import CalibrationError, CoxSubError
from .partial_likelihood import newton_solve
from .subsampling import SubsamplePlan, two_step

CASES = ("I", "II", "III", "IV")
DEFAULT_BETA = (-1.0, -0.5, 0.0, 0.5, 1.0)
_CALIBRATION_STREAM = 0x1CA1  # entropy domain separating calibration from data draws
_CALIBRATION_BATCH = 100_000  # Monte Carlo records behind each calibrated c0


def ar1_covariance(p: int, rho: float = 0.5) -> np.ndarray:
    """Autoregressive correlation matrix with entries rho**|j-k|."""
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class SimConfig:
    case: str = "I"
    n: int = 100_000
    beta_true: tuple = DEFAULT_BETA
    target_cr: float = 0.2
    c0: float | None = None
    seed: int = 0

    def __post_init__(self):
        case = str(self.case).upper()
        if case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        object.__setattr__(self, "case", case)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.target_cr < 1.0:
            raise ValueError("target_cr must lie in (0, 1)")
        if self.c0 is not None and not (math.isfinite(self.c0) and self.c0 > 0):
            raise ValueError(f"c0 must be finite and positive, got {self.c0!r}")
        beta = tuple(float(b) for b in self.beta_true)
        if not beta or not all(map(math.isfinite, beta)):
            raise ValueError(f"beta_true must be one or more finite values, got {self.beta_true!r}")
        object.__setattr__(self, "beta_true", beta)

    @property
    def p(self) -> int:
        return len(self.beta_true)

    @property
    def beta(self) -> np.ndarray:
        return np.asarray(self.beta_true)


def _failure_times(eta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The failure times at linear predictors ``eta``, which are overwritten.

    With cumulative baseline hazard ``0.25*t**2`` the failure time is
    ``2*sqrt(-log(u))*exp(-eta/2)``, with ``u = 1 - rng.random(n)`` on
    (0, 1], one draw per record.  Computed in place in ``eta`` and one more
    n-length array, one operation at a time in the formula's order, so the
    bits are the formula's.
    """
    u = rng.random(eta.shape[0])
    np.subtract(1.0, u, out=u)
    for op in (np.log, np.negative, np.sqrt):
        op(u, out=u)
    np.multiply(2.0, u, out=u)
    np.negative(eta, out=eta)
    np.divide(eta, 2.0, out=eta)
    np.exp(eta, out=eta)
    return np.multiply(u, eta, out=u)


# rows of covariates drawn per chunk
_DRAW_ROWS = 8192


def _row_chunks(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of chunks of ``_DRAW_ROWS`` rows; a one-row last chunk joins the one before it.

    numpy multiplies a one-row matrix on another BLAS path, whose last bits
    can differ from those of the same row inside a larger product.
    """
    bounds = [*range(0, n, _DRAW_ROWS), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _stream_covariates(case: str, n: int, beta: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The covariates of ``n`` records of a checked ``case``, column-major, and ``X @ beta`` per row.

    The package's one copy of the four designs, the first draws of
    :func:`_draw_records`, with ``p = beta.size`` columns: I uniform(-1,1);
    II equal mixture of two correlated normals centred at -1 and +1; III
    independent exponentials with rate 2; IV correlated heavy-tailed rows
    (multivariate t, 10 df), scaled by ``(df - 2) / df`` so the covariance
    matrix equals the AR(1) target.  Drawn a chunk of rows at a time,
    straight into the block, yet bit for bit the values, stream order and
    ``X @ beta`` of one row-major draw of all n rows: case II draws every
    sign first, case IV every chi-square draw last, and each chunk is
    computed on row-major rows.
    """
    p = beta.size
    X, eta = np.empty((n, p), order="F"), np.empty(n)
    chol = np.linalg.cholesky(ar1_covariance(p)) if case in ("II", "IV") else None
    if case == "II":
        signs = rng.integers(0, 2, size=n) * 2 - 1
    chunks = _row_chunks(n)
    for a, b in chunks:
        if case == "I":
            x = rng.uniform(-1.0, 1.0, size=(b - a, p))
        elif case == "III":
            x = rng.exponential(scale=0.5, size=(b - a, p))
        elif case == "II":
            x = signs[a:b, None] + rng.standard_normal((b - a, p)) @ chol.T
        else:
            x = rng.standard_normal((b - a, p)) @ chol.T
        X[a:b] = x
        if case != "IV":
            np.matmul(x, beta, out=eta[a:b])
    if case == "IV":
        df = 10
        scale = rng.chisquare(df, size=n)
        np.divide(df - 2.0, scale, out=scale)
        np.sqrt(scale, out=scale)
        for a, b in chunks:
            x = np.multiply(X[a:b], scale[a:b, None], order="C")
            X[a:b] = x
            np.matmul(x, beta, out=eta[a:b])
    return X, eta


def _draw_records(case: str, n: int, beta: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws behind ``n`` records: ``(X, t_fail, unit_censor)``.

    The one draw path, in the contract order: covariates, failure
    uniforms, then censoring uniforms on [0, 1), which the caller scales
    by ``c0``.  ``case`` is upper-cased and checked.
    """
    case = str(case).upper()
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    X, eta = _stream_covariates(case, n, beta, rng)
    t_fail = _failure_times(eta, rng)
    del eta  # spent: freed before the censoring draw
    return X, t_fail, rng.random(n)


def _censoring_rate(t_fail: np.ndarray, unit_censor: np.ndarray, c0: float) -> float:
    return float(np.mean(t_fail > c0 * unit_censor))


def calibrate_c0(
    case: str,
    beta: np.ndarray,
    target_cr: float,
    *,
    seed: int,
    tol: float = 0.002,
) -> float:
    """Bisection search for the censoring upper bound hitting ``target_cr``.

    A batch of 100 000 records is drawn once from a stream derived from
    ``seed`` in its own entropy domain and held fixed across evaluations,
    so the empirical censoring rate is exactly monotone in ``c0`` and the
    search is deterministic given the seed.  ``tol`` is the accepted
    distance from ``target_cr`` and must be finite and positive.
    """
    if not 0.01 < target_cr < 0.99:
        raise ValueError("target_cr must lie in (0.01, 0.99)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    beta = np.asarray(beta, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _CALIBRATION_STREAM]))

    _, t_fail, unit_censor = _draw_records(case, _CALIBRATION_BATCH, beta, rng)

    lo, hi = 1e-9, 1.0
    for _ in range(200):
        if _censoring_rate(t_fail, unit_censor, hi) <= target_cr:
            break
        hi *= 2.0
    else:
        raise CalibrationError("could not bracket the target censoring rate from above")
    if _censoring_rate(t_fail, unit_censor, lo) < target_cr:
        raise CalibrationError("could not bracket the target censoring rate from below")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cr = _censoring_rate(t_fail, unit_censor, mid)
        if abs(cr - target_cr) <= tol:
            return mid
        if cr > target_cr:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    raise CalibrationError("bisection failed to reach the target censoring rate")


def resolve_c0(cfg: SimConfig) -> SimConfig:
    """Return a config with ``c0`` filled in, calibrating it if needed.

    A config whose ``c0`` is set comes back unchanged; any other is
    calibrated afresh on every call, so resolve once and reuse the result.
    Calibration uses a stream in its own entropy domain, so its draws never
    overlap the dataset streams derived from the same seed.
    """
    if cfg.c0 is not None:
        return cfg
    c0 = calibrate_c0(cfg.case, cfg.beta, cfg.target_cr, seed=cfg.seed)
    return replace(cfg, c0=c0)


def gen_dataset(cfg: SimConfig, rng: np.random.Generator) -> SurvivalDataset:
    """Generate one dataset: covariates, failure times, uniform censoring.

    The records come from :func:`_draw_records`, the draw path of
    :func:`calibrate_c0`'s batch, in the contract order: covariates,
    failure uniforms, censoring uniforms.  The covariates land straight in
    the dataset's column-major block, and the censoring uniforms are
    scaled by ``cfg.c0`` in place.  ``cfg.c0`` must be set; see
    :func:`resolve_c0`.
    """
    if cfg.c0 is None:
        raise ValueError("cfg.c0 is unset; call resolve_c0 first")
    X, t_fail, censor = _draw_records(cfg.case, cfg.n, cfg.beta, rng)
    np.multiply(censor, cfg.c0, out=censor)
    status = (t_fail <= censor).astype(np.int8)
    # the observed times over the failure times, and the censoring times
    # dropped, so the dataset is built beside one n-length array fewer
    time = np.minimum(t_fail, censor, out=t_fail)
    del censor
    # handed over frozen, so the dataset keeps them instead of copying, and
    # owns them, so its sort permutes them in place
    return SurvivalDataset._taking_over(*_frozen(X, time, status))


@dataclass(frozen=True)
class ReplicationReport:
    """Error summaries of one estimator across replications.

    The study's settings are the caller's arguments and are not echoed back.
    """

    reference: str  # what mse/bias/ese are measured against: "mpl" or "truth"
    n_reps: int
    n_failures: int
    mse: float
    bias: np.ndarray
    ese: np.ndarray
    mean_se: np.ndarray
    coverage: np.ndarray


_METHODS = ("lopt", "aopt", "unif", "full")

# worker-process state: the parent's dataset, handed over at fork
_SHARED: dict = {}


def _replicate(
    ds: SurvivalDataset | None,
    cfg: SimConfig,
    method: str,
    r0: int,
    r: int,
    delta: float,
    seed_seq: np.random.SeedSequence,
    mode: str,
):
    """One replication: ``(estimate, standard errors)`` or ``("failure", reason)``.

    ``mode="fresh"`` draws the replication's own dataset first.  A fit that
    raises a :class:`CoxSubError`, as one that does not converge does, is
    a failure.
    """
    rng = np.random.default_rng(seed_seq)
    try:
        if mode == "fresh":
            ds = gen_dataset(cfg, rng)
        if method == "full":
            fit = newton_solve(ds)
            return fit.beta, fit.standard_errors(ds.n)
        res = two_step(ds, r0, r, delta, method, rng)
        return res.fit.beta, res.covariance.standard_errors
    except CoxSubError as exc:
        return ("failure", str(exc))


def _worker_run(payload):
    return _replicate(_SHARED["ds"], *payload)


def run_replications(
    cfg: SimConfig,
    method: str,
    r0: int = 300,
    r: int = 1000,
    delta: float = 0.1,
    n_reps: int = 200,
    seed: int | None = None,
    mode: str = "fixed",
    threads: int = 1,
) -> ReplicationReport:
    """Run a replication study of one estimator and aggregate its errors.

    ``mode="fixed"`` generates one dataset and lets only the subsampling
    randomness vary, measuring error against the full-data estimate;
    ``mode="fresh"`` regenerates the data each replication and measures
    against the known true coefficients.  Replications are independent
    tasks with per-replication derived seeds; parallel runs aggregate in
    replication order, so results match a serial run exactly.  A
    replication whose fit raises a :class:`CoxSubError` (as one that does
    not converge does) counts in ``n_failures`` and nowhere else; a
    fixed-mode reference fit that raises ends the study.  An unset
    ``cfg.c0`` is calibrated on each call (see :func:`resolve_c0`).  The
    report holds the error summaries only, not the settings passed here.
    The process pool behind ``threads > 1`` is imported on first use, so
    a process that never asks for one does not pay for loading it.
    """
    method = method.lower()
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if mode not in ("fixed", "fresh"):
        raise ValueError("mode must be 'fixed' or 'fresh'")
    if n_reps < 2:
        raise ValueError("n_reps must be at least 2")
    cfg = resolve_c0(cfg)
    root = np.random.SeedSequence(seed if seed is not None else cfg.seed)
    data_seq, *rep_seqs = root.spawn(n_reps + 1)

    ds = None
    reference = "truth"
    ref = cfg.beta
    if mode == "fixed":
        ds = gen_dataset(cfg, np.random.default_rng(data_seq))
        mpl = newton_solve(ds)
        reference = "mpl"
        ref = mpl.beta

    if mode == "fixed" and method == "full":
        # deterministic: a refit of the reference data is the reference fit
        results = [(mpl.beta, mpl.standard_errors(ds.n))] * n_reps
    elif threads > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        payloads = [(cfg, method, r0, r, delta, s, mode) for s in rep_seqs]
        # a forked worker inherits the dataset: not pickled, not regenerated
        with ProcessPoolExecutor(
            max_workers=threads,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_SHARED.__setitem__,
            initargs=("ds", ds),
        ) as pool:
            results = list(pool.map(_worker_run, payloads, chunksize=8))
    else:
        results = [_replicate(ds, cfg, method, r0, r, delta, s, mode) for s in rep_seqs]

    done = [item for item in results if not isinstance(item[0], str)]  # not ("failure", reason)
    n_failures = n_reps - len(done)
    if len(done) < 2:
        raise CoxSubError(f"too many failed replications ({n_failures} of {n_reps})")

    est, se = map(np.asarray, zip(*done))
    covered = np.abs(est - cfg.beta) <= 1.96 * se
    return ReplicationReport(
        reference=reference,
        n_reps=n_reps,
        n_failures=n_failures,
        **_error_summary(est, se, ref),
        coverage=covered.mean(axis=0),
    )


def _error_summary(est: np.ndarray, se: np.ndarray, ref: np.ndarray) -> dict:
    """Bias, empirical SE, mean estimated SE and MSE of the rows of ``est`` against ``ref``."""
    return {
        "bias": est.mean(axis=0) - ref,
        "ese": est.std(axis=0, ddof=1),
        "mean_se": se.mean(axis=0),
        "mse": float(np.mean(np.sum((est - ref) ** 2, axis=1))),
    }


def _fivenum(x: np.ndarray) -> tuple | None:
    """Tukey five-number summary: min, lower hinge, median, upper hinge, max; None for no values."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    if n == 0:
        return None
    n4 = math.floor((n + 3) / 2) / 2
    d = np.array([1.0, n4, (n + 1) / 2, n + 1 - n4, float(n)])
    lo = x[np.floor(d).astype(int) - 1]
    hi = x[np.ceil(d).astype(int) - 1]
    return tuple(0.5 * (lo + hi))


@dataclass(frozen=True)
class FiveNumberSummary:
    censored: tuple | None
    uncensored: tuple | None


def five_number_summary(plan: SubsamplePlan, status: np.ndarray) -> FiveNumberSummary:
    """Five-number summaries of the plan probabilities, split by event status; None for an empty group."""
    status = np.asarray(status)
    if status.shape != plan.probs.shape:
        raise ValueError("status must align with the plan probabilities")
    return FiveNumberSummary(
        censored=_fivenum(plan.probs[status == 0]),
        uncensored=_fivenum(plan.probs[status == 1]),
    )

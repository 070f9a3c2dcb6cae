import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from coxsub import SimConfig, SurvivalDataset, gen_dataset, newton_solve, partial_likelihood, resolve_c0


def pytest_report_header(config):
    """The BLAS configuration the run used: the pinned digests hold bit for bit only on one."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = ", ".join(f"{k}={os.environ.get(k, 'unset')}" for k in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE"))
    return f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}, {env}"


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header, so a quiet log records the configuration at its end
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


def random_dataset(rng, n=80, p=3, cr=0.3, ties=False):
    """Small random survival dataset for property tests."""
    X = rng.normal(0.0, 0.6, size=(n, p))
    beta = rng.normal(0.0, 0.5, size=p)
    t_fail = rng.exponential(1.0, n) * np.exp(-(X @ beta))
    censor = rng.exponential(1.0 / max(cr, 1e-9), n) if cr > 0 else np.full(n, np.inf)
    time = np.minimum(t_fail, censor)
    status = (t_fail <= censor).astype(int)
    if not status.any():
        status[int(np.argmin(time))] = 1
    if ties:
        time = np.round(time, 1)
    return SurvivalDataset(covariates=X, time=time, status=status)


def sweep_order(ds):
    """The records in sweep order, read back from the rank of the swept dataset; the identity when it holds none."""
    ds.sorted_view()
    return np.arange(ds.n) if ds._rank is None else np.argsort(ds._rank)


def at_iteration_limit(fn, monkeypatch, limit=0):
    """``fn`` run with the Newton iteration limit set to ``limit``, so a fit inside it stops there."""

    def limited(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(partial_likelihood, "_MAX_ITER", limit)
            return fn(*args, **kwargs)

    return limited


@pytest.fixture(scope="session")
def case1_cfg():
    """Case I config at moderate scale, censoring bound precalibrated."""
    return resolve_c0(SimConfig(case="I", n=100_000, target_cr=0.2, seed=20240001))


@pytest.fixture(scope="session")
def case1_ds(case1_cfg):
    return gen_dataset(case1_cfg, np.random.default_rng(20240002))


@pytest.fixture(scope="session")
def case1_mpl(case1_ds):
    return newton_solve(case1_ds)

import hashlib
import os
import warnings

import numpy as np
import pytest
from scipy import stats

from coxsub import partial_likelihood, simulation, subsampling
from coxsub import (
    CalibrationError,
    CoxSubError,
    FiveNumberSummary,
    SimConfig,
    calibrate_c0,
    five_number_summary,
    gen_dataset,
    newton_solve,
    resolve_c0,
    run_replications,
)
from coxsub.simulation import DEFAULT_BETA, _draw_records, _failure_times, _fivenum, ar1_covariance
from coxsub.subsampling import uniform_plan

import oracles
from conftest import at_iteration_limit
from oracles import true_cumulative_hazard


def draw(case, n, seed, beta=DEFAULT_BETA):
    """``(X, t_fail, unit_censor)`` of n records, through the package's one draw path."""
    return _draw_records(case, n, np.asarray(beta, dtype=np.float64), np.random.default_rng(seed))


class TestCovariates:
    def test_case1_moments(self):
        X, _, _ = draw("I", 1_000_000, 0)
        sigma = np.sqrt(1.0 / 3.0 / 1_000_000)
        assert np.all(np.abs(X.mean(axis=0)) < 4 * sigma)
        assert np.all((X > -1) & (X < 1))

    def test_case3_moments(self):
        n = 400_000
        X, _, _ = draw("III", n, 1)
        assert np.all(X > 0)
        se = 0.5 / np.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0) - 0.5) < 4 * se)

    def test_case2_mixture_covariance(self):
        # exact mixture covariance: AR(1) matrix plus 1 in every entry
        n = 300_000
        X, _, _ = draw("II", n, 2)
        target = ar1_covariance(5) + 1.0
        emp = np.cov(X.T)
        assert np.abs(emp - target).max() < 0.02
        assert np.abs(X.mean(axis=0)).max() < 0.02

    def test_case4_covariance_matches_target(self):
        n = 400_000
        X, _, _ = draw("IV", n, 3)
        emp = np.cov(X.T)
        assert np.abs(emp - ar1_covariance(5)).max() < 0.03

    def test_unknown_case_rejected(self):
        # a lower-case name is upper-cased before it is checked
        for case in ("V", "v"):
            with pytest.raises(ValueError) as err:
                calibrate_c0(case, np.zeros(5), 0.2, seed=0)
            assert str(err.value) == "case must be one of ('I', 'II', 'III', 'IV'), got 'V'"


class TestFailureTimes:
    def test_analytic_inversion(self):
        # cumulative hazard 0.25*t^2 inverts u to t = 2*sqrt(-log u)*exp(-beta'x/2),
        # with u = 1 - U for the generator's uniform draw U
        X = np.random.default_rng(21).normal(size=(50, 2))
        beta = np.array([0.7, -0.3])
        t = _failure_times(X @ beta, np.random.default_rng(4))
        u = 1.0 - np.random.default_rng(4).random(50)
        np.testing.assert_allclose(t, 2.0 * np.sqrt(-np.log(u)) * np.exp(-(X @ beta) / 2.0), rtol=1e-14)

    def test_computed_in_place_with_the_formula_bits(self):
        # the in-place steps give the formula's bits, holding two n-length arrays
        import tracemalloc

        n = 100_000
        X = np.random.default_rng(22).uniform(-1.0, 1.0, (n, 5))
        beta = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        eta, u = X @ beta, 1.0 - np.random.default_rng(6).random(n)
        formula = 2.0 * np.sqrt(-np.log(u)) * np.exp(-eta / 2.0)
        tracemalloc.start()
        try:
            t = _failure_times(X @ beta, np.random.default_rng(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.tobytes() == formula.tobytes()
        assert peak < 2.5 * 8 * n, f"peak {peak / (8 * n):.2f} n-length arrays"

    def test_monotone_in_linear_predictor(self):
        # one seed for every record, so each inverts the same uniform draw
        beta = np.array([1.0])
        grid = np.linspace(-3, 3, 25)[:, None]
        t = np.array([_failure_times(x[None] @ beta, np.random.default_rng(37))[0] for x in grid])
        assert np.all(np.diff(t) < 0)

    def test_probability_integral_transform(self):
        beta = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        X, t, _ = draw("I", 100_000, 5, beta)
        z = true_cumulative_hazard(t) * np.exp(X @ beta)
        assert stats.kstest(z, "expon").pvalue > 0.001


class TestCalibration:
    def test_monotone_in_target(self):
        beta = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        c_small = calibrate_c0("I", beta, 0.2, seed=10)
        c_large = calibrate_c0("I", beta, 0.6, seed=10)
        assert c_large < c_small

    def test_deterministic_given_seed(self):
        beta = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        a = calibrate_c0("I", beta, 0.5, seed=3)
        b = calibrate_c0("I", beta, 0.5, seed=3)
        assert a == b

    def test_resimulation_hits_target(self):
        beta = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        c0 = calibrate_c0("I", beta, 0.2, seed=11)
        _, t, unit_censor = draw("I", 1_000_000, 999, beta)
        cr = np.mean(t > c0 * unit_censor)
        assert abs(cr - 0.2) < 0.01

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            calibrate_c0("I", np.zeros(5), 0.999, seed=0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_invalid_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            calibrate_c0("I", np.zeros(5), 0.2, seed=0, tol=tol)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("case", simulation.CASES)
    def test_is_the_whole_matrix_calibration_bit_for_bit(self, case, seed, p):
        # the batch is the row-major reference's, and so is the bound it gives
        beta = np.array([-1.0, -0.5, 0.0, 0.5, 1.0] if p == 5 else [0.7, -0.4, 1.1])
        stream = np.random.SeedSequence([seed, simulation._CALIBRATION_STREAM])
        n = simulation._CALIBRATION_BATCH
        _, t_fail, unit_censor = _draw_records(case, n, beta, np.random.default_rng(stream))
        rng = np.random.default_rng(stream)
        X = oracles.gen_covariates(case, n, rng, p=p)
        assert t_fail.tobytes() == oracles.gen_failure_times(X, beta, rng).tobytes()
        assert unit_censor.tobytes() == rng.random(n).tobytes()
        assert calibrate_c0(case, beta, 0.3, seed=seed) == oracles.calibrate_c0(case, beta, 0.3, seed=seed)

    @pytest.mark.parametrize("case", simulation.CASES)
    def test_case_is_upper_cased(self, case):
        beta = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        assert calibrate_c0(case.lower(), beta, 0.2, seed=4) == calibrate_c0(case, beta, 0.2, seed=4)


class TestGenDataset:
    def test_event_iff_failure_before_censoring(self, case1_cfg):
        ds = gen_dataset(case1_cfg, np.random.default_rng(6))
        # regenerate with the same stream to recover T and C
        _, t_fail, unit_censor = draw(case1_cfg.case, case1_cfg.n, 6, case1_cfg.beta)
        censor = case1_cfg.c0 * unit_censor
        np.testing.assert_array_equal(ds.status == 1, t_fail <= censor)
        np.testing.assert_allclose(ds.time, np.minimum(t_fail, censor))

    def test_empirical_censoring_rate(self, case1_cfg):
        big = resolve_c0(SimConfig(case="I", n=1_000_000, target_cr=0.2, seed=case1_cfg.seed))
        ds = gen_dataset(big, np.random.default_rng(7))
        assert abs(ds.censoring_rate - 0.2) < 0.01

    def test_null_beta_time_independent_of_covariates(self):
        cfg = resolve_c0(SimConfig(case="I", n=50_000, beta_true=(0.0,) * 5, target_cr=0.3, seed=8))
        ds = gen_dataset(cfg, np.random.default_rng(8))
        for j in range(5):
            rho = np.corrcoef(ds.time, ds.covariates[:, j])[0, 1]
            assert abs(rho) < 3.0 / np.sqrt(ds.n)

    def test_requires_c0(self):
        with pytest.raises(ValueError, match="c0"):
            gen_dataset(SimConfig(case="I", n=100, target_cr=0.2), np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 3 * simulation._DRAW_ROWS + 1])
    @pytest.mark.parametrize("case", simulation.CASES)
    def test_streamed_records_are_the_reference_generators_bit_for_bit(self, case, n):
        # several chunks of covariates, the last one row that joins the one
        # before it; p = 3, not the default 5, so the AR(1) factor follows beta
        cfg = SimConfig(case=case, n=n, beta_true=(0.7, -0.4, 1.1), c0=1.5)
        ds = gen_dataset(cfg, np.random.default_rng(42))
        # the dataset took the arrays over: its sort permutes them in place
        stored = ds._records
        ds.sorted_view()
        assert all(a is b for a, b in zip(ds._records, stored))
        rng = np.random.default_rng(42)
        X = oracles.gen_covariates(case, n, rng, p=cfg.p)
        t_fail = oracles.gen_failure_times(X, cfg.beta, rng)
        censor = cfg.c0 * rng.random(n)
        assert ds.covariates.flags.f_contiguous and ds.covariates.tobytes() == X.tobytes()
        assert ds.time.tobytes() == np.minimum(t_fail, censor).tobytes()
        assert ds.status.tobytes() == (t_fail <= censor).astype(np.int8).tobytes()


@pytest.fixture(scope="module")
def small_cfg():
    return resolve_c0(SimConfig(case="I", n=4000, target_cr=0.2, seed=101))


class TestRunReplications:
    def test_full_mpl_fixed_mode_zero_mse(self, small_cfg):
        rep = run_replications(small_cfg, "full", n_reps=5, seed=1, mode="fixed")
        assert rep.mse == 0.0
        assert rep.reference == "mpl"

    def test_seeded_determinism(self, small_cfg):
        a = run_replications(small_cfg, "lopt", r0=100, r=300, n_reps=8, seed=2, mode="fixed")
        b = run_replications(small_cfg, "lopt", r0=100, r=300, n_reps=8, seed=2, mode="fixed")
        assert a.mse == b.mse
        np.testing.assert_array_equal(a.bias, b.bias)
        np.testing.assert_array_equal(a.coverage, b.coverage)

    def test_parallel_matches_serial(self, small_cfg):
        ser = run_replications(small_cfg, "lopt", r0=100, r=300, n_reps=8, seed=3, mode="fixed")
        par = run_replications(
            small_cfg, "lopt", r0=100, r=300, n_reps=8, seed=3, mode="fixed", threads=2
        )
        np.testing.assert_array_equal(ser.bias, par.bias)
        np.testing.assert_array_equal(ser.ese, par.ese)
        assert ser.mse == par.mse

    def test_fresh_mode_parallel_matches_serial(self, small_cfg):
        ser = run_replications(small_cfg, "unif", r0=100, r=300, n_reps=6, seed=4, mode="fresh")
        par = run_replications(
            small_cfg, "unif", r0=100, r=300, n_reps=6, seed=4, mode="fresh", threads=3
        )
        assert ser.mse == par.mse
        assert ser.reference == "truth"

    def test_mse_decomposition_identity(self, small_cfg):
        rep = run_replications(small_cfg, "lopt", r0=100, r=300, n_reps=12, seed=5, mode="fixed")
        recon = (rep.bias**2).sum() + (rep.ese**2).sum() * (rep.n_reps - 1) / rep.n_reps
        assert rep.mse == pytest.approx(recon, abs=1e-10)

    def test_invalid_arguments(self, small_cfg):
        with pytest.raises(ValueError, match="method"):
            run_replications(small_cfg, "nope", n_reps=4, seed=0)
        with pytest.raises(ValueError, match="n_reps"):
            run_replications(small_cfg, "lopt", n_reps=1, seed=0)

    def test_fixed_full_reads_the_reference_fit(self, small_cfg, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr(simulation, "newton_solve", spy)
        rep = run_replications(small_cfg, "full", n_reps=5, seed=1, mode="fixed")
        assert len(calls) == 1
        assert rep.n_failures == 0

    def test_forked_workers_share_the_parent_dataset(self, small_cfg, monkeypatch):
        # a worker that generated the dataset again would raise here
        parent = os.getpid()

        def parent_only(cfg, rng):
            if os.getpid() != parent:
                raise CoxSubError("dataset generated in a worker")
            return gen_dataset(cfg, rng)

        monkeypatch.setattr(simulation, "gen_dataset", parent_only)
        ser = run_replications(small_cfg, "lopt", r0=100, r=300, n_reps=4, seed=3, mode="fixed")
        par = run_replications(
            small_cfg, "lopt", r0=100, r=300, n_reps=4, seed=3, mode="fixed", threads=2
        )
        assert par.n_failures == ser.n_failures == 0
        assert ser.mse == par.mse

    def test_nonconverged_full_fit_is_a_failure(self):
        # 20 of these 200 tiny fresh datasets are separated and no full fit
        # on them converges; counting the diverging estimates as results
        # took the mse to 1.33e4
        cfg = SimConfig(case="III", n=20, c0=3.0, seed=1)
        rep = run_replications(cfg, "full", n_reps=200, mode="fresh", seed=2)
        assert rep.n_failures == 20
        assert rep.mse == 91.03605200255136

    def test_nonconverged_reference_fit_raises(self, small_cfg, monkeypatch):
        monkeypatch.setattr(partial_likelihood, "_MAX_ITER", 1)
        message = r"^did not converge after 1 iterations .*: iteration limit \(1\) reached$"
        with pytest.raises(CoxSubError, match=message):
            run_replications(small_cfg, "lopt", r0=100, r=300, n_reps=4, seed=3, mode="fixed")

    def test_nonconverged_second_fit_is_a_failure(self, small_cfg, monkeypatch):
        # a weighted fit stopped at the iteration limit fails its replication at its phase
        fit, calls = subsampling.weighted_fit, []
        monkeypatch.setattr(subsampling, "weighted_fit", at_iteration_limit(fit, monkeypatch))
        kind, reason = simulation._replicate(
            None, small_cfg, "lopt", 100, 300, 0.1, np.random.SeedSequence(0), "fresh"
        )
        assert kind == "failure"
        assert reason.startswith("[second_fit] did not converge after 0 iterations ")

        def every_other_at_the_limit(*args, **kwargs):
            calls.append(None)
            return (at_iteration_limit(fit, monkeypatch) if len(calls) % 2 else fit)(*args, **kwargs)

        monkeypatch.setattr(subsampling, "weighted_fit", every_other_at_the_limit)
        rep = run_replications(small_cfg, "lopt", r0=100, r=300, n_reps=4, seed=3, mode="fixed")
        assert len(calls) == 4 and rep.n_failures == 2

    def test_failed_replications_are_counted(self):
        # single-record pilots on heavily censored data fail often; the
        # study continues and reports how many replications were dropped
        cfg = resolve_c0(SimConfig(case="I", n=3000, target_cr=0.9, seed=606))
        rep = run_replications(cfg, "lopt", r0=1, r=200, n_reps=40, seed=7, mode="fixed")
        assert rep.n_failures > 0
        assert rep.n_failures + len(rep.bias) >= 0  # report still aggregates
        assert np.isfinite(rep.mse)


class TestFiveNumberSummary:
    def test_matches_r_fivenum_convention(self):
        np.testing.assert_allclose(_fivenum(np.arange(1.0, 7.0)), (1.0, 2.0, 3.5, 5.0, 6.0))
        np.testing.assert_allclose(_fivenum(np.arange(1.0, 6.0)), (1.0, 2.0, 3.0, 4.0, 5.0))
        np.testing.assert_allclose(_fivenum(np.arange(1.0, 8.0)), (1.0, 2.5, 4.0, 5.5, 7.0))
        np.testing.assert_allclose(_fivenum(np.array([3.0])), (3.0,) * 5)

    def test_uniform_plan_all_entries_equal(self):
        plan = uniform_plan(40)
        status = np.array([0] * 25 + [1] * 15)
        summary = five_number_summary(plan, status)
        assert isinstance(summary, FiveNumberSummary)
        np.testing.assert_allclose(summary.censored, (1 / 40,) * 5)
        np.testing.assert_allclose(summary.uncensored, (1 / 40,) * 5)

    def test_empty_group_is_none_without_a_warning(self):
        plan = uniform_plan(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = five_number_summary(plan, np.ones(10, dtype=int))
        assert summary.censored is None
        assert len(summary.uncensored) == 5

    def test_status_length_checked(self):
        with pytest.raises(ValueError, match="align"):
            five_number_summary(uniform_plan(10), np.ones(5, dtype=int))


class TestConfigValidation:
    def test_bad_case(self):
        with pytest.raises(ValueError, match="case"):
            SimConfig(case="X")

    def test_bad_cr(self):
        with pytest.raises(ValueError, match="target_cr"):
            SimConfig(target_cr=1.2)

    @pytest.mark.parametrize("c0", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_c0(self, c0):
        with pytest.raises(ValueError, match="c0"):
            SimConfig(c0=c0)

    @pytest.mark.parametrize("beta", [(), (1.0, float("nan")), (float("-inf"),)])
    def test_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta_true"):
            SimConfig(beta_true=beta)


class TestPinnedReplications:
    """Replication reports recorded before the replication runner was
    folded into one function; every field must stay bit for bit.

    Each digest is sha256 over the little-endian float64 bytes of
    ``[mse, *bias, *ese, *mean_se, *coverage]``.
    """

    RUNS = {
        "lopt-fixed": dict(method="lopt", r0=100, r=300, n_reps=8, seed=3, mode="fixed"),
        "unif-fresh": dict(method="unif", r0=100, r=300, n_reps=6, seed=4, mode="fresh"),
        "full-fixed": dict(method="full", n_reps=5, seed=1, mode="fixed"),
    }
    # lopt-fixed was re-pinned when the probability pass began to take every
    # run, one-record runs too, through one matrix product (5 of 21 fields
    # moved, by at most 3.6e-16 relative)
    PINNED = {
        "lopt-fixed": ("mpl", 8, 0, 0.039124893530399184,
                       "4ef8d1ac21ac3550f733063e33ac6ebd5885d305abba3d0c956e870de613ecfb"),
        "unif-fresh": ("truth", 6, 0, 0.08418501574782065,
                       "0ee4bb6301b62737f677be63053c3e213459b31f2ad21019ce31cd92ff0dba91"),
        "full-fixed": ("mpl", 5, 0, 0.0,
                       "3164c964ae7f465cd8a9b6aa55ea881c86e316d3a934c62550c2fe987a434ac2"),
    }

    @pytest.mark.parametrize(
        "run, threads", [("lopt-fixed", 1), ("lopt-fixed", 2), ("unif-fresh", 1), ("full-fixed", 1)]
    )
    def test_report_fields(self, small_cfg, run, threads):
        rep = run_replications(small_cfg, threads=threads, **self.RUNS[run])
        fields = np.concatenate([[rep.mse], rep.bias, rep.ese, rep.mean_se, rep.coverage])
        digest = hashlib.sha256(fields.astype("<f8").tobytes()).hexdigest()
        assert (rep.reference, rep.n_reps, rep.n_failures, rep.mse, digest) == self.PINNED[run]

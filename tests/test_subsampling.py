import hashlib
from dataclasses import replace

import numpy as np
import pytest

from coxsub import (
    NumericsError,
    PilotError,
    SimConfig,
    SingularHessianError,
    Subsample,
    SubsamplePlan,
    TwoStepError,
    compute_aopt_probs,
    compute_lopt_probs,
    draw_uniform,
    draw_weighted,
    estimate_covariance,
    fit_pilot,
    gen_dataset,
    newton_solve,
    two_step,
    weighted_fit,
)
from coxsub import SurvivalDataset, subsampling
from coxsub.subsampling import _mixed_plan, uniform_plan

from conftest import at_iteration_limit, random_dataset
from oracles import oracle_aopt_probs, oracle_lopt_probs, oracle_residual_norms, trace_score_variance


@pytest.fixture(scope="module")
def midsize():
    rng = np.random.default_rng(900)
    ds = random_dataset(rng, n=600, p=3, cr=0.3)
    return ds, newton_solve(ds)


class TestPlanValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            SubsamplePlan(probs=np.array([0.5, 0.6]), delta=0.0)

    def test_floor_enforced(self):
        probs = np.array([0.9, 0.08, 0.02])
        with pytest.raises(ValueError, match="floor"):
            SubsamplePlan(probs=probs, delta=0.5)

    def test_zero_prob_allowed_only_unmixed(self):
        probs = np.array([0.0, 0.4, 0.6])
        plan = SubsamplePlan(probs=probs, delta=0.0)
        assert plan.n == 3
        with pytest.raises(ValueError, match="floor|positive"):
            SubsamplePlan(probs=probs, delta=0.1)

    # one case per message, each raised by the first check the probabilities
    # fail; a negative entry in a vector that sums to 1 must still name the sign
    @pytest.mark.parametrize(
        "probs, delta, message",
        [
            ([], 0.0, "probs must be a non-empty 1-D array"),
            ([[0.5, 0.5]], 0.0, "probs must be a non-empty 1-D array"),
            ([np.nan, 0.5, 0.5], 0.0, "probabilities must be finite and nonnegative"),
            ([np.inf, 0.5], 0.0, "probabilities must be finite and nonnegative"),
            ([-np.inf, np.inf, 1.0], 0.0, "probabilities must be finite and nonnegative"),
            ([-0.1, 0.6, 0.5], 0.0, "probabilities must be finite and nonnegative"),
            ([np.nan, -1.0, 2.0], 1.5, "probabilities must be finite and nonnegative"),
            ([0.5, 0.6], 0.0, "probabilities sum to 1.1, not 1"),
            ([1e308, 1e308], 0.0, "probabilities sum to inf, not 1"),
            ([0.5, 0.6], 1.5, "probabilities sum to 1.1, not 1"),
            ([0.5, 0.5], 1.5, "delta must lie in [0, 1]"),
            ([0.5, 0.5], -0.1, "delta must lie in [0, 1]"),
            ([0.9, 0.08, 0.02], 0.5, "mixed plan violates the delta/n probability floor"),
            ([0.0, 0.4, 0.6], 0.5, "mixed plan violates the delta/n probability floor"),
            ([0.0, 0.4, 0.6], 1e-16, "mixed plans must have strictly positive probabilities"),
        ],
        ids=[
            "empty", "2-d", "nan", "inf", "inf-minus-inf", "negative", "nan-before-delta", "bad-sum",
            "sum-overflows", "sum-before-delta", "delta-above", "delta-below", "floor", "zero-floor",
            "zero-positive",
        ],
    )
    def test_each_message(self, probs, delta, message):
        with pytest.raises(ValueError) as info:
            SubsamplePlan(probs=np.array(probs, dtype=np.float64), delta=delta)
        assert str(info.value) == message

    def test_plan_keeps_its_own_frozen_probabilities(self):
        mine = np.array([0.25, 0.75])
        plan = SubsamplePlan(probs=mine, delta=0.0)
        mine[0] = 0.5
        assert plan.probs.tolist() == [0.25, 0.75]
        assert not plan.probs.flags.writeable
        # a view of a writeable buffer is copied even when the view is read-only
        view = mine[:]
        view.setflags(write=False)
        mine[:] = [0.5, 0.5]
        plan = SubsamplePlan(probs=view, delta=0.0)
        mine[0] = 0.0
        assert plan.probs.tolist() == [0.5, 0.5]
        # a frozen array that owns its data is adopted as it is
        frozen = np.array([0.5, 0.5])
        frozen.setflags(write=False)
        assert SubsamplePlan(probs=frozen, delta=0.0).probs is frozen

    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_plans_satisfy_invariants(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(40, 400)), p=2)
        ctx = fit_pilot(ds, draw_uniform(ds, 40, rng))
        delta = float(rng.choice([0.0, 0.1, 0.3, 0.5, 1.0]))
        plan = compute_lopt_probs(ds, ctx, delta)
        assert abs(plan.probs.sum() - 1.0) <= 1e-12
        assert plan.probs.min() >= delta / ds.n - 1e-15


class TestDrawUniform:
    def test_single_record(self):
        ds = SurvivalDataset(covariates=[[1.0]], time=[1.0], status=[1])
        sub = draw_uniform(ds, 5, np.random.default_rng(0))
        assert np.all(sub.indices == 0)
        assert np.all(sub.weights == 1.0)

    def test_deterministic_given_seed(self, midsize):
        ds, _ = midsize
        a = draw_uniform(ds, 100, np.random.default_rng(42))
        b = draw_uniform(ds, 100, np.random.default_rng(42))
        assert np.array_equal(a.indices, b.indices)

    def test_frequencies_binomial(self):
        ds = SurvivalDataset(
            covariates=np.ones((10, 1)), time=np.arange(1.0, 11.0), status=[1] * 10
        )
        draws = 100_000
        sub = draw_uniform(ds, draws, np.random.default_rng(7))
        counts = np.bincount(sub.indices, minlength=10)
        sigma = np.sqrt(draws * 0.1 * 0.9)
        assert np.all(np.abs(counts - draws * 0.1) < 3.5 * sigma)

    def test_invalid_size(self, midsize):
        with pytest.raises(ValueError):
            draw_uniform(midsize[0], 0, np.random.default_rng(0))


class TestFitPilot:
    def test_full_data_each_once_equals_mpl(self, midsize):
        ds, mpl = midsize
        pilot = Subsample(indices=np.arange(ds.n), weights=np.ones(ds.n))
        ctx = fit_pilot(ds, pilot)
        np.testing.assert_allclose(ctx.fit.beta, mpl.beta, atol=1e-8)

    def test_eventless_pilot_raises(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, n=80, p=2, cr=0.5)
        censored = np.flatnonzero(ds.status == 0)[:20]
        pilot = Subsample(indices=censored, weights=np.ones(20))
        with pytest.raises(PilotError, match="increase the pilot"):
            fit_pilot(ds, pilot)

    def test_separated_pilot_raises(self):
        # monotone likelihood: the x = 1 records all fail first
        x = (np.arange(40) < 10).astype(float)
        ds = SurvivalDataset(covariates=x[:, None], time=np.arange(1.0, 41.0), status=np.ones(40, dtype=int))
        pilot = Subsample(indices=np.arange(40), weights=np.ones(40))
        with pytest.raises(PilotError, match=r"did not converge after \d+ iterations .*: monotone likelihood"):
            fit_pilot(ds, pilot)

    def test_pilot_estimate_sanity_band(self, case1_ds, case1_cfg):
        rng = np.random.default_rng(2)
        ctx = fit_pilot(case1_ds, draw_uniform(case1_ds, 300, rng))
        assert np.linalg.norm(ctx.fit.beta - case1_cfg.beta) < 0.5


class TestApproxPlans:
    def test_delta_one_is_exactly_uniform(self, midsize):
        ds, _ = midsize
        ctx = fit_pilot(ds, draw_uniform(ds, 60, np.random.default_rng(3)))
        plan = compute_lopt_probs(ds, ctx, 1.0)
        assert np.all(plan.probs == 1.0 / ds.n)

    def test_equal_norms_give_uniform(self, monkeypatch):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n=50, p=2)
        ctx = fit_pilot(ds, draw_uniform(ds, 30, rng))
        monkeypatch.setattr(
            "coxsub.subsampling.score_residual_norms",
            lambda *a, **k: np.full(ds.n, 2.5),
        )
        plan = compute_lopt_probs(ds, ctx, 0.3)
        np.testing.assert_allclose(plan.probs, 1.0 / ds.n, rtol=1e-15)

    def test_zero_norms_fall_back_to_uniform_with_warning(self):
        rng = np.random.default_rng(5)
        n = 40
        time = rng.exponential(1.0, n)
        status = (rng.random(n) < 0.7).astype(int)
        status[0] = 1
        ds = SurvivalDataset(covariates=np.zeros((n, 2)), time=time, status=status)
        pilot = Subsample(indices=np.arange(n), weights=np.ones(n))
        ctx = fit_pilot(ds, pilot)
        with pytest.warns(UserWarning, match="uniform"):
            plan = compute_lopt_probs(ds, ctx, 0.1)
        np.testing.assert_allclose(plan.probs, 1.0 / n, rtol=1e-15)

    def test_scale_invariance_of_selection(self):
        norms = np.array([1.0, 2.0, 3.0, 4.0])
        b = _mixed_plan(norms * 37.5, 0.2)
        a = _mixed_plan(norms, 0.2)
        np.testing.assert_allclose(a.probs, b.probs, rtol=1e-15)

    def test_aopt_equals_lopt_when_p_is_one(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, n=120, p=1)
        ctx = fit_pilot(ds, draw_uniform(ds, 50, rng))
        la = compute_lopt_probs(ds, ctx, 0.1)
        ao = compute_aopt_probs(ds, ctx, 0.1)
        np.testing.assert_allclose(la.probs, ao.probs, rtol=1e-12)

    def test_aopt_singular_pilot_curvature(self, monkeypatch):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=60, p=2)
        ctx = fit_pilot(ds, draw_uniform(ds, 40, rng))
        monkeypatch.setattr(ctx, "fit", replace(ctx.fit, hessian=np.zeros((2, 2))))
        with pytest.raises(SingularHessianError, match="condition"):
            compute_aopt_probs(ds, ctx, 0.1)

    def test_aopt_pilot_singular_to_working_precision(self, monkeypatch):
        # positive definite, so an absolute check passes, but with each
        # covariate scaled to a unit second moment its smallest eigenvalue is 1e-14
        ds = random_dataset(np.random.default_rng(7), n=200, p=2)
        fit = subsampling.fit_pilot

        def near_singular(*args):
            ctx = fit(*args)
            ctx.fit = replace(ctx.fit, hessian=np.diag(np.diag(ctx.fit.moments) * [1.0, 1e-14]))
            np.linalg.cholesky(ctx.fit.hessian)
            return ctx

        monkeypatch.setattr(subsampling, "fit_pilot", near_singular)
        message = r"^\[probability_pass\] pilot curvature matrix is not positive definite to working precision"
        with pytest.raises(TwoStepError, match=message):
            two_step(ds, 60, 150, 0.1, "aopt", np.random.default_rng(1))
        # the L-optimal plan does not use the pilot curvature
        assert two_step(ds, 60, 150, 0.1, "lopt", np.random.default_rng(1)).fit.converged

    def test_uncensored_records_get_larger_probabilities(self, case1_ds):
        ctx = fit_pilot(case1_ds, draw_uniform(case1_ds, 300, np.random.default_rng(8)))
        plan = compute_lopt_probs(case1_ds, ctx, 0.1)
        med_unc = np.median(plan.probs[case1_ds.status == 1])
        med_cen = np.median(plan.probs[case1_ds.status == 0])
        assert med_unc > med_cen


class TestOraclePlans:
    def test_requires_full_fit(self, midsize):
        ds, mpl = midsize
        pilot_fit = fit_pilot(ds, draw_uniform(ds, 50, np.random.default_rng(9))).fit
        with pytest.raises(ValueError, match="full-data"):
            oracle_lopt_probs(ds, pilot_fit)

    def test_trace_at_oracle_beats_uniform_and_random(self, midsize):
        ds, mpl = midsize
        plan = oracle_lopt_probs(ds, mpl)
        r = 100
        t_opt = trace_score_variance(ds, plan, mpl, r)
        t_unif = trace_score_variance(ds, uniform_plan(ds.n), mpl, r)
        assert t_opt < t_unif
        rng = np.random.default_rng(10)
        for _ in range(200):
            probs = rng.dirichlet(np.ones(ds.n))
            rand_plan = SubsamplePlan(probs=probs, delta=0.0)
            assert t_opt <= trace_score_variance(ds, rand_plan, mpl, r) + 1e-18

    def test_closed_form_equality_at_optimum(self, midsize):
        ds, mpl = midsize
        plan = oracle_lopt_probs(ds, mpl)
        r = 50
        norms = oracle_residual_norms(ds, mpl)
        expect = norms.sum() ** 2 / (r * ds.n**2)
        got = trace_score_variance(ds, plan, mpl, r)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_trace_halves_when_r_doubles(self, midsize):
        ds, mpl = midsize
        plan = uniform_plan(ds.n)
        assert trace_score_variance(ds, plan, mpl, 200) == pytest.approx(
            trace_score_variance(ds, plan, mpl, 100) / 2.0, rel=1e-12
        )

    def test_uniform_trace_formula(self, midsize):
        ds, mpl = midsize
        norms = oracle_residual_norms(ds, mpl)
        r = 70
        expect = (norms**2).sum() / (r * ds.n)
        got = trace_score_variance(ds, uniform_plan(ds.n), mpl, r)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_zero_covariates_fall_back_with_warning(self):
        rng = np.random.default_rng(11)
        n = 30
        time = rng.exponential(1.0, n)
        status = np.ones(n, dtype=int)
        ds = SurvivalDataset(covariates=np.zeros((n, 1)), time=time, status=status)
        from coxsub import CoxFit

        mpl = CoxFit(
            beta=np.zeros(1),
            role="full_mpl",
            converged=True,
            iterations=0,
            final_score_norm=0.0,
            neg_logpl=0.0,
            hessian=np.eye(1),
        )
        with pytest.warns(UserWarning, match="uniform"):
            plan = oracle_lopt_probs(ds, mpl)
        np.testing.assert_allclose(plan.probs, 1.0 / n)

    def test_aopt_oracle_runs(self, midsize):
        ds, mpl = midsize
        plan = oracle_aopt_probs(ds, mpl)
        assert abs(plan.probs.sum() - 1.0) <= 1e-12

    def test_aopt_plans_match_dense_metric(self, midsize):
        """The A-optimal plan, and the norm kernel on full-data tables, are the
        normalised norms of Psi^-1 times each residual."""
        from coxsub import breslow

        ds, mpl = midsize
        ctx = fit_pilot(ds, draw_uniform(ds, 80, np.random.default_rng(12)))
        full_xbar = breslow.RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), mpl.beta)
        full_cumhaz = breslow.breslow_cumhaz(ds, mpl.beta)
        full_metric = np.linalg.inv(mpl.hessian)
        full_norms = breslow.score_residual_norms(ds, full_xbar, full_cumhaz, mpl.beta, full_metric)
        cases = [
            (compute_aopt_probs(ds, ctx, 0.1).probs, ctx.xbar, ctx.pilot_cumhaz, ctx.fit.beta,
             ctx.fit.hessian, 0.1),
            (full_norms / full_norms.sum(), full_xbar, full_cumhaz, mpl.beta, mpl.hessian, 0.0),
        ]
        for probs, xbar, cumhaz, beta, psi, delta in cases:
            resids = breslow.score_residuals(ds, xbar, cumhaz, beta)
            norms = np.linalg.norm(np.linalg.solve(psi, resids.T).T, axis=1)
            expect = (1.0 - delta) * norms / norms.sum() + delta / ds.n
            np.testing.assert_allclose(probs, expect, rtol=1e-10)


class TestDrawWeighted:
    def test_degenerate_plan(self):
        probs = np.zeros(8)
        probs[5] = 1.0
        plan = SubsamplePlan(probs=probs, delta=0.0)
        sub = draw_weighted(plan, 20, np.random.default_rng(0))
        assert np.all(sub.indices == 5)
        np.testing.assert_allclose(sub.weights, 1.0 / 8.0)

    def test_uniform_plan_weights_are_one(self):
        plan = uniform_plan(50)
        sub = draw_weighted(plan, 30, np.random.default_rng(1))
        np.testing.assert_allclose(sub.weights, 1.0)

    def test_chi_square_goodness_of_fit(self):
        from scipy import stats

        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(100) * 5)
        plan = SubsamplePlan(probs=probs, delta=0.0)
        draws = 200_000
        sub = draw_weighted(plan, draws, np.random.default_rng(3))
        counts = np.bincount(sub.indices, minlength=100)
        chi2 = ((counts - draws * probs) ** 2 / (draws * probs)).sum()
        p = stats.chi2.sf(chi2, df=99)
        assert p > 0.001

    def test_weights_match_inverse_probabilities(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(40))
        plan = SubsamplePlan(probs=probs, delta=0.0)
        sub = draw_weighted(plan, 60, rng)
        np.testing.assert_allclose(sub.weights, 1.0 / (40 * probs[sub.indices]), rtol=1e-15)


class TestWeightedFit:
    def test_full_data_each_once_uniform_reproduces_mpl(self, midsize):
        ds, mpl = midsize
        sub = Subsample(indices=np.arange(ds.n), weights=np.ones(ds.n))
        fit = weighted_fit(ds, sub)
        np.testing.assert_allclose(fit.beta, mpl.beta, atol=1e-8)

    def test_single_draw_raises(self, midsize):
        ds, _ = midsize
        sub = Subsample(indices=np.array([0]), weights=np.array([1.0]))
        with pytest.raises(NumericsError, match="risk-set variation"):
            weighted_fit(ds, sub)

    def test_non_integer_indices_rejected(self, midsize):
        ds, _ = midsize
        with pytest.raises(ValueError, match="indices must be integers"):
            Subsample(indices=np.array([0.0, 1.0]), weights=np.ones(2))
        for subset in (np.ones(ds.n, dtype=bool), np.arange(ds.n, dtype=np.float64)):
            with pytest.raises(ValueError, match="integer index array"):
                newton_solve(ds, subset=subset)

    def test_warm_start_init(self, midsize):
        ds, mpl = midsize
        rng = np.random.default_rng(5)
        ctx = fit_pilot(ds, draw_uniform(ds, 80, rng))
        plan = compute_lopt_probs(ds, ctx, 0.1)
        sub = draw_weighted(plan, 150, rng)
        fit = weighted_fit(ds, sub, init=ctx.fit.beta)
        assert fit.converged and fit.role == "two_step"


class TestCovariance:
    def _pieces(self, seed=6, n=500, r=200):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=n, p=2, cr=0.25)
        ctx = fit_pilot(ds, draw_uniform(ds, 80, rng))
        plan = compute_lopt_probs(ds, ctx, 0.1)
        sub = draw_weighted(plan, r, rng)
        fit = weighted_fit(ds, sub, init=ctx.fit.beta)
        return ds, ctx, plan, sub, fit

    def test_shapes_and_symmetry(self):
        ds, ctx, plan, sub, fit = self._pieces()
        cov = estimate_covariance(ds, ctx, sub, fit)
        assert cov.covariance.shape == (2, 2)
        np.testing.assert_allclose(cov.covariance, cov.covariance.T, atol=1e-15)
        np.testing.assert_allclose(cov.curvature, cov.curvature.T, atol=1e-15)
        assert np.all(np.linalg.eigvalsh(cov.score_outer) >= -1e-15)
        np.testing.assert_allclose(
            cov.standard_errors, np.sqrt(np.diag(cov.covariance)), rtol=1e-14
        )
        sandwich = np.linalg.inv(cov.curvature) @ cov.score_outer @ np.linalg.inv(cov.curvature)
        np.testing.assert_allclose(cov.covariance, sandwich, rtol=1e-9)

    def test_requires_converged_fit(self):
        ds, ctx, plan, sub, fit = self._pieces()
        from dataclasses import replace

        broken = replace(fit, converged=False)
        with pytest.raises(ValueError, match="converged"):
            estimate_covariance(ds, ctx, sub, broken)

    def test_weight_scaling_identity(self):
        # halving every probability doubles curvature, quadruples the outer
        # term, and leaves the covariance invariant
        ds, ctx, plan, sub, fit = self._pieces()
        cov = estimate_covariance(ds, ctx, sub, fit)
        doubled = Subsample(
            indices=sub.indices, weights=2.0 * sub.weights
        )
        fit2 = weighted_fit(ds, doubled, init=fit.beta)
        np.testing.assert_allclose(fit2.beta, fit.beta, atol=1e-9)
        cov2 = estimate_covariance(ds, ctx, doubled, fit2)
        np.testing.assert_allclose(cov2.curvature, 2.0 * cov.curvature, rtol=1e-7)
        np.testing.assert_allclose(cov2.score_outer, 4.0 * cov.score_outer, rtol=1e-6)
        np.testing.assert_allclose(cov2.covariance, cov.covariance, rtol=1e-6)

    def test_zero_residuals_zero_middle_term(self, monkeypatch):
        ds, ctx, plan, sub, fit = self._pieces()
        monkeypatch.setattr(
            "coxsub.subsampling.score_residuals",
            lambda *a, **k: np.zeros((sub.size, ds.p)),
        )
        cov = estimate_covariance(ds, ctx, sub, fit)
        assert np.all(cov.score_outer == 0.0)
        np.testing.assert_allclose(cov.covariance, 0.0, atol=1e-300)

    @pytest.mark.montecarlo
    def test_se_tracks_empirical_sd_scalar_model(self):
        # single-covariate study: mean estimated SE within 20% of the
        # empirical SD of the estimates across replications
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=20_000, p=1, cr=0.25)
        reps = 500
        root = np.random.SeedSequence(77)
        ests, ses = [], []
        for s in root.spawn(reps):
            res = two_step(ds, 150, 400, 0.1, "lopt", np.random.default_rng(s))
            ests.append(res.fit.beta[0])
            ses.append(res.covariance.standard_errors[0])
        ratio = np.mean(ses) / np.std(ests, ddof=1)
        assert 0.8 < ratio < 1.2


class TestTwoStep:
    def test_deterministic_given_seed(self, midsize):
        ds, _ = midsize
        a = two_step(ds, 60, 150, 0.1, "lopt", np.random.default_rng(123))
        b = two_step(ds, 60, 150, 0.1, "lopt", np.random.default_rng(123))
        assert np.array_equal(a.fit.beta, b.fit.beta)
        assert np.array_equal(a.subsample.indices, b.subsample.indices)
        np.testing.assert_array_equal(a.covariance.covariance, b.covariance.covariance)

    def test_unif_criterion_equals_delta_one(self, midsize):
        ds, _ = midsize
        a = two_step(ds, 60, 150, 1.0, "lopt", np.random.default_rng(321))
        b = two_step(ds, 60, 150, 0.4, "unif", np.random.default_rng(321))
        assert np.array_equal(a.subsample.indices, b.subsample.indices)
        assert np.array_equal(a.fit.beta, b.fit.beta)

    def test_timings_phases_present(self, midsize):
        ds, _ = midsize
        res = two_step(ds, 60, 150, 0.1, "aopt", np.random.default_rng(5))
        assert set(res.timings) == {
            "pilot_fit",
            "probability_pass",
            "draw",
            "second_fit",
            "covariance",
        }

    def test_phase_label_on_pilot_failure(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=200, p=2, cr=0.95)
        with pytest.raises(TwoStepError, match=r"\[pilot_fit\]"):
            # pilot of all-censored draws cannot be fit
            two_step(ds, 2, 50, 0.1, "lopt", np.random.default_rng(1))

    def test_nonconverged_second_fit_raises_at_its_phase(self, midsize, monkeypatch):
        ds, _ = midsize
        monkeypatch.setattr(subsampling, "weighted_fit", at_iteration_limit(weighted_fit, monkeypatch))
        message = r"^\[second_fit\] did not converge after 0 iterations \(score sup-norm [^)]+\): iteration limit \(0\)"
        with pytest.raises(TwoStepError, match=message) as exc:
            two_step(ds, 60, 150, 0.1, "lopt", np.random.default_rng(5))
        assert exc.value.phase == "second_fit"

    def test_pilot_not_merged_into_second_stage(self, midsize):
        ds, _ = midsize
        res = two_step(ds, 60, 150, 0.1, "lopt", np.random.default_rng(9))
        assert res.subsample.size == 150
        assert res.pilot.pilot_indices.size == 60

    def test_invalid_arguments(self, midsize):
        ds, _ = midsize
        with pytest.raises(ValueError, match="criterion"):
            two_step(ds, 60, 150, 0.1, "bogus", np.random.default_rng(0))
        with pytest.raises(ValueError, match="delta"):
            two_step(ds, 60, 150, 1.5, "lopt", np.random.default_rng(0))


@pytest.mark.montecarlo
class TestReferenceDesign:
    """Replication-level behaviour at the reference simulated design."""

    def test_unbiasedness_and_ese_ratio(self, case1_cfg):
        from coxsub import run_replications

        lopt = run_replications(
            case1_cfg, "lopt", r0=300, r=1000, delta=0.1, n_reps=200, seed=6012, mode="fixed"
        )
        unif = run_replications(
            case1_cfg, "unif", r0=300, r=1000, delta=0.1, n_reps=200, seed=6012, mode="fixed"
        )
        # per-coordinate bias against the full-data estimate within 3 ESE
        assert np.all(np.abs(lopt.bias) < 3.0 * lopt.ese)
        assert lopt.mse < unif.mse
        ratio = lopt.ese[0] / unif.ese[0]
        assert 0.72 <= ratio <= 0.92


class TestConditionalUnbiasedness:
    def test_weighted_score_mean_matches_full_score(self, midsize):
        """Mean of importance-weighted subsample scores equals the full-data
        score (full-data centring), within Monte Carlo error."""
        ds, mpl = midsize
        rng = np.random.default_rng(10)
        beta = mpl.beta + 0.3
        from coxsub.breslow import breslow_cumhaz, score_residuals
        from coxsub.breslow import RiskSetMean

        xbar = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), beta)
        ch = breslow_cumhaz(ds, beta)
        resids = score_residuals(ds, xbar, ch, beta)
        from coxsub import score

        target = score(ds, beta)
        ctx = fit_pilot(ds, draw_uniform(ds, 60, rng))
        plan = compute_lopt_probs(ds, ctx, 0.1)
        r = 40
        reps = 1500
        samples = np.empty((reps, ds.p))
        for b in range(reps):
            sub = draw_weighted(plan, r, rng)
            samples[b] = -(resids[sub.indices] / (ds.n * plan.probs[sub.indices][:, None])).mean(
                axis=0
            )
        mc_se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(samples.mean(axis=0) - target) < 4.0 * mc_se)


class TestPinnedOutputs:
    """Recorded estimates and draws that a reordering of the sweep's sums
    must keep.

    The full-data estimate may move in its last bits, the drawn indices not
    at all: the A-optimal plan reads the pilot curvature, and the README
    promises the same draws for the same seed.
    """

    BETA = [-0.985112218034815, -0.5062978895014274, -0.0018393661481099872,
            0.49464605958995267, 0.9929171883586824]
    DRAW_SHA256 = {
        ("lopt", 3): "ed0ef23358bcb14955679f7fe9c9e4bf6ce0d0860f2501e8265ccf1f8c058e25",
        ("lopt", 4): "8f2aa44fb8c2299b60c8b320a01ce3f173f7db427c4d9d6d7eaaa6f64daf1f1a",
        ("aopt", 3): "62200d24807cf816f09bad5d5ebbe1c6969b5062b9549ade3709811c0302af61",
        ("aopt", 4): "4f65671f0406cfb29bc2d2041ad31f7f4a92c280c9fb6cff4e2c795a2362ad47",
    }

    @pytest.fixture(scope="class")
    def pinned_ds(self):
        # case I at n = 10^5 with a fixed censoring bound: no calibration run
        cfg = SimConfig(case="I", n=100_000, target_cr=0.2, c0=10.0, seed=0)
        return gen_dataset(cfg, np.random.default_rng(909))

    def test_full_fit_beta(self, pinned_ds):
        fit = newton_solve(pinned_ds)
        assert fit.converged and fit.iterations == 3
        np.testing.assert_allclose(fit.beta, self.BETA, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("criterion, seed", sorted(DRAW_SHA256))
    def test_two_step_draws(self, pinned_ds, criterion, seed):
        res = two_step(pinned_ds, 300, 1000, 0.1, criterion, np.random.default_rng(seed))
        drawn = np.ascontiguousarray(res.subsample.indices, dtype="<i8").tobytes()
        assert hashlib.sha256(drawn).hexdigest() == self.DRAW_SHA256[criterion, seed]

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsub import partial_likelihood
from coxsub import (
    NumericsError,
    SingularHessianError,
    SurvivalDataset,
    hessian,
    neg_log_partial_likelihood,
    newton_solve,
    score,
)
from coxsub.breslow import RiskSetMean, breslow_cumhaz, score_residual_norms, score_residuals
from coxsub.partial_likelihood import _run_starts, _SortedRows, _Sweep
from coxsub.subsampling import two_step

from conftest import random_dataset
from oracles import (
    finite_diff_grad,
    finite_diff_jacobian,
    naive_hessian,
    naive_neg_logpl,
    naive_score,
    risk_set_sums,
)


def sweep_sums(ds, beta, weights=None, subset=None):
    """The sweep's S0 and S1 at each distinct event time, scaled like the oracle's."""
    rows = _SortedRows.of_dataset(ds, weights, subset)
    sweep = _Sweep(rows, beta)
    starts = np.unique(rows.event_risk_start)
    s0 = sweep.s0(starts) * (np.exp(sweep.shift) / rows.total_weight)
    return rows.time[starts], s0, sweep.means(starts) * s0[:, None]


@pytest.fixture
def two_record_ds():
    # Y=(1,2), events both, scalar covariate (1,0)
    return SurvivalDataset(covariates=[[1.0], [0.0]], time=[1.0, 2.0], status=[1, 1])


class TestHandValues:
    def test_risk_set_sums(self, two_record_ds):
        s = risk_set_sums(two_record_ds, np.zeros(1))
        assert s.event_times.tolist() == [1.0, 2.0]
        assert s.s0.tolist() == [1.0, 0.5]
        assert s.s1.ravel().tolist() == [0.5, 0.0]
        assert s.tau == 2.0
        times, s0, s1 = sweep_sums(two_record_ds, np.zeros(1))
        assert times.tolist() == [1.0, 2.0]
        assert s0.tolist() == [1.0, 0.5]
        assert s1.ravel().tolist() == [0.5, 0.0]

    def test_neg_logpl(self, two_record_ds):
        val = neg_log_partial_likelihood(two_record_ds, np.zeros(1))
        assert val == pytest.approx(np.log(2.0) / 2.0, abs=1e-15)

    def test_score(self, two_record_ds):
        assert score(two_record_ds, np.zeros(1))[0] == pytest.approx(-0.25, abs=1e-15)

    def test_hessian(self, two_record_ds):
        assert hessian(two_record_ds, np.zeros(1))[0, 0] == pytest.approx(0.125, abs=1e-15)


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_unit_weight_values(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=40, p=3, ties=bool(seed % 2))
        beta = rng.normal(0, 0.5, 3)
        t, s, X = ds.time, ds.status, ds.covariates
        assert neg_log_partial_likelihood(ds, beta) == pytest.approx(
            naive_neg_logpl(t, s, X, beta), rel=1e-12
        )
        np.testing.assert_allclose(score(ds, beta), naive_score(t, s, X, beta), rtol=1e-11, atol=1e-14)
        np.testing.assert_allclose(
            hessian(ds, beta), naive_hessian(t, s, X, beta), rtol=1e-10, atol=1e-14
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_multiset_values(self, seed):
        rng = np.random.default_rng(100 + seed)
        ds = random_dataset(rng, n=30, p=2)
        idx = rng.integers(0, ds.n, 50)
        w = rng.uniform(0.2, 3.0, 50)
        t, s, X = ds.time[idx], ds.status[idx], ds.covariates[idx]
        beta = rng.normal(0, 0.5, 2)
        np.testing.assert_allclose(
            score(ds, beta, weights=w, subset=idx), naive_score(t, s, X, beta, w), rtol=1e-10, atol=1e-14
        )
        np.testing.assert_allclose(
            hessian(ds, beta, weights=w, subset=idx),
            naive_hessian(t, s, X, beta, w),
            rtol=1e-9,
            atol=1e-13,
        )
        assert neg_log_partial_likelihood(ds, beta, weights=w, subset=idx) == pytest.approx(
            naive_neg_logpl(t, s, X, beta, w, n_ref=ds.n), rel=1e-12
        )


# fixed example sequence and no example database: the same cases every run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
BLOCK_SIZES = [1, 2, 3, partial_likelihood._BLOCK_ROWS]


@st.composite
def sweep_cases(draw):
    """A small dataset, an optional multiset and IPW weights, and a beta.

    Covers ties, a single event, every record an event and covariates far
    from the origin or on a tiny scale.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    p = draw(st.integers(1, 3))
    if draw(st.booleans()):
        time = rng.integers(0, max(2, n // 3), n).astype(float)  # many ties
    else:
        time = rng.exponential(1.0, n)
    events = draw(st.sampled_from(["one", "some", "all"]))
    if events == "one":
        status = np.zeros(n, dtype=int)
        status[rng.integers(n)] = 1
    elif events == "some":
        status = (rng.random(n) < 0.5).astype(int)
    else:
        status = np.ones(n, dtype=int)
    offset = draw(st.sampled_from([0.0, 30.0, -30.0]))
    scale = draw(st.sampled_from([1.0, 1e-3]))
    X = offset + scale * rng.normal(size=(n, p))
    # on a tiny scale beta grows so that the risks still differ, but not
    # with an offset, where the unshifted oracle would overflow
    beta = rng.uniform(-1.0, 1.0, p) / (scale if offset == 0.0 else 1.0)
    subset = rng.integers(0, n, draw(st.integers(1, 30))) if draw(st.booleans()) else None
    m = n if subset is None else subset.size
    weights = rng.uniform(0.2, 3.0, m) if draw(st.booleans()) else None
    return SurvivalDataset(covariates=X, time=time, status=status), beta, weights, subset


class TestBlockedSweepAgainstOracle:
    """Criterion, score, curvature and risk-set means at any block size
    equal the double loops.

    Blocks of one to three rows put tie groups across block boundaries and
    risk-set starts in earlier blocks than their events.  Tolerances scale
    with the covariate magnitude, the cancellation both sides share.
    """

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @PROPERTY
    @given(case=sweep_cases())
    def test_matches_double_loops(self, block, case):
        ds, beta, weights, subset = case
        idx = np.arange(ds.n) if subset is None else subset
        t, s, X = ds.time[idx], ds.status[idx], ds.covariates[idx]
        mag = 1.0 + float(np.abs(X).max())
        with mock.patch.object(partial_likelihood, "_BLOCK_ROWS", block):
            nll = neg_log_partial_likelihood(ds, beta, weights, subset)
            grad = score(ds, beta, weights, subset)
            curv = hessian(ds, beta, weights, subset)
            times, s0, s1 = sweep_sums(ds, beta, weights, subset)
        n_ref = None if weights is None else ds.n
        expect_nll = naive_neg_logpl(t, s, X, beta, weights, n_ref)
        assert nll == pytest.approx(expect_nll, rel=1e-10, abs=1e-12 * mag)
        np.testing.assert_allclose(grad, naive_score(t, s, X, beta, weights), rtol=1e-9, atol=1e-12 * mag)
        expect_curv = naive_hessian(t, s, X, beta, weights)
        np.testing.assert_allclose(curv, expect_curv, rtol=1e-9, atol=1e-12 * mag**2)
        oracle = risk_set_sums(ds, beta, weights, subset)
        assert np.array_equal(times, oracle.event_times)
        np.testing.assert_allclose(
            s1 / s0[:, None], oracle.s1 / oracle.s0[:, None], rtol=1e-10, atol=1e-12 * mag
        )


class TestSortedRows:
    @PROPERTY
    @given(case=sweep_cases())
    def test_event_risk_start_is_first_row_of_tie_group(self, case):
        # tied times, index subsets and with-replacement multisets
        ds, _, weights, subset = case
        rows = [_SortedRows.of_dataset(ds, weights, subset)]
        if subset is not None:
            # the same records as a dataset of their own
            sub_ds = SurvivalDataset(
                covariates=ds.covariates[subset], time=ds.time[subset], status=ds.status[subset]
            )
            rows.append(_SortedRows.of_dataset(sub_ds))
        for r in rows:
            expect = np.searchsorted(r.time, r.time[r.status == 1], side="left")
            assert np.array_equal(r.event_risk_start, expect) and r.n_events == expect.size


    def test_full_data_rows_are_built_once_per_dataset(self):
        ds = random_dataset(np.random.default_rng(8), n=50, p=2, ties=True)
        rows = _SortedRows.of_dataset(ds)
        assert _SortedRows.of_dataset(ds) is rows
        # the risk-set starts are the rows' only per-event index
        assert rows.event_risk_start.dtype == np.intp and not rows.event_risk_start.flags.writeable
        assert not hasattr(rows, "event_rows")
        # weighted and subset rows are built per call
        assert _SortedRows.of_dataset(ds, np.ones(ds.n)) is not rows
        assert _SortedRows.of_dataset(ds, subset=np.arange(ds.n)) is not rows

    def test_full_data_calls_reuse_the_cached_rows(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=50, p=2)
        _SortedRows.of_dataset(ds)
        beta = rng.normal(0, 0.5, 2)
        with mock.patch.object(_SortedRows, "__init__", side_effect=AssertionError("rows rebuilt")):
            newton_solve(ds)
            breslow_cumhaz(ds, beta)
            neg_log_partial_likelihood(ds, beta), score(ds, beta), hessian(ds, beta)
            partial_likelihood._fit_at(ds, beta)


class TestReductions:
    def test_zero_covariates_nll_matches_risk_counts(self):
        rng = np.random.default_rng(3)
        n = 25
        time = rng.exponential(1.0, n)
        status = (rng.random(n) < 0.6).astype(int)
        status[0] = 1
        ds = SurvivalDataset(covariates=np.zeros((n, 2)), time=time, status=status)
        for beta in (np.zeros(2), np.array([0.7, -1.2])):
            expected = np.mean(
                [np.log((time >= time[i]).sum()) for i in range(n) if status[i] == 1]
            ) * (status.sum() / n)
            assert neg_log_partial_likelihood(ds, beta) == pytest.approx(expected, rel=1e-12)
            assert np.all(score(ds, beta) == 0.0)

    def test_duplicate_record_with_split_weight_preserves_sums(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n=20, p=2)
        beta = np.array([0.3, -0.4])
        idx = np.arange(ds.n)
        w = rng.uniform(0.5, 2.0, ds.n)
        base = sweep_sums(ds, beta, weights=w, subset=idx)
        # append a duplicate of record 7, splitting its weight in half
        idx2 = np.concatenate([idx, [7]])
        w2 = w.copy()
        w2[7] /= 2.0
        w2 = np.concatenate([w2, [w2[7]]])
        dup = sweep_sums(ds, beta, weights=w2, subset=idx2)
        for a, b in zip(dup, base):
            np.testing.assert_allclose(a, b, rtol=1e-12)
        np.testing.assert_allclose(hessian(ds, beta, w2, idx2), hessian(ds, beta, w, idx), rtol=1e-12)
        oracle = risk_set_sums(ds, beta, weights=w2, subset=idx2)
        np.testing.assert_allclose(dup[1], oracle.s0, rtol=1e-11)
        np.testing.assert_allclose(dup[2], oracle.s1, rtol=1e-11, atol=1e-14)

    def test_unit_vs_explicit_unit_weights(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=30, p=2)
        fit_a = newton_solve(ds)
        fit_b = newton_solve(ds, weights=np.ones(ds.n), subset=np.arange(ds.n))
        np.testing.assert_allclose(fit_a.beta, fit_b.beta, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_weights_give_the_bits_of_explicit_ones(self, seed):
        rng = np.random.default_rng(40 + seed)
        ds = random_dataset(rng, n=50, p=3, ties=bool(seed % 2))
        unit, ones = newton_solve(ds), newton_solve(ds, weights=np.ones(ds.n))
        assert np.array_equal(unit.beta, ones.beta) and unit.neg_logpl == ones.neg_logpl
        assert np.array_equal(unit.hessian, ones.hessian)

    def test_unit_weight_rows_hold_no_weight_buffer(self):
        ds = random_dataset(np.random.default_rng(8), n=40, p=2)
        rows = _SortedRows.of_dataset(ds)
        assert rows.w.strides == (0,) and rows.w.shape == (ds.n,) and not rows.w.flags.writeable
        assert rows.total_weight == ds.n and np.array_equal(rows.event_weights, np.ones(ds.n_events))

    def test_full_data_each_once_uniform_weights_match_exactly(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, n=35, p=3)
        beta = rng.normal(0, 0.4, 3)
        idx = np.arange(ds.n)
        w = np.full(ds.n, 1.0 / (ds.n * (1.0 / ds.n)))  # = 1
        assert neg_log_partial_likelihood(ds, beta, w, idx) == neg_log_partial_likelihood(ds, beta)
        np.testing.assert_array_equal(score(ds, beta, w, idx), score(ds, beta))
        np.testing.assert_array_equal(hessian(ds, beta, w, idx), hessian(ds, beta))


class TestDerivativeChecks:
    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        p = int(rng.integers(1, 5))
        ds = random_dataset(rng, n=int(rng.integers(20, 200)), p=p, ties=bool(seed % 3 == 0))
        beta = rng.uniform(-1, 1, p)
        g = score(ds, beta)
        fd = finite_diff_grad(lambda b: neg_log_partial_likelihood(ds, b), beta, h=1e-6)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_hessian_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        p = int(rng.integers(1, 5))
        ds = random_dataset(rng, n=int(rng.integers(20, 200)), p=p)
        beta = rng.uniform(-1, 1, p)
        H = hessian(ds, beta)
        fd = finite_diff_jacobian(lambda b: score(ds, b), beta, h=1e-5)
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-7)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_per_event_curvature_psd(self, seed):
        rng = np.random.default_rng(400 + seed)
        ds = random_dataset(rng, n=60, p=3)
        beta = rng.normal(0, 0.8, 3)
        sums = risk_set_sums(ds, beta)
        curvature = np.zeros((3, 3))
        for j, t in enumerate(sums.event_times):
            xbar = sums.s1[j] / sums.s0[j]
            bracket = sums.s2[j] / sums.s0[j] - np.outer(xbar, xbar)
            eigs = np.linalg.eigvalsh(bracket)
            assert eigs.min() >= -1e-12
            curvature += np.count_nonzero((ds.time == t) & (ds.status == 1)) * bracket
        # the sweep's curvature is the event-weighted sum of these brackets
        np.testing.assert_allclose(hessian(ds, beta), curvature / ds.n, rtol=1e-10, atol=1e-14)

    def test_s0_non_increasing_with_unit_weights(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=50, p=2, ties=True)
        beta = rng.normal(0, 0.5, 2)
        times, s0, s1 = sweep_sums(ds, beta)
        assert np.all(np.diff(s0) <= 1e-15)
        oracle = risk_set_sums(ds, beta)
        assert np.array_equal(times, oracle.event_times)
        np.testing.assert_allclose(s0, oracle.s0, rtol=1e-12)
        np.testing.assert_allclose(s1, oracle.s1, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        ds = random_dataset(rng, n=70, p=3, ties=True)
        perm = rng.permutation(ds.n)
        ds_p = SurvivalDataset(
            covariates=ds.covariates[perm], time=ds.time[perm], status=ds.status[perm]
        )
        beta = rng.normal(0, 0.5, 3)
        assert neg_log_partial_likelihood(ds_p, beta) == pytest.approx(
            neg_log_partial_likelihood(ds, beta), rel=1e-12
        )
        np.testing.assert_allclose(score(ds_p, beta), score(ds, beta), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(hessian(ds_p, beta), hessian(ds, beta), rtol=1e-12, atol=1e-15)
        fit = newton_solve(ds)
        fit_p = newton_solve(ds_p)
        np.testing.assert_allclose(fit_p.beta, fit.beta, rtol=1e-10, atol=1e-12)


class TestNewtonSolve:
    def test_stationarity_and_minimizer(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=150, p=3)
        fit = newton_solve(ds)
        assert fit.converged
        assert fit.final_score_norm <= 1e-8
        assert np.abs(score(ds, fit.beta)).max() <= 1e-8
        # minimizer probe: no random beta does better
        best = neg_log_partial_likelihood(ds, fit.beta)
        for _ in range(100):
            probe = fit.beta + rng.normal(0, 0.5, 3)
            assert neg_log_partial_likelihood(ds, probe) >= best - 1e-12

    def test_zero_covariates_returns_init(self):
        ds = SurvivalDataset(covariates=np.zeros((10, 2)), time=np.arange(1.0, 11.0), status=[1] * 10)
        fit = newton_solve(ds)
        assert fit.converged and fit.iterations == 0
        assert np.all(fit.beta == 0.0)
        init = np.array([0.5, -0.5])
        fit2 = newton_solve(ds, init=init)
        assert np.array_equal(fit2.beta, init)

    def test_no_events_raises(self):
        ds = SurvivalDataset(covariates=np.ones((5, 1)), time=np.arange(1.0, 6.0), status=[0] * 5)
        with pytest.raises(NumericsError, match="event"):
            newton_solve(ds)

    def test_collinear_covariates_raise_singular(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, 40)
        X = np.column_stack([x, 2 * x])
        tfail = rng.exponential(1.0, 40) * np.exp(-x)
        ds = SurvivalDataset(covariates=X, time=tfail, status=[1] * 40)
        with pytest.raises(SingularHessianError, match="condition number"):
            newton_solve(ds)

    def test_constant_column_gives_zero_row(self):
        rng = np.random.default_rng(10)
        ds0 = random_dataset(rng, n=30, p=1)
        X = np.column_stack([ds0.covariates[:, 0], np.full(ds0.n, 3.7)])
        ds = SurvivalDataset(covariates=X, time=ds0.time, status=ds0.status)
        H = hessian(ds, np.array([0.2, 0.1]))
        np.testing.assert_allclose(H[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(H[:, 1], 0.0, atol=1e-12)

    def test_converged_fit_with_a_constant_covariate_raises_singular(self):
        # the score is zero at the start, so the solve stops before any step;
        # the curvature left is cancellation noise against its moments term
        rng = np.random.default_rng(0)
        status = (np.arange(500) % 5 != 0).astype(int)
        ds = SurvivalDataset(covariates=np.full((500, 1), 2.5), time=rng.exponential(1.0, 500), status=status)
        with pytest.raises(SingularHessianError, match="working precision") as exc:
            newton_solve(ds)
        err = exc.value
        assert abs(err.smallest_eigenvalue) < err.floor == partial_likelihood._SINGULAR_FLOOR
        assert err.cond is not None and "smallest eigenvalue" in str(err)

    def test_one_record_fit_raises_singular(self):
        ds = SurvivalDataset(covariates=[[0.3]], time=[1.5], status=[1])
        with pytest.raises(SingularHessianError, match="not positive definite"):
            newton_solve(ds)

    def test_singular_message_names_the_smallest_eigenvalue(self):
        # a condition number reads 1.0 for every 1x1 matrix; the eigenvalue does not
        with pytest.raises(SingularHessianError, match=r"smallest eigenvalue -2\.300e-16 against a floor of 0") as exc:
            partial_likelihood._require_positive_definite(np.array([[-2.3e-16]]), "test")
        assert exc.value.cond == 1.0

    def test_badly_scaled_covariates_still_converge(self):
        # the floor is judged per covariate scale, so columns 1e11 apart pass
        rng = np.random.default_rng(13)
        ds0 = random_dataset(rng, n=300, p=2)
        X = ds0.covariates * np.array([1e3, 1e-8])
        fit = newton_solve(SurvivalDataset(covariates=X, time=ds0.time, status=ds0.status))
        assert fit.converged and np.all(np.isfinite(fit.standard_errors(ds0.n)))

    def test_iteration_limit_raises(self, monkeypatch):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n=120, p=3)
        monkeypatch.setattr(partial_likelihood, "_MAX_ITER", 1)
        message = r"^did not converge after 1 iterations \(score sup-norm [^)]+\): iteration limit \(1\) reached$"
        with pytest.raises(NumericsError, match=message):
            newton_solve(ds)

    def test_failed_halving_raises(self, monkeypatch):
        # no candidate lowers the criterion by more than one unit past its own size
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n=120, p=3)
        monkeypatch.setattr(partial_likelihood, "_NLL_SLACK", -1.0)
        message = r"^did not converge after 0 iterations \(score sup-norm [^)]+\): step halving failed to lower"
        with pytest.raises(NumericsError, match=message):
            newton_solve(ds)

    def test_step_below_tolerance_raises(self, monkeypatch):
        # the first accepted step counts as below tolerance; the score after it does not
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n=120, p=3)
        monkeypatch.setattr(partial_likelihood, "_TOL_STEP", 1e3)
        message = r"^did not converge after 1 iterations \(score sup-norm [^)]+\): step below tolerance \(1000\)"
        with pytest.raises(NumericsError, match=message):
            newton_solve(ds)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, n=90, p=2)
        a = newton_solve(ds)
        b = newton_solve(ds)
        assert np.array_equal(a.beta, b.beta) and a.iterations == b.iterations

    def test_recovers_simulated_truth(self, case1_ds, case1_cfg, case1_mpl):
        # full-data SE at n=1e5 is ~0.0066 per coordinate; allow 5 sigma
        assert case1_mpl.converged
        assert np.abs(case1_mpl.beta - case1_cfg.beta).max() < 0.05
        ses = case1_mpl.standard_errors(case1_ds.n)
        assert np.all(np.abs(case1_mpl.beta - case1_cfg.beta) < 5 * ses)


def separated_ds(x, time, status):
    return SurvivalDataset(covariates=np.asarray(x, dtype=float)[:, None], time=time, status=status)


@st.composite
def separated_cases(draw):
    """One covariate with two values, 0 and ``scale``: the ``k`` earliest
    records, all events, share one value and every later record has the
    other, so the likelihood is monotone in beta.  Covers ties within a
    group, censoring in the later group, both signs of the divergence and
    three covariate scales."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    k = draw(st.integers(1, n - 1))
    scale = draw(st.sampled_from([0.25, 1.0, 4.0]))
    first = np.sort(rng.exponential(1.0, k))
    later = first[-1] + 1e-3 + np.sort(rng.exponential(1.0, n - k))
    time = np.concatenate([first, later])
    if draw(st.booleans()):
        time = np.round(time, 1)
        time[k:] = np.maximum(time[k:], time[k - 1] + 0.1)
    status = np.concatenate([np.ones(k, dtype=int), (rng.random(n - k) < 0.6).astype(int)])
    x = np.zeros(n)
    if draw(st.booleans()):
        x[:k] = scale  # beta diverges to +inf
    else:
        x[k:] = scale  # beta diverges to -inf
    perm = rng.permutation(n)
    return separated_ds(x[perm], time[perm], status[perm])


class TestMonotoneLikelihood:
    """Separated data: the criterion keeps falling as |beta| grows, so the
    solve must raise, never return a converged estimate."""

    def test_half_ones_failing_first_is_flagged(self):
        # n = 200, every x = 1 record fails before every x = 0 record, all
        # events; without the check the score tolerance stops the solve at
        # beta ~ 20 after 17 iterations and calls it converged
        n = 200
        x = (np.arange(n) < n // 2).astype(float)
        ds = separated_ds(x, np.arange(1.0, n + 1), np.ones(n, dtype=int))
        with pytest.raises(NumericsError, match="monotone likelihood") as exc:
            newton_solve(ds)
        iterations = re.match(r"did not converge after (\d+) iterations", str(exc.value)).group(1)
        assert int(iterations) < 17

    @PROPERTY
    @given(ds=separated_cases())
    def test_every_separated_dataset_is_flagged(self, ds):
        with pytest.raises(NumericsError, match="monotone likelihood"):
            newton_solve(ds)


@pytest.fixture(scope="module")
def traced_ds():
    """2e5 records for the memory guards: p = 5, about 20% censored."""
    rng = np.random.default_rng(21)
    n, p = 200_000, 5
    X = rng.normal(0.0, 0.5, (n, p))
    t_fail = rng.exponential(1.0, n) * np.exp(-(X @ np.linspace(-1.0, 1.0, p)))
    censor = rng.exponential(4.0, n)
    return SurvivalDataset(covariates=X, time=np.minimum(t_fail, censor), status=(t_fail <= censor).astype(int))


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak of the call above the memory already held."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


SWEEP_CALLS = ("nll", "score", "curvature", "s0", "means")


def sweep_call(sweep, name, starts):
    """One of the sweep's answers; ``s0`` and ``means`` are read at ``starts``."""
    return getattr(sweep, name)(starts) if name in ("s0", "means") else getattr(sweep, name)()


class TestSweepBuffers:
    @settings(PROPERTY, max_examples=30)
    @given(case=sweep_cases())
    def test_every_call_order_gives_the_bits_of_a_fresh_sweep(self, case):
        # score() writes over the suffix sums and nll() over the linear
        # predictor at the events; in any order, twice over, and in buffers
        # another sweep has released, each answer is that of a fresh sweep
        # asked nothing else
        ds, beta, weights, subset = case
        rows = _SortedRows.of_dataset(ds, weights, subset)
        starts = _run_starts(rows.time)  # every tie group, as the risk-set mean reads them
        alone = {name: sweep_call(_Sweep(rows, beta), name, starts) for name in SWEEP_CALLS}
        for order in itertools.permutations(SWEEP_CALLS):
            for reused in (False, True):
                buffers = None
                if reused:
                    other = _Sweep(rows, 0.5 * beta)
                    for name in reversed(order):
                        sweep_call(other, name, starts)
                    buffers = other.release()
                sweep = _Sweep(rows, beta, buffers)
                for name in order + order:
                    got = sweep_call(sweep, name, starts)
                    assert np.array_equal(np.asarray(got), np.asarray(alone[name])), (order, reused, name)

    @pytest.mark.parametrize("seed", range(3))
    def test_released_buffers_give_the_bits_of_fresh_ones(self, seed):
        rng = np.random.default_rng(60 + seed)
        ds = random_dataset(rng, n=70, p=3, ties=bool(seed % 2))
        weights = None if seed == 0 else rng.uniform(0.5, 2.0, ds.n)
        rows = _SortedRows.of_dataset(ds, weights)
        b1, b2 = rng.normal(0, 0.5, 3), rng.normal(0, 0.5, 3)
        first = _Sweep(rows, b1)
        first.nll(), first.score(), first.curvature()
        buffers = first.release()
        reused, fresh = _Sweep(rows, b2, buffers), _Sweep(rows, b2)
        assert reused.g is buffers["g"]
        assert reused.nll() == fresh.nll()
        np.testing.assert_array_equal(reused.score(), fresh.score())
        for a, b in zip(reused.curvature(), fresh.curvature()):
            np.testing.assert_array_equal(a, b)

    def test_newton_solve_holds_one_sweep(self, traced_ds):
        # tracemalloc peak of a fit above the dataset and what it caches
        # (built before tracing starts), in n-length float64 arrays: about
        # 5.4 with one sweep's five buffers reused in place (three of n
        # rows, two of one row per event), 4.7 more with fresh arrays per
        # sweep and a candidate sweep beside the current
        ds, n = traced_ds, traced_ds.n
        newton_solve(ds)  # caches the sorted view, the value verdict and the sweep rows
        fit, peak = traced_peak(newton_solve, ds)
        assert fit.converged
        assert peak < 6.5 * 8 * n, f"peak {peak / (8 * n):.2f} n-length arrays"

    @pytest.mark.parametrize("weighted", [False, True])
    def test_a_sweep_owns_five_working_arrays(self, weighted):
        rng = np.random.default_rng(64)
        ds = random_dataset(rng, n=80, p=3, ties=True)
        rows = _SortedRows.of_dataset(ds, rng.uniform(0.5, 2.0, ds.n) if weighted else None)
        sweep = _Sweep(rows, rng.normal(0, 0.5, 3))
        sweep.nll(), sweep.score(), sweep.curvature(), sweep.means(np.unique(rows.event_risk_start))
        sizes = {name: buf.size for name, buf in sweep.release().items()}
        assert sizes == {"g": ds.n, "e0": ds.n, "ga": ds.n, "eta_events": ds.n_events, "denoms": ds.n_events}

    @pytest.mark.parametrize("criterion", ["lopt", "aopt"])
    def test_two_step_holds_few_record_length_arrays(self, traced_ds, criterion):
        # tracemalloc peak of a warm two-step above the dataset and all it
        # caches (sorted view, rank, verdict, sweep rows), in n-length
        # float64 arrays: about 2.1, from the residual-norm pass and the plan
        ds, n = traced_ds, traced_ds.n
        ds.sort_rank(), _SortedRows.of_dataset(ds)
        two_step(ds, 300, 1000, 0.1, criterion, np.random.default_rng(1))
        res, peak = traced_peak(two_step, ds, 300, 1000, 0.1, criterion, np.random.default_rng(2))
        assert np.all((res.covariance.standard_errors > 0.0) & np.isfinite(res.covariance.standard_errors))
        assert peak < 3.0 * 8 * n, f"peak {peak / (8 * n):.2f} n-length arrays"


class TestConcurrentReaders:
    def test_shared_dataset_concurrent_evaluations(self):
        # operations are pure; a shared dataset serves many threads at once
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(14)
        ds = random_dataset(rng, n=400, p=3)
        betas = [rng.normal(0, 0.5, 3) for _ in range(16)]
        serial = [(neg_log_partial_likelihood(ds, b), score(ds, b), hessian(ds, b)) for b in betas]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(
                pool.map(lambda b: (neg_log_partial_likelihood(ds, b), score(ds, b), hessian(ds, b)), betas)
            )
        for (n0, s0, h0), (n1, s1, h1) in zip(serial, threaded):
            assert n0 == n1
            np.testing.assert_array_equal(s0, s1)
            np.testing.assert_array_equal(h0, h1)


class TestNumericalGuards:
    def test_overflow_raises_with_rescaling_advice(self):
        ds = SurvivalDataset(covariates=[[400.0], [-400.0]], time=[1.0, 2.0], status=[1, 1])
        beta = np.array([2.0])
        with pytest.raises(NumericsError, match="rescal"):
            breslow_cumhaz(ds, beta)  # S0 underflows at the second event
        xbar = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), np.zeros(1))
        cumhaz = breslow_cumhaz(ds, np.zeros(1))
        for residual_pass in (score_residuals, score_residual_norms):
            with pytest.raises(NumericsError, match="rescal"):
                residual_pass(ds, xbar, cumhaz, beta)  # exp(800) overflows

    def test_risk_set_sum_too_small_to_square_names_it(self):
        # S0 = exp(-400) at the second event is positive but squares to zero
        ds = SurvivalDataset(covariates=[[400.0], [0.0]], time=[1.0, 2.0], status=[1, 1])
        assert np.isfinite(score(ds, np.array([1.0]))).all()
        with pytest.raises(NumericsError, match="too small for the curvature"):
            hessian(ds, np.array([1.0]))

    def test_overflowing_linear_predictor_names_it(self):
        # finite covariates whose linear predictor is +-inf (or inf - inf)
        X = [[1e200, 1e200], [-1e200, 1e200], [0.0, 0.0], [1.0, 1.0]]
        ds = SurvivalDataset(covariates=X, time=[1.0, 2.0, 3.0, 4.0], status=[1, 1, 1, 1])
        xbar = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), np.zeros(2))
        cumhaz = breslow_cumhaz(ds, np.zeros(2))
        for beta in ([1e200, 0.0], [1e200, 1e200]):
            for residual_pass in (score_residuals, score_residual_norms):
                with pytest.raises(NumericsError, match="non-finite linear predictor; rescale covariates"):
                    residual_pass(ds, xbar, cumhaz, np.array(beta))

    def test_nonfinite_beta_rejected(self, two_record_ds):
        with pytest.raises(ValueError, match="finite"):
            score(two_record_ds, np.array([np.inf]))

    def test_extreme_beta_is_stable_in_ratios(self):
        # stabilised sweep keeps score/hessian finite even when exp would overflow
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, n=50, p=1)
        g = score(ds, np.array([300.0]))
        assert np.all(np.isfinite(g))

    def test_weight_validation(self, two_record_ds):
        with pytest.raises(ValueError, match="positive"):
            score(two_record_ds, np.zeros(1), weights=np.array([1.0, -1.0]), subset=np.array([0, 1]))
        with pytest.raises(ValueError, match="length"):
            score(two_record_ds, np.zeros(1), weights=np.ones(3), subset=np.array([0, 1]))

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsub import breslow, partial_likelihood
from coxsub import (
    NumericsError,
    PilotError,
    SurvivalDataset,
    breslow_cumhaz,
    hessian,
    newton_solve,
    score,
)
from coxsub.breslow import (
    PilotContext,
    RiskSetMean,
    _pilot_tables,
    pilot_breslow,
    score_residual_norms,
    score_residuals,
)
from coxsub.subsampling import draw_uniform, fit_pilot

from conftest import random_dataset
from oracles import (
    naive_breslow,
    naive_nelson_aalen,
    naive_risk_set_mean,
    naive_score_residual,
    risk_set_sums,
)


def full_data_tables(ds, beta):
    xbar = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), beta)
    return xbar, breslow_cumhaz(ds, beta)


class TestBreslow:
    def test_two_record_hand_oracle(self):
        ds = SurvivalDataset(covariates=[[1.0], [0.0]], time=[1.0, 2.0], status=[1, 1])
        ch = breslow_cumhaz(ds, np.zeros(1))
        assert ch(0.5) == 0.0
        assert ch(1.0) == pytest.approx(0.5, abs=1e-15)
        assert ch(2.0) == pytest.approx(1.5, abs=1e-15)
        assert ch(99.0) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_nelson_aalen_equivalence_at_zero_beta(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=60, p=2, ties=bool(seed % 2))
        ch = breslow_cumhaz(ds, np.zeros(2))
        na_times, na_jumps = naive_nelson_aalen(ds.time, ds.status)
        assert np.array_equal(ch.jump_times, na_times)
        np.testing.assert_allclose(ch.jumps, na_jumps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_breslow_at_random_beta(self, seed):
        rng = np.random.default_rng(50 + seed)
        ds = random_dataset(rng, n=45, p=3, ties=True)
        beta = rng.normal(0, 0.5, 3)
        ch = breslow_cumhaz(ds, beta)
        times, jumps = naive_breslow(ds.time, ds.status, ds.covariates, beta)
        assert np.array_equal(ch.jump_times, times)
        np.testing.assert_allclose(ch.jumps, jumps, rtol=1e-11)

    def test_zero_covariates_any_beta_equals_zero_beta(self):
        rng = np.random.default_rng(2)
        n = 30
        time = rng.exponential(1.0, n)
        status = (rng.random(n) < 0.7).astype(int)
        status[0] = 1
        ds = SurvivalDataset(covariates=np.zeros((n, 2)), time=time, status=status)
        a = breslow_cumhaz(ds, np.zeros(2))
        b = breslow_cumhaz(ds, np.array([1.3, -0.4]))
        np.testing.assert_allclose(a.jumps, b.jumps, rtol=1e-12)

    def test_monotone_positive_jumps(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=80, p=2, ties=True)
        ch = breslow_cumhaz(ds, rng.normal(0, 0.5, 2))
        assert np.all(ch.jumps > 0)
        assert np.all(np.diff(ch.jump_times) > 0)
        grid = np.linspace(0, ds.time.max() * 1.2, 50)
        vals = ch(grid)
        assert np.all(np.diff(vals) >= 0)
        assert ch(-1e-9) == 0.0

    def test_no_events_raises(self):
        ds = SurvivalDataset(covariates=np.ones((4, 1)), time=[1.0, 2.0, 3.0, 4.0], status=[0] * 4)
        with pytest.raises(NumericsError, match="no events"):
            breslow_cumhaz(ds, np.zeros(1))

    @pytest.mark.parametrize("beta", [800.0, -800.0])
    def test_vanishing_or_overflowing_jumps_raise(self, beta):
        # exp(-shift) under- or overflows: a numerical failure, not a bad step function
        ds = SurvivalDataset(covariates=[[1.0], [2.0], [1.5]], time=[1.0, 2.0, 3.0], status=[1, 1, 0])
        with pytest.raises(NumericsError, match="hazard increments"):
            breslow_cumhaz(ds, np.array([beta]))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, n=40, p=2)
        ch = breslow_cumhaz(ds, rng.normal(0, 0.3, 2))
        path = tmp_path / "haz.csv"
        ch.write_csv(path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        np.testing.assert_array_equal([float(r[0]) for r in rows], ch.jump_times)
        np.testing.assert_array_equal([float(r[1]) for r in rows], ch.cumulative)


class TestPilotBreslow:
    def test_full_data_each_once_reduces(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n=50, p=2)
        beta = rng.normal(0, 0.5, 2)
        full = breslow_cumhaz(ds, beta)
        pil = pilot_breslow(ds, np.arange(ds.n), beta)
        assert np.array_equal(pil.jump_times, full.jump_times)
        np.testing.assert_allclose(pil.jumps, full.jumps, rtol=1e-12)

    def test_single_event_repeated_gives_unit_jump(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=30, p=2)
        event_idx = int(np.flatnonzero(ds.status == 1)[0])
        pil = pilot_breslow(ds, np.full(7, event_idx), np.zeros(2))
        assert pil.jump_times.tolist() == [ds.time[event_idx]]
        assert pil.jumps[0] == pytest.approx(1.0, abs=1e-15)

    def test_random_pilot_monotone(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, n=100, p=2)
        idx = rng.integers(0, ds.n, 40)
        if not np.any(ds.status[idx] == 1):
            idx[0] = int(np.flatnonzero(ds.status == 1)[0])
        pil = pilot_breslow(ds, idx, np.zeros(2))
        assert np.all(pil.jumps > 0)

    def test_eventless_pilot_raises(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=50, p=1, cr=0.5)
        censored = np.flatnonzero(ds.status == 0)
        with pytest.raises(PilotError, match="increase the pilot"):
            pilot_breslow(ds, censored[:10], np.zeros(1))


class TestRiskSetMean:
    def test_identical_covariate_rows(self):
        time = np.array([1.0, 2.0, 3.0])
        X = np.tile([0.5, -1.0], (3, 1))
        m = RiskSetMean.build(time, X, np.array([0.3, 0.3]))
        for t in (0.1, 1.0, 2.5, 3.0):
            np.testing.assert_allclose(m.at(t), [0.5, -1.0], rtol=1e-15)

    def test_two_record_hand_case(self):
        m = RiskSetMean.build(np.array([1.0, 2.0]), np.array([[1.0], [0.0]]), np.zeros(1))
        assert m.at(0.5)[0] == pytest.approx(0.5, abs=1e-15)
        assert m.at(1.0)[0] == pytest.approx(0.5, abs=1e-15)
        assert m.at(1.5)[0] == pytest.approx(0.0, abs=1e-15)

    def test_full_data_matches_risk_set_ratio(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=40, p=2)
        beta = rng.normal(0, 0.5, 2)
        m = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), beta)
        sums = risk_set_sums(ds, beta)
        for j, t in enumerate(sums.event_times):
            np.testing.assert_allclose(m.at(t), sums.s1[j] / sums.s0[j], rtol=1e-11)

    def test_clamping_counts(self):
        m = RiskSetMean.build(np.array([1.0, 2.0]), np.array([[1.0], [0.0]]), np.zeros(1))
        m.at(5.0)
        m.at(np.array([0.5, 7.0, 9.0]))
        assert m.clamped_queries == 3

    def test_broken_time_rejected(self):
        # the rows go through the dataset checks, like every other sweep
        with pytest.raises(ValueError, match="time at row 1 is not finite"):
            RiskSetMean.build(np.array([1.0, np.nan]), np.array([[1.0], [0.0]]), np.zeros(1))


class TestPilotContext:
    def test_pilot_xbar_full_data_reduction(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=40, p=2)
        sub = draw_uniform(ds, 500, np.random.default_rng(1))
        ctx = fit_pilot(ds, sub)
        t = float(np.median(ds.time))
        got = ctx.tables_at(ctx.fit.beta)[1].at(t)
        # direct ratio over the pilot multiset
        idx = ctx.pilot_indices
        at_risk = ds.time[idx] >= t
        e = np.exp(ds.covariates[idx] @ ctx.fit.beta)
        expect = (e[at_risk, None] * ds.covariates[idx][at_risk]).sum(0) / e[at_risk].sum()
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_tables_at_other_beta_rebuild(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n=60, p=2)
        ctx = fit_pilot(ds, draw_uniform(ds, 40, np.random.default_rng(3)))
        other = ctx.fit.beta + 0.25
        ch, xb = ctx.tables_at(other)
        # the same sorted pilot rows behind all three: equal to the last bit
        direct = pilot_breslow(ds, ctx.pilot_indices, other)
        assert np.array_equal(ch.jump_times, direct.jump_times)
        assert np.array_equal(ch.jumps, direct.jumps)
        rebuilt = PilotContext.from_fit(ds, ctx.pilot_indices, replace(ctx.fit, beta=other))
        assert np.array_equal(xb.times, rebuilt.xbar.times)
        assert np.array_equal(xb.values, rebuilt.xbar.values)
        same_ch, same_xb = ctx.tables_at(ctx.fit.beta)
        assert same_ch is ctx.pilot_cumhaz and same_xb is ctx.xbar

    def test_pilot_estimate_cannot_change_under_its_tables(self):
        ds = random_dataset(np.random.default_rng(12), n=60, p=2)
        ctx = fit_pilot(ds, draw_uniform(ds, 40, np.random.default_rng(3)))
        # tables_at returns the cached tables for a beta equal to fit.beta
        with pytest.raises(ValueError, match="read-only"):
            ctx.fit.beta[0] += 1.0
        assert ctx.tables_at(ctx.fit.beta)[0] is ctx.pilot_cumhaz

    @pytest.mark.parametrize("seed", range(3))
    def test_tables_from_one_sweep_match_oracles(self, seed):
        # hazard and risk-set mean of a tied with-replacement pilot, at the
        # pilot estimate and at another beta, against the brute-force loops
        rng = np.random.default_rng(90 + seed)
        ds = random_dataset(rng, n=80, p=2, ties=True)
        ctx = fit_pilot(ds, draw_uniform(ds, 50, rng))
        idx = ctx.pilot_indices
        for beta in (ctx.fit.beta, ctx.fit.beta + rng.normal(0, 0.3, 2)):
            cumhaz, xbar = ctx.tables_at(beta)
            times, jumps = naive_breslow(ds.time[idx], ds.status[idx], ds.covariates[idx], beta)
            assert np.array_equal(cumhaz.jump_times, times)
            np.testing.assert_allclose(cumhaz.jumps, jumps, rtol=1e-12)
            sums = risk_set_sums(ds, beta, subset=idx)
            np.testing.assert_allclose(xbar.at(sums.event_times), sums.s1 / sums.s0[:, None], rtol=1e-11)
            assert np.array_equal(xbar.times, np.unique(ds.time[idx]))


class TestScoreResiduals:
    def test_censored_before_first_jump_is_zero(self):
        rng = np.random.default_rng(12)
        base = random_dataset(rng, n=50, p=2)
        time = base.time.copy()
        status = base.status.copy()
        time[3] = base.time[base.status == 1].min() / 2.0  # precedes every event
        status[3] = 0
        ds = SurvivalDataset(covariates=base.covariates, time=time, status=status)
        beta = rng.normal(0, 0.4, 2)
        xbar, ch = full_data_tables(ds, beta)
        assert ds.time[3] < ch.jump_times[0]
        assert np.all(score_residuals(ds, xbar, ch, beta, subset=np.array([3]))[0] == 0.0)

    def test_zero_covariates_all_residuals_zero(self):
        n = 20
        rng = np.random.default_rng(13)
        time = rng.exponential(1.0, n)
        status = (rng.random(n) < 0.7).astype(int)
        status[0] = 1
        ds = SurvivalDataset(covariates=np.zeros((n, 2)), time=time, status=status)
        beta = np.array([0.5, -0.5])
        xbar, ch = full_data_tables(ds, beta)
        assert np.all(score_residuals(ds, xbar, ch, beta) == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_per_record(self, seed):
        rng = np.random.default_rng(60 + seed)
        ds = random_dataset(rng, n=30, p=2, ties=bool(seed % 2))
        beta = rng.normal(0, 0.5, 2)
        xbar, ch = full_data_tables(ds, beta)
        got = score_residuals(ds, xbar, ch, beta)
        for i in range(ds.n):
            expect = naive_score_residual(
                ds.time, ds.status, ds.covariates, i, xbar.at, ch.jump_times, ch.jumps, beta
            )
            np.testing.assert_allclose(got[i], expect, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_sum_identity(self, seed):
        # sum of residuals equals -n * score for any beta, full-data tables
        rng = np.random.default_rng(70 + seed)
        ds = random_dataset(rng, n=50, p=3, ties=bool(seed % 3 == 0))
        beta = rng.normal(0, 0.6, 3)
        xbar, ch = full_data_tables(ds, beta)
        total = score_residuals(ds, xbar, ch, beta).sum(axis=0)
        np.testing.assert_allclose(total, -ds.n * score(ds, beta), atol=1e-10)

    def test_residuals_vanish_at_mpl(self):
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, n=80, p=2)
        fit = newton_solve(ds)
        xbar, ch = full_data_tables(ds, fit.beta)
        total = score_residuals(ds, xbar, ch, fit.beta).sum(axis=0)
        np.testing.assert_allclose(total, 0.0, atol=1e-6 * ds.n)

    @pytest.mark.parametrize("seed", range(4))
    def test_norms_agree_with_matrix_path(self, seed):
        rng = np.random.default_rng(80 + seed)
        ds = random_dataset(rng, n=400, p=3, ties=True)
        beta = rng.normal(0, 0.4, 3)
        idx = rng.integers(0, ds.n, 60)
        if not np.any(ds.status[idx] == 1):
            idx[0] = int(np.flatnonzero(ds.status == 1)[0])
        ch = pilot_breslow(ds, idx, beta)
        xb1 = RiskSetMean.build(ds.time[idx], np.ascontiguousarray(ds.covariates[idx]), beta)
        resids = score_residuals(ds, xb1, ch, beta)
        # L-optimal norms, then A-optimal ones in the pilot curvature's metric
        for psi in (None, hessian(ds, beta, subset=idx)):
            xb2 = RiskSetMean.build(ds.time[idx], np.ascontiguousarray(ds.covariates[idx]), beta)
            ref = np.linalg.norm(resids if psi is None else np.linalg.solve(psi, resids.T).T, axis=1)
            got = score_residual_norms(ds, xb2, ch, beta, inverse(psi))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * max(1.0, ref.max()))
            assert np.array_equal(ref == 0.0, got == 0.0)
            assert xb1.clamped_queries == xb2.clamped_queries


# fixed example sequence and no example database: the same cases every run
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# (rows per block, sort rank cached before the call?): tiny blocks split
# every run into runs of one to three records; a cold call builds the
# dataset's sort rank, a warm one reuses it
BLOCK_ROWS = partial_likelihood._BLOCK_ROWS
KERNELS = [(1, True), (2, True), (3, True), (BLOCK_ROWS, True), (3, False), (BLOCK_ROWS, False)]


def inverse(psi):
    """The metric ``score_residual_norms`` takes for the curvature ``psi``."""
    return None if psi is None else np.linalg.inv(psi)


@st.composite
def pilot_cases(draw):
    """Data with ties, a small pilot multiset holding an event, a beta and a metric.

    The pilot rows are data rows, so records tie with jump times and knots.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 3))
    ds = random_dataset(rng, n=n, p=p, cr=draw(st.sampled_from([0.0, 0.3, 2.0])), ties=draw(st.booleans()))
    idx = rng.integers(0, n, draw(st.integers(1, 8)))
    if not np.any(ds.status[idx] == 1):
        idx[0] = rng.choice(np.flatnonzero(ds.status == 1))
    beta = rng.normal(0.0, 0.5, p)
    M = rng.normal(size=(p, p))
    metric = M @ M.T + np.eye(p) if draw(st.booleans()) else None
    return ds, idx, beta, metric


def pilot_tables(ds, idx, beta):
    xbar = RiskSetMean.build(ds.time[idx], np.ascontiguousarray(ds.covariates[idx]), beta)
    return xbar, pilot_breslow(ds, idx, beta)


def dense_norms(ds, idx, beta, psi):
    """Norms of the dense residual matrix, in the metric when one is given."""
    xbar, cumhaz = pilot_tables(ds, idx, beta)
    resids = score_residuals(ds, xbar, cumhaz, beta)
    return np.linalg.norm(resids if psi is None else np.linalg.solve(psi, resids.T).T, axis=1)


def clamped_events(ds, xbar):
    """Events after the last knot, whose risk-set mean is clamped."""
    return int(np.count_nonzero((ds.status == 1) & (ds.time > xbar.times[-1])))


@st.composite
def grid_cases(draw):
    """Times on a grid of five values, so events tie with events and with
    censorings; n may be 1.  Half of the pilots hold only records up to a
    cut time, so events after it clamp to the last knot of the mean.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 3))
    time = rng.integers(1, 6, n).astype(np.float64)
    status = rng.integers(0, 2, n)
    status[rng.integers(n)] = 1
    ds = SurvivalDataset(covariates=rng.normal(0.0, 0.6, (n, p)), time=time, status=status)
    cut = time.max() if draw(st.booleans()) else time[status == 1].min()
    pool = np.flatnonzero(time <= cut)
    idx = rng.choice(pool, draw(st.integers(1, 6)))
    if not np.any(status[idx] == 1):
        idx[0] = rng.choice(np.flatnonzero((status == 1) & (time <= cut)))
    M = rng.normal(size=(p, p))
    return ds, idx, rng.normal(0.0, 0.5, p), M @ M.T + np.eye(p)


class TestBlockedNormPass:
    @pytest.mark.parametrize("block, rank_cached", KERNELS)
    @PROPERTY
    @given(case=pilot_cases())
    def test_matches_dense_residuals(self, block, rank_cached, case):
        ds, idx, beta, psi = case
        ref = dense_norms(ds, idx, beta, psi)
        xbar, cumhaz = pilot_tables(ds, idx, beta)
        if rank_cached:
            ds.sort_rank()
        with mock.patch.object(partial_likelihood, "_BLOCK_ROWS", block):
            got = score_residual_norms(ds, xbar, cumhaz, beta, inverse(psi))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * max(1.0, ref.max()))
        # censored before the first jump: no term at all, so exactly zero
        assert np.all(got[(ds.status == 0) & (ds.time < cumhaz.jump_times[0])] == 0.0)
        assert xbar.clamped_queries == clamped_events(ds, xbar)

    def test_runs_longer_than_a_block(self):
        # three pilot records leave runs of thousands of records, which the
        # pass splits at block boundaries
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, n=30_000, p=3, ties=True)
        events = np.flatnonzero(ds.status == 1)
        idx = np.array([events[0], events[1], int(np.argmax(ds.time))])
        beta = rng.normal(0.0, 0.4, 3)
        xbar, cumhaz = pilot_tables(ds, idx, beta)
        time_s = np.sort(ds.time)
        cuts = np.concatenate(
            ([0, ds.n], np.searchsorted(time_s, cumhaz.jump_times), np.searchsorted(time_s, xbar.times, "right"))
        )
        assert np.diff(np.unique(cuts)).max() > BLOCK_ROWS
        psi = hessian(ds, beta, subset=events[:50])
        for metric in (None, psi):
            ref = dense_norms(ds, idx, beta, metric)
            got = score_residual_norms(ds, xbar, cumhaz, beta, inverse(metric))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * max(1.0, ref.max()))

    @pytest.mark.parametrize("seed", range(3))
    def test_full_data_tables(self, seed):
        # a step at every record: runs of one or two records
        rng = np.random.default_rng(20 + seed)
        ds = random_dataset(rng, n=300, p=3, ties=bool(seed % 2))
        beta = rng.normal(0.0, 0.3, 3)
        resids = score_residuals(ds, *full_data_tables(ds, beta), beta)
        for psi in (None, hessian(ds, beta)):
            ref = np.linalg.norm(resids if psi is None else np.linalg.solve(psi, resids.T).T, axis=1)
            got = score_residual_norms(ds, *full_data_tables(ds, beta), beta, inverse(psi))
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-13)

    def test_events_after_last_knot_are_counted_once_each(self):
        # the pilot misses the latest records: every event after its last
        # time is one clamped query
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, n=200, p=2, ties=True)
        order = np.argsort(ds.time, kind="stable")
        early = order[: ds.n // 2]
        idx = early[np.isin(early, np.flatnonzero(ds.status == 1))][:10]
        beta = rng.normal(0.0, 0.4, 2)
        xbar, cumhaz = pilot_tables(ds, idx, beta)
        score_residual_norms(ds, xbar, cumhaz, beta)
        assert xbar.clamped_queries == clamped_events(ds, xbar) > 0

    @PROPERTY
    @given(case=grid_cases())
    def test_record_order_is_the_scatter_of_the_sorted_norms(self, case):
        # the gather through the rank puts every bit where the former
        # scatter ``out[sort_index] = sqrt(norm2)`` put it
        ds, idx, beta, psi = case
        kernel, sorted_norms = breslow._norms_blockwise, []

        def keep_sorted_norms(*args):
            sorted_norms.append(kernel(*args))
            return sorted_norms[-1]

        for metric in (None, psi):
            xbar, cumhaz = pilot_tables(ds, idx, beta)
            with mock.patch.object(breslow, "_norms_blockwise", keep_sorted_norms):
                got = score_residual_norms(ds, xbar, cumhaz, beta, metric)
            scattered = np.empty(ds.n)
            scattered[ds.sort_index] = sorted_norms[-1]
            assert np.array_equal(got, scattered)


@st.composite
def hazard_cases(draw):
    """Data with ties, a with-replacement pilot multiset holding an event, a beta."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    p = draw(st.integers(1, 3))
    ds = random_dataset(rng, n=n, p=p, cr=draw(st.sampled_from([0.0, 0.3, 2.0])), ties=draw(st.booleans()))
    idx = rng.integers(0, n, draw(st.integers(1, 12)))
    if not np.any(ds.status[idx] == 1):
        idx[0] = rng.choice(np.flatnonzero(ds.status == 1))
    return ds, idx, rng.normal(0.0, 0.5, p)


class TestHazardAndResidualsAgainstOracle:
    """Full-data and pilot hazards, the pilot risk-set mean and per-record
    residuals at any block size equal the brute-force loops."""

    @pytest.mark.parametrize("block", [1, 2, 3, BLOCK_ROWS])
    @PROPERTY
    @given(case=hazard_cases())
    def test_matches_naive(self, block, case):
        ds, idx, beta = case
        t, s, X = ds.time[idx], ds.status[idx], ds.covariates[idx]
        with mock.patch.object(partial_likelihood, "_BLOCK_ROWS", block):
            full = breslow_cumhaz(ds, beta)
            pilot = pilot_breslow(ds, idx, beta)
            pilot_rows = partial_likelihood._SortedRows.of_dataset(ds, subset=idx)
            pilot_cumhaz, pilot_xbar = _pilot_tables(pilot_rows, beta)
            full_xbar = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), beta)
            full_resids = score_residuals(ds, full_xbar, full, beta)
            pilot_resids = score_residuals(ds, pilot_xbar, pilot_cumhaz, beta)
            subset_resids = score_residuals(ds, pilot_xbar, pilot_cumhaz, beta, subset=idx)

        rows = {"full": (ds.time, ds.status, ds.covariates), "pilot": (t, s, X)}
        for got, source in [(full, "full"), (pilot, "pilot"), (pilot_cumhaz, "pilot")]:
            jump_times, jumps = naive_breslow(*rows[source], beta)
            assert np.array_equal(got.jump_times, jump_times)
            np.testing.assert_allclose(got.jumps, jumps, rtol=1e-11)

        # the pilot mean at every data time, including times past its last knot
        queries = np.concatenate((ds.time, t, [ds.time.max() + 1.0]))
        expect = np.array([naive_risk_set_mean(t, X, beta, q) for q in queries])
        np.testing.assert_allclose(pilot_xbar.at(queries), expect, rtol=1e-10, atol=1e-12)

        for got, source in [(full_resids, "full"), (pilot_resids, "pilot")]:
            times, status, covariates = rows[source]
            jump_times, jumps = naive_breslow(times, status, covariates, beta)

            def xbar_at(q):
                return naive_risk_set_mean(times, covariates, beta, q)

            for i in range(ds.n):
                expect = naive_score_residual(ds.time, ds.status, ds.covariates, i, xbar_at, jump_times, jumps, beta)
                np.testing.assert_allclose(got[i], expect, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(subset_resids, pilot_resids[idx], rtol=1e-12, atol=0.0)


class TestPilotHazardConsistency:
    def test_pilot_hazard_error_shrinks_with_pilot_size(self, case1_ds, case1_mpl):
        """Sup-distance to the full-data estimator shrinks ~ 1/sqrt(r0)."""
        ds = case1_ds
        beta = case1_mpl.beta
        full = breslow_cumhaz(ds, beta)
        grid = np.quantile(full.jump_times, np.linspace(0.01, 0.99, 200))
        full_vals = full(grid)
        rng = np.random.default_rng(16)
        medians = []
        for r0 in (100, 1000, 10000):
            sups = []
            for _ in range(30):
                idx = rng.integers(0, ds.n, r0)
                pil = pilot_breslow(ds, idx, beta)
                sups.append(np.abs(pil(grid) - full_vals).max())
            medians.append(np.median(sups))
        assert medians[0] / medians[1] >= 2.0
        assert medians[1] / medians[2] >= 2.0

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1-9 are fast
property checks; criteria 10-15 are scaled-down Monte Carlo studies (a few
minutes total) marked ``montecarlo`` so they can be deselected with
``-m "not montecarlo"``.
"""

import time

import numpy as np
import pytest
from scipy import stats

import coxsub as cs
from coxsub.breslow import RiskSetMean

from conftest import random_dataset
from oracles import (
    finite_diff_grad,
    finite_diff_jacobian,
    naive_nelson_aalen,
    oracle_lopt_probs,
    oracle_residual_norms,
    trace_score_variance,
)


def report(cid, desc, ok):
    print(f"[acceptance] {cid} {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{cid} {desc}"


def test_c01_gradient_hessian_finite_differences():
    rng = np.random.default_rng(1001)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(50):
        p = int(rng.integers(1, 5))
        ds = random_dataset(
            rng, n=int(rng.integers(20, 201)), p=p, cr=float(rng.uniform(0, 0.5)),
            ties=bool(rng.integers(0, 2)),
        )
        beta = rng.uniform(-1, 1, p)
        g = cs.score(ds, beta)
        g_fd = finite_diff_grad(lambda b: cs.neg_log_partial_likelihood(ds, b), beta, h=1e-6)
        scale_g = max(np.abs(g_fd).max(), 1e-4)
        worst_g = max(worst_g, np.abs(g - g_fd).max() / scale_g)
        H = cs.hessian(ds, beta)
        h_fd = finite_diff_jacobian(lambda b: cs.score(ds, b), beta, h=1e-5)
        scale_h = max(np.abs(h_fd).max(), 1e-4)
        worst_h = max(worst_h, np.abs(H - h_fd).max() / scale_h)
    report("C01", f"finite-difference agreement (worst rel {max(worst_g, worst_h):.2e})",
           worst_g <= 1e-5 and worst_h <= 1e-5)


def test_c02_stationarity_of_solutions(case1_ds, case1_mpl):
    rng = np.random.default_rng(1002)
    norms = [case1_mpl.final_score_norm, np.abs(cs.score(case1_ds, case1_mpl.beta)).max()]
    for _ in range(20):
        ds = random_dataset(rng, n=int(rng.integers(30, 300)), p=int(rng.integers(1, 5)))
        fit = cs.newton_solve(ds)
        norms.append(fit.final_score_norm)
        norms.append(np.abs(cs.score(ds, fit.beta)).max())
    report("C02", f"stationarity at solutions (worst {max(norms):.2e})", max(norms) <= 1e-8)


def test_c03_breslow_equals_nelson_aalen_at_zero():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for k in range(10):
        ds = random_dataset(rng, n=int(rng.integers(30, 200)), p=2, ties=bool(k % 2))
        ch = cs.breslow_cumhaz(ds, np.zeros(2))
        na_t, na_j = naive_nelson_aalen(ds.time, ds.status)
        assert np.array_equal(ch.jump_times, na_t)
        worst = max(worst, np.abs(ch.jumps - na_j).max())
        worst = max(worst, np.abs(ch.cumulative - np.cumsum(na_j)).max())
    report("C03", f"Nelson-Aalen equivalence at beta=0 (worst {worst:.2e})", worst <= 1e-12)


def test_c04_residual_sum_identity():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for k in range(20):
        ds = random_dataset(rng, n=int(rng.integers(30, 150)), p=int(rng.integers(1, 4)),
                            ties=bool(k % 3 == 0))
        beta = rng.normal(0, 0.6, ds.p)
        xbar = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), beta)
        ch = cs.breslow_cumhaz(ds, beta)
        total = cs.score_residuals(ds, xbar, ch, beta).sum(axis=0)
        worst = max(worst, np.abs(total + ds.n * cs.score(ds, beta)).max())
    report("C04", f"residual-sum identity (worst {worst:.2e})", worst <= 1e-10)


def test_c05_optimal_plan_minimises_trace():
    rng = np.random.default_rng(1005)
    r = 100
    ok_order, ok_closed = True, True
    for _ in range(20):
        ds = random_dataset(rng, n=500, p=3, cr=0.3)
        mpl = cs.newton_solve(ds)
        plan = oracle_lopt_probs(ds, mpl)
        norms = oracle_residual_norms(ds, mpl)
        t_opt = trace_score_variance(ds, plan, mpl, r, norms=norms)
        closed = norms.sum() ** 2 / (r * ds.n**2)
        ok_closed &= abs(t_opt - closed) <= 1e-10 * closed
        t_unif = trace_score_variance(ds, cs.uniform_plan(ds.n), mpl, r, norms=norms)
        ok_order &= t_opt < t_unif
        dirichlet = rng.dirichlet(np.ones(ds.n), size=1000)
        traces = (norms**2 / dirichlet).sum(axis=1) / (r * ds.n**2)
        ok_order &= bool(np.all(t_opt <= traces + 1e-18))
        for probe in dirichlet[:3]:
            probe_plan = cs.SubsamplePlan(probs=probe, delta=0.0)
            t_probe = trace_score_variance(ds, probe_plan, mpl, r, norms=norms)
            ok_order &= t_opt <= t_probe
    report("C05", "trace minimised at the optimal plan, closed form exact",
           ok_order and ok_closed)


def test_c06_plan_validity_fuzzed():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(30):
        ds = random_dataset(rng, n=int(rng.integers(50, 500)), p=int(rng.integers(1, 4)),
                            cr=float(rng.uniform(0.1, 0.6)))
        ctx = cs.fit_pilot(ds, cs.draw_uniform(ds, int(rng.integers(30, 80)), rng))
        delta = float(rng.choice([0.0, 0.05, 0.1, 0.3, 0.5, 1.0]))
        build = cs.compute_aopt_probs if rng.integers(0, 2) else cs.compute_lopt_probs
        plan = build(ds, ctx, delta)
        ok &= abs(plan.probs.sum() - 1.0) <= 1e-12
        ok &= plan.probs.min() >= delta / ds.n - 1e-15
    report("C06", "plan probabilities sum to 1 and respect the delta/n floor", ok)


def test_c07_conditional_unbiasedness_of_weighted_score():
    rng = np.random.default_rng(1007)
    ds = random_dataset(rng, n=2000, p=3, cr=0.3)
    beta = np.array([0.4, -0.2, 0.1])
    xbar = RiskSetMean.build(ds.time, np.ascontiguousarray(ds.covariates), beta)
    ch = cs.breslow_cumhaz(ds, beta)
    resids = cs.score_residuals(ds, xbar, ch, beta)
    target = cs.score(ds, beta)
    ctx = cs.fit_pilot(ds, cs.draw_uniform(ds, 100, rng))
    plan = cs.compute_lopt_probs(ds, ctx, 0.1)
    reps, r = 2000, 50
    samples = np.empty((reps, ds.p))
    for b in range(reps):
        sub = cs.draw_weighted(plan, r, rng)
        samples[b] = -(resids[sub.indices] / (ds.n * plan.probs[sub.indices][:, None])).mean(axis=0)
    mc_se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    dev = np.abs(samples.mean(axis=0) - target)
    report("C07", f"weighted score unbiased (max |dev|/SE {np.max(dev / mc_se):.2f})",
           bool(np.all(dev < 4.0 * mc_se)))


def test_c08_weighted_fit_reduction(case1_ds, case1_mpl):
    sub = cs.Subsample(indices=np.arange(case1_ds.n), weights=np.ones(case1_ds.n))
    fit = cs.weighted_fit(case1_ds, sub)
    dev = np.abs(fit.beta - case1_mpl.beta).max()
    report("C08", f"each-once uniform subsample reproduces the full fit (dev {dev:.2e})",
           dev <= 1e-8)


def test_c09_probability_integral_transform_all_cases():
    from coxsub.simulation import DEFAULT_BETA

    beta = np.asarray(DEFAULT_BETA)
    ok = True
    pvals = {}
    for k, case in enumerate(("I", "II", "III", "IV")):
        rng = np.random.default_rng(1009 + k)
        X = cs.gen_covariates(case, 100_000, rng)
        t = cs.gen_failure_times(X, beta, rng)
        z = cs.true_cumulative_hazard(t) * np.exp(X @ beta)
        pvals[case] = stats.kstest(z, "expon").pvalue
        ok &= pvals[case] > 0.001
    report("C09", f"PIT exponentiality (min p {min(pvals.values()):.3f})", ok)


# ----------------------------------------------------------------- Monte Carlo


@pytest.fixture(scope="module")
def mc_cfg():
    return cs.resolve_c0(cs.SimConfig(case="I", n=100_000, target_cr=0.2, seed=515151))


@pytest.mark.montecarlo
def test_c10_bias_se_coverage_pattern(mc_cfg):
    rep = cs.run_replications(
        mc_cfg, "lopt", r0=300, r=1000, delta=0.1, n_reps=200, seed=6001, mode="fresh"
    )
    bias1 = abs(rep.bias[0])
    bound = 3.0 * rep.ese[0] / np.sqrt(rep.n_reps)
    ratio = rep.mean_se[0] / rep.ese[0]
    cp = rep.coverage[0]
    print(f"    bias1 {rep.bias[0]:+.4f} (bound {bound:.4f}), SE/ESE {ratio:.3f}, CP {cp:.3f}")
    report("C10", "bias/SE-accuracy/coverage at the reference design",
           bias1 < bound and 0.85 <= ratio <= 1.15 and 0.91 <= cp <= 0.99)


@pytest.mark.montecarlo
def test_c11_efficiency_ordering(mc_cfg):
    ok = True
    ese_ratio = None
    for case in ("I", "III"):
        cfg = mc_cfg if case == "I" else cs.resolve_c0(
            cs.SimConfig(case="III", n=100_000, target_cr=0.2, seed=525252)
        )
        for r in (400, 1000):
            lopt = cs.run_replications(cfg, "lopt", r0=300, r=r, delta=0.1,
                                       n_reps=200, seed=6011, mode="fixed")
            unif = cs.run_replications(cfg, "unif", r0=300, r=r, delta=0.1,
                                       n_reps=200, seed=6011, mode="fixed")
            print(f"    case {case} r={r}: MSE lopt {lopt.mse:.5f} vs unif {unif.mse:.5f}")
            ok &= lopt.mse < unif.mse
            if case == "I" and r == 1000:
                ese_ratio = np.linalg.norm(lopt.ese) / np.linalg.norm(unif.ese)
    print(f"    ESE ratio lopt/unif at r=1000, case I: {ese_ratio:.3f}")
    report("C11", "lower MSE than uniform everywhere; ESE ratio in [0.6, 0.95]",
           ok and 0.6 <= ese_ratio <= 0.95)


@pytest.mark.montecarlo
def test_c12_mse_monotone_in_r_and_delta(mc_cfg):
    mses = []
    for r in (400, 600, 800, 1000):
        rep = cs.run_replications(mc_cfg, "lopt", r0=300, r=r, delta=0.1,
                                  n_reps=200, seed=6021, mode="fixed")
        mses.append(rep.mse)
    print(f"    MSE by r: {[round(m, 5) for m in mses]}")
    monotone = all(a > b for a, b in zip(mses, mses[1:]))
    small_delta = cs.run_replications(mc_cfg, "lopt", r0=300, r=400, delta=0.1,
                                      n_reps=200, seed=6022, mode="fixed")
    large_delta = cs.run_replications(mc_cfg, "lopt", r0=300, r=400, delta=0.5,
                                      n_reps=200, seed=6022, mode="fixed")
    print(f"    MSE delta 0.1 {small_delta.mse:.5f} vs delta 0.5 {large_delta.mse:.5f}")
    report("C12", "MSE decreasing in r; delta=0.1 no worse than delta=0.5",
           monotone and small_delta.mse <= large_delta.mse)


@pytest.mark.montecarlo
def test_c13_probability_ordering_by_censoring():
    ok_median, ok_floor = True, True
    delta = 0.1
    for k, case in enumerate(("I", "II", "III", "IV")):
        cfg = cs.resolve_c0(cs.SimConfig(case=case, n=100_000, target_cr=0.2, seed=535300 + k))
        ds = cs.gen_dataset(cfg, np.random.default_rng(535400 + k))
        ctx = cs.fit_pilot(ds, cs.draw_uniform(ds, 300, np.random.default_rng(535500 + k)))
        plan = cs.compute_lopt_probs(ds, ctx, delta)
        summary = cs.five_number_summary(plan, ds.status)
        print(f"    case {case}: censored {tuple(round(float(v) * 1e6, 4) for v in summary.censored)} "
              f"uncensored {tuple(round(float(v) * 1e6, 4) for v in summary.uncensored)} (x1e-6)")
        ok_median &= summary.uncensored[2] > summary.censored[2]
        ok_floor &= summary.censored[0] == delta / ds.n
    report("C13", "uncensored medians larger; censored minimum exactly delta/n",
           ok_median and ok_floor)


@pytest.mark.montecarlo
def test_c14_two_step_speedup():
    cfg = cs.resolve_c0(cs.SimConfig(case="I", n=1_000_000, target_cr=0.2, seed=545454))
    ds = cs.gen_dataset(cfg, np.random.default_rng(10))
    # warm both code paths at full scale before timing (first-touch page
    # faults otherwise dominate either side arbitrarily)
    cs.newton_solve(ds)
    cs.two_step(ds, 300, 1000, 0.1, "lopt", np.random.default_rng(11))
    full_wall = min(
        _timed(lambda: cs.newton_solve(ds)) for _ in range(3)
    )
    two_wall = min(
        _timed(lambda k=k: cs.two_step(ds, 300, 1000, 0.1, "lopt", np.random.default_rng(12 + k)))
        for k in range(3)
    )
    print(f"    full fit {full_wall:.3f}s, two-step {two_wall:.3f}s, ratio {full_wall / two_wall:.1f}x")
    report("C14", "two-step at most one fifth of the full-fit wall time",
           two_wall <= full_wall / 5.0)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@pytest.mark.montecarlo
def test_c15_lopt_aopt_equivalence(mc_cfg):
    reps = 200
    lopt = cs.run_replications(mc_cfg, "lopt", r0=300, r=1000, delta=0.1,
                               n_reps=reps, seed=6051, mode="fixed")
    aopt = cs.run_replications(mc_cfg, "aopt", r0=300, r=1000, delta=0.1,
                               n_reps=reps, seed=6051, mode="fixed")
    # MC standard error of each MSE: spread of per-rep squared errors ~
    # sum over 5 coordinates, approx chi-square-like; estimate from the
    # report moments: Var(||e||^2) ~ 2 * sum(var_j^2) for near-normal e
    se_l = np.sqrt(2.0 * np.sum(lopt.ese**4)) / np.sqrt(reps)
    se_a = np.sqrt(2.0 * np.sum(aopt.ese**4)) / np.sqrt(reps)
    combined = np.hypot(se_l, se_a)
    diff = abs(lopt.mse - aopt.mse)
    print(f"    MSE lopt {lopt.mse:.5f} aopt {aopt.mse:.5f} diff {diff:.5f} "
          f"(2 x combined SE {2 * combined:.5f})")
    report("C15", "L- and A-optimal plans statistically indistinguishable",
           diff <= 2.0 * combined)

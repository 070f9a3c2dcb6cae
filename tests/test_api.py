"""The public surface: what ``coxsub`` exports, and the README's code as written."""

import ast
import re
import types
from pathlib import Path

import numpy as np
import pytest

import coxsub as cs

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coxsub"

PUBLIC = {
    # data
    "SurvivalDataset", "CsvSchema", "Violation", "load_csv", "write_csv", "validate",
    # errors
    "CoxSubError", "CsvError", "NumericsError", "SingularHessianError", "PilotError",
    "CalibrationError", "TwoStepError",
    # full-data fit
    "CoxFit", "newton_solve", "neg_log_partial_likelihood", "score", "hessian",
    "CumulativeHazard", "breslow_cumhaz",
    # two-step estimator and its steps
    "two_step", "TwoStepResult", "draw_uniform", "fit_pilot", "PilotContext",
    "compute_lopt_probs", "compute_aopt_probs", "SubsamplePlan", "draw_weighted", "Subsample",
    "weighted_fit", "estimate_covariance", "CovarianceEstimate",
    # simulation
    "SimConfig", "resolve_c0", "calibrate_c0", "gen_dataset", "run_replications",
    "ReplicationReport", "five_number_summary", "FiveNumberSummary",
}


def test_exports_exactly_the_public_surface():
    exported = {
        name for name, value in vars(cs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


# the dataset's storage order, which only ``data.py`` may read
STORAGE_ORDER = {
    "_records", "_stored_rows", "_rank", "_swept", "sort_index", "_permuted", "sort_rank", "_gather_rows",
}


def test_only_the_data_module_reads_the_storage_order():
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "data.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ORDER
    ]
    assert reads == []


def thaws_an_array(node) -> bool:
    """Whether ``node`` is a call ``.setflags(...)`` that can make an array writable."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"):
        return False
    write = [k.value for k in node.keywords if k.arg == "write"] + node.args[:1]
    return any(not (isinstance(v, ast.Constant) and v.value is False) for v in write)


def test_only_the_data_module_makes_an_array_writable():
    # the dataset's in-place sort is the one write to a frozen array
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "data.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if thaws_an_array(node)
    ]
    assert calls == []
    data = ast.parse((PACKAGE / "data.py").read_text())
    assert sum(map(thaws_an_array, ast.walk(data))) == 1


# the generator methods the four covariate designs draw from
DESIGN_DRAWS = {"uniform", "standard_normal", "exponential", "chisquare"}


def draws_a_design(node) -> bool:
    """Whether ``node`` calls a method named in ``DESIGN_DRAWS``."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in DESIGN_DRAWS


def test_one_function_draws_the_covariate_designs():
    # a second copy of the designs would draw from the generator in another function
    drawers = [
        f"{path.name}:{fn.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(draws_a_design, ast.walk(fn)))
    ]
    assert drawers == ["simulation.py:_stream_covariates"]


def test_readme_quick_start_runs_as_written():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    res = namespace["res"]
    assert res.fit.converged
    assert np.all(np.isfinite(res.covariance.standard_errors))
    assert namespace["full"].converged


@pytest.mark.parametrize("criterion", ["lopt", "aopt"])
def test_steps_chained_by_hand_are_two_step(criterion):
    # the README's step paragraph: the six steps with one rng are two_step, bit for bit
    cfg = cs.resolve_c0(cs.SimConfig(case="I", n=20_000, target_cr=0.2, seed=5))
    ds = cs.gen_dataset(cfg, np.random.default_rng(5))
    expected = cs.two_step(ds, 300, 1000, 0.1, criterion, np.random.default_rng(6))

    rng = np.random.default_rng(6)
    ctx = cs.fit_pilot(ds, cs.draw_uniform(ds, 300, rng))
    probs = cs.compute_lopt_probs if criterion == "lopt" else cs.compute_aopt_probs
    plan = probs(ds, ctx, 0.1)
    sub = cs.draw_weighted(plan, 1000, rng)
    fit = cs.weighted_fit(ds, sub, init=ctx.fit.beta)
    cov = cs.estimate_covariance(ds, ctx, sub, fit)

    assert np.array_equal(plan.probs, expected.plan.probs)
    assert np.array_equal(fit.beta, expected.fit.beta)
    assert np.array_equal(cov.standard_errors, expected.covariance.standard_errors)

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsub import newton_solve, subsampling
from coxsub.cli import main

from conftest import at_iteration_limit
from oracles import naive_nelson_aalen


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def sim_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.csv"
    code = run_cli(
        ["simulate", "--case", "I", "--n", "2000", "--cr", "0.2", "--seed", "7", "-o", str(path)]
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_rows_and_sidecar(self, sim_file):
        lines = sim_file.read_text().splitlines()
        assert lines[0] == "time,status,x1,x2,x3,x4,x5"
        assert len(lines) == 2001
        meta = json.loads((sim_file.parent / (sim_file.name + ".meta.json")).read_text())
        assert meta["schema"] == 1
        assert meta["c0"] > 0
        assert meta["seed"] == 7
        assert meta["beta_true"] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_sidecar_bytes_are_pinned(self, sim_file):
        # two-space indent, shortest float reprs and one trailing newline, as every JSON report
        expected = (
            b'{\n  "schema": 1,\n  "case": "I",\n  "n": 2000,\n  "target_cr": 0.2,\n'
            b'  "empirical_cr": 0.19799999999999995,\n  "c0": 10.000000000375,\n'
            b'  "beta_true": [\n    -1.0,\n    -0.5,\n    0.0,\n    0.5,\n    1.0\n  ],\n  "seed": 7\n}\n'
        )
        assert (sim_file.parent / (sim_file.name + ".meta.json")).read_bytes() == expected

    def test_repeat_is_byte_identical(self, sim_file, tmp_path):
        other = tmp_path / "again.csv"
        run_cli(
            ["simulate", "--case", "I", "--n", "2000", "--cr", "0.2", "--seed", "7", "-o", str(other)]
        )
        assert other.read_bytes() == sim_file.read_bytes()

    def test_bad_cr_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--cr", "1.5", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--cr" in capsys.readouterr().err


class TestFit:
    def test_fit_recovers_truth(self, sim_file, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run_cli(["fit", "-i", str(sim_file), "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1 and report["converged"]
        est = np.asarray(report["beta"])
        se = np.asarray(report["se"])
        truth = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.all(np.abs(est - truth) < 5 * se)

    def test_fix_beta_zero_baseline_equals_nelson_aalen(self, sim_file, tmp_path):
        base = tmp_path / "base.csv"
        code = run_cli(
            ["fit", "-i", str(sim_file), "--fix-beta", "0", "--baseline-out", str(base), "-o",
             str(tmp_path / "r.json")]
        )
        assert code == 0
        rows = [line.split(",") for line in base.read_text().splitlines()[1:]]
        got_t = np.array([float(r[0]) for r in rows])
        got_v = np.array([float(r[1]) for r in rows])
        from coxsub import load_csv

        ds = load_csv(sim_file)
        na_t, na_j = naive_nelson_aalen(ds.time, ds.status)
        assert np.array_equal(got_t, na_t)
        np.testing.assert_allclose(got_v, np.cumsum(na_j), atol=1e-12)

    def test_bad_fix_beta_rejected_before_input_is_read(self, tmp_path, capsys):
        # the flag is judged on its own: a missing input file is never opened
        with pytest.raises(SystemExit) as exc:
            run_cli(["fit", "-i", str(tmp_path / "nope.csv"), "--fix-beta", "abc"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and "--fix-beta" in errors[0] and "nope.csv" not in errors[0]

    def test_fix_beta_of_wrong_length_exits_2(self, sim_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run_cli(["fit", "-i", str(sim_file), "--fix-beta", "1,2", "-o", str(out)])
        assert exc.value.code == 2
        assert "needs 1 or 5 values" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_covariates_exits_2(self, sim_file):
        with pytest.raises(SystemExit) as exc:
            run_cli(["fit", "-i", str(sim_file), "--covariates", ""])
        assert exc.value.code == 2

    def test_csv_format(self, sim_file, tmp_path):
        out = tmp_path / "fit.csv"
        code = run_cli(["fit", "-i", str(sim_file), "-o", str(out), "--format", "csv"])
        assert code == 0
        header, row = out.read_text().splitlines()
        assert "beta.0" in header and "se.4" in header


class TestSubsample:
    def test_report_fields_and_ci(self, sim_file, tmp_path):
        out = tmp_path / "sub.json"
        code = run_cli(
            ["subsample", "-i", str(sim_file), "--r0", "150", "--r", "400", "--seed", "5",
             "-o", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        est = np.asarray(rep["est"])
        se = np.asarray(rep["se"])
        np.testing.assert_allclose(rep["ci_lower"], est - 1.96 * se, rtol=1e-12)
        np.testing.assert_allclose(rep["ci_upper"], est + 1.96 * se, rtol=1e-12)
        assert set(rep["timings"]) == {
            "pilot_fit", "probability_pass", "draw", "second_fit", "covariance",
        }

    def test_ci_matches_published_example(self):
        # Est -1.0009, SE 0.1303 -> (-1.2563, -0.7455)
        est, se = -1.0009, 0.1303
        assert est - 1.96 * se == pytest.approx(-1.2563, abs=1.5e-4)
        assert est + 1.96 * se == pytest.approx(-0.7455, abs=1.5e-4)

    def test_delta_one_matches_unif_criterion(self, sim_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(["subsample", "-i", str(sim_file), "--delta", "1.0", "--criterion", "lopt",
                 "--r0", "100", "--r", "200", "--seed", "9", "-o", str(a)])
        run_cli(["subsample", "-i", str(sim_file), "--criterion", "unif",
                 "--r0", "100", "--r", "200", "--seed", "9", "-o", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["est"] == rb["est"]
        assert ra["se"] == rb["se"]

    def test_reps_adds_spread_stats(self, sim_file, tmp_path):
        out = tmp_path / "reps.json"
        code = run_cli(["subsample", "-i", str(sim_file), "--r0", "100", "--r", "200",
                        "--reps", "5", "--seed", "3", "-o", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["reps"] == 5
        assert len(rep["bias"]) == 5 and len(rep["ese"]) == 5
        assert "mse" in rep

    def test_r_zero_exits_2(self, sim_file):
        with pytest.raises(SystemExit) as exc:
            run_cli(["subsample", "-i", str(sim_file), "--r", "0"])
        assert exc.value.code == 2

    def test_plan_export_and_five_number_block(self, sim_file, tmp_path):
        out = tmp_path / "sub.json"
        plan_path = tmp_path / "plan.csv"
        code = run_cli(["subsample", "-i", str(sim_file), "--r0", "100", "--r", "200",
                        "--seed", "6", "--plan-out", str(plan_path), "-o", str(out)])
        assert code == 0
        lines = plan_path.read_text().splitlines()
        assert lines[0] == "index,prob,status"
        assert len(lines) == 2001
        probs = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert abs(probs.sum() - 1.0) < 1e-9
        rep = json.loads(out.read_text())
        five = rep["plan_five_number"]
        assert len(five["censored"]) == 5 and len(five["uncensored"]) == 5
        assert five["uncensored"][2] > five["censored"][2]


class TestCalibrate:
    def test_deterministic_and_near_target(self, capsys):
        code = run_cli(["calibrate", "--case", "I", "--cr", "0.2", "--seed", "1"])
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        code = run_cli(["calibrate", "--case", "I", "--cr", "0.2", "--seed", "1"])
        assert code == 0
        second = json.loads(capsys.readouterr().out)
        assert first["c0"] == second["c0"]
        assert abs(first["achieved_cr"] - 0.2) < 0.01

    def test_cr_zero_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["calibrate", "--cr", "0"])
        assert exc.value.code == 2


class TestBenchmark:
    def test_small_grid_writes_tables(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code = run_cli([
            "benchmark", "--cases", "I", "--n", "3000", "--cr", "0.2", "--r0", "100",
            "--r-grid", "200,300", "--delta-grid", "0.1", "--methods", "lopt,unif",
            "--reps", "10", "--timing-n", "20000", "--seed", "2", "--out-dir", str(out_dir),
        ])
        assert code == 0
        table = (out_dir / "replications.csv").read_text().splitlines()
        assert len(table) == 5  # header + 2 methods x 2 r values
        assert table[0].startswith("case,cr,method")
        timing = (out_dir / "timing.csv").read_text().splitlines()
        assert timing[0].startswith("n,full_fit_s,two_step_s,speedup")
        assert len(timing) == 2


    def test_partial_failure_recorded_and_run_continues(self, tmp_path):
        # r=1 can never produce a usable fit, so that cell fails while the
        # r=200 cell still completes
        out_dir = tmp_path / "bench"
        code = run_cli([
            "benchmark", "--cases", "I", "--n", "3000", "--cr", "0.2", "--r0", "100",
            "--r-grid", "1,200", "--delta-grid", "0.1", "--methods", "lopt",
            "--reps", "4", "--timing-n", "20000", "--seed", "2", "--out-dir", str(out_dir),
        ])
        assert code == 0
        lines = (out_dir / "replications.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        failed = [r for r in rows if r["r"] == "1"][0]
        good = [r for r in rows if r["r"] == "200"][0]
        assert failed["error"] != "" and failed["mse"] == ""
        assert good["error"] == "" and float(good["mse"]) > 0

    def test_threads_reproduce_serial_tables(self, tmp_path):
        args = ["benchmark", "--cases", "I", "--n", "3000", "--cr", "0.2", "--r0", "100",
                "--r-grid", "200", "--delta-grid", "0.1", "--methods", "lopt",
                "--reps", "8", "--timing-n", "20000", "--seed", "3"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--threads", "1", "--out-dir", str(a_dir)]) == 0
        assert run_cli(args + ["--threads", "2", "--out-dir", str(b_dir)]) == 0
        assert (a_dir / "replications.csv").read_bytes() == (b_dir / "replications.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, sim_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"r0": 123, "r": 200, "seed": 4}))
        out = tmp_path / "out.json"
        code = run_cli(["subsample", "-i", str(sim_file), "--config", str(cfg_path),
                        "--r0", "111", "-o", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["r0"] == 111  # flag beats config
        assert rep["r"] == 200  # config beats built-in default
        assert rep["seed"] == 4

    def test_unknown_config_key_exits_2(self, sim_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_key": 1}))
        with pytest.raises(SystemExit) as exc:
            run_cli(["subsample", "-i", str(sim_file), "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert "bogus_key" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["fit", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args, flag",
    [
        (["fit", "-i", "{data}", "--fix-beta", "abc"], "--fix-beta"),
        (["fit", "-i", "{data}", "--fix-beta", "nan"], "--fix-beta"),
        (["simulate", "--n", "50", "--c0", "1", "--beta", "1,x", "-o", "{out}"], "--beta"),
        (["simulate", "--n", "50", "--c0", "1", "--beta", "", "-o", "{out}"], "--beta"),
        (["simulate", "--n", "50", "--c0", "nan", "-o", "{out}"], "--c0"),
        (["simulate", "--n", "50", "--c0", "-1", "-o", "{out}"], "--c0"),
        (["calibrate", "--cr", "0.2", "--beta", "a"], "--beta"),
        (["calibrate", "--cr", "0.2", "--tol", "-1"], "--tol"),
        (["calibrate", "--cr", "0.2", "--tol", "nan"], "--tol"),
        (["benchmark", "--cr", "1.5", "--out-dir", "{out}"], "--cr"),
        (["benchmark", "--n", "0", "--out-dir", "{out}"], "--n"),
        (["benchmark", "--r0", "0", "--out-dir", "{out}"], "--r0"),
        (["benchmark", "--timing-n", "0", "--out-dir", "{out}"], "--timing-n"),
        (["benchmark", "--threads", "0", "--out-dir", "{out}"], "--threads"),
        (["fit", "-i", "{data}", "--delimiter", ";;"], "--delimiter"),
        (["fit", "-i", "{data}", "--covariates", "time,x1"], "--covariates"),
    ],
)
def test_bad_number_flag_exits_2(args, flag, sim_file, tmp_path, capsys):
    # a usage error naming the flag, and no output written
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli([a.format(data=sim_file, out=out) for a in args])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--r-grid", "abc"), ("--r-grid", ","), ("--r-grid", "2.5"), ("--delta-grid", "x"),
        ("--methods", "foo"), ("--methods", ","), ("--cases", "V"), ("--cases", ","),
    ],
)
def test_bad_benchmark_list_flag_exits_2(flag, value, tmp_path, capsys):
    # rejected as a usage error naming the flag, before the output directory exists
    out_dir = tmp_path / "bench"
    with pytest.raises(SystemExit) as exc:
        run_cli(["benchmark", flag, value, "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args, path",
    [
        (["fit", "-i", "{missing}"], "{missing}"),
        (["subsample", "-i", "{missing}"], "{missing}"),
        (["fit", "-i", "{dir}"], "{dir}"),
        (["fit", "-i", "{data}", "-o", "{nodir}/x.json"], "{nodir}/x.json"),
        (["fit", "-i", "{data}", "--baseline-out", "{nodir}/b.csv"], "{nodir}/b.csv"),
        (["subsample", "-i", "{data}", "--r0", "100", "--r", "200", "--plan-out", "{nodir}/p.csv"],
         "{nodir}/p.csv"),
        (["simulate", "--n", "50", "--c0", "1", "-o", "{nodir}/x.csv"], "{nodir}/x.csv"),
    ],
)
def test_unopenable_path_exits_2(args, path, sim_file, tmp_path, capsys):
    # one error line naming the path, not a traceback
    names = dict(data=sim_file, missing=tmp_path / "nope.csv", dir=tmp_path, nodir=tmp_path / "nodir")
    assert run_cli([a.format(**names) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.format(**names) in err


def test_commands_write_only_named_files(tmp_path):
    # run with HOME and the working directory pointing at one empty directory:
    # calibration, simulation and a replication study leave nothing there
    import coxsub

    home, out = tmp_path / "home", tmp_path / "out"
    home.mkdir()
    out.mkdir()
    commands = [
        ["simulate", "--n", "500", "-o", str(out / "d.csv")],
        ["calibrate", "--cr", "0.3", "-o", str(out / "c1.json")],
        ["calibrate", "--cr", "0.3", "-o", str(out / "c2.json")],
        ["benchmark", "--n", "500", "--reps", "2", "--r-grid", "50", "--r0", "40",
         "--timing-n", "2000", "--out-dir", str(out / "bench")],
    ]
    code = (
        "from coxsub.cli import main\n"
        f"for argv in {commands!r}:\n    assert main(argv) == 0, argv\n"
    )
    env = dict(os.environ, HOME=str(home))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(coxsub.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=home, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert list(home.iterdir()) == []
    assert (out / "c1.json").read_bytes() == (out / "c2.json").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["bench", "c1.json", "c2.json", "d.csv", "d.csv.meta.json"]


def test_numerical_failure_exits_3(tmp_path, capsys):
    # perfectly collinear covariates make the curvature singular
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 50)
    t = rng.exponential(1.0, 50)
    path = tmp_path / "collinear.csv"
    lines = ["time,status,x1,x2"]
    lines += [f"{float(t[i])!r},1,{float(x[i])!r},{float(2 * x[i])!r}" for i in range(50)]
    path.write_text("\n".join(lines) + "\n")
    code = run_cli(["fit", "-i", str(path)])
    assert code == 3
    assert "positive definite" in capsys.readouterr().err


def test_separated_data_fit_exits_3(tmp_path, capsys):
    # the x = 1 records all fail first: a monotone likelihood, never converged
    path = tmp_path / "separated.csv"
    lines = ["time,status,x"] + [f"{i + 1},1,{int(i < 20)}" for i in range(60)]
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(["fit", "-i", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: did not converge after ")
    assert "monotone likelihood" in err[0]


def test_solver_warning_prints_as_one_line(tmp_path):
    # one record, in its own process: every residual norm is zero, so the
    # plan warns and falls back to uniform; Python's default warning format
    # would add the source location and echo the source line
    import coxsub

    path = tmp_path / "one.csv"
    path.write_text("time,status,x\n1.5,1,0.3\n")
    code = f"import sys\nfrom coxsub.cli import main\nsys.exit(main(['subsample', '-i', {str(path)!r}]))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(coxsub.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stdout == ""
    err = done.stderr.splitlines()
    assert len(err) == 2, done.stderr
    assert err[0] == "warning: all residual norms are zero; falling back to uniform probabilities"
    assert err[1].startswith("error: [second_fit] ")


def test_nonconverged_second_fit_exits_3_with_one_error_line(sim_file, monkeypatch, capsys):
    monkeypatch.setattr(subsampling, "weighted_fit", at_iteration_limit(subsampling.weighted_fit, monkeypatch))
    assert run_cli(["subsample", "-i", str(sim_file), "--r0", "100", "--r", "200"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [second_fit] did not converge after 0 iterations ")


def _constant_column_csv(path, p):
    # column x1 is the same on every record, so the curvature is singular at any beta
    rng = np.random.default_rng(0)
    t, x = rng.exponential(1.0, 500).tolist(), rng.normal(0.0, 1.0, (500, p - 1)).tolist()
    lines = ["time,status," + ",".join(f"x{j + 1}" for j in range(p))]
    lines += [",".join(map(repr, [t[i], int(i % 5 != 0), 2.5, *x[i]])) for i in range(500)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "p, flags",
    [(1, []), (3, ["--fix-beta", "0"]), (0, []), (0, ["--fix-beta", "0"])],
    ids=["constant-column", "constant-column-fixed", "one-record", "one-record-fixed"],
)
def test_singular_curvature_fit_exits_3(p, flags, tmp_path, capsys):
    # a singular curvature has no standard errors: one error line, no NaN report, no traceback
    path = tmp_path / "d.csv"
    if p:
        _constant_column_csv(path, p)
    else:
        path.write_text("time,status,x1\n1.5,1,0.3\n")
    baseline = tmp_path / "baseline.csv"
    assert run_cli(["fit", "-i", str(path), "--baseline-out", str(baseline), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not positive definite" in captured.err
    assert not baseline.exists()


def test_all_censored_fix_beta_exits_3_for_want_of_events(tmp_path, capsys):
    # the fixed-beta path checks for an event first, as the solver does
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1\n1.5,0,0.3\n2.0,0,-0.1\n0.7,0,1.2\n")
    assert run_cli(["fit", "-i", str(path), "--fix-beta", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: at least one event is required to fit\n"


def test_fix_beta_near_collinear_curvature_exits_3(tmp_path, capsys):
    # x2 = x1 + 1e-7 noise: the curvature has a Cholesky factor but is
    # singular to working precision, as a converged solve's would be
    rng = np.random.default_rng(3)
    n = 500
    t, x1 = rng.exponential(1.0, n), rng.normal(0.0, 1.0, n)
    x2 = x1 + 1e-7 * rng.normal(0.0, 1.0, n)
    rows = zip(t.tolist(), (np.arange(n) % 4 != 0).astype(int).tolist(), x1.tolist(), x2.tolist())
    lines = ["time,status,x1,x2"] + [",".join(map(repr, row)) for row in rows]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(["fit", "-i", str(path), "--fix-beta", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not positive definite to working precision" in captured.err


@pytest.mark.parametrize("at", ["zero", "fitted"])
def test_fix_beta_report_equals_the_public_evaluations(at, sim_file, tmp_path):
    # one sweep answers every question about beta, bit for bit as three separate sweeps do
    from coxsub import hessian, load_csv, neg_log_partial_likelihood, score

    ds = load_csv(sim_file)
    beta = np.zeros(ds.p) if at == "zero" else newton_solve(ds).beta
    out = tmp_path / "r.json"
    assert run_cli(["fit", "-i", str(sim_file), "--fix-beta=" + ",".join(map(repr, beta.tolist())), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["beta"] == beta.tolist() and report["iterations"] == 0
    assert report["score_norm"] == float(np.abs(score(ds, beta)).max())
    assert report["neg_logpl"] == neg_log_partial_likelihood(ds, beta)
    assert report["se"] == np.sqrt(np.diag(np.linalg.inv(hessian(ds, beta))) / ds.n).tolist()


@st.composite
def degenerate_files(draw):
    """Small CSV texts at the edges: one or two records, no events, identical
    rows, heavy ties, duplicated, constant and near-constant columns, and
    covariates scaled by 1e-8 or 1e3."""
    n = draw(st.sampled_from([1, 2, 3, 8, 40, 200]))
    edge = draw(st.sampled_from(["none", "none", "all_censored", "identical_rows", "heavy_ties"]))
    kinds = draw(st.lists(st.sampled_from(["normal", "normal", "binary", "constant", "near", "duplicate"]),
                          min_size=1, max_size=3))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-8, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    time = rng.exponential(1.0, n)
    if edge == "heavy_ties":
        time = np.ceil(time * 2.0) / 2.0
    status = (rng.random(n) < 0.7).astype(int) * (edge != "all_censored")
    columns = []
    for kind in kinds:
        if kind == "normal" or (kind == "duplicate" and not columns):
            columns.append(rng.normal(0.0, 1.0, n))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, n).astype(float))
        elif kind == "constant":
            columns.append(np.full(n, 2.5))
        elif kind == "near":
            columns.append(2.5 + 1e-9 * rng.normal(0.0, 1.0, n))
        else:
            columns.append(columns[0].copy())
    X = np.column_stack(columns) * scale
    if edge == "identical_rows":
        time, status, X = np.full(n, time[0]), np.full(n, status[0]), np.tile(X[0], (n, 1))
    lines = ["time,status," + ",".join(f"x{j + 1}" for j in range(X.shape[1]))]
    for i in range(n):
        lines.append(",".join([repr(float(time[i])), str(int(status[i])), *map(repr, X[i].tolist())]))
    return "\n".join(lines) + "\n"


def _no_nonfinite(constant):
    raise ValueError(f"report holds {constant}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=degenerate_files())
def test_degenerate_files_exit_cleanly(text):
    # every command ends in 0, 2 or 3; an exit 0 writes strict JSON with finite, positive SEs
    commands = [["fit"], ["fit", "--fix-beta", "0"]]
    commands += [["subsample", "--criterion", c, "--reps", "2"] for c in ("lopt", "aopt")]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "d.csv", Path(tmp) / "r.json"
        path.write_text(text)
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the uniform fallback of an all-zero-norm plan
                try:
                    code = run_cli([*command, "-i", str(path), "-o", str(out)])
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 2, 3), (command, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 0:
                report = json.loads(out.read_text(), parse_constant=_no_nonfinite)
                se = np.asarray(report["se"])
                assert np.all(np.isfinite(se)) and np.all(se > 0), (command, report["se"])
                out.unlink()
            else:
                # one line, the error's
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


_ALL_EVENTS = "time,status,x1\n0.11,1,-2.02\n0.39,1,-0.23\n1.40,1,-0.87\n"


def test_no_censoring_leaves_the_censored_summary_null(tmp_path):
    # an empty group has no five-number summary, and is no cause for a warning
    path, out = tmp_path / "d.csv", tmp_path / "r.json"
    path.write_text(_ALL_EVENTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["subsample", "-i", str(path), "-o", str(out)]) == 0
    five = json.loads(out.read_text(), parse_constant=_no_nonfinite)["plan_five_number"]
    assert five["censored"] is None and len(five["uncensored"]) == 5


def _flat_keys(report: dict, prefix: str = "") -> list[str]:
    keys = []
    for k, v in report.items():
        if isinstance(v, dict):
            keys += _flat_keys(v, f"{prefix}{k}.")
        elif isinstance(v, list):
            keys += [f"{prefix}{k}.{i}" for i in range(len(v))]
        else:
            keys.append(f"{prefix}{k}")
    return keys


@pytest.mark.parametrize("simulated", [False, True], ids=["all-events", "simulated"])
def test_subsample_csv_report_is_the_flattened_json_one(simulated, sim_file, tmp_path):
    path = sim_file
    if not simulated:
        path = tmp_path / "d.csv"
        path.write_text(_ALL_EVENTS)
    js, cs = tmp_path / "r.json", tmp_path / "r.csv"
    assert run_cli(["subsample", "-i", str(path), "-o", str(js)]) == 0
    assert run_cli(["subsample", "-i", str(path), "-o", str(cs), "--format", "csv"]) == 0
    report = json.loads(js.read_text(), parse_constant=_no_nonfinite)
    with open(cs, newline="") as fh:
        header, row = csv.reader(fh)
    assert header == _flat_keys(report)
    assert len(row) == len(header)
    assert not {"None", "nan"} & set(row)
    cells = dict(zip(header, row))
    assert (cells.get("plan_five_number.censored") == "") == (not simulated)
    assert float(cells["est.0"]) == report["est"][0]


def test_zero_sandwich_variance_exits_3(tmp_path, capsys):
    # x1 and x3 separate the events: every drawn residual vanishes along them
    # at the diverging estimate, so the sandwich has no variance there
    path = tmp_path / "d.csv"
    path.write_text(
        "time,status,x1,x2,x3\n"
        "0.6799319039689096,1,0.0,-0.12853466294403426,0.0\n1.0195971014658647,0,1.0,1.3664634705496859,1.0\n"
        "0.019806662589055352,0,0.0,-0.6651946734866135,1.0\n0.0022693266812281823,1,1.0,0.3515100700930197,1.0\n"
        "0.5503428726390482,0,0.0,0.9034701816518086,1.0\n1.6299404346583852,1,0.0,0.09401229776087457,1.0\n"
        "0.6735829526672319,0,0.0,-0.7434992493538084,1.0\n0.7553013578253913,1,0.0,-0.9217253762584194,0.0\n"
    )
    assert run_cli(["subsample", "-i", str(path), "--criterion", "lopt"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [covariance] sandwich variance is not positive and finite; check for separation\n"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constant_covariate_subsample_exits_3(seed, tmp_path, capsys):
    # a converged fit with a singular curvature is an error whatever the draw
    path = tmp_path / "d.csv"
    _constant_column_csv(path, 1)
    assert run_cli(["subsample", "-i", str(path), "--seed", str(seed)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not positive definite" in captured.err


def test_fit_neg_logpl_does_not_depend_on_blas_threads(tmp_path):
    # the criterion is a pairwise sum, not a BLAS dot product whose order
    # follows the thread count
    import coxsub

    path = tmp_path / "d.csv"
    assert run_cli(["simulate", "--n", "100000", "--cr", "0.2", "--seed", "7", "-o", str(path)]) == 0
    code = f"import sys\nfrom coxsub.cli import main\nsys.exit(main(['fit', '-i', {str(path)!r}]))\n"
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(coxsub.__file__).resolve().parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(done.stdout))
    assert reports[0]["neg_logpl"].hex() == reports[1]["neg_logpl"].hex()
    assert reports[0]["beta"] == reports[1]["beta"]


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("time,status,x1\n1.0,1,abc\n2.0,0,0.5\n", [], "row 1, column 'x1': non-numeric value 'abc'"),
        ("time,status,x1\n1.0,1,0.5\n2.0,0,0.25\n", ["--covariates", "nope"], "'nope' not found"),
    ],
)
def test_malformed_input_file_exits_2(text, flags, message, tmp_path, capsys):
    # a bad file is a usage error, not a numerical failure
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert run_cli(["fit", "-i", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "args, path",
    [
        (["fit", "-i", "{missing}", "-o", "{nodir}/x.json"], "{nodir}/x.json"),
        (["fit", "-i", "{missing}", "--baseline-out", "{file}/b.csv"], "{file}/b.csv"),
        (["subsample", "-i", "{missing}", "-o", "{dir}"], "{dir}"),
        (["subsample", "-i", "{missing}", "--plan-out", "{nodir}/p.csv"], "{nodir}/p.csv"),
        (["simulate", "--n", "50", "-o", "{nodir}/x.csv"], "{nodir}/x.csv"),
        (["simulate", "--n", "50", "-o", "{dir}/taken.csv"], "{dir}/taken.csv.meta.json"),
        (["calibrate", "--cr", "0.2", "-o", "{nodir}/c.json"], "{nodir}/c.json"),
    ],
)
def test_output_path_is_checked_before_any_input(args, path, tmp_path, capsys):
    # the input is missing too (or, for simulate, calibration would run first):
    # the error names the output path, so that path was checked before anything else
    (tmp_path / "taken.csv.meta.json").mkdir()
    (tmp_path / "file").write_text("")
    names = dict(missing=tmp_path / "nope.csv", dir=tmp_path, nodir=tmp_path / "nodir", file=tmp_path / "file")
    assert run_cli([a.format(**names) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path.format(**names)}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "taken.csv.meta.json"]


def test_failed_run_leaves_earlier_report_intact(tmp_path):
    out = tmp_path / "fit.json"
    out.write_text("earlier report\n")
    assert run_cli(["fit", "-i", str(tmp_path / "nope.csv"), "-o", str(out)]) == 2
    assert out.read_text() == "earlier report\n"


def test_cli_process_loads_no_pool_and_no_masked_arrays(sim_file):
    # the process pool is imported only by a replication run with threads > 1,
    # and no CLI path needs numpy.ma; both would cost every process start-up
    import coxsub

    argv = ["subsample", "-i", str(sim_file), "--r0", "100", "--r", "200", "-o", os.devnull]
    code = (
        "import sys\n"
        "import coxsub.cli\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "assert not [m for m in pool if m in sys.modules], 'pool imported'\n"
        f"assert coxsub.cli.main({argv!r}) == 0\n"
        "assert not [m for m in pool if m in sys.modules], 'pool imported'\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(coxsub.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["simulate", "fit", "subsample", "calibrate"])
def test_threads_only_on_benchmark(command, sim_file, tmp_path, capsys):
    # only the replication study runs worker processes
    required = {
        "simulate": ["-o", str(tmp_path / "x.csv")],
        "fit": ["-i", str(sim_file)],
        "subsample": ["-i", str(sim_file)],
        "calibrate": ["--cr", "0.2"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *required, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"threads": 2}))
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *required, "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "unknown keys ['threads']" in capsys.readouterr().err


def _declared_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def _assert_help_lists_subcommands(out):
    assert out.returncode == 0, out.stderr
    assert "simulate" in out.stdout and "benchmark" in out.stdout


def test_console_script_help():
    """The declared `coxsub` script runs and its --help names the subcommands.

    The target is run the way the setuptools-generated wrapper runs it, with
    the interpreter under test and the imported `coxsub` package first on the
    child's path, so no installed executable is needed.
    """
    import coxsub

    target = _declared_scripts().get("coxsub")
    assert target == "coxsub.cli:main"
    module, _, attr = target.partition(":")
    code = f"import sys\nfrom {module} import {attr}\nsys.argv[0] = 'coxsub'\nsys.exit({attr}())\n"
    env = dict(os.environ)
    package_root = str(Path(coxsub.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code, "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    _assert_help_lists_subcommands(out)


@pytest.mark.skipif(shutil.which("coxsub") is None, reason="coxsub is not installed on PATH")
def test_installed_console_script_help():
    out = subprocess.run(["coxsub", "--help"], capture_output=True, text=True, timeout=60)
    _assert_help_lists_subcommands(out)

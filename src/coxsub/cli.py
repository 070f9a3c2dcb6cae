"""Command-line interface: simulate, fit, subsample, benchmark, calibrate.

Exit codes: 0 success, 2 usage error (a bad flag, a malformed input file,
or a file a flag names that cannot be read or written), 3 numerical
failure: a fit that does not converge, naming why, or a two-step step
that cannot finish.  Every failure ends in one ``error:`` line on stderr,
after argparse's usage text for a bad flag; a warning before it is one
``warning:`` line.  Every output path a flag names is checked before any
input is read, but opened only when its result is ready.  All outputs
are machine-readable (JSON reports carry ``"schema": 1``); every
subcommand reads and writes only the files its flags name.  The same
``--seed`` on the same machine and numpy/BLAS build gives the same bits,
whatever the BLAS thread count; another CPU's BLAS kernel can move the
last bits.  ``benchmark --threads k`` reproduces the serial result
exactly.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
import time as _time
import warnings
from dataclasses import replace

import numpy as np

from . import simulation, subsampling
from .breslow import breslow_cumhaz
from .data import CsvSchema, load_csv, write_csv
from .errors import CoxSubError, CsvError
from .partial_likelihood import _fit_at, newton_solve
from .simulation import SimConfig, gen_dataset, resolve_c0, run_replications

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729  # fixed so repeated invocations reproduce byte-identical output


def _parse_floats(text, parser, flag: str) -> np.ndarray:
    """The finite numbers a coefficient flag lists; a usage error naming ``flag`` otherwise."""
    items = text if isinstance(text, (list, tuple)) else [v for v in str(text).split(",") if v != ""]
    try:
        vals = np.asarray([float(v) for v in items])
    except (TypeError, ValueError):
        parser.error(f"{flag}: expected comma-separated numbers, got {text!r}")
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        parser.error(f"{flag}: expected one or more finite numbers, got {text!r}")
    return vals


def _parse_names(text: str, parser, flag: str, allowed: tuple[str, ...], norm) -> list[str]:
    """The names a list flag gives, normalised by ``norm``; a usage error naming ``flag`` otherwise."""
    names = [norm(v.strip()) for v in str(text).split(",") if v.strip()]
    if not names or not set(names) <= set(allowed):
        parser.error(f"{flag}: expected a comma-separated list of {', '.join(allowed)}, got {text!r}")
    return names


def _emit(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "csv":
        flat = _flatten(report)
        cells = ("" if v is None else str(v) for v in flat.values())
        text = ",".join(flat.keys()) + "\n" + ",".join(cells) + "\n"
    else:
        text = json.dumps(report, indent=2, default=_json_default) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, f"{key}."))
        elif isinstance(v, (list, tuple, np.ndarray)):
            for i, item in enumerate(v):
                out[f"{key}.{i}"] = item
        else:
            out[key] = v
    return out


def _schema_from_args(args) -> CsvSchema:
    covs = None
    if args.covariates is not None:
        covs = tuple(c for c in str(args.covariates).split(",") if c != "")
    try:
        return CsvSchema(
            time_column=args.time_col,
            status_column=args.status_col,
            covariate_columns=covs,
            delimiter=args.delimiter,
            has_header=not args.no_header,
        )
    except ValueError as exc:
        # the schema checks only the delimiter's length and the covariate list
        flag = "--delimiter" if len(args.delimiter) != 1 else "--covariates"
        args._parser.error(f"{flag}: {exc}")


def _check(cond, parser, message):
    if not cond:
        parser.error(message)


def _check_outputs(*paths: str | None) -> None:
    """Raise the ``OSError`` that opening each given output path for writing would.

    Nothing is created or truncated, so a run that fails later still leaves
    an earlier result at the path.
    """
    for path in filter(None, paths):
        parent = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), path)


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    p = args._parser
    _check(0.0 < args.cr < 1.0, p, "--cr must lie in (0, 1)")
    _check(args.n >= 1, p, "--n must be at least 1")
    _check(args.c0 is None or (math.isfinite(args.c0) and args.c0 > 0), p, "--c0 must be finite and positive")
    beta = _parse_floats(args.beta, p, "--beta") if args.beta is not None else np.asarray(simulation.DEFAULT_BETA)
    _check_outputs(args.output, args.output + ".meta.json")
    cfg = SimConfig(
        case=args.case,
        n=args.n,
        beta_true=tuple(beta),
        target_cr=args.cr,
        c0=args.c0,
        seed=args.seed,
    )
    cfg = resolve_c0(cfg)
    ds = gen_dataset(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed)))
    write_csv(ds, args.output)
    sidecar = {
        "schema": SCHEMA_VERSION,
        "case": cfg.case,
        "n": cfg.n,
        "target_cr": cfg.target_cr,
        "empirical_cr": ds.censoring_rate,
        "c0": cfg.c0,
        "beta_true": list(cfg.beta_true),
        "seed": cfg.seed,
    }
    _emit(sidecar, args.output + ".meta.json", "json")
    print(f"wrote {ds.n} records to {args.output} (empirical CR {ds.censoring_rate:.4f})")
    return 0


# ---------------------------------------------------------------- fit


def cmd_fit(args) -> int:
    # the flag is checked before the input is read; only its length needs p
    fixed = None if args.fix_beta is None else _parse_floats(args.fix_beta, args._parser, "--fix-beta")
    _check_outputs(args.output, args.baseline_out)
    ds = load_csv(args.input, _schema_from_args(args))
    _check(fixed is None or fixed.size in (1, ds.p), args._parser, f"--fix-beta needs 1 or {ds.p} values")
    t0 = _time.perf_counter()
    fit = newton_solve(ds) if fixed is None else _fit_at(ds, np.resize(fixed, ds.p))
    wall = _time.perf_counter() - t0
    se = fit.standard_errors(ds.n)
    if args.baseline_out:
        breslow_cumhaz(ds, fit.beta).write_csv(args.baseline_out)
    report = {
        "schema": SCHEMA_VERSION,
        "n": ds.n,
        "p": ds.p,
        "n_events": ds.n_events,
        "beta": fit.beta,
        "se": se,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "score_norm": fit.final_score_norm,
        "neg_logpl": fit.neg_logpl,
        "wall_time_s": wall,
    }
    _emit(report, args.output, args.format)
    return 0


# ---------------------------------------------------------------- subsample


def cmd_subsample(args) -> int:
    p = args._parser
    _check(args.r0 >= 1, p, "--r0 must be at least 1")
    _check(args.r >= 1, p, "--r must be at least 1")
    _check(0.0 <= args.delta <= 1.0, p, "--delta must lie in [0, 1]")
    _check(args.reps >= 1, p, "--reps must be at least 1")
    _check_outputs(args.output, args.plan_out)
    ds = load_csv(args.input, _schema_from_args(args))
    runs = [
        subsampling.two_step(ds, args.r0, args.r, args.delta, args.criterion, np.random.default_rng(s))
        for s in np.random.SeedSequence(args.seed).spawn(args.reps)
    ]
    first = runs[0]
    if args.plan_out:
        first.plan.write_csv(args.plan_out, status=ds.status)
    summary = simulation.five_number_summary(first.plan, ds.status)
    est = first.fit.beta
    se = first.covariance.standard_errors
    report = {
        "schema": SCHEMA_VERSION,
        "criterion": args.criterion,
        "r0": args.r0,
        "r": args.r,
        "delta": args.delta,
        "seed": args.seed,
        "est": est,
        "se": se,
        "ci_lower": est - 1.96 * se,
        "ci_upper": est + 1.96 * se,
        "iterations": first.fit.iterations,
        "timings": first.timings,
        "plan_five_number": vars(summary),
    }
    if args.reps > 1:
        ref = newton_solve(ds)
        ests = np.asarray([r.fit.beta for r in runs])
        ses = np.asarray([r.covariance.standard_errors for r in runs])
        report["reps"] = args.reps
        report["reference_beta"] = ref.beta
        report.update(simulation._error_summary(ests, ses, ref.beta))
    _emit(report, args.output, args.format)
    return 0


# ---------------------------------------------------------------- benchmark


def cmd_benchmark(args) -> int:
    p = args._parser
    cases = _parse_names(args.cases, p, "--cases", simulation.CASES, str.upper)
    methods = _parse_names(args.methods, p, "--methods", simulation._METHODS, str.lower)
    _check(0.01 < args.cr < 0.99, p, "--cr must lie in (0.01, 0.99)")
    _check(args.n >= 1, p, "--n must be at least 1")
    _check(args.r0 >= 1, p, "--r0 must be at least 1")
    r_grid = _parse_floats(args.r_grid, p, "--r-grid")
    delta_grid = _parse_floats(args.delta_grid, p, "--delta-grid").tolist()
    _check(all(r >= 1 and r == int(r) for r in r_grid), p, "--r-grid entries must be positive integers")
    r_grid = [int(r) for r in r_grid]
    _check(all(0.0 <= d <= 1.0 for d in delta_grid), p, "--delta-grid entries must lie in [0, 1]")
    _check(args.reps >= 2, p, "--reps must be at least 2")
    _check(args.timing_n >= 1, p, "--timing-n must be at least 1")
    _check(args.threads >= 1, p, "--threads must be at least 1")
    os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    configs = []
    for case in cases:
        cfg = SimConfig(case=case, n=args.n, target_cr=args.cr, seed=args.seed)
        for method in methods:
            for r in r_grid:
                for delta in delta_grid:
                    cell = dict(
                        case=case, cr=args.cr, method=method, mode=args.mode,
                        r0=args.r0, r=r, delta=delta, n=args.n, reps=args.reps,
                    )
                    try:
                        # calibrates once per case: a resolved config comes back unchanged
                        cfg = resolve_c0(cfg)
                        rep = run_replications(
                            cfg,
                            method,
                            r0=args.r0,
                            r=r,
                            delta=delta,
                            n_reps=args.reps,
                            seed=args.seed,
                            mode=args.mode,
                            threads=args.threads,
                        )
                        cell.update(
                            mse=rep.mse,
                            bias_b1=rep.bias[0],
                            ese_b1=rep.ese[0],
                            se_b1=rep.mean_se[0],
                            cp_b1=rep.coverage[0],
                            failures=rep.n_failures,
                            error="",
                        )
                    except CoxSubError as exc:
                        cell.update(
                            mse="", bias_b1="", ese_b1="", se_b1="", cp_b1="",
                            failures="", error=str(exc),
                        )
                    rows.append(cell)
                    print(
                        f"case {case} method {method} r={r} delta={delta}: "
                        f"mse={cell['mse']}" + (f" ERROR {cell['error']}" if cell["error"] else "")
                    )
        configs.append(cfg)
    table_path = os.path.join(args.out_dir, "replications.csv")
    with open(table_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

    timing_path = os.path.join(args.out_dir, "timing.csv")
    _timing_table(args, configs[0], max(r_grid), timing_path)
    print(f"wrote {table_path} and {timing_path}")
    return 0


def _timing_table(args, cfg: SimConfig, r: int, path: str) -> None:
    """Full-data solve vs one two-step run on ``cfg`` resized to ``args.timing_n`` (c0 is size-free)."""
    cfg = resolve_c0(replace(cfg, n=args.timing_n))
    data_seq, warm_seq, sub_seq = np.random.SeedSequence(cfg.seed).spawn(3)
    ds = gen_dataset(cfg, np.random.default_rng(data_seq))
    # warm both paths on the timed dataset itself: neither timing pays a first-use build or page fault
    newton_solve(ds)
    subsampling.two_step(ds, args.r0, r, 0.1, "lopt", np.random.default_rng(warm_seq))

    t0 = _time.perf_counter()
    newton_solve(ds)
    full_wall = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    res = subsampling.two_step(ds, args.r0, r, 0.1, "lopt", np.random.default_rng(sub_seq))
    two_wall = _time.perf_counter() - t0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "full_fit_s", "two_step_s", "speedup", *sorted(res.timings)])
        writer.writerow(
            [
                ds.n,
                f"{full_wall:.4f}",
                f"{two_wall:.4f}",
                f"{full_wall / two_wall:.2f}",
                *(f"{res.timings[k]:.4f}" for k in sorted(res.timings)),
            ]
        )


# ---------------------------------------------------------------- calibrate


def cmd_calibrate(args) -> int:
    p = args._parser
    _check(0.01 < args.cr < 0.99, p, "--cr must lie in (0.01, 0.99)")
    _check(math.isfinite(args.tol) and args.tol > 0, p, "--tol must be finite and positive")
    beta = _parse_floats(args.beta, p, "--beta") if args.beta is not None else np.asarray(simulation.DEFAULT_BETA)
    _check_outputs(args.output)
    c0 = simulation.calibrate_c0(args.case, beta, args.cr, seed=args.seed, tol=args.tol)
    check_rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(2)[1])
    X = simulation.gen_covariates(args.case, 100_000, check_rng, p=beta.size)
    t_fail = simulation.gen_failure_times(X, beta, check_rng)
    achieved = simulation._censoring_rate(t_fail, check_rng.random(100_000), c0)
    report = {
        "schema": SCHEMA_VERSION,
        "case": str(args.case).upper(),
        "target_cr": args.cr,
        "c0": c0,
        "achieved_cr": achieved,
        "seed": args.seed,
    }
    _emit(report, args.output, "json")
    return 0


# ---------------------------------------------------------------- wiring


def _add_common(sub, io_input=False):
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default %(default)s)")
    sub.add_argument("--config", help="JSON file with flag defaults (flags win)")
    if io_input:
        sub.add_argument("-i", "--input", required=True, help="dataset CSV path")
        sub.add_argument("--time-col", default="time")
        sub.add_argument("--status-col", default="status")
        sub.add_argument("--covariates", default=None,
                         help="comma-separated covariate columns (default: all others)")
        sub.add_argument("--delimiter", default=",")
        sub.add_argument("--no-header", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxsub",
        description="Proportional-hazards fitting on massive survival data via two-step subsampling.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="generate a synthetic dataset CSV")
    sim.add_argument("--case", default="I", choices=["I", "II", "III", "IV"])
    sim.add_argument("--n", type=int, default=100_000)
    sim.add_argument("--cr", type=float, default=0.2, help="target censoring rate")
    sim.add_argument("--c0", type=float, default=None, help="censoring bound (skips calibration)")
    sim.add_argument("--beta", default=None, help="true coefficients, comma-separated")
    sim.add_argument("-o", "--output", required=True)
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate, _parser=sim)

    fit = commands.add_parser("fit", help="full-data maximum partial likelihood fit")
    fit.add_argument("--fix-beta", default=None, help="evaluate at fixed coefficients instead of solving")
    fit.add_argument("--baseline-out", default=None, help="write cumulative baseline hazard CSV")
    fit.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    fit.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(fit, io_input=True)
    fit.set_defaults(func=cmd_fit, _parser=fit)

    ss = commands.add_parser("subsample", help="two-step subsample estimate with standard errors")
    ss.add_argument("--r0", type=int, default=300, help="pilot subsample size")
    ss.add_argument("--r", type=int, default=1000, help="second-stage subsample size")
    ss.add_argument("--delta", type=float, default=0.1, help="uniform mixing rate")
    ss.add_argument("--criterion", choices=["lopt", "aopt", "unif"], default="lopt")
    ss.add_argument("--reps", type=int, default=1,
                    help="repeat the procedure and report spread vs the full-data fit")
    ss.add_argument("--plan-out", default=None,
                    help="write per-record selection probabilities to CSV")
    ss.add_argument("-o", "--output", default=None)
    ss.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(ss, io_input=True)
    ss.set_defaults(func=cmd_subsample, _parser=ss)

    bench = commands.add_parser("benchmark", help="replication study over a parameter grid")
    bench.add_argument("--cases", default="I")
    bench.add_argument("--n", type=int, default=100_000)
    bench.add_argument("--cr", type=float, default=0.2)
    bench.add_argument("--r0", type=int, default=300)
    bench.add_argument("--r-grid", default="400,600,800,1000")
    bench.add_argument("--delta-grid", default="0.1")
    bench.add_argument("--methods", default="lopt,unif")
    bench.add_argument("--reps", type=int, default=200)
    bench.add_argument("--mode", choices=["fixed", "fresh"], default="fixed")
    bench.add_argument("--timing-n", type=int, default=1_000_000,
                       help="dataset size for the wall-clock comparison")
    bench.add_argument("--out-dir", required=True)
    bench.add_argument("--threads", type=int, default=1, help="worker processes for replications")
    _add_common(bench)
    bench.set_defaults(func=cmd_benchmark, _parser=bench)

    cal = commands.add_parser("calibrate", help="find the censoring bound for a target rate")
    cal.add_argument("--case", default="I", choices=["I", "II", "III", "IV"])
    cal.add_argument("--cr", type=float, required=True)
    cal.add_argument("--beta", default=None)
    cal.add_argument("--tol", type=float, default=0.002)
    cal.add_argument("-o", "--output", default=None)
    _add_common(cal)
    cal.set_defaults(func=cmd_calibrate, _parser=cal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = args._parser
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            sub.error(f"--config: {exc}")
        allowed = {a.dest for a in sub._actions} - {"help", "config"}
        unknown = set(config) - allowed
        if unknown:
            sub.error(f"--config: unknown keys {sorted(unknown)}")
        sub.set_defaults(**config)
        args = parser.parse_args(argv)
    # each warning prints as one line, without its source location or source line
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except CoxSubError as exc:
        sys.stderr.write(f"error: {exc}\n")
        # a malformed input file is a usage error; the rest are numerical failures
        return 2 if isinstance(exc, CsvError) else 3
    except OSError as exc:
        if exc.filename is None:
            raise
        # a path named on the command line that cannot be read or written
        sys.stderr.write(f"error: {exc.filename}: {exc.strerror}\n")
        return 2
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())

"""The two benchmark workloads and the spans that trace them.

Every workload is a closed loop with one client and no think time: an
operation starts when the previous one ends, and the loop runs until the
requested number of seconds has passed (at least one full cycle).  Inputs
come only from the workload seed.  See README.md for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from coxsub import breslow, cli, data, partial_likelihood, simulation, subsampling
from coxsub.errors import CoxSubError

from tracing import Tracer

R0, R, DELTA = 300, 1000, 0.1
CR = 0.2
CLI_N = 100_000
LIB_N = 1_000_000
SETUPS = 3  # set-up repetitions per run; setup_s is their median
SE_BOUND = 4.0  # two-step estimate must lie within this many SEs of the full fit
REL_TOL = 1e-10  # CLI fit vs in-process fit on the regenerated arrays
CRITERIA = ("lopt", "aopt")
# two_step calls per newton_solve in one lib_1m cycle: the short lopt call
# is repeated so that each metric's mean rests on a similar span of time
LIB_REPEATS = {"lopt": 4, "aopt": 2}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def derived_int(seed: int, *path: int) -> int:
    """A 31-bit integer seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


class Run:
    """State of one benchmark run: inputs, counters, samples, spans."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.errors: list[str] = []  # messages of failed operations
        self.samples: dict[str, list[float]] = {}
        self.info: dict = {}

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])

    def mean(self, key: str) -> float:
        return statistics.mean(self.samples[key])

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)

    def until_done(self, seconds: float | None = None):
        """Yield cycle numbers for about ``seconds`` (default: the run's), at least one.

        A further cycle starts only if, at the mean cycle time so far, it
        would end nearer the target than stopping now.
        """
        seconds = self.seconds if seconds is None else seconds
        start = time.perf_counter()
        k = 0
        while k == 0 or (time.perf_counter() - start) * (1 + 0.5 / k) < seconds:
            yield k
            k += 1

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def loop_metrics(run: Run, peak_rss_mb: float) -> dict:
    """End-to-end metrics of a loop that samples the three estimate kinds.

    Operation times are means over the run: a shared host can alternate
    between a fast and a slow mode every few seconds, and a median of a few
    samples then jumps between the two modes from one run to the next.
    """
    kinds = ("fit_s", "two_step_lopt_s", "two_step_aopt_s")
    ops = sum(len(run.samples.get(m, [])) for m in kinds)
    busy = sum(sum(run.samples.get(m, [])) for m in kinds)
    return {
        "setup_s": run.median("setup_s"),
        **{m: run.mean(m) for m in kinds},
        "estimates_per_s": ops / busy,
        "peak_rss_mb": peak_rss_mb,
    }


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _watch_peak_rss(pid: int, done: threading.Event, readings: list) -> None:
    """Poll the child's VmHWM (peak RSS of its current image, kB) until ``done``."""
    while not done.wait(0.01):
        try:
            with open(f"/proc/{pid}/status") as fh:
                readings.extend(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        except OSError:
            return


def run_process(argv, log_path: str, env=None) -> tuple[float, float, int]:
    """Run a child to completion; returns (wall seconds, peak RSS in MB, exit code).

    The child's ``ru_maxrss`` would not do: exec records the peak RSS of the
    image it replaces, which for a spawned child is this process's.  So the
    peak is the last VmHWM read while the child runs.
    """
    readings: list[int] = []
    done = threading.Event()
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=env)
        watcher = threading.Thread(target=_watch_peak_rss, args=(proc.pid, done, readings))
        watcher.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            watcher.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, readings[-1] / 1024.0 if readings else float("nan"), proc.returncode


def own_peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_two_step(run: Run, label: str, est, se, ref_beta) -> None:
    est, se = np.asarray(est, dtype=float), np.asarray(se, dtype=float)
    finite = bool(np.all(np.isfinite(se)) and np.all(se > 0))
    run.check(finite, f"{label}: standard errors not finite and positive: {se.tolist()}")
    if finite:
        z = np.abs(est - ref_beta) / se
        run.check(bool(np.all(z <= SE_BOUND)), f"{label}: estimate off the full fit by {z.max():.2f} SE")


def two_step_stats(res) -> dict:
    w = res.subsample.weights
    r = w.size
    return {
        "weight_ess_ratio": float(w.sum() ** 2 / np.square(w).sum() / r),
        "distinct_ratio": float(np.unique(res.subsample.indices).size / r),
        "clamped_queries": int(res.pilot.xbar.clamped_queries),
    }


# ------------------------------------------------------------------ spans


def instrument(tracer: Tracer):
    """Span wrappers for the public calls of every coxsub module.

    Each entry replaces the name a caller looks up, so a function imported
    into several modules is wrapped in each of them.
    """
    t = tracer
    crit = lambda phase: lambda a, k: f"subsampling.{t.attr('criterion', 'none')}.{phase}"

    def newton_name(a, k):
        role = k.get("role", "full_mpl")
        if role == "pilot":
            return "partial_likelihood.pilot_solve"
        if role == "two_step":
            return "partial_likelihood.subset_fit"
        subset = k.get("subset", a[2] if len(a) > 2 else None)
        return "partial_likelihood.newton_solve" if subset is None else "partial_likelihood.subset_fit"

    def newton_done(fit, a, k, rec):
        rec["attrs"]["iterations"] = fit.iterations

    def residuals_name(a, k):
        subset = k.get("subset", a[4] if len(a) > 4 else None)
        return "breslow.score_residuals" if subset is None else "breslow.subset_residuals"

    def sorted_view_name(a, k):
        return "data.sorted_view" if getattr(a[0], "_sorted_view", None) is None else None

    newton = t.wrap(partial_likelihood.newton_solve, newton_name, on_result=newton_done)
    gen = t.wrap(simulation.gen_dataset, "simulation.gen_dataset")
    two_step = _wrap_two_step(t, subsampling.two_step)
    rsm_build = breslow.RiskSetMean.__dict__["build"].__func__
    return [
        (data.SurvivalDataset, "__post_init__", t.wrap(data.SurvivalDataset.__post_init__, "data.build")),
        (data.SurvivalDataset, "sorted_view", t.wrap(data.SurvivalDataset.sorted_view, sorted_view_name)),
        (cli, "load_csv", t.wrap(data.load_csv, "data.load_csv", capture=True)),
        (cli, "write_csv", t.wrap(data.write_csv, "data.write_csv")),
        (cli, "gen_dataset", gen),
        (simulation, "gen_dataset", gen),
        (simulation, "calibrate_c0", t.wrap(simulation.calibrate_c0, "simulation.calibrate_c0")),
        (partial_likelihood, "newton_solve", newton),
        (cli, "newton_solve", newton),
        (subsampling, "newton_solve", newton),
        (partial_likelihood, "neg_log_partial_likelihood",
         t.wrap(partial_likelihood.neg_log_partial_likelihood, "partial_likelihood.nll")),
        (partial_likelihood, "score", t.wrap(partial_likelihood.score, "partial_likelihood.score")),
        (partial_likelihood, "hessian", t.wrap(partial_likelihood.hessian, "partial_likelihood.hessian")),
        (subsampling, "score_residual_norms", t.wrap(breslow.score_residual_norms, "breslow.residual_norms")),
        (subsampling, "score_residuals", t.wrap(breslow.score_residuals, residuals_name)),
        (breslow.RiskSetMean, "build", classmethod(t.wrap(rsm_build, "breslow.risk_set_mean"))),
        (subsampling, "pilot_breslow", t.wrap(breslow.pilot_breslow, "breslow.pilot_breslow")),
        (subsampling, "fit_pilot", t.wrap(subsampling.fit_pilot, crit("pilot_fit"))),
        (subsampling, "compute_lopt_probs", t.wrap(subsampling.compute_lopt_probs, crit("probability_pass"))),
        (subsampling, "compute_aopt_probs", t.wrap(subsampling.compute_aopt_probs, crit("probability_pass"))),
        (subsampling, "draw_weighted", t.wrap(subsampling.draw_weighted, crit("draw"))),
        (subsampling, "weighted_fit", t.wrap(subsampling.weighted_fit, crit("second_fit"))),
        (subsampling, "estimate_covariance", t.wrap(subsampling.estimate_covariance, crit("covariance"))),
        (subsampling, "two_step", two_step),
    ]


def _wrap_two_step(tracer: Tracer, fn):
    """``two_step`` in a span carrying its criterion, which the phase spans inside use."""

    def wrapper(ds, r0, r, delta, criterion, rng, *args, **kwargs):
        with tracer.span(f"subsampling.{criterion}.two_step", criterion=criterion) as rec:
            res = fn(ds, r0, r, delta, criterion, rng, *args, **kwargs)
        rec["attrs"].update(two_step_stats(res))
        return res

    return wrapper


def traced(run: Run):
    """Context manager that installs the spans when the run is traced."""
    if not run.trace:
        return contextlib.nullcontext()
    return run.tracer.patched(instrument(run.tracer))


def probe_evaluations(run: Run, ds, beta) -> None:
    """One traced call of each public criterion evaluation at ``beta``."""
    run.tracer.new_op()
    partial_likelihood.neg_log_partial_likelihood(ds, beta)
    partial_likelihood.score(ds, beta)
    partial_likelihood.hessian(ds, beta)


# ------------------------------------------------------------------ cli_csv


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "coxsub.cli", *map(str, args)]


def cli_commands(run: Run, csv_path: str, sub_seed: int) -> list[tuple[str, list[str], str]]:
    """The loop's commands: (metric, argv after the program, report path)."""
    out = []
    for criterion in CRITERIA:
        report = run.path(f"subsample_{criterion}.json")
        out.append((f"two_step_{criterion}_s",
                    ["subsample", "-i", csv_path, "--criterion", criterion,
                     "--seed", str(sub_seed), "-o", report], report))
    report = run.path("fit.json")
    out.append(("fit_s", ["fit", "-i", csv_path, "-o", report], report))
    return out


def check_cli_report(run: Run, metric: str, report_path: str, ref) -> None:
    with open(report_path) as fh:
        rep = json.load(fh)
    if metric == "fit_s":
        beta = np.asarray(rep["beta"], dtype=float)
        run.check(rep["converged"] is True, "cli fit: not converged")
        rel = float(np.linalg.norm(beta - ref.beta) / np.linalg.norm(ref.beta))
        run.check(rel <= REL_TOL, f"cli fit: beta differs from the in-process fit by {rel:.3e} (relative)")
        run.info["cli_fit_solve_s"] = rep["wall_time_s"]
    else:
        check_two_step(run, f"cli {metric}", rep["est"], rep["se"], ref.beta)
        if metric == "two_step_lopt_s":
            run.info["cli_subsample_estimator_s"] = float(sum(rep["timings"].values()))


def regenerate_reference(csv_path: str):
    """Rebuild the simulated arrays in-process from the sidecar and fit them."""
    with open(csv_path + ".meta.json") as fh:
        meta = json.load(fh)
    cfg = simulation.SimConfig(case=meta["case"], n=meta["n"], target_cr=meta["target_cr"],
                               c0=meta["c0"], seed=meta["seed"],
                               beta_true=tuple(meta["beta_true"]))
    ds = simulation.gen_dataset(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed)))
    return partial_likelihood.newton_solve(ds)


def workload_cli_csv(run: Run) -> dict:
    data_seed, sub_seed = derived_int(run.seed, 1), derived_int(run.seed, 2)
    csv_path = run.path("data.csv")
    log = run.path("cli.log")
    simulate = ["simulate", "--case", "I", "--n", str(CLI_N), "--cr", str(CR),
                "--seed", str(data_seed), "-o", csv_path]
    rss = []

    def setup(k: int) -> None:
        # a fresh HOME per set-up keeps the c0 calibration cold every time
        home = run.path(f"home-setup-{k}")
        os.makedirs(home)
        wall, mb, rc = run_process(cli_argv(*simulate), log, env=dict(os.environ, HOME=home))
        run.attempted += 1
        if rc != 0:
            run.failed += 1
        run.sample("setup_s", wall)
        run.sample("cli.simulate.rss_mb", mb)
        rss.append(mb)

    def subprocess_cycle(ref) -> float:
        total = 0.0
        for metric, argv, report in cli_commands(run, csv_path, sub_seed):
            wall, mb, rc = run_process(cli_argv(*argv), log)
            run.attempted += 1
            rss.append(mb)
            run.sample(f"cli.{argv[0]}.rss_mb", mb)
            if rc != 0:
                run.failed += 1
                continue
            run.sample(metric, wall)
            total += wall
            check_cli_report(run, metric, report, ref)
        return total

    if not run.trace:
        for k in range(SETUPS):
            setup(k)
        ref = regenerate_reference(csv_path)
        for _ in run.until_done():
            subprocess_cycle(ref)
        return loop_metrics(run, max(rss))

    # traced: the same commands through coxsub.cli.main in this process
    setup(0)
    ref = regenerate_reference(csv_path)
    tracer = run.tracer

    def in_process_cycle(tr: bool) -> float:
        total = 0.0
        for metric, argv, report in cli_commands(run, csv_path, sub_seed):
            tracer.new_op()
            run.attempted += 1
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                span = tracer.span(f"cli.{argv[0]}") if tr else contextlib.nullcontext()
                with span:
                    rc = cli.main(argv)
            total += time.perf_counter() - t0
            if rc != 0:
                run.failed += 1
                continue
            check_cli_report(run, metric, report, ref)
        return total

    with traced(run):
        tracer.new_op()
        with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.simulate"):
            rc = cli.main(simulate)
        run.attempted += 1
        run.failed += rc != 0
        for _ in run.until_done(run.seconds / 2):
            run.sample("trace.traced_s", in_process_cycle(True))
    for _ in run.until_done(run.seconds / 2):
        run.sample("trace.untraced_s", in_process_cycle(False))
    subprocess_cycle(ref)
    loaded = tracer.captured.get("data.load_csv")
    if loaded is not None:
        with traced(run):
            probe_evaluations(run, loaded, ref.beta)
    startup = [run_process(cli_argv("--help"), log)[0] for _ in range(3)]
    return {
        "data.csv_bytes": os.path.getsize(csv_path),
        "cli.startup_s": statistics.median(startup),
        "cli.fit.solve_s": run.info["cli_fit_solve_s"],
        "cli.subsample.estimator_s": run.info["cli_subsample_estimator_s"],
        **{f"cli.{c}.rss_mb": run.median(f"cli.{c}.rss_mb") for c in ("simulate", "subsample", "fit")},
    }


# ------------------------------------------------------------------ lib_1m


def workload_lib_1m(run: Run) -> dict:
    data_seed = derived_int(run.seed, 1)
    seqs = {c: np.random.SeedSequence([run.seed, 2, k]) for k, c in enumerate(CRITERIA)}

    def estimate(ds, criterion):
        return subsampling.two_step(ds, R0, R, DELTA, criterion, np.random.default_rng(seqs[criterion]))

    def setup():
        t0 = time.perf_counter()
        cfg = simulation.resolve_c0(simulation.SimConfig(case="I", n=LIB_N, target_cr=CR, seed=data_seed))
        ds = simulation.gen_dataset(cfg, np.random.default_rng(np.random.SeedSequence(data_seed)))
        ref = partial_likelihood.newton_solve(ds)
        for criterion in CRITERIA:
            estimate(ds, criterion)
        run.sample("setup_s", time.perf_counter() - t0)
        return ds, ref

    def cycle(ds, ref) -> float:
        total = 0.0
        ops = [("fit_s", lambda: partial_likelihood.newton_solve(ds))]
        ops += [(f"two_step_{c}_s", lambda c=c: estimate(ds, c)) for c in CRITERIA for _ in range(LIB_REPEATS[c])]
        for metric, op in ops:
            run.tracer.new_op()
            run.attempted += 1
            try:
                out, wall = timed(op)
            except CoxSubError as exc:
                run.failed += 1
                run.errors.append(f"{metric}: {exc}")
                continue
            total += wall
            run.sample(metric, wall)
            if metric == "fit_s":
                run.check(out.converged and np.array_equal(out.beta, ref.beta), "full fit changed between calls")
            else:
                run.check(out.covariance is not None, f"{metric}: second fit did not converge")
                if out.covariance is not None:
                    check_two_step(run, metric, out.fit.beta, out.covariance.standard_errors, ref.beta)
        return total

    if not run.trace:
        ds = ref = None
        for _ in range(SETUPS):
            ds = ref = None  # release the previous dataset before building the next
            ds, ref = setup()
        run.check(ref.converged, "full fit did not converge")
        for _ in run.until_done():
            cycle(ds, ref)
        return loop_metrics(run, own_peak_rss_mb())

    with traced(run):
        run.tracer.new_op()
        ds, ref = setup()
    run.check(ref.converged, "full fit did not converge")
    for k in run.until_done():
        for tr in ((True, False) if k % 2 == 0 else (False, True)):
            if tr:
                with traced(run):
                    run.sample("trace.traced_s", cycle(ds, ref))
            else:
                run.sample("trace.untraced_s", cycle(ds, ref))
    with traced(run):
        probe_evaluations(run, ds, ref.beta)
    return {}


WORKLOADS = {
    "cli_csv": workload_cli_csv,
    "lib_1m": workload_lib_1m,
}


def layer_metrics(run: Run, extra: dict, names: list[str]) -> dict:
    """Per-layer metrics of a traced run; 0 for a layer the workload never calls."""
    t = run.tracer
    traced_s, untraced_s = run.median("trace.traced_s"), run.median("trace.untraced_s")
    known = {
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        **extra,
    }
    out = {}
    for name in names:
        if name in known:
            out[name] = known[name]
        elif name == "partial_likelihood.iterations":
            its = t.attr_values("partial_likelihood.newton_solve", "iterations")
            out[name] = statistics.median(its) if its else 0
        elif name == "breslow.clamped_queries":
            vals = [v for c in CRITERIA for v in t.attr_values(f"subsampling.{c}.two_step", "clamped_queries")]
            out[name] = statistics.median(vals) if vals else 0
        elif name.endswith(("weight_ess_ratio", "distinct_ratio")):
            span, key = name.rsplit(".", 1)
            vals = t.attr_values(span + ".two_step", key)
            out[name] = statistics.median(vals) if vals else 0.0
        elif name.endswith(".self_s"):
            out[name] = t.median_self(name[: -len(".self_s")])
        elif name.endswith("_s"):
            out[name] = t.median_self(name[: -len("_s")])
        else:
            out[name] = 0
    return out

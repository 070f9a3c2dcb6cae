#!/usr/bin/env python3
"""Benchmark of the coxsub package: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload lib_1m --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (machine,
library versions, every sample, failed checks and, when traced, every
span) is written to ``.perfbench_out/``.  The package is imported from
``./src``; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

# no bytecode cache, here or in child processes: every run, the first in a
# fresh checkout included, imports the sources the same way
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_record() -> dict:
    """BLAS library as numpy was built against it, and its thread count."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def environment(root: str, nproc: int) -> dict:
    import numpy as np

    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "ram_gb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "coxsub_threads_env": os.environ.get("COXSUB_THREADS"),
        "git_commit": git_commit(root),
        "page_cache": "CSV reads are warm: the file is read right after it is written, "
                      "and the benchmark never drops the page cache",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "coxsub", "__init__.py")):
        sys.stderr.write(f"perfbench: no coxsub sources under {src}; run from the repository root\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    # a private HOME per run: a stale c0 cache can neither skip nor change
    # calibration; COXSUB_THREADS stays unset so CLI defaults apply
    home = os.path.join(work, "home")
    os.makedirs(home)
    os.environ.update(HOME=home, TMPDIR=work)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ.pop("COXSUB_THREADS", None)
    sys.path.insert(0, src)
    try:
        # imported only now: coxsub.cli reads HOME when it is imported
        import coxsub
        import workloads

        package = os.path.dirname(os.path.realpath(coxsub.__file__))
        if package != os.path.realpath(os.path.join(src, "coxsub")):
            sys.stderr.write(f"perfbench: imported coxsub from {package}, not {src}\n")
            return 2
        run = workloads.Run(args.seed, args.seconds, bool(args.trace), work)
        values = workloads.WORKLOADS[args.workload](run)
        if args.trace:
            values = workloads.layer_metrics(run, values, [m["name"] for m in declared])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = {m["name"] for m in declared} - set(values)
    if missing:
        raise RuntimeError(f"workload {args.workload} did not measure {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    env = environment(root, workloads.nproc())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "result": result,
        "check_failures": run.check_failures,
        "errors": run.errors,
        "samples": run.samples,
        "info": run.info,
        "spans": run.tracer.records(),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in run.check_failures:
        print(f"check failed: {failure}")
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

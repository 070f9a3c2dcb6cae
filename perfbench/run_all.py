#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json once and print its metrics as a table.

    python3 perfbench/run_all.py --seed 1 [--trace 1]

Each workload runs through ``perfbench/run.py`` in its own process, for the
``run_seconds`` that BENCHMARK.json sets.  Exits non-zero if a workload
fails, fails a check or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            if line.startswith("check failed"):
                print(f"  {line}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

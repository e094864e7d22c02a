"""Run every workload untraced and traced, and print their metrics by name and unit.

    python3 perfbench/report.py [--seed N]

For each workload this prints the end-to-end metrics, ``fail_ratio`` (failed
over attempted experiment runs, across both runs) and the tracing overhead.
Untraced runs measure for ``run_seconds`` of ``BENCHMARK.json``.  The
per-layer metrics are in the result of ``run.py --trace 1``.
"""

import argparse
import json
import os
import subprocess
import sys

import run

OVERHEAD = ("trace.overhead_s", "trace.noise_s")


def result(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for workload in run.WORKLOADS:
        plain = result(workload, args.seed, 0)
        traced = result(workload, args.seed, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        rows = [(name, m["value"], m["unit"]) for name, m in plain["metrics"].items()]
        rows.append(("fail_ratio", failed / attempted, f"of {attempted}"))
        rows += [(name, traced["metrics"][name]["value"], "s") for name in OVERHEAD]
        print(f"{workload}  (correct: {plain['correct'] and traced['correct']})")
        for name, value, unit in rows:
            print(f"  {name:42s} {value:>16.6g} {unit}")


if __name__ == "__main__":
    main()

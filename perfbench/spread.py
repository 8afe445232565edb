"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload sim-gf4

Runs the benchmark once per seed 1..10, one run at a time, and prints for
each end-to-end metric its median and quartile spread (Q3 - Q1, as a share
of the median, from statistics.quantiles(n=4)) next to a third of the
metric's bound in BENCHMARK.json.  Exits with code 1 if any spread, setup_s
included, reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(1, RUNS + 1):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        shown = " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items())
        print(f"seed {seed}: wall {wall:.1f} s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)

    worst = 0.0
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        limit = m["bound"] / 3
        worst = max(worst, spread / limit)
        print(f"{m['name']:<20} median {med:.6g} {m['unit']}  spread {spread:.4f}  "
              f"bound/3 {limit:.4f}  {'ok' if spread < limit else 'WIDE'}")
    return 0 if worst < 1 else 1


if __name__ == "__main__":
    sys.exit(main())

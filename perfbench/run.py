"""The skewconv benchmark.

    python3 perfbench/run.py --workload sim-gf4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Tracing off (`--trace 0`), a run times the spec-to-trellis set-up several
times, then runs the workload's operations for `--seconds`, checks every
output and prints the end-to-end metrics.  Tracing on (`--trace 1`), it runs a
fixed amount of the same work once plainly and once under spans, in rounds
for `--seconds`, and prints the per-layer metrics.  The last line of output is
one JSON object: correct, attempted, failed and metrics.  `--workload all`
runs every workload, each in its own process.
"""

import argparse
import json
import os
import subprocess
import sys

import bootstrap

WORKLOAD_NAMES = ("sim-gf4", "decode-gf16-m2", "analyze-suite")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Every workload in its own process, so no peak RSS leaks between them."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    bootstrap.prepare()
    if args.workload == "all":
        return run_all(args)
    import harness
    import workloads

    harness.run_workload(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

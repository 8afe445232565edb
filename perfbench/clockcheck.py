"""Does work per reference second move as work per wall second does?

    python3 perfbench/clockcheck.py --workload sim-gf4 --extra heap

Runs one workload's records in one process, every other record with a known
extra load inside its timed region, and prints the throughput ratio
(loaded / plain, medians over records) in wall seconds and in reference
seconds (see hostclock).  Alternating record by record lets the host's drift
fall on both halves alike, so the wall ratio is a fair reading, and the two
ratios should agree.  The loads:

- repeat: the record's work a second time; both ratios should be 0.5.
- heap: a 300000-object live heap held while the record runs, so the
  collector has more to walk.
- sweep: a 32 MB array summed before the record, which evicts the caches.
"""

import argparse
import sys
import time

import bootstrap

EXTRAS = ("repeat", "heap", "sweep")
SECONDS = 20
MIN_PAIRS = 8  # analyze-suite takes about 2 minutes to reach them


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--extra", required=True, choices=EXTRAS)
    args = parser.parse_args()
    bootstrap.prepare()
    import numpy

    from harness import timed_run
    from hostclock import HostClock
    from workloads import WORKLOADS, median, read_specs

    wl = WORKLOADS[args.workload]()
    sweep = numpy.ones(4_000_000)

    class Loaded:
        def run(self, state, seed, i):
            if args.extra == "repeat":
                wl.run(state, seed, i)
            elif args.extra == "sweep":
                for _ in range(4):
                    sweep.sum()
            heap = [(j, [j]) for j in range(300_000)] if args.extra == "heap" else None
            rec = wl.run(state, seed, i)
            del heap
            return rec

    plain, loaded = [], []
    with HostClock() as clock:
        state = wl.setup(read_specs(wl.specs))
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < SECONDS or i < 2 * MIN_PAIRS:
            (loaded if i % 2 else plain).append(
                timed_run(Loaded() if i % 2 else wl, state, 1, i, clock))
            i += 1

    def ratio(key):
        return median(r.work / key(r) for r in loaded) / median(r.work / key(r) for r in plain)

    wall, ref = ratio(lambda r: r.seconds), ratio(lambda r: r.ref_seconds)
    print(f"{args.workload} {args.extra}: {i // 2} pairs, wall ratio {wall:.4f}, "
          f"reference ratio {ref:.4f}, reference / wall {ref / wall:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

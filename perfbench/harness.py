"""Measurement of one workload: set-up, timed loop, traced rounds, report.

Imported by run.py after `bootstrap.prepare()`, so skewconv resolves to the
checkout's sources.  Metric names and units come from BENCHMARK.json, and a
run prints exactly the metrics declared there for its mode.
"""

import json
import os
import platform
import random
import resource
import time

import numpy

import bootstrap
from hostclock import REF_PROBE_S, HostClock
from skewconv import codespec
from spans import SPAN_NAMES, Tracer
from workloads import acs_ops, median, read_specs

SETUP_FIRST_REPS = 11
SETUP_SHARE = 0.1  # at most this share of the timed loop goes to set-ups

# Fields of the per-call cost microbenchmark, by the spec that defines them.
FIELD_SPECS = (("gf16", "gf16_m2"), ("gf9", "gf9_31_m3"))
FIELD_CALLS = 20000
FIELD_REPEATS = 7

OUT_DIR = bootstrap.ROOT / "perfbench" / "out"


def declared_metrics(kind):
    """Name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def context_line():
    cores = len(os.sched_getaffinity(0))
    return (
        f"context   cores={cores} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl, texts, clock):
    """One set-up: its wall and reference seconds, and the state built."""
    t0, r0 = time.perf_counter(), clock.now()
    state = wl.setup(texts)
    return time.perf_counter() - t0, clock.now() - r0, state


def timed_run(wl, state, seed, i, clock):
    t0, r0 = time.perf_counter(), clock.now()
    rec = wl.run(state, seed, i)
    rec.seconds = time.perf_counter() - t0
    rec.ref_seconds = clock.now() - r0
    return rec


def check_all(wl, state, records):
    for rec in records:
        try:
            wl.check(state, rec)
        except Exception as exc:  # a check that crashes fails its record
            rec.failures.setdefault("check", f"check raised {type(exc).__name__}: {exc}")


def run_untraced(wl, texts, seed, seconds):
    """End-to-end figures, and the workload's own figures to print.

    The JSON metrics are in reference seconds (see hostclock); the printed
    wall-clock figures show what this run saw.  Set-up runs a few times
    first, then after records while it has taken less than SETUP_SHARE of
    the loop, so that its median spans the same stretch of the host's drift
    as the records' median does."""
    with HostClock() as clock:
        setups = []  # (wall, ref) of each; only the first state is kept
        for _ in range(SETUP_FIRST_REPS):
            *timing, state = timed_setup(wl, texts, clock)
            setups.append(timing)
        records = []
        loop_setup_s = 0.0
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            records.append(timed_run(wl, state, seed, len(records), clock))
            if loop_setup_s < SETUP_SHARE * (time.perf_counter() - start):
                setups.append(timed_setup(wl, texts, clock)[:2])
                loop_setup_s += setups[-1][0]
    timed = list(records)
    records += wl.final_records(state, seed, records)
    check_all(wl, state, records)

    figures = {
        "throughput_per_ref_s": median(r.work / r.ref_seconds for r in timed),
        "setup_s": median(ref for _, ref in setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    shown = {
        "throughput_per_s": (median(r.work / r.seconds for r in timed), f"{wl.work_unit}/s wall"),
        "setup_wall_s": (median(wall for wall, _ in setups), "s wall"),
        "host_speed": (REF_PROBE_S / median(clock.samples), "x reference"),
        **wl.summary(timed),
    }
    notes = [
        f"{len(timed)} timed records, {sum(r.work for r in timed):g} {wl.work_unit} "
        f"in {sum(r.seconds for r in timed):.3f} s; throughputs are the median "
        f"{wl.work_unit}/s of a record; set-up repeated {len(setups)} times"
    ]
    return records, shown, figures, notes


def field_costs(seed):
    """Per-call ns of add_int, mul_int and frobenius_int, loop included."""
    out = {}
    for tag, spec in FIELD_SPECS:
        f = codespec.loads_code(read_specs([spec])[0]).field
        rng = random.Random(seed)
        pairs = [(rng.randrange(f.size), rng.randrange(f.size)) for _ in range(FIELD_CALLS)]
        ones = [(a, 1) for a, _ in pairs]
        for op, fn, operands in (
            ("add", f.add_int, pairs),
            ("mul", f.mul_int, pairs),
            ("frobenius", f.frobenius_int, ones),
        ):
            samples = []
            for _ in range(FIELD_REPEATS):
                t0 = time.perf_counter_ns()
                for a, b in operands:
                    fn(a, b)
                samples.append((time.perf_counter_ns() - t0) / len(operands))
            out[f"field.{op}_ns.{tag}"] = median(samples)
    return out


def plain_round(wl, texts, seed):
    t0 = time.perf_counter()
    state = wl.setup(texts)
    for i in range(wl.traced_records):
        wl.run(state, seed, i)
    return time.perf_counter() - t0


def traced_round(wl, texts, seed, plain_first):
    """The fixed work once plainly and once under spans.  The order of the
    two halves alternates from round to round, so a drift of the host's
    speed does not lean the median overhead one way."""
    if plain_first:
        plain_s = plain_round(wl, texts, seed)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        tracer.op = "setup"
        state = wl.setup(texts)
        records = []
        for i in range(wl.traced_records):
            tracer.op = i
            records.append(wl.run(state, seed, i))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    if not plain_first:
        plain_s = plain_round(wl, texts, seed)
    return state, records, tracer, plain_s, traced_s


def layer_figures(state, tracer, plain_s, traced_s):
    """Per-layer figures of one traced round: (times, counts)."""
    spans = tracer.durations()
    times = {}
    for name in SPAN_NAMES:
        suffix = "_self_s" if name.startswith("analysis.") else "_s"
        times[name + suffix] = spans[name][2]
    acs, edges = (
        sum(acs_ops(args[0], len(args[1]), kwargs.get("terminated", False))
            for _, args, kwargs, _ in tracer.calls[name])
        for name in ("decoder.viterbi", "decoder.bcjr")
    )
    times["decoder.viterbi_ns_per_acs"] = spans["decoder.viterbi"][1] * 1e9 / acs if acs else 0.0
    times["decoder.bcjr_ns_per_edge"] = spans["decoder.bcjr"][1] * 1e9 / edges if edges else 0.0
    times["trace.plain_s"] = plain_s
    times["trace.overhead_s"] = traced_s - plain_s
    times["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    times["trace.coverage"] = tracer.root_seconds() / traced_s
    counts = {f"field.{key}_calls": n for key, n in tracer.counts.items()}
    counts["code.sequence_calls"] = spans["code.sequence"][0]
    counts["trellis.edges"] = sum(tr.num_sections * tr.num_states * tr.num_inputs for _, tr in state)
    counts["decoder.acs_ops"] = acs
    counts["decoder.bcjr_edges"] = edges
    return times, counts


def run_traced(wl, texts, seed, seconds):
    """Per-layer figures: medians of the times over rounds, exact counts."""
    field_ns = field_costs(seed)
    rounds = []
    records = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        state, recs, tracer, plain_s, traced_s = traced_round(wl, texts, seed, len(rounds) % 2 == 0)
        check_all(wl, state, recs)
        for op, why in wl.check_trace(state, recs, tracer.calls).items():
            recs[op].failures.setdefault("trace", why)
        records += recs
        rounds.append(layer_figures(state, tracer, plain_s, traced_s))
    tracer.dump(OUT_DIR / f"spans-{wl.name}.json")

    counts = rounds[-1][1]
    notes = [f"{len(rounds)} traced rounds of {wl.traced_records} records; times are medians"]
    if any(r[1] != counts for r in rounds):
        notes.append("WARNING: counts differ between rounds")
    figures = {name: median(r[0][name] for r in rounds) for name in rounds[0][0]}
    figures.update(counts)
    figures.update(field_ns)
    return records, {}, figures, notes


def run_workload(wl, seed, seconds, trace):
    """Runs one workload and prints its report; the JSON result is last."""
    texts = read_specs(wl.specs)
    run = run_traced if trace else run_untraced
    records, extra, figures, notes = run(wl, texts, seed, seconds)
    units = declared_metrics("per_layer" if trace else "end_to_end")
    metrics = {name: (figures[name], unit) for name, unit in units.items()}

    attempted = sum(r.attempted for r in records)
    failed = sum(len(r.failures) for r in records)
    shown = {**metrics, **extra}
    shown["ops_failed_ratio"] = (failed / attempted, f"failed/attempted ({failed}/{attempted})")
    print(f"workload  {wl.name}  seed={seed} seconds={seconds:g} trace={trace}")
    print(context_line())
    for note in notes:
        print(f"note      {note}")
    for name, (value, unit) in shown.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    for why in [why for r in records for why in r.failures.values()][:10]:
        print(f"FAILED    {why}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result

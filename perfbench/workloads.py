"""The benchmark's workloads: their inputs, operations and output oracles.

Each workload turns committed spec documents into codes and trellises in
`setup`, runs one record of operations per `run` call and checks a record's
outputs in `check`.  All inputs derive from the run seed.  The library is
reached only through its public modules, looked up at call time, so that a
traced run sees the calls through the same bindings the library itself uses.
"""

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from skewconv import analysis, codespec, decoder, dual, skewtrellis, trellis

SUITE = Path(__file__).resolve().parent / "suite"

# Spec documents under suite/, by file stem.
ANALYZE_CODES = (
    "gf4_worked",
    "gf4_worked_id",
    "gf16_m2",
    "gf9_31_m3",
    "gf9_32_m1",
    "gf9_right_m2",
)

SIM_EPS = 0.05
SIM_FRAME_LEN = 8
SIM_TRIALS = 200  # frames per run_simulation call
SIM_CHECK_SEED = 0  # the default seed, whose counts are committed
SIM_CHECK_TRIALS = 400

DECODE_EPS = 0.05
DECODE_FRAME_LEN = 16


def read_specs(names):
    return [(SUITE / f"{name}.json").read_text(encoding="utf-8") for name in names]


def read_expected():
    return json.loads((SUITE / "expected.json").read_text(encoding="utf-8"))


def plain(obj):
    """The JSON form of obj, so tuples compare equal to committed lists."""
    return json.loads(json.dumps(obj))


def build(text):
    """Spec text to a code and its ready trellis, the path `skewconv` runs."""
    code = codespec.loads_code(text)
    if isinstance(code, skewtrellis.SkewTrellisCode):
        return code, skewtrellis.build_trellis_right(code)
    return code, trellis.build_trellis(code)


def hamming(a, b):
    return sum(1 for x, y in zip(a.flat_values(), b.flat_values()) if x != y)


def viterbi_ml_error(code, sent, received, result):
    """Why a terminated Viterbi estimate is not maximum-likelihood, or None.

    The reported metric must equal the Hamming distance from the received
    word to the re-encoded estimate, and that distance may not exceed the
    distance to the codeword actually sent.
    """
    estimate = code.encode(result.info_est, terminate=True)
    if len(estimate) != len(received):
        return f"estimate re-encodes to {len(estimate)} blocks, received {len(received)}"
    d_est = hamming(received, estimate)
    if result.metric != d_est:
        return f"Viterbi metric {result.metric} != distance {d_est} to its estimate"
    d_sent = hamming(received, sent)
    if d_est > d_sent:
        return f"estimate at distance {d_est} is farther than the sent word ({d_sent})"
    return None


def bcjr_error(tr, result, info_len):
    """Why a BCJR result is malformed, or None."""
    posts = result.posteriors
    if posts is None or len(posts) != info_len or len(result.info_est) != info_len:
        return "BCJR returned the wrong number of posteriors or decisions"
    for t, (post, hard) in enumerate(zip(posts, result.info_est.to_ints())):
        total = float(post.sum())
        if not abs(total - 1.0) <= 1e-9:
            return f"posterior {t} sums to {total!r}"
        if tuple(hard) != tr.input_block(int(post.argmax())):
            return f"hard decision {t} is not the posterior argmax"
    return None


def acs_ops(tr, num_blocks, terminated):
    """Sum over decoded sections of states x admitted inputs."""
    tail = tr.memory if terminated else 0
    return tr.num_states * ((num_blocks - tail) * tr.num_inputs + tail)


@dataclass
class Record:
    """One timed unit of work holding `attempted` operations.

    `failures` maps an operation's key to the first reason it failed, so a
    failed operation counts once however many checks it fails.  The harness
    times each `run` call into `seconds` (wall) and `ref_seconds` (reference
    seconds, see hostclock).
    """

    attempted: int
    work: float  # units counted by the throughput metrics
    payload: object = None
    detail: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    seconds: float = 0.0
    ref_seconds: float = 0.0


def attempt(failures, key, fn, *args, **kwargs):
    """Run one operation; an exception is recorded as its failure."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the run goes on and counts the failed operation
        failures.setdefault(key, f"{key}: {type(exc).__name__}: {exc}")
        return None


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


class Workload:
    """Hooks with no work to do, for workloads that need none."""

    def setup(self, texts):
        return [build(t) for t in texts]

    def final_records(self, state, seed, records):
        return []

    def check_trace(self, state, records, calls):
        return {}


class SimGF4(Workload):
    """`run_simulation` on the worked [2,1] GF(4) code, theta(a) = a^2."""

    name = "sim-gf4"
    specs = ("gf4_worked",)
    traced_records = 10
    work_unit = "frames"

    def __init__(self, trials=SIM_TRIALS):
        self.trials = trials

    def run(self, state, seed, i):
        code, tr = state[0]
        failures = {}
        sim_seed = (seed * 1_000_003 + i) & 0xFFFFFFFF
        report = attempt(
            failures, "simulate", analysis.run_simulation,
            code, SIM_EPS, self.trials, SIM_FRAME_LEN, seed=sim_seed, trellis=tr,
        )
        return Record(1, self.trials, payload=report, failures=failures)

    def check(self, state, rec):
        rep = rec.payload
        if rep is None:
            return
        code = state[0][0]
        n_blocks = SIM_FRAME_LEN + code.memory
        ok = (
            rep.trials == self.trials
            and rep.frame_len == SIM_FRAME_LEN
            and rep.info_symbols == self.trials * SIM_FRAME_LEN * code.k
            and 0 <= rep.symbol_errors_in <= self.trials * n_blocks * code.n
            and rep.frame_errors <= rep.symbol_errors_out <= rep.info_symbols
            and (rep.frame_errors == 0) == (rep.symbol_errors_out == 0)
            and rep.ber == rep.symbol_errors_out / rep.info_symbols
            and rep.fer == rep.frame_errors / rep.trials
        )
        if not ok:
            rec.failures.setdefault("simulate", f"inconsistent report {rep.to_dict()}")

    def final_records(self, state, seed, records):
        """Two more simulate calls: the committed counts at the default seed,
        and a rerun of the first timed call, which must repeat its counts."""
        code, tr = state[0]
        failures = {}
        got = attempt(
            failures, "simulate", analysis.run_simulation,
            code, SIM_EPS, SIM_CHECK_TRIALS, SIM_FRAME_LEN, seed=SIM_CHECK_SEED, trellis=tr,
        )
        want = read_expected()["sim_gf4"]
        if got is not None and got.to_dict() != want:
            failures.setdefault("simulate", f"default-seed counts {got.to_dict()} != {want}")
        out = [Record(1, 0, failures=failures)]
        again = self.run(state, seed, 0)
        if again.payload is not None and again.payload != records[0].payload:
            again.failures.setdefault("simulate", "rerun of the first call changed its counts")
        out.append(again)
        return out

    def check_trace(self, state, records, calls):
        """Every Viterbi estimate inside the traced simulations must be ML."""
        code = state[0][0]
        sent_of = {id(recv): args[1] for _, args, _, recv in calls["decoder.channel"]}
        failures = {}
        for op, args, _, result in calls["decoder.viterbi"]:
            received = args[1]
            sent = sent_of.get(id(received))
            if sent is None:
                why = "Viterbi ran on a word the channel did not emit"
            else:
                why = viterbi_ml_error(code, sent, received, result)
            if why:
                failures.setdefault(op, why)
        return failures

    def summary(self, records):
        return {"sim_frames_per_s": (median(r.work / r.seconds for r in records), "frames/s")}


class DecodeGF16(Workload):
    """Terminated Viterbi and BCJR on the [2,1] memory-2 GF(16) code."""

    name = "decode-gf16-m2"
    specs = ("gf16_m2",)
    traced_records = 3
    work_unit = "sections"

    def __init__(self, frame_len=DECODE_FRAME_LEN):
        self.frame_len = frame_len

    def run(self, state, seed, i):
        code, tr = state[0]
        q, k = code.field.size, code.k
        rng = random.Random(seed * 1_000_003 + i)
        u = [[rng.randrange(q) for _ in range(k)] for _ in range(self.frame_len)]
        sent = code.encode(u, terminate=True)
        channel = decoder.QSChannel(q, DECODE_EPS)
        received = channel.transmit(sent, rng)
        failures = {}
        t0 = time.perf_counter()
        vit = attempt(failures, "viterbi", decoder.viterbi, tr, received, terminated=True)
        t1 = time.perf_counter()
        app = attempt(failures, "bcjr", decoder.bcjr, tr, received, channel, terminated=True)
        t2 = time.perf_counter()
        steps = len(received)
        return Record(
            2, 2 * steps,
            payload=(sent, received, vit, app),
            detail={"steps": steps, "viterbi_s": t1 - t0, "bcjr_s": t2 - t1},
            failures=failures,
        )

    def check(self, state, rec):
        code, tr = state[0]
        sent, received, vit, app = rec.payload
        if vit is not None:
            why = viterbi_ml_error(code, sent, received, vit)
            if why:
                rec.failures.setdefault("viterbi", why)
        if app is not None:
            why = bcjr_error(tr, app, len(received) - tr.memory)
            if why:
                rec.failures.setdefault("bcjr", why)

    def summary(self, records):
        return {
            name: (median(r.detail["steps"] / r.detail[key] for r in records), "sections/s")
            for name, key in (("viterbi_steps_per_s", "viterbi_s"), ("bcjr_steps_per_s", "bcjr_s"))
        }


class AnalyzeSuite(Workload):
    """One pass of analysis over the committed code set."""

    name = "analyze-suite"
    traced_records = 1
    work_unit = "codes"

    def __init__(self, specs=ANALYZE_CODES):
        self.specs = tuple(specs)

    def run(self, state, seed, i):
        failures = {}
        outputs = []
        for j, (name, (code, tr)) in enumerate(zip(self.specs, state)):
            rng = random.Random(seed * 1_000_003 + i * len(self.specs) + j)
            report = attempt(failures, name, analysis.analyze_code, code, trellis=tr)
            if isinstance(code, skewtrellis.SkewTrellisCode):
                extra = attempt(failures, name, skewtrellis.linearity_report, code, rng=rng)
            else:
                sf = attempt(failures, name, dual.syndrome_former, code)
                ok = sf is not None and attempt(
                    failures, name, dual.verify_duality, code, sf, rng=rng
                )
                extra = (sf, ok)
            outputs.append((name, report, extra))
        n = len(self.specs)
        return Record(n, n, payload=outputs, failures=failures)

    def check(self, state, rec):
        expected = read_expected()["analyze"]
        for name, report, extra in rec.payload:
            if name in rec.failures:
                continue
            want = expected[name]
            why = None
            if plain(report) != want["report"]:
                why = f"analyze report differs from the committed one: {report}"
            elif not report["d_free_stabilized"]:
                why = "free distance is not stabilized"
            elif "linearity" in want:
                if linearity_dict(extra) != want["linearity"]:
                    why = f"linearity report differs from the committed one: {extra}"
            else:
                sf, ok = extra
                if not ok:
                    why = "verify_duality failed"
                elif dual_dict(sf) != want["dual"]:
                    why = f"syndrome former differs from the committed one: {dual_dict(sf)}"
            if why:
                rec.failures[name] = f"{name}: {why}"

    def summary(self, records):
        return {"analyze_s": (median(r.seconds for r in records), "s")}


def dual_dict(sf):
    return plain({"mu_perp": sf.dual_memory, "H": sf.check.to_ints()})


def linearity_dict(rep):
    witness = None
    if rep.witness is not None:
        scale, blocks, lhs, rhs = rep.witness
        witness = [scale, blocks, lhs.to_ints(), rhs.to_ints()]
    return plain(
        {
            "fixed_subfield": rep.fixed_subfield,
            "additive_ok": rep.additive_ok,
            "subfield_homogeneous": rep.subfield_homogeneous,
            "witness": witness,
        }
    )


WORKLOADS = {wl.name: wl for wl in (SimGF4, DecodeGF16, AnalyzeSuite)}

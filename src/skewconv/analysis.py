"""Aggregated code analysis and Monte-Carlo link simulation."""

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

# re-exported: `skewconv.analysis.viterbi` stays importable
from .decoder import QSChannel, viterbi, viterbi_batch  # noqa: F401
from .trellis import (
    SURVIVOR_BUDGET,
    build_trellis,
    check_survivor_budget,
    is_catastrophic,
    unit_memory_bounds,
)

__all__ = ["analyze_code", "SimReport", "run_simulation"]

# Edges (frames x states x inputs) one Viterbi step of run_simulation covers
# at most: enough frames to spread numpy's per-call cost, few enough that a
# step's temporaries stay within about 1 MiB: the `acs` candidates (an int64
# key an edge, 512 KiB), the branch keys (a byte an edge while (n + 1) x
# inputs fits one, an int64 in the tail) and a byte an edge and output
# symbol for the label compares.
BATCH_EDGES = 1 << 16


def analyze_code(code, lmax=None, trellis=None):
    """Machine-readable report: period, memory, distances, slope, bounds.

    d_burst lists the active burst distances for loop lengths 2..lmax
    (null where no loop of that length exists).
    """
    tr = trellis if trellis is not None else build_trellis(code)
    if lmax is None:
        lmax = max(10, 2 * (tr.external_degree + 1) * tr.num_sections)
    if lmax < 2:
        raise ValueError("lmax must be >= 2")
    fd = tr.free_distance(lmax=lmax)
    sl = tr.slope()
    cat = is_catastrophic(tr)
    bounds = unit_memory_bounds(code)
    d_burst = [None if d == math.inf else int(d) for d in fd.burst[1:]]
    if sl == math.inf:
        slope_out, slope_ratio = None, None
    else:
        slope_out = int(sl) if sl.denominator == 1 else float(sl)
        slope_ratio = [sl.numerator, sl.denominator]
    return {
        "k": code.k,
        "n": code.n,
        "mu": code.memory,
        "nu": code.external_degree,
        "tau": code.period,
        "d_free": None if fd.value == math.inf else int(fd.value),
        "d_free_stabilized": fd.stabilized,
        "slope": slope_out,
        "slope_ratio": slope_ratio,
        "catastrophic": cat.catastrophic,
        "lmax": lmax,
        "d_burst": d_burst,
        "bounds": {
            "d_free_unit_memory": bounds.d_free_bound,
            "slope": bounds.slope_bound,
        },
    }


@dataclass
class SimReport:
    eps: float
    trials: int
    frame_len: int
    seed: int
    info_symbols: int
    symbol_errors_in: int
    symbol_errors_out: int
    frame_errors: int
    ber: float
    fer: float

    def to_dict(self):
        return asdict(self)


def _trial_rng(seed, trial):
    # stable derivation so trials are order-independent and reproducible
    return random.Random((seed & 0xFFFFFFFF) * 0x9E3779B1 + trial)


def run_simulation(code, eps, trials, frame_len, seed=0, trellis=None):
    """Monte-Carlo frame loop: random frames -> terminated encode -> q-ary
    symmetric channel -> Viterbi -> symbol/frame error counts.

    Each trial draws its information symbols and then its channel errors
    from its own seeded generator, so the counts do not depend on how trials
    are grouped.  The trials run in batches of at most
    BATCH_EDGES / (states x inputs) frames, within the survivor budget: a
    batch is encoded by one `encode_batch` call, corrupted by one
    `QSChannel.apply_errors` and decoded by one `viterbi_batch` call, so
    memory does not grow with the number of trials.
    """
    q = code.field.size
    max_eps = (q - 1) / q
    if not 0.0 <= eps < max_eps:
        raise ValueError(f"eps must lie in [0, {max_eps}) for a {q}-ary channel")
    if trials < 1 or frame_len < 1:
        raise ValueError("trials and frame_len must be positive")
    tr = trellis if trellis is not None else build_trellis(code)
    blocks = frame_len + code.memory
    check_survivor_budget(1, blocks, tr.num_states)
    batch = max(
        1,
        min(
            trials,
            BATCH_EDGES // (tr.num_states * tr.num_inputs),
            SURVIVOR_BUDGET // (blocks * tr.num_states),
        ),
    )
    channel = QSChannel(q, eps)
    sym_in = 0
    sym_out = 0
    frame_errs = 0
    for first in range(0, trials, batch):
        count = min(batch, trials - first)
        # the draws of the batch's trials, flat in trial order
        info, errors, offsets = [], [], []
        for trial in range(first, first + count):
            rng = _trial_rng(seed, trial)
            randrange = rng.randrange
            info.extend([randrange(q) for _ in range(frame_len * code.k)])
            errs, offs = channel.draw_errors(rng, blocks * code.n)
            errors.extend(errs)
            offsets.extend(offs)
        info = np.array(info, dtype=np.intp).reshape(count, frame_len, code.k)
        sent = code.encode_batch(info, terminate=True)
        received = channel.apply_errors(
            sent,
            np.array(errors).reshape(sent.shape),
            np.array(offsets, dtype=np.intp).reshape(sent.shape),
        )
        est, _ = viterbi_batch(tr, received, terminated=True)
        wrong = est != info
        sym_in += int(np.count_nonzero(sent != received))
        sym_out += int(np.count_nonzero(wrong))
        frame_errs += int(np.count_nonzero(wrong.any(axis=(1, 2))))
    info_symbols = trials * frame_len * code.k
    return SimReport(
        eps=eps,
        trials=trials,
        frame_len=frame_len,
        seed=seed,
        info_symbols=info_symbols,
        symbol_errors_in=sym_in,
        symbol_errors_out=sym_out,
        frame_errors=frame_errs,
        ber=sym_out / info_symbols,
        fer=frame_errs / trials,
    )

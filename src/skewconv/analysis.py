"""Aggregated code analysis and Monte-Carlo link simulation."""

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from . import field as _field, trellis as _trellis
# re-exported: `skewconv.analysis.viterbi` stays importable
from .decoder import QSChannel, viterbi, viterbi_batch  # noqa: F401
from .field import _integral
from .trellis import build_trellis, check_survivor_budget, is_catastrophic, unit_memory_bounds

__all__ = ["analyze_code", "SimReport", "run_simulation"]

# words a trial's block holds beyond 5/4 of those its draws need on average
_DRAW_SPARE = 32


def analyze_code(code, lmax=None, trellis=None):
    """Machine-readable report: period, memory, distances, slope, bounds.

    d_burst lists the active burst distances for loop lengths 2..lmax
    (null where no loop of that length exists).
    """
    tr = trellis if trellis is not None else build_trellis(code)
    if lmax is None:
        lmax = max(10, 2 * (tr.external_degree + 1) * tr.num_sections)
    lmax = _integral(lmax, "lmax", 2)
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


def _trial_key(seed, trial):
    # stable derivation so trials are order-independent and reproducible
    return (seed & 0xFFFFFFFF) * 0x9E3779B1 + trial


def _trial_rng(seed, trial):
    """The generator of one simulation trial."""
    return random.Random(_trial_key(seed, trial))


def _words(generators, m):
    """The next m 32-bit words of each generator in turn, as a
    (generators, m) uint32 array: one getrandbits(32 m) block a generator,
    whose little-endian 32-bit words are its m next words in order."""
    blocks = [rng.getrandbits(32 * m).to_bytes(4 * m, "little") for rng in generators]
    return np.frombuffer(b"".join(blocks), dtype="<u4").reshape(-1, m)


def _randbelow_words(words, bound):
    """randrange(bound)'s reading of an array of a generator's 32-bit words:
    the top bound.bit_length() bits of each word, and where they are below
    bound.  randrange(bound) returns those bits of the first word where they
    are, passing over the words before it."""
    top = words >> (32 - bound.bit_length())
    return top, top < bound


def _block_words(mean):
    """The words of one getrandbits block for draws that need `mean` words
    on average: 5/4 of them and _DRAW_SPARE spares."""
    return int(mean * 5 / 4) + _DRAW_SPARE


def _trial_words(seed, trials, width):
    """The first `width` 32-bit words of each listed trial's generator
    (`_trial_rng`), a (trials, width) uint32 array.  One generator is seeded
    again for each trial in turn, which gives the same words as a new one."""
    rng = random.Random()

    def seeded():
        for t in trials:
            rng.seed(_trial_key(seed, t))
            yield rng

    return _words(seeded(), width)


def _read_draws(words, q, info_count, symbols, threshold):
    """Read each row of words as one trial's draws, in the order CPython's
    Mersenne Twister makes them from its words: info_count randrange(q),
    then for each of `symbols` channel symbols one random() < eps and, on an
    error, one randrange(q - 1).  randrange(b) takes the first word whose
    top b.bit_length() bits are below b (`_randbelow_words`); random() is
    ((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53 on the next two words w1, w2,
    so it is below eps exactly where that integer is below threshold =
    ceil(eps * 2**53).

    Returns info (rows, info_count), errors and offsets (rows, symbols), and
    short (rows,), where a row's words ran out before its draws did; the
    draws of a short row are not read.  info_count and symbols must be
    positive.

    Each row's positions are its words, then `end` and `past`.  `step`
    maps the position where a channel symbol starts to where the next one
    does: two words on, or one past its offset's word on an error; `end`
    where the words end there and `past` where they run out first.  The
    symbols' starts are the walk of `step` from the first word after the
    info symbols, one gather a symbol.
    """
    rows, width = words.shape
    stride = width + 2
    flat = words.ravel()
    row_of = np.arange(0, rows * width, width)
    # word w of the flat words is position w + 2 row of the flat positions
    past = np.arange(width + 1, rows * stride, stride)
    # the info symbols: each row's first info_count kept words; `kept` ends
    # in a word past every row
    _, below = _randbelow_words(words, q)
    kept = np.append(np.flatnonzero(below), rows * width)
    at = kept.take(np.searchsorted(kept, row_of)[:, None] + np.arange(info_count), mode="clip")
    info = _randbelow_words(flat.take(at, mode="clip"), q)[0].astype(np.intp)
    at = at[:, -1]
    start = np.where(at < row_of + width, at + 2 * np.arange(rows) + 1, past)
    # the channel errors: the words p where random() on words p, p + 1 is
    # below eps, among those whose top 27 bits are at most threshold's
    high, low = divmod(threshold, 1 << 26)
    error = np.flatnonzero(words < (high + 1) << 5)
    top = flat[error] >> 5
    error = error[(top < high) | ((top == high) & (flat.take(error + 1, mode="clip") >> 6 < low))]
    # an error's offset: the first word from p + 2 on that randrange(q - 1)
    # keeps, if it is in p's row
    offset, below = _randbelow_words(flat, q - 1)
    kept = np.append(np.flatnonzero(below), rows * width)
    after = kept.take(np.searchsorted(kept, error + 2), mode="clip")
    end = error - error % width + width
    row = error // width
    # the errors as positions
    error += 2 * row
    step = np.arange(2, rows * stride + 2)
    step[error] = np.where(after < end, after + 2 * row + 1, past[row])
    step.reshape(rows, stride)[:, width:] = past[:, None]
    error_at = np.zeros(rows * stride, dtype=bool)
    error_at[error] = True
    offset_at = np.zeros(rows * stride, dtype=offset.dtype)
    offset_at[error] = offset.take(after, mode="clip")
    at = np.empty((symbols, rows), dtype=step.dtype)
    at[0] = start
    for i in range(1, symbols):
        at[i] = step[at[i - 1]]
    at = at.T
    short = step[at[:, -1]] == past
    return info, error_at[at], offset_at[at], short


def _draw_trials(seed, first, count, q, info_count, symbols, eps):
    """The draws of trials first .. first + count - 1 of a simulation, as
    arrays: on each trial's generator `_trial_rng(seed, trial)`, info[i] is
    [randrange(q) for _ in range(info_count)] and errors[i], offsets[i] are
    what `QSChannel(q, eps).draw_errors` then gives for `symbols` symbols.
    info and offsets are in the narrowest unsigned dtype that holds q - 1.

    Each trial's words are one block of 5/4 of the words its draws need on
    average and spares (`_block_words`), read by `_read_draws` a chunk of at
    most `field.PASS_ELEMENTS` words (or one trial) at a time; a trial whose
    words run out is read again from a block twice as long, drawn afresh
    from its own generator.
    """
    mean = info_count * (1 << q.bit_length()) / q + symbols * (
        2 + eps * (1 << (q - 1).bit_length()) / (q - 1)
    )
    width = _block_words(mean)
    chunk = max(1, _field.PASS_ELEMENTS // width)
    threshold = math.ceil(eps * 2.0**53)
    symbol = np.min_scalar_type(q - 1)
    out = (
        np.empty((count, info_count), dtype=symbol),
        np.empty((count, symbols), dtype=bool),
        np.empty((count, symbols), dtype=symbol),
    )
    for lo in range(0, count, chunk):
        rows, size = np.arange(lo, min(lo + chunk, count)), width
        while rows.size:
            words = _trial_words(seed, [first + r for r in rows.tolist()], size)
            *draws, short = _read_draws(words, q, info_count, symbols, threshold)
            for whole, part in zip(out, draws):
                whole[rows[~short]] = part[~short]
            rows, size = rows[short], 2 * size
    return out


def run_simulation(code, eps, trials, frame_len, seed=0, trellis=None):
    """Monte-Carlo frame loop: random frames -> terminated encode -> q-ary
    symmetric channel -> Viterbi -> symbol/frame error counts.

    Each trial draws its information symbols and then its channel errors
    from its own seeded generator, so the counts do not depend on how trials
    are grouped.  The trials run in batches of at most
    `field.PASS_ELEMENTS` / (states x inputs) frames, within
    `trellis.SURVIVOR_BUDGET`, both read when the batch is sized.  A
    batch's draws are read off its trials' generator words (`_draw_trials`):
    each trial's generator gives one getrandbits block, and numpy parses the
    batch's words the way randrange(q), random() and randrange(q - 1)
    consume them, so the draws are those of a per-trial loop of those
    calls.  The batch is then encoded by one `encode_batch`
    call, corrupted by one `QSChannel.apply_errors` and decoded by one
    `viterbi_batch` call, so memory does not grow with the number of trials.
    The batch's information, sent and received symbols and error offsets
    are held in the narrowest unsigned dtype that holds q - 1.
    """
    q = code.field.size
    channel = QSChannel(q, eps)
    max_eps = (q - 1) / q
    if not channel.eps < max_eps:
        raise ValueError(f"eps must lie in [0, {max_eps}) for a {q}-ary channel")
    trials = _integral(trials, "trials", 1)
    frame_len = _integral(frame_len, "frame_len", 1)
    seed = _integral(seed, "seed")
    tr = trellis if trellis is not None else build_trellis(code)
    blocks = frame_len + code.memory
    check_survivor_budget(1, blocks, tr.num_states)
    batch = max(
        1,
        min(
            trials,
            _field.PASS_ELEMENTS // (tr.num_states * tr.num_inputs),
            _trellis.SURVIVOR_BUDGET // (blocks * tr.num_states),
        ),
    )
    sym_in = 0
    sym_out = 0
    frame_errs = 0
    for first in range(0, trials, batch):
        count = min(batch, trials - first)
        info, errors, offsets = _draw_trials(
            seed, first, count, q, frame_len * code.k, blocks * code.n, channel.eps
        )
        info = info.reshape(count, frame_len, code.k)
        sent = code.encode_batch(info, terminate=True)
        received = channel.apply_errors(
            sent, errors.reshape(sent.shape), offsets.reshape(sent.shape)
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

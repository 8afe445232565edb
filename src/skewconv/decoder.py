"""Trellis-based decoding over the q-ary symmetric channel.

QSChannel draws a word's errors from a generator (`draw_errors`), one
random() a symbol and one offset on an error, whatever the symbols sent,
and applies them as one array step (`apply_errors`); `transmit` does both
on one sequence.  `run_simulation` makes the same draws for a whole batch
by parsing its trials' Mersenne Twister words with numpy rather than by
calling `draw_errors`, and applies them at once.

viterbi_batch() returns the maximum-likelihood information sequences of a
batch of frames under Hamming metric (ML for the q-ary symmetric channel when
eps < (Q-1)/Q): one `trellis.acs` step a section over every frame, on
packed integer keys, then one `Trellis.traceback`; viterbi() is the same
decoder on one frame.  bcjr() returns per-time posteriors of the
information blocks: its branch likelihoods are one gather over every edge
and block, its forward-backward recursion runs one edge at a time.  Both
walk the trellis phase-aware: time t uses section t mod num_sections, so
periodic time-varying codes decode correctly.
"""

import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import trellis as _trellis
from .code import Sequence, coerce_sequence
from .field import _integral, _within
from .trellis import SURVIVOR_BUDGET, _check_keys, _rows, acs, check_survivor_budget

__all__ = [
    "QSChannel",
    "DecodeResult",
    "SURVIVOR_BUDGET",
    "check_survivor_budget",
    "viterbi",
    "viterbi_batch",
    "bcjr",
]


class QSChannel:
    """q-ary symmetric channel: a symbol survives with probability 1 - eps or
    is replaced by one of the other q - 1 symbols uniformly."""

    def __init__(self, q, eps):
        self.q = _integral(q, "q", 2)
        if not isinstance(eps, numbers.Real):
            raise ValueError(f"eps must be a real number, got {eps!r}")
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"eps={eps} outside [0, 1)")
        self.eps = float(eps)

    def transition_prob(self, sent, received):
        if sent == received:
            return 1.0 - self.eps
        return self.eps / (self.q - 1)

    def block_likelihood(self, sent_block, received_block):
        lengths = len(sent_block), len(received_block)
        if lengths[0] != lengths[1]:
            raise ValueError("blocks of unequal length %d and %d" % lengths)
        mismatches = sum(1 for a, b in zip(sent_block, received_block) if a != b)
        hits = lengths[0] - mismatches
        return (1.0 - self.eps) ** hits * (self.eps / (self.q - 1)) ** mismatches

    def draw_errors(self, rng, count):
        """The channel's draws for `count` symbols from rng, in order: one
        random() a symbol, an error where it is below eps, and then one
        randrange(q - 1) for the error's offset.  Returns (errors, offsets),
        two lists of `count` entries, offset 0 where no error; a count over
        `trellis.EDGE_BUDGET` is refused before they are built."""
        count = _integral(count, "count", 0)
        _within(count, _trellis.EDGE_BUDGET, "a channel draw", "symbols")
        eps, others = self.eps, self.q - 1
        random, randrange = rng.random, rng.randrange
        errors, offsets = [False] * count, [0] * count
        for i in range(count):
            if random() < eps:
                errors[i] = True
                offsets[i] = randrange(others)
        return errors, offsets

    @staticmethod
    def apply_errors(sent, errors, offsets):
        """The received symbols: offset o replaces the sent symbol s by
        o + (o >= s), one of the other q - 1 symbols, where errors is set."""
        sent, offsets = np.asarray(sent), np.asarray(offsets)
        return np.where(errors, offsets + (offsets >= sent), sent)

    def transmit(self, seq, rng):
        """One pass of a sequence over the channel: `draw_errors` for its
        symbols in block order, then `apply_errors`."""
        if not isinstance(seq, Sequence):
            raise ValueError(f"the channel transmits a Sequence, got {type(seq).__name__}")
        if seq.field.size != self.q:
            raise ValueError("channel alphabet does not match the sequence's field")
        sent = np.asarray(seq)
        errors, offsets = self.draw_errors(rng, sent.size)
        received = self.apply_errors(sent.ravel(), errors, offsets).reshape(sent.shape)
        return Sequence._trusted(seq.field, received, seq.width)


@dataclass
class DecodeResult:
    info_est: Sequence
    metric: int | None
    posteriors: np.ndarray | None = dc_field(default=None)


def _tail(trellis, total, terminated):
    """The tail blocks, `memory` if terminated, of a longer word of `total` blocks."""
    if not terminated:
        return 0
    if total <= trellis.memory:
        raise ValueError(f"received length {total} too short for a terminated frame")
    return trellis.memory


def viterbi_batch(trellis, received, terminated=False):
    """ML decoding of a batch of equal-length frames by minimum Hamming
    distance: Forney's add-compare-select, one section at a time over every
    frame and state at once.

    received is an integer array of shape (frames, blocks, n); an array of
    any other dtype, float or bool, raises ValueError.  Returns
    (info, metrics): info[f] is the estimated information sequence of frame
    f, an array of shape (blocks - tail, k) in the narrowest unsigned dtype
    that holds states x inputs, and metrics[f] its Hamming distance to the
    received frame, a Python int.  Each step is one `trellis.acs` over the
    frames on packed keys: it gathers the metric key
    of every edge entering a state through `trellis.pred`, adds the edge's
    key, its Hamming distance to the received block x num_inputs + its
    position j in `pred` order, and keeps the least, so of equal candidates
    the lowest predecessor state, then the lowest input index wins;
    `Trellis.traceback` walks the survivors back.  With terminated=True the
    last `memory` steps admit only zero inputs, the others keyed as
    unreached, and the tail is dropped from the estimate.  The survivor
    table holds one entry per frame, block and state; a batch over
    SURVIVOR_BUDGET raises ValueError before any table is built.
    """
    received = np.asarray(received)
    if received.ndim != 3 or received.shape[2] != trellis.n:
        raise ValueError(f"received must have shape (frames, blocks, {trellis.n})")
    if not np.issubdtype(received.dtype, np.integer):
        raise ValueError(f"received must be an integer array, not {received.dtype}")
    frames, total, _ = received.shape
    tail = _tail(trellis, total, terminated)
    num_states, num_inputs = trellis.num_states, trellis.num_inputs
    check_survivor_budget(frames, total, num_states)
    if received.size and not 0 <= received.min() <= received.max() < trellis.q:
        raise ValueError(f"received symbols outside [0, {trellis.q})")

    # pred[s, j, st]: the edges into state st, the inputs axis leading, in
    # one row for every section where `pred` shares one
    pred = np.ascontiguousarray(np.swapaxes(_rows(trellis.pred), 1, 2))
    shape = (trellis.num_sections, *pred.shape[1:])
    from_state = np.broadcast_to(pred // num_inputs, shape)
    # symbol i of the labels of the edges pred[s]: labels[s, i] is (inputs, states)
    labels = np.ascontiguousarray(
        np.moveaxis(trellis.label[np.arange(trellis.num_sections)[:, None, None], pred], -1, 1)
    )
    unreached = _check_keys(num_inputs, total * trellis.n)
    # the keys, mismatches x num_inputs + j, stay narrow until `acs` adds
    # them; in the tail only zero inputs may be taken, the others keyed U
    narrow = np.min_scalar_type((trellis.n + 1) * num_inputs - 1)
    no_mismatch = np.zeros((), dtype=narrow)
    j = np.arange(num_inputs, dtype=narrow)[:, None]
    zero_input = np.broadcast_to(pred % num_inputs == 0, shape)
    never = np.int64(unreached)

    metrics = np.full((frames, num_states), unreached, dtype=np.int64)
    metrics[:, 0] = 0
    survivors = np.empty((total, frames, num_states), dtype=np.min_scalar_type(num_inputs - 1))
    for t in range(total):
        s = t % trellis.num_sections
        mismatches = (labels[s, i] != received[:, t, i, None, None] for i in range(trellis.n))
        keys = sum(mismatches, no_mismatch)
        keys *= num_inputs
        keys += j
        if t >= total - tail:
            keys = np.where(zero_input[s], keys, never)
        metrics, survivors[t] = acs(metrics, from_state[s], keys)

    state = np.zeros(frames, dtype=np.intp) if terminated else metrics.argmin(axis=1)
    final = metrics[np.arange(frames), state]
    if (final == unreached).any():
        raise ValueError("no terminated path reaches the zero state")
    inputs = trellis.traceback(survivors, state)[: total - tail].T % num_inputs
    digits = trellis.q ** np.arange(trellis.k, dtype=inputs.dtype)
    info = inputs[..., None] // digits % trellis.q
    return info, (final // num_inputs).tolist()


def viterbi(trellis, received, terminated=False):
    """ML sequence decoding of one frame by minimum Hamming distance:
    `viterbi_batch` on a batch of one, with its tie-break and its budget."""
    word = coerce_sequence(trellis.field, received, trellis.n)
    frame = np.asarray(word).reshape(1, len(word), trellis.n)
    info, metrics = viterbi_batch(trellis, frame, terminated)
    return DecodeResult(Sequence._trusted(trellis.field, info[0], trellis.k), metrics[0])


def bcjr(trellis, received, channel, terminated=False):
    """Exact symbol-wise APP decoding by the forward-backward recursion.

    Probability domain with per-step renormalization; posteriors is an
    (info_len, q^k) array whose row t is the distribution over the q^k
    input-block indices at time t (uniform prior).  Hard decisions are the
    per-time argmax.  The branch terms are one array step; the recursion
    walks them one edge at a time, along `next_state` read as Python lists,
    made once per call.  A word of more blocks x states x inputs than
    `trellis.EDGE_BUDGET` raises ValueError before any work.
    """
    q = trellis.q
    if channel.q != q:
        raise ValueError("channel alphabet does not match the trellis field")
    max_eps = (q - 1) / q
    if not 0.0 < channel.eps < max_eps:
        raise ValueError(f"eps must lie in (0, {max_eps}) for APP decoding")

    word = coerce_sequence(trellis.field, received, trellis.n)
    total = len(word)
    tail = _tail(trellis, total, terminated)

    num_states, num_inputs, n = trellis.num_states, trellis.num_inputs, trellis.n
    # one trellis section a block: as many edges as a DOT export of as many sections
    what = f"a BCJR word of {total} blocks x {num_states} states x {num_inputs} inputs"
    _within(total * num_states * num_inputs, _trellis.EDGE_BUDGET, what, "edges")
    # next_state[s][st][idx]: the edge array as lists
    shape = (trellis.num_sections, num_states, num_inputs)
    next_state = trellis.next_state.reshape(shape).tolist()

    # gammas[t, st, idx] = prior x like[m] (multiplied, as edge by edge), m the
    # label's mismatches (row m of np.tri has m); the tail keeps input 0, prior 1
    labels = trellis.label.reshape(*shape, n)
    word = np.asarray(word).reshape(total, 1, 1, n)
    section = np.arange(total) % trellis.num_sections
    no_mismatch = np.zeros((), dtype=np.min_scalar_type(n))
    mismatches = sum((labels[section, ..., i] != word[..., i] for i in range(n)), no_mismatch)
    like = np.array([channel.block_likelihood([0] * n, b) for b in np.tri(n + 1, n, -1, int)])
    gammas = (like * (1.0 / num_inputs))[mismatches]
    gammas[total - tail :, :, 0] = like[mismatches[total - tail :, :, 0]]
    gammas[total - tail :, :, 1:] = 0.0

    alpha = np.zeros((total + 1, num_states))
    alpha[0, 0] = 1.0
    for t in range(total):
        to = next_state[t % trellis.num_sections]
        g = gammas[t]
        for st in range(num_states):
            av = alpha[t, st]
            if av == 0.0:
                continue
            edges = to[st]
            for idx in range(num_inputs):
                w = g[st, idx]
                if w:
                    alpha[t + 1, edges[idx]] += av * w
        norm = alpha[t + 1].sum()
        if norm == 0.0:
            raise ValueError(f"received block {t} has zero likelihood under the trellis")
        alpha[t + 1] /= norm

    # the backward pass also sums the posteriors, alpha[t] x gamma x beta[t + 1]
    beta = np.zeros((total + 1, num_states))
    if terminated:
        beta[total, 0] = 1.0
    else:
        beta[total, :] = 1.0 / num_states
    info_len = total - tail
    posteriors = np.empty((info_len, num_inputs))
    for t in range(total - 1, -1, -1):
        to = next_state[t % trellis.num_sections]
        g = gammas[t]
        post = np.zeros(num_inputs)
        for st in range(num_states):
            edges = to[st]
            av = alpha[t, st]
            acc = 0.0
            for idx in range(num_inputs):
                w = g[st, idx]
                if w:
                    b = beta[t + 1, edges[idx]]
                    acc += w * b
                    post[idx] += av * w * b
            beta[t, st] = acc
        norm = beta[t].sum()
        if norm == 0.0:
            raise ValueError(f"received block {t} has zero likelihood under the trellis")
        beta[t] /= norm
        if t < info_len:
            posteriors[t] = post / post.sum()

    hard = posteriors.argmax(axis=1)[:, None] // q ** np.arange(trellis.k) % q
    return DecodeResult(Sequence._trusted(trellis.field, hard, trellis.k), None, posteriors)

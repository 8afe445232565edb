"""Scalar reference implementations of the decoders' fast paths and of the
channel, kept as test oracles for `skewconv.decoder.viterbi_batch`,
`skewconv.bcjr`, `QSChannel.transmit` and `skewconv.run_simulation`.

`viterbi` is the per-edge add-compare-select loop over the trellis edges,
read one at a time through `Trellis.edge`; `bcjr` computes every branch term
by its own `block_likelihood` call; `transmit` sends one symbol at a time;
and `run_simulation` encodes each frame with the per-symbol reference
encoder, sends it with `transmit` and decodes it with `viterbi`.
"""

import math

import numpy as np

import code_reference
from skewconv import DecodeResult, Sequence, SimReport, build_trellis
from skewconv import trellis as trellis_module
from skewconv.analysis import _trial_rng
from skewconv.code import coerce_sequence
from skewconv.decoder import QSChannel
from trellis_reference import sections


def transmit_symbol(channel, symbol, rng):
    """One symbol over the q-ary symmetric channel: one random(), and on an
    error one randrange(q - 1) for which of the other q - 1 symbols."""
    if rng.random() >= channel.eps:
        return symbol
    other = rng.randrange(channel.q - 1)
    return other if other < symbol else other + 1


def transmit(channel, seq, rng):
    """A sequence over the channel one symbol at a time, in block order."""
    out = [[transmit_symbol(channel, v, rng) for v in block] for block in seq.to_ints()]
    return Sequence._trusted(seq.field, out, seq.width)


def viterbi(trellis, received, terminated=False):
    """Viterbi one edge at a time: the first (state, input) in scan order that
    strictly improves a state becomes its survivor."""
    blocks = coerce_sequence(trellis.field, received, trellis.n).to_ints()
    total = len(blocks)
    tail = trellis.memory if terminated else 0
    if total <= tail and terminated:
        raise ValueError(f"received length {total} too short for a terminated frame")

    num_states = trellis.num_states
    metrics = [math.inf] * num_states
    metrics[0] = 0
    parents = []
    edges_of = sections(trellis)
    for t, rblock in enumerate(blocks):
        section = edges_of[t % trellis.num_sections]
        inputs = 1 if t >= total - tail else trellis.num_inputs
        nmetrics = [math.inf] * num_states
        npar = [None] * num_states
        for st in range(num_states):
            mv = metrics[st]
            if mv == math.inf:
                continue
            edges = section[st]
            for idx in range(inputs):
                e = edges[idx]
                d = mv + sum(1 for a, b in zip(e.label, rblock) if a != b)
                if d < nmetrics[e.to_state]:
                    nmetrics[e.to_state] = d
                    npar[e.to_state] = (st, idx)
        parents.append(npar)
        metrics = nmetrics

    if terminated:
        end_state = 0
        if metrics[0] == math.inf:
            raise ValueError("no terminated path reaches the zero state")
    else:
        end_state = min(range(num_states), key=lambda st: (metrics[st], st))
    metric = metrics[end_state]

    state = end_state
    inputs_rev = []
    for t in range(total - 1, -1, -1):
        st, idx = parents[t][state]
        inputs_rev.append(trellis.input_block(idx))
        state = st
    inputs_rev.reverse()
    info = inputs_rev[: total - tail]
    return DecodeResult(Sequence(trellis.field, info, width=trellis.k), int(metric))


def run_simulation(code, eps, trials, frame_len, seed=0, trellis=None):
    """The simulation loop, one frame at a time: the reference encoder,
    `transmit` and `viterbi`."""
    q = code.field.size
    tr = trellis if trellis is not None else build_trellis(code)
    channel = QSChannel(q, eps)
    sym_in = 0
    sym_out = 0
    frame_errs = 0
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        u = [[rng.randrange(q) for _ in range(code.k)] for _ in range(frame_len)]
        sent = code_reference.encode(code, u, terminate=True)
        recv = transmit(channel, sent, rng)
        sym_in += sum(1 for a, b in zip(sent.flat_values(), recv.flat_values()) if a != b)
        est = viterbi(tr, recv, terminated=True).info_est.to_ints()
        errs = sum(1 for want, got in zip(u, est) for a, b in zip(want, got) if a != b)
        sym_out += errs
        if errs:
            frame_errs += 1
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


def bcjr(trellis, received, channel, terminated=False):
    """BCJR one edge at a time: each branch term is a `block_likelihood`
    call, and the recursion reads the edge arrays as Python lists.  The same
    checks, in the same order and with the same messages, as `bcjr`."""
    q = trellis.q
    if channel.q != q:
        raise ValueError("channel alphabet does not match the trellis field")
    max_eps = (q - 1) / q
    if not 0.0 < channel.eps < max_eps:
        raise ValueError(f"eps must lie in (0, {max_eps}) for APP decoding")

    blocks = coerce_sequence(trellis.field, received, trellis.n).to_ints()
    total = len(blocks)
    tail = trellis.memory if terminated else 0
    if total <= tail and terminated:
        raise ValueError(f"received length {total} too short for a terminated frame")

    # one trellis section a block: as many edges as a DOT export of as many sections
    num_states, num_inputs = trellis.num_states, trellis.num_inputs
    edges, budget = total * num_states * num_inputs, trellis_module.EDGE_BUDGET
    if edges > budget:
        raise ValueError(
            f"a BCJR word of {total} blocks x {num_states} states x {num_inputs} inputs "
            f"has {edges} edges, over the budget of {budget}"
        )
    # next_state[s][st][idx], labels[s][st][idx]: the edge arrays as lists
    shape = (trellis.num_sections, num_states, num_inputs)
    next_state = trellis.next_state.reshape(shape).tolist()
    labels = trellis.label.reshape(*shape, trellis.n).tolist()

    # gammas[t][st][idx] = P(input idx) * P(received_t | label)
    gammas = []
    for t, rblock in enumerate(blocks):
        label = labels[t % trellis.num_sections]
        inputs = 1 if t >= total - tail else num_inputs
        prior = 1.0 if inputs == 1 else 1.0 / num_inputs
        g = np.zeros((num_states, num_inputs))
        for st in range(num_states):
            edges = label[st]
            for idx in range(inputs):
                g[st, idx] = prior * channel.block_likelihood(edges[idx], rblock)
        gammas.append(g)

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

    hard = [trellis.input_block(int(post.argmax())) for post in posteriors]
    return DecodeResult(Sequence(trellis.field, hard, width=trellis.k), None, posteriors)

"""The array Viterbi kernel and the batched simulation against their scalar
references, the survivor budget, and the array BCJR branch terms against the
per-edge BCJR: the same posteriors, decisions and refusals, in narrow
memory."""

import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import decoder_reference as reference
from skewconv import (
    FiniteField,
    QSChannel,
    SkewConvCode,
    SkewPolyMatrix,
    SkewTrellisCode,
    analysis,
    bcjr,
    build_trellis,
    load_code,
    run_simulation,
    viterbi,
)
from skewconv import field as field_module, trellis as trellis_module
from skewconv.decoder import viterbi_batch

from conftest import A, EXAMPLE_TABLE
from test_trellis_fast_paths import random_code

GF2 = FiniteField(2, 1)
GF4 = FiniteField(2, 2, [1, 1, 1], theta_r=1)
GF8 = FiniteField(2, 3, [1, 1, 0, 1], theta_r=1)
GF9 = FiniteField(3, 2, [2, 2, 1], theta_r=1)
GF16 = FiniteField(2, 4, [1, 1, 0, 0, 1], theta_r=1)


def draw_codes():
    rng = random.Random(505)
    codes = []
    for fname, field, degrees in (
        ("gf2", GF2, [2]),
        ("gf4", GF4, [1]),
        ("gf4-k2", GF4, [1, 1]),
        ("gf8", GF8, [1]),
        ("gf9", GF9, [1]),
        ("gf9-k2", GF9, [1, 0]),
        ("gf16", GF16, [1]),
    ):
        n = 3 if len(degrees) == 2 else 2
        for cls in (SkewConvCode, SkewTrellisCode):
            codes.append((f"{fname}-{cls.module_side}", random_code(cls, field, rng, degrees, n=n)))
    codes.append(("worked", SkewConvCode(SkewPolyMatrix.from_ints(GF4, EXAMPLE_TABLE))))
    codes.append(("memory0", SkewConvCode(SkewPolyMatrix.from_ints(GF4, [[[1], [A]]]))))
    return codes


CODES = draw_codes()
TRELLISES = {name: build_trellis(code) for name, code in CODES}


@pytest.fixture(params=[name for name, _ in CODES])
def case(request):
    return dict(CODES)[request.param], TRELLISES[request.param]


def random_words(tr, rng, lengths, count=3):
    return [
        [[rng.randrange(tr.q) for _ in range(tr.n)] for _ in range(length)]
        for length in lengths
        for _ in range(count)
    ]


def tie_count(tr, received, terminated):
    """How many add-compare-select steps see two equal lightest candidates."""
    total = len(received)
    tail = tr.memory if terminated else 0
    metrics = np.full(tr.num_states, np.inf)
    metrics[0] = 0
    ties = 0
    for t, block in enumerate(received):
        s = t % tr.num_sections
        branch = (tr.label[s] != np.asarray(block)).sum(axis=1)
        cand = metrics[tr.pred[s] // tr.num_inputs] + branch[tr.pred[s]]
        if t >= total - tail:
            cand[tr.pred[s] % tr.num_inputs != 0] = np.inf
        best = cand.min(axis=1, keepdims=True)
        ties += int(((cand == best).sum(axis=1) > 1)[best[:, 0] < np.inf].sum())
        metrics = best[:, 0]
    return ties


def test_the_code_set_covers_the_cases():
    codes = dict(CODES)
    assert {code.module_side for code in codes.values()} == {"left", "right"}
    assert {code.field.size for code in codes.values()} == {2, 4, 8, 9, 16}
    for side in ("left", "right"):
        assert {code.k for code in codes.values() if code.module_side == side} == {1, 2}


def test_viterbi_matches_the_scalar_oracle(case):
    code, tr = case
    rng = random.Random(606)
    tail = tr.memory
    for terminated, lengths in ((False, range(0, 6)), (True, range(tail + 1, tail + 6))):
        for received in random_words(tr, rng, lengths):
            got = viterbi(tr, received, terminated=terminated)
            want = reference.viterbi(tr, received, terminated=terminated)
            assert got.info_est == want.info_est
            assert got.info_est.width == want.info_est.width == code.k
            assert type(got.metric) is int and got.metric == want.metric


def test_a_batch_decodes_as_its_frames_do(case):
    code, tr = case
    rng = random.Random(707)
    for terminated in (False, True):
        length = tr.memory + 4
        words = random_words(tr, rng, [length], count=9)
        info, metrics = viterbi_batch(tr, np.array(words).reshape(9, length, tr.n), terminated)
        assert info.shape == (9, length - (tr.memory if terminated else 0), code.k)
        assert len(metrics) == 9
        for word, est, metric in zip(words, info, metrics):
            want = reference.viterbi(tr, word, terminated=terminated)
            assert [tuple(block) for block in est.tolist()] == want.info_est.to_ints()
            assert type(metric) is int and metric == want.metric


def test_noisy_codewords_decode_as_the_oracle_does(case):
    code, tr = case
    rng = random.Random(808)
    channel = QSChannel(tr.q, 0.2)
    for _ in range(6):
        u = [[rng.randrange(tr.q) for _ in range(code.k)] for _ in range(5)]
        received = channel.transmit(code.encode(u, terminate=True), rng)
        got = viterbi(tr, received, terminated=True)
        want = reference.viterbi(tr, received, terminated=True)
        assert got.info_est == want.info_est and got.metric == want.metric


def test_received_words_full_of_ties(case):
    code, tr = case
    rng = random.Random(909)
    words = [[[1] * tr.n] * 6, [[0] * tr.n] * 3 + [[1] * tr.n] * 3]
    words += random_words(tr, rng, [6], count=4)
    ties = 0
    for received in words:
        for terminated in (False, True):
            got = viterbi(tr, received, terminated=terminated)
            want = reference.viterbi(tr, received, terminated=terminated)
            assert got.info_est == want.info_est and got.metric == want.metric
            ties += tie_count(tr, received, terminated)
    if tr.num_states > 1:
        assert ties > 0


def test_an_empty_received_word(case):
    code, tr = case
    got = viterbi(tr, [], terminated=False)
    want = reference.viterbi(tr, [], terminated=False)
    assert got.info_est == want.info_est and len(got.info_est) == 0
    assert got.info_est.width == code.k
    assert type(got.metric) is int and got.metric == want.metric == 0
    info, metrics = viterbi_batch(tr, np.zeros((3, 0, tr.n), dtype=int))
    assert info.shape == (3, 0, code.k) and metrics == [0, 0, 0]
    for decode in (viterbi, reference.viterbi):
        with pytest.raises(ValueError, match="too short"):
            decode(tr, [], terminated=True)


def test_viterbi_batch_validates_its_input():
    tr = TRELLISES["worked"]
    with pytest.raises(ValueError, match="shape"):
        viterbi_batch(tr, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        viterbi_batch(tr, np.zeros((1, 3, 3), dtype=int))
    with pytest.raises(ValueError, match="outside"):
        viterbi_batch(tr, np.full((1, 3, 2), 4))
    with pytest.raises(ValueError, match="short"):
        viterbi_batch(tr, np.zeros((2, 1, 2), dtype=int), terminated=True)


@pytest.mark.parametrize(
    "received",
    [np.full((1, 3, 2), 0.5), np.full((1, 3, 2), 1.9), np.zeros((1, 3, 2), dtype=bool)],
    ids=["float-0.5", "float-1.9", "bool"],
)
def test_viterbi_batch_refuses_a_non_integer_array(received):
    with pytest.raises(ValueError, match="integer"):
        viterbi_batch(TRELLISES["worked"], received)


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("name", ["worked", "gf2-right", "gf4-k2-left", "gf9-right", "gf16-left"])
def test_run_simulation_matches_the_per_frame_loop(name, eps, monkeypatch):
    code, tr = dict(CODES)[name], TRELLISES[name]
    want = reference.run_simulation(code, eps, 10, 4, seed=31, trellis=tr)
    assert run_simulation(code, eps, 10, 4, seed=31, trellis=tr) == want
    # three frames a call: 10 trials is not a multiple of the batch
    calls = []

    def recording(trellis, received, terminated=False):
        calls.append(len(received))
        return viterbi_batch(trellis, received, terminated)

    monkeypatch.setattr(field_module, "PASS_ELEMENTS", 3 * tr.num_states * tr.num_inputs)
    monkeypatch.setattr(analysis, "viterbi_batch", recording)
    assert run_simulation(code, eps, 10, 4, seed=31, trellis=tr) == want
    assert calls == [3, 3, 3, 1]


def test_run_simulation_batches_do_not_grow_with_trials(monkeypatch):
    code, tr = dict(CODES)["gf16-left"], TRELLISES["gf16-left"]
    calls = []

    def recording(trellis, received, terminated=False):
        calls.append(len(received))
        return viterbi_batch(trellis, received, terminated)

    monkeypatch.setattr(analysis, "viterbi_batch", recording)
    run_simulation(code, 0.05, 600, 2, seed=1, trellis=tr)
    cap = field_module.PASS_ELEMENTS // (tr.num_states * tr.num_inputs)
    assert sum(calls) == 600 and max(calls) == cap < 600


def test_the_survivor_budget_is_checked_before_allocating():
    tr = TRELLISES["worked"]
    blocks = trellis_module.SURVIVOR_BUDGET // tr.num_states + 1
    # a zero-stride view: a long received word that takes no memory
    huge = np.broadcast_to(np.zeros(1, dtype=np.intp), (1, blocks, tr.n))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            viterbi_batch(tr, huge, terminated=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="budget"):
        viterbi_batch(tr, np.zeros((2, blocks // 2 + 1, tr.n), dtype=np.uint8))


def test_a_long_batch_traces_back_in_narrow_tables():
    # 1024 frames of 1000 blocks of the worked code: the survivor table takes
    # a byte an entry, and so do the traceback's edge ids, the input indices
    # and their digits, where one intp table would take twice the survivors
    suite = Path(__file__).resolve().parents[1] / "perfbench" / "suite"
    code = load_code(suite / "gf4_worked.json")
    tr = build_trellis(code)
    rng = np.random.default_rng(1515)
    u = rng.integers(0, tr.q, (1024, 1000, code.k))
    sent = code.encode_batch(u, terminate=True)
    errors = rng.random(sent.shape) < 0.05
    received = np.where(errors, (sent + 1) % tr.q, sent).astype(sent.dtype)
    tracemalloc.start()
    try:
        info, metrics = viterbi_batch(tr, received, terminated=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.dtype == np.uint8 and info.shape == u.shape
    assert peak < 2 * received.shape[0] * received.shape[1] * tr.num_states
    estimate = code.encode_batch(info, terminate=True)
    assert metrics == np.count_nonzero(estimate != received, axis=(1, 2)).tolist()
    assert (np.array(metrics) <= np.count_nonzero(sent != received, axis=(1, 2))).all()
    for word, est in zip(received[:2], info):
        want = reference.viterbi(tr, word.tolist(), terminated=True)
        assert [tuple(block) for block in est.tolist()] == want.info_est.to_ints()


def test_a_memory0_gf256_code_splits_its_inputs_in_range():
    # 1 state x 256 inputs: the edge ids 0..255 fit a byte, but the digit
    # base q = 256 does not, so the tables hold states x inputs
    code = SkewConvCode(SkewPolyMatrix.from_ints(FiniteField(2, 8, theta_r=1), [[[1], [3]]]))
    tr = build_trellis(code)
    rng = np.random.default_rng(1616)
    received = rng.integers(0, tr.q, (4, 5, tr.n))
    for terminated in (False, True):
        info, metrics = viterbi_batch(tr, received, terminated)
        assert info.dtype == np.uint16
        for word, est, metric in zip(received, info, metrics):
            want = reference.viterbi(tr, word.tolist(), terminated=terminated)
            assert [tuple(block) for block in est.tolist()] == want.info_est.to_ints()
            assert metric == want.metric


def test_run_simulation_rejects_an_over_budget_frame_at_once(monkeypatch):
    code = dict(CODES)["worked"]

    def no_encoding(*args, **kwargs):
        raise AssertionError("encoded a frame over the budget")

    monkeypatch.setattr(SkewConvCode, "encode", no_encoding)
    with pytest.raises(ValueError, match="budget"):
        run_simulation(code, 0.1, 1, 100_000_000)


def test_bcjr_posteriors_are_one_array(case):
    code, tr = case
    rng = random.Random(1010)
    channel = QSChannel(tr.q, 0.1)
    for terminated in (False, True):
        received = random_words(tr, rng, [tr.memory + 3], count=1)[0]
        res = bcjr(tr, received, channel, terminated=terminated)
        info_len = len(received) - (tr.memory if terminated else 0)
        assert isinstance(res.posteriors, np.ndarray)
        assert res.posteriors.shape == (info_len, tr.num_inputs)
        assert res.posteriors.dtype == np.float64
        assert np.allclose(res.posteriors.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        hard = [tr.input_block(int(i)) for i in res.posteriors.argmax(axis=1)]
        assert res.info_est.to_ints() == hard


# two right-module codes of k = 2: over GF(8), of 64 inputs, and over GF(4),
# of memory 2, whose shortest terminated frames reach the tail with states
# still unreached
TAIL_CODES = [
    (GF8, [[[3], [5], [6]], [[7, 1], [3, 7], [5, 7]]]),
    (GF4, [[[2, 2, 0], [2, 3, 3], [1, 1, 0]], [[2], [3], [2]]]),
]
TAIL_IDS = ["gf8-64-inputs", "gf4-memory2"]


@pytest.mark.parametrize("field,table", TAIL_CODES, ids=TAIL_IDS)
def test_a_terminated_tail_takes_only_zero_inputs(field, table):
    # the tail's other inputs are keyed U exactly, neither cut to the narrow
    # keys' dtype nor past U, where a sum with an unreached row would wrap;
    # each terminated estimate is the word at its metric
    code = SkewTrellisCode(SkewPolyMatrix.from_ints(field, table))
    tr = build_trellis(code)
    rng = np.random.default_rng(1)
    for length in (tr.memory + 1, tr.memory + 2, 8):
        received = rng.integers(0, tr.q, (64, length, tr.n))
        info, metrics = viterbi_batch(tr, received, terminated=True)
        sent = code.encode_batch(info, terminate=True)
        assert metrics == np.count_nonzero(sent != received, axis=(1, 2)).tolist()
        for word, est, metric in zip(received[:8], info, metrics):
            want = reference.viterbi(tr, word.tolist(), terminated=True)
            assert [tuple(block) for block in est.tolist()] == want.info_est.to_ints()
            assert metric == want.metric


def bcjr_cases():
    """The differential cases of the array BCJR: every code above and both
    tail codes, with their trellises."""
    cases = {name: (code, TRELLISES[name]) for name, code in CODES}
    for name, (field, table) in zip(TAIL_IDS, TAIL_CODES):
        code = SkewTrellisCode(SkewPolyMatrix.from_ints(field, table))
        cases[name] = code, build_trellis(code)
    return cases


BCJR_CASES = bcjr_cases()


def outcome(decode, tr, received, channel, terminated):
    """A decoder's result, or the message of the ValueError it raises."""
    try:
        return decode(tr, received, channel, terminated=terminated)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("name", list(BCJR_CASES))
def test_bcjr_matches_the_per_edge_oracle(name):
    # 2 x 3 x 3 calls a code, 324 in all: posteriors np.array_equal to the
    # oracle's, so every branch term is the oracle's float to the bit
    code, tr = BCJR_CASES[name]
    rng = random.Random(1212)
    empty = bcjr(tr, [], QSChannel(tr.q, 0.3))
    assert empty.posteriors.shape == (0, tr.num_inputs)
    assert empty.info_est == reference.bcjr(tr, [], QSChannel(tr.q, 0.3)).info_est
    for terminated in (False, True):
        lengths = range(tr.memory + 1 if terminated else 1, 13)
        for eps in (1e-6, 0.3, math.nextafter((tr.q - 1) / tr.q, 0)):
            channel = QSChannel(tr.q, eps)
            for length in rng.sample(lengths, 3):
                if length % 2:
                    received = random_words(tr, rng, [length], count=1)[0]
                else:
                    tail = tr.memory if terminated else 0
                    u = [[rng.randrange(tr.q) for _ in range(code.k)] for _ in range(length - tail)]
                    sent = code.encode(u, terminate=terminated)
                    received = channel.transmit(sent, rng)
                got = bcjr(tr, received, channel, terminated=terminated)
                want = reference.bcjr(tr, received, channel, terminated=terminated)
                assert np.array_equal(got.posteriors, want.posteriors)
                assert got.info_est == want.info_est
                assert got.info_est.width == code.k and got.metric is want.metric is None


@pytest.mark.parametrize("name", list(BCJR_CASES))
def test_bcjr_refuses_as_the_oracle_does(name, monkeypatch):
    _, tr = BCJR_CASES[name]
    q, n = tr.q, tr.n
    rng = random.Random(1313)
    word = random_words(tr, rng, [tr.memory + 6], count=1)[0]
    refusals = [
        (word, QSChannel(q, 0.0), True, "^eps must lie in"),
        (word, QSChannel(q, (q - 1) / q), False, "^eps must lie in"),
        (word, QSChannel(q + 1, 0.1), False, "^channel alphabet"),
        # at the least eps an edge off the word has likelihood 0
        (word, QSChannel(q, math.ulp(0.0)), False, "has zero likelihood under the trellis$"),
        ([[0] * n] * tr.memory, QSChannel(q, 0.1), True, "too short for a terminated frame$"),
    ]
    for received, channel, terminated, match in refusals:
        got = outcome(bcjr, tr, received, channel, terminated)
        assert got == outcome(reference.bcjr, tr, received, channel, terminated)
        assert isinstance(got, str) and re.search(match, got)
    edges = len(word) * tr.num_states * tr.num_inputs
    monkeypatch.setattr(trellis_module, "EDGE_BUDGET", edges - 1)
    got = outcome(bcjr, tr, word, QSChannel(q, 0.1), False)
    assert got == outcome(reference.bcjr, tr, word, QSChannel(q, 0.1), False)
    assert got == (
        f"a BCJR word of {len(word)} blocks x {tr.num_states} states x {tr.num_inputs} inputs "
        f"has {edges} edges, over the budget of {edges - 1}"
    )


def test_bcjr_keeps_its_branch_counts_narrow():
    # 128 blocks of the benchmark's GF(16) memory-2 code: a terminated
    # codeword with its last block changed, decoded at the least eps, so
    # only the codeword's own edges carry likelihood; the forward pass follows
    # that one path and stops at block 127 with the branch terms, their
    # counts and alpha all held, and no recursion runs edge by edge under the
    # trace.  An intp mismatch count would add 8 bytes an edge, as much again
    # as the float64 branch terms.
    suite = Path(__file__).resolve().parents[1] / "perfbench" / "suite"
    code = load_code(suite / "gf16_m2.json")
    tr = build_trellis(code)
    rng = random.Random(1414)
    u = [[rng.randrange(tr.q)] for _ in range(128 - tr.memory)]
    word = code.encode(u, terminate=True).to_ints()
    word[-1] = ((word[-1][0] + 1) % tr.q, *word[-1][1:])
    gamma_bytes = len(word) * tr.num_states * tr.num_inputs * 8
    channel = QSChannel(tr.q, math.ulp(0.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^received block 127 has zero likelihood"):
            bcjr(tr, word, channel, terminated=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * gamma_bytes

"""The duality check's draws, a block of `randbytes` words each, read
word by word: a symbol one word mod q; the simulation's batch draws against
each trial's `randrange` and `QSChannel.draw_errors`; and the interpreter's
reading of the Mersenne Twister's 32-bit words that they parse.  The
check's results against its per-word reference are tested in
`test_encoder.py`."""

import math
import random
import sys

import numpy as np
import pytest

from skewconv import QSChannel, analysis, field as field_module, syndrome_former, verify_duality
from skewconv.analysis import _draw_trials, _trial_rng, _words
from skewconv.dual import _symbols

import code_reference as reference

SIZES = [1, 2, 3, 4, 5, 9, 16, 27, 256, 2**16, 2**20]


class Squared(random.Random):
    """Overrides random(), which the duality check's blocks never read."""

    def random(self):
        return super().random() ** 2


class Reversed(random.Random):
    """Overrides getrandbits, and so randbytes: the bits of each draw in
    reverse order."""

    def getrandbits(self, k):
        return int(format(super().getrandbits(k), f"0{k}b")[::-1], 2) if k else 0


def check_symbols(rng, q, shapes):
    for shape in shapes:
        twin = type(rng)()
        twin.setstate(rng.getstate())
        got = _symbols(rng, q, shape)
        words = np.frombuffer(twin.randbytes(4 * math.prod(shape)), "<u4")
        assert got.shape == shape, (q, shape)
        assert got.ravel().tolist() == [int(w) % q for w in words], (q, shape)
        assert rng.getstate() == twin.getstate(), (q, shape)
        assert rng.random() == twin.random(), (q, shape)


@pytest.mark.parametrize("q", SIZES)
def test_bulk_draws_are_the_block_words_mod_q(q):
    # on a plain generator the block's words are its next getrandbits(32)s
    rng, twin = random.Random(q), random.Random(q)
    for shape in ((0,), (1,), (7, 3), (20, 7, 2), (501,)):
        got = _symbols(rng, q, shape)
        assert got.shape == shape and (got < q).all()
        assert got.ravel().tolist() == [w % q for w in next_words(twin, math.prod(shape))]
        assert rng.getstate() == twin.getstate(), (q, shape)
    check_symbols(rng, q, [(0, 4), (3, 5)])


@pytest.mark.parametrize("cls", [Squared, Reversed], ids=lambda c: c.__name__)
@pytest.mark.parametrize("q", [2, 9, 256])
def test_a_generator_that_draws_otherwise_keeps_its_own_stream(cls, q):
    # the block is the instance's own randbytes, overridden or not
    check_symbols(cls(7), q, [(0,), (1,), (2,), (50,), (301,), (20, 7, 2)])
    plain, rng = random.Random(7), cls(7)
    same = bool((_symbols(plain, 2**20, (40,)) == _symbols(rng, 2**20, (40,))).all())
    assert same is (cls is Squared)


def profiled_randrange_calls(check):
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is random.Random.randrange.__code__:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        got = check()
    finally:
        sys.setprofile(None)
    return got, calls


def test_a_plain_generator_makes_no_randrange_call(example_code):
    sf = syndrome_former(example_code)
    rng, ref_rng = random.Random(5), random.Random(5)
    got, calls = profiled_randrange_calls(lambda: verify_duality(example_code, sf, rng=rng))
    assert got is reference.verify_duality(example_code, sf, rng=ref_rng) is True
    assert calls == []
    assert rng.getstate() == ref_rng.getstate()


# The interpreter's draws that `analysis._read_draws` reads off the
# generator's words, and the randbytes block of the duality check, whose
# per-word reference draws getrandbits(32) a word.  If an interpreter
# changes any of them, these fail by name rather than the committed
# simulation counts moving.


def next_words(rng, m):
    return [rng.getrandbits(32) for _ in range(m)]


@pytest.mark.parametrize("m", [1, 2, 3, 76, 700])
def test_getrandbits_of_32_m_bits_is_the_next_m_words_little_endian(m):
    rng, twin = random.Random(m), random.Random(m)
    block = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
    assert np.frombuffer(block, dtype="<u4").tolist() == next_words(twin, m)
    assert rng.getstate() == twin.getstate()
    assert _words([rng, rng], m).tolist() == [next_words(twin, m), next_words(twin, m)]
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("m", [0, 1, 2, 3, 76, 700])
def test_randbytes_of_4_m_bytes_is_the_next_m_words_little_endian(m):
    rng, twin = random.Random(-m), random.Random(-m)
    assert np.frombuffer(rng.randbytes(4 * m), "<u4").tolist() == next_words(twin, m)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1, 2**20 - 1, 2**20]
)
def test_randrange_is_the_top_bits_of_a_word_redrawn_while_not_below(n):
    rng, twin = random.Random(n), random.Random(n)
    shift = 32 - n.bit_length()
    for _ in range(300):
        want = twin.getrandbits(32) >> shift
        while want >= n:
            want = twin.getrandbits(32) >> shift
        assert rng.randrange(n) == want
    assert rng.getstate() == twin.getstate()


def test_random_is_53_bits_of_two_words():
    rng, twin = random.Random(53), random.Random(53)
    for _ in range(2000):
        w1, w2 = next_words(twin, 2)
        assert rng.random() == ((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53
    assert rng.getstate() == twin.getstate()


# The batch draws of run_simulation against each trial's own loop.


def trial_loop(seed, first, count, q, info_count, symbols, eps):
    channel = QSChannel(q, eps)
    info, errors, offsets = [], [], []
    for trial in range(first, first + count):
        rng = _trial_rng(seed, trial)
        info.append([rng.randrange(q) for _ in range(info_count)])
        errs, offs = channel.draw_errors(rng, symbols)
        errors.append(errs)
        offsets.append(offs)
    return info, errors, offsets


def check_trials(seed, first, count, q, info_count, symbols, eps):
    got = _draw_trials(seed, first, count, q, info_count, symbols, eps)
    want = trial_loop(seed, first, count, q, info_count, symbols, eps)
    assert [a.shape for a in got] == [(count, info_count), (count, symbols), (count, symbols)]
    assert got[0].dtype == got[2].dtype == np.min_scalar_type(q - 1) and got[1].dtype == bool
    for name, g, w in zip(("info", "errors", "offsets"), got, want):
        assert g.tolist() == w, (name, q, eps, info_count, symbols)


def epsilons(q):
    # up to just below the channel's (q - 1) / q
    return [0.0, 1e-9, 0.05, 0.3, math.nextafter((q - 1) / q, 0.0)]


QS = [2, 3, 4, 8, 9, 16, 256, 2**16]


@pytest.mark.parametrize("q", QS)
def test_batch_draws_are_each_trials_randrange_and_channel_loop(q):
    # frame_len 1 and 8 of a [2, 1] memory-1 code and of a [3, 2] memory-2 code
    for eps in epsilons(q):
        for info_count, symbols in ((1, 4), (8, 18), (2, 9), (16, 30)):
            check_trials(5, 3, 37, q, info_count, symbols, eps)


@pytest.mark.parametrize("q", QS)
def test_batch_draws_that_need_more_words_than_the_first_block(q, monkeypatch):
    # with no spare words a block often falls short of the draws asked
    monkeypatch.setattr(analysis, "_DRAW_SPARE", 0)
    read_draws = analysis._read_draws
    short = []

    def counted(*args):
        got = read_draws(*args)
        short.append(int(got[3].sum()))
        return got

    monkeypatch.setattr(analysis, "_read_draws", counted)
    for eps in epsilons(q):
        for info_count, symbols in ((1, 1), (1, 4), (8, 18)):
            check_trials(-q, 0, 41, q, info_count, symbols, eps)
    assert sum(short) > 0


def test_batch_draws_read_in_chunks_of_trials(monkeypatch):
    # a chunk of 3 trials: 41 trials are 13 full chunks and one of 2
    width = analysis._block_words(4 * 2 + 18 * (2 + 0.05 * 4 / 3))
    monkeypatch.setattr(field_module, "PASS_ELEMENTS", 3 * width)
    rows = []
    read_draws = analysis._read_draws

    def counted(words, *args):
        rows.append(len(words))
        return read_draws(words, *args)

    monkeypatch.setattr(analysis, "_read_draws", counted)
    check_trials(9, 100, 41, 4, 4, 18, 0.05)
    assert rows == [3] * 13 + [2]


@pytest.mark.parametrize("symbols", [1, 2, 3, 5, 64, 1000, 4097])
def test_batch_draws_of_long_frames(symbols):
    for count in (1, 3):
        check_trials(2, 0, count, 4, 1, symbols, 0.3)


def read_words(words, q, info_count, symbols, eps):
    """The draws of `trial_loop` on a stream of 32-bit words, by the rules
    the interpreter tests above pin; StopIteration where the words run out."""
    words = iter(words)

    def randrange(n):
        shift = 32 - n.bit_length()
        while (r := next(words) >> shift) >= n:
            pass
        return r

    def random():
        return ((next(words) >> 5) * 2**26 + (next(words) >> 6)) / 2**53

    info = [randrange(q) for _ in range(info_count)]
    errors, offsets = [], []
    for _ in range(symbols):
        errors.append(random() < eps)
        offsets.append(randrange(q - 1) if errors[-1] else 0)
    return info, errors, offsets


@pytest.mark.parametrize("q", [2, 4, 9])
def test_batch_draws_at_the_edge_of_random_below_eps(q, monkeypatch):
    # words whose random() lands on eps * 2**53 rounded down or up: their top
    # 27 bits are those of the threshold, and the next word's top 26 bits
    # its low bits, less one, equal or one more; every trial reads its words
    # off a fixed table in place of its generator
    gen = np.random.default_rng(q)
    count, info_count, symbols, width = 30, 3, 12, 400

    def words(seed, trials, size):
        assert size <= width
        return table[trials, :size]

    monkeypatch.setattr(analysis, "_trial_words", words)
    for eps in epsilons(q)[1:]:
        high, low = divmod(math.floor(eps * 2**53), 2**26)
        kinds = [
            (high << 5) + gen.integers(0, 32, (count, width)),
            ((low + gen.integers(-1, 2, (count, width))) % 2**26 << 6)
            + gen.integers(0, 64, (count, width)),
            gen.integers(0, 2**32, (count, width)),
        ]
        table = np.choose(gen.integers(0, 3, (count, width)), kinds).astype(np.uint32)
        got = _draw_trials(0, 0, count, q, info_count, symbols, eps)
        want = [read_words(row.tolist(), q, info_count, symbols, eps) for row in table]
        assert any(any(errors) for _, errors, _ in want)
        for name, g, w in zip(("info", "errors", "offsets"), got, zip(*want)):
            assert g.tolist() == list(w), (name, eps)

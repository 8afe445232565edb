"""The bulk symbol draws of `verify_duality` against a loop of
`randrange`: the same symbols and the generator left in the same state; the
simulation's batch draws against each trial's `randrange` and
`QSChannel.draw_errors`; and the interpreter's reading of the Mersenne
Twister's 32-bit words that both parse."""

import math
import random
import sys

import numpy as np
import pytest

from skewconv import QSChannel, analysis, code as code_module, syndrome_former, verify_duality
from skewconv.analysis import _draw_trials, _trial_rng
from skewconv.code import SkewConvCode, _draw_symbols, _words

import code_reference as reference

SIZES = [1, 2, 3, 4, 5, 9, 16, 27, 256, 2**16, 2**20]


class Squared(random.Random):
    """Overrides random(), so its randrange draws through random() and not
    through the 32-bit words."""

    def random(self):
        return super().random() ** 2


class Reversed(random.Random):
    """Overrides getrandbits: the bits of each draw in reverse order."""

    def getrandbits(self, k):
        return int(format(super().getrandbits(k), f"0{k}b")[::-1], 2) if k else 0


def check_draws(rng, q, counts):
    for count in counts:
        state = rng.getstate()
        twin = type(rng)()
        twin.setstate(state)
        got = _draw_symbols(rng, q, count, state)
        assert got.dtype == np.intp and got.shape == (count,)
        assert got.tolist() == [twin.randrange(q) for _ in range(count)], (q, count)
        assert rng.getstate() == twin.getstate(), (q, count)
        assert rng.random() == twin.random(), (q, count)


@pytest.mark.parametrize("q", SIZES)
def test_bulk_draws_are_the_randrange_loop(q):
    check_draws(random.Random(q), q, range(501))


@pytest.mark.parametrize("q", [1, 3, 5, 9, 27, 2**16 + 1])
def test_bulk_draws_that_need_more_words_than_the_first_block(q, monkeypatch):
    # with no spare words a block often falls short of the symbols asked
    monkeypatch.setattr(code_module, "_DRAW_SPARE", 0)
    check_draws(random.Random(-q), q, range(1, 80))


@pytest.mark.parametrize("cls", [Squared, Reversed], ids=lambda c: c.__name__)
@pytest.mark.parametrize("q", [2, 9, 256])
def test_a_generator_that_draws_otherwise_keeps_its_own_stream(cls, q):
    check_draws(cls(7), q, [0, 1, 2, 50, 301])


def test_a_plain_generator_makes_no_randrange_call(example_code):
    sf = syndrome_former(example_code)
    rng, ref_rng = random.Random(5), random.Random(5)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is random.Random.randrange.__code__:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        got = verify_duality(example_code, sf, rng=rng)
    finally:
        sys.setprofile(None)
    assert got is reference.verify_duality(example_code, sf, rng=ref_rng) is True
    assert calls == []
    assert rng.getstate() == ref_rng.getstate()


def test_a_randrange_set_on_the_instance_is_used(example_code):
    sf = syndrome_former(example_code)
    rng, ref_rng = random.Random(5), random.Random(5)
    calls = []
    randrange = rng.randrange

    def spy(*args):
        calls.append(args)
        return randrange(*args)

    rng.randrange = spy
    got = verify_duality(example_code, sf, rng=rng)
    assert got is reference.verify_duality(example_code, sf, rng=ref_rng) is True
    assert len(calls) > 0 and all(args == (example_code.field.size,) for args in calls)
    assert rng.getstate() == ref_rng.getstate()
    for q in (2, 9, 256):
        check_draws(rng, q, [0, 1, 40])


@pytest.mark.parametrize("fails", [False, True], ids=["passing", "failing"])
def test_the_random_module_is_drawn_symbol_by_symbol(example_code, fails, monkeypatch):
    sf = syndrome_former(example_code)
    if fails:
        # a perturbed generator window fails the orthogonality phase
        scalar_generator = SkewConvCode.scalar_generator

        def perturbed(self, t_rows):
            window = scalar_generator(self, t_rows)
            window[-1, -1] = (window[-1, -1] + 1) % self.field.size
            return window

        monkeypatch.setattr(SkewConvCode, "scalar_generator", perturbed)
    saved = random.getstate()
    try:
        random.seed(11)
        got = verify_duality(example_code, sf, rng=random)
        state = random.getstate()
        random.seed(11)
        assert got is reference.verify_duality(example_code, sf, rng=random) is not fails
        assert state == random.getstate()
    finally:
        random.setstate(saved)


# The interpreter's draws that `_draw_symbols` and `analysis._read_draws`
# read off the generator's words.  If an interpreter changes any of them,
# these fail by name rather than the committed simulation counts moving.


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
    assert got[0].dtype == np.intp and got[1].dtype == bool
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
    monkeypatch.setattr(code_module, "_DRAW_SPARE", 0)
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
    width = code_module._block_words(4 * 2 + 18 * (2 + 0.05 * 4 / 3))
    monkeypatch.setattr(analysis, "PARSE_WORDS", 3 * width)
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

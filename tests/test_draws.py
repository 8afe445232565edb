"""The bulk symbol draws of `verify_duality` against a loop of
`randrange`: the same symbols and the generator left in the same state."""

import random
import sys

import numpy as np
import pytest

from skewconv import code as code_module, syndrome_former, verify_duality
from skewconv.code import SkewConvCode, _draw_symbols

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

        def perturbed(self, t_rows, form="standard"):
            window = scalar_generator(self, t_rows, form)
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

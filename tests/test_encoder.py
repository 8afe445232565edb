"""The array encoder against the per-symbol reference encoder and the
module product of `SkewPolyMatrix`, its input checks, its time chunks and
its memory, and its linearity on random pairs; and the analysis checks built
on it against their references: `verify_duality` and `f_matmul` per word,
generator state included, and `linearity_report`'s witness sweep per input,
the generator left untouched."""

import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import code_reference as reference
from skewconv import (
    FiniteField,
    Sequence,
    SkewConvCode,
    SkewPolyMatrix,
    SkewTrellisCode,
    SyndromeFormer,
    linalg as linalg_module,
    linearity_report,
    load_code,
    syndrome_former,
    verify_duality,
)
from skewconv.linalg import f_matmul

from conftest import EXAMPLE_TABLE
from test_trellis_fast_paths import random_code

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite"
SPECS = sorted(p for p in SUITE.glob("*.json") if p.stem != "expected")

GF2 = FiniteField(2, 1)
GF4 = FiniteField(2, 2, [1, 1, 1], theta_r=1)
GF4_ID = FiniteField(2, 2, [1, 1, 1], theta_r=0)
GF8 = FiniteField(2, 3, [1, 1, 0, 1], theta_r=1)
GF9 = FiniteField(3, 2, [2, 2, 1], theta_r=1)
GF16 = FiniteField(2, 4, [1, 1, 0, 0, 1], theta_r=1)
GF27 = FiniteField(3, 3, [1, 2, 0, 1], theta_r=2)


def draw_codes():
    rng = random.Random(1111)
    codes = []
    for fname, field in (
        ("gf2", GF2),
        ("gf4", GF4),
        ("gf4-id", GF4_ID),
        ("gf8", GF8),
        ("gf9", GF9),
        ("gf16", GF16),
        ("gf27", GF27),
    ):
        for cls in (SkewConvCode, SkewTrellisCode):
            side = cls.module_side
            codes.append((f"{fname}-{side}", random_code(cls, field, rng, [2])))
            codes.append((f"{fname}-k2-{side}", random_code(cls, field, rng, [1, 2], n=3)))
            codes.append((f"{fname}-memory0-{side}", random_code(cls, field, rng, [0, 0], n=3)))
    codes.append(("worked", SkewConvCode(SkewPolyMatrix.from_ints(GF4, EXAMPLE_TABLE))))
    codes += [(path.stem, load_code(path)) for path in SPECS]
    return codes


CODES = dict(draw_codes())


def test_the_code_set_covers_the_cases():
    assert {code.field.size for code in CODES.values()} >= {2, 4, 8, 9, 16}
    for side in ("left", "right"):
        codes = [code for code in CODES.values() if code.module_side == side]
        assert {code.k for code in codes} == {1, 2}
        assert min(code.memory for code in codes) == 0
    assert any(c.field.theta_r == 0 and c.field.n > 1 for c in CODES.values())


def random_inputs(code, rng, frames, blocks):
    return np.array(
        [[[rng.randrange(code.field.size) for _ in range(code.k)] for _ in range(blocks)]
         for _ in range(frames)],
        dtype=np.intp,
    ).reshape(frames, blocks, code.k)


@pytest.mark.parametrize("name", list(CODES))
def test_encode_batch_matches_the_per_symbol_encoder(name):
    code = CODES[name]
    rng = random.Random(2222)
    for blocks in (0, 1, 3, 7):
        u = random_inputs(code, rng, 5, blocks)
        for terminate in (False, True):
            got = code.encode_batch(u, terminate)
            tail = code.memory if terminate else 0
            assert got.shape == (5, blocks + tail, code.n)
            assert np.issubdtype(got.dtype, np.integer)
            for frame, v in zip(u, got):
                want = reference.encode(code, frame.tolist(), terminate)
                assert np.array_equal(v, np.array(want.to_ints(), dtype=np.intp).reshape(-1, code.n))
                seq = code.encode(frame.tolist(), terminate)
                assert seq == want and seq.width == code.n
                assert all(type(s) is int for block in seq.to_ints() for s in block)


@pytest.mark.parametrize("name", ["gf4-left", "gf9-k2-right", "gf16-memory0-left"])
def test_encode_takes_elements_and_sequences(name):
    code = CODES[name]
    f = code.field
    rng = random.Random(3333)
    blocks = [[rng.randrange(f.size) for _ in range(code.k)] for _ in range(5)]
    want = reference.encode(code, blocks, terminate=True)
    elements = [[f(s) for s in block] for block in blocks]
    assert code.encode(elements, terminate=True) == want
    assert code.encode(Sequence(f, blocks, width=code.k), terminate=True) == want
    if code.k == 1:
        assert code.encode([f(b[0]) for b in blocks], terminate=True) == want
        assert code.encode([b[0] for b in blocks], terminate=True) == want
        assert code.encode(np.array([b[0] for b in blocks]), terminate=True) == want
    empty = code.encode(Sequence(f, []), terminate=False)
    assert len(empty) == 0 and empty.width == code.n
    assert code.encode([], terminate=True).to_ints() == [(0,) * code.n] * code.memory


def test_encode_rejects_bad_inputs_with_the_sequence_messages():
    code = CODES["worked"]
    with pytest.raises(ValueError, match=r"^block 1: symbol 4 outside \[0, 4\)$"):
        code.encode([[1], [4]])
    with pytest.raises(ValueError, match=r"^block 0 has length 2, expected 1$"):
        code.encode([[1, 2]])
    with pytest.raises(ValueError, match=r"^blocks have length 2, expected 1$"):
        code.encode(Sequence(GF4, [[1, 2]]))
    with pytest.raises(ValueError, match=r"^mixed-field operands$"):
        code.encode([[GF4_ID(1)]])
    with pytest.raises(ValueError, match=r"^mixed-field operands$"):
        code.encode(Sequence(GF4_ID, [[1]]))


@st.composite
def codes_and_batches(draw):
    """A code over GF(2) to GF(27), either module side, k = 1 or 2, memory
    0 to 3, and a batch of 0 to 7 frames of 1 to 6 blocks."""
    field = draw(st.sampled_from([GF2, GF4, GF4_ID, GF8, GF9, GF16, GF27]))
    cls = draw(st.sampled_from([SkewConvCode, SkewTrellisCode]))
    k, memory = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    n = draw(st.integers(k, 3))
    symbols = st.integers(0, field.size - 1)
    g = np.array(draw(st.lists(symbols, min_size=(memory + 1) * k * n, max_size=(memory + 1) * k * n)))
    g = g.reshape(memory + 1, k, n)
    g[memory, 0, 0] = draw(st.integers(1, field.size - 1))
    frames, blocks = draw(st.sampled_from([0, 1, 2, 7])), draw(st.integers(1, 6))
    u = np.array(draw(st.lists(symbols, min_size=frames * blocks * k, max_size=frames * blocks * k)))
    code = cls(SkewPolyMatrix.from_coefficients(field, g), validate=False)
    return code, u.reshape(frames, blocks, k).astype(np.intp)


@settings(max_examples=300, deadline=None)
@given(case=codes_and_batches())
def test_the_encoder_is_the_module_product(case):
    # u G for a left-module code and G^T u^T for a right-module one, u the
    # frames x k polynomial matrix of the batch
    code, u = case
    frames, blocks, _ = u.shape
    v = code.encode_batch(u, terminate=True)
    assert v.shape == (frames, blocks + code.memory, code.n)
    assert np.array_equal(code.encode_batch(u), v[:, :blocks])
    if not frames:
        return
    info = SkewPolyMatrix.from_coefficients(code.field, u.transpose(1, 0, 2))
    if code.module_side == "left":
        product = (info @ code.generator).coefficients
    else:
        product = (code.generator.transpose() @ info.transpose()).coefficients.transpose(0, 2, 1)
    want = np.zeros((blocks + code.memory, frames, code.n), dtype=np.intp)
    want[: len(product)] = product
    assert np.array_equal(v, want.transpose(1, 0, 2))


def test_encode_batch_validates_its_input():
    code = CODES["gf9-k2-left"]
    for bad in (np.zeros((2, 3), dtype=int), np.zeros((1, 3, 3), dtype=int)):
        with pytest.raises(ValueError, match="shape"):
            code.encode_batch(bad)
    with pytest.raises(ValueError, match="outside"):
        code.encode_batch(np.full((1, 2, 2), 9))
    with pytest.raises(ValueError, match="outside"):
        code.encode_batch(np.full((1, 2, 2), -1))
    with pytest.raises(ValueError, match="integers"):
        code.encode_batch(np.full((1, 2, 2), 1.0))
    assert code.encode_batch(np.zeros((0, 4, 2)), terminate=True).shape == (0, 4 + code.memory, 3)


@pytest.mark.parametrize("chunk", [1, 7, 40])
@pytest.mark.parametrize("name", ["gf9-right", "gf27-k2-left", "gf4-memory0-right", "gf16_m2"])
def test_time_chunks_overlap_by_the_memory(name, chunk, monkeypatch):
    code = CODES[name]
    rng = random.Random(4444)
    u = random_inputs(code, rng, 3, 11)
    want = code.encode_batch(u, terminate=True)
    monkeypatch.setattr(linalg_module, "PRODUCT_TERMS", chunk)
    assert np.array_equal(code.encode_batch(u, terminate=True), want)
    assert np.array_equal(code.encode_batch(u, terminate=False), want[:, :11])
    for frame, v in zip(u, want):
        assert reference.encode(code, frame.tolist(), True).to_ints() == [tuple(b) for b in v.tolist()]


def test_memory_does_not_grow_with_the_field():
    # a full table of products per phase, delay, row and symbol would take
    # 4 x 3 x 65536 x 2 entries here, 12 MiB
    field = FiniteField(2, 16, theta_r=3)
    code = SkewTrellisCode(SkewPolyMatrix.from_ints(field, [[[1, 2, 3], [5, 7, 40000]]]))
    u = random_inputs(code, random.Random(5555), 4, 6)
    code.encode_batch(u, terminate=True)  # the per-code tables
    tracemalloc.start()
    try:
        got = code.encode_batch(u, terminate=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    for frame, v in zip(u, got):
        assert reference.encode(code, frame.tolist(), True).to_ints() == [tuple(b) for b in v.tolist()]


def test_a_long_input_is_encoded_in_bounded_memory():
    code = CODES["gf9-k2-right"]
    blocks = 8 * linalg_module.PRODUCT_TERMS
    u = np.broadcast_to(np.array([1, 2], dtype=np.intp), (1, blocks, 2))
    tracemalloc.start()
    try:
        v = code.encode_batch(u, terminate=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output itself is blocks x 3 words; a chunk's temporaries are a few
    # times PRODUCT_TERMS words
    assert peak < v.nbytes + 64 * linalg_module.PRODUCT_TERMS
    assert np.array_equal(v[0, 5 : 9], code.encode_batch(u[:, :9])[0, 5:9])


# -- the analysis checks on top of the encoder --------------------------------


def non_additive(monkeypatch):
    """Replace the encoder by one that cubes output symbol 0: zero stays zero,
    so zero-padded inputs still encode to zero-padded codewords."""
    encode_batch = SkewConvCode.encode_batch

    def cubed(self, u, terminate=False):
        v = encode_batch(self, u, terminate).copy()
        f = self.field
        v[..., 0] = f.mul(f.mul(v[..., 0], v[..., 0]), v[..., 0])
        return v

    monkeypatch.setattr(SkewConvCode, "encode_batch", cubed)


def perturb_the_generator_window(monkeypatch):
    """Change the last symbol of every scalar generator window."""
    scalar_generator = SkewConvCode.scalar_generator

    def perturbed(self, t_rows):
        window = scalar_generator(self, t_rows)
        window[-1, -1] = (window[-1, -1] + 1) % self.field.size
        return window

    monkeypatch.setattr(SkewConvCode, "scalar_generator", perturbed)


def left_codes_with_duals():
    for name, code in CODES.items():
        if code.module_side == "left" and code.k < code.n:
            yield name, code, syndrome_former(code)


DUALS = list(left_codes_with_duals())


@pytest.mark.parametrize("patched", [False, True], ids=["plain", "non-additive"])
def test_verify_duality_matches_the_per_word_check(patched, monkeypatch):
    if patched:
        non_additive(monkeypatch)
    results = []
    for name, code, sf in DUALS:
        for seed in (0, 9):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = verify_duality(code, sf, rng=rng)
            assert got is reference.verify_duality(code, sf, rng=ref_rng), name
            assert rng.getstate() == ref_rng.getstate(), name
            results.append(got)
    assert set(results) == ({True, False} if patched else {True})


def test_verify_duality_orthogonality_failures_match(monkeypatch):
    # every codeword still has a zero syndrome, but some random pairs are no
    # longer orthogonal
    perturb_the_generator_window(monkeypatch)
    results = []
    for name, code, sf in DUALS:
        rng, ref_rng = random.Random(1), random.Random(1)
        got = verify_duality(code, sf, rng=rng)
        assert got is reference.verify_duality(code, sf, rng=ref_rng), name
        assert rng.getstate() == ref_rng.getstate(), name
        results.append(got)
    assert False in results


@pytest.mark.parametrize("fails", [False, True], ids=["passing", "failing"])
def test_the_random_module_serves_as_the_generator(fails, monkeypatch):
    # the module's own generator draws its blocks by the module's randbytes
    if fails:
        # it fails the orthogonality phase
        perturb_the_generator_window(monkeypatch)
    code = CODES["worked"]
    sf = syndrome_former(code)
    saved = random.getstate()
    try:
        random.seed(11)
        got = verify_duality(code, sf, rng=random)
        state = random.getstate()
        random.seed(11)
        assert got is reference.verify_duality(code, sf, rng=random) is not fails
        assert state == random.getstate()
    finally:
        random.setstate(saved)


class CountingRandom(random.Random):
    """A generator that counts the blocks drawn by its randbytes."""

    blocks = 0

    def randbytes(self, n):
        self.blocks += 1
        return super().randbytes(n)


def perturbed_check(sf):
    """sf's H(D) with 1 added to the constant term of its first entry."""
    field = sf.field
    table = sf.check.to_ints()
    cell = table[0][0]
    cell[:1] = [(cell[0] + 1) % field.size] if cell else [1]
    return SkewPolyMatrix.from_ints(field, table)


def test_a_failing_duality_check_leaves_the_generator_as_the_per_word_check(monkeypatch):
    # a former validated for the code skips the product; its window is
    # replaced by that of a perturbed H, which only the random words see
    results = []
    for name, code, sf in DUALS:
        sf = SyndromeFormer(code, sf.check)
        bad = SyndromeFormer(code, perturbed_check(sf), validate=False)
        monkeypatch.setattr(sf, "ht_window", bad.ht_window)
        for seed, num_words in ((0, 20), (1, 20), (2, 1), (3, 3)):
            rng, ref_rng = CountingRandom(seed), random.Random(seed)
            got = verify_duality(code, sf, num_words=num_words, rng=rng)
            assert got is reference.verify_duality(code, sf, num_words=num_words, rng=ref_rng)
            assert rng.getstate() == ref_rng.getstate(), name
            # one block of draws per random phase the check reached
            assert rng.blocks == (1 if got is False else 2), name
            results.append(got)
    assert results.count(False) > len(DUALS)


@pytest.mark.parametrize("phase", [1, 2], ids=["syndrome", "orthogonality"])
@pytest.mark.parametrize("q", [2, 4, 9, 16, 27])
def test_a_check_failing_in_either_phase_leaves_the_generator_as_the_per_word_check(
    q, phase, monkeypatch
):
    # phase 1 sees the window of a perturbed H; phase 2 a perturbed
    # generator window, under which every codeword still has a zero syndrome
    if phase == 2:
        perturb_the_generator_window(monkeypatch)
    failed_there = 0
    for name, code, sf in DUALS:
        if code.field.size != q:
            continue
        if phase == 1:
            sf = SyndromeFormer(code, sf.check)
            bad = SyndromeFormer(code, perturbed_check(sf), validate=False)
            monkeypatch.setattr(sf, "ht_window", bad.ht_window)
        for seed, num_words in ((0, 20), (1, 20), (2, 1), (3, 3), (4, 60)):
            rng, ref_rng = CountingRandom(seed), random.Random(seed)
            got = verify_duality(code, sf, num_words=num_words, rng=rng)
            phases = rng.blocks
            assert got is reference.verify_duality(code, sf, num_words=num_words, rng=ref_rng)
            assert rng.getstate() == ref_rng.getstate(), name
            assert rng.random() == ref_rng.random(), name
            failed_there += got is False and phases == phase
    assert failed_there >= 2


# -- the encoder's linearity on random pairs ----------------------------------


def first_failure(code, rng, scales, max_len=3):
    """The encoder's linearity test on random pairs: the index of the first
    pair (u1, u2) with encode(c u1 + u2) != c encode(u1) + encode(u2), one
    pair of 1 to max_len blocks for each scale c, or None."""
    field, k = code.field, code.k

    def word(length):
        blocks = [[rng.randrange(field.size) for _ in range(k)] for _ in range(length)]
        return Sequence(field, blocks, width=k)

    for i, c in enumerate(scales):
        length = rng.randrange(1, max_len + 1)
        u1, u2 = word(length), word(length)
        lhs = code.encode(u1.scale(c) + u2, terminate=True)
        rhs = code.encode(u1, terminate=True).scale(c) + code.encode(u2, terminate=True)
        if lhs != rhs:
            return i
    return None


@pytest.mark.parametrize("patched", [False, True], ids=["plain", "non-additive"])
def test_the_encoder_is_linear_over_the_fixed_subfield_on_random_pairs(patched, monkeypatch):
    # every code, GF(2) to GF(27), k = 1 and 2, both module sides: additive,
    # and homogeneous over the fixed subfield of theta, as `linearity_report`
    # states without testing; a non-additive encoder fails both
    if patched:
        non_additive(monkeypatch)
    outcomes = set()
    for name, code in CODES.items():
        rng = random.Random(name)
        additive = first_failure(code, rng, [1] * 12) is None
        homogeneous = first_failure(code, rng, code.field.fixed_subfield() * 3, max_len=4) is None
        outcomes.add((additive, homogeneous))
    assert outcomes == ({(True, True), (False, False)} if patched else {(True, True)})


def test_full_field_scales_fail_only_right_module_codes_with_memory():
    # u G is linear over the whole field; G u with memory and theta != id
    # only over the fixed subfield, so a scale outside it fails
    failing = set()
    for name, code in CODES.items():
        field = code.field
        scales = [c for c in range(2, field.size) if c not in field.fixed_subfield()] * 10
        failed = first_failure(code, random.Random(name), scales) is not None
        assert failed is (code.module_side == "right" and bool(code.memory) and bool(scales)), name
        if failed:
            failing.add(code.k)
    assert failing == {1, 2}


def test_only_homogeneity_fails_a_squared_encoder_on_random_pairs(monkeypatch):
    # squaring is additive in characteristic 2 but not linear over GF(4),
    # the fixed subfield of theta(a) = a^4 in GF(16)
    encode_batch = SkewConvCode.encode_batch

    def squared(self, u, terminate=False):
        return self.field.mul(*[encode_batch(self, u, terminate)] * 2)

    monkeypatch.setattr(SkewConvCode, "encode_batch", squared)
    field = FiniteField(2, 4, [1, 1, 0, 0, 1], theta_r=2)
    code = random_code(SkewTrellisCode, field, random.Random(6666), [1])
    rng = random.Random(3)
    fixed = field.fixed_subfield()
    assert len(fixed) == 4
    assert first_failure(code, rng, [1] * 50) is None
    assert first_failure(code, rng, fixed * 11) is not None


# -- the linearity report -----------------------------------------------------


def witness_ints(witness):
    if witness is None:
        return None
    return witness[0], witness[1], witness[2].to_ints(), witness[3].to_ints()


def report_tuple(rep):
    if rep.witness is not None:
        _, u, lhs, rhs = rep.witness
        assert type(lhs) is Sequence and type(rhs) is Sequence
        assert all(type(block) is tuple for block in u)
    return rep.fixed_subfield, rep.additive_ok, rep.subfield_homogeneous, witness_ints(rep.witness)


def check_linearity_report(code, **kwargs):
    """The report is the per-input reference's, and its generator is left
    as it was."""
    rng = random.Random(5)
    state = rng.getstate()
    got = report_tuple(linearity_report(code, rng=rng, **kwargs))
    want = reference.linearity_report(code, **kwargs)
    assert got == want[:3] + (witness_ints(want[3]),)
    assert rng.getstate() == state
    return got


def test_linearity_report_matches_the_per_input_sweep():
    outcomes = set()
    for name, code in CODES.items():
        if code.field.size**code.k > 16:
            continue  # the reference sweeps q^(2k) words one at a time
        for kwargs in ({}, {"witness_len": 1}):
            _, additive, homogeneous, witness = check_linearity_report(code, **kwargs)
            outcomes.add((additive, homogeneous, witness is None))
    assert outcomes == {(True, True, True), (True, True, False)}


# each field from GF(2) to GF(27) under every theta
EVERY_THETA = [
    FiniteField(f.p, f.n, f.modulus, theta_r=r)
    for f in (GF2, GF4, GF8, GF9, GF16, GF27)
    for r in range(f.n)
]
SWEEP_WORDS = 800  # the most (q - 1) q^(k witness_len) inputs the reference encodes


@st.composite
def swept_codes(draw):
    """A code of either module side, k = 1 or 2, memory 0 to 2, and a
    witness_len of 0 to 3 within SWEEP_WORDS inputs.  Half the codes have
    coefficients only at delays = 0 mod the order of theta, so the
    reference sweeps every input; in the others the first rows may have
    too, so the witness row need not be row 0."""
    field = draw(st.sampled_from(EVERY_THETA))
    q, order = field.size, field.automorphism_order
    k = draw(st.integers(1, 2))
    memory = draw(st.integers(0, 2))
    fixed_rows = k if draw(st.booleans()) else draw(st.integers(0, k - 1))
    rng = random.Random(draw(st.integers(0, 2**32)))  # uniform symbols, not mostly 0
    table = [
        [
            [0 if r < fixed_rows and i % order else rng.randrange(q) for i in range(memory + 1)]
            for _ in range(k + 1)
        ]
        for r in range(k)
    ]
    cls = draw(st.sampled_from([SkewConvCode, SkewTrellisCode]))
    try:
        code = cls(SkewPolyMatrix.from_ints(field, table))
    except ValueError:
        assume(False)  # a zero or rank-deficient generator is no code
    longest = max(w for w in range(4) if (q - 1) * q ** (k * w) <= SWEEP_WORDS)
    return code, longest - draw(st.integers(0, longest))  # the longest first


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=swept_codes())
def test_linearity_report_matches_the_per_input_sweep_on_drawn_codes(case):
    code, witness_len = case
    check_linearity_report(code, witness_len=witness_len)


def test_linearity_report_draws_nothing_and_gives_the_committed_report():
    expected = json.loads((SUITE / "expected.json").read_text(encoding="utf-8"))["analyze"]
    names = [name for name, entry in expected.items() if "linearity" in entry]
    assert names
    keys = ("fixed_subfield", "additive_ok", "subfield_homogeneous", "witness")
    for name in names:
        rng = random.Random(name)
        state = rng.getstate()
        got = report_tuple(linearity_report(CODES[name], rng=rng))
        assert rng.getstate() == state
        assert json.loads(json.dumps(got)) == [expected[name]["linearity"][key] for key in keys]
        assert report_tuple(linearity_report(CODES[name], rng=object())) == got


@pytest.mark.parametrize("field", [GF2, GF4, GF9, GF16, GF27], ids=lambda f: f"q{f.size}")
def test_f_matmul_matches_the_scalar_product(field, monkeypatch):
    rng = random.Random(field.size)
    for rows, inner, cols in ((1, 1, 1), (3, 5, 4), (7, 2, 9), (0, 3, 2), (2, 0, 3), (4, 3, 0)):
        a = [[rng.randrange(field.size) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randrange(field.size) for _ in range(cols)] for _ in range(inner)]
        a = np.array(a, dtype=np.int64).reshape(rows, inner)
        b = np.array(b, dtype=np.int64).reshape(inner, cols)
        want = reference.f_matmul(field, a, b)
        got = f_matmul(field, a, b)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    monkeypatch.setattr(linalg_module, "PRODUCT_TERMS", 5)
    a = np.array([[rng.randrange(field.size) for _ in range(4)] for _ in range(6)])
    b = np.array([[rng.randrange(field.size) for _ in range(3)] for _ in range(4)])
    assert np.array_equal(f_matmul(field, a, b), reference.f_matmul(field, a, b))
    with pytest.raises(ValueError, match="shape"):
        f_matmul(field, np.zeros((2, 3)), np.zeros((2, 3)))

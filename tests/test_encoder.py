"""The array encoder against the per-symbol reference encoder, its input
checks, its time chunks and its memory; and the analysis checks built on it
(`verify_duality`, `linearity_report`, `f_matmul`) against their per-word
references, generator state included."""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import code_reference as reference
from skewconv import (
    FiniteField,
    Sequence,
    SkewConvCode,
    SkewPolyMatrix,
    SkewTrellisCode,
    SyndromeFormer,
    code as code_module,
    linearity_report,
    skewtrellis as skewtrellis_module,
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
    monkeypatch.setattr(code_module, "ENCODE_CHUNK", chunk)
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
    blocks = 8 * code_module.ENCODE_CHUNK
    u = np.broadcast_to(np.array([1, 2], dtype=np.intp), (1, blocks, 2))
    tracemalloc.start()
    try:
        v = code.encode_batch(u, terminate=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output itself is blocks x 3 words; a chunk's temporaries are a few
    # times ENCODE_CHUNK words
    assert peak < v.nbytes + 64 * code_module.ENCODE_CHUNK
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


def left_codes_with_duals():
    for name, code in CODES.items():
        if code.module_side == "left" and code.k < code.n and code.field.size <= 16:
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
    # a generator window with one symbol changed: every codeword still has a
    # zero syndrome, but some random pairs are no longer orthogonal
    scalar_generator = SkewConvCode.scalar_generator

    def perturbed(self, t_rows):
        window = scalar_generator(self, t_rows)
        window[-1, -1] = (window[-1, -1] + 1) % self.field.size
        return window

    monkeypatch.setattr(SkewConvCode, "scalar_generator", perturbed)
    results = []
    for name, code, sf in DUALS:
        rng, ref_rng = random.Random(1), random.Random(1)
        got = verify_duality(code, sf, rng=rng)
        assert got is reference.verify_duality(code, sf, rng=ref_rng), name
        assert rng.getstate() == ref_rng.getstate(), name
        results.append(got)
    assert False in results


class CountingRandom(random.Random):
    """A generator that counts the calls of its getstate."""

    getstates = 0

    def getstate(self):
        self.getstates += 1
        return super().getstate()


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
            getstates = rng.getstates
            assert got is reference.verify_duality(code, sf, num_words=num_words, rng=ref_rng)
            assert rng.getstate() == ref_rng.getstate(), name
            # one saved state per random phase the check reached
            assert getstates == (1 if got is False else 2), name
            results.append(got)
    assert results.count(False) > len(DUALS)


@pytest.mark.parametrize("phase", [1, 2], ids=["syndrome", "orthogonality"])
@pytest.mark.parametrize("q", [2, 4, 9, 16])
def test_a_check_failing_in_either_phase_leaves_the_generator_as_the_per_word_check(
    q, phase, monkeypatch
):
    # phase 1 sees the window of a perturbed H; phase 2 a perturbed
    # generator window, under which every codeword still has a zero syndrome
    if phase == 2:
        scalar_generator = SkewConvCode.scalar_generator

        def perturbed(self, t_rows):
            window = scalar_generator(self, t_rows)
            window[-1, -1] = (window[-1, -1] + 1) % self.field.size
            return window

        monkeypatch.setattr(SkewConvCode, "scalar_generator", perturbed)
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
            phases = rng.getstates
            assert got is reference.verify_duality(code, sf, num_words=num_words, rng=ref_rng)
            assert rng.getstate() == ref_rng.getstate(), name
            assert rng.random() == ref_rng.random(), name
            failed_there += got is False and phases == phase
    assert failed_there >= 2


def test_a_failing_linearity_check_leaves_the_generator_as_the_per_pair_check():
    # a right-module code with memory is linear over the fixed subfield
    # only: a scale outside it fails at the first pair whose u1 has a
    # symbol outside it
    failures = set()
    for name, code in CODES.items():
        field = code.field
        if code.module_side != "right" or field.automorphism_order == 1 or not code.memory:
            continue
        outside = [c for c in range(2, field.size) if c not in field.fixed_subfield()]
        scales = [1, outside[0]] * 10
        for seed in range(6):
            rng, ref_rng = CountingRandom(seed), random.Random(seed)
            got = skewtrellis_module._first_failure(code, rng, scales, 3)
            assert rng.getstates == 1, name
            assert got == reference.first_failure(code, ref_rng, scales, 3), name
            assert rng.getstate() == ref_rng.getstate(), name
            failures.add(got)
    assert None not in failures and len(failures) > 1


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


def check_linearity_report(code, seed, **kwargs):
    """The report and the generator after it are the per-pair reference's."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = report_tuple(linearity_report(code, rng=rng, **kwargs))
    want = reference.linearity_report(code, rng=ref_rng, **kwargs)
    assert got == want[:3] + (witness_ints(want[3]),)
    assert rng.getstate() == ref_rng.getstate()
    return got


@pytest.mark.parametrize("patched", [False, True], ids=["plain", "non-additive"])
def test_linearity_report_matches_the_per_pair_checks(patched, monkeypatch):
    if patched:
        non_additive(monkeypatch)
    outcomes = set()
    for name, code in CODES.items():
        if code.field.size**code.k > 16:
            continue  # the reference sweeps q^(2k) words one at a time
        for seed, kwargs in ((0, {}), (6, {"pairs": 7, "max_len": 5, "witness_len": 1})):
            _, additive, homogeneous, witness = check_linearity_report(code, seed, **kwargs)
            outcomes.add((additive, homogeneous, witness is None))
    if patched:
        assert {(False, False, True), (False, False, False)} <= outcomes
    else:
        assert outcomes == {(True, True, True), (True, True, False)}


def test_linearity_report_when_only_homogeneity_fails(monkeypatch):
    # squaring is additive in characteristic 2 but not linear over GF(4),
    # the fixed subfield of theta(a) = a^4 in GF(16)
    encode_batch = SkewConvCode.encode_batch

    def squared(self, u, terminate=False):
        return self.field.mul(*[encode_batch(self, u, terminate)] * 2)

    monkeypatch.setattr(SkewConvCode, "encode_batch", squared)
    field = FiniteField(2, 4, [1, 1, 0, 0, 1], theta_r=2)
    code = random_code(SkewTrellisCode, field, random.Random(6666), [1])
    fixed, additive, homogeneous, _ = check_linearity_report(code, 3)
    assert len(fixed) == 4 and additive and not homogeneous


def test_the_witness_sweep_runs_in_chunks(monkeypatch):
    code = CODES["gf4-k2-right"]
    want = check_linearity_report(code, 4, pairs=2)
    assert want[3] is not None
    # one word a chunk, the first the all-zero word; the encoder one block at
    # a time
    monkeypatch.setattr(code_module, "ENCODE_CHUNK", 1)
    monkeypatch.setattr(skewtrellis_module, "ENCODE_CHUNK", (2 + code.memory) * code.n)
    assert check_linearity_report(code, 4, pairs=2) == want


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
    import skewconv.linalg as linalg_module

    monkeypatch.setattr(linalg_module, "_MATMUL_TERMS", 5)
    a = np.array([[rng.randrange(field.size) for _ in range(4)] for _ in range(6)])
    b = np.array([[rng.randrange(field.size) for _ in range(3)] for _ in range(4)])
    assert np.array_equal(f_matmul(field, a, b), reference.f_matmul(field, a, b))
    with pytest.raises(ValueError, match="shape"):
        f_matmul(field, np.zeros((2, 3)), np.zeros((2, 3)))

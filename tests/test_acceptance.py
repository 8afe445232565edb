"""End-to-end acceptance checks for the worked [2, 1] code over GF(4) and its
surrounding machinery.  Each test prints one pass/fail line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import functools
import itertools
import json
import random
import time

import numpy as np
import pytest

from skewconv import (
    FiniteField,
    Sequence,
    SkewConvCode,
    SkewPoly,
    SkewPolyMatrix,
    SkewTrellisCode,
    QSChannel,
    bcjr,
    build_trellis_right,
    is_catastrophic,
    linearity_report,
    run_simulation,
    syndrome_former,
    unit_memory_bounds,
    viterbi,
)
from skewconv.linalg import f_matmul, f_rref
from skewconv.trellis import build_trellis

import code_reference
from conftest import A, A2, EXAMPLE_TABLE, make_code


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL - {desc}")
                raise
            print(f"criterion {num:2d} PASS - {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def trellis(example_code):
    return build_trellis(example_code)


@pytest.fixture(scope="module")
def trellis_id(example_code_id):
    return build_trellis(example_code_id)


@criterion(1, "worked-example codeword, exact, < 1 ms")
def test_criterion_01_worked_codeword(example_code):
    u = [[1], [0], [0], [1]]
    example_code.encode(u, terminate=True)  # warm the phase cache
    t0 = time.perf_counter()
    v = example_code.encode(u, terminate=True)
    elapsed = time.perf_counter() - t0
    assert v.to_ints() == [(1, A), (A, A2), (0, 0), (1, A2), (A2, A)]
    assert elapsed < 1e-3


@criterion(2, "scalar generator window and equivalent form, exact, < 1 s")
def test_criterion_02_scalar_window(example_code, f4):
    t0 = time.perf_counter()
    window = example_code.scalar_generator(4)
    expected = np.array(
        [
            [1, A, A, A2, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, A2, A2, A, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, A, A, A2, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, A2, A2, A],
        ]
    )
    assert (window == expected).all()
    tilde = code_reference.scalar_generator(example_code, 4, form="tilde")
    r1, p1 = f_rref(f4, window)
    r2, p2 = f_rref(f4, tilde)
    assert p1 == p2 and (r1 == r2).all()
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "burst distances ell+2, d_free 4, slope 1, bounds met with equality, < 1 s")
def test_criterion_03_distances(example_code, trellis):
    t0 = time.perf_counter()
    for ell in range(2, 11):
        assert trellis.active_burst_distance(ell) == ell + 2
    fd = trellis.free_distance()
    assert fd.value == 4 and fd.stabilized
    slope = trellis.slope()
    assert slope == 1
    bounds = unit_memory_bounds(example_code)
    assert fd.value == bounds.d_free_bound == 2 * example_code.n - example_code.k + 1
    assert slope == bounds.slope_bound == example_code.n - example_code.k
    assert time.perf_counter() - t0 < 1.0


@criterion(4, "catastrophicity flips with the automorphism; d_free drops to 2")
def test_criterion_04_catastrophicity_flip(example_code, example_code_id, trellis_id):
    assert is_catastrophic(example_code).catastrophic is False
    assert is_catastrophic(example_code_id).catastrophic is True
    assert trellis_id.free_distance().value == 2


@criterion(5, "syndrome former matches the reference up to a right unit; products vanish, < 1 s")
def test_criterion_05_dual(example_code, f4):
    t0 = time.perf_counter()
    sf = syndrome_former(example_code)
    assert sf.dual_memory == 1
    reference = [SkewPoly(f4, [A, 1]), SkewPoly(f4, [1, A])]
    found = sf.check.entries[0]
    assert any(
        all(ref * f4(c) == got for ref, got in zip(reference, found))
        for c in range(1, 4)
    )
    assert (example_code.generator @ sf.check.transpose()).is_zero
    gw = example_code.scalar_generator(4)
    ht = sf.ht_window(5)
    assert not f_matmul(f4, gw, ht).any()
    assert time.perf_counter() - t0 < 1.0


@criterion(6, "tau-blocked fixed code is exact and encoding-equivalent on 100 random inputs")
def test_criterion_06_tau_blocking(example_code):
    blocked = example_code.tau_block()
    assert blocked.to_ints() == [
        [[1], [A], [A], [A2]],
        [[0, A2], [0, A], [1], [A2]],
    ]
    f_id = FiniteField(2, 2, [1, 1, 1], theta_r=0)
    fixed = SkewConvCode(SkewPolyMatrix.from_ints(f_id, blocked.to_ints()))
    tau = example_code.period
    rng = random.Random(106)
    for _ in range(100):
        u = [[rng.randrange(4)] for _ in range(8)]
        direct = example_code.encode(u, terminate=False).flat_values()
        grouped = [[u[tau * s + a][0] for a in range(tau)] for s in range(8 // tau)]
        regrouped = fixed.encode(grouped, terminate=False).flat_values()
        assert direct == regrouped


@criterion(7, "identity-twist encoding equals an ordinary convolution oracle on 1000 inputs")
def test_criterion_07_reduction(f4_id):
    def ordinary(field, coeffs, ublocks, total):
        out = []
        for t in range(total):
            acc = [0] * len(coeffs[0][0])
            for i in range(len(coeffs)):
                s = t - i
                if not 0 <= s < len(ublocks):
                    continue
                for row, u in enumerate(ublocks[s]):
                    for j in range(len(acc)):
                        acc[j] = field.add_int(acc[j], field.mul_int(u, coeffs[i][row][j]))
            out.append(tuple(acc))
        return out

    binary = make_code(FiniteField(2, 1), [[[1, 0, 1], [1, 1, 1]]])
    quaternary = make_code(f4_id, EXAMPLE_TABLE)
    rng = random.Random(107)
    for code in (binary, quaternary):
        coeffs = [code.generator.coefficient_values(i) for i in range(code.memory + 1)]
        for _ in range(500):
            u = [
                [rng.randrange(code.field.size) for _ in range(code.k)]
                for _ in range(rng.randrange(1, 9))
            ]
            got = code.encode(u, terminate=True).to_ints()
            assert got == ordinary(code.field, coeffs, u, len(u) + code.memory)


def _codebook(code, length, terminated):
    inputs = list(itertools.product(range(4), repeat=length))
    rows = [
        code.encode([[s] for s in u], terminate=terminated).flat_values()
        for u in inputs
    ]
    return np.array(rows, dtype=np.uint8)


@criterion(8, "Viterbi equals exhaustive ML; BCJR equals exhaustive Bayes within 1e-9, < 30 s")
def test_criterion_08_decoder_oracles(example_code, trellis):
    t0 = time.perf_counter()

    # every received word, for frame sizes whose input space stays enumerable
    for length, terminated in ((1, False), (2, False), (1, True), (2, True)):
        cb = _codebook(example_code, length, terminated)
        symbols = cb.shape[1]
        for flat in itertools.product(range(4), repeat=symbols):
            blocks = [flat[i : i + 2] for i in range(0, symbols, 2)]
            res = viterbi(trellis, blocks, terminated=terminated)
            oracle = int((cb != np.array(flat, dtype=np.uint8)).sum(axis=1).min())
            assert res.metric == oracle

    # 500 random larger frames against codebook argmin oracles
    rng = random.Random(108)
    for length, terminated, count in ((6, True, 250), (7, False, 250)):
        cb = _codebook(example_code, length, terminated)
        symbols = cb.shape[1]
        for _ in range(count):
            flat = np.array([rng.randrange(4) for _ in range(symbols)], dtype=np.uint8)
            blocks = [tuple(int(x) for x in flat[i : i + 2]) for i in range(0, symbols, 2)]
            res = viterbi(trellis, blocks, terminated=terminated)
            assert res.metric == int((cb != flat).sum(axis=1).min())

    # exact posteriors on terminated length-3 frames at eps = 0.1
    eps = 0.1
    channel = QSChannel(4, eps)
    cb = _codebook(example_code, 3, True)
    inputs = list(itertools.product(range(4), repeat=3))
    for _ in range(20):
        flat = [rng.randrange(4) for _ in range(8)]
        blocks = [tuple(flat[i : i + 2]) for i in range(0, 8, 2)]
        res = bcjr(trellis, blocks, channel, terminated=True)
        dists = (cb != np.array(flat, dtype=np.uint8)).sum(axis=1)
        weights = (1 - eps) ** (8 - dists) * (eps / 3) ** dists
        for t in range(3):
            for c in range(4):
                expected = weights[[u[t] == c for u in inputs]].sum() / weights.sum()
                assert abs(res.posteriors[t][c] - expected) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


@criterion(9, "every single-symbol error in every terminated length-4 codeword corrected, < 10 s")
def test_criterion_09_single_error_correction(example_code, trellis):
    t0 = time.perf_counter()
    for u in itertools.product(range(4), repeat=4):
        expected = [(s,) for s in u]
        clean = example_code.encode([[s] for s in u], terminate=True).to_ints()
        for pos in range(5):
            for j in range(2):
                for wrong in range(4):
                    if wrong == clean[pos][j]:
                        continue
                    corrupted = [list(b) for b in clean]
                    corrupted[pos][j] = wrong
                    res = viterbi(trellis, corrupted, terminated=True)
                    assert res.metric == 1
                    assert res.info_est.to_ints() == expected
    assert time.perf_counter() - t0 < 10.0


@criterion(10, "right-module code: additive, subfield-homogeneous, with a full-field witness")
def test_criterion_10_nonlinearity(f4, f4_id):
    code = SkewTrellisCode(SkewPolyMatrix.from_ints(f4, EXAMPLE_TABLE))
    rng = random.Random(110)
    for _ in range(1000):
        length = rng.randrange(1, 6)
        u1 = Sequence(f4, [[rng.randrange(4)] for _ in range(length)], width=1)
        u2 = Sequence(f4, [[rng.randrange(4)] for _ in range(length)], width=1)
        lhs = code.encode_right(u1 + u2, terminate=True)
        rhs = code.encode_right(u1, terminate=True) + code.encode_right(u2, terminate=True)
        assert lhs == rhs
    # homogeneity over the prime subfield, exhaustively on short inputs
    for c in (0, 1):
        for u in itertools.product(range(4), repeat=2):
            useq = Sequence(f4, [[s] for s in u], width=1)
            assert code.encode_right(useq.scale(c), terminate=True) == code.encode_right(
                useq, terminate=True
            ).scale(c)
    rep = linearity_report(code)
    assert rep.witness is not None
    a, u, lhs, rhs = rep.witness
    useq = Sequence(f4, [list(b) for b in u], width=1)
    assert code.encode_right(useq.scale(a), terminate=True) == lhs
    assert code.encode_right(useq, terminate=True).scale(a) == rhs
    assert lhs != rhs
    # with the identity automorphism no witness exists on short inputs
    code_id = SkewTrellisCode(SkewPolyMatrix.from_ints(f4_id, EXAMPLE_TABLE))
    assert linearity_report(code_id).witness is None
    for a in range(1, 4):
        for length in (1, 2):
            for u in itertools.product(range(4), repeat=length):
                useq = Sequence(f4_id, [[s] for s in u], width=1)
                assert code_id.encode_right(useq.scale(a), terminate=True) == (
                    code_id.encode_right(useq, terminate=True).scale(a)
                )


@criterion(11, "simulation: zero-noise BER 0, byte-exact reproducibility, monotone BER, < 60 s")
def test_criterion_11_simulation(example_code, trellis):
    t0 = time.perf_counter()
    clean = run_simulation(example_code, 0.0, 2000, 8, seed=3, trellis=trellis)
    assert clean.ber == 0.0 and clean.fer == 0.0

    rep1 = run_simulation(example_code, 0.05, 2000, 8, seed=5, trellis=trellis)
    rep2 = run_simulation(example_code, 0.05, 2000, 8, seed=5, trellis=trellis)
    assert json.dumps(rep1.to_dict(), sort_keys=True) == json.dumps(
        rep2.to_dict(), sort_keys=True
    )

    bers = [
        run_simulation(example_code, eps, 10_000, 8, seed=7, trellis=trellis).ber
        for eps in (0.01, 0.05, 0.10)
    ]
    assert bers[0] <= bers[1] <= bers[2]
    assert time.perf_counter() - t0 < 60.0

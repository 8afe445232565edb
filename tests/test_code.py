import random

import numpy as np
import pytest

from skewconv import FiniteField, Sequence, SkewConvCode, SkewPolyMatrix, SkewTrellisCode
from skewconv.code import RANK_WINDOW_BUDGET
from skewconv.linalg import f_rank, f_rref

import code_reference as ref
from conftest import A, A2, EXAMPLE_TABLE, make_code

TWIST_FIELDS = [
    FiniteField(2, 2, [1, 1, 1], theta_r=1),
    FiniteField(2, 3, [1, 1, 0, 1], theta_r=1),
    FiniteField(3, 2, [2, 2, 1], theta_r=1),
    FiniteField(2, 4, theta_r=2),
]


def random_generator(rng, field, deficiency=None):
    """A nonzero k x n generator with k <= n and memory <= 3.  deficiency
    "g0" makes G_0's last row repeat its first (zero if k = 1), and, if
    k > 1, "left" makes the last row c times the first and "shift" D times
    the first; each leaves rank(G_0) < k."""
    n = rng.randrange(1, 4)
    k = rng.randrange(1, n + 1)
    mu = rng.randrange(1 if deficiency else 0, 3)
    coeffs = [[[rng.randrange(field.size) for _ in range(n)] for _ in range(k)] for _ in range(mu + 1)]
    coeffs[-1][0][0] = coeffs[-1][0][0] or 1
    if deficiency == "g0":
        coeffs[0][-1] = coeffs[0][0] if k > 1 else [0] * n
    elif deficiency == "left" and k > 1:
        c = rng.randrange(1, field.size)
        for g in coeffs:
            g[-1] = [field.mul_int(c, v) for v in g[0]]
    elif deficiency == "shift" and k > 1:
        coeffs.append([[0] * n for _ in range(k)])
        for i in range(len(coeffs)):
            # D g(D) = sum_i theta(g_i) D^(i+1)
            coeffs[i][-1] = [0] * n if i == 0 else [field.frobenius_int(v) for v in coeffs[i - 1][0]]
    return SkewPolyMatrix.from_coefficients(field, coeffs)


def reference_encode(code, ublocks, terminate):
    """Direct evaluation of the time-indexed twisted convolution, independent
    of SkewConvCode.encode's phase cache."""
    f = code.field
    total = len(ublocks) + (code.memory if terminate else 0)
    out = []
    for t in range(total):
        acc = [0] * code.n
        for i in range(code.memory + 1):
            s = t - i
            if not 0 <= s < len(ublocks):
                continue
            gi = code.generator.coefficient_values(i)
            for row in range(code.k):
                u = ublocks[s][row]
                for j in range(code.n):
                    acc[j] = f.add_int(
                        acc[j], f.mul_int(u, f.frobenius_int(gi[row][j], t - i))
                    )
        out.append(tuple(acc))
    return out


def ordinary_convolution(field, coeff_mats, ublocks, terminate):
    """Plain time-invariant convolution with no automorphism anywhere."""
    mu = len(coeff_mats) - 1
    k = len(coeff_mats[0])
    n = len(coeff_mats[0][0])
    total = len(ublocks) + (mu if terminate else 0)
    out = []
    for t in range(total):
        acc = [0] * n
        for i in range(mu + 1):
            s = t - i
            if not 0 <= s < len(ublocks):
                continue
            for row in range(k):
                u = ublocks[s][row]
                for j in range(n):
                    acc[j] = field.add_int(acc[j], field.mul_int(u, coeff_mats[i][row][j]))
        out.append(tuple(acc))
    return out


# -- period -------------------------------------------------------------


def test_period_of_example(example_code):
    assert example_code.period == 2


def test_period_identity_twist(example_code_id):
    assert example_code_id.period == 1


def test_period_subfield_coefficients(f4):
    code = make_code(f4, [[[1, 1], [1]]])  # all coefficients in {0, 1}
    g = code.generator
    assert all(
        f4.frobenius_int(v) == v
        for i in range(code.memory + 1)
        for row in g.coefficient_values(i)
        for v in row
    )
    assert code.period == 1


def test_period_divides_automorphism_order(f4, example_code):
    assert f4.automorphism_order % example_code.period == 0


# -- encoding -----------------------------------------------------------


def test_worked_codeword(example_code):
    v = example_code.encode([[1], [0], [0], [1]], terminate=True)
    assert v.to_ints() == [(1, A), (A, A2), (0, 0), (1, A2), (A2, A)]


def test_all_zero_input(example_code):
    v = example_code.encode([[0]] * 5, terminate=True)
    assert v.to_ints() == [(0, 0)] * 6


def test_encode_matches_reference_formula(example_code):
    u = [[A], [1]]
    assert example_code.encode(u, terminate=True).to_ints() == reference_encode(
        example_code, u, True
    )
    rng = random.Random(11)
    for _ in range(50):
        u = [[rng.randrange(4)] for _ in range(rng.randrange(1, 7))]
        for term in (False, True):
            assert example_code.encode(u, terminate=term).to_ints() == reference_encode(
                example_code, u, term
            )


def test_encode_linearity(example_code, f4):
    rng = random.Random(12)
    for _ in range(40):
        length = rng.randrange(1, 6)
        u1 = Sequence(f4, [[rng.randrange(4)] for _ in range(length)], width=1)
        u2 = Sequence(f4, [[rng.randrange(4)] for _ in range(length)], width=1)
        c = f4(rng.randrange(4))
        lhs = example_code.encode(u1.scale(c) + u2, terminate=True)
        rhs = example_code.encode(u1, terminate=True).scale(c) + example_code.encode(
            u2, terminate=True
        )
        assert lhs == rhs


def test_time_coefficients_periodic(example_code):
    for t in range(4):
        for i in range(example_code.memory + 1):
            assert example_code.time_coefficient(t, i) == example_code.time_coefficient(
                t + example_code.period, i
            )


def test_identity_twist_reduction(f4_id):
    binary = make_code(FiniteField(2, 1), [[[1, 0, 1], [1, 1, 1]]])
    rng = random.Random(13)
    for code in (binary, make_code(f4_id, EXAMPLE_TABLE)):
        coeffs = [code.generator.coefficient_values(i) for i in range(code.memory + 1)]
        for _ in range(100):
            u = [
                [rng.randrange(code.field.size) for _ in range(code.k)]
                for _ in range(rng.randrange(1, 8))
            ]
            assert code.encode(u, terminate=True).to_ints() == ordinary_convolution(
                code.field, coeffs, u, True
            )


# -- scalar generator windows --------------------------------------------


def test_scalar_window_of_example(example_code):
    expected = np.array(
        [
            [1, A, A, A2, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, A2, A2, A, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, A, A, A2, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, A2, A2, A],
        ]
    )
    assert (example_code.scalar_generator(4) == expected).all()


def test_scalar_window_identity_twist_is_toeplitz(example_code_id):
    w = example_code_id.scalar_generator(5)
    g0 = np.array(example_code_id.generator.coefficient_values(0))
    g1 = np.array(example_code_id.generator.coefficient_values(1))
    for t in range(5):
        assert (w[t : t + 1, 2 * t : 2 * t + 2] == g0).all()
        assert (w[t : t + 1, 2 * t + 2 : 2 * t + 4] == g1).all()


def test_tilde_form_spans_same_row_space(example_code, f4):
    std = example_code.scalar_generator(6)
    tilde = ref.scalar_generator(example_code, 6, form="tilde")
    r1, p1 = f_rref(f4, std)
    r2, p2 = f_rref(f4, tilde)
    assert p1 == p2 and (r1 == r2).all()


def test_encoding_equals_window_product(example_code, f4):
    rng = random.Random(14)
    w = example_code.scalar_generator(6)
    for _ in range(30):
        u = [rng.randrange(4) for _ in range(6)]
        v = [0] * w.shape[1]
        for i, ui in enumerate(u):
            for j in range(w.shape[1]):
                v[j] = f4.add_int(v[j], f4.mul_int(ui, int(w[i, j])))
        enc = example_code.encode([[x] for x in u], terminate=True).flat_values()
        assert enc == v


# -- tau blocking ---------------------------------------------------------


def test_tau_block_of_example(example_code, f4):
    blocked = example_code.tau_block()
    assert blocked.to_ints() == [
        [[1], [A], [A], [A2]],
        [[0, A2], [0, A], [1], [A2]],
    ]


def test_tau_block_trivial_period(example_code_id):
    assert example_code_id.tau_block() == example_code_id.generator


def test_tau_block_encoding_equivalence(example_code):
    f_id = FiniteField(2, 2, [1, 1, 1], theta_r=0)
    blocked = SkewPolyMatrix.from_ints(f_id, example_code.tau_block().to_ints())
    fixed = SkewConvCode(blocked)
    tau = example_code.period
    rng = random.Random(15)
    for _ in range(30):
        u = [[rng.randrange(4)] for _ in range(8)]
        v = example_code.encode(u, terminate=False).flat_values()
        grouped = [
            [u[tau * s + a][0] for a in range(tau)] for s in range(len(u) // tau)
        ]
        vb = fixed.encode(grouped, terminate=False).flat_values()
        assert v == vb


# -- validation -----------------------------------------------------------


def test_rank_deficient_generator_rejected(f4):
    # second row is a left scalar multiple of the first
    with pytest.raises(ValueError, match="rank"):
        make_code(f4, [[[1], [A]], [[A], [A2]]])


def test_shape_validation(f4):
    with pytest.raises(ValueError, match="exceeds"):
        make_code(f4, [[[1]], [[A]]])  # k = 2 > n = 1
    with pytest.raises(ValueError, match="zero"):
        make_code(f4, [[[0], [0]]])


def test_rank_check_accepts_exactly_the_full_rank_windows():
    # rank(G_0) = k accepts at once; otherwise the window is eliminated
    rng = random.Random(20)
    seen = set()
    for trial in range(160):
        field = TWIST_FIELDS[trial % len(TWIST_FIELDS)]
        deficiency = (None, "g0", "left", "shift")[trial % 4]
        generator = random_generator(rng, field, deficiency)
        unchecked = SkewConvCode(generator, validate=False)
        t_rows = unchecked.period * (unchecked.memory + 1)
        window = ref.scalar_generator(unchecked, t_rows)
        full = ref.f_rank(field, window) == t_rows * unchecked.k
        try:
            SkewConvCode(generator)
            accepted = True
        except ValueError as exc:
            assert "rank-deficient" in str(exc)
            accepted = False
        assert accepted == full
        seen.add((ref.f_rank(field, unchecked.coefficients[0]) == unchecked.k, full))
    # a full-rank G_0, and a deficient G_0 in both a full-rank and a deficient window
    assert seen == {(True, True), (False, True), (False, False)}


def test_rank_check_refuses_an_over_budget_window_at_once(f4):
    # rank(G_0) = 0 < 1: 2 x 301 block rows of a memory-300 code
    table = [[[0] * 300 + [1], [0] * 300 + [A]]]
    t_rows = 2 * 301
    assert t_rows * (t_rows + 300) * 2 > RANK_WINDOW_BUDGET
    with pytest.raises(ValueError, match="budget"):
        make_code(f4, table)
    # with rank(G_0) = k the same memory needs no window
    assert make_code(f4, [[[1] + [0] * 299 + [1], [0] * 300 + [A]]]).memory == 300


@pytest.mark.parametrize("side", [SkewConvCode, SkewTrellisCode])
def test_twisted_tables_and_windows_match_the_entrywise_oracle(side):
    rng = random.Random(21)
    for trial in range(40):
        field = TWIST_FIELDS[trial % len(TWIST_FIELDS)]
        code = side(random_generator(rng, field), validate=False)
        for t_rows in (1, 2, 5):
            got = code.scalar_generator(t_rows)
            for form in ("standard", "tilde"):
                assert np.array_equal(got, ref.scalar_generator(code, t_rows, form))
        if side is SkewConvCode:
            assert code.phase_coefficients == ref.phase_coefficients(code)
            assert code.tau_block() == ref.tau_block(code)
            for t in range(2 * code.period):
                for i in range(code.memory + 1):
                    assert code.time_coefficient(t, i) == ref.phase_coefficients(code)[t % code.period][i]


def test_full_rank_g0_stays_full_rank_under_twist(example_code, f4):
    g0 = example_code.generator.coefficient_values(0)
    for i in range(4):
        twisted = [[f4.frobenius_int(v, i) for v in row] for row in g0]
        assert f_rank(f4, twisted) == example_code.k


def test_sequence_validation(f4, example_code):
    with pytest.raises(ValueError, match="length"):
        example_code.encode([[1, 2]])
    with pytest.raises(ValueError, match="outside"):
        Sequence(f4, [[7]])
    seq = Sequence(f4, [[1], [A]])
    assert len(seq) == 2 and seq.width == 1
    assert seq.weight() == 2
    assert Sequence(f4, [], width=1).to_ints() == []


def test_sequence_arithmetic(f4):
    s1 = Sequence(f4, [[1, A], [0, 0]])
    s2 = Sequence(f4, [[A, A], [1, 0]])
    assert (s1 + s2).to_ints() == [(A2, 0), (1, 0)]
    assert s1.scale(f4(A)).to_ints() == [(A, A2), (0, 0)]
    assert (f4(A) * s1) == s1.scale(A)

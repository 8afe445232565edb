import itertools
import random

import numpy as np
import pytest

from skewconv import (
    FiniteField,
    SkewPoly,
    SkewPolyMatrix,
    SyndromeFormer,
    SyndromeFormerNotFound,
    SkewTrellisCode,
    syndrome_former,
    verify_duality,
)
from skewconv.linalg import f_matmul, f_rank

from conftest import A, A2, EXAMPLE_TABLE, make_code


@pytest.fixture(scope="module")
def example_sf(example_code):
    return syndrome_former(example_code)


def test_worked_example_up_to_right_unit(example_code, example_sf, f4):
    # the textbook representative of this syndrome former
    reference = [SkewPoly(f4, [A, 1]), SkewPoly(f4, [1, A])]
    found = example_sf.check.entries[0]
    units = [
        c
        for c in range(1, 4)
        if all(ref * f4(c) == got for ref, got in zip(reference, found))
    ]
    assert units, "found H is not a right unit multiple of the reference row"


def test_worked_example_canonical_form(example_sf):
    # pivot of H_0 scaled to 1 by right multiplication
    assert example_sf.check.to_ints() == [[[1, A], [A2, A2]]]
    assert example_sf.dual_memory == 1


def test_minimal_dual_memory(example_code):
    with pytest.raises(SyndromeFormerNotFound) as exc:
        syndrome_former(example_code, mu_perp_max=0)
    assert exc.value.mu_perp_max == 0


def test_negative_dual_memory_cap_rejected(example_code):
    with pytest.raises(ValueError, match="mu_perp_max must be >= 0") as exc:
        syndrome_former(example_code, mu_perp_max=-1)
    assert not isinstance(exc.value, SyndromeFormerNotFound)


def test_rank_and_polynomial_product(example_code, example_sf, f4):
    assert f_rank(f4, example_sf.coefficient_values(0)) == 1
    assert (example_code.generator @ example_sf.check.transpose()).is_zero


def test_window_product_is_zero(example_code, example_sf, f4):
    gw = example_code.scalar_generator(4)
    ht = example_sf.ht_window(5)
    assert gw.shape[1] == ht.shape[0]
    assert not f_matmul(f4, gw, ht).any()


def test_repetition_single_parity_duality():
    f = FiniteField(2, 2, [1, 1, 1], theta_r=0)
    code = make_code(f, [[[1], [1]]])
    sf = syndrome_former(code)
    assert sf.dual_memory == 0
    assert sf.check.to_ints() == [[[1], [1]]]
    assert verify_duality(code, sf)


def commutative_product(field, a_coeffs, b_coeffs):
    out = [0] * (len(a_coeffs) + len(b_coeffs) - 1)
    for i, x in enumerate(a_coeffs):
        for j, y in enumerate(b_coeffs):
            out[i + j] = field.add_int(out[i + j], field.mul_int(x, y))
    return out


def test_binary_memory_two_dual():
    f2 = FiniteField(2, 1)
    code = make_code(f2, [[[1, 0, 1], [1, 1, 1]]])
    sf = syndrome_former(code)
    assert sf.dual_memory == 2
    # independent check through plain commutative polynomial products
    g = code.generator.to_ints()[0]
    h = sf.check.to_ints()[0]
    acc = [0] * 8
    for col in range(2):
        prod = commutative_product(f2, g[col] + [0] * (3 - len(g[col])), h[col])
        for i, v in enumerate(prod):
            acc[i] = f2.add_int(acc[i], v)
    assert not any(acc)
    assert verify_duality(code, sf)


def test_check_window_layout_matches_textbook_rows(example_code, f4):
    # the un-normalized representative gives the familiar staircase window
    reference = SkewPolyMatrix.from_ints(f4, [[[A, 1], [1, A]]])
    sf = SyndromeFormer(example_code, reference)
    hw = sf.h_window(3)
    expected = np.array(
        [
            [A, 1, 0, 0, 0, 0],
            [1, A, A2, 1, 0, 0],
            [0, 0, 1, A2, A, 1],
            [0, 0, 0, 0, 1, A],
        ]
    )
    assert (hw == expected).all()


def test_windows_are_transposes(example_sf):
    for t in (2, 3, 5):
        assert (example_sf.h_window(t) == example_sf.ht_window(t).T).all()


def test_verify_duality_accepts_and_rejects(example_code, example_sf, f4):
    assert verify_duality(example_code, example_sf)
    perturbed_table = example_sf.check.to_ints()
    perturbed_table[0][0][0] ^= 1
    perturbed = SkewPolyMatrix.from_ints(f4, perturbed_table)
    assert not (example_code.generator @ perturbed.transpose()).is_zero
    assert not verify_duality(example_code, perturbed)


def test_polynomial_and_window_conditions_agree(f4):
    rng = random.Random(31)
    found = 0
    attempts = 0
    while found < 5 and attempts < 200:
        attempts += 1
        mu = rng.randrange(1, 3)
        table = [[[rng.randrange(4) for _ in range(mu + 1)] for _ in range(2)]]
        try:
            code = make_code(f4, table)
            sf = syndrome_former(code)
        except (ValueError, SyndromeFormerNotFound):
            continue
        found += 1
        gw = code.scalar_generator(4)
        ht = sf.ht_window(4 + code.memory)
        assert not f_matmul(f4, gw, ht).any()
        # breaking the polynomial identity must surface in the window
        broken_table = sf.check.to_ints()
        broken_table[0][0][0] = (broken_table[0][0][0] + 1) % 4
        broken = SkewPolyMatrix.from_ints(f4, broken_table)
        if (code.generator @ broken.transpose()).is_zero:
            continue
        bsf = SyndromeFormer(code, broken, validate=False)
        assert f_matmul(f4, gw, bsf.ht_window(4 + code.memory)).any()
    assert found == 5


def test_zero_syndrome_means_membership(example_code, example_sf, f4):
    total_blocks = 4
    ht = example_sf.ht_window(total_blocks)
    mul = [[f4.mul_int(a, b) for b in range(4)] for a in range(4)]
    cols = ht.shape[1]
    ht_rows = [[int(v) for v in row] for row in ht]

    codewords = set()
    for u in itertools.product(range(4), repeat=total_blocks - 1):
        cw = tuple(example_code.encode([[s] for s in u], terminate=True).flat_values())
        codewords.add(cw)

    zero_syndrome = set()
    for v in itertools.product(range(4), repeat=2 * total_blocks):
        syndrome = [0] * cols
        for i, vi in enumerate(v):
            if vi == 0:
                continue
            row = ht_rows[i]
            mrow = mul[vi]
            for j in range(cols):
                if row[j]:
                    syndrome[j] ^= mrow[row[j]]
        if not any(syndrome):
            zero_syndrome.add(v)
    assert zero_syndrome == codewords


def test_wider_dual_dimension(f4):
    code = make_code(f4, [[[1], [A], [A2, 1]]])  # [3, 1], memory 1
    sf = syndrome_former(code)
    assert sf.check.rows == 2
    assert f_rank(f4, sf.coefficient_values(0)) == 2
    assert (code.generator @ sf.check.transpose()).is_zero
    assert verify_duality(code, sf)
    if sf.dual_memory > 0:
        with pytest.raises(SyndromeFormerNotFound):
            syndrome_former(code, mu_perp_max=sf.dual_memory - 1)


def test_syndrome_former_constructor_validation(example_code, f4):
    with pytest.raises(ValueError, match="x"):
        SyndromeFormer(example_code, SkewPolyMatrix.from_ints(f4, [[[1]]]))
    bad = SkewPolyMatrix.from_ints(f4, [[[1, A], [1, A]]])
    with pytest.raises(ValueError):
        SyndromeFormer(example_code, bad)


def test_rate_one_code_has_no_former(f4):
    code = make_code(f4, [[[1]]])
    with pytest.raises(ValueError):
        syndrome_former(code)


def test_right_module_code_has_no_syndrome_former(f4, example_sf):
    right = SkewTrellisCode(SkewPolyMatrix.from_ints(f4, EXAMPLE_TABLE))
    with pytest.raises(ValueError, match="left-module"):
        syndrome_former(right)
    with pytest.raises(ValueError, match="left-module"):
        verify_duality(right, example_sf.check)
    with pytest.raises(ValueError, match="left-module"):
        right.tau_block()

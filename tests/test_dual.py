import itertools
import json
import random
from pathlib import Path

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
from skewconv.cli import main
from skewconv.codespec import load_code
from skewconv.dual import _annihilates, _system
from skewconv.linalg import f_matmul, f_rank

import code_reference as ref
from conftest import A, A2, EXAMPLE_TABLE, make_code

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite"


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


def test_verify_duality_never_forms_the_product(example_code, example_sf, f4, monkeypatch):
    # G(D) H^T(D) = 0 is decided on the coefficient windows for every kind
    # of check, so no skew polynomial product is formed
    check = example_sf.check
    twin = make_code(f4, EXAMPLE_TABLE)  # an equal code, another object
    products = []
    matmul = SkewPolyMatrix.__matmul__

    def counted(self, other):
        products.append(other)
        return matmul(self, other)

    monkeypatch.setattr(SkewPolyMatrix, "__matmul__", counted)
    cases = [
        (example_code, SyndromeFormer(example_code, check)),
        (example_code, SyndromeFormer(example_code, check, validate=False)),
        (example_code, check),
        (twin, SyndromeFormer(example_code, check)),
    ]
    for code, sf in cases:
        assert verify_duality(code, sf)
    assert products == []


def test_an_unvalidated_former_of_a_perturbed_h_is_rejected(example_code, example_sf, f4):
    # a bare perturbed matrix: test_verify_duality_accepts_and_rejects
    table = example_sf.check.to_ints()
    table[0][1][0] ^= 1
    perturbed = SkewPolyMatrix.from_ints(f4, table)
    assert not verify_duality(example_code, SyndromeFormer(example_code, perturbed, validate=False))
    with pytest.raises(ValueError, match="G"):
        SyndromeFormer(example_code, perturbed)


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


WINDOW_FIELDS = {
    "gf4": FiniteField(2, 2, [1, 1, 1], theta_r=1),
    "gf8": FiniteField(2, 3, [1, 1, 0, 1], theta_r=1),
    "gf9": FiniteField(3, 2, [2, 2, 1], theta_r=1),
    "gf16_a2": FiniteField(2, 4, [1, 1, 0, 0, 1], theta_r=1),
    "gf16_a4": FiniteField(2, 4, [1, 1, 0, 0, 1], theta_r=2),
}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(WINDOW_FIELDS))
def test_window_duality_predicate_matches_the_product(name, k):
    # the window predicate against the skew product, on found formers and on
    # formers with one coefficient of H changed
    field = WINDOW_FIELDS[name]
    rng = random.Random(f"{name}-{k}")
    found = rejected = 0
    for _ in range(200):
        if found == 4:
            break
        n = k + rng.randrange(1, 3)
        mu = rng.randrange(1, 3)
        table = [[[rng.randrange(field.size) for _ in range(mu + 1)] for _ in range(n)] for _ in range(k)]
        try:
            code = make_code(field, table)
            sf = syndrome_former(code, 3)
        except (ValueError, SyndromeFormerNotFound):
            continue
        found += 1
        assert (code.generator @ sf.check.transpose()).is_zero
        assert _annihilates(field, code.coefficients, sf.coefficients)
        gw = code.scalar_generator(3)
        assert not f_matmul(field, gw, sf.ht_window(3 + code.memory)).any()
        for _ in range(3):
            broken_table = sf.check.to_ints()
            cell = broken_table[rng.randrange(n - k)][rng.randrange(n)]
            cell += [0] * (sf.dual_memory + 1 - len(cell))
            j = rng.randrange(len(cell))
            cell[j] = field.add_int(cell[j], rng.randrange(1, field.size))
            broken = SkewPolyMatrix.from_ints(field, broken_table)
            bsf = SyndromeFormer(code, broken, validate=False)
            zero = (code.generator @ broken.transpose()).is_zero
            assert _annihilates(field, code.coefficients, bsf.coefficients) is zero
            if not zero:
                rejected += 1
                assert not verify_duality(code, bsf)
                with pytest.raises(ValueError, match="G"):
                    SyndromeFormer(code, broken)
    assert found == 4 and rejected >= 6


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


def test_coefficients_outside_the_dual_memory_are_zero(example_sf):
    mu_perp = example_sf.dual_memory
    for i in (-1, mu_perp + 1, mu_perp + 5):
        assert example_sf.coefficient_values(i) == example_sf.check.coefficient_values(i) == [[0, 0]]
    for i in range(mu_perp + 1):
        assert example_sf.coefficient_values(i) == example_sf.check.coefficient_values(i)


def test_a_check_over_another_field_is_refused(example_code, example_sf, f8):
    check = SkewPolyMatrix.from_ints(f8, example_sf.check.to_ints())
    for validate in (True, False):
        with pytest.raises(ValueError, match="^mixed-field operands$"):
            SyndromeFormer(example_code, check, validate=validate)
    with pytest.raises(ValueError, match="^mixed-field operands$"):
        verify_duality(example_code, check)


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


def test_matches_the_digit_system_solver_on_random_codes():
    # n - k >= 2, over fields with theta of order 1 to 3, and a cap that
    # some codes do not meet; every third code has its first row times D,
    # so that rank(G_0) < k
    fields = [
        FiniteField(2, 1),
        FiniteField(2, 2, [1, 1, 1], theta_r=1),
        FiniteField(2, 3, [1, 1, 0, 1], theta_r=1),
        FiniteField(3, 2, [2, 2, 1], theta_r=1),
        FiniteField(3, 3, [1, 2, 0, 1], theta_r=1),
    ]
    rng = random.Random(41)
    wider = found = 0
    for trial in range(150):
        field = fields[trial % len(fields)]
        n = rng.randrange(3, 5)
        k = rng.randrange(1, n - 1)
        mu = rng.randrange(0, 3)
        table = [[[rng.randrange(field.size) for _ in range(rng.randrange(1, mu + 2))] for _ in range(n)] for _ in range(k)]
        if trial % 3 == 0:
            table[0] = [[0] + cell for cell in table[0]]
        try:
            code = make_code(field, table)
        except ValueError:
            continue
        cap = rng.randrange(0, 3)
        want = ref.syndrome_former(code, cap)
        if want is None:
            with pytest.raises(SyndromeFormerNotFound):
                syndrome_former(code, cap)
            continue
        sf = syndrome_former(code, cap)
        assert (sf.dual_memory, sf.check.to_ints()) == want
        found += 1
        wider += len(ref.digit_solutions(code, want[0])) > (n - k) * field.n
    # some solution spaces are wider than n - k, so the choice among them counts
    assert found >= 80 and wider >= 15


def test_the_system_twists_g_once_to_the_same_matrix():
    fields = [
        FiniteField(2, 2, [1, 1, 1], theta_r=1),
        FiniteField(2, 3, [1, 1, 0, 1], theta_r=1),
        FiniteField(3, 2, [2, 2, 1], theta_r=1),
        FiniteField(2, 4, theta_r=1),
        FiniteField(2, 4, theta_r=2),
        FiniteField(3, 3, [1, 2, 0, 1], theta_r=1),
    ]
    rng = random.Random(77)
    checked = 0
    for trial in range(120):
        field = fields[trial % len(fields)]
        n = rng.randrange(2, 5)
        k = rng.randrange(1, n)
        mu = rng.randrange(0, 4)
        table = [[[rng.randrange(field.size) for _ in range(mu + 1)] for _ in range(n)] for _ in range(k)]
        try:
            code = make_code(field, table)
        except ValueError:
            continue
        for mu_perp in range(4):
            got = _system(code, mu_perp)
            assert np.array_equal(got, ref.syndrome_system(code, mu_perp)), (trial, mu_perp)
        checked += 1
    assert checked >= 100


def test_the_former_holds_h_once_as_a_read_only_array(example_code, example_sf):
    assert set(vars(example_sf)) == {"code", "field", "check", "dual_memory"}
    assert not example_sf.coefficients.flags.writeable
    assert example_sf.coefficients is example_sf.check.coefficients
    check = example_sf.check
    assert check is example_sf.check and check.entries == example_sf.check.entries
    again = SyndromeFormer(example_code, check)
    assert np.array_equal(again.coefficients, example_sf.coefficients)
    assert again.dual_memory == example_sf.dual_memory and again.check == check


def test_check_window_matches_the_entrywise_fill(f4):
    f27 = FiniteField(3, 3, [1, 2, 0, 1], theta_r=1)
    for field, table in (
        (f4, [[[1], [A], [A2, 1]]]),
        (f4, EXAMPLE_TABLE),
        (f27, [[[1, 5, 7], [2, 0, 11], [4, 9, 1]]]),
    ):
        sf = syndrome_former(make_code(field, table))
        for t in (1, 2, 7):
            assert np.array_equal(sf.ht_window(t), ref.ht_window(sf, t))


def test_a_zero_check_has_the_window_of_one_zero_term(example_code, f4):
    # the zero matrix holds no coefficient terms; its former still has dual
    # memory 0, and the windows and draws of one zero term H_0
    zero = SkewPolyMatrix.from_ints(f4, [[[0], [0]]])
    sf = SyndromeFormer(example_code, zero, validate=False)
    assert sf.coefficients.shape == (0, 1, 2) and sf.dual_memory == 0
    for t in (1, 3):
        assert np.array_equal(sf.ht_window(t), ref.ht_window(sf, t))
    rng = random.Random(4)
    assert verify_duality(example_code, sf, rng=rng)
    expected = random.Random(4)
    # 20 words of 7 information symbols, then 20 pairs of 7 and 8 symbols:
    # the window of H^T over 8 blocks has 8 block columns of one check row
    for _ in range(20 * 7 + 20 * (7 + 8)):
        expected.randrange(4)
    assert rng.getstate() == expected.getstate()


def suite_duals():
    expected = json.loads((SUITE / "expected.json").read_text())["analyze"]
    return {name: entry["dual"] for name, entry in expected.items() if "dual" in entry}


@pytest.mark.parametrize("name", sorted(suite_duals()))
def test_reproduces_the_committed_suite_syndrome_formers(name, capsys):
    want = suite_duals()[name]
    path = SUITE / f"{name}.json"
    sf = syndrome_former(load_code(path))
    assert {"mu_perp": sf.dual_memory, "H": sf.check.to_ints()} == want
    assert main(["dual", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == want


def test_every_left_module_suite_code_has_a_committed_dual():
    left = {p.stem for p in SUITE.glob("*.json") if p.stem != "expected" and load_code(p).module_side == "left"}
    assert left == set(suite_duals())

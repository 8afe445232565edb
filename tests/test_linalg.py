"""The array Gauss-Jordan elimination and the nullspace on it against the
row-at-a-time oracles in `code_reference`."""

import random
from pathlib import Path

import numpy as np
import pytest

from skewconv import FiniteField
from skewconv.codespec import load_code
from skewconv.linalg import f_matmul, f_nullspace, f_rank, f_rref, f_rref_nullspace

import code_reference as ref

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite"

FIELDS = {
    "gf2": FiniteField(2, 1),
    "gf4-a2": FiniteField(2, 2, [1, 1, 1], theta_r=1),
    "gf8": FiniteField(2, 3, [1, 1, 0, 1], theta_r=1),
    "gf9": FiniteField(3, 2, [2, 2, 1], theta_r=1),
    "gf16-a2": FiniteField(2, 4, theta_r=1),
    "gf16-a4": FiniteField(2, 4, theta_r=2),
    "gf27": FiniteField(3, 3, [1, 2, 0, 1], theta_r=1),
}


def random_matrix(rng, field, rows, cols, density=0.7):
    return np.array(
        [[rng.randrange(1, field.size) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    ).reshape(rows, cols)


def left_combination(rng, field, mat):
    """A random left multiple of mat's rows: sum_i c_i * row_i."""
    coeffs = np.array([[rng.randrange(field.size) for _ in range(len(mat))]], dtype=np.int64)
    return f_matmul(field, coeffs, mat)[0]


def matrices(field, seed):
    rng = random.Random(seed)
    yield np.zeros((3, 4), dtype=np.int64)
    yield np.zeros((0, 3), dtype=np.int64)
    yield np.zeros((3, 0), dtype=np.int64)
    yield np.zeros((1, 1), dtype=np.int64)
    yield np.array([[rng.randrange(1, field.size)]])
    for rows, cols in ((3, 8), (8, 3), (5, 5), (6, 9), (9, 4)):
        for density in (0.2, 0.7, 1.0):
            mat = random_matrix(rng, field, rows, cols, density)
            yield mat
            # rank-deficient: some rows are left combinations of the others
            deficient = mat.copy()
            for i in range(1, rows, 2):
                deficient[i] = left_combination(rng, field, mat[:i])
            yield deficient


@pytest.mark.parametrize("name", FIELDS)
def test_rref_and_rank_match_the_row_at_a_time_oracle(name):
    field = FIELDS[name]
    for mat in matrices(field, seed=len(name)):
        got, pivots = f_rref(field, mat)
        want, want_pivots = ref.f_rref(field, mat)
        assert np.array_equal(got, want)
        assert pivots == want_pivots
        assert f_rank(field, mat) == ref.f_rank(field, mat)


def test_rref_rejects_a_non_matrix():
    with pytest.raises(ValueError, match="2-D"):
        f_rref(FIELDS["gf4-a2"], [1, 2, 3])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nullspace_order_matches_the_prime_field_oracle(p):
    field = FiniteField(p, 1)
    rng = random.Random(p)
    for rows, cols in ((1, 1), (2, 5), (5, 2), (4, 7), (6, 6), (3, 9)):
        for density in (0.3, 1.0):
            mat = random_matrix(rng, field, rows, cols, density)
            if rows > 2:
                mat[-1] = left_combination(rng, field, mat[:-1])
            want = np.array(ref.nullspace_mod_p(p, mat.tolist(), cols), dtype=np.int64).reshape(-1, cols)
            assert np.array_equal(f_nullspace(field, mat), want)


@pytest.mark.parametrize("name", FIELDS)
def test_nullspace_is_a_basis_of_the_kernel(name):
    field = FIELDS[name]
    for mat in matrices(field, seed=7):
        if not mat.shape[1]:
            continue
        basis = f_nullspace(field, mat)
        assert len(basis) == mat.shape[1] - f_rank(field, mat)
        assert not f_matmul(field, mat, basis.T).any()
        assert f_rank(field, basis) == len(basis)


@pytest.mark.parametrize("name", FIELDS)
def test_the_row_operation_oracle_is_the_entrywise_one(name):
    field = FIELDS[name]
    for mat in matrices(field, seed=3):
        got, pivots = ref.f_rref_by_rows(field, mat)
        want, want_pivots = ref.f_rref(field, mat)
        assert np.array_equal(got, want) and pivots == want_pivots


@pytest.mark.parametrize("name", sorted(p.stem for p in SUITE.glob("*.json") if p.stem != "expected"))
def test_rref_matches_the_oracle_on_the_suite_windows(name):
    code = load_code(SUITE / f"{name}.json")
    window = code.scalar_generator(60)
    got, pivots = f_rref(code.field, window)
    want, want_pivots = ref.f_rref_by_rows(code.field, window)
    assert np.array_equal(got, want) and pivots == want_pivots


@pytest.mark.parametrize("name, rows, cols", [("gf16-a2", 120, 240), ("gf9", 120, 240), ("gf9", 300, 600)])
def test_rref_matches_the_oracle_on_large_dense_matrices(name, rows, cols):
    field = FIELDS[name]
    gen = np.random.default_rng(rows + field.size)
    dense = gen.integers(0, field.size, (rows, cols))
    # one column in ten zero, and the last quarter of the rows combinations
    # of the others: pivots skip columns, and rows end zero
    deficient = dense.copy()
    deficient[:, gen.choice(cols, cols // 10, replace=False)] = 0
    kept = rows - rows // 4
    deficient[kept:] = f_matmul(field, gen.integers(0, field.size, (rows - kept, kept)), deficient[:kept])
    for mat in (dense, deficient):
        got, pivots = f_rref(field, mat)
        want, want_pivots = ref.f_rref_by_rows(field, mat)
        assert np.array_equal(got, want) and pivots == want_pivots
    assert len(pivots) == kept and pivots[-1] >= kept


@pytest.mark.parametrize("name", FIELDS)
def test_the_nullspace_of_a_left_block_is_read_off_the_rref(name):
    field = FIELDS[name]
    for mat in matrices(field, seed=11):
        rref, pivots = f_rref(field, mat)
        for cols in range(mat.shape[1] + 1):
            got = f_rref_nullspace(field, rref, pivots, cols)
            assert np.array_equal(got, f_nullspace(field, mat[:, :cols])), cols

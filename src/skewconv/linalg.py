"""Exact linear algebra over a FiniteField on integer-encoded matrices:
one Gauss-Jordan elimination (`f_rref`), the rank, nullspace and matrix
product built on the field's array operations, `f_window`, the one
builder of the banded scalar windows of a skew polynomial matrix, and
`f_polymul`, the one skew polynomial matrix product, on two windows."""

import numpy as np

__all__ = ["f_rref", "f_rank", "f_nullspace", "f_matmul", "f_window", "f_polymul"]

# the most products `f_matmul` forms at once, beyond one row's
_MATMUL_TERMS = 1 << 16


def f_rref(field, mat):
    """Reduced row echelon form over the field.  Returns (rref, pivot_cols).

    Gauss-Jordan as array steps, one pivot at a time: the next pivot is the
    first nonzero of the leftmost column that is nonzero below the rows
    already reduced.  Its row is scaled to -1 at the pivot, and each row
    with a nonzero in the pivot column gets that entry times the scaled row
    added, all at once through `field.mul` and `field.add`; the pivot row
    itself is first cleared to the entry -1, so it ends scaled to 1.
    Columns left of the pivot are already reduced and are not touched.
    """
    m = np.array(mat, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    minus_one = field.p - 1  # -1 lies in the prime subfield
    pivots = []
    c = 0
    for r in range(m.shape[0]):
        open_cols = m[r:, c:].any(axis=0)
        if not open_cols.any():
            break
        c += int(open_cols.argmax())
        i = r + int((m[r:, c] != 0).argmax())
        if i != r:
            m[[r, i]] = m[[i, r]]
        neg_row = field.mul(m[r, c:], field.neg_int(field.inv_int(int(m[r, c]))))
        m[r, c] = minus_one
        hit = np.flatnonzero(m[:, c])
        coef = m[hit, c, None]
        m[r, c:] = 0
        m[hit, c:] = field.add(m[hit, c:], field.mul(coef, neg_row))
        pivots.append(c)
        c += 1
    return m, pivots


def f_rank(field, mat):
    return len(f_rref(field, mat)[1])


def f_nullspace(field, mat):
    """Basis of the right nullspace of a 2-D matrix over the field, one row
    per free column of its reduced echelon form, in column order: the row of
    free column c is 1 at c, 0 at the other free columns, and minus the
    rref's column c at the pivot columns."""
    rref, pivots = f_rref(field, mat)
    free = np.ones(rref.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), rref.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.mul(rref[: len(pivots), free].T, field.p - 1)
    return basis


def f_matmul(field, a, b):
    """Matrix product over the field as array steps: the products
    a[i, x] * b[x, j] of a band of rows at once, summed over x by
    `FiniteField.sum`; a band holds at most about _MATMUL_TERMS products."""
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if not b.size:
        return out
    band = max(1, _MATMUL_TERMS // b.size)
    for start in range(0, len(a), band):
        terms = field.mul(a[start : start + band, :, None], b)
        out[start : start + band] = field.sum(np.moveaxis(terms, 1, 0))
    return out


def f_window(field, coefficients, blocks, twist=1, delay_twist=0):
    """Scalar window of blocks block rows of a polynomial matrix
    C(D) = sum_i C_i D^i given as an integer array [i, row, col]: block row t
    holds theta^(twist * t + delay_twist * i)(C_i) at block column t + i,
    zeros elsewhere."""
    terms, rows, cols = coefficients.shape
    t = np.arange(blocks)[:, None]
    i = np.arange(terms)
    out = np.zeros((blocks, rows, blocks + terms - 1, cols), dtype=np.int64)
    # the twisted blocks, indexed (t, i, row, col), go to out[t, :, t + i, :]
    powers = (twist * t + delay_twist * i)[..., None, None]
    out[t, :, t + i, :] = field.frobenius(coefficients, powers)
    return out.reshape(blocks * rows, -1)


def f_polymul(field, a, b):
    """The product A(D) B(D) of two polynomial matrices given as integer
    arrays [i, row, col], as the array [s, row, col] of C_s = sum_i A_i
    theta^i(B_(s-i)): f_window(A, 1) holds A_i at block column i, and block
    row i of f_window(B, len(A)) holds theta^i(B_j) at block column i + j."""
    if not len(a) or not len(b):
        return np.zeros((0, a.shape[1], b.shape[2]), dtype=np.int64)
    window = f_matmul(field, f_window(field, a, 1), f_window(field, b, len(a)))
    return window.reshape(a.shape[1], -1, b.shape[2]).transpose(1, 0, 2)

"""Exact linear algebra over a FiniteField (integer-encoded matrices) and
nullspace computation over the prime subfield."""

import numpy as np

__all__ = ["f_rref", "f_rank", "f_matmul", "nullspace_mod_p"]

# the most products `f_matmul` forms at once, beyond one row's
_MATMUL_TERMS = 1 << 16


def f_rref(field, mat):
    """Reduced row echelon form over the field.  Returns (rref, pivot_cols)."""
    m = np.array(mat, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        inv = field.inv_int(int(m[r, c]))
        m[r] = [field.mul_int(int(v), inv) for v in m[r]]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                factor = int(m[i, c])
                m[i] = [
                    field.sub_int(int(v), field.mul_int(factor, int(w)))
                    for v, w in zip(m[i], m[r])
                ]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def f_rank(field, mat):
    return len(f_rref(field, mat)[1])


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


def nullspace_mod_p(p, rows, ncols):
    """Basis of the right nullspace of a matrix over GF(p).

    rows: iterable of length-ncols integer rows (reduced mod p).  Returns a
    list of length-ncols basis vectors, deterministic in free-column order.
    """
    m = [list(int(v) % p for v in row) for row in rows]
    nrows = len(m)
    pivot_of_col = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[r])]
        pivot_of_col[c] = r
        r += 1
        if r == nrows:
            break
    basis = []
    for c in range(ncols):
        if c in pivot_of_col:
            continue
        vec = [0] * ncols
        vec[c] = 1
        for pc, pr in pivot_of_col.items():
            vec[pc] = (-m[pr][c]) % p
        basis.append(vec)
    return basis

"""Exact linear algebra over a FiniteField on integer-encoded matrices,
built on the field's array operations: one Gauss-Jordan elimination
(`f_rref`), the rank, the nullspace of a matrix or of a left block of it
read off its rref, the matrix product, `f_window`, the one builder of the
banded scalar windows of a skew polynomial matrix, and `f_polymul`, the one
skew polynomial matrix product, which `@`, `*`, the duality check and every
encode run on."""

import bisect

import numpy as np

from . import field as _field

__all__ = [
    "f_rref",
    "f_rank",
    "f_nullspace",
    "f_rref_nullspace",
    "f_matmul",
    "f_window",
    "f_polymul",
]


def f_rref(field, mat):
    """Reduced row echelon form over the field.  Returns (rref, pivot_cols).

    Gauss-Jordan as array steps, one pivot at a time.  Rows r on, the rows
    not yet reduced, are zero left of column c, one past the last pivot, so
    the open block is m[r:, c:]; the next pivot is its first nonzero in
    column order, found by one search of the block transposed.  Only the
    pivot row's columns from c on are swapped into row r.  The row is
    scaled to -1 at the pivot, and the rows from the pivot column's first
    nonzero to its last get their entry there times the scaled row added,
    as one slice through `field.mul` and `field.add` (a row with a zero
    there gets zero added); the pivot row itself is first cleared to the
    entry -1, so it ends scaled to 1.  Columns left of the pivot are already
    reduced and are not touched.
    """
    m = np.array(mat, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = m.shape
    minus_one = field.p - 1  # -1 lies in the prime subfield
    log_minus_one, order = field.log_table.item(minus_one), field.size - 1
    pivots = []
    c = 0
    for r in range(rows):
        if c == cols:
            break
        open_nz = m[r:, c:].T != 0
        skip, i = divmod(int(open_nz.argmax()), rows - r)
        if not open_nz[skip, i]:
            break
        c += skip
        if i:
            m[[r, r + i], c:] = m[[r + i, r], c:]
        # -1 / pivot = g^(log(-1) - log(pivot))
        pivot_log = field.log_table.item(m.item(r, c))
        neg_row = field.mul(m[r, c:], field.antilog_table.item((log_minus_one - pivot_log) % order))
        m[r, c] = minus_one
        hit = m[:, c].nonzero()[0]
        band = m[hit[0] : hit[-1] + 1, c:]
        added = field.mul(band[:, :1], neg_row)
        m[r, c:] = 0
        band[:] = field.add(band, added)
        pivots.append(c)
        c += 1
    return m, pivots


def f_rank(field, mat):
    return len(f_rref(field, mat)[1])


def f_nullspace(field, mat):
    """Basis of the right nullspace of a 2-D matrix over the field, one row
    per free column of its reduced echelon form, in column order
    (`f_rref_nullspace`)."""
    rref, pivots = f_rref(field, mat)
    return f_rref_nullspace(field, rref, pivots, rref.shape[1])


def f_rref_nullspace(field, rref, pivots, cols):
    """Basis of the right nullspace of the first `cols` columns of a matrix,
    read off the matrix's reduced echelon form `rref` and its `pivots`: the
    rref's first `cols` columns are the reduced echelon form of that left
    block, whose pivots are those below cols.  One row per free column c
    below cols, in column order: 1 at c, 0 at the other free columns, and
    minus the rref's column c at the pivot columns."""
    pivots = pivots[: bisect.bisect_left(pivots, cols)]
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.mul(rref[: len(pivots), free].T, field.p - 1)
    return basis


def f_matmul(field, a, b):
    """Matrix product over the field as array steps: the products
    a[i, x] * b[x, j] of a band of rows at once, summed over x by
    `FiniteField.sum`; a band holds at most about `field.PASS_ELEMENTS`
    products."""
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if not b.size:
        return out
    band = max(1, _field.PASS_ELEMENTS // b.size)
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
    theta^i(B_(s-i)), in the narrowest unsigned dtype that holds q - 1.

    One gather-and-sum pass over the terms d of the shorter factor, a chunk
    of about `field.PASS_ELEMENTS` products at a time (at least one output
    term's for one row of A; A's rows go in bands when a term's are more),
    in the log domain of `FiniteField.mul`'s tables, where 0 has the log
    2(q - 1): the longer factor's logs are read at s - d, B's are twisted by
    theta^i (i = d if A is the shorter, else s - d), each product is one
    gather at a sum of two logs, and `FiniteField.sum` adds them over
    (d, inner).  The larger of rows and cols runs along the innermost axis,
    so that each step is one pass over a batch of frames (`encode_batch`).
    """
    (terms_a, rows, inner), (terms_b, _, cols) = a.shape, b.shape
    total = terms_a + terms_b - 1 if terms_a and terms_b else 0
    flip = rows > cols
    symbol = np.min_scalar_type(field.size - 1)
    out = np.zeros((total, cols, rows) if flip else (total, rows, cols), symbol)
    view = out.transpose(0, 2, 1) if flip else out  # [s, row, col]
    if out.size and inner:
        log_of, antilog = field._product_logs, field._product_table
        q1, order = field.size - 1, field.automorphism_order
        powers = field.p ** (field.theta_r * np.arange(order) % field.n)
        # every factor indexed [inner, term, row or col]
        a, b = a.transpose(2, 0, 1), b.transpose(1, 0, 2)
        short, long = (a, b) if terms_a <= terms_b else (b, a)
        d = np.arange(short.shape[1])[:, None]
        short_logs = log_of[short][:, :, None]
        band = max(1, _field.PASS_ELEMENTS // (len(d) * inner * cols))  # rows of A a pass
        step = max(1, _field.PASS_ELEMENTS // (len(d) * inner * min(band, rows) * cols))
        for start in range(0, total, step):
            stop = min(start + step, total)
            s = np.arange(start, stop)
            # window[:, w] holds the logs of the longer factor's term lo + w
            lo = start - len(d) + 1
            window = np.full((inner, len(s) + len(d) - 1, long.shape[2]), 2 * q1)
            part = long[:, max(lo, 0) : stop]
            window[:, max(-lo, 0) : max(-lo, 0) + part.shape[1]] = log_of[part]
            read = window[:, s - d - lo]  # [inner, d, s, row or col]
            la, lb = (short_logs, read) if short is a else (read, short_logs)
            if order > 1:  # theta^i multiplies a nonzero log by p^(r i mod n)
                i = (d if short is a else s - d)[..., None]
                lb = np.where(lb < q1, lb * powers[i % order] % q1, lb)
            for r in range(0, rows, band):
                x, y = (lb, la[..., r : r + band]) if flip else (la[..., r : r + band], lb)
                products = antilog[x[..., :, None] + y[..., None, :]]
                summed = field.sum(products.reshape(-1, *products.shape[2:]))
                view[start:stop, r : r + band] = summed.swapaxes(1, 2) if flip else summed
    return view

"""Syndrome former of the dual code.

Solves G(D) H^T(D) = 0 for an (n-k) x n polynomial matrix H(D) with
rank(H_0) = n - k, ascending in the dual memory.  Expanding the skew product
coefficientwise gives, for each product degree s,

    sum_i G_i * theta^i(H_{s-i}^T) = 0,

which is linear over the prime subfield in the base-p digits of the unknown
coefficients (theta twists the unknowns, so it is not linear over the full
field).  The solver works row by row on that digit system.
"""

import random

import numpy as np

from .linalg import f_matmul, f_rank, nullspace_mod_p
from .skewpoly import SkewPoly, SkewPolyMatrix

__all__ = ["SyndromeFormer", "SyndromeFormerNotFound", "syndrome_former", "verify_duality"]


class SyndromeFormerNotFound(Exception):
    def __init__(self, code, mu_perp_max):
        self.mu_perp_max = mu_perp_max
        super().__init__(
            f"no syndrome former with rank(H_0) = {code.n - code.k} found "
            f"for dual memory up to {mu_perp_max}"
        )


class SyndromeFormer:
    """Parity-check data of the dual code: H(D) with G(D) H^T(D) = 0."""

    def __init__(self, code, check, validate=True):
        if not isinstance(check, SkewPolyMatrix):
            raise ValueError("check must be a SkewPolyMatrix")
        if check.rows != code.n - code.k or check.cols != code.n:
            raise ValueError(
                f"check matrix must be {code.n - code.k} x {code.n}, "
                f"got {check.rows} x {check.cols}"
            )
        self.code = code
        self.field = code.field
        self.check = check
        self.dual_memory = int(max(check.degree, 0))
        if validate:
            if not (code.generator @ check.transpose()).is_zero:
                raise ValueError("G(D) H^T(D) != 0")
            if f_rank(self.field, check.coefficient_values(0)) != check.rows:
                raise ValueError("rank(H_0) < n - k")

    def coefficient_values(self, i):
        return self.check.coefficient_values(i)

    def ht_window(self, t_rows):
        """Window of the semi-infinite transposed check matrix: block row t
        carries theta^t(H_i^T) at block column t + i."""
        if t_rows < 1:
            raise ValueError("t_rows must be >= 1")
        f = self.field
        n = self.code.n
        r = self.check.rows
        mu_perp = self.dual_memory
        out = np.zeros((t_rows * n, (t_rows + mu_perp) * r), dtype=np.int64)
        for t in range(t_rows):
            for i in range(mu_perp + 1):
                hi = self.coefficient_values(i)
                for a in range(r):
                    for b in range(n):
                        out[t * n + b, (t + i) * r + a] = f.frobenius_int(hi[a][b], t)
        return out

    def h_window(self, t_cols):
        """Window of the parity check matrix in column-stationary layout:
        block (row r, col c) carries theta^c(H_{r-c}), the transpose of
        `ht_window(t_cols)`."""
        return self.ht_window(t_cols).T

    def __repr__(self):
        return f"SyndromeFormer(dual_memory={self.dual_memory}, check={self.check!r})"


def _solve_single_row(code, mu_perp):
    """All rows h(D) of degree <= mu_perp with G(D) h^T(D) = 0, as a basis of
    the solution space over the prime subfield."""
    field = code.field
    p, e = field.p, field.n
    k, n, mu = code.k, code.n, code.memory
    num_field_vars = n * (mu_perp + 1)
    ncols = num_field_vars * e
    nrows = k * (mu + mu_perp + 1) * e
    system = [[0] * ncols for _ in range(nrows)]
    basis_imgs = {}  # (coeff value, twist) -> per-digit image digit-columns
    for s in range(mu + mu_perp + 1):
        for out_row in range(k):
            eq_base = (s * k + out_row) * e
            for j in range(mu_perp + 1):
                i = s - j
                if not 0 <= i <= mu:
                    continue
                gi = code.generator.coefficient_values(i)
                for col in range(n):
                    a = gi[out_row][col]
                    if a == 0:
                        continue
                    key = (a, i % max(field.automorphism_order, 1))
                    cols = basis_imgs.get(key)
                    if cols is None:
                        cols = []
                        for d in range(e):
                            img = field.mul_int(a, field.frobenius_int(p**d, i))
                            cols.append(field.to_digits(img))
                        basis_imgs[key] = cols
                    var_base = (j * n + col) * e
                    for d in range(e):
                        digits = cols[d]
                        row_sys = var_base + d
                        for dd in range(e):
                            if digits[dd]:
                                system[eq_base + dd][row_sys] = (
                                    system[eq_base + dd][row_sys] + digits[dd]
                                ) % p
    basis = nullspace_mod_p(p, system, ncols)
    rows = []
    for vec in basis:
        coeffs = []
        for j in range(mu_perp + 1):
            coeff = []
            for col in range(n):
                var_base = (j * n + col) * e
                coeff.append(field.from_digits(vec[var_base : var_base + e]))
            coeffs.append(coeff)
        rows.append(coeffs)  # rows[b][j][col]
    return rows


def _right_scale(field, row, c):
    """row * c in the skew ring: coefficient j picks up theta^j(c)."""
    return [
        [field.mul_int(v, field.frobenius_int(c, j)) for v in coeff]
        for j, coeff in enumerate(row)
    ]


def _row_add(field, row_a, row_b):
    return [
        [field.add_int(x, y) for x, y in zip(ca, cb)] for ca, cb in zip(row_a, row_b)
    ]


def _normalize_rows(field, rows):
    """Gauss-Jordan on the H_0 blocks using right scalar operations only
    (which preserve the solution space); H_0 ends in reduced echelon form."""
    rows = [list(map(list, r)) for r in rows]
    n = len(rows[0][0])
    pivot_rows = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][0][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv_int(rows[r][0][col])
        rows[r] = _right_scale(field, rows[r], inv)
        for i in range(len(rows)):
            if i != r and rows[i][0][col]:
                scaled = _right_scale(field, rows[r], field.neg_int(rows[i][0][col]))
                rows[i] = _row_add(field, rows[i], scaled)
        pivot_rows.append(r)
        r += 1
        if r == len(rows):
            break
    return rows


def syndrome_former(code, mu_perp_max=None):
    """Smallest-dual-memory syndrome former of the code.

    Raises SyndromeFormerNotFound if no H(D) with rank(H_0) = n - k exists up
    to the dual-memory cap (default n * memory), and ValueError if the cap is
    negative.
    """
    code.require_left_module("the syndrome former")
    if mu_perp_max is not None and mu_perp_max < 0:
        raise ValueError(f"mu_perp_max must be >= 0, got {mu_perp_max}")
    if mu_perp_max is None:
        mu_perp_max = code.n * max(code.memory, 1)
    field = code.field
    need = code.n - code.k
    if need == 0:
        raise ValueError("rate-1 code has no dual syndrome former with rank n - k > 0")
    for mu_perp in range(mu_perp_max + 1):
        candidates = _solve_single_row(code, mu_perp)
        if not candidates:
            continue
        chosen = []
        h0_stack = []
        for cand in candidates:
            trial = h0_stack + [cand[0]]
            if f_rank(field, trial) == len(trial):
                chosen.append(cand)
                h0_stack = trial
                if len(chosen) == need:
                    break
        if len(chosen) < need:
            continue
        chosen = _normalize_rows(field, chosen)
        table = [
            [[coeffs[j][col] for j in range(mu_perp + 1)] for col in range(code.n)]
            for coeffs in chosen
        ]
        check = SkewPolyMatrix.from_ints(field, table)
        return SyndromeFormer(code, check)
    raise SyndromeFormerNotFound(code, mu_perp_max)


def verify_duality(code, check, num_words=20, length=8, rng=None):
    """Three-way duality check: the polynomial product vanishes, random
    terminated codewords have zero syndrome on a finite window, and random
    dual-window codewords are orthogonal to random codewords under the plain
    scalar product."""
    code.require_left_module("the duality check")
    sf = check if isinstance(check, SyndromeFormer) else SyndromeFormer(code, check, validate=False)
    field = code.field
    if not (code.generator @ sf.check.transpose()).is_zero:
        return False

    rng = rng or random.Random(0)
    mu = code.memory
    info_len = max(length - mu, 1)
    total = info_len + mu
    # every word is drawn first, with the generator's state after it, and
    # all are encoded at once and checked by one syndrome product
    words, states = [], []
    for _ in range(num_words):
        words.append([rng.randrange(field.size) for _ in range(code.k * info_len)])
        states.append(rng.getstate())
    info = np.array(words, dtype=np.intp).reshape(num_words, info_len, code.k)
    codewords = code.encode_batch(info, terminate=True).reshape(num_words, total * code.n)
    ht = sf.ht_window(total)
    bad = f_matmul(field, codewords, ht).any(axis=1)
    if bad.any():
        # the generator as left by a check that stops at the first bad word
        rng.setstate(states[int(bad.argmax())])
        return False

    # the random codewords of both windows, drawn pairwise as before and
    # checked at once: every pair must be orthogonal
    hw = ht.T  # the same as sf.h_window(total)
    gw = code.scalar_generator(info_len)
    u_rows, w_rows, states = [], [], []
    for _ in range(num_words):
        u_rows.append([rng.randrange(field.size) for _ in range(gw.shape[0])])
        w_rows.append([rng.randrange(field.size) for _ in range(hw.shape[0])])
        states.append(rng.getstate())
    v = f_matmul(field, np.array(u_rows, dtype=np.int64).reshape(num_words, gw.shape[0]), gw)
    vperp = f_matmul(field, np.array(w_rows, dtype=np.int64).reshape(num_words, hw.shape[0]), hw)
    bad = field.sum(field.mul(v, vperp).T) != 0
    if bad.any():
        rng.setstate(states[int(bad.argmax())])
        return False
    return True

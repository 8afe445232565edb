"""Syndrome former of the dual code.

Solves G(D) H^T(D) = 0 for an (n-k) x n polynomial matrix H(D) with
rank(H_0) = n - k, ascending in the dual memory mu_perp.  A row
h(D) = sum_j h_j D^j of H meets G(D) = sum_i G_i D^i through
(G_i D^i)(h_j D^j)^T = G_i theta^i(h_j)^T D^(i+j), so for each product
degree s

    sum_i G_i theta^i(h_(s-i))^T = 0.

In the unknowns x_j = theta^-j(h_j), theta^i(h_(s-i)) = theta^s(x_(s-i)),
and applying theta^-s to the equation gives

    sum_i theta^-s(G_i) x_(s-i)^T = 0,

which is linear over the whole field: one k(mu + mu_perp + 1) x
n(mu_perp + 1) system per dual memory, solved by `linalg.f_nullspace`: the
transposed theta^-1 window f_window(theta^-i(G_i)^T, mu_perp + 1, twist=-1),
whose block row j holds theta^-(i+j)(G_i)^T at block column s = i + j.
A right scalar multiple h(D) c has x_j c as its unknowns, so right scalar
row operations on H are plain row operations on the rows x.  The solver
keeps the first n - k basis rows whose x_0 = h_0 are independent, brings
H_0 to reduced echelon form by one elimination of those rows x, and
returns h_j = theta^j(x_j).

G(D) H^T(D) = 0 is decided on the windows too: block column s of
f_window(G, 1) f_window(H^T, mu + 1) is sum_i G_i theta^i(H_(s-i))^T.
"""

import random

import numpy as np

from .code import _redraw
from .field import _read_only
from .linalg import f_matmul, f_nullspace, f_rank, f_rref, f_window
from .skewpoly import SkewPolyMatrix

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
        """With validate, G(D) H^T(D) = 0 and rank(H_0) = n - k are checked."""
        if not isinstance(check, SkewPolyMatrix):
            raise ValueError("check must be a SkewPolyMatrix")
        if check.rows != code.n - code.k or check.cols != code.n:
            raise ValueError(
                f"check matrix must be {code.n - code.k} x {code.n}, "
                f"got {check.rows} x {check.cols}"
            )
        if check.field != code.field:
            raise ValueError("mixed-field operands")
        self.code = code
        self.field = code.field
        self.check = check
        self.dual_memory = int(max(check.degree, 0))
        # H_0 .. H_mu_perp as one read-only integer array, indexed [i, row, col]
        values = [check.coefficient_values(i) for i in range(self.dual_memory + 1)]
        self.coefficients = _read_only(np.array(values, dtype=np.intp))
        if validate:
            if not _annihilates(self.field, code.coefficients, self.coefficients):
                raise ValueError("G(D) H^T(D) != 0")
            if f_rank(self.field, self.coefficients[0]) != check.rows:
                raise ValueError("rank(H_0) < n - k")

    def coefficient_values(self, i):
        """H_i as nested integer lists, zero outside 0 .. dual_memory."""
        if not 0 <= i <= self.dual_memory:
            return np.zeros_like(self.coefficients[0]).tolist()
        return self.coefficients[i].tolist()

    def ht_window(self, t_rows):
        """Window of the semi-infinite transposed check matrix: block row t
        carries theta^t(H_i^T) at block column t + i."""
        if t_rows < 1:
            raise ValueError("t_rows must be >= 1")
        return f_window(self.field, self.coefficients.transpose(0, 2, 1), t_rows)

    def h_window(self, t_cols):
        """Window of the parity check matrix in column-stationary layout:
        block (row r, col c) carries theta^c(H_{r-c}), the transpose of
        `ht_window(t_cols)`."""
        return self.ht_window(t_cols).T

    def __repr__(self):
        return f"SyndromeFormer(dual_memory={self.dual_memory}, check={self.check!r})"


def _annihilates(field, g, h):
    """G(D) H^T(D) = 0, for G and H given as coefficient arrays
    [i, row, col]: block row 0 of the window product is zero."""
    ht = f_window(field, h.transpose(0, 2, 1), len(g))
    return not f_matmul(field, f_window(field, g, 1), ht).any()


def _solutions(code, mu_perp):
    """Basis, in free-column order, of the x = (x_0, ..., x_mu_perp) of
    length n (mu_perp + 1) with sum_i theta^-s(G_i) x_(s-i)^T = 0 for every
    product degree s: the kernel of the transposed theta^-1 window."""
    field = code.field
    delays = np.arange(code.memory + 1)[:, None, None]
    gt = field.frobenius(code.coefficients, -delays).transpose(0, 2, 1)
    return f_nullspace(field, f_window(field, gt, mu_perp + 1, twist=-1).T)


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
    field, n = code.field, code.n
    need = n - code.k
    if need == 0:
        raise ValueError("rate-1 code has no dual syndrome former with rank n - k > 0")
    for mu_perp in range(mu_perp_max + 1):
        x = _solutions(code, mu_perp)
        # the first solutions whose x_0 = h_0 rows are independent: the
        # pivot columns of those rows side by side
        chosen = f_rref(field, x[:, :n].T)[1][:need]
        if len(chosen) < need:
            continue
        # x_0 of the chosen rows has full row rank, so every pivot of their
        # rref lies in x_0: the rref is T x with T x_0 in reduced echelon form
        x = f_rref(field, x[chosen])[0].reshape(need, mu_perp + 1, n)
        h = field.frobenius(x, np.arange(mu_perp + 1)[:, None])
        check = SkewPolyMatrix.from_ints(field, h.transpose(0, 2, 1).tolist())
        return SyndromeFormer(code, check)
    raise SyndromeFormerNotFound(code, mu_perp_max)


def verify_duality(code, check, num_words=20, length=8, rng=None):
    """Three-way duality check: the polynomial product vanishes, random
    terminated codewords have zero syndrome on a finite window, and random
    dual-window codewords are orthogonal to random codewords under the plain
    scalar product.

    The product is decided on the coefficient windows by the check that
    `SyndromeFormer` validates with.  Each random phase draws all its words
    first and checks them at once; on a failure the generator is set back to
    the state saved before the phase and the words up to the first bad one
    are drawn again, so it is left where a check that stops there leaves it.
    """
    code.require_left_module("the duality check")
    sf = check if isinstance(check, SyndromeFormer) else SyndromeFormer(code, check, validate=False)
    field = code.field
    if not _annihilates(field, code.coefficients, sf.coefficients):
        return False

    rng = rng or random.Random(0)
    q = field.size
    info_len = max(length - code.memory, 1)
    total = info_len + code.memory

    def word():
        return [rng.randrange(q) for _ in range(code.k * info_len)]

    # every word is encoded at once and checked by one syndrome product
    start = rng.getstate()
    words = [word() for _ in range(num_words)]
    info = np.array(words, dtype=np.intp).reshape(num_words, info_len, code.k)
    codewords = code.encode_batch(info, terminate=True).reshape(num_words, total * code.n)
    ht = sf.ht_window(total)
    bad = f_matmul(field, codewords, ht).any(axis=1)
    if bad.any():
        _redraw(rng, start, word, int(bad.argmax()) + 1)
        return False

    # the random codewords of both windows, drawn pairwise and checked at
    # once: every pair must be orthogonal
    hw = ht.T  # the same as sf.h_window(total)
    gw = code.scalar_generator(info_len)

    def pair():
        u = [rng.randrange(q) for _ in range(gw.shape[0])]
        return u, [rng.randrange(q) for _ in range(hw.shape[0])]

    start = rng.getstate()
    pairs = [pair() for _ in range(num_words)]
    u_rows = np.array([u for u, _ in pairs], dtype=np.int64).reshape(num_words, gw.shape[0])
    w_rows = np.array([w for _, w in pairs], dtype=np.int64).reshape(num_words, hw.shape[0])
    v = f_matmul(field, u_rows, gw)
    vperp = f_matmul(field, w_rows, hw)
    bad = field.sum(field.mul(v, vperp).T) != 0
    if bad.any():
        _redraw(rng, start, pair, int(bad.argmax()) + 1)
        return False
    return True

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
transposed window f_window(G^T, mu_perp + 1, twist=-1, delay_twist=-1),
whose block row j holds theta^-(i+j)(G_i)^T at block column s = i + j.
A right scalar multiple h(D) c has x_j c as its unknowns, so right scalar
row operations on H are plain row operations on the rows x.  The solver
keeps the first n - k basis rows whose x_0 = h_0 are independent, brings
H_0 to reduced echelon form by one elimination of those rows x, and
returns h_j = theta^j(x_j).

G(D) H^T(D) = 0 is decided by the one skew product, `linalg.f_polymul`,
itself a product of two windows.
"""

import random

import numpy as np

from .code import _draw_symbols, _redraw
from .linalg import f_matmul, f_nullspace, f_polymul, f_rank, f_rref, f_window
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
    """Parity-check data of the dual code: H(D) with G(D) H^T(D) = 0, held
    once, as the SkewPolyMatrix `check`, whose read-only array
    `coefficients` of H_0 .. H_dual_memory is indexed [i, row, col]."""

    def __init__(self, code, check, validate=True):
        """check is H(D) as a SkewPolyMatrix.  With validate,
        G(D) H^T(D) = 0 and rank(H_0) = n - k are checked."""
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
        if validate:
            if not _annihilates(self.field, code.coefficients, self.coefficients):
                raise ValueError("G(D) H^T(D) != 0")
            if f_rank(self.field, self.coefficient_values(0)) != code.n - code.k:
                raise ValueError("rank(H_0) < n - k")

    @property
    def coefficients(self):
        return self.check.coefficients

    def coefficient_values(self, i):
        """H_i as nested integer lists, zero outside 0 .. dual_memory."""
        return self.check.coefficient_values(i)

    def ht_window(self, t_rows):
        """Window of the semi-infinite transposed check matrix: block row t
        carries theta^t(H_i^T) at block column t + i."""
        if t_rows < 1:
            raise ValueError("t_rows must be >= 1")
        h = self.coefficients.transpose(0, 2, 1)
        if not len(h):  # a zero check holds no terms; its window is that of one zero term
            h = np.zeros((1, *h.shape[1:]), dtype=np.intp)
        return f_window(self.field, h, t_rows)

    def h_window(self, t_cols):
        """Window of the parity check matrix in column-stationary layout:
        block (row r, col c) carries theta^c(H_{r-c}), the transpose of
        `ht_window(t_cols)`."""
        return self.ht_window(t_cols).T

    def __repr__(self):
        return f"SyndromeFormer(dual_memory={self.dual_memory}, check={self.check!r})"


def _annihilates(field, g, h):
    """G(D) H^T(D) = 0, for G and H given as coefficient arrays
    [i, row, col]."""
    return not f_polymul(field, g, h.transpose(0, 2, 1)).any()


def _system(code, mu_perp):
    """The matrix of the equations sum_i theta^-s(G_i) x_(s-i)^T = 0, one
    block row of k per product degree s, over x = (x_0, ..., x_mu_perp):
    the transposed window whose block row j holds theta^-(i + j)(G_i)^T at
    block column s = i + j."""
    gt = code.coefficients.transpose(0, 2, 1)
    return f_window(code.field, gt, mu_perp + 1, twist=-1, delay_twist=-1).T


def _solutions(code, mu_perp):
    """Basis, in free-column order, of the x of length n (mu_perp + 1) with
    `_system(code, mu_perp)` x^T = 0."""
    return f_nullspace(code.field, _system(code, mu_perp))


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
        # h_j = theta^j(x_j), as the coefficient array [j, row, col]; the
        # last is nonzero, or the rows would solve for a smaller mu_perp
        h = field.frobenius(x.transpose(1, 0, 2), np.arange(mu_perp + 1)[:, None, None])
        return SyndromeFormer(code, SkewPolyMatrix._trusted(field, h))
    raise SyndromeFormerNotFound(code, mu_perp_max)


def verify_duality(code, check, num_words=20, length=8, rng=None):
    """Three-way duality check: the polynomial product vanishes, random
    terminated codewords have zero syndrome on a finite window, and random
    dual-window codewords are orthogonal to random codewords under the plain
    scalar product.

    The product is decided on the coefficient windows by the check that
    `SyndromeFormer` validates with.  Each random phase saves the generator's
    state once, draws all its words as one block of symbols
    (`code._draw_symbols`: the symbols and the final state of a loop of
    randrange(q)) and checks them at once; on a failure the generator is set
    back to the saved state and the words up to the first bad one are drawn
    again, so it is left where a check that stops there leaves it.
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
    info = _draw_symbols(rng, q, num_words * code.k * info_len, start)
    info = info.reshape(num_words, info_len, code.k)
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
    rows = len(gw)

    def pair():
        u = [rng.randrange(q) for _ in range(rows)]
        return u, [rng.randrange(q) for _ in range(len(hw))]

    start = rng.getstate()
    pairs = _draw_symbols(rng, q, num_words * (rows + len(hw)), start)
    pairs = pairs.reshape(num_words, rows + len(hw))
    v = f_matmul(field, pairs[:, :rows], gw)
    vperp = f_matmul(field, pairs[:, rows:], hw)
    bad = field.sum(field.mul(v, vperp).T) != 0
    if bad.any():
        _redraw(rng, start, pair, int(bad.argmax()) + 1)
        return False
    return True

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

which is linear over the whole field: a k(mu + mu_perp + 1) x
n(mu_perp + 1) system S(mu_perp), the transposed window
f_window(G^T, mu_perp + 1, twist=-1, delay_twist=-1), whose block row j
holds theta^-(i+j)(G_i)^T at block column s = i + j.

One Gauss-Jordan elimination serves every dual memory up to the largest
one M eliminated.  The unknown x_j enters only the equations s <= j + mu,
so the first n(m + 1) columns of S(M) are S(m) above zero rows.  The
reduced echelon form of a matrix is unique and its left blocks are in
reduced echelon form, so the first n(m + 1) columns of rref(S(M)) are
rref(S(m)) above zero rows, and the nullspace of S(m) is read off them
(`linalg.f_rref_nullspace`).  M starts at ceil(k mu / (n - k)) and, when
the search passes it, doubles its unknown blocks, within the cap and the
entry budget `code.RANK_WINDOW_BUDGET`, read there at each search.

A right scalar multiple h(D) c has x_j c as its unknowns, so right scalar
row operations on H are plain row operations on the rows x.  The solver
keeps the first n - k basis rows whose x_0 = h_0 are independent, brings
H_0 to reduced echelon form by one elimination of those rows x, and
returns h_j = theta^j(x_j).

G(D) H^T(D) = 0 is decided by the one skew product, `linalg.f_polymul`,
itself a product of two windows.  `verify_duality` decides it first and
then checks random codewords of both windows, each phase's symbols one
block of rng.randbytes words.
"""

import bisect
import math
import random

import numpy as np

from . import code as _code, trellis as _trellis
from .code import _capped_window
from .field import _integral, _same_field, _within
from .linalg import f_matmul, f_polymul, f_rank, f_rref, f_rref_nullspace, f_window
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
        _same_field(check.field, code.field)
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
        carries theta^t(H_i^T) at block column t + i.  One over
        `trellis.EDGE_BUDGET` entries is refused."""
        h = self.coefficients.transpose(0, 2, 1)
        if not len(h):  # a zero check holds no terms; its window is that of one zero term
            h = np.zeros((1, *h.shape[1:]), dtype=np.intp)
        return _capped_window(self.field, h, t_rows)

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


def _system_entries(code, mu_perp):
    """The entries, rows x columns, of `_system(code, mu_perp)`."""
    return code.k * (code.memory + mu_perp + 1) * code.n * (mu_perp + 1)


def _eliminated_memory(code, untried, eliminated, mu_perp_max):
    """The dual memory whose system the search eliminates next, when it
    reaches dual memory `untried` past the last one eliminated: first
    ceil(k mu / (n - k)), then twice the unknown blocks of the last, at least
    `untried` and at most the cap, cut to the largest within
    `code.RANK_WINDOW_BUDGET` entries.  ValueError if `untried`'s own system
    is over the budget."""
    budget = _code.RANK_WINDOW_BUDGET
    what = f"the syndrome former's system for dual memory {untried}"
    _within(_system_entries(code, untried), budget, what)
    if eliminated < 0:
        target = -(-code.k * code.memory // (code.n - code.k))
    else:
        target = 2 * eliminated + 1
    within = range(untried, max(untried, min(target, mu_perp_max)) + 1)
    fits = bisect.bisect_right(within, budget, key=lambda m: _system_entries(code, m))
    return within[fits - 1]


def syndrome_former(code, mu_perp_max=None):
    """Smallest-dual-memory syndrome former of the code.

    Raises SyndromeFormerNotFound if no H(D) with rank(H_0) = n - k exists up
    to the dual-memory cap (default n * memory), and ValueError if the cap is
    negative or if the search reaches a dual memory whose system has more
    than `code.RANK_WINDOW_BUDGET` entries.
    """
    code.require_left_module("the syndrome former")
    if mu_perp_max is None:
        mu_perp_max = code.n * max(code.memory, 1)
    elif _integral(mu_perp_max, "mu_perp_max") < 0:
        raise ValueError(f"mu_perp_max must be >= 0, got {mu_perp_max}")
    field, n = code.field, code.n
    need = n - code.k
    if need == 0:
        raise ValueError("rate-1 code has no dual syndrome former with rank n - k > 0")
    eliminated = -1
    for mu_perp in range(mu_perp_max + 1):
        if mu_perp > eliminated:
            eliminated = _eliminated_memory(code, mu_perp, eliminated, mu_perp_max)
            rref, pivots = f_rref(field, _system(code, eliminated))
        cols = n * (mu_perp + 1)
        if cols - bisect.bisect_left(pivots, cols) < need:
            continue  # fewer solutions than rows of H
        x = f_rref_nullspace(field, rref, pivots, cols)
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
    scalar product.  The codewords are `length` blocks long, terminated; a
    length at or below the code's memory is raised to memory + 1 blocks.

    The product is decided first, on the coefficient windows, by the check
    that `SyndromeFormer` validates with.  Then both windows are built and
    the num_words x length x n codeword symbols counted against
    `trellis.EDGE_BUDGET`, each refused over it before any draw.  Each
    random phase then draws all its symbols as one block, a word of
    rng.randbytes mod q a symbol (`_symbols`), and checks them at once; the
    generator is left after the block, whether or not the phase fails.
    """
    num_words = _integral(num_words, "num_words", 0)
    length = _integral(length, "length")
    code.require_left_module("the duality check")
    sf = check if isinstance(check, SyndromeFormer) else SyndromeFormer(code, check, validate=False)
    field = code.field
    if not _annihilates(field, code.coefficients, sf.coefficients):
        return False

    rng = rng or random.Random(0)
    q = field.size
    info_len = max(length - code.memory, 1)
    total = info_len + code.memory
    gw, ht = code.scalar_generator(info_len), sf.ht_window(total)
    what = f"a duality check of {num_words} codeword(s) of {total} blocks x {code.n} symbols"
    _within(num_words * total * code.n, _trellis.EDGE_BUDGET, what, "symbols")

    # every word is encoded at once and checked by one syndrome product
    info = _symbols(rng, q, (num_words, info_len, code.k))
    codewords = code.encode_batch(info, terminate=True).reshape(num_words, total * code.n)
    if f_matmul(field, codewords, ht).any():
        return False

    # random codewords of both windows, a pair a row, checked at once: every
    # pair must be orthogonal
    hw = ht.T  # the same as sf.h_window(total)
    rows = len(gw)
    inputs = _symbols(rng, q, (num_words, rows + len(hw)))
    v = f_matmul(field, inputs[:, :rows], gw)
    vperp = f_matmul(field, inputs[:, rows:], hw)
    return not field.sum(field.mul(v, vperp).T).any()


def _symbols(rng, q, shape):
    """An array of random symbols below q: one block of rng.randbytes, its
    little-endian 32-bit words mod q."""
    return np.frombuffer(rng.randbytes(4 * math.prod(shape)), "<u4").reshape(shape) % q

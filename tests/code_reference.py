"""Scalar reference implementations of the array encoder, the linear
algebra and the analysis checks built on them, kept as test oracles for
`SkewConvCode.encode_batch`, the code's twisted coefficient tables and
windows, `linalg.f_rref`, `linalg.f_nullspace`, `linalg.f_matmul`,
`dual.syndrome_former` and its system, `SyndromeFormer.ht_window`,
`dual.verify_duality` and `skewtrellis.linearity_report`.

Each is the per-symbol (or per-word) loop the library ran before its array
form: `encode` walks every time, delay, row and output symbol; the windows
and tables twist one entry at a time; `f_rref` and `nullspace_mod_p` reduce
one row at a time, and `f_rref_by_rows` too, a row operation at a time
through the field's array operations; `syndrome_former` solves G(D) h^T(D) = 0 over the prime
subfield, in the base-p digits of the unknowns; the duality check reads
each random phase's words one getrandbits(32) at a time, then encodes one
word at a time and stops at the first that fails, so the generator is left
after the phase's words whatever the outcome; the linearity report sweeps
its witness inputs one at a time.
"""

import itertools
import random

import numpy as np

import field_reference
from skewconv import Sequence
from skewconv.dual import SyndromeFormer
from skewconv.linalg import f_window
from skewconv.skewpoly import SkewPolyMatrix
from skewconv.trellis import unpack_digits


def encode(code, u, terminate=False):
    """The twisted convolution one symbol at a time: the input u_{t-i} meets
    the delay-i table of phase t mod period as theta^(i * register_twist)(u_{t-i})."""
    u = code.coerce_sequence(u, code.k)
    f = code.field
    twist = code.register_twist
    total = len(u) + (code.memory if terminate else 0)
    ublocks = u.to_ints()
    out = []
    for t in range(total):
        acc = [0] * code.n
        coeffs = code.phase_coefficients[t % code.period]
        for i in range(code.memory + 1):
            s = t - i
            if not 0 <= s < len(ublocks):
                continue
            mat = coeffs[i]
            for row, usym in enumerate(ublocks[s]):
                if usym == 0:
                    continue
                if twist:
                    usym = f.frobenius_int(usym, i * twist)
                for j in range(code.n):
                    g = mat[row][j]
                    if g:
                        acc[j] = f.add_int(acc[j], f.mul_int(usym, g))
        out.append(acc)
    return Sequence(f, out, width=code.n)


def f_matmul(field, a, b):
    """Matrix product over the field, one row and one nonzero term at a time."""
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    b_rows = b.tolist()
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i, a_row in enumerate(a.tolist()):
        acc = [0] * b.shape[1]
        for x, b_row in zip(a_row, b_rows):
            if x == 0:
                continue
            for j, y in enumerate(b_row):
                if y:
                    acc[j] = field.add_int(acc[j], field.mul_int(x, y))
        out[i] = acc
    return out


def words(rng, m):
    """m words of rng, one getrandbits(32) at a time: the little-endian
    32-bit words of one rng.randbytes(4 m) block."""
    return iter([rng.getrandbits(32) for _ in range(m)])


def verify_duality(code, check, num_words=20, length=8, rng=None):
    """The duality check one word at a time, stopping at the first failure;
    codewords come from `code.encode`.  Each random phase draws its words
    first, so the generator ends after them however soon the phase stops."""
    code.require_left_module("the duality check")
    sf = check if isinstance(check, SyndromeFormer) else SyndromeFormer(code, check, validate=False)
    field = code.field
    if not (code.generator @ sf.check.transpose()).is_zero:
        return False

    rng = rng or random.Random(0)
    q = field.size
    mu = code.memory
    info_len = max(length - mu, 1)
    total = info_len + mu
    ht = sf.ht_window(total)
    symbols = words(rng, num_words * info_len * code.k)
    for _ in range(num_words):
        u = [[next(symbols) % q for _ in range(code.k)] for _ in range(info_len)]
        v = code.encode(u, terminate=True).flat_values()
        if f_matmul(field, [v], ht).any():
            return False

    hw = sf.h_window(total)
    gw = code.scalar_generator(info_len)
    symbols = words(rng, num_words * (gw.shape[0] + hw.shape[0]))
    for _ in range(num_words):
        u = [next(symbols) % q for _ in range(gw.shape[0])]
        w = [next(symbols) % q for _ in range(hw.shape[0])]
        v = f_matmul(field, [u], gw)
        vperp = f_matmul(field, [w], hw)
        if f_matmul(field, v, vperp.T).any():
            return False
    return True


def linearity_report(code, witness_len=2):
    """The linearity report with its witness sweep one input at a time;
    returns (fixed_subfield, additive_ok, subfield_homogeneous, witness),
    both flags True, with the witness codewords from `code.encode`."""
    field = code.field
    q, k = field.size, code.k
    witness = None
    if field.automorphism_order > 1:
        for a in range(1, q):
            if witness:
                break
            for blocks in itertools.product(range(q**k), repeat=witness_len):
                useq = Sequence(field, [unpack_digits(b, q, k) for b in blocks], width=k)
                lhs = code.encode(useq.scale(a), terminate=True)
                rhs = code.encode(useq, terminate=True).scale(a)
                if lhs != rhs:
                    witness = (a, useq.to_ints(), lhs, rhs)
                    break
    return field.fixed_subfield(), True, True, witness


# -- twisted coefficient tables and windows -----------------------------------


def twist_matrix(field, mat, power):
    return [[field.frobenius_int(v, power) for v in row] for row in mat]


def phase_coefficients(code):
    """theta^(s - i)(G_i) for every phase s and delay i of a left-module code."""
    coeff = [code.generator.coefficient_values(i) for i in range(code.memory + 1)]
    return [[twist_matrix(code.field, coeff[i], s - i) for i in range(code.memory + 1)] for s in range(code.period)]


def scalar_generator(code, t_rows, form="standard"):
    """Block row t carries theta^t(G_i), or theta^(t+i)(G~_i) with
    G~_i = theta^-i(G_i), at block column t + i."""
    f = code.field
    k, n, mu = code.k, code.n, code.memory
    out = np.zeros((t_rows * k, (t_rows + mu) * n), dtype=np.int64)
    for t in range(t_rows):
        for i in range(mu + 1):
            g = code.generator.coefficient_values(i)
            if form == "standard":
                block = twist_matrix(f, g, t)
            else:
                block = twist_matrix(f, twist_matrix(f, g, -i), t + i)
            out[t * k : (t + 1) * k, (t + i) * n : (t + i + 1) * n] = block
    return out


def tau_block(code):
    """The regrouped fixed code's generator, one entry at a time."""
    tau, f = code.period, code.field
    k, n, mu = code.k, code.n, code.memory
    coeff_mats = []
    for j in range((mu + tau - 1) // tau + 1):
        big = [[0] * (tau * n) for _ in range(tau * k)]
        for a in range(tau):
            for b in range(tau):
                i = b - a + j * tau
                if not 0 <= i <= mu:
                    continue
                block = twist_matrix(f, code.generator.coefficient_values(i), a)
                for r in range(k):
                    for c in range(n):
                        big[a * k + r][b * n + c] = block[r][c]
        coeff_mats.append(big)
    return SkewPolyMatrix.from_coefficients(f, coeff_mats)


def ht_window(sf, t_rows):
    """Block row t carries theta^t(H_i^T) at block column t + i."""
    f = sf.field
    n, r, mu_perp = sf.code.n, sf.check.rows, sf.dual_memory
    out = np.zeros((t_rows * n, (t_rows + mu_perp) * r), dtype=np.int64)
    for t in range(t_rows):
        for i in range(mu_perp + 1):
            hi = sf.coefficient_values(i)
            for a in range(r):
                for b in range(n):
                    out[t * n + b, (t + i) * r + a] = f.frobenius_int(hi[a][b], t)
    return out


# -- linear algebra, one row at a time -----------------------------------------


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
        inv = field_reference.inv(field, int(m[r, c]))
        m[r] = [field.mul_int(int(v), inv) for v in m[r]]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                factor = int(m[i, c])
                m[i] = [
                    field_reference.sub(field, int(v), field.mul_int(factor, int(w)))
                    for v, w in zip(m[i], m[r])
                ]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def f_rref_by_rows(field, mat):
    """`f_rref`'s elimination with each row operation one call of the
    field's array `mul` and `add` on a whole row: fast enough for the large
    matrices, and checked against `f_rref` on the small ones."""
    m = np.array(mat, dtype=np.int64)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = field.mul(m[r], field_reference.inv(field, int(m[r, c])))
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = field.add(m[i], field.mul(m[r], field_reference.neg(field, int(m[i, c]))))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def f_rank(field, mat):
    return len(f_rref(field, mat)[1])


def nullspace_mod_p(p, rows, ncols):
    """Basis of the right nullspace of a matrix over GF(p), as a list of
    length-ncols vectors in free-column order."""
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


# -- the syndrome former over the prime subfield -------------------------------


def syndrome_system(code, mu_perp):
    """The syndrome former's system as built with two twists: theta^-i on
    G_i, then theta^-j on block row j of the transposed window."""
    field = code.field
    delays = np.arange(code.memory + 1)[:, None, None]
    gt = field.frobenius(code.coefficients, -delays).transpose(0, 2, 1)
    return f_window(field, gt, mu_perp + 1, twist=-1).T


def digit_solutions(code, mu_perp):
    """All rows h(D) of degree <= mu_perp with G(D) h^T(D) = 0, as a basis
    over the prime subfield: sum_i G_i theta^i(h_{s-i}^T) = 0 for every s,
    in the base-p digits of the unknown coefficients.  rows[b][j][col]."""
    field = code.field
    p, e = field.p, field.n
    k, n, mu = code.k, code.n, code.memory
    ncols = n * (mu_perp + 1) * e
    system = [[0] * ncols for _ in range(k * (mu + mu_perp + 1) * e)]
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
                    var_base = (j * n + col) * e
                    for d in range(e):
                        img = field.to_digits(field.mul_int(a, field.frobenius_int(p**d, i)))
                        for dd in range(e):
                            row = system[eq_base + dd]
                            row[var_base + d] = (row[var_base + d] + img[dd]) % p
    rows = []
    for vec in nullspace_mod_p(p, system, ncols):
        rows.append(
            [
                [field.from_digits(vec[(j * n + col) * e : (j * n + col + 1) * e]) for col in range(n)]
                for j in range(mu_perp + 1)
            ]
        )
    return rows


def _right_scale(field, row, c):
    """row * c in the skew ring: coefficient j picks up theta^j(c)."""
    return [[field.mul_int(v, field.frobenius_int(c, j)) for v in coeff] for j, coeff in enumerate(row)]


def normalize_rows(field, rows):
    """Gauss-Jordan on the H_0 blocks by right scalar operations only (which
    keep the solution space); H_0 ends in reduced echelon form."""
    rows = [list(map(list, r)) for r in rows]
    n = len(rows[0][0])
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][0][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = _right_scale(field, rows[r], field_reference.inv(field, rows[r][0][col]))
        for i in range(len(rows)):
            if i != r and rows[i][0][col]:
                scaled = _right_scale(field, rows[r], field_reference.neg(field, rows[i][0][col]))
                rows[i] = [
                    [field.add_int(x, y) for x, y in zip(ca, cb)] for ca, cb in zip(rows[i], scaled)
                ]
        r += 1
        if r == len(rows):
            break
    return rows


def syndrome_former(code, mu_perp_max=None):
    """(mu_perp, H as nested ints) by the digit system, the greedy choice of
    candidates whose H_0 rows stay independent and `normalize_rows`; None if
    no H(D) exists up to the cap (default n * memory)."""
    field = code.field
    need = code.n - code.k
    if mu_perp_max is None:
        mu_perp_max = code.n * max(code.memory, 1)
    for mu_perp in range(mu_perp_max + 1):
        chosen, h0_stack = [], []
        for cand in digit_solutions(code, mu_perp):
            if f_rank(field, h0_stack + [cand[0]]) == len(h0_stack) + 1:
                chosen.append(cand)
                h0_stack.append(cand[0])
                if len(chosen) == need:
                    break
        if len(chosen) < need:
            continue
        chosen = normalize_rows(field, chosen)
        table = [[[c[j][col] for j in range(mu_perp + 1)] for col in range(code.n)] for c in chosen]
        check = SkewPolyMatrix.from_ints(field, table)
        return max(check.degree, 0), check.to_ints()
    return None

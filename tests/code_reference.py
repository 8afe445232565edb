"""Scalar reference implementations of the array encoder and of the analysis
checks built on it, kept as test oracles for `SkewConvCode.encode_batch`,
`linalg.f_matmul`, `dual.verify_duality` and `skewtrellis.linearity_report`.

Each is the per-symbol (or per-word) loop the library ran before its array
form: `encode` walks every time, delay, row and output symbol; the duality
and linearity checks encode one word at a time and stop at the first that
fails, so the generator is left where that word's draws leave it.
"""

import itertools
import random

import numpy as np

from skewconv import Sequence
from skewconv.dual import SyndromeFormer
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


def verify_duality(code, check, num_words=20, length=8, rng=None):
    """The duality check one word at a time, stopping at the first failure;
    codewords come from `code.encode`."""
    code.require_left_module("the duality check")
    sf = check if isinstance(check, SyndromeFormer) else SyndromeFormer(code, check, validate=False)
    field = code.field
    if not (code.generator @ sf.check.transpose()).is_zero:
        return False

    rng = rng or random.Random(0)
    mu = code.memory
    info_len = max(length - mu, 1)
    total = info_len + mu
    ht = sf.ht_window(total)
    for _ in range(num_words):
        u = [[rng.randrange(field.size) for _ in range(code.k)] for _ in range(info_len)]
        v = code.encode(u, terminate=True).flat_values()
        if f_matmul(field, [v], ht).any():
            return False

    hw = sf.h_window(total)
    gw = code.scalar_generator(info_len)
    for _ in range(num_words):
        u = [rng.randrange(field.size) for _ in range(gw.shape[0])]
        w = [rng.randrange(field.size) for _ in range(hw.shape[0])]
        v = f_matmul(field, [u], gw)
        vperp = f_matmul(field, [w], hw)
        if f_matmul(field, v, vperp.T).any():
            return False
    return True


def linearity_report(code, rng=None, pairs=50, max_len=3, witness_len=2):
    """The linearity checks one pair of inputs at a time, each stopping at
    its first failure, and the witness sweep one input at a time; returns
    (fixed_subfield, additive_ok, subfield_homogeneous, witness) with the
    witness codewords from `code.encode`."""
    rng = rng or random.Random(0)
    field = code.field
    q = field.size
    k = code.k

    def random_u():
        length = rng.randrange(1, max_len + 1)
        return [[rng.randrange(q) for _ in range(k)] for _ in range(length)]

    additive_ok = True
    for _ in range(pairs):
        u1 = Sequence(field, random_u(), width=k)
        u2 = Sequence(field, [[rng.randrange(q) for _ in range(k)] for _ in range(len(u1))], width=k)
        lhs = code.encode(u1 + u2, terminate=True)
        rhs = code.encode(u1, terminate=True) + code.encode(u2, terminate=True)
        if lhs != rhs:
            additive_ok = False
            break

    fixed = field.fixed_subfield()
    subfield_homogeneous = True
    for c in fixed:
        for _ in range(pairs // 5 + 1):
            u1 = random_u()
            u2 = [[rng.randrange(q) for _ in range(k)] for _ in range(len(u1))]
            useq = Sequence(field, u1, width=k)
            u2seq = Sequence(field, u2, width=k)
            lhs = code.encode(useq.scale(c) + u2seq, terminate=True)
            rhs = code.encode(useq, terminate=True).scale(c) + code.encode(u2seq, terminate=True)
            if lhs != rhs:
                subfield_homogeneous = False
                break
        if not subfield_homogeneous:
            break

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
    return fixed, additive_ok, subfield_homogeneous, witness

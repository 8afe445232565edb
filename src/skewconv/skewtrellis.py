"""Right-module skew trellis codes: the `build_trellis_right` name and a
report of their linearity.

`SkewTrellisCode` is defined in `code`.  Its trellis comes from
`trellis.build_trellis` as for a left-module code; it is time-invariant (a
single section) and plugs directly into viterbi()/bcjr().

Every encoder is the module product, additive and linear over the fixed
subfield of theta.  It is nonlinear over the full field iff the code is
right-module and some row of G is nonzero at a delay i with theta^i != id.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import trellis as _trellis
from .code import Sequence, SkewTrellisCode
from .field import _integral, _within

__all__ = ["SkewTrellisCode", "LinearityReport", "build_trellis_right", "linearity_report"]

build_trellis_right = _trellis.build_trellis


@dataclass
class LinearityReport:
    fixed_subfield: list
    additive_ok: bool  # True: encoding is the module product
    subfield_homogeneous: bool  # True: theta^i fixes every scalar of fixed_subfield
    witness: tuple | None  # (scale value, input blocks, encode(a*u), a*encode(u))


def linearity_report(code, rng=None, witness_len=2):
    """The fixed subfield of theta, additivity and homogeneity over it (True
    by construction) and `_homogeneity_witness` on inputs of witness_len
    blocks.  rng is never drawn from, so the generator is left as it was.  A
    witness word over `trellis.EDGE_BUDGET` symbols is refused at once."""
    witness_len = _integral(witness_len, "witness_len", 0)
    _within((witness_len + code.memory) * code.n, _trellis.EDGE_BUDGET, "a witness word", "symbols")
    witness = _homogeneity_witness(code, witness_len)
    return LinearityReport(code.field.fixed_subfield(), True, True, witness)


def _homogeneity_witness(code, witness_len):
    """The first scale a = 1, 2, ... and input u of witness_len blocks, in
    `itertools.product` order, with encode(a u) != a encode(u), as
    (a, u, encode(a u), a encode(u)); None if there is none.

    A left-module code's u G is linear over the field.  For G^T u^T,
    encode(a u) - a encode(u) = sum_i (theta^i(a) - a) theta^i(u_{t-i}) G_i
    is additive in u, and a symbol in row r fails iff theta^i moves a at a
    delay i where row r of G_i is nonzero.  So a is the least scale such a
    theta^i moves, and u a 1 in the lowest such row r of the last block:
    every earlier input touches only rows below r there.
    """
    field = code.field
    if code.module_side == "left" or not witness_len:
        return None
    g = code.coefficients
    delays = np.flatnonzero(g.any(axis=(1, 2)))
    residues = np.unique(delays % field.automorphism_order)
    # all theta^residue fix F, or a subfield of <= isqrt(q) elements that misses one of 1..isqrt(q)
    scales = np.arange(1, math.isqrt(field.size) + 1)
    moved = (field.frobenius(scales, residues[:, None]) != scales).any(axis=0)
    if not moved.any():
        return None
    a = int(scales[moved.argmax()])
    rows = g[delays[field.frobenius(a, delays) != a]].any(axis=(0, 2))
    u = np.zeros((1, witness_len, code.k), dtype=np.intp)
    u[0, -1, rows.argmax()] = 1
    lhs = code.encode_batch(field.mul(a, u), terminate=True)[0]
    rhs = field.mul(a, code.encode_batch(u, terminate=True)[0])
    blocks = [tuple(block) for block in u[0].tolist()]
    return a, blocks, Sequence._trusted(field, lhs, code.n), Sequence._trusted(field, rhs, code.n)

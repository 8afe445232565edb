"""Right-module skew trellis codes: the `build_trellis_right` name and a
report of their linearity.

`SkewTrellisCode` is defined in `code`.  Its trellis comes from
`trellis.build_trellis` as for a left-module code; it is time-invariant (a
single section) and plugs directly into viterbi()/bcjr().

Encoding is the module product (`encode_batch` is one `linalg.f_polymul`),
so every code's encoder is additive, and theta^i fixes every scalar of the
fixed subfield of theta, so it is linear over that subfield too: the
report states both.  What can fail is homogeneity over the full field, which
makes a right-module code with theta != id nonlinear over F;
`linearity_report` searches every short input for a witness of it.
"""

from dataclasses import dataclass

import numpy as np

from .code import Sequence, SkewTrellisCode
from .field import _integral
from .linalg import PRODUCT_TERMS
from .trellis import build_trellis

__all__ = ["SkewTrellisCode", "LinearityReport", "build_trellis_right", "linearity_report"]

build_trellis_right = build_trellis


@dataclass
class LinearityReport:
    fixed_subfield: list
    additive_ok: bool  # True: encoding is the module product
    subfield_homogeneous: bool  # True: theta^i fixes every scalar of fixed_subfield
    witness: tuple | None  # (scale value, input blocks, encode(a*u), a*encode(u))


def linearity_report(code, rng=None, witness_len=2):
    """The fixed subfield of theta, additivity and homogeneity over it, both
    True by construction, and, when theta != id, the first full-field
    homogeneity witness on inputs of witness_len blocks (None if there is
    none).  rng is accepted and never drawn from: the report is the same
    for every generator, and leaves it as it was."""
    witness_len = _integral(witness_len, "witness_len", 0)
    field = code.field
    witness = None
    if field.automorphism_order > 1:
        witness = _homogeneity_witness(code, witness_len)
    return LinearityReport(field.fixed_subfield(), True, True, witness)


def _homogeneity_witness(code, witness_len):
    """The first scale a = 1, 2, ... and input u of witness_len blocks, in
    `itertools.product` order over the q^k input blocks, with
    encode(a u) != a encode(u), as (a, u, encode(a u), a encode(u)); None if
    there is none.

    The inputs are encoded in chunks of about PRODUCT_TERMS output symbols,
    so memory does not grow with q^(k * witness_len); with one chunk they are
    encoded once for all scales.
    """
    field = code.field
    q, k, n = field.size, code.k, code.n
    words = q ** (k * witness_len)
    chunk = max(1, PRODUCT_TERMS // ((witness_len + code.memory) * n))

    def inputs(start, stop):
        # the base-q digits of the word ids, least significant first: the
        # symbols of the last block, then those of the one before, ...
        ids = np.arange(start, stop)
        u = np.empty((len(ids), witness_len, k), dtype=np.intp)
        for block in range(witness_len - 1, -1, -1):
            for row in range(k):
                ids, u[:, block, row] = np.divmod(ids, q)
        return u

    plain = None
    for a in range(1, q):
        for start in range(0, words, chunk):
            if plain is None or plain[0] != start:
                u = inputs(start, min(start + chunk, words))
                plain = start, u, code.encode_batch(u, terminate=True)
            _, u, v = plain
            lhs = code.encode_batch(field.mul(a, u), terminate=True)
            rhs = field.mul(a, v)
            failed = (lhs != rhs).any(axis=(1, 2))
            if failed.any():
                i = int(failed.argmax())
                return (
                    a,
                    [tuple(block) for block in u[i].tolist()],
                    Sequence._trusted(field, lhs[i], n),
                    Sequence._trusted(field, rhs[i], n),
                )
    return None

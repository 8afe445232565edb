"""Right-module skew trellis codes: the `build_trellis_right` name and a
check of their linearity.

`SkewTrellisCode` is defined in `code`.  Its trellis comes from
`trellis.build_trellis` as for a left-module code; it is time-invariant (a
single section) and plugs directly into viterbi()/bcjr().

`linearity_report` tests additivity and fixed-subfield homogeneity on random
pairs of inputs, each test's pairs read off one rng.randbytes block, and
searches every short input for a full-field homogeneity witness.
"""

import random
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
    additive_ok: bool
    subfield_homogeneous: bool
    witness: tuple | None  # (scale value, input blocks, encode(a*u), a*encode(u))


def linearity_report(code, rng=None, pairs=50, max_len=3, witness_len=2):
    """Checks additivity and fixed-subfield homogeneity on random inputs and,
    when theta != id, searches exhaustively for a full-field homogeneity
    violation on short inputs."""
    pairs = _integral(pairs, "pairs", 0)
    max_len = _integral(max_len, "max_len", 1)
    witness_len = _integral(witness_len, "witness_len", 0)
    rng = rng or random.Random(0)
    field = code.field
    additive_ok = _first_failure(code, rng, [1] * pairs, max_len) is None
    fixed = field.fixed_subfield()
    scales = [c for c in fixed for _ in range(pairs // 5 + 1)]
    subfield_homogeneous = _first_failure(code, rng, scales, max_len) is None
    witness = None
    if field.automorphism_order > 1:
        witness = _homogeneity_witness(code, witness_len)
    return LinearityReport(fixed, additive_ok, subfield_homogeneous, witness)


def _first_failure(code, rng, scales, max_len):
    """The index of the first pair that fails encode(c u1 + u2) =
    c encode(u1) + encode(u2), one pair per scale c, or None.

    The pairs are one block of rng.randbytes, read as little-endian 32-bit
    words, 1 + 2 max_len k of them a pair: a length in [1, max_len], the
    first word mod max_len plus 1, then max_len blocks of k symbols for u1
    and as many for u2, a word mod q a symbol, zero past the length.  All
    pairs are checked at once: a zero-padded terminated codeword is the
    unpadded one followed by zero blocks.  The generator is left after the
    block, whether or not a pair fails.
    """
    field = code.field
    q, k, count = field.size, code.k, len(scales)
    width = 1 + 2 * max_len * k
    words = np.frombuffer(rng.randbytes(4 * count * width), "<u4").reshape(count, width)
    past = np.arange(max_len) > words[:, :1] % max_len
    symbols = words[:, 1:].reshape(count, 2, max_len, k) % q
    u1, u2 = np.where(past[:, None, :, None], 0, symbols).swapaxes(0, 1)
    c = np.array(scales, dtype=np.intp)[:, None, None]
    lhs = code.encode_batch(field.add(field.mul(c, u1), u2), terminate=True)
    rhs = field.add(
        field.mul(c, code.encode_batch(u1, terminate=True)), code.encode_batch(u2, terminate=True)
    )
    failed = (lhs != rhs).any(axis=(1, 2))
    return int(failed.argmax()) if failed.any() else None


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

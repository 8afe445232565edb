"""Right-module skew trellis codes: the `build_trellis_right` name and a
check of their linearity.

`SkewTrellisCode` is defined in `code`.  Its trellis comes from
`trellis.build_trellis` as for a left-module code; it is time-invariant (a
single section) and plugs directly into viterbi()/bcjr().
"""

from dataclasses import dataclass

from .code import Sequence, SkewTrellisCode
from .trellis import build_trellis, unpack_digits

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
    import itertools
    import random

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
            rhs = code.encode(useq, terminate=True).scale(c) + code.encode(
                u2seq, terminate=True
            )
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
    return LinearityReport(fixed, additive_ok, subfield_homogeneous, witness)

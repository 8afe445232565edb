"""Right-module skew trellis codes: the twist moves into the shift register,
making the code nonlinear over GF(4) yet still linear over GF(2)."""

import random

from skewconv import (
    FiniteField,
    Sequence,
    SkewPolyMatrix,
    SkewTrellisCode,
    build_trellis_right,
    linearity_report,
    viterbi,
)

A = 2
field = FiniteField(2, 2, modulus=[1, 1, 1], theta_r=1)
code = SkewTrellisCode(SkewPolyMatrix.from_ints(field, [[[1, A], [A, A + 1]]]))

print("v_t = u_t G_0 + theta(u_{t-1}) G_1")
for u in ([[1], [0]], [[A], [0]]):
    print(f"  u = {[b[0] for b in u]} -> {code.encode(u).to_ints()}")
print()


def linear_on_random_pairs(scales, rng):
    """encode(c u1 + u2) == c encode(u1) + encode(u2) on a random pair of
    three-block inputs for every scale c."""
    for c in scales:
        u1, u2 = (Sequence(field, [[rng.randrange(4)] for _ in range(3)]) for _ in range(2))
        lhs = code.encode(u1.scale(c) + u2, terminate=True)
        rhs = code.encode(u1, terminate=True).scale(c) + code.encode(u2, terminate=True)
        if lhs != rhs:
            return False
    return True


report = linearity_report(code)
rng = random.Random(6)
additive = linear_on_random_pairs([1] * 50, rng)
homogeneous = linear_on_random_pairs(report.fixed_subfield * 10, rng)
print(f"fixed subfield of theta: {report.fixed_subfield}")
print(f"additive on random pairs: {additive}")
print(f"homogeneous over the fixed subfield: {homogeneous}")
a, u, lhs, rhs = report.witness
print(f"homogeneity over GF(4) fails, witness a = {field.element_name(a)}, u = {u}:")
print(f"  encode(a*u) = {lhs.to_ints()}")
print(f"  a*encode(u) = {rhs.to_ints()}")
print()

trellis = build_trellis_right(code)
print(f"trellis: {trellis.num_states} states, {trellis.num_sections} section (time-invariant)")
sent = code.encode([[3], [1], [2]], terminate=True)
print(f"decoding its own output: {viterbi(trellis, sent, terminated=True).info_est.to_ints()}")

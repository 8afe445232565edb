import random

import pytest

from skewconv import FieldElement, SkewPoly, SkewPolyMatrix

from conftest import A, A2
from test_sequence_storage import box_count  # noqa: F401


def rand_poly(field, rng, max_deg):
    return SkewPoly(field, [rng.randrange(field.size) for _ in range(max_deg + 1)])


def test_addition_examples(f4):
    p = SkewPoly(f4, [A, 1])  # a + D
    assert (p + p).is_zero
    q = SkewPoly(f4, [1, A]) + A  # (1 + aD) + a
    assert q == SkewPoly(f4, [A2, A])


def test_addition_commutes(f4):
    rng = random.Random(3)
    for _ in range(100):
        a, b = rand_poly(f4, rng, 4), rand_poly(f4, rng, 4)
        assert a + b == b + a


def test_twisted_multiplication_rule(f4):
    D = SkewPoly.indeterminate(f4)
    alpha = SkewPoly(f4, [A])
    assert D * alpha == SkewPoly(f4, [0, A2])  # D a = theta(a) D
    assert alpha * D == SkewPoly(f4, [0, A])
    assert D * alpha != alpha * D


def test_multiplicative_identity(f4):
    rng = random.Random(4)
    one = SkewPoly.one(f4)
    for _ in range(20):
        b = rand_poly(f4, rng, 5)
        assert one * b == b
        assert b * one == b


def test_worked_product(f4):
    # (1 + aD)(a + D): the cross terms cancel in characteristic 2
    lhs = SkewPoly(f4, [1, A]) * SkewPoly(f4, [A, 1])
    assert lhs == SkewPoly(f4, [A, 0, A])


def test_right_divmod_trivial(f4):
    rng = random.Random(5)
    one = SkewPoly.one(f4)
    for _ in range(20):
        a = rand_poly(f4, rng, 5)
        q, r = a.right_divmod(one)
        assert q == a and r.is_zero
    d = SkewPoly(f4, [A, A2, 1])  # monic
    q, r = d.right_divmod(d)
    assert q == one and r.is_zero


def test_right_divmod_round_trip(f4, f8):
    rng = random.Random(6)
    for field in (f4, f8):
        for _ in range(200):
            a = rand_poly(field, rng, 5)
            d = rand_poly(field, rng, rng.randrange(4))
            if d.is_zero:
                continue
            q, r = a.right_divmod(d)
            assert q * d + r == a
            assert r.is_zero or r.degree < d.degree


def test_divide_by_zero(f4):
    with pytest.raises(ZeroDivisionError):
        SkewPoly(f4, [1]).right_divmod(SkewPoly.zero(f4))


def test_ring_axioms_random_triples(f4, f8):
    rng = random.Random(7)
    for field in (f4, f8):
        for _ in range(60):
            a, b, c = (rand_poly(field, rng, 4) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def test_no_zero_divisors(f4, f8):
    rng = random.Random(8)
    for field in (f4, f8):
        for _ in range(100):
            a, b = rand_poly(field, rng, 4), rand_poly(field, rng, 4)
            if a.is_zero or b.is_zero:
                continue
            assert (a * b).degree == a.degree + b.degree


def commutative_mul(field, a, b):
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1) if a.coeffs and b.coeffs else []
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = field.add_int(out[i + j], field.mul_int(x.value, y.value))
    return SkewPoly(field, out)


def test_identity_twist_is_commutative(f4_id):
    rng = random.Random(9)
    for _ in range(100):
        a, b = rand_poly(f4_id, rng, 4), rand_poly(f4_id, rng, 4)
        assert a * b == commutative_mul(f4_id, a, b)
        assert a * b == b * a


def test_scalar_multiplication(f4):
    p = SkewPoly(f4, [1, A])
    a = f4(A)
    assert a * p == SkewPoly(f4, [A, A2])
    # right scalar picks up the twist on the D coefficient
    assert p * a == SkewPoly(f4, [A, f4.mul_int(A, f4.frobenius_int(A))])


def test_arithmetic_and_integer_views_never_box(f4, box_count):
    rng = random.Random(10)
    a, b = rand_poly(f4, rng, 4), rand_poly(f4, rng, 3)
    p = a * b + a - b - A
    q, r = p.right_divmod(b)
    assert q * b + r == p and hash(p) == hash(SkewPoly(f4, p.coefficient_values()))
    assert p.degree == 7 and not p.is_zero and repr(p)
    m = SkewPolyMatrix.from_ints(f4, [[[1, A], [A, A2]]])
    mm = m @ m.transpose()
    assert mm.coefficient_values(2) == [[0]] and mm.to_ints() and not mm.is_zero
    assert box_count == []


def test_coefficients_box_on_access(f4, box_count):
    p = SkewPoly(f4, [1, A, 0, A2, 0])
    coeffs = p.coeffs
    assert box_count == [1, A, 0, A2]
    assert all(type(c) is FieldElement and c.field is f4 for c in coeffs)
    box_count.clear()
    assert (p.coefficient(1).value, p.coefficient(4).value, p.coefficient(-1).value) == (A, 0, 0)
    assert box_count == [A, 0, 0]


def test_out_of_range_coefficients_are_refused(f4):
    with pytest.raises(ValueError, match=r"value 4 outside \[0, 4\)"):
        SkewPoly(f4, [1, 4, 0])
    with pytest.raises(ValueError, match="outside"):
        SkewPoly(f4, [-1])


def test_degree_and_canonical_form(f4):
    assert SkewPoly(f4, [1, 0, 0]).degree == 0
    assert SkewPoly.zero(f4).degree == float("-inf")
    assert SkewPoly(f4, [0, 0]).is_zero


# -- matrices ---------------------------------------------------------------


def test_matrix_round_trip(f4):
    table = [[[1, A], [A, A2]]]
    m = SkewPolyMatrix.from_ints(f4, table)
    assert m.to_ints() == table
    assert m.degree == 1
    assert m.coefficient_values(0) == [[1, A]]
    assert m.coefficient_values(1) == [[A, A2]]
    rebuilt = SkewPolyMatrix.from_coefficients(
        f4, [m.coefficient_values(0), m.coefficient_values(1)]
    )
    assert rebuilt == m


def test_matrix_transpose_and_product(f4):
    g = SkewPolyMatrix.from_ints(f4, [[[1, A], [A, A2]]])
    h = SkewPolyMatrix.from_ints(f4, [[[A, 1], [1, A]]])
    prod = g @ h.transpose()
    # (1 + aD)(a + D) + (a + a^2 D)(1 + aD) = 0, checked by hand expansion
    assert prod.is_zero
    assert h.transpose().to_ints() == [[[A, 1]], [[1, A]]]


def test_matrix_shape_errors(f4):
    with pytest.raises(ValueError):
        SkewPolyMatrix.from_ints(f4, [[[1]], [[1], [1]]])
    g = SkewPolyMatrix.from_ints(f4, [[[1], [A]]])
    with pytest.raises(ValueError):
        g @ g


def test_matrix_row_degrees(f4):
    m = SkewPolyMatrix.from_ints(f4, [[[1], [0, 0, 1]], [[A], [1]]])
    assert m.row_degrees() == [2, 0]

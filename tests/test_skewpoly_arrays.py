"""The array arithmetic of `SkewPoly` and `SkewPolyMatrix` against the loop
oracle in `skewpoly_reference`, with exact equality, over GF(4), GF(8) with
theta = Frob^2, GF(9), GF(16) and GF(25); canonical arrays and hashing; a
guard that the arithmetic calls no scalar field operation and one array
inverse, that of right division; the memory of long products, long by
short in both orders and wide; and the one coercion of symbols."""

import random
import tracemalloc

import numpy as np
import pytest

from skewconv import FieldElement, FiniteField, Sequence, SkewPoly, SkewPolyMatrix, linalg
from skewconv.dual import _annihilates

import skewpoly_reference as ref

FIELDS = {
    "gf4": FiniteField(2, 2, [1, 1, 1], theta_r=1),
    "gf8_theta2": FiniteField(2, 3, [1, 1, 0, 1], theta_r=2),
    "gf9": FiniteField(3, 2, [2, 2, 1], theta_r=1),
    "gf16": FiniteField(2, 4, [1, 1, 0, 0, 1], theta_r=1),
    "gf25": FiniteField(5, 2, [2, 1, 1], theta_r=1),
}
SCALAR_OPS = ("add_int", "mul_int", "frobenius_int")


def rand_values(rng, field, max_len):
    """Up to max_len coefficients, about a third of them zero, the last ones too."""
    size = rng.randrange(max_len + 1)
    return [rng.randrange(1, field.size) if rng.random() < 0.65 else 0 for _ in range(size)]


def rand_table(rng, field, rows, cols, max_len):
    return [[rand_values(rng, field, max_len) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("name", FIELDS)
def test_polynomial_arithmetic_matches_the_loop_oracle(name):
    field = FIELDS[name]
    rng = random.Random(field.size)
    zero = SkewPoly.zero(field)
    for trial in range(150):
        a = SkewPoly(field, rand_values(rng, field, 6))
        b = SkewPoly(field, rand_values(rng, field, 4)) if trial % 10 else zero
        x, y = a.coefficient_values(), b.coefficient_values()
        assert (a + b).coefficient_values() == ref.add(field, x, y)
        assert (b + a).coefficient_values() == ref.add(field, y, x)
        assert (a - b).coefficient_values() == ref.sub(field, x, y)
        assert (-b).coefficient_values() == ref.neg(field, y)
        assert (a * b).coefficient_values() == ref.mul(field, x, y)
        assert (b * a).coefficient_values() == ref.mul(field, y, x)
        c = rng.randrange(field.size)
        assert (a + c).coefficient_values() == ref.add(field, x, [c])
        assert (c - a).coefficient_values() == ref.sub(field, [c], x)
        assert (a * c).coefficient_values() == ref.mul(field, x, [c])
        assert (field(c) * a).coefficient_values() == ref.mul(field, [c], x)
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                a.right_divmod(b)
            continue
        q, r = a.right_divmod(b)
        assert (q.coefficient_values(), r.coefficient_values()) == ref.right_divmod(field, x, y)
        assert zero.right_divmod(b) == (zero, zero)


@pytest.mark.parametrize("name", FIELDS)
def test_matrix_product_and_transpose_match_the_loop_oracle(name):
    field = FIELDS[name]
    rng = random.Random(100 + field.size)
    shapes = [(1, 1, 1)] * 10 + [tuple(rng.randrange(1, 4) for _ in range(3)) for _ in range(40)]
    for k, n, c in shapes:
        g = SkewPolyMatrix.from_ints(field, rand_table(rng, field, k, n, 4))
        h = SkewPolyMatrix.from_ints(field, rand_table(rng, field, n, c, 3))
        want = ref.matmul(field, g.to_ints(), h.to_ints())
        product = g @ h
        assert product.to_ints() == want and product == SkewPolyMatrix.from_ints(field, want)
        assert g.transpose().to_ints() == ref.transpose(g.to_ints())
        ht = h.transpose()
        if n == c:
            gh = ref.matmul(field, g.to_ints(), ht.to_ints())
            zero = all(not cell for row in gh for cell in row)
            assert _annihilates(field, g.coefficients, h.coefficients) is zero
        if k == n == c == 1:
            a, b = g.entries[0][0], h.entries[0][0]
            assert product == SkewPolyMatrix([[a * b]])


@pytest.mark.parametrize("name", FIELDS)
def test_banded_products_match_the_loop_oracle(name, monkeypatch):
    # 8 products put one output term, or a few, in a chunk
    monkeypatch.setattr(linalg, "PRODUCT_TERMS", 8)
    field = FIELDS[name]
    rng = random.Random(200 + field.size)
    for _ in range(30):
        k, n, c = (rng.randrange(1, 3) for _ in range(3))
        g = SkewPolyMatrix.from_ints(field, rand_table(rng, field, k, n, 6))
        h = SkewPolyMatrix.from_ints(field, rand_table(rng, field, n, c, 4))
        assert (g @ h).to_ints() == ref.matmul(field, g.to_ints(), h.to_ints())
        a, b = SkewPoly(field, rand_values(rng, field, 9)), SkewPoly(field, rand_values(rng, field, 5))
        x, y = a.coefficient_values(), b.coefficient_values()
        assert (a * b).coefficient_values() == ref.mul(field, x, y)


def test_a_long_product_matches_the_loop_oracle_in_bounded_memory():
    # one window of B over all of A's terms held 46 MiB at degree 1000
    f = FIELDS["gf16"]
    rng = random.Random(1000)
    x, y = ([rng.randrange(1, f.size) for _ in range(1001)] for _ in range(2))
    a, b = SkewPoly(f, x), SkewPoly(f, y)
    tracemalloc.start()
    try:
        product = a * b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert product.degree == 2000
    assert product.coefficient_values() == ref.mul(f, x, y)


def traced_peak(compute):
    """compute() and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        result = compute()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chunk", [None, 1, 7, 40])
def test_long_by_short_products_in_both_orders_stay_small(chunk, monkeypatch):
    # a band of the long factor's terms times a window of the short one
    # held 122 MiB for the 2000-term polynomial times a constant
    if chunk is not None:
        monkeypatch.setattr(linalg, "PRODUCT_TERMS", chunk)
    f = FIELDS["gf4"]
    rng = random.Random(2000)
    x = [rng.randrange(1, f.size) for _ in range(2000)]
    a, c = SkewPoly(f, x), SkewPoly(f, [2])
    for product, want in ((lambda: a * c, ref.mul(f, x, [2])), (lambda: c * a, ref.mul(f, [2], x))):
        got, peak = traced_peak(product)
        assert peak < 2**20, peak
        assert got.coefficient_values() == want
    long_row, long_col = [[x, x[::-1]]], [[x[1:]], [x[:7]]]
    tables = {
        "1 x 2000": ([[[3], [1]]], long_col),
        "2000 x 3": (long_row, [[[1, 0, 2]], [[0, 3, 3]]]),
    }
    for g_table, h_table in tables.values():
        g, h = (SkewPolyMatrix.from_ints(f, t) for t in (g_table, h_table))
        got, peak = traced_peak(lambda: g @ h)
        assert peak < 2**20, peak
        assert got.to_ints() == ref.matmul(f, g.to_ints(), h.to_ints())


def test_a_wide_product_goes_in_bands_of_rows():
    # one output term of this product is 150^3 products, 27 MiB of logs
    f = FIELDS["gf9"]
    rng = np.random.default_rng(150)
    a, b = (rng.integers(0, f.size, (1, 150, 150)) for _ in range(2))
    got, peak = traced_peak(lambda: linalg.f_polymul(f, a, b))
    assert peak < 4 * 2**20, peak
    assert np.array_equal(got[0], linalg.f_matmul(f, a[0], b[0]))


def test_equal_values_hold_equal_arrays_and_hash_alike():
    f = FIELDS["gf9"]
    pairs = [
        (SkewPoly(f, [1, 2, 0, 0]), SkewPoly(f, [1, 2])),
        (SkewPoly(f, [0, 0]), SkewPoly.zero(f)),
        (SkewPoly(f, [1, 4]) + SkewPoly(f, [2, 8]), SkewPoly.zero(f)),
        (SkewPoly(f, [3, 7]) - SkewPoly(f, [0, 7]), SkewPoly(f, [3])),
        (
            SkewPolyMatrix.from_ints(f, [[[1, 0, 0], [2]], [[], [0]]]),
            SkewPolyMatrix.from_coefficients(f, [[[1, 2], [0, 0]], [[0, 0], [0, 0]]]),
        ),
        (
            SkewPolyMatrix.from_ints(f, [[[1, 2], [3]]]).transpose(),
            SkewPolyMatrix.from_ints(f, [[[1, 2]], [[3]]]),
        ),
        (
            SkewPolyMatrix.from_ints(f, [[[1], [1]]]) @ SkewPolyMatrix.from_ints(f, [[[1]], [[2]]]),
            SkewPolyMatrix.from_ints(f, [[[0]]]),
        ),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert SkewPolyMatrix.from_ints(f, [[[0], [0]]]) != SkewPolyMatrix.from_ints(f, [[[0]], [[0]]])
    m = SkewPolyMatrix.from_ints(f, [[[1, 2, 0], [0, 0]]])
    assert m.coefficients.shape == (2, 1, 2) and not m.coefficients.flags.writeable
    assert not SkewPoly(f, [1, 0])._values.flags.writeable
    mats = np.array([[[1, 2]], [[3, 0]]])
    from_array = SkewPolyMatrix.from_coefficients(f, mats)
    mats[0, 0, 0] = 5
    assert mats.flags.writeable and from_array.to_ints() == [[[1, 3], [2]]]


def test_the_arithmetic_runs_on_array_ops_and_one_inverse_a_division(monkeypatch):
    f = FIELDS["gf25"]
    rng = random.Random(5)
    g = SkewPolyMatrix.from_ints(f, rand_table(rng, f, 2, 3, 4))
    h = SkewPolyMatrix.from_ints(f, rand_table(rng, f, 2, 3, 3))
    a, b = SkewPoly(f, [3, 1, 4, 1, 5, 9, 2]), SkewPoly(f, [2, 7, 1, 8])

    def refuse(*args, **kwargs):
        raise AssertionError("a scalar field operation was called")

    for op in SCALAR_OPS:
        monkeypatch.setattr(FiniteField, op, refuse)
    inverses = []
    inv = FiniteField.inv
    monkeypatch.setattr(FiniteField, "inv", lambda self, x: inverses.append(x) or inv(self, x))
    a + b, a - b, -a, a * b, 3 * a, a * f(2), a - 1, SkewPoly(f, [4, 0]) == 4
    g @ h.transpose(), g.transpose() @ h, g.transpose().transpose() == g
    q, r = a.right_divmod(b)
    assert inverses == [8] and q * b + r == a
    assert SkewPolyMatrix([[q, r]]).to_ints() == [[q.coefficient_values(), r.coefficient_values()]]
    assert hash(q) == hash(SkewPoly(f, q.coefficient_values())) and repr(g)


@pytest.mark.parametrize("bad", [1.5, "3"], ids=["float", "str"])
def test_every_symbol_entry_refuses_a_non_integer_with_one_line(bad):
    f = FIELDS["gf4"]
    p = SkewPoly(f, [1, 2])
    entries = [
        lambda: Sequence(f, [[1, bad]]),
        lambda: Sequence(f, [[1, 2]]).scale(bad),
        lambda: SkewPoly(f, [1, bad]),
        lambda: p + bad,
        lambda: p * bad,
        lambda: bad - p,
        lambda: p.right_divmod(bad),
        lambda: SkewPolyMatrix.from_ints(f, [[[1, bad]]]),
        lambda: SkewPolyMatrix.from_coefficients(f, [[[1, bad]]]),
    ]
    for make in entries:
        with pytest.raises(ValueError, match=r"must be an integer, got ") as info:
            make()
        assert "\n" not in str(info.value)


def test_symbol_entries_accept_field_elements_numpy_ints_and_bools():
    f = FIELDS["gf4"]
    p = SkewPoly(f, [1, 2])
    for c, v in ((f(2), 2), (np.int64(3), 3), (np.uint8(2), 2), (True, 1), (False, 0)):
        assert Sequence(f, [[c, 1]]).to_ints() == [(v, 1)]
        assert Sequence(f, [[1, 2]]).scale(c) == Sequence(f, [[1, 2]]).scale(v)
        assert SkewPoly(f, [1, c]).coefficient_values() == ref.strip([1, v])
        assert p + c == p + v and p * c == p * v and c * p == v * p
        assert SkewPolyMatrix.from_ints(f, [[[c]]]) == SkewPolyMatrix.from_ints(f, [[[v]]])
    assert type(SkewPoly(f, [np.int64(3)]).coefficient_values()[0]) is int


def test_out_of_range_symbols_keep_their_messages():
    f = FIELDS["gf4"]
    for make, message in (
        (lambda: Sequence(f, [[1], [4]]), r"block 1: symbol 4 outside \[0, 4\)"),
        (lambda: Sequence(f, [[1]]).scale(-1), r"scalar -1 outside \[0, 4\)"),
        (lambda: SkewPoly(f, [1, 4]), r"value 4 outside \[0, 4\)"),
        (lambda: SkewPoly(f, [1]) + 5, r"value 5 outside \[0, 4\)"),
        (lambda: SkewPolyMatrix.from_ints(f, [[[1, 7]]]), r"value 7 outside \[0, 4\)"),
        (lambda: SkewPolyMatrix.from_coefficients(f, [[[1, -2]]]), r"value -2 outside \[0, 4\)"),
        (lambda: Sequence(f, [[FIELDS["gf9"](1)]]), "mixed-field operands"),
    ):
        with pytest.raises(ValueError, match=message):
            make()

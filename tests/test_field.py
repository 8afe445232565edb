import contextlib
import functools
import gc
import itertools
import math
import os
import random
import re
import signal
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import field_reference
from skewconv import FieldElement, FiniteField, field as field_module
from skewconv.field import _SUM_TABLE_SIZE, _TABLES, DEFAULT_BINARY_MODULI, _is_irreducible

from conftest import A, A2


@contextlib.contextmanager
def deadline(seconds, message):
    """Raise TimeoutError(message) if the block runs past `seconds`."""
    def hung(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def naive_mul(field, a, b):
    """Schoolbook polynomial multiply then long-division reduction, written
    independently of the table-based path."""
    p, n = field.p, field.n
    da, db = field.to_digits(a), field.to_digits(b)
    prod = [0] * (2 * n - 1) if n > 1 else [0]
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = list(field.modulus)
    for top in range(len(prod) - 1, n - 1, -1):
        c = prod[top]
        if c == 0:
            continue
        shift = top - n
        for i, m in enumerate(mod):
            prod[shift + i] = (prod[shift + i] - c * m) % p
    return field.from_digits(prod[:n])


def test_f4_products(f4):
    assert f4.mul_int(A, A) == A2
    assert f4.mul_int(A, 1) == A
    assert f4.mul_int(A, A2) == 1


def test_f4_inverses(f4):
    assert f4(A).inverse() == A2
    assert f4(1).inverse() == 1
    assert f4.inv(np.array([A, 1, A2])).tolist() == [A2, 1, A]


def test_inverse_brute_force_scan(f8):
    for a in range(1, 8):
        scan = [b for b in range(1, 8) if f8.mul_int(a, b) == 1]
        assert scan == [f8(a).inverse()] == [f8.inv(a)]


def test_division_by_zero(f4):
    with pytest.raises(ZeroDivisionError):
        f4(0).inverse()
    with pytest.raises(ZeroDivisionError):
        f4(1) / f4(0)


def test_frobenius_examples(f4):
    assert f4.frobenius_int(A, 1) == A2
    assert f4.frobenius_int(0, 1) == 0
    assert f4.frobenius_int(1, 1) == 1
    assert f4.frobenius_int(A, 2) == A  # a^4 = a


def test_frobenius_negative_and_zero_power(f4):
    assert f4.frobenius_int(A, 0) == A
    assert f4.frobenius_int(A, -1) == f4.frobenius_int(A, 1)  # order 2


@pytest.mark.parametrize("fname", ["f4", "f8"])
def test_frobenius_is_homomorphism(fname, request):
    f = request.getfixturevalue(fname)
    for a in range(f.size):
        for b in range(f.size):
            assert f.frobenius_int(f.mul_int(a, b)) == f.mul_int(
                f.frobenius_int(a), f.frobenius_int(b)
            )
            assert f.frobenius_int(f.add_int(a, b)) == f.add_int(
                f.frobenius_int(a), f.frobenius_int(b)
            )


def test_frobenius_order_is_identity(f4, f8):
    for f in (f4, f8):
        for a in range(f.size):
            assert f.frobenius_int(a, f.automorphism_order) == a


def test_automorphism_order():
    f = FiniteField(2, 4, theta_r=2)
    assert f.automorphism_order == 4 // math.gcd(4, 2)
    assert FiniteField(2, 4, theta_r=1).automorphism_order == 4
    assert FiniteField(2, 4, theta_r=0).automorphism_order == 1


@pytest.mark.parametrize(
    "p,n,modulus",
    [
        (2, 2, [1, 1, 1]),
        (2, 3, [1, 1, 0, 1]),
        (2, 4, None),
        (3, 2, [1, 0, 1]),
        (5, 2, [2, 0, 1]),
        (2, 6, None),
    ],
)
def test_mul_matches_naive_oracle_all_pairs(p, n, modulus):
    f = FiniteField(p, n, modulus)
    for a in range(f.size):
        for b in range(f.size):
            assert f.mul_int(a, b) == naive_mul(f, a, b)


def test_default_binary_moduli_all_accepted():
    for n in DEFAULT_BINARY_MODULI:
        f = FiniteField(2, n)
        assert f.size == 2**n


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        FiniteField(2, 2, [1, 0, 1])  # x^2 + 1 = (x + 1)^2


def test_constructor_validation():
    with pytest.raises(ValueError):
        FiniteField(4, 2)  # not prime
    with pytest.raises(ValueError):
        FiniteField(2, 2, theta_r=2)
    with pytest.raises(ValueError):
        FiniteField(2, 25)  # table cap
    with pytest.raises(ValueError):
        FiniteField(3, 2)  # no default modulus for p != 2


def test_huge_prime_hits_the_size_cap_at_once():
    # trial division of this p would not finish; the cap must be checked first
    with deadline(5, "FiniteField did not reject a huge prime in time"):
        with pytest.raises(ValueError, match="cap"):
            FiniteField(1000000000000000003, 1)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((2, 2, [1, 1, 1.5]), {}, "modulus coefficient must be an integer, got 1.5"),
        ((2, 2, "111"), {}, "modulus coefficient must be an integer, got '1'"),
        ((2, 2), {"theta_r": 0.5}, "theta_r must be an integer, got 0.5"),
        ((2.0, 2), {}, "characteristic must be an integer, got 2.0"),
        ((2, 2.0), {}, "extension degree must be an integer, got 2.0"),
    ],
    ids=["modulus-float", "modulus-str", "theta_r", "p", "n"],
)
def test_non_integral_arguments_are_refused(args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        FiniteField(*args, **kwargs)
    assert "\n" not in str(info.value)


def test_numpy_integer_arguments_are_accepted():
    f = FiniteField(np.int64(2), np.int64(2), np.array([1, 1, 1]), theta_r=np.int64(1))
    assert f == FiniteField(2, 2, [1, 1, 1], theta_r=1)
    assert all(type(v) is int for v in (f.p, f.n, f.theta_r, f.size, *f.modulus))


@pytest.mark.parametrize(
    "value, want",
    [
        (1.5, "field element value must be an integer, got 1.5"),
        (2.0, "field element value must be an integer, got 2.0"),
        ("1", "field element value must be an integer, got '1'"),
        (None, "field element value must be an integer, got None"),
        (4, "value 4 outside [0, 4)"),
        (np.int64(-1), "value -1 outside [0, 4)"),
        (np.uint8(3), 3),
        (np.int64(2), 2),
        (True, 1),
    ],
    ids=["float", "integral-float", "str", "none", "int-range", "numpy-range", "uint8", "int64", "bool"],
)
def test_a_field_element_holds_an_int_or_refuses_the_value(value, want):
    f = FiniteField(2, 2, [1, 1, 1], theta_r=1)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=re.escape(want)) as info:
            f(value)
        assert "\n" not in str(info.value)
        return
    e = f(value)
    assert type(e.value) is int and e.value == want
    assert e * e == f(f.mul_int(want, want)) and f.element_name(e.value) == f.element_name(want)
    assert repr(e) == repr(f(want))


def test_a_modulus_is_irreducible_when_no_two_monic_factors_make_it():
    # the reducible monic polynomials of degree n are the products of two
    # monic ones of degrees 1 .. n - 1
    def monic(p, deg):
        return [list(low) + [1] for low in itertools.product(range(p), repeat=deg)]

    def times(a, b, p):
        out = [0] * (len(a) + len(b) - 1)
        for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
            out[i + j] = (out[i + j] + x * y) % p
        return out

    for p, top in ((2, 6), (3, 4), (5, 3)):
        for n in range(1, top + 1):
            reducible = {
                tuple(times(a, b, p))
                for d in range(1, n)
                for a in monic(p, d)
                for b in monic(p, n - d)
            }
            for m in monic(p, n):
                assert _is_irreducible(m, p) == (tuple(m) not in reducible), (p, m)


def test_mixed_field_operands(f4, f8):
    with pytest.raises(ValueError, match="mixed-field"):
        f4(1) + f8(1)


def test_element_arithmetic(f4):
    a = f4(A)
    assert a * a == A2
    assert a + a == 0
    assert a - a == 0
    assert -a == a  # characteristic 2
    assert a**3 == 1
    assert a**-1 == A2
    assert (a / a) == 1
    assert a.inverse() * a == 1
    assert a.frobenius() == A2
    assert bool(f4(0)) is False and bool(a) is True
    assert int(a) == A


def test_element_is_immutable_and_hashable(f4):
    a = f4(A)
    with pytest.raises(AttributeError):
        a.value = 1
    assert len({f4(0), f4(1), f4(1)}) == 2


def test_fixed_subfield(f4, f4_id, f8):
    assert f4.fixed_subfield() == [0, 1]
    assert f4_id.fixed_subfield() == [0, 1, 2, 3]
    assert f8.fixed_subfield() == [0, 1]
    f16 = FiniteField(2, 4, theta_r=2)
    assert len(f16.fixed_subfield()) == 4  # GF(4) inside GF(16)


@pytest.mark.parametrize(
    "f",
    [FiniteField(2, 4, theta_r=r) for r in range(4)]
    + [FiniteField(3, 4, [2, 0, 0, 1, 1], theta_r=r) for r in range(4)]
    + [FiniteField(5, 2, [2, 1, 1], theta_r=1), FiniteField(7, 1)],
    ids=repr,
)
def test_fixed_subfield_is_the_per_element_scan(f):
    got = f.fixed_subfield()
    assert got == [a for a in range(f.size) if f.frobenius_int(a) == a]
    assert all(type(a) is int for a in got)
    assert len(got) == f.p ** math.gcd(f.n, f.theta_r)


def test_element_names(f4):
    assert [f4.element_name(v) for v in range(4)] == ["0", "1", "a", "a^2"]


@pytest.mark.parametrize("value", [-1, 4, 100])
def test_element_name_refuses_a_value_outside_the_field(f4, value):
    with pytest.raises(ValueError, match=re.escape(f"value {value} outside [0, 4)")):
        f4.element_name(value)


def test_random_field_identities(f8):
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rng.randrange(8) for _ in range(3))
        assert f8.mul_int(a, f8.add_int(b, c)) == f8.add_int(
            f8.mul_int(a, b), f8.mul_int(a, c)
        )
        assert f8.mul_int(a, b) == f8.mul_int(b, a)


def digit_add(field, a, b):
    return field.from_digits([x + y for x, y in zip(field.to_digits(a), field.to_digits(b))])


# the flat sum table's fields, and GF(3^6) above its bound, on Zech logs
ODD_FIELDS = [
    (3, 1, None),
    (3, 2, [2, 2, 1]),
    (5, 2, [2, 1, 1]),
    (3, 3, [1, 2, 0, 1]),
    (7, 2, [3, 1, 1]),
    (3, 6, [2, 1, 0, 0, 0, 0, 1]),
]


@pytest.mark.parametrize("p,n,modulus", ODD_FIELDS, ids=lambda v: str(v))
def test_odd_addition_matches_digits_all_pairs(p, n, modulus):
    f = FiniteField(p, n, modulus)
    sums = field_reference.sums(f).tolist()
    for a in range(f.size):
        neg = field_reference.neg(f, a)
        assert f.add_int(a, neg) == 0 and -f(a) == neg
        assert [f.add_int(a, b) for b in range(f.size)] == sums[a]
    # every pair below q = 50, about 50 rows of GF(3^6)
    for a in range(0, f.size, 1 + f.size // 50):
        for b in range(f.size):
            assert f(a) - f(b) == sums[a][field_reference.neg(f, b)]


SMALL_FIELDS = [
    FiniteField(p, n, modulus, theta_r=n - 1)
    for p, n, modulus in ODD_FIELDS + [(2, 1, None), (2, 2, None), (2, 3, None), (2, 4, None)]
]


@given(st.data())
def test_array_operations_match_scalar_ones(data):
    f = data.draw(st.sampled_from(SMALL_FIELDS))
    symbols = st.lists(st.integers(0, f.size - 1), min_size=0, max_size=40)
    a = data.draw(symbols)
    b = data.draw(st.lists(st.integers(0, f.size - 1), min_size=len(a), max_size=len(a)))
    got_add, got_mul = f.add(a, b).tolist(), f.mul(a, b).tolist()
    assert got_add == [f.add_int(x, y) for x, y in zip(a, b)]
    assert got_mul == [f.mul_int(x, y) for x, y in zip(a, b)]
    assert f.frobenius_table[np.array(a, dtype=np.intp)].tolist() == [f.frobenius_int(x) for x in a]


@pytest.mark.parametrize("f", SMALL_FIELDS + [FiniteField(2, 4, theta_r=1), FiniteField(2, 4, theta_r=2)], ids=repr)
def test_array_frobenius_matches_the_scalar_one(f):
    values = np.arange(f.size)
    powers = np.arange(-f.n - 1, 2 * f.n + 2)
    got = f.frobenius(values, powers[:, None])
    assert got.shape == (len(powers), f.size)
    for row, i in zip(got.tolist(), powers.tolist()):
        assert row == [f.frobenius_int(a, i) for a in range(f.size)]
        assert f.frobenius(values, i).tolist() == row
    assert f.frobenius(values).tolist() == f.frobenius_table.tolist()


def test_sum_of_many_arrays_reduces_its_digit_sums():
    # GF(3^6) on x^6 + x + 2: a 10-bit digit field holds 511 terms, so 1200
    # terms overflow it twice
    f = FiniteField(3, 6, [2, 1, 0, 0, 0, 0, 1])
    terms = np.random.default_rng(5).integers(0, f.size, size=(1200, 8))
    want = [functools.reduce(f.add_int, column.tolist()) for column in terms.T]
    assert f.sum(terms).tolist() == want


# -- the one-call sum and the padded product table ----------------------------

# fields whose digit fields hold few terms (GF(3^8) 63, GF(3^10) 31), large
# binary ones, and two of the largest odd ones under the size cap
BIG_FIELDS = {
    "gf3^8": (3, 8, [1, 0, 0, 0, 0, 1, 1, 0, 1]),
    "gf3^10": (3, 10, [1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1]),
    "gf2^16": (2, 16, None),
    "gf2^20": (2, 20, [1] + [0] * 16 + [1, 0, 0, 1]),
    "gf3^12": (3, 12, [2, 0, 1] + [0] * 9 + [1]),  # x^12 + x^2 + 2
    "gf7^7": (7, 7, [6, 6, 0, 0, 0, 0, 0, 1]),  # x^7 - x - 1
}


# bytes held per element right after construction, by tracemalloc
HELD = {}


@functools.lru_cache(maxsize=1)  # one at a time: GF(7^7) alone holds 88 MiB
def big_field(name):
    p, n, modulus = BIG_FIELDS[name]
    # a cold build: with a live twin the tables would be shared and HELD
    # would read about 0
    gc.collect()
    assert (p, n, tuple(modulus or DEFAULT_BINARY_MODULI[n])) not in _TABLES
    tracemalloc.start()
    try:
        with deadline(5, f"building {name} took over 5 s"):
            f = FiniteField(p, n, modulus, theta_r=1)
        HELD[name] = tracemalloc.get_traced_memory()[0] / f.size
    finally:
        tracemalloc.stop()
    return f


@pytest.mark.parametrize("name", BIG_FIELDS)
def test_big_field_tables_are_consistent(name):
    f = big_field(name)
    q1 = f.size - 1
    assert np.array_equal(np.sort(f.antilog_table), np.arange(1, f.size))
    assert np.array_equal(f.log_table[f.antilog_table], np.arange(q1))
    assert f.log_table[0] == -1
    # the generator is the smallest primitive candidate: no c in [2, g) is
    # a power of g prime to q - 1
    assert f.log_table[f.generator] == 1
    assert (np.gcd(f.log_table[2 : f.generator], q1) > 1).all()
    # one table set, all arrays: 7 words an element for p = 2, 14 for odd p
    # (the sum tables), and a little slack
    assert not any(isinstance(v, list) for v in vars(f).values())
    assert HELD[name] <= (64 if f.p == 2 else 120), HELD[name]
    # g^i by naive square-and-multiply at a few exponents
    for i in random.Random(name).sample(range(q1), 20):
        x, base, e = 1, f.generator, i
        while e:
            if e & 1:
                x = naive_mul(f, x, base)
            base = naive_mul(f, base, base)
            e >>= 1
        assert f.antilog_table[i] == x


SUM_FIELDS = SMALL_FIELDS + [FiniteField(3, 6, [2, 1, 0, 0, 0, 0, 1])] + list(BIG_FIELDS)


@pytest.mark.parametrize("f", SUM_FIELDS, ids=str)
def test_a_stacked_sum_is_a_fold_of_add(f):
    f = big_field(f) if isinstance(f, str) else f
    rng = np.random.default_rng(f.size)
    counts = [1, 2, 3, 40]
    if f.p != 2 and f._room < 100:
        counts += [f._room, f._room + 1, 2 * f._room, 2 * f._room + 1, 5 * f._room + 3]
    for count in counts:
        terms = rng.integers(0, f.size, size=(count, 3, 5))
        stacked = f.sum(terms)
        assert stacked.shape == (3, 5)
        assert np.array_equal(stacked, functools.reduce(f.add, terms)), count
        column = terms[:, 0, 0]
        assert np.array_equal(f.sum(column), functools.reduce(f.add, column)), count
    assert np.array_equal(f.sum(np.zeros((0, 4), dtype=np.intp)), np.zeros(4))
    if f.p == 2:
        for dtype in (np.uint8, np.uint16, np.uint32, np.int32, np.intp):
            if f.size - 1 <= np.iinfo(dtype).max:
                terms = rng.integers(0, f.size, size=(7, 6)).astype(dtype)
                assert f.sum(terms).dtype == dtype
                assert np.array_equal(f.sum(terms), functools.reduce(f.add, terms))


def test_the_sum_past_a_digit_field_matches_the_scalar_adds():
    for name in ("gf3^8", "gf3^10"):
        f = big_field(name)
        terms = np.random.default_rng(9).integers(0, f.size, size=(4 * f._room + 7, 6))
        want = [functools.reduce(f.add_int, column.tolist()) for column in terms.T]
        assert f.sum(terms).tolist() == want
        assert f._room == {"gf3^8": 63, "gf3^10": 31}[name]


def log_product(f, a, b):
    """a * b by the log/antilog formula, without the padded table."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))
    prod = f.antilog_table[(f.log_table[a] + f.log_table[b]) % (f.size - 1)]
    return np.where((a != 0) & (b != 0), prod, 0)


@pytest.mark.parametrize(
    "f",
    SMALL_FIELDS + [FiniteField(2, 8, theta_r=1), FiniteField(3, 5, [1, 2, 0, 0, 0, 1]), FiniteField(5, 3, [2, 0, 1, 1])],
    ids=repr,
)
def test_mul_is_the_log_formula_on_all_pairs(f):
    a = np.arange(f.size)[:, None]
    b = np.arange(f.size)[None, :]
    got = f.mul(a, b)
    assert got.dtype == np.intp and got.shape == (f.size, f.size)
    assert np.array_equal(got, log_product(f, a, b))


@pytest.mark.parametrize("name", ["gf2^16", "gf3^8", "gf2^20"])
def test_mul_is_the_log_formula_on_random_pairs(name):
    f = big_field(name)
    rng = np.random.default_rng(len(name))
    a, b = rng.integers(0, f.size, size=(2, 10**5))
    a[::10] = 0
    b[5::13] = 0
    a[:3], b[:3] = (0, 0, 1), (0, 1, 0)
    narrow = np.uint32 if f.size > 2**16 else np.uint16
    for x, y in ((a, b), (a.astype(narrow), b.astype(np.int32))):
        got = f.mul(x, y)
        assert got.dtype == np.intp
        assert np.array_equal(got, log_product(f, a, b))
    # scalars, one scalar, and broadcasting
    for x, y in zip(a[:50].tolist(), b[:50].tolist()):
        assert f.mul(x, y) == f.mul_int(x, y) == log_product(f, x, y)
    assert np.array_equal(f.mul(a[:100], 7), log_product(f, a[:100], 7))
    assert np.array_equal(f.mul(0, b[:100]), np.zeros(100))
    grid = f.mul(a[:40, None], b[None, :30])
    assert grid.shape == (40, 30)
    assert np.array_equal(grid, log_product(f, a[:40, None], b[None, :30]))


# -- odd-p add: one flat table gather up to its bound, Zech logs above; and
# the identity Frobenius ------------------------------------------------------

ZECH_ADD_FIELDS = [
    (3, 1, None),
    (7, 1, None),
    (3, 2, [2, 2, 1]),
    (5, 2, [2, 1, 1]),
    (3, 3, [1, 2, 0, 1]),
    (7, 2, [3, 1, 1]),
    (3, 5, [1, 2, 0, 0, 0, 1]),
    (3, 6, [2, 1, 0, 0, 0, 0, 1]),
]


@pytest.mark.parametrize("p,n,modulus", ZECH_ADD_FIELDS, ids=lambda v: str(v))
def test_odd_add_and_add_int_are_digit_sums_on_all_pairs(p, n, modulus):
    f = FiniteField(p, n, modulus)
    q1 = f.size - 1
    if f.size <= _SUM_TABLE_SIZE:
        assert f._sum_table.shape == (f.size**2,) and f._sum_table.dtype == np.uint8
        assert not hasattr(f, "_sum_logs") and not hasattr(f, "_sum_zech")
    else:
        assert f._sum_table is None
        assert f._sum_logs.shape == (f.size,) and f._sum_zech.shape == (6 * q1 + 1,)
    want = field_reference.sums(f)
    a, b = np.divmod(np.arange(f.size**2), f.size)
    got = f.add(a, b)
    assert got.dtype == np.intp
    assert got.tolist() == want.ravel().tolist()
    assert [f.add_int(x, y) for x, y in zip(a.tolist(), b.tolist())] == want.ravel().tolist()
    # narrow dtypes, broadcasting and scalars
    column = np.arange(f.size, dtype=np.uint8 if f.size <= 256 else np.uint16)
    assert np.array_equal(f.add(column[:, None], column), want)
    for x, y in ((0, 0), (0, 1), (1, 0), (1, field_reference.neg(f, 1)), (f.size - 1, f.size - 2)):
        assert f.add(x, y) == f.add_int(x, y) == want[x, y]
    assert np.array_equal(f.add(column, 0), column) and np.array_equal(f.add(0, column), column)


@pytest.mark.parametrize("p,n,modulus", [(3, 2, [2, 2, 1]), (3, 5, [1, 2, 0, 0, 0, 1])], ids=str)
def test_a_table_add_is_in_the_operands_promoted_dtype(p, n, modulus):
    f = FiniteField(p, n, modulus)
    a, b = np.divmod(np.arange(f.size**2), f.size)
    want = field_reference.sums(f).ravel()
    narrow = (a.astype(np.uint8), b.astype(np.uint8))
    for x, y, dtype in (
        (*narrow, np.uint8),
        (narrow[0], b, np.intp),
        (a, narrow[1], np.intp),
        (a, b, np.intp),
        (a.astype(np.uint16), narrow[1], np.uint16),
    ):
        got = f.add(x, y)
        assert got.dtype == dtype and np.array_equal(got, want)


def test_a_zech_add_is_intp_whatever_its_operands():
    f = FiniteField(3, 6, [2, 1, 0, 0, 0, 0, 1])
    a, b = np.divmod(np.arange(f.size**2), f.size)
    want = field_reference.sums(f).ravel()
    small = (a < 256) & (b < 256)  # the pairs a uint8 operand holds; their sums may not fit
    assert want[small].max() > 255
    for x, y in ((a[small].astype(np.uint8), b[small].astype(np.uint8)), (a.astype(np.uint16), b)):
        got = f.add(x, y)
        assert got.dtype == np.intp
        assert np.array_equal(got, want[small] if len(got) < len(want) else want)


def test_binary_add_is_xor_in_the_operands_dtype(f8):
    a = np.arange(8, dtype=np.uint8)
    got = f8.add(a[:, None], a)
    assert got.dtype == np.uint8 and np.array_equal(got, a[:, None] ^ a)
    assert f8.add(5, 3) == 6


@pytest.mark.parametrize(
    "f",
    [FiniteField(2, 4, theta_r=2), FiniteField(3, 2, [2, 2, 1], theta_r=1), FiniteField(2, 2, [1, 1, 1])],
    ids=repr,
)
def test_frobenius_by_a_multiple_of_the_order_is_a_copy(f, monkeypatch):
    order = f.automorphism_order
    a = np.arange(f.size, dtype=np.uint8).reshape(1, -1)
    want = {i: f.frobenius(a, i) for i in (1, order + 1)}
    # the identity reads no table
    monkeypatch.setattr(f, "log_table", None)
    monkeypatch.setattr(f, "antilog_table", None)
    for i in (0, order, -2 * order, np.array([[0], [order], [3 * order]])):
        got = f.frobenius(a, i)
        assert got.dtype == np.intp and got.flags.writeable and not np.shares_memory(got, a)
        assert got.shape == np.broadcast_shapes(a.shape, np.shape(i))
        assert np.array_equal(got, np.broadcast_to(a, got.shape))
    monkeypatch.undo()
    for i, before in want.items():
        assert np.array_equal(f.frobenius(a, i), before)


# -- the tables against the scalar builder -----------------------------------

# binary fields of degree 1 to 16, ternary of degree 1 to 9, GF(5^k) for
# k <= 4 and k = 6, GF(7^k) for k <= 3 and k = 5, GF(11^2), GF(13^2),
# GF(31^2) and GF(1021), on the first one or two moduli of each
ORACLE_FIELDS = [
    (p, n, modulus)
    for p, n, count in [(2, n, 2) for n in range(1, 15)]
    + [(2, 15, 1), (2, 16, 1)]
    + [(3, n, 2) for n in range(1, 10)]
    + [(5, n, 2) for n in (1, 2, 3, 4, 6)]
    + [(7, n, 2) for n in (1, 2, 3, 5)]
    + [(11, 2, 2), (13, 2, 2), (31, 2, 2), (1021, 1, 1)]
    for modulus in field_reference.moduli(p, n, count)
]


def test_the_oracle_fields_are_72():
    assert len(ORACLE_FIELDS) == 72


@pytest.mark.parametrize("p,n,modulus", ORACLE_FIELDS, ids=lambda v: str(v).replace(" ", ""))
def test_tables_match_the_scalar_builder(p, n, modulus):
    f = FiniteField(p, n, modulus, theta_r=n - 1)
    generator, antilog, log, zech, frobenius = field_reference.tables(f)
    assert f.generator == generator
    assert np.array_equal(f.antilog_table, antilog) and f.antilog_table.dtype == np.intp
    assert np.array_equal(f.log_table, log) and f.log_table.dtype == np.intp
    # zech[m] = log(1 + g^m), read off the arrays
    assert np.array_equal(f.log_table[f.add(f.antilog_table, 1)] if p != 2 else [], zech)
    assert np.array_equal(f.frobenius_table, frobenius)


# -- FieldElement against the table-free oracle ------------------------------

ELEMENT_FIELDS = {
    "gf4": FiniteField(2, 2, [1, 1, 1], theta_r=1),
    "gf8_theta2": FiniteField(2, 3, [1, 1, 0, 1], theta_r=2),
    "gf9": FiniteField(3, 2, [2, 2, 1], theta_r=1),
    "gf16": FiniteField(2, 4, [1, 1, 0, 0, 1], theta_r=1),
    "gf25": FiniteField(5, 2, [2, 1, 1], theta_r=1),
}
EXPONENTS = (-5, -1, 0, 1, 2, 7)


def is_element(x, f, want):
    return type(x) is FieldElement and x.field is f and type(x.value) is int and x.value == want


def check_unary(f, a):
    """-a, a^-1, a^e and theta^i(a) of FieldElement against the oracle."""
    x = f(a)
    assert is_element(-x, f, field_reference.neg(f, a))
    if a:
        assert is_element(x.inverse(), f, field_reference.inv(f, a))
    for e in EXPONENTS if a else (0, 1, 7):
        assert is_element(x**e, f, field_reference.power(f, a, e)), e
    for i in (-1, 0, 1, 2, f.n + 1):
        want = field_reference.pow_raw(f, a, f.p ** (f.theta_r * i % f.n))
        assert is_element(x.frobenius(i), f, want), i


def check_binary(f, a, b):
    """a + b, a - b, a * b and a / b of FieldElement against the oracle."""
    x, y = f(a), f(b)
    assert is_element(x + y, f, digit_add(f, a, b))
    assert is_element(x - y, f, field_reference.sub(f, a, b))
    assert is_element(x * y, f, field_reference.mul_raw(f, a, b))
    if b:
        assert is_element(x / y, f, field_reference.mul_raw(f, a, field_reference.inv(f, b)))


@pytest.mark.parametrize("name", ELEMENT_FIELDS)
def test_field_elements_match_the_oracle_on_all_pairs(name):
    f = ELEMENT_FIELDS[name]
    for a in range(f.size):
        check_unary(f, a)
        for b in range(f.size):
            check_binary(f, a, b)


@pytest.mark.parametrize("name", BIG_FIELDS)
def test_field_elements_match_the_oracle_on_sampled_pairs(name):
    f = big_field(name)
    rng = random.Random(name)
    values = [0, 1, f.p - 1, f.generator, f.size - 1] + rng.sample(range(f.size), 20)
    for a in values:
        check_unary(f, a)
    for a, b in zip(values, values[1:] + values[:1]):
        check_binary(f, a, b)
        check_binary(f, b, a)


@pytest.mark.parametrize("name", ELEMENT_FIELDS)
def test_division_by_zero_keeps_its_message(name):
    f = ELEMENT_FIELDS[name]
    for make in (lambda: f(1) / f(0), lambda: f(0) / f(0), lambda: f(0).inverse(), lambda: f(0) ** -2):
        with pytest.raises(ZeroDivisionError, match=r"^division by zero in the field$"):
            make()
    assert f(0) ** 0 == 1 and f(0) ** 3 == 0


def test_a_field_element_hashes_as_the_int_it_equals(f4, f8):
    assert f4(3) == 3 and hash(f4(3)) == hash(3)
    assert 3 in {f4(3)} and f4(3) in {3}
    assert {f4(3): 0}[3] == 0 and {3: 0}[f4(3)] == 0
    assert len({f4(0), f4(1), 0, 1}) == 2
    # elements of two fields are unequal, so they can share a set or dict
    assert f4(1) != f8(1) and not f4(1) == f8(1)
    assert len({f4(1), f8(1)}) == 2 and {f4(1): 0, f8(1): 1}[f8(1)] == 1
    same = FiniteField(2, 2, [1, 1, 1], theta_r=1)  # equal to f4, another object
    assert f4(A) == same(A) and hash(f4(A)) == hash(same(A))
    with pytest.raises(ValueError, match="mixed-field"):
        f4(1) * f8(1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: f.element_name(2.0), "value must be an integer, got 2.0"),
        (lambda f: f.element_name("2"), "value must be an integer, got '2'"),
        (lambda f: f(2).frobenius(1.5), "Frobenius power must be an integer, got 1.5"),
        (lambda f: f(2).frobenius("1"), "Frobenius power must be an integer, got '1'"),
    ],
    ids=["name-float", "name-str", "frobenius-float", "frobenius-str"],
)
def test_non_integral_values_are_refused_with_one_line(f4, call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call(f4)
    assert "\n" not in str(info.value)


def test_numpy_integers_and_bools_name_and_twist_as_ints(f4):
    assert f4.element_name(np.int64(2)) == f4.element_name(np.uint8(2)) == "a"
    assert f4.element_name(True) == "1" and f4.element_name(np.int64(0)) == "0"
    assert f4(A).frobenius(np.int64(1)) == f4(A).frobenius(True) == A2
    assert f4(A).frobenius(np.uint8(2)) == f4(A).frobenius(False) == A


# -- one table set per modulus ------------------------------------------------

# the tables a field reads, built once per (p, n, modulus)
SHARED_TABLES = (
    "log_table",
    "antilog_table",
    "_product_logs",
    "_product_table",
    "_sum_table",
    "_sum_logs",
    "_sum_zech",
)


def counting(monkeypatch, calls):
    """Record each call of `_is_irreducible` and `_build_tables` in calls."""

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    irreducible = counted("irreducible", field_module._is_irreducible)
    monkeypatch.setattr(field_module, "_is_irreducible", irreducible)
    monkeypatch.setattr(FiniteField, "_build_tables", counted("build", FiniteField._build_tables))


# p = 2 on its default modulus, a flat sum table and Zech logarithms; each
# also with the modulus given, times a unit for odd p
TWIN_MODULI = [
    (2, 4, None, [1, 1, 0, 0, 1]),
    (3, 2, [2, 2, 1], [1, 1, 2]),
    (3, 6, [2, 1, 0, 0, 0, 0, 1], [1, 2, 0, 0, 0, 0, 2]),
]


@pytest.mark.parametrize("p, n, modulus, given", TWIN_MODULI, ids=str)
def test_fields_over_one_modulus_share_one_table_set(p, n, modulus, given):
    fields = [FiniteField(p, n, m, theta_r=r) for m in (modulus, given) for r in (0, 1)]
    first = fields[0]
    for f in fields:
        assert f._tables is first._tables is _TABLES[p, n, f.modulus]
        assert f.generator == first.generator
        for name in SHARED_TABLES:
            assert getattr(f, name, None) is getattr(first, name, None), name
        if p != 2:
            assert f._spread is first._spread
    # each theta_r keeps its own Frobenius table, theta = id the identity
    plain, twisted = fields[0].frobenius_table, fields[1].frobenius_table
    assert fields[2].frobenius_table is plain and fields[3].frobenius_table is twisted
    assert np.array_equal(plain, np.arange(first.size))
    assert twisted.tolist() == [(first(a) ** p).value for a in range(first.size)]
    assert [f.frobenius_int(a) for f in fields for a in range(first.size)] == (
        plain.tolist() + twisted.tolist()
    ) * 2


def test_a_twin_skips_the_irreducibility_test_and_the_build(monkeypatch):
    calls = []
    counting(monkeypatch, calls)
    key = (3, 3, (1, 0, 2, 1))  # x^3 + 2x^2 + 1, which no other test keeps
    gc.collect()
    assert key not in _TABLES
    first = FiniteField(3, 3, [1, 0, 2, 1])
    twins = [FiniteField(3, 3, [1, 0, 2, 1], theta_r=r) for r in (0, 1, 2)]
    twins.append(FiniteField(3, 3, [2, 0, 1, 2], theta_r=1))  # twice the modulus
    assert calls == ["irreducible", "build"]
    holder = weakref.ref(first._tables)
    del first, twins
    gc.collect()
    assert holder() is None and key not in _TABLES
    FiniteField(3, 3, [1, 0, 2, 1])
    assert calls == ["irreducible", "build"] * 2


def test_a_twin_of_a_big_field_holds_no_second_table_set(monkeypatch):
    f = big_field("gf3^12")
    calls = []
    counting(monkeypatch, calls)
    tracemalloc.start()
    try:
        twins = [FiniteField(f.p, f.n, f.modulus, theta_r=r) for r in (0, 1, 5)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert calls == [] and held < 2**20, held
    assert all(t.log_table is f.log_table and t._sum_zech is f._sum_zech for t in twins)


def test_sharing_leaves_the_field_checks_as_they_were(f4, f4_id, f8):
    with pytest.raises(ValueError, match="reducible"):
        FiniteField(2, 2, [1, 0, 1])
    # two moduli of GF(8) share nothing
    other = FiniteField(2, 3, [1, 0, 1, 1], theta_r=1)
    assert other._tables is not f8._tables and other != f8
    arrays = ("log_table", "antilog_table", "_product_logs", "_product_table")
    assert not any(getattr(other, name) is getattr(f8, name) for name in arrays)
    # a field equals, and hashes as, one built anew over the same key
    twin = FiniteField(2, 2, [1, 1, 1], theta_r=1)
    assert twin == f4 and hash(twin) == hash(f4) and twin != f4_id
    assert twin(2) * f4(3) == f4(1) and f4(2) + twin(3) == twin(1)
    assert f4(2) == twin(2) and f4(2) != f4_id(2)
    with pytest.raises(ValueError, match="^mixed-field operands$"):
        twin(2) * f4_id(3)


# 30 GF(2^16) fields built and dropped one after another: the bytes still
# traced after the first and after the last.  tracemalloc, not ru_maxrss: a
# child's ru_maxrss starts from the peak of the process that started it
BUILT_AND_DROPPED = textwrap.dedent(
    """
    import tracemalloc
    from skewconv import field

    def build_and_drop():
        field.FiniteField(2, 16, theta_r=1).frobenius_table
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    once = build_and_drop()
    for _ in range(29):
        last = build_and_drop()
    print(once, last, len(field._TABLES))
    """
)


def test_tables_go_with_the_last_field_over_them():
    # one GF(2^16) table set is about 4 MiB with its Frobenius table and its
    # smallest table 0.5 MiB, so a strong reference to any table kept per
    # build would hold 14 MiB more after the last
    env = dict(os.environ)
    package = Path(field_module.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", BUILT_AND_DROPPED], env=env, capture_output=True, text=True, check=True
    ).stdout
    once, last, live = map(int, out.split())
    assert live == 0 and last - once < 2**20, (once, last)

import functools
import math
import random
import signal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skewconv import FiniteField
from skewconv.field import DEFAULT_BINARY_MODULI

from conftest import A, A2


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
    assert f4.inv_int(A) == A2
    assert f4.inv_int(1) == 1


def test_inverse_brute_force_scan(f8):
    for a in range(1, 8):
        scan = [b for b in range(1, 8) if f8.mul_int(a, b) == 1]
        assert scan == [f8.inv_int(a)]


def test_division_by_zero(f4):
    with pytest.raises(ZeroDivisionError):
        f4.inv_int(0)
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
    def hung(signum, frame):
        raise TimeoutError("FiniteField did not reject a huge prime in time")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="cap"):
            FiniteField(1000000000000000003, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def test_element_names(f4):
    assert [f4.element_name(v) for v in range(4)] == ["0", "1", "a", "a^2"]


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


ODD_FIELDS = [
    (3, 1, None),
    (3, 2, [2, 2, 1]),
    (5, 2, [2, 1, 1]),
    (3, 3, [1, 2, 0, 1]),
    (7, 2, [3, 1, 1]),
]


@pytest.mark.parametrize("p,n,modulus", ODD_FIELDS, ids=lambda v: str(v))
def test_zech_addition_matches_digits_all_pairs(p, n, modulus):
    f = FiniteField(p, n, modulus)
    for a in range(f.size):
        assert f.add_int(a, f.neg_int(a)) == 0
        assert f.neg_int(a) == f.from_digits([-x for x in f.to_digits(a)])
        for b in range(f.size):
            assert f.add_int(a, b) == digit_add(f, a, b)
            assert f.sub_int(a, b) == digit_add(f, a, f.neg_int(b))


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

"""The scalar builder of a field's tables, kept as the oracle for the
GF(p)-linear table build in `skewconv.field.FiniteField._build_tables`.

`tables` finds the generator as the smallest integer candidate c with
c^((q - 1) / f) != 1 for every prime f | q - 1, each power by scalar
square-and-multiply, and makes the antilog table one product by the
generator per power.  A product is a carry-less multiply of bit masks for
p = 2 and a schoolbook digit product reduced by long division for odd p.
The log, Zech and Frobenius tables are then read off the antilog table one
element at a time.

It also keeps the scalar arithmetic that the field itself no longer has,
without any table: negation and subtraction digit by digit, the inverse as
a^(q - 2) and powers, negative ones included, by square-and-multiply,
and the q x q table of sums, digit by digit.  These are the oracle for `FieldElement` and for the loop references
`skewpoly_reference` and `code_reference`.
"""

import numpy as np

from skewconv.field import _is_irreducible, _prime_factors


def mul_raw(field, a, b):
    """a * b in `field` without its tables."""
    p, n = field.p, field.n
    if p == 2:
        top = 1 << n
        mod_full = sum(c << i for i, c in enumerate(field.modulus))
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod_full
        return result
    da = field.to_digits(a)
    db = field.to_digits(b)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(da):
        if x == 0:
            continue
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * n - 2, n - 1, -1):  # long division by the monic modulus
        factor = prod[top]
        for i, m in enumerate(field.modulus):
            prod[top - n + i] = (prod[top - n + i] - factor * m) % p
    return field.from_digits(prod[:n])


def pow_raw(field, a, e):
    result = 1
    while e:
        if e & 1:
            result = mul_raw(field, result, a)
        a = mul_raw(field, a, a)
        e >>= 1
    return result


def neg(field, a):
    return field.from_digits([-x for x in field.to_digits(a)])


def sub(field, a, b):
    return field.from_digits([x - y for x, y in zip(field.to_digits(a), field.to_digits(b))])


def sums(field):
    """The q x q array of a + b, row a: each of a's digits added to the same
    digit of every b, mod p."""
    digits = np.array([field.to_digits(a) for a in range(field.size)])
    place = field.p ** np.arange(field.n)
    return np.array([(row + digits) % field.p @ place for row in digits])


def inv(field, a):
    if a == 0:
        raise ZeroDivisionError("division by zero in the field")
    return pow_raw(field, a, field.size - 2)


def power(field, a, e):
    """a^e for any integer e: a negative e powers the inverse."""
    return pow_raw(field, a, e) if e >= 0 else pow_raw(field, inv(field, a), -e)


def tables(field):
    """(generator, antilog, log, zech, frobenius) of `field` as lists:
    antilog[i] = g^i, log[a] = i with g^i = a and -1 at 0, zech[m] =
    log(1 + g^m) (empty for p = 2) and frobenius[a] = a^(p^theta_r)."""
    p, q1 = field.p, field.size - 1
    factors = _prime_factors(q1)
    gen = 1
    for cand in range(2, field.size):
        if all(pow_raw(field, cand, q1 // f) != 1 for f in factors):
            gen = cand
            break
    antilog = [1]
    while len(antilog) < q1:
        antilog.append(mul_raw(field, antilog[-1], gen))
    log = [-1] * field.size
    for i, a in enumerate(antilog):
        log[a] = i
    # adding 1 steps digit 0
    zech = [log[a - a % p + (a % p + 1) % p] for a in antilog] if p != 2 else []
    twist = p**field.theta_r
    frobenius = [0] + [antilog[log[a] * twist % q1] for a in range(1, field.size)]
    return gen, antilog, log, zech, frobenius


def moduli(p, n, count):
    """The first `count` monic irreducible moduli of degree n over GF(p), in
    lexicographic order of their coefficients from the top."""
    out = []
    for low in range(p**n):
        modulus = [low // p**i % p for i in range(n)] + [1]
        if _is_irreducible(modulus, p):
            out.append(modulus)
            if len(out) == count:
                break
    return out

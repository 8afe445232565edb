"""Finite field GF(p^n) arithmetic with a designated Frobenius-power automorphism.

Elements are encoded as integers in [0, p^n) whose base-p digits are the
polynomial-basis coordinates, little-endian: in GF(4) built on x^2+x+1 the
class of x is the integer 2.  Multiplication and inversion run on log/antilog
tables built at construction; the automorphism is theta(a) = a^(p^r).

The tables come from one GF(p)-linear map: multiplying by a fixed c is an
n x n matrix mult(c) over GF(p), row j the digits of c x^j, and mult(c)^e =
mult(c^e) (Lidl and Niederreiter, *Finite Fields*, ch. 2).  See
`FiniteField._build_tables`.

Addition is digit-wise addition mod p, XOR for p = 2.  For odd p the scalar
`add_int` runs on Zech logarithms instead of digits: with a = g^i and
b = g^j, a + b = g^(i + Z(j - i)), where g^Z(m) = 1 + g^m (Huber, "Some
comments on Zech's logarithms", IEEE Trans. IT 1990).  `add`, `sum`, `mul`
and `frobenius` are the same operations over integer arrays; they and the
trellis builder run on the O(q) read-only numpy tables `log_table`,
`antilog_table` and `frobenius_table`.  Each costs O(1) numpy calls: `sum`
is one reduction along an array's first axis (one XOR reduce for p = 2; for
odd p one gather into digit bit fields, integer sums and one pack), `mul`
is one gather of a product table padded with zeros, at a sum of two logs
whose log of 0 is a sentinel past the antilogs, and odd-p `add` one gather
of the same table at a Zech-log sum padded the same way.
`frobenius` by powers that are all 0 mod the automorphism order is a copy.
"""

import math
import numbers
from functools import cached_property

import numpy as np

__all__ = ["FiniteField", "FieldElement", "DEFAULT_BINARY_MODULI"]

# max table size kept small enough for full log/antilog lookup
_MAX_FIELD_SIZE = 2**20

# digit rows per matmul in the table build; _BLOCK n^2 < 2^18 keeps OpenBLAS
# on one thread, as a threaded product can stall 0.1 s on a busy 2-core host
_BLOCK = 256

# Default irreducible moduli over GF(2) for degrees 2..16, little-endian
# coefficient lists.  All are primitive; degree 1 defaults to x for any p.
DEFAULT_BINARY_MODULI = {
    2: [1, 1, 1],
    3: [1, 1, 0, 1],
    4: [1, 1, 0, 0, 1],
    5: [1, 0, 1, 0, 0, 1],
    6: [1, 1, 0, 0, 0, 0, 1],
    7: [1, 0, 0, 1, 0, 0, 0, 1],
    8: [1, 0, 1, 1, 1, 0, 0, 0, 1],
    9: [1, 0, 0, 0, 1, 0, 0, 0, 0, 1],
    10: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
    11: [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    12: [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1],
    13: [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    14: [1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    15: [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    16: [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1],
}


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _prime_factors(m):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _integral(value, what):
    # an int is Integral; testing it first skips the slower ABC check
    if not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _symbol(field, c, what="value", t=None):
    """The integer of symbol c over field: c's value if it is a FieldElement
    of the field, else c as an integer in [0, q).  A non-integral c, a float
    or a string, is refused; `what` names c in the messages, after its
    block t if one is given."""
    if isinstance(c, FieldElement):
        if c.field is not field and c.field != field:
            raise ValueError("mixed-field operands")
        return c.value
    if isinstance(c, (int, numbers.Integral)) and 0 <= (v := int(c)) < field.size:
        return v
    where = what if t is None else f"block {t}: {what}"
    raise ValueError(f"{where} {_integral(c, where)} outside [0, {field.size})")


def _as_ints(a):
    """a as an array: in its own dtype if it is one, else as intp."""
    return np.asarray(a, dtype=getattr(a, "dtype", np.intp))


def _read_only(array):
    array.setflags(write=False)
    return array


def _is_irreducible(modulus, p):
    """Trial division of a monic modulus by each monic divisor of degree <= n/2."""
    n = len(modulus) - 1
    for deg in range(1, n // 2 + 1):
        for low in range(p**deg):
            div = [low // p**i % p for i in range(deg)] + [1]
            rest = list(modulus)
            for top in range(n, deg - 1, -1):
                factor = rest[top]
                for i, d in enumerate(div):
                    rest[top - deg + i] = (rest[top - deg + i] - factor * d) % p
            if not any(rest[:deg]):
                return False
    return True


def _squares(digits, modulus, p, count):
    """mult(c)^(2^k), k < max(count, 1), as float64, for c of these digits:
    row j + 1 of mult(c) is row j times x, reduced by the monic modulus."""
    rows = [digits]
    while len(rows) < len(digits):
        rows.append([(d - rows[-1][-1] * m) % p for d, m in zip([0] + rows[-1][:-1], modulus)])
    out = [np.array(rows, dtype=float)]
    while len(out) < count:
        out.append(out[-1] @ out[-1] % p)
    return out


def _is_one(squares, e, p):
    """c^e == 1, e >= 1, from squares[k] = mult(c)^(2^k)."""
    bits = [k for k in range(e.bit_length()) if e >> k & 1]
    row = squares[bits[0]][0]
    for k in bits[1:]:
        row = row @ squares[k] % p
    return row.tolist() == [1] + [0] * (len(row) - 1)


def _doubled_powers(squares, p, n, q1):
    """g^0 .. g^(q1 - 1) as intp from squares[k] = mult(g)^(2^k): digit row
    i of g^i, 2^k <= i < 2^(k + 1), is row i - 2^k times squares[k] mod p.
    The last doubling keeps values only, so no q x n matrix is held."""
    digits = np.zeros((1 << max(len(squares) - 1, 0), n), dtype=np.intp)
    digits[0, 0] = 1
    antilog = np.empty(q1, dtype=np.intp)
    place = p ** np.arange(n)
    for k, square in enumerate(squares):
        low = 1 << k
        for start in range(low, min(2 * low, q1), _BLOCK):
            stop = min(start + _BLOCK, 2 * low, q1)
            last = stop > len(digits)
            rows = np.empty((stop - start, n), dtype=np.intp) if last else digits[start:stop]
            np.matmul(digits[start - low : stop - low], square, out=rows, casting="unsafe")
            rows %= p
            if last:
                np.matmul(rows, place, out=antilog[start:stop])
    np.matmul(digits, place, out=antilog[: len(digits)])
    return antilog


class FiniteField:
    """GF(p^n) with theta(a) = a^(p^r).

    Immutable after construction; log/antilog tables are built once and the
    instance is safe to share across threads.
    """

    def __init__(self, p, n, modulus=None, theta_r=0):
        p = _integral(p, "characteristic")
        n = _integral(n, "extension degree")
        theta_r = _integral(theta_r, "theta_r")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        # the size cap comes before the primality test, whose trial division
        # would not finish on a huge p; checking n first keeps p**n small
        if p >= 2 and (n >= _MAX_FIELD_SIZE.bit_length() or p**n > _MAX_FIELD_SIZE):
            raise ValueError(f"field size {p}^{n} exceeds the {_MAX_FIELD_SIZE} table cap")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if not 0 <= theta_r < n:
            raise ValueError(f"theta_r must satisfy 0 <= r < n, got {theta_r}")

        if modulus is None:
            if n == 1:
                modulus = [0, 1]
            elif p == 2 and n in DEFAULT_BINARY_MODULI:
                modulus = DEFAULT_BINARY_MODULI[n]
            else:
                raise ValueError(f"no default modulus for GF({p}^{n}); supply one")
        modulus = [_integral(c, "modulus coefficient") % p for c in modulus]
        if len(modulus) != n + 1 or modulus[-1] == 0:
            raise ValueError(f"modulus must have degree exactly {n}")
        if modulus[-1] != 1:
            inv_lead = pow(modulus[-1], p - 2, p)
            modulus = [c * inv_lead % p for c in modulus]
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")

        self.p = p
        self.n = n
        self.modulus = tuple(modulus)
        self.theta_r = theta_r
        self.size = p**n
        self._build_tables()

    # -- integer <-> digit-vector encoding --

    def to_digits(self, value):
        out = []
        for _ in range(self.n):
            value, d = divmod(value, self.p)
            out.append(d)
        return out

    def from_digits(self, digits):
        value = 0
        for d in reversed(list(digits)):
            value = value * self.p + d % self.p
        return value

    def _build_tables(self):
        """The generator g is the smallest integer c >= 2 with c^((q - 1) / f)
        != 1 for every prime f | q - 1 (1 in GF(2)), each power row 0 of a
        product of the squares mult(c)^(2^k).  The antilog table doubles
        from g^0 = 1 with the same squares: the digit rows of the next L =
        2^k powers are those of the first L times mult(g)^L, mod p.  The
        matmuls are float64 and exact, as their sums, at most n (p - 1)^2,
        stay below 2^53.  The other tables are read off the antilog table.
        """
        p, q1 = self.p, self.size - 1
        assert self.n * (p - 1) ** 2 < 2**53
        steps = (q1 - 1).bit_length()
        factors = _prime_factors(q1)
        for gen in range(2, self.size):
            squares = _squares(self.to_digits(gen), self.modulus, p, steps)
            if not any(_is_one(squares, q1 // f, p) for f in factors):
                break
        else:  # GF(2), whose only unit is 1
            gen, squares = 1, []
        antilog = _doubled_powers(squares, p, self.n, q1)
        self.generator = gen
        # log_table[a] = i where g^i = a, and -1 at a = 0
        log = np.full(self.size, -1, dtype=np.intp)
        log[antilog] = np.arange(q1)
        self.antilog_table = _read_only(antilog)
        self.log_table = _read_only(log)
        self._antilog = antilog.tolist()
        self._log = log.tolist()
        # the product tables: _product_logs is log_table with the sentinel
        # 2(q - 1) at 0, and _product_table is the antilog table twice over,
        # so that a sum of two logs needs no reduction mod q - 1, then zeros
        # from 2(q - 1) to 4(q - 1), where a sum with a sentinel lands
        logs = self.log_table.copy()
        logs[0] = 2 * q1
        self._product_logs = _read_only(logs)
        zeros = np.zeros(2 * q1 + 1, dtype=np.intp)
        self._product_table = _read_only(np.concatenate((antilog, antilog, zeros)))
        if self.p != 2:
            # zech[m] = log(1 + g^m), -1 where 1 + g^m = 0; adding 1 steps digit 0
            low = self.antilog_table % self.p
            zech = self.log_table[self.antilog_table - low + (low + 1) % self.p]
            self._zech = zech.tolist()
            self._sum_logs, self._sum_zech = self._zech_tables(zech)

    def _zech_tables(self, zech):
        """(sum_logs, sum_zech) for `add`: a + b is the `_product_table`
        entry at _product_logs[a] + sum_zech[sum_logs[b] - _product_logs[a]].
        sum_logs is log_table + 2(q - 1), with 6(q - 1) at 0, so that the
        difference d falls in one range per case, each mapped by sum_zech:
        - a = 0 < b: d = log b in [0, q - 1), to d - 2(q - 1), so the gather
          lands on g^(log b);
        - both nonzero: d = log b - log a + 2(q - 1) in (q - 1, 3(q - 1)),
          to zech[d mod (q - 1)], or to the zero block at 2(q - 1) where b =
          -a;
        - both zero: d = 4(q - 1), to 2(q - 1), in the zero block;
        - a > 0 = b: d in (5(q - 1), 6(q - 1)], to 0, so it lands on a."""
        q1 = self.size - 1
        sum_logs = self.log_table + 2 * q1
        sum_logs[0] = 6 * q1
        sum_zech = np.zeros(6 * q1 + 1, dtype=np.intp)
        sum_zech[:q1] = np.arange(q1) - 2 * q1
        d = np.arange(q1, 3 * q1)
        sum_zech[d] = np.where(zech[d % q1] < 0, 2 * q1, zech[d % q1])
        sum_zech[4 * q1] = 2 * q1
        return _read_only(sum_logs), _read_only(sum_zech)

    @cached_property
    def frobenius_table(self):
        """frobenius_table[a] = theta(a), made on first use."""
        table = self.antilog_table[self.log_table * self.p**self.theta_r % (self.size - 1)]
        table[0] = 0
        return _read_only(table)

    # -- integer-level field operations --

    def add_int(self, a, b):
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        log, q1 = self._log, self.size - 1
        la = log[a]
        z = self._zech[(log[b] - la) % q1]
        return 0 if z < 0 else self._antilog[(la + z) % q1]

    def neg_int(self, a):
        if self.p == 2 or a == 0:
            return a
        q1 = self.size - 1
        return self._antilog[(self._log[a] + q1 // 2) % q1]  # -1 = g^((q - 1) / 2)

    def sub_int(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.add_int(a, self.neg_int(b))

    # -- element-wise operations over integer arrays --

    def add(self, a, b):
        """a + b element-wise over integer arrays (broadcast): XOR in the
        operands' dtype for p = 2, and for odd p, as intp, one gather of
        `_product_table` at a Zech-log sum (`_zech_tables`)."""
        if self.p == 2:
            return np.bitwise_xor(_as_ints(a), _as_ints(b))
        la = self._product_logs[a]
        return self._product_table[la + self._sum_zech[self._sum_logs[b] - la]]

    def sum(self, terms):
        """The element-wise sum of an integer array's entries along axis 0.

        For p = 2 it is XOR, in the terms' dtype: one `bitwise_xor.reduce`.
        For odd p each term's base-p digits go one to a bit field of an
        int64 (`_spread`, one gather), so that adding terms is one integer
        sum, and the digits are reduced mod p and packed back to elements
        (`_pack`) at the end.  Past `_room` terms, the most a bit field
        holds, it is summed `_room` terms at a time and the group sums are
        packed, spread and summed the same way.
        """
        if self.p == 2:
            return np.bitwise_xor.reduce(terms, axis=0)
        spread, width = self._spread
        total = spread[terms]
        while len(total) > self._room:
            groups = np.add.reduceat(total, np.arange(0, len(total), self._room), axis=0)
            total = spread[self._pack(groups, width)]
        return self._pack(total.sum(axis=0), width)

    @cached_property
    def _spread(self):
        """(spread, width): spread[a] holds digit i of a in bits
        [width * i, width * (i + 1))."""
        width = 63 // self.n
        spread = np.zeros(self.size, dtype=np.int64)
        rest = np.arange(self.size)
        for i in range(self.n):
            rest, digit = np.divmod(rest, self.p)
            spread |= digit << (width * i)
        return _read_only(spread), width

    @cached_property
    def _room(self):
        """The most digits p - 1 a `_spread` bit field holds summed."""
        return ((1 << self._spread[1]) - 1) // (self.p - 1)

    def _pack(self, total, width):
        """Digit sums spread as by `_spread` back to field elements."""
        mask = (1 << width) - 1
        out = 0
        for i in range(self.n):
            out = out + ((total >> (width * i)) & mask) % self.p * self.p**i
        return out

    def mul(self, a, b):
        """a * b element-wise over integer arrays (broadcast), as intp: one
        gather of `_product_table` at `_product_logs[a] + _product_logs[b]`."""
        logs = self._product_logs
        return self._product_table[logs[a] + logs[b]]

    def mul_int(self, a, b):
        if a == 0 or b == 0:
            return 0
        q1 = self.size - 1
        return self._antilog[(self._log[a] + self._log[b]) % q1]

    def inv_int(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in the field")
        q1 = self.size - 1
        return self._antilog[-self._log[a] % q1]

    def pow_int(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("division by zero in the field")
            return 0
        q1 = self.size - 1
        return self._antilog[self._log[a] * e % q1]

    def frobenius_int(self, a, i=1):
        """theta^i(a) where theta(a) = a^(p^r); any integer i is accepted."""
        if a == 0:
            return 0
        j = (self.theta_r * i) % self.n
        if j == 0:
            return a
        q1 = self.size - 1
        return self._antilog[self._log[a] * (self.p**j) % q1]

    def frobenius(self, a, i=1):
        """theta^i(a) element-wise over an integer array, as intp; i is an
        integer or an integer array broadcast against a."""
        a = np.asarray(a, dtype=np.intp)
        j = self.theta_r * np.asarray(i) % self.n
        if not j.any():  # every power is theta^0: a, broadcast against the zeros j
            return a + j
        twisted = self.antilog_table[self.log_table[a] * self.p**j % (self.size - 1)]
        return np.where(a != 0, twisted, 0)

    @property
    def automorphism_order(self):
        return self.n // math.gcd(self.n, self.theta_r)

    def fixed_subfield(self):
        """Values fixed by theta, i.e. the subfield GF(p^gcd(r, n))."""
        return np.flatnonzero(self.frobenius_table == np.arange(self.size)).tolist()

    # -- element construction and formatting --

    def element(self, value):
        return FieldElement(self, value)

    __call__ = element

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    @property
    def primitive_element(self):
        return FieldElement(self, self.generator)

    def elements(self):
        return [FieldElement(self, v) for v in range(self.size)]

    def element_name(self, value, symbol="a"):
        """Power-of-generator rendering: 0, 1, a, a^2, ..."""
        if not 0 <= value < self.size:
            raise ValueError(f"value {value} outside [0, {self.size})")
        if value == 0:
            return "0"
        e = self._log[value]
        if e == 0:
            return "1"
        if e == 1:
            return symbol
        return f"{symbol}^{e}"

    def __eq__(self, other):
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.n, self.modulus, self.theta_r) == (
            other.p,
            other.n,
            other.modulus,
            other.theta_r,
        )

    def __hash__(self):
        return hash((self.p, self.n, self.modulus, self.theta_r))

    def __repr__(self):
        return f"FiniteField(p={self.p}, n={self.n}, theta_r={self.theta_r})"


class FieldElement:
    """Immutable value in a FiniteField; compares equal to plain ints by value."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        if type(value) is not int:
            value = _integral(value, "field element value")
        if not 0 <= value < field.size:
            raise ValueError(f"value {value} outside [0, {field.size})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if not isinstance(other, FieldElement):
            return None
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed-field operands")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add_int(self.value, other.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_int(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_int(self.value))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_int(self.value, other.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(
            self.field, self.field.mul_int(self.value, self.field.inv_int(other.value))
        )

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return FieldElement(self.field, self.field.pow_int(self.value, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_int(self.value))

    def frobenius(self, i=1):
        return FieldElement(self.field, self.field.frobenius_int(self.value, i))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        if isinstance(other, FieldElement):
            self._coerce(other)
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return self.field.element_name(self.value)

"""Skew polynomials over a finite field and matrices of them.

Multiplication follows the twisted rule D*a = theta(a)*D, so
(x D^i)(y D^j) = x * theta^i(y) * D^(i+j); addition is coefficientwise.

Both types hold their coefficients as one read-only integer array, ascending
in D, with trailing zero terms stripped, so that equal values hold equal
arrays.  Every product is `linalg.f_polymul`, a polynomial being its 1 x 1
matrix, and sums are the field's array `add`.
"""

import numpy as np

from .field import FieldElement, _read_only, _symbol
from .linalg import f_polymul

__all__ = ["SkewPoly", "SkewPolyMatrix"]

NEG_INF = float("-inf")


def _strip(values):
    """values, an integer array [i, ...], as read-only intp with its trailing
    zero terms stripped: itself if it has none."""
    values = np.asarray(values, dtype=np.intp)
    end = len(values)
    while end and not values[end - 1].any():
        end -= 1
    return _read_only(values if end == len(values) else values[:end])


def _stack(cells):
    """The rows of cells, 1-D sequences of coefficient integers, as one
    integer array [i, row, col], each cell zero-padded."""
    terms = max(len(cell) for row in cells for cell in row)
    values = np.zeros((terms, len(cells), len(cells[0])), dtype=np.intp)
    for r, row in enumerate(cells):
        for c, cell in enumerate(row):
            values[: len(cell), r, c] = cell
    return values


class SkewPoly:
    """Coefficient vector ascending in D, trailing zeros stripped.

    `coeffs` and `coefficient` box the coefficients into `FieldElement`s on
    access; the arithmetic, the integer view `coefficient_values`, equality
    and hashing never box.
    """

    __slots__ = ("field", "_values")

    def __init__(self, field, coeffs=()):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_values", _strip([_symbol(field, c) for c in coeffs]))

    @classmethod
    def _trusted(cls, field, values):
        """The polynomial of an array of in-range integers, taken unchecked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "field", field)
        object.__setattr__(poly, "_values", _strip(values))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def indeterminate(cls, field):
        return cls(field, (0, 1))

    @property
    def coeffs(self):
        return tuple(FieldElement(self.field, v) for v in self._values.tolist())

    @property
    def degree(self):
        return len(self._values) - 1 if len(self._values) else NEG_INF

    @property
    def is_zero(self):
        return not len(self._values)

    def coefficient(self, i):
        value = int(self._values[i]) if 0 <= i < len(self._values) else 0
        return FieldElement(self.field, value)

    def coefficient_values(self):
        return self._values.tolist()

    def _coerce(self, other):
        """other as a polynomial: itself if it is one, else the constant of
        the symbol it is."""
        if isinstance(other, SkewPoly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed-field operands")
            return other
        return SkewPoly(self.field, (other,))

    def __add__(self, other):
        a, b = self._values, self._coerce(other)._values
        if len(a) < len(b):
            a, b = b, a
        out = np.array(a)  # the longer, with the shorter added to its low terms
        out[: len(b)] = self.field.add(out[: len(b)], b)
        return SkewPoly._trusted(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return SkewPoly._trusted(f, f.mul(self._values, f.p - 1))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        product = f_polymul(self.field, self._values[:, None, None], other._values[:, None, None])
        return SkewPoly._trusted(self.field, product[:, 0, 0])

    def __rmul__(self, other):
        # scalar * poly: a constant commutes past nothing, so build it as a poly
        return self._coerce(other) * self

    def right_divmod(self, divisor):
        """Quotient and remainder with the divisor acting on the right:
        self = quot * divisor + rem, deg rem < deg divisor.

        Quotient term e, from the top, is c = rem_(e + deg divisor) *
        theta^e(lead^-1), and rem takes c * -theta^e(divisor) at e: one
        array step each, on the twists of the divisor and of its lead's
        one inverse made for every e at once."""
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("right division by the zero polynomial")
        f, d = self.field, divisor._values
        dd = len(d) - 1
        rem = np.array(self._values)
        quot = np.zeros(max(len(rem) - dd, 0), dtype=np.intp)
        powers = np.arange(len(quot))
        inverses = f.frobenius(f.inv_int(int(d[-1])), powers)
        negated = f.mul(f.frobenius(d, powers[:, None]), f.p - 1)
        for e in reversed(range(len(quot))):
            quot[e] = f.mul(rem[e + dd], inverses[e])
            rem[e : e + dd + 1] = f.add(rem[e : e + dd + 1], f.mul(quot[e], negated[e]))
        return SkewPoly._trusted(f, quot), SkewPoly._trusted(f, rem)

    def __eq__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = self._coerce(other)
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.field == other.field and np.array_equal(self._values, other._values)

    def __hash__(self):
        return hash((self.field, self._values.tobytes()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self._values.tolist()):
            if c == 0:
                continue
            name = self.field.element_name(c)
            if i == 0:
                terms.append(name)
            else:
                dpow = "D" if i == 1 else f"D^{i}"
                terms.append(dpow if name == "1" else f"{name}*{dpow}")
        return " + ".join(terms)


class SkewPolyMatrix:
    """Rectangular matrix of skew polynomials sharing one field, held as the
    read-only integer array `coefficients[i, row, col]` of its coefficient
    matrices C_0 .. C_degree; `entries` boxes it into `SkewPoly`s on access."""

    __slots__ = ("field", "coefficients")

    def __init__(self, entries):
        if not entries or not entries[0]:
            raise ValueError("matrix must be non-empty")
        field = entries[0][0].field
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for e in row:
                if not isinstance(e, SkewPoly):
                    raise ValueError("entries must be SkewPoly")
                if e.field != field:
                    raise ValueError("mixed-field operands")
        values = _stack([[e._values for e in row] for row in entries])
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coefficients", _strip(values))

    @classmethod
    def _trusted(cls, field, coefficients):
        """The matrix of an integer array [i, row, col] of in-range integers,
        taken unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "coefficients", _strip(coefficients))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("SkewPolyMatrix is immutable")

    @classmethod
    def from_ints(cls, field, table):
        """Build from a nested list: table[i][j] is the ascending-D coefficient
        list (integers) of entry (i, j)."""
        if not table or not table[0]:
            raise ValueError("matrix must be non-empty")
        if any(len(row) != len(table[0]) for row in table):
            raise ValueError("ragged matrix")
        cells = [[[_symbol(field, c) for c in cell] for cell in row] for row in table]
        return cls._trusted(field, _stack(cells))

    @classmethod
    def from_coefficients(cls, field, coeff_mats):
        """Build from per-power coefficient matrices over the field, an array
        or nested lists indexed [i][row][col], copied."""
        values = np.array(coeff_mats)
        if values.ndim != 3 or not values.size:
            raise ValueError("need one or more non-empty coefficient matrices [i][row][col]")
        if values.dtype.kind not in "biu" or values.min() < 0 or values.max() >= field.size:
            # every symbol read by the one coercion, which refuses the first bad one
            values = np.reshape([_symbol(field, c) for c in values.ravel().tolist()], values.shape)
        return cls._trusted(field, values)

    @property
    def rows(self):
        return self.coefficients.shape[1]

    @property
    def cols(self):
        return self.coefficients.shape[2]

    @property
    def entries(self):
        """The entries as rows of `SkewPoly`s, made on each access."""
        cells = self.coefficients.transpose(1, 2, 0)
        return tuple(tuple(SkewPoly._trusted(self.field, cell) for cell in row) for row in cells)

    @property
    def degree(self):
        return len(self.coefficients) - 1 if len(self.coefficients) else NEG_INF

    def coefficient_values(self, i):
        """Coefficient matrix of D^i as nested integer lists."""
        if not 0 <= i < len(self.coefficients):
            return np.zeros(self.coefficients.shape[1:], dtype=np.intp).tolist()
        return self.coefficients[i].tolist()

    def row_degrees(self):
        powers = np.arange(len(self.coefficients))[:, None]
        return np.max(self.coefficients.any(axis=2) * powers, axis=0, initial=0).tolist()

    def transpose(self):
        return SkewPolyMatrix._trusted(self.field, self.coefficients.transpose(0, 2, 1))

    def __matmul__(self, other):
        if not isinstance(other, SkewPolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if other.field != self.field:
            raise ValueError("mixed-field operands")
        return SkewPolyMatrix._trusted(
            self.field, f_polymul(self.field, self.coefficients, other.coefficients)
        )

    @property
    def is_zero(self):
        return not len(self.coefficients)

    def to_ints(self):
        return [[e.coefficient_values() for e in row] for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, SkewPolyMatrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.coefficients, other.coefficients)

    def __hash__(self):
        return hash((self.field, self.coefficients.shape, self.coefficients.tobytes()))

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"[{body}]"

"""Skew polynomials over a finite field and matrices of them.

Multiplication follows the twisted rule D*a = theta(a)*D, so
(x D^i)(y D^j) = x * theta^i(y) * D^(i+j); addition is coefficientwise.
"""

from .field import FieldElement

__all__ = ["SkewPoly", "SkewPolyMatrix"]

NEG_INF = float("-inf")


def _as_value(field, c):
    if isinstance(c, FieldElement):
        if c.field is not field and c.field != field:
            raise ValueError("mixed-field operands")
        return c.value
    return int(c)


class SkewPoly:
    """Coefficient vector ascending in D, trailing zeros stripped.

    The coefficients are held as a tuple of plain integers; `coeffs` and
    `coefficient` box them into `FieldElement`s on access, and the
    arithmetic, the integer view `coefficient_values`, equality and hashing
    never box.
    """

    __slots__ = ("field", "_values")

    def __init__(self, field, coeffs=()):
        values = [_as_value(field, c) for c in coeffs]
        for v in values:
            if not 0 <= v < field.size:
                raise ValueError(f"value {v} outside [0, {field.size})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_values", _strip(values))

    @classmethod
    def _trusted(cls, field, values):
        """The polynomial of a list of in-range integers, taken unchecked."""
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
        return tuple(FieldElement(self.field, v) for v in self._values)

    @property
    def degree(self):
        return len(self._values) - 1 if self._values else NEG_INF

    @property
    def is_zero(self):
        return not self._values

    def coefficient(self, i):
        return FieldElement(self.field, self._value(i))

    def _value(self, i):
        return self._values[i] if 0 <= i < len(self._values) else 0

    def coefficient_values(self):
        return list(self._values)

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed-field operands")
            return other
        if isinstance(other, (FieldElement, int)):
            return SkewPoly(self.field, (_as_value(self.field, other),))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        a, b = self._values, other._values
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add_int(out[i], c)
        return SkewPoly._trusted(f, out)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return SkewPoly._trusted(f, [f.neg_int(c) for c in self._values])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        if self.is_zero or other.is_zero:
            return SkewPoly.zero(f)
        out = [0] * (len(self._values) + len(other._values) - 1)
        for i, x in enumerate(self._values):
            if x == 0:
                continue
            for j, y in enumerate(other._values):
                if y == 0:
                    continue
                term = f.mul_int(x, f.frobenius_int(y, i))
                out[i + j] = f.add_int(out[i + j], term)
        return SkewPoly._trusted(f, out)

    def __rmul__(self, other):
        # scalar * poly: a constant commutes past nothing, so build it as a poly
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def right_divmod(self, divisor):
        """Quotient and remainder with the divisor acting on the right:
        self = quot * divisor + rem, deg rem < deg divisor."""
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero:
            raise ZeroDivisionError("right division by the zero polynomial")
        f = self.field
        dd = len(divisor._values) - 1
        lead = divisor._values[-1]
        rem = list(self._values)
        quot = [0] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            e = len(rem) - 1 - dd
            if e < 0:
                break
            # solve c * theta^e(lead) = rem_lead
            c = f.mul_int(rem[-1], f.inv_int(f.frobenius_int(lead, e)))
            quot[e] = f.add_int(quot[e], c)
            for j, y in enumerate(divisor._values):
                term = f.mul_int(c, f.frobenius_int(y, e))
                rem[e + j] = f.sub_int(rem[e + j], term)
        return SkewPoly._trusted(f, quot), SkewPoly._trusted(f, rem)

    def __eq__(self, other):
        if isinstance(other, (FieldElement, int)):
            other = self._coerce(other)
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.field == other.field and self._values == other._values

    def __hash__(self):
        return hash((self.field, self._values))

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self._values):
            if c == 0:
                continue
            name = self.field.element_name(c)
            if i == 0:
                terms.append(name)
            else:
                dpow = "D" if i == 1 else f"D^{i}"
                terms.append(dpow if name == "1" else f"{name}*{dpow}")
        return " + ".join(terms)


def _strip(values):
    """The values as a tuple, trailing zeros stripped."""
    end = len(values)
    while end and values[end - 1] == 0:
        end -= 1
    return tuple(values[:end])


class SkewPolyMatrix:
    """Rectangular matrix of skew polynomials sharing one field."""

    __slots__ = ("field", "rows", "cols", "entries")

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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPolyMatrix is immutable")

    @classmethod
    def from_ints(cls, field, table):
        """Build from a nested list: table[i][j] is the ascending-D coefficient
        list (integers) of entry (i, j)."""
        return cls([[SkewPoly(field, cell) for cell in row] for row in table])

    @classmethod
    def from_coefficients(cls, field, coeff_mats):
        """Build from per-power coefficient matrices over the field."""
        if not coeff_mats:
            raise ValueError("need at least one coefficient matrix")
        k = len(coeff_mats[0])
        n = len(coeff_mats[0][0])
        table = [[[m[i][j] for m in coeff_mats] for j in range(n)] for i in range(k)]
        return cls.from_ints(field, table)

    @property
    def degree(self):
        return max(e.degree for row in self.entries for e in row)

    def coefficient_values(self, i):
        """Coefficient matrix of D^i as nested integer lists."""
        return [[e._value(i) for e in row] for row in self.entries]

    def row_degrees(self):
        return [max(int(max(e.degree, 0)) if not e.is_zero else 0 for e in row) for row in self.entries]

    def transpose(self):
        return SkewPolyMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __matmul__(self, other):
        if not isinstance(other, SkewPolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        zero = SkewPoly.zero(self.field)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for m in range(self.cols):
                    acc = acc + self.entries[i][m] * other.entries[m][j]
                row.append(acc)
            out.append(row)
        return SkewPolyMatrix(out)

    @property
    def is_zero(self):
        return all(e.is_zero for row in self.entries for e in row)

    def to_ints(self):
        return [[e.coefficient_values() for e in row] for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, SkewPolyMatrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"[{body}]"

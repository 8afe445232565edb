"""Skew convolutional and skew trellis codes: validation, period, encoding,
scalar generator windows, and regrouping into an equivalent fixed code.

A code is given by a k x n polynomial generator matrix G(D) = G_0 + G_1 D +
... + G_mu D^mu over F[D; theta].  The left-module (convolutional) code
{u G} encodes by the twisted convolution

    v_t = sum_i u_{t-i} * theta^(t-i)(G_i),   u_t = 0 for t < 0,

whose coefficients are periodic in t with the code period; the
right-module (trellis) code {G u} twists the stored inputs instead,

    v_t = sum_i theta^i(u_{t-i}) * G_i,   block t of G^T u^T.

Encoding is that module product, one `linalg.f_polymul` over a batch of
frames (`encode_batch`); `encode` is it on one frame.
"""

import operator

import numpy as np

from .field import FieldElement, _integral, _items, _read_only, _same_field, _symbol, _within
from .linalg import f_polymul, f_rank, f_window
from .skewpoly import SkewPolyMatrix
from .trellis import EDGE_BUDGET

__all__ = ["Sequence", "SkewConvCode", "SkewTrellisCode", "RANK_WINDOW_BUDGET"]

RANK_WINDOW_BUDGET = 1 << 18
"""The most entries, rows x columns, of the scalar window whose rank the
validation of a generator with rank(G_0) < k eliminates, and of the syndrome
former's system (`dual`); a larger one is refused by `field._within` before
it is built."""


class Sequence:
    """Causal sequence of fixed-width blocks of field elements, time 0, 1, ...

    The blocks are held as one read-only (blocks, width) integer array in
    the narrowest unsigned dtype that holds q - 1, and `np.asarray(seq)` is
    that array, not a copy.  Indexing and iteration box one block at a time
    into `FieldElement`s; the integer views (`to_ints`, `flat_values`,
    `weight`), `+`, `scale`, equality and hashing never box, and `+` and
    `scale` are the field's array `add` and `mul`.
    """

    __slots__ = ("field", "_values", "width")

    def __init__(self, field, blocks, width=None):
        size = field.size
        # the checked symbols of every block, flat in block order
        flat = []
        count = 0
        for t, block in enumerate(_items(blocks, "blocks")):
            if isinstance(block, (FieldElement, int, np.integer)):
                block = (block,)
            vals = [
                c if type(c) is int and 0 <= c < size else _symbol(field, c, "symbol", t)
                for c in _items(block, f"block {t}")
            ]
            if width is None:
                width = len(vals)
            if len(vals) != width:
                raise ValueError(f"block {t} has length {len(vals)}, expected {width}")
            flat += vals
            count = t + 1
        self._hold(field, flat, width, count)

    @classmethod
    def _trusted(cls, field, values, width):
        """A sequence over in-range integer blocks, an array or lists, copied unchecked."""
        seq = object.__new__(cls)
        seq._hold(field, values, width, len(values))
        return seq

    def _hold(self, field, values, width, blocks):
        values = np.array(values, dtype=np.min_scalar_type(field.size - 1))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_values", _read_only(values.reshape(blocks, width or 0)))
        object.__setattr__(self, "width", width)

    def __setattr__(self, name, value):
        raise AttributeError("Sequence is immutable")

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._values, dtype=dtype, copy=copy)

    def _box(self, block):
        return tuple(FieldElement(self.field, v) for v in block)

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return map(self._box, self._values.tolist())

    def __getitem__(self, t):
        if isinstance(t, slice):
            return tuple(map(self._box, self._values[t].tolist()))
        return self._box(self._values[operator.index(t)].tolist())

    def to_ints(self):
        return list(map(tuple, self._values.tolist()))

    def flat_values(self):
        return self._values.ravel().tolist()

    def weight(self):
        return int(np.count_nonzero(self._values))

    def __add__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        if len(self) != len(other) or self.width != other.width:
            raise ValueError("shape mismatch")
        f = self.field
        _same_field(other.field, f)
        return Sequence._trusted(f, f.add(self._values, other._values), self.width)

    def scale(self, c):
        """Left scalar multiple c * sequence."""
        f = self.field
        return Sequence._trusted(f, f.mul(_symbol(f, c, "scalar"), self._values), self.width)

    def __rmul__(self, c):
        if isinstance(c, (FieldElement, int)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        # two words of no blocks are equal whatever their widths
        return self.field == other.field and (
            len(self) == len(other) == 0 or np.array_equal(self._values, other._values)
        )

    def __hash__(self):
        return hash(tuple(self.flat_values()))

    def __repr__(self):
        return "Sequence[" + ", ".join(
            "(" + " ".join(self.field.element_name(v) for v in b) + ")"
            for b in self._values.tolist()
        ) + "]"


def coerce_sequence(field, u, width):
    """u as a Sequence of `width`-symbol blocks over field: the one coercion
    of the encoder's input and the decoders' received word."""
    if isinstance(u, Sequence):
        if u.width not in (None, width):
            raise ValueError(f"blocks have length {u.width}, expected {width}")
        _same_field(u.field, field)
        return u
    return Sequence(field, u, width=width)


def _capped_window(field, coefficients, t_rows):
    """`f_window` of t_rows >= 1 block rows, refused over `EDGE_BUDGET` entries."""
    t_rows = _integral(t_rows, "t_rows", 1)
    terms, rows, cols = coefficients.shape
    _within(t_rows * rows * (t_rows + terms - 1) * cols, EDGE_BUDGET, "a window")
    return f_window(field, coefficients, t_rows)


class SkewConvCode:
    """[n, k] skew convolutional code with polynomial generator matrix G(D).

    Both module sides share this model and differ only in data:
    `phase_coefficients[s][i]` is the table applied at delay i at times
    t = s (mod period), and every shift of the encoder registers applies
    theta^register_twist to each stored symbol.  The left-module code twists
    the coefficients, theta^(s-i)(G_i) over `period` phases, and stores the
    plain inputs.
    """

    module_side = "left"
    register_twist = 0

    def __init__(self, generator, validate=True):
        if not isinstance(generator, SkewPolyMatrix):
            raise ValueError("generator must be a SkewPolyMatrix")
        self.generator = generator
        self.field = generator.field
        self.k = generator.rows
        self.n = generator.cols
        if self.k > self.n:
            raise ValueError(f"k={self.k} exceeds n={self.n}")
        if generator.is_zero:
            raise ValueError("generator matrix is zero")
        self.memory = int(max(generator.degree, 0))
        self.row_degrees = generator.row_degrees()
        self.external_degree = sum(self.row_degrees)
        # G_0 .. G_mu as one read-only integer array, indexed [i, row, col]
        self.coefficients = generator.coefficients
        # twisted[j, i] = theta^j(G_i) over one order of theta; the least j
        # that fixes G(D), a divisor of the order, is the twist period
        order = self.field.automorphism_order
        twisted = self.field.frobenius(self.coefficients, np.arange(order)[:, None, None, None])
        twist_period = next(
            j for j in range(1, order + 1)
            if order % j == 0 and np.array_equal(twisted[j % order], self.coefficients)
        )
        if validate:
            self._check_full_rank(twist_period)
        self.phase_coefficients = self._coefficient_tables(twisted, twist_period)
        self.period = len(self.phase_coefficients)

    def _coefficient_tables(self, twisted, twist_period):
        # phase s, delay i: theta^(s - i)(G_i)
        delays = np.arange(self.memory + 1)
        return twisted[(np.arange(twist_period)[:, None] - delays) % len(twisted), delays].tolist()

    def _check_full_rank(self, twist_period):
        """The scalar window of twist_period x (memory + 1) block rows has
        full row rank.  If rank(G_0) = k it has: block row t starts with
        theta^t(G_0) at block column t, so the window is block upper
        triangular with full-rank diagonal blocks.  Otherwise the window is
        eliminated, if it has at most RANK_WINDOW_BUDGET entries."""
        if f_rank(self.field, self.coefficients[0]) == self.k:
            return
        t_rows = twist_period * (self.memory + 1)
        entries = t_rows * self.k * (t_rows + self.memory) * self.n
        _within(entries, RANK_WINDOW_BUDGET, "rank(G_0) < k and the rank check's scalar window")
        window = self.scalar_generator(t_rows)
        if f_rank(self.field, window) != t_rows * self.k:
            raise ValueError("generator matrix is rank-deficient on its scalar window")

    def require_left_module(self, operation):
        if self.module_side != "left":
            raise ValueError(f"{operation} is defined for left-module codes only")

    # -- encoding -------------------------------------------------------

    def coerce_sequence(self, u, width):
        return coerce_sequence(self.field, u, width)

    def encode(self, u, terminate=False):
        """Encode an information sequence: `encode_batch` on a batch of one.
        terminate appends `memory` zero blocks so the path returns to the
        zero state."""
        u = self.coerce_sequence(u, self.k)
        frame = np.asarray(u).reshape(1, len(u), self.k)
        return Sequence._trusted(self.field, self.encode_batch(frame, terminate)[0], self.n)

    def encode_batch(self, u, terminate=False):
        """Encode a batch of equal-length information sequences at once.

        u is an integer array of shape (frames, blocks, k); the result is an
        array of shape (frames, blocks + tail, n), tail = `memory` if
        terminate else 0, in the narrowest unsigned dtype that holds q - 1.
        It is the module product, one `linalg.f_polymul`: u G for a
        left-module code, u read as the polynomial matrix [t, frames, k],
        and G^T u^T for a right-module code, u^T read as [t, k, frames],
        since block t of that is sum_i theta^i(u_{t-i}) G_i.
        """
        u = np.asarray(u)
        if u.ndim != 3 or u.shape[2] != self.k:
            raise ValueError(f"u must have shape (frames, blocks, {self.k})")
        q = self.field.size
        if u.size:
            if u.dtype.kind not in "iu":
                raise ValueError("information symbols must be integers")
            if not 0 <= u.min() <= u.max() < q:
                raise ValueError(f"information symbols outside [0, {q})")
        frames, blocks, _ = u.shape
        total = blocks + (self.memory if terminate else 0)
        if not blocks:  # a product of no terms: the frames are their zero tails
            return np.zeros((frames, total, self.n), np.min_scalar_type(q - 1))
        g = self.coefficients
        if self.module_side == "left":
            v = f_polymul(self.field, u.transpose(1, 0, 2), g).transpose(1, 0, 2)
        else:
            v = f_polymul(self.field, g.transpose(0, 2, 1), u.transpose(1, 2, 0)).transpose(2, 0, 1)
        return np.ascontiguousarray(v[:, :total])

    def time_coefficient(self, t, i):
        """Encoder coefficient theta^(t-i)(G_i) at time t as an integer table."""
        if not 0 <= _integral(i, "delay") <= self.memory:
            raise ValueError(f"delay {i} outside [0, {self.memory}]")
        return [row[:] for row in self.phase_coefficients[_integral(t, "t") % self.period][i]]

    # -- scalar (semi-infinite) generator windows -------------------------

    def scalar_generator(self, t_rows):
        """First t_rows block rows of the scalar generator matrix, the window
        `f_window(G, t_rows)`: block row t carries theta^t(G_i) at block
        column t+i.  One over `trellis.EDGE_BUDGET` entries is refused."""
        return _capped_window(self.field, self.coefficients, t_rows)

    # -- regrouping into an equivalent fixed code -------------------------

    def tau_block(self):
        """Polynomial generator matrix of the equivalent fixed code obtained
        by regrouping `period` consecutive blocks."""
        self.require_left_module("tau_block")
        tau = self.period
        # block row a of the window holds theta^a(G_i) at block column
        # a + i = j tau + b, which is block (a, b) of coefficient j
        width = ((self.memory + tau - 1) // tau + 1) * tau * self.n
        window = f_window(self.field, self.coefficients, tau)
        window = np.pad(window, ((0, 0), (0, width - window.shape[1])))
        big = window.reshape(tau * self.k, -1, tau * self.n).transpose(1, 0, 2)
        return SkewPolyMatrix.from_coefficients(self.field, big)

    def __repr__(self):
        return (
            f"{type(self).__name__}(k={self.k}, n={self.n}, memory={self.memory}, "
            f"period={self.period}, field={self.field!r})"
        )


class SkewTrellisCode(SkewConvCode):
    """Right-module skew trellis code on the same constituents:

        v_t = u_t G_0 + theta(u_{t-1}) G_1 + ... + theta^mu(u_{t-mu}) G_mu.

    The coefficients stay untwisted (one phase), and each shift applies theta
    to every stored symbol.  Validation is the rank check of the left-module
    reading.  For theta != id the code is nonlinear over the full field but
    stays linear over the fixed subfield of theta.
    """

    module_side = "right"
    register_twist = 1

    def _coefficient_tables(self, twisted, twist_period):
        return [self.coefficients.tolist()]

    encode_right = SkewConvCode.encode

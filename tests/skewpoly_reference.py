"""Skew polynomial arithmetic one coefficient pair at a time, on the field's
scalar operations: the oracle for the array arithmetic of `SkewPoly` and
`SkewPolyMatrix`.

A polynomial is its list of coefficient integers ascending in D, trailing
zeros stripped; a matrix is a list of rows of such lists.  Negation,
subtraction and the inverse come from the table-free `field_reference`.
"""

import field_reference


def strip(values):
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return values


def add(f, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = f.add_int(out[i], c)
    return strip(out)


def neg(f, a):
    return [field_reference.neg(f, c) for c in a]


def sub(f, a, b):
    return add(f, a, neg(f, b))


def mul(f, a, b):
    """(sum_i x_i D^i)(sum_j y_j D^j) = sum x_i theta^i(y_j) D^(i+j)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            term = f.mul_int(x, f.frobenius_int(y, i))
            out[i + j] = f.add_int(out[i + j], term)
    return strip(out)


def right_divmod(f, a, d):
    """(quot, rem) with a = quot * d + rem, deg rem < deg d."""
    if not d:
        raise ZeroDivisionError("right division by the zero polynomial")
    dd = len(d) - 1
    lead = d[-1]
    rem = list(a)
    quot = [0] * max(len(rem) - dd, 0)
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        e = len(rem) - 1 - dd
        if e < 0:
            break
        # solve c * theta^e(lead) = rem_lead
        c = f.mul_int(rem[-1], field_reference.inv(f, f.frobenius_int(lead, e)))
        quot[e] = f.add_int(quot[e], c)
        for j, y in enumerate(d):
            term = f.mul_int(c, f.frobenius_int(y, e))
            rem[e + j] = field_reference.sub(f, rem[e + j], term)
    return strip(quot), strip(rem)


def matmul(f, g, h):
    """The product of two matrices of coefficient lists, entry by entry."""
    out = []
    for row in g:
        out_row = []
        for j in range(len(h[0])):
            acc = []
            for m, x in enumerate(row):
                acc = add(f, acc, mul(f, x, h[m][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def transpose(g):
    return [[g[i][j] for i in range(len(g))] for j in range(len(g[0]))]

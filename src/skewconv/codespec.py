"""Reading and writing code-spec JSON files and sequence text files.

A code-spec document looks like

    {"field": {"p": 2, "n": 2, "modulus": [1, 1, 1], "theta_r": 1},
     "k": 1, "n": 2, "module_side": "left",
     "G": [[[1, 2], [2, 3]]]}

where G[i][j] is the ascending-D coefficient list of generator entry (i, j)
as field-element integers.  module_side selects the left-module convolutional
encoding or the right-module trellis encoding.

Sequence files carry whitespace-separated field-element integers, one time
block per line.
"""

import json

import numpy as np

from .code import Sequence, SkewConvCode, SkewTrellisCode
from .field import FiniteField, _integral
from .skewpoly import SkewPolyMatrix

__all__ = [
    "CodeSpecError",
    "load_code",
    "loads_code",
    "code_to_dict",
    "dumps_code",
    "parse_sequence",
    "format_sequence",
]


_CODE_CLASSES = {cls.module_side: cls for cls in (SkewConvCode, SkewTrellisCode)}


class CodeSpecError(ValueError):
    pass


def _is_nested(value, depth):
    """True iff value is a list nested `depth` deep.  Its leaves are checked
    where they are read, by `FiniteField` and `SkewPolyMatrix.from_ints`."""
    if not isinstance(value, (list, tuple)):
        return False
    return depth == 1 or all(_is_nested(v, depth - 1) for v in value)


def _field_from_dict(doc):
    if not isinstance(doc, dict):
        raise CodeSpecError("field must be a JSON object")
    for key in ("p", "n"):
        if key not in doc:
            raise CodeSpecError(f"field block is missing {key!r}")
    modulus = doc.get("modulus")
    if modulus is not None and not _is_nested(modulus, 1):
        raise CodeSpecError("field modulus must be an array of integers")
    try:
        return FiniteField(doc["p"], doc["n"], modulus=modulus, theta_r=doc.get("theta_r", 0))
    except ValueError as exc:
        raise CodeSpecError(f"bad field block: {exc}") from None


def code_from_dict(doc):
    if not isinstance(doc, dict):
        raise CodeSpecError("code spec must be a JSON object")
    for key in ("field", "k", "n", "G"):
        if key not in doc:
            raise CodeSpecError(f"code spec is missing {key!r}")
    field = _field_from_dict(doc["field"])
    # a CodeSpecError is a ValueError: the refusals below keep their message
    try:
        k, n = _integral(doc["k"], "k"), _integral(doc["n"], "n")
        table = doc["G"]
        if not _is_nested(table, 3) or len(table) != k or any(len(row) != n for row in table):
            raise CodeSpecError(f"G must be a {k} x {n} array of coefficient arrays")
        side = doc.get("module_side", "left")
        if not isinstance(side, str) or side not in _CODE_CLASSES:
            raise CodeSpecError(f"module_side must be 'left' or 'right', got {side!r}")
        return _CODE_CLASSES[side](SkewPolyMatrix.from_ints(field, table))
    except ValueError as exc:
        raise CodeSpecError(str(exc)) from None


def loads_code(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeSpecError(f"line {exc.lineno}: {exc.msg}") from None
    return code_from_dict(doc)


def load_code(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_code(fh.read())


def code_to_dict(code):
    f = code.field
    return {
        "field": {
            "p": f.p,
            "n": f.n,
            "modulus": list(f.modulus),
            "theta_r": f.theta_r,
        },
        "k": code.k,
        "n": code.n,
        "module_side": code.module_side,
        "G": code.generator.to_ints(),
    }


def dumps_code(code):
    return json.dumps(code_to_dict(code), sort_keys=True, indent=2) + "\n"


def parse_sequence(field, text, width, what="block"):
    """One time block per non-empty line, `width` integers each; errors carry
    1-based line numbers.  The symbols are checked here, once, and held as
    one array."""
    symbols = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != width:
            raise CodeSpecError(
                f"line {lineno}: expected {width} symbols per {what}, got {len(parts)}"
            )
        try:
            block = [int(p) for p in parts]
        except ValueError:
            raise CodeSpecError(f"line {lineno}: symbols must be integers") from None
        bad = [s for s in block if not 0 <= s < field.size]
        if bad:
            raise CodeSpecError(f"line {lineno}: symbol {bad[0]} outside [0, {field.size})")
        symbols += block
    return Sequence._trusted(field, np.reshape(symbols, (-1, width)), width)


def format_sequence(seq, pretty=False):
    name = seq.field.element_name if pretty else str
    return "".join(" ".join(map(name, block)) + "\n" for block in np.asarray(seq).tolist())

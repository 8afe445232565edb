import json

import pytest

from skewconv import FiniteField, SkewConvCode, SkewPolyMatrix

# GF(4) element shorthands under the x^2+x+1 encoding
A = 2  # primitive element
A2 = 3  # its square, equal to A + 1


@pytest.fixture(scope="session")
def f4():
    return FiniteField(2, 2, [1, 1, 1], theta_r=1)


@pytest.fixture(scope="session")
def f4_id():
    return FiniteField(2, 2, [1, 1, 1], theta_r=0)


@pytest.fixture(scope="session")
def f8():
    return FiniteField(2, 3, [1, 1, 0, 1], theta_r=1)


def make_code(field, table):
    return SkewConvCode(SkewPolyMatrix.from_ints(field, table))


EXAMPLE_TABLE = [[[1, A], [A, A2]]]  # G(D) = (1 + a D, a + a^2 D)


@pytest.fixture(scope="session")
def example_code(f4):
    return make_code(f4, EXAMPLE_TABLE)


@pytest.fixture(scope="session")
def example_code_id(f4_id):
    return make_code(f4_id, EXAMPLE_TABLE)


def with_leaf(doc, path, text):
    """The JSON text of doc with the leaf at `path`, a tuple of keys and
    indices, replaced by the JSON `text`."""
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = "@LEAF@"
    return json.dumps(doc).replace('"@LEAF@"', text)

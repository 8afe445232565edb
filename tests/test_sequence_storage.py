"""Sequence holds plain integers and boxes to FieldElement only on access."""

import pytest

from skewconv import FieldElement, FiniteField, Sequence

from conftest import A, A2


@pytest.fixture
def box_count(monkeypatch):
    """The values of the FieldElements made since the fixture ran."""
    made = []
    init = FieldElement.__init__

    def counting(self, field, value):
        made.append(value)
        init(self, field, value)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    return made


def test_indexing_and_iteration_yield_field_element_tuples(f4):
    seq = Sequence(f4, [[1, A], [0, A2], [A2, 1]])
    block = seq[1]
    assert type(block) is tuple and all(type(c) is FieldElement for c in block)
    assert all(c.field is f4 for c in block)
    assert [c.value for c in block] == [0, A2]
    assert seq[-1] == (f4(A2), f4(1))
    assert list(seq) == [seq[0], seq[1], seq[2]]
    assert all(type(c) is FieldElement for b in seq for c in b)
    assert seq[1:] == (seq[1], seq[2])
    with pytest.raises(IndexError):
        seq[3]


def test_field_elements_and_ints_build_the_same_sequence(f4):
    boxed = Sequence(f4, [[f4(1), f4(A)], [f4(0), A2]])
    plain = Sequence(f4, [[1, A], [0, A2]])
    assert boxed == plain and hash(boxed) == hash(plain)
    assert boxed.to_ints() == [(1, A), (0, A2)]
    assert Sequence(f4, [f4(A), 1]).to_ints() == [(A,), (1,)]


def test_validation_errors_are_unchanged(f4, f8):
    with pytest.raises(ValueError, match="mixed-field operands"):
        Sequence(f4, [[1, f8(1)]])
    with pytest.raises(ValueError, match=r"block 1: symbol 7 outside \[0, 4\)"):
        Sequence(f4, [[1], [7]])
    with pytest.raises(ValueError, match=r"block 0: symbol -1 outside"):
        Sequence(f4, [[-1]])
    with pytest.raises(ValueError, match="block 1 has length 1, expected 2"):
        Sequence(f4, [[1, 2], [3]])
    with pytest.raises(ValueError, match="block 0 has length 1, expected 2"):
        Sequence(f4, [[1]], width=2)
    seq = Sequence(f4, [[1]])
    with pytest.raises(AttributeError, match="immutable"):
        seq.width = 2


def test_scale_checks_its_scalar_as_a_symbol(f4, f8):
    seq = Sequence(f4, [[1, A], [0, A2]])
    for c in (-1, 4, 7):
        with pytest.raises(ValueError, match=rf"scalar {c} outside \[0, 4\)"):
            seq.scale(c)
    for c in (f8(1), f8(7)):
        with pytest.raises(ValueError, match="mixed-field operands"):
            seq.scale(c)
    assert seq.scale(f4(A)) == seq.scale(A) == A * seq
    assert seq.scale(A).to_ints() == [(A, A2), (0, 1)]


def test_adding_sequences_over_two_fields_raises(f4, f8):
    gf9 = FiniteField(3, 2, [2, 2, 1], theta_r=1)
    for left, right in ((gf9, f4), (f4, gf9), (f4, f8)):
        with pytest.raises(ValueError, match="mixed-field operands"):
            Sequence(left, [[1, 2]]) + Sequence(right, [[1, 3]])
    same = FiniteField(2, 2, [1, 1, 1], theta_r=1)  # equal to f4, another object
    assert (Sequence(f4, [[1, A]]) + Sequence(same, [[1, 1]])).to_ints() == [(0, A2)]


def test_equality_and_hash_are_unchanged(f4, f8):
    s1 = Sequence(f4, [[1, A], [0, 0]])
    assert s1 == Sequence(f4, [[1, A], [0, 0]])
    assert s1 != Sequence(f4, [[1, A], [0, 1]])
    assert s1 != Sequence(f4, [[1, A]])
    # equality compares the integer blocks, as it always has
    assert Sequence(f4, [[1]]) == Sequence(f8, [[1]])
    assert hash(s1) == hash((1, A, 0, 0))
    assert len({s1, Sequence(f4, [[1, A], [0, 0]])}) == 1
    assert (s1 == [(1, A), (0, 0)]) is False


def test_integer_views_and_comparisons_never_box(f4, box_count):
    seq = Sequence(f4, [[1, A]] * 50)
    other = Sequence(f4, [[1, A]] * 50)
    assert seq.to_ints() == [(1, A)] * 50
    assert seq.flat_values() == [1, A] * 50
    assert seq.weight() == 100
    assert seq == other and hash(seq) == hash(other)
    assert len(seq) == 50
    (seq + other).scale(A)
    assert box_count == []


def test_indexing_boxes_one_block(f4, box_count):
    seq = Sequence(f4, [[1, A, A2]] * 1000)
    block = seq[500]
    assert box_count == [1, A, A2] and len(block) == 3
    next(iter(seq))
    assert len(box_count) == 6


def test_encoder_output_is_a_plain_sequence(example_code):
    v = example_code.encode([[1], [A], [0]], terminate=True)
    again = Sequence(example_code.field, v.to_ints(), width=v.width)
    assert v == again and hash(v) == hash(again)
    assert all(type(block) is tuple for block in v.to_ints())
    assert all(type(x) is int for x in v.flat_values())
    assert repr(v) == repr(again)

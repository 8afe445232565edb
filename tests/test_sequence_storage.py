"""Sequence holds one read-only integer array and boxes to FieldElement only
on access."""

import tracemalloc

import numpy as np
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
    # equality compares the fields and the integer blocks
    assert Sequence(f4, [[1]]) != Sequence(f8, [[1]])
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


# -- the blocks as one read-only integer array ----------------------------------


@pytest.mark.parametrize("p, n, dtype", [(2, 2, np.uint8), (2, 4, np.uint8), (2, 9, np.uint16)])
def test_blocks_are_held_in_the_narrowest_unsigned_dtype(p, n, dtype):
    field = FiniteField(p, n)
    seq = Sequence(field, [[0, field.size - 1], [1, 2]])
    assert np.asarray(seq).dtype == dtype
    assert np.asarray(seq).shape == (2, 2)
    assert seq.to_ints() == [(0, field.size - 1), (1, 2)]
    assert (seq + seq).to_ints() == [(0, 0), (0, 0)]
    assert np.asarray(seq.scale(1)).dtype == dtype


def test_the_array_view_shares_memory_and_is_read_only(f4):
    seq = Sequence(f4, [[1, A], [0, A2]])
    view = np.asarray(seq)
    assert np.shares_memory(view, seq._values) and np.asarray(seq) is view
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 0
    assert seq.to_ints() == [(1, A), (0, A2)]
    assert np.asarray(seq, dtype=np.intp).tolist() == [[1, A], [0, A2]]


def test_trusted_copies_what_it_is_given(f4):
    values = np.array([[1, A]], dtype=np.uint8)
    seq = Sequence._trusted(f4, values, 2)
    values[0, 0] = 0
    assert values.flags.writeable and seq.to_ints() == [(1, A)]


def test_a_long_word_holds_at_most_two_bytes_a_symbol():
    gf16 = FiniteField(2, 4)
    blocks = [[t % 16, (7 * t) % 16] for t in range(60_000)]
    tracemalloc.start()
    try:
        seq = Sequence(gf16, blocks)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seq) == 60_000
    assert held <= 2 * 2 * 60_000 + 4096


@pytest.mark.parametrize("p, n, modulus", [(2, 2, None), (3, 2, [2, 2, 1])])
def test_add_scale_and_weight_make_no_scalar_field_call(p, n, modulus, monkeypatch):
    field = FiniteField(p, n, modulus)
    seq = Sequence(field, [[t % field.size, (t * 5 + 1) % field.size] for t in range(40)])
    calls = []
    for name in ("add_int", "mul_int"):
        op = getattr(FiniteField, name)
        monkeypatch.setattr(
            FiniteField, name, lambda self, *a, op=op, name=name: calls.append(name) or op(self, *a)
        )
    total = seq + seq.scale(2)
    weight = seq.weight()
    assert calls == []
    monkeypatch.undo()
    assert total.to_ints() == [
        tuple(field.add_int(a, field.mul_int(2, a)) for a in block) for block in seq.to_ints()
    ]
    assert weight == sum(1 for v in seq.flat_values() if v)


def test_empty_words_and_an_unset_width(f4):
    empty = Sequence(f4, [])
    assert empty.width is None and len(empty) == 0 and empty.to_ints() == []
    assert np.asarray(empty).shape == (0, 0)
    assert empty.weight() == 0 and empty.flat_values() == [] and list(empty) == []
    assert empty == Sequence(f4, [], width=2) and hash(empty) == hash(())
    assert (empty + empty) == empty and empty.scale(A) == empty
    assert repr(empty) == "Sequence[]"
    wide = Sequence(f4, [], width=2)
    assert np.asarray(wide).shape == (0, 2)
    seq = Sequence(f4, [[1, A, A2]])
    assert seq.width == 3 and np.asarray(seq).shape == (1, 3)


def test_indexing_takes_integers_and_slices_only(f4):
    seq = Sequence(f4, [[1, A], [A2, 0]])
    assert seq[True] == seq[np.int64(1)] == seq[-1] == (f4(A2), f4(0))
    assert seq[::-1] == (seq[1], seq[0]) and seq[5:] == ()
    for index in ([0, 1], (0, 1), 1.0, np.array([0])):
        with pytest.raises(TypeError):
            seq[index]
    with pytest.raises(IndexError):
        seq[2]

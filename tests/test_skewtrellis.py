import itertools
import random

import pytest

from skewconv import (
    FiniteField,
    QSChannel,
    Sequence,
    SkewConvCode,
    SkewPolyMatrix,
    SkewTrellisCode,
    bcjr,
    build_trellis_right,
    linearity_report,
    viterbi,
)

from conftest import A, A2, EXAMPLE_TABLE
from test_input_contract import deadline

GF256 = FiniteField(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1], theta_r=1)
F4 = FiniteField(2, 2, [1, 1, 1], theta_r=1)


@pytest.fixture(scope="module")
def right_code(f4):
    return SkewTrellisCode(SkewPolyMatrix.from_ints(f4, EXAMPLE_TABLE))


@pytest.fixture(scope="module")
def right_code_id(f4_id):
    return SkewTrellisCode(SkewPolyMatrix.from_ints(f4_id, EXAMPLE_TABLE))


def reference_encode_right(code, ublocks, terminate):
    f = code.field
    total = len(ublocks) + (code.memory if terminate else 0)
    out = []
    for t in range(total):
        acc = [0] * code.n
        for i in range(code.memory + 1):
            s = t - i
            if not 0 <= s < len(ublocks):
                continue
            gi = code.generator.coefficient_values(i)
            for row in range(code.k):
                tw = f.frobenius_int(ublocks[s][row], i)
                for j in range(code.n):
                    acc[j] = f.add_int(acc[j], f.mul_int(tw, gi[row][j]))
        out.append(tuple(acc))
    return out


def test_one_zero_input(right_code):
    assert right_code.encode([[1], [0]]).to_ints() == [(1, A), (A, A2)]


def test_alpha_zero_input(right_code):
    # v_1 = theta(a) (a, a^2) = a^2 (a, a^2) = (1, a)
    assert right_code.encode([[A], [0]]).to_ints() == [(A, A2), (1, A)]


def test_all_zero(right_code):
    assert right_code.encode([[0]] * 4, terminate=True).to_ints() == [(0, 0)] * 5


def test_matches_reference_formula(right_code):
    rng = random.Random(41)
    for _ in range(50):
        u = [[rng.randrange(4)] for _ in range(rng.randrange(1, 6))]
        for term in (False, True):
            assert right_code.encode(u, terminate=term).to_ints() == (
                reference_encode_right(right_code, u, term)
            )


def test_additivity(right_code, f4):
    rng = random.Random(42)
    for _ in range(100):
        length = rng.randrange(1, 6)
        u1 = Sequence(f4, [[rng.randrange(4)] for _ in range(length)], width=1)
        u2 = Sequence(f4, [[rng.randrange(4)] for _ in range(length)], width=1)
        lhs = right_code.encode(u1 + u2, terminate=True)
        rhs = right_code.encode(u1, terminate=True) + right_code.encode(
            u2, terminate=True
        )
        assert lhs == rhs


def test_identity_twist_coincides_with_left_encoding(right_code_id, example_code_id):
    rng = random.Random(43)
    for _ in range(50):
        u = [[rng.randrange(4)] for _ in range(rng.randrange(1, 7))]
        assert right_code_id.encode(u, terminate=True) == example_code_id.encode(
            u, terminate=True
        )


def test_linearity_report_example(right_code):
    rep = linearity_report(right_code)
    assert rep.fixed_subfield == [0, 1]
    assert rep.additive_ok
    assert rep.subfield_homogeneous
    a, u, lhs, rhs = rep.witness
    assert a in (A, A2)
    # re-check the witness directly
    useq = Sequence(right_code.field, [list(b) for b in u], width=1)
    assert right_code.encode(useq.scale(a), terminate=True) == lhs
    assert right_code.encode(useq, terminate=True).scale(a) == rhs
    assert lhs != rhs


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"witness_len": -1}, "witness_len must be an integer >= 0, got -1"),
        ({"witness_len": 2.5}, "witness_len must be an integer >= 0, got 2.5"),
    ],
    ids=["witness_len-negative", "witness_len-float"],
)
def test_linearity_report_refuses_bad_counts(right_code, kwargs, message):
    with pytest.raises(ValueError) as info:
        linearity_report(right_code, **kwargs)
    assert str(info.value) == message


def test_linearity_report_with_no_witness_blocks(right_code):
    # the only input of no blocks has no witness
    rep = linearity_report(right_code, witness_len=0)
    assert rep.additive_ok and rep.subfield_homogeneous and rep.witness is None


def test_no_witness_for_identity_twist(right_code_id):
    rep = linearity_report(right_code_id)
    assert rep.witness is None
    assert rep.fixed_subfield == [0, 1, 2, 3]
    assert rep.additive_ok and rep.subfield_homogeneous
    # exhaustive confirmation on short inputs
    f = right_code_id.field
    for a in range(1, 4):
        for u in itertools.product(range(4), repeat=2):
            useq = Sequence(f, [[s] for s in u], width=1)
            lhs = right_code_id.encode(useq.scale(a), terminate=True)
            rhs = right_code_id.encode(useq, terminate=True).scale(a)
            assert lhs == rhs


def test_homogeneity_over_fixed_subfield_exhaustive(right_code):
    f = right_code.field
    for c in (0, 1):
        for u in itertools.product(range(4), repeat=2):
            useq = Sequence(f, [[s] for s in u], width=1)
            lhs = right_code.encode(useq.scale(c), terminate=True)
            rhs = right_code.encode(useq, terminate=True).scale(c)
            assert lhs == rhs


@pytest.fixture()
def encodes(monkeypatch):
    """The `encode_batch` calls made so far, as a one-item list."""
    calls = [0]
    encode_batch = SkewConvCode.encode_batch

    def counted(self, u, terminate=False):
        calls[0] += 1
        return encode_batch(self, u, terminate)

    monkeypatch.setattr(SkewConvCode, "encode_batch", counted)
    return calls


@pytest.mark.parametrize(
    "field, table, witness_len",
    [(GF256, [[[1, 2], [3, 4]]], 2), (F4, EXAMPLE_TABLE, 12)],
    ids=["gf256", "worked-witness_len-12"],
)
def test_a_left_module_code_has_no_witness_at_once(field, table, witness_len, encodes):
    # u G is linear over the whole field: there is nothing to sweep for
    code = SkewConvCode(SkewPolyMatrix.from_ints(field, table))
    with deadline(2, "linearity_report swept the inputs"):
        rep = linearity_report(code, witness_len=witness_len)
    assert rep.witness is None and encodes[0] <= 2


@pytest.mark.parametrize("cls", [SkewConvCode, SkewTrellisCode], ids=["left", "right"])
def test_a_memory0_code_has_a_report_with_no_witness_blocks(f4, cls, encodes):
    code = cls(SkewPolyMatrix.from_ints(f4, [[[1], [A]]]))
    assert code.memory == 0
    with deadline(2, "linearity_report did not finish"):
        rep = linearity_report(code, witness_len=0)
    assert (rep.fixed_subfield, rep.additive_ok, rep.subfield_homogeneous, rep.witness) == (
        [0, 1], True, True, None
    )
    assert encodes[0] <= 2


def test_the_right_witness_is_a_one_in_the_lowest_failing_row(f4, encodes):
    # row 0 has only a delay-0 coefficient, which theta^0 = id never moves;
    # row 1 fails at delay 1, so the witness is a 1 in row 1 of the last block
    code = SkewTrellisCode(SkewPolyMatrix.from_ints(f4, [[[1], [0], [A]], [[0], [1, 1], [1]]]))
    rep = linearity_report(code, witness_len=3)
    a, u, lhs, rhs = rep.witness
    assert (a, u) == (A, [(0, 0), (0, 0), (0, 1)]) and encodes[0] == 2
    assert lhs == code.encode(Sequence(code.field, u, width=2).scale(a), terminate=True)
    assert rhs == code.encode(Sequence(code.field, u, width=2), terminate=True).scale(a)


# -- trellis ------------------------------------------------------------------


def test_right_trellis_structure(right_code, f4):
    tr = build_trellis_right(right_code)
    assert tr.num_states == 4
    assert tr.num_sections == 1
    for st in range(4):
        for u in range(4):
            e = tr.edge(0, st, u)
            assert e.to_state == f4.frobenius_int(u)
    zero = tr.edge(0, 0, 0)
    assert zero.to_state == 0 and zero.label == (0, 0)


def test_right_trellis_paths_spell_encoder(right_code):
    tr = build_trellis_right(right_code)
    for length in range(1, 5):
        for u in itertools.product(range(4), repeat=length):
            state = 0
            labels = []
            for sym in u:
                e = tr.edge(0, state, sym)
                labels.append(e.label)
                state = e.to_state
            assert labels == right_code.encode([[s] for s in u]).to_ints()


def test_right_trellis_decodes(right_code):
    tr = build_trellis_right(right_code)
    rng = random.Random(44)
    channel = QSChannel(4, 0.05)
    for _ in range(20):
        u = [[rng.randrange(4)] for _ in range(5)]
        v = right_code.encode(u, terminate=True)
        res = viterbi(tr, v, terminated=True)
        assert res.metric == 0
        assert res.info_est.to_ints() == [tuple(b) for b in u]
    soft = bcjr(tr, right_code.encode(u, terminate=True), channel, terminated=True)
    assert soft.info_est.to_ints() == [tuple(b) for b in u]


def test_validation_mirrors_left_code(f4):
    with pytest.raises(ValueError):
        SkewTrellisCode(SkewPolyMatrix.from_ints(f4, [[[1], [A]], [[A], [A2]]]))

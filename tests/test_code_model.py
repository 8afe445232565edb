"""One code model for both module sides: the trellis builder, the encoder and
the trellis analyses take left- and right-module codes alike."""

import importlib
import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from skewconv import (
    SkewConvCode,
    SkewPolyMatrix,
    SkewTrellisCode,
    analyze_code,
    build_trellis,
    build_trellis_right,
    is_catastrophic,
)
from skewconv.trellis import Trellis

from conftest import A, EXAMPLE_TABLE

# k = 2, n = 3 over GF(4) with row degrees 0 and 2 (as in test_multirow)
MIXED_TABLE = [
    [[1], [A], [0]],
    [[0, 0, 1], [1, 1], [A]],
]

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def input_index(block, q):
    return sum(d * q**i for i, d in enumerate(block))


@pytest.mark.parametrize("cls", [SkewConvCode, SkewTrellisCode])
@pytest.mark.parametrize("table", [EXAMPLE_TABLE, MIXED_TABLE], ids=["example", "mixed"])
def test_trellis_walk_reproduces_encoder(cls, table, f4):
    code = cls(SkewPolyMatrix.from_ints(f4, table))
    tr = build_trellis(code)
    assert tr.num_sections == code.period
    rng = random.Random(3)
    for _ in range(40):
        u = [[rng.randrange(4) for _ in range(code.k)] for _ in range(rng.randrange(1, 7))]
        blocks = u + [[0] * code.k] * code.memory
        state, labels = 0, []
        for t, block in enumerate(blocks):
            e = tr.edge(t, state, input_index(block, 4))
            labels.append(e.label)
            state = e.to_state
        assert state == 0
        assert labels == code.encode(u, terminate=True).to_ints()


def test_module_sides_differ_only_in_data(f4, f4_id):
    left = SkewConvCode(SkewPolyMatrix.from_ints(f4, EXAMPLE_TABLE))
    right = SkewTrellisCode(SkewPolyMatrix.from_ints(f4, EXAMPLE_TABLE))
    assert (left.module_side, left.register_twist, left.period) == ("left", 0, 2)
    assert (right.module_side, right.register_twist, right.period) == ("right", 1, 1)
    assert SkewTrellisCode.encode is SkewConvCode.encode
    assert same_edges(build_trellis_right(right), build_trellis(right))
    # with theta = id both readings are the same code
    left_id = SkewConvCode(SkewPolyMatrix.from_ints(f4_id, EXAMPLE_TABLE))
    right_id = SkewTrellisCode(SkewPolyMatrix.from_ints(f4_id, EXAMPLE_TABLE))
    assert same_edges(build_trellis(left_id), build_trellis(right_id))


def same_edges(a, b):
    return np.array_equal(a.next_state, b.next_state) and np.array_equal(a.label, b.label)


def test_is_catastrophic_takes_right_code(f4, f4_id):
    right = SkewTrellisCode(SkewPolyMatrix.from_ints(f4, EXAMPLE_TABLE))
    assert is_catastrophic(right) == is_catastrophic(build_trellis(right))
    right_id = SkewTrellisCode(SkewPolyMatrix.from_ints(f4_id, EXAMPLE_TABLE))
    result = is_catastrophic(right_id)
    assert result.catastrophic and result.witness


@pytest.mark.parametrize("cls", [SkewConvCode, SkewTrellisCode])
def test_free_distance_burst_matches_active_burst_distance(cls, f4):
    tr = build_trellis(cls(SkewPolyMatrix.from_ints(f4, MIXED_TABLE)))
    burst = tr.free_distance(lmax=12).burst
    assert burst == [tr.active_burst_distance(ell) for ell in range(1, 13)]
    assert tr.free_distance(ell_max=3, lmax=0).burst == []


def test_analyze_runs_the_loop_dp_once(example_code, monkeypatch):
    calls = []
    original = Trellis._loop_dp

    def counted(self, steps, row_at, *args, **kwargs):
        calls.append(steps)
        return original(self, steps, row_at, *args, **kwargs)

    monkeypatch.setattr(Trellis, "_loop_dp", counted)
    report = analyze_code(example_code, lmax=20)
    assert len(calls) == 1
    assert report["d_burst"] == [ell + 2 for ell in range(2, 21)]


def test_traced_names_resolve():
    # the traced benchmark run wraps these names; each must still exist
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), attr
    for modname, cls, attr, _ in spans.METHODS:
        assert attr in vars(getattr(importlib.import_module(modname), cls)), (cls, attr)
    field_cls = importlib.import_module("skewconv.field").FiniteField
    for attr, _ in spans.COUNTED:
        assert attr in vars(field_cls), attr


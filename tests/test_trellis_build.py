"""The array trellis builder against the per-edge reference builder, the
edges read from its arrays, and the edge budget."""

import random
from pathlib import Path

import numpy as np
import pytest

import trellis_reference as reference
from skewconv import (
    FiniteField,
    SkewConvCode,
    SkewPolyMatrix,
    SkewTrellisCode,
    analyze_code,
    build_trellis,
    load_code,
    trellis as trellis_module,
)
from skewconv.trellis import TrellisEdge

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite"

FIELDS = {
    "gf2": FiniteField(2, 1),
    "gf4": FiniteField(2, 2, [1, 1, 1], theta_r=1),
    "gf4-id": FiniteField(2, 2, [1, 1, 1], theta_r=0),
    "gf8-r1": FiniteField(2, 3, [1, 1, 0, 1], theta_r=1),
    "gf8-r2": FiniteField(2, 3, [1, 1, 0, 1], theta_r=2),
    "gf9": FiniteField(3, 2, [2, 2, 1], theta_r=1),
    "gf16": FiniteField(2, 4, theta_r=1),
}

# (row degrees, n) per case; each is drawn for both module sides
SHAPES = {
    "gf2": [([3], 2), ([2, 1], 3), ([0], 2)],
    "gf4": [([2], 2), ([1, 0], 3), ([0], 3)],
    "gf4-id": [([2], 2), ([2, 1], 3)],
    "gf8-r1": [([1], 2), ([1, 1], 2)],
    "gf8-r2": [([2], 2), ([0, 1], 3)],
    "gf9": [([2], 3), ([1, 0], 2), ([0], 2)],
    "gf16": [([1], 2), ([0], 2)],
}


def random_code(cls, field, rng, degrees, n):
    """A valid code whose row i has degree exactly degrees[i], drawn from rng."""
    for _ in range(400):
        table = [
            [[rng.randrange(field.size) for _ in range(deg)] + [rng.randrange(1, field.size)]]
            + [[rng.randrange(field.size) for _ in range(deg + 1)] for _ in range(n - 1)]
            for deg in degrees
        ]
        try:
            return cls(SkewPolyMatrix.from_ints(field, table))
        except ValueError:
            continue
    raise AssertionError("could not draw a valid code")


def draw_codes():
    rng = random.Random(606)
    codes = []
    for fname, shapes in SHAPES.items():
        for degrees, n in shapes:
            for cls in (SkewConvCode, SkewTrellisCode):
                name = f"{fname}-{cls.module_side}-{''.join(map(str, degrees))}-n{n}"
                codes.append((name, random_code(cls, FIELDS[fname], rng, degrees, n)))
    return codes


CODES = draw_codes()


def test_the_code_set_covers_the_cases():
    assert {code.module_side for _, code in CODES} == {"left", "right"}
    assert {code.k for _, code in CODES} == {1, 2}
    assert any(code.memory == 0 for _, code in CODES)
    assert any(len(set(code.row_degrees)) > 1 for _, code in CODES)
    assert any(code.period > 1 for _, code in CODES)
    assert {code.field.size for _, code in CODES} == {2, 4, 8, 9, 16}


@pytest.fixture(scope="module", params=[code for _, code in CODES], ids=[name for name, _ in CODES])
def pair(request):
    return build_trellis(request.param), reference.build_trellis(request.param)


def test_edge_arrays_match_reference(pair):
    got, want = pair
    for name in ("next_state", "label", "weight"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.label.dtype == np.min_scalar_type(got.q - 1)
    assert got.next_state.dtype == np.intp
    assert got.weight.dtype == np.min_scalar_type(got.n)


def test_sections_view_matches_reference(pair):
    # every edge of every section, read through edge(), as plain Python ints
    got, want = pair
    assert reference.sections(got) == reference.sections(want)
    for section in reference.sections(got):
        for edges in section:
            for e in edges:
                assert type(e) is TrellisEdge
                assert all(type(v) is int for v in (e.to_state, e.weight, *e.label))


def test_edge_reads_the_arrays(pair):
    got, want = pair
    rng = random.Random(7)
    for _ in range(20):
        args = (rng.randrange(2 * got.num_sections), rng.randrange(got.num_states),
                rng.randrange(got.num_inputs))
        assert got.edge(*args) == want.edge(args[0] % want.num_sections, *args[1:])


def test_wide_field_labels_take_two_bytes():
    field = FiniteField(2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1], theta_r=1)
    code = SkewConvCode(SkewPolyMatrix.from_ints(field, [[[1], [field.generator]]]))
    got, want = build_trellis(code), reference.build_trellis(code)
    assert got.label.dtype == np.uint16
    assert np.array_equal(got.label, want.label)


SPECS = sorted(p for p in SUITE.glob("*.json") if p.name != "expected.json")


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_analysis_never_builds_sections(path):
    # the analysis keeps no per-edge Python objects on the trellis
    code = load_code(path)
    tr = build_trellis(code)
    analyze_code(code, trellis=tr)
    assert not any(isinstance(value, list) for value in vars(tr).values())


def test_edge_budget_is_checked_before_building(monkeypatch):
    code = dict(CODES)["gf4-left-2-n2"]  # 2 sections x 16 states x 4 inputs
    monkeypatch.setattr(trellis_module, "EDGE_BUDGET", 128)
    assert build_trellis(code).next_state.size == 128
    monkeypatch.setattr(trellis_module, "EDGE_BUDGET", 127)
    with pytest.raises(ValueError) as err:
        build_trellis(code)
    assert str(err.value) == (
        "a trellis of 2 section(s) x 4^2 states x 4^1 inputs has 128 edges, over the budget of 127"
    )
    tr = reference.build_trellis(code)
    assert trellis_module.export_dot(tr, 1).count("->") == 64
    with pytest.raises(ValueError, match="budget"):
        trellis_module.export_dot(tr, 2)

"""The array paths of the trellis graph algorithms against their scalar
references (loop DP, Karp's slope, Dijkstra's costs, the zero-weight cycles
and the catastrophic search), their memory, and the plain Python types of
what they report."""

import dataclasses
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trellis_reference as reference
from skewconv import (
    FiniteField,
    SkewConvCode,
    SkewPolyMatrix,
    SkewTrellisCode,
    Trellis,
    analyze_code,
    build_trellis,
    is_catastrophic,
    load_code,
)
from skewconv.trellis import TrellisEdge

from conftest import A, A2, EXAMPLE_TABLE

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite"

GF2 = FiniteField(2, 1)
GF4 = FiniteField(2, 2, [1, 1, 1], theta_r=1)
GF4_ID = FiniteField(2, 2, [1, 1, 1], theta_r=0)
GF8 = FiniteField(2, 3, [1, 1, 0, 1], theta_r=1)
GF9 = FiniteField(3, 2, [2, 2, 1], theta_r=1)


def random_code(cls, field, rng, degrees, n=2):
    """A valid code with rows of degree at most `degrees`, drawn from rng."""
    for _ in range(400):
        table = [
            [[rng.randrange(field.size) for _ in range(deg + 1)] for _ in range(n)]
            for deg in degrees
        ]
        try:
            return cls(SkewPolyMatrix.from_ints(field, table))
        except ValueError:
            continue
    raise AssertionError("could not draw a valid code")


def draw_codes():
    rng = random.Random(404)
    codes = []
    for fname, field in (("gf4", GF4), ("gf8", GF8), ("gf9", GF9)):
        for cls in (SkewConvCode, SkewTrellisCode):
            for i in range(4):
                code = random_code(cls, field, rng, [rng.randrange(1, 3)])
                codes.append((f"{fname}-{cls.__name__}-{i}", code))
    fixed = [
        ("memory0-left", SkewConvCode, GF4, [[[1], [A]]]),
        ("memory0-right", SkewTrellisCode, GF4, [[[1], [A]]]),
        ("mixed-k2-left", SkewConvCode, GF4, [[[1], [A], [0]], [[0, 0, 1], [1, 1], [A]]]),
        ("mixed-k2-right", SkewTrellisCode, GF4, [[[1], [A], [0]], [[0, 0, 1], [1, 1], [A]]]),
        ("id-example", SkewConvCode, GF4_ID, EXAMPLE_TABLE),
        ("id-memory2", SkewConvCode, GF4_ID, [[[1, 0, 1], [1, 1, 1]]]),
        ("catastrophic", SkewConvCode, GF4_ID, [[[1, 1], [A, A]]]),
    ]
    for name, cls, field, table in fixed:
        codes.append((name, cls(SkewPolyMatrix.from_ints(field, table))))
    codes.append(("k2-gf4-left", random_code(SkewConvCode, GF4, rng, [1, 1], n=3)))
    return codes


CODES = draw_codes()


# more catastrophic codes beside those CODES holds: binary, and right-module
# codes with a twisted and an identity automorphism
CATASTROPHIC = [
    ("catastrophic-gf2", SkewConvCode, GF2, [[[1, 1], [1, 1]]]),
    ("catastrophic-gf2-memory2", SkewConvCode, GF2, [[[1, 0, 1], [1, 1]]]),
    ("catastrophic-right", SkewTrellisCode, GF4, [[[A, A2], [A2, 1]]]),
    ("catastrophic-right-memory2", SkewTrellisCode, GF4_ID, [[[A, 1, 1], [A, 1, 1]]]),
]
GRAPH_CODES = CODES + [
    (name, cls(SkewPolyMatrix.from_ints(field, table))) for name, cls, field, table in CATASTROPHIC
]


def gf2_trellis(section):
    """A one-section GF(2) trellis of rate 1/2 from per-state (to_state,
    weight) pairs, one per input; weight w gets the label of w ones."""
    labels = {0: (0, 0), 1: (1, 0), 2: (1, 1)}
    sections = [[[TrellisEdge(to, labels[w], w) for to, w in edges] for edges in section]]
    return Trellis(GF2, 1, 2, [len(section).bit_length() - 1], sections)


HAND_BUILT = [
    # not strongly connected: the zero state's only cycle has mean 2, and it
    # never reaches state 1, whose loops have mean 1
    gf2_trellis([[(0, 0), (0, 2)], [(1, 1), (1, 1)]]),
    # a zero-weight loop at state 1 with input 1; state 2 only leads into it
    # and state 3 only out of it along zero-weight edges, and the zero state
    # reaches state 3 at weight 1 but state 1 only at weight 3
    gf2_trellis([[(0, 0), (3, 1)], [(3, 0), (1, 0)], [(1, 0), (2, 1)], [(2, 2), (0, 2)]]),
]


@pytest.fixture(
    scope="module",
    params=[code for _, code in GRAPH_CODES] + HAND_BUILT,
    ids=[name for name, _ in GRAPH_CODES] + ["hand-built-two-parts", "hand-built-zero-loop"],
)
def trellis(request):
    param = request.param
    return param if isinstance(param, Trellis) else build_trellis(param)


def same(a, b):
    """Equal, and of the same type all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def test_the_code_set_covers_the_cases():
    codes = dict(CODES)
    assert len(codes) == len(CODES) >= 30
    sides = {code.module_side for code in codes.values()}
    assert sides == {"left", "right"}
    assert {code.field.size for code in codes.values()} == {4, 8, 9}
    assert any(code.memory == 0 for code in codes.values())
    assert any(code.k == 2 and len(set(code.row_degrees)) > 1 for code in codes.values())
    catastrophic = build_trellis(codes["catastrophic"])
    assert is_catastrophic(catastrophic).catastrophic and catastrophic.slope() == 0


def test_edge_arrays_are_built_on_first_use():
    tr = build_trellis(dict(CODES)["mixed-k2-left"])
    assert not {"next_state", "weight", "pred"} & vars(tr).keys()
    assert tr.pred.shape == (tr.num_sections, tr.num_states, tr.num_inputs)
    assert {"next_state", "pred"} <= vars(tr).keys()


def test_pred_lists_the_edges_into_each_state_in_order(trellis):
    pred = trellis.pred
    flat = pred.reshape(trellis.num_sections, -1)
    entered = np.take_along_axis(trellis.next_state, flat, axis=1).reshape(pred.shape)
    assert (entered == np.arange(trellis.num_states)[:, None]).all()
    assert (np.diff(pred, axis=2) > 0).all()
    for s, section in enumerate(trellis.sections):
        for st, edges in enumerate(section):
            for idx, e in enumerate(edges):
                flat_id = st * trellis.num_inputs + idx
                assert (trellis.next_state[s, flat_id], trellis.weight[s, flat_id]) == e[::2]


def test_loop_dp_matches_reference(trellis):
    steps = 8
    fast = trellis._loop_dp(steps)
    for want in reference.loop_dp(trellis, steps):
        got = next(fast)
        assert got[:2] == want[:2]
        assert same(got[2], want[2]), want[:2]
        start, length, _, parents = want
        if length:
            assert [got[3][length - 1][st] for st in range(trellis.num_states)] == parents[-1]
            assert all(same(got[3][length - 1][st], p) for st, p in enumerate(parents[-1]))
    assert next(fast, None) is None


def test_slope_matches_reference(trellis):
    got, want = trellis.slope(), reference.slope(trellis)
    assert type(got) is type(want)
    assert got == want


@pytest.mark.parametrize("ell_max,lmax", [(None, 12), (4, 0), (2, 6)])
def test_free_distance_matches_reference(trellis, ell_max, lmax):
    got = trellis.free_distance(ell_max, lmax)
    want = reference.free_distance(trellis, ell_max, lmax)
    for f in dataclasses.fields(want):
        assert same(getattr(got, f.name), getattr(want, f.name)), f.name


def test_active_burst_distance_matches_reference(trellis):
    for ell in range(1, 13):
        assert same(trellis.active_burst_distance(ell), reference.active_burst_distance(trellis, ell))


def test_slope_memory_is_linear_in_nodes():
    tr = build_trellis(load_code(SUITE / "gf9_31_m3.json"))
    assert tr.num_sections * tr.num_states == 1458
    tracemalloc.start()
    try:
        tr.slope()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a full (m + 1) x m Karp table here takes about 47 MB
    assert peak < 12_000_000


PLAIN = (int, bool, float, type(None))


def scalars(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from scalars(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from scalars(value)
    else:
        yield doc


SPECS = sorted(p for p in SUITE.glob("*.json") if p.name != "expected.json")


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_reports_hold_plain_python_types(path):
    code = load_code(path)
    report = analyze_code(code)
    json.dumps(report)
    assert all(type(v) in PLAIN for v in scalars(report)), report
    fd = build_trellis(code).free_distance()
    assert type(fd.value) in (int, float) and type(fd.stabilized) is bool
    assert all(type(d) is int or d == math.inf for d in fd.burst)


# -- the graph questions on the edge arrays ------------------------------------


def test_the_extra_codes_are_catastrophic():
    assert {field.size for _, _, field, _ in CATASTROPHIC} == {2, 4}
    assert {cls for _, cls, _, _ in CATASTROPHIC} == {SkewConvCode, SkewTrellisCode}
    for name, code in GRAPH_CODES[len(CODES) :]:
        assert reference.catastrophic_cycle(build_trellis(code)) is not None, name


def test_zero_state_costs_match_dijkstra(trellis):
    tr = trellis
    adj = reference.graph(tr)
    assert tr._zero_state_costs(tr._node_preds).tolist() == reference.forward_costs(tr, adj)
    assert tr._zero_state_costs(tr._node_succs).tolist() == reference.return_costs(tr, adj)


def test_zero_cycle_core_matches_reference(trellis):
    core = trellis._zero_cycle_core
    assert core.dtype == bool
    assert (core == reference.zero_cycle_core(trellis)).all()


def test_hand_built_trellises():
    two_parts, zero_loop = HAND_BUILT
    assert two_parts.slope() == 1
    assert zero_loop.slope() == 0
    assert zero_loop._zero_cycle_core.tolist() == [False, True, False, False]
    fd = zero_loop.free_distance()
    assert (fd.value, fd.achieved_by, fd.loop_length) == (3, "loop", 2)


def test_catastrophic_witness_is_a_zero_weight_cycle(trellis):
    tr = trellis
    got = is_catastrophic(tr)
    assert got.catastrophic is (reference.catastrophic_cycle(tr) is not None)
    assert got.catastrophic is (tr.slope() == 0)
    if not got.catastrophic:
        assert got.witness is None
        return
    steps = got.witness
    for step, nxt in zip(steps, steps[1:] + steps[:1]):
        # consecutive sections, closed
        assert (step.to_state, (step.section + 1) % tr.num_sections) == (
            nxt.from_state,
            nxt.section,
        )
        idx = sum(d * tr.q**i for i, d in enumerate(step.input_block))
        assert tr.edge(step.section, step.from_state, idx)[:2] == (step.to_state, step.label)
    assert all(not any(step.label) for step in steps)
    assert any(any(step.input_block) for step in steps)

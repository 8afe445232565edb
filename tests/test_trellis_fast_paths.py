"""The array paths of the trellis graph algorithms against their scalar
references (loop DP, Karp's slope, Dijkstra's costs, the zero-weight cycles
and the catastrophic search), their memory, and the plain Python types of
what they report."""

import dataclasses
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    trellis as trellis_module,
)
from skewconv.decoder import viterbi_batch

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


def gf2_trellis(*sections):
    """A GF(2) trellis of rate 1/2, one section per argument, from
    per-state (to_state, weight) pairs, one per input; weight w gets the
    label of w ones."""
    labels = {0: (0, 0), 1: (1, 0), 2: (1, 1)}
    next_state = np.array(
        [[to for edges in section for to, _ in edges] for section in sections], dtype=np.intp
    )
    label = np.array(
        [[labels[w] for edges in section for _, w in edges] for section in sections],
        dtype=np.uint8,
    )
    return Trellis(GF2, 1, 2, [len(sections[0]).bit_length() - 1], next_state, label)


HAND_BUILT = [
    # not strongly connected: the zero state's only cycle has mean 2, and it
    # never reaches state 1, whose loops have mean 1
    gf2_trellis([[(0, 0), (0, 2)], [(1, 1), (1, 1)]]),
    # a zero-weight loop at state 1 with input 1; state 2 only leads into it
    # and state 3 only out of it along zero-weight edges, and the zero state
    # reaches state 3 at weight 1 but state 1 only at weight 3
    gf2_trellis([[(0, 0), (3, 1)], [(3, 0), (1, 0)], [(1, 0), (2, 1)], [(2, 2), (0, 2)]]),
    # a zero-weight cycle through the zero state, 0 -> 1 -> 2 -> 0 by inputs
    # 1, 0, 0, beside the removed edge from state 0 by input 0: no code fixture
    # has a zero-state node in its zero-weight core
    gf2_trellis([[(0, 0), (1, 0)], [(2, 0), (3, 2)], [(0, 0), (1, 1)], [(2, 1), (3, 2)]]),
]


# the multi-section codes again, built by the scalar reference with a row
# per section: a built trellis shares one `next_state` row, so only these
# take the loop DP's per-section gather.  A code's shift is the same at
# every phase, so the last one, whose two sections shift differently, is the
# one that tells the sections apart there.
PER_SECTION = [
    (f"{name}-per-section", reference.build_trellis(code))
    for name, code in GRAPH_CODES
    if code.period > 1
] + [
    (
        "hand-built-two-shifts",
        gf2_trellis(
            [[(0, 0), (1, 2)], [(2, 1), (3, 1)], [(0, 1), (1, 0)], [(2, 2), (3, 1)]],
            [[(2, 1), (3, 2)], [(0, 2), (1, 1)], [(2, 0), (3, 1)], [(0, 1), (1, 2)]],
        ),
    )
]


# two-section trellises on which `free_distance` stops its scan early
EARLY_STOP = [
    # every loop of at most 3 edges weighs 2 or more; the lightest, of
    # weight 1, closes at step 4 from phase 0, and the frontier passes it at
    # step 5
    (
        "hand-built-late-lightest-loop",
        gf2_trellis(
            [[(0, 0), (1, 1)], [(3, 2), (3, 0)], [(2, 1), (1, 2)], [(0, 2), (2, 1)]],
            [[(3, 0), (2, 0)], [(1, 0), (3, 1)], [(2, 0), (1, 1)], [(0, 0), (0, 1)]],
        ),
    ),
    # two loops of weight 1: one edge from phase 1, and three edges from
    # phase 0, which comes first in (start, length) order; after step 1 the
    # frontier equals the lightest loop, so a scan stopping on a tie there
    # would report the one-edge loop
    (
        "hand-built-equal-weight-tie",
        gf2_trellis(
            [[(1, 2), (1, 1)], [(0, 1), (2, 2)], [(3, 0), (0, 0)], [(2, 2), (3, 1)]],
            [[(2, 2), (0, 1)], [(2, 0), (1, 2)], [(0, 1), (3, 0)], [(1, 0), (3, 1)]],
        ),
    ),
]


@pytest.fixture(
    scope="module",
    params=[code for _, code in GRAPH_CODES]
    + HAND_BUILT
    + [tr for _, tr in PER_SECTION + EARLY_STOP],
    ids=[name for name, _ in GRAPH_CODES]
    + ["hand-built-two-parts", "hand-built-zero-loop", "hand-built-zero-state-core"]
    + [name for name, _ in PER_SECTION + EARLY_STOP],
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


def test_the_per_section_trellises_keep_a_row_per_section():
    assert len(PER_SECTION) >= 10
    for name, tr in PER_SECTION:
        assert tr.num_sections > 1, name
        for table in (tr.next_state, tr.pred):
            assert table.strides[0] != 0, name
        if name.endswith("-per-section"):
            built = build_trellis(dict(GRAPH_CODES)[name.removesuffix("-per-section")])
            assert np.array_equal(tr.pred, built.pred), name
            assert np.array_equal(tr.label, built.label), name
    two_shifts = dict(PER_SECTION)["hand-built-two-shifts"]
    assert not np.array_equal(two_shifts.pred[0], two_shifts.pred[1])


def test_edge_arrays_are_built_on_first_use():
    tr = build_trellis(dict(CODES)["mixed-k2-left"])
    assert not {"weight", "pred"} & vars(tr).keys()
    assert tr.pred.shape == (tr.num_sections, tr.num_states, tr.num_inputs)
    assert "pred" in vars(tr) and "weight" not in vars(tr)


def test_pred_lists_the_edges_into_each_state_in_order(trellis):
    pred = trellis.pred
    flat = pred.reshape(trellis.num_sections, -1)
    entered = np.take_along_axis(trellis.next_state, flat, axis=1).reshape(pred.shape)
    assert (entered == np.arange(trellis.num_states)[:, None]).all()
    assert (np.diff(pred, axis=2) > 0).all()
    for s, section in enumerate(reference.sections(trellis)):
        for st, edges in enumerate(section):
            for idx, e in enumerate(edges):
                flat_id = st * trellis.num_inputs + idx
                assert (trellis.next_state[s, flat_id], trellis.weight[s, flat_id]) == e[::2]


def test_loop_dp_matches_reference(trellis):
    steps = 8
    sections, inputs = trellis.num_sections, trellis.num_inputs
    unreached = trellis_module._unreached(inputs)

    def keys(dist):
        return [unreached if d == math.inf else d * inputs for d in dist]

    want = list(reference.loop_dp(trellis, steps))
    for row_at in (1, 5, steps):
        zero, row, survivors = trellis._loop_dp(steps, row_at)
        assert zero.shape == (sections, steps + 1)
        assert survivors.dtype == np.min_scalar_type(inputs - 1)
        for start, length, dist, parents in want:
            assert zero[start, length] == keys(dist)[0], (start, length)
            # rows and survivors are by the section of the last edge
            s = (start + length - 1) % sections
            if length == row_at:
                assert row[s].tolist() == keys(dist), start
            if not length:
                continue
            for st, parent in enumerate(parents[length - 1]):
                if parent is not None:
                    edge = trellis.pred[s, st, survivors[length - 1, s, st]]
                    assert divmod(int(edge), inputs) == parent, (start, length, st)


def test_acs_keeps_the_first_minimum():
    # state 0 is entered from states 1, 0, 1 at weights 3, 1, 1; state 1 from
    # states 0, 0, 1 at equal weight; src[j, st] and keys[b, j, st]
    inputs = 3
    rows = np.array([[0, 0]])
    src = np.array([[1, 0], [0, 0], [1, 1]])
    weight = np.array([[[3, 2], [1, 2], [1, 2]]])
    got, best = trellis_module.acs(rows, src, weight * inputs + np.arange(inputs)[:, None])
    assert got.tolist() == [[1 * inputs, 2 * inputs]] and best.tolist() == [[1, 0]]
    assert rows.tolist() == [[0, 0]]


def test_acs_keeps_unreached_states_at_the_sentinel():
    # row 0: state 0 is entered from the unreached state 0 only, state 1 by
    # an edge that may not be taken from the reached state 1 and from state
    # 0; row 1 is all unreached.  Every candidate is U + U at most.
    inputs = 2
    unreached = trellis_module._unreached(inputs)
    rows = np.array([[unreached, 0], [unreached, unreached]])
    src = np.array([[0, 1], [0, 0]])
    keys = np.array([[[0, unreached], [unreached, 3]]])
    got, _ = trellis_module.acs(rows, src, keys)
    assert got.tolist() == [[unreached, unreached], [unreached, unreached]]


def test_acs_on_a_batch_matches_per_row_indices_and_a_scalar_scan():
    rng = np.random.default_rng(11)
    frames, states, inputs = 7, 9, 4
    unreached = trellis_module._unreached(inputs)
    dist = rng.integers(0, 5, (frames, states))
    reached = rng.random(dist.shape) >= 0.2
    rows = np.where(reached, dist * inputs, unreached)
    from_state = rng.integers(0, states, (inputs, states))
    branch = rng.integers(0, 3, (frames, inputs, states))
    keys = branch * inputs + np.arange(inputs)[:, None]
    shared = trellis_module.acs(rows, from_state, keys)
    flat = np.arange(frames)[:, None, None] * states + from_state
    per_row = trellis_module.acs(rows, flat, keys)
    assert np.array_equal(per_row[0], shared[0]) and np.array_equal(per_row[1], shared[1])
    for b in range(frames):
        for st in range(states):
            cand = [
                dist[b, from_state[j, st]] + branch[b, j, st]
                if reached[b, from_state[j, st]]
                else math.inf
                for j in range(inputs)
            ]
            if min(cand) == math.inf:
                assert shared[0][b, st] == unreached
                continue
            assert shared[0][b, st] == min(cand) * inputs
            assert shared[1][b, st] == cand.index(min(cand))


# (frames, states, inputs, src, taken): src "shared" is one src[j, st] for
# every row, "per-row" one per row of rows.flat; taken "any" lets a share of
# the edges be taken, "tail" one edge into each state, as a terminated tail
ACS_CASES = [
    (1, 5, 3, "shared", "any"),
    (1, 5, 3, "per-row", "any"),
    (1, 16, 16, "shared", "tail"),
    (6, 81, 81, "per-row", "any"),
    (4096, 4, 4, "shared", "any"),
    (4096, 4, 4, "shared", "tail"),
    (4096, 4, 4, "per-row", "any"),
]


@pytest.mark.parametrize("frames,states,inputs,src,taken", ACS_CASES)
def test_acs_matches_the_float_argmin_step(frames, states, inputs, src, taken):
    rng = np.random.default_rng(frames * states + inputs)
    unreached = trellis_module._unreached(inputs)
    # small weights, so most states see ties; row 0 all unreached
    dist = rng.integers(0, 4, (frames, states))
    reached = rng.random(dist.shape) >= 0.3
    reached[0] = False
    branch = rng.integers(0, 3, (frames, inputs, states))
    if taken == "tail":
        allowed = np.arange(inputs)[:, None] == rng.integers(0, inputs, states)
    else:
        allowed = rng.random(branch.shape) >= 0.2
    from_state = rng.integers(0, states, (inputs, states))
    if src == "per-row":
        from_state = rng.integers(0, states, (frames, inputs, states))
    flat = np.arange(frames)[:, None, None] * states + from_state
    rows = np.where(reached, dist * inputs, unreached)
    keys = np.where(allowed, branch * inputs + np.arange(inputs)[:, None], unreached)
    got, best = trellis_module.acs(rows, from_state if src == "shared" else flat, keys)
    # the oracle's layout is [b, st, j]
    want, want_best = reference.acs(
        np.where(reached, dist, np.inf),
        np.swapaxes(from_state if src == "shared" else flat, -1, -2),
        np.swapaxes(np.where(allowed, branch, np.inf), 1, 2),
    )
    out = want < np.inf
    expected = np.full(want.shape, unreached, dtype=np.int64)
    expected[out] = want[out].astype(np.int64) * inputs
    assert np.array_equal(got, expected)
    assert np.array_equal(best[out], want_best[out])
    assert not out[0].any()


def test_the_key_range_is_asserted_before_it_wraps():
    # the keys of distances below U / inputs are exact; the next would reach U
    for inputs in (1, 2, 3, 16, 81, 3**12):
        unreached = trellis_module._unreached(inputs)
        assert unreached % inputs == 0 and 2 * unreached < 2**63 <= 2 * unreached + 2 * inputs
        top = unreached // inputs - 1
        assert trellis_module._check_keys(inputs, top) == unreached
        with pytest.raises(AssertionError):
            trellis_module._check_keys(inputs, top + 1)
        # state 0 is entered at distance top by its last edge, whose key is
        # inputs - 1, the farthest reachable key; state 1 only from the
        # unreached state 1 by edges that may not be taken, at U + U
        rows = np.array([[top * inputs, unreached]])
        src = np.tile([0, 1], (inputs, 1))
        keys = np.full((1, inputs, 2), unreached)
        keys[0, -1, 0] = inputs - 1
        got, best = trellis_module.acs(rows, src, keys)
        assert got.tolist() == [[top * inputs, unreached]] and best[0, 0] == inputs - 1


def test_the_key_range_is_checked_on_every_path(monkeypatch):
    # with a sentinel of 64 x inputs, a distance from 64 on would read as
    # unreached; n = 2 symbols an edge, 2 sections x 4 states
    tr = build_trellis(load_code(SUITE / "gf4_worked.json"))
    word = np.zeros((1, 31, 2), dtype=np.intp)
    want = tr.active_burst_distance(23), viterbi_batch(tr, word)
    monkeypatch.setattr(trellis_module, "_unreached", lambda inputs: 64 * inputs)
    with pytest.raises(AssertionError):
        tr.active_burst_distance(24)  # a path and its way back, (24 + 8) x 2
    with pytest.raises(AssertionError):
        viterbi_batch(tr, np.zeros((1, 32, 2), dtype=np.intp))
    assert tr.active_burst_distance(23) == want[0]
    got = viterbi_batch(tr, word)
    assert np.array_equal(got[0], want[1][0]) and got[1] == want[1][1]


def test_slope_matches_reference(trellis):
    got, want = trellis.slope(), reference.slope(trellis)
    assert type(got) is type(want)
    assert got == want


@pytest.mark.parametrize("ell_max,lmax", [(None, 12), (4, 0), (2, 6), (None, 0), (None, 24)])
def test_free_distance_matches_reference(trellis, ell_max, lmax):
    got = trellis.free_distance(ell_max, lmax)
    want = reference.free_distance(trellis, ell_max, lmax)
    for f in dataclasses.fields(want):
        assert same(getattr(got, f.name), getattr(want, f.name)), f.name


@pytest.fixture
def acs_steps(monkeypatch):
    """The number of `trellis.acs` calls made since the fixture ran."""
    calls = []
    acs = trellis_module.acs

    def counted(*args):
        calls.append(1)
        return acs(*args)

    monkeypatch.setattr(trellis_module, "acs", counted)
    return calls


def test_the_scan_stops_right_after_the_lightest_loop_closes(acs_steps):
    tr = dict(EARLY_STOP)["hand-built-late-lightest-loop"]
    assert [tr.active_burst_distance(ell) for ell in (1, 2, 3, 4)] == [math.inf, 2, 4, 1]
    acs_steps.clear()
    fd = tr.free_distance()
    assert len(acs_steps) == 5 < 8 * 3 * 2
    assert (fd.value, fd.loop_length, fd.witness[0].section, fd.stabilized) == (1, 4, 0, True)
    # a scan that ends where the lightest loop closes still finds it, and
    # one a step shorter does not
    for ell_max, value in ((4, 1), (3, 2)):
        acs_steps.clear()
        assert tr.free_distance(ell_max).value == value
        assert len(acs_steps) == ell_max
    # lmax holds the scan back; past it, the stop is again the first step
    # whose frontier is above the lightest loop
    acs_steps.clear()
    assert tr.free_distance(lmax=7).burst[3] == 1
    assert len(acs_steps) == 7


def test_an_equal_weight_tie_does_not_stop_the_scan(acs_steps):
    tr = dict(EARLY_STOP)["hand-built-equal-weight-tie"]
    zero, row, _ = tr._loop_dp(1, 1)
    unreached = trellis_module._unreached(tr.num_inputs)
    frontier = trellis_module._frontier(row, tr._return_keys)
    assert zero[:, 1].tolist() == [unreached, tr.num_inputs] and frontier == tr.num_inputs
    acs_steps.clear()
    fd = tr.free_distance()
    assert (fd.value, fd.loop_length, fd.witness[0].section) == (1, 3, 0)
    assert len(acs_steps) == 4


@pytest.mark.parametrize("name,steps", [("gf16_m2", 24), ("gf4_worked_id", 16)])
def test_analyze_scans_until_the_frontier_settles(name, steps, acs_steps):
    # gf16_m2 settles at lmax = 24 of ell_max = 96; the catastrophic
    # gf4_worked_id never does and scans all ell_max = 16 steps
    code = load_code(SUITE / f"{name}.json")
    analyze_code(code, trellis=build_trellis(code))
    assert len(acs_steps) == steps


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
    # a node that reaches no target costs U / inputs, not inf
    far = trellis_module._unreached(tr.num_inputs) // tr.num_inputs

    def costs(dist):
        return [far if d == math.inf else d for d in dist]

    zero_states = np.zeros(len(adj), dtype=bool)
    zero_states[:: tr.num_states] = True
    assert tr._costs_to(zero_states).tolist() == costs(reference.return_costs(tr, adj))
    # the zero-output tail: the costs to the core at the zero-state nodes
    # are the forward costs from them into the core
    core = tr._zero_cycle_core
    to_core = reference.dijkstra(reference.reverse(adj), np.flatnonzero(core).tolist())
    assert tr._costs_to(core).tolist() == costs(to_core)
    forward = reference.forward_costs(tr, adj)
    assert min(to_core[:: tr.num_states]) == min(np.array(forward)[core], default=math.inf)


def test_zero_cycle_core_matches_reference(trellis):
    core = trellis._zero_cycle_core
    assert core.dtype == bool
    assert (core == reference.zero_cycle_core(trellis)).all()


def test_hand_built_trellises():
    two_parts, zero_loop, zero_state_core = HAND_BUILT
    assert two_parts.slope() == 1
    assert zero_loop.slope() == 0
    assert zero_loop._zero_cycle_core.tolist() == [False, True, False, False]
    fd = zero_loop.free_distance()
    assert (fd.value, fd.achieved_by, fd.loop_length) == (3, "loop", 2)
    # the zero state's removed edge leads to the sink, which the witness
    # must pass over for its input-1 edge into the core
    core = zero_state_core._zero_cycle_core
    assert core.tolist() == [True, True, True, False]
    witness = zero_state_core.catastrophic_cycle()
    assert [(step.from_state, step.input_block) for step in witness] == [
        (0, (1,)),
        (1, (0,)),
        (2, (0,)),
    ]
    assert zero_state_core._costs_to(core).tolist()[:3] == [0, 0, 0]
    fd = zero_state_core.free_distance()
    assert (fd.value, fd.achieved_by, fd.loop_length, zero_state_core.slope()) == (0, "loop", 3, 0)


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


# -- Howard's slope and its certificate ----------------------------------------


def node_preds(to, w):
    """(src, w)[j, node]: the predecessor table of the successor table (to,
    w), each node's in-edges in (source, input) order.  The edges into the
    sink, node m, make up at weight inf the in-edges the nodes lack."""
    inputs, nodes = to.shape
    missing = to == nodes
    lacking = inputs - np.bincount(to[~missing], minlength=nodes)
    to = to.copy()
    to[missing] = np.repeat(np.arange(nodes), lacking)
    w = np.where(missing, np.inf, w)
    order = np.argsort(to.T.ravel(), kind="stable")
    return order.reshape(nodes, inputs).T // inputs, w.T.ravel()[order].reshape(nodes, inputs).T


def test_slope_matches_both_karp_oracles(trellis):
    got = trellis.slope()
    preds = node_preds(*trellis._node_succs)
    for want in (reference.slope(trellis), reference.karp_two_pass(*preds)):
        assert type(got) is type(want)
        assert got == want


def check_least_mean_cycle(to, w, found):
    """`found` is a cycle of the graph (to, w) whose mean is its value, and
    its potential satisfies p[v] <= w * L - S + p[to] on every edge."""
    if found.value == math.inf:
        assert found.cycle is None and found.potential is None
        return
    cycle = found.cycle
    total = 0
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        steps = [w[i, u] for i in range(len(to)) if to[i, u] == v]
        assert steps, (u, v)
        total += int(min(steps))
    assert type(found.value) is Fraction
    assert found.value == Fraction(total, len(cycle))
    potential = found.potential
    assert potential.dtype == np.int64 and (potential <= 0).all()
    present = to < to.shape[1]
    reduced = w.astype(np.int64) * len(cycle) - total
    assert (potential <= np.where(present, reduced + np.append(potential, 0)[to], 0)).all()


def test_slope_cycle_and_potential_certify_it(trellis):
    to, w = trellis._node_succs
    found = trellis._least_mean_cycle
    assert found.value is trellis.slope()
    check_least_mean_cycle(to, w, found)


def test_potential_refuses_a_mean_above_the_least(trellis):
    to, w = trellis._node_succs
    found = trellis._least_mean_cycle
    if found.value == math.inf:
        return
    num, den = found.value.numerator, found.value.denominator
    assert trellis_module._potential(to, w, num, den) is not None
    assert trellis_module._potential(to, w, num + 1, den) is None
    assert trellis_module._potential(to, w, num * 2 * den + 1, 2 * den * den) is None


def test_the_suite_analysis_never_builds_predecessors_unless_catastrophic():
    # one node table serves every graph question: the successors
    for path in SPECS:
        code = load_code(path)
        tr = build_trellis(code)
        report = analyze_code(code, trellis=tr)
        tables = {name for name, value in vars(tr).items() if isinstance(value, np.ndarray)}
        edge_tables = {"next_state", "label", "weight", "pred"}
        assert tables <= edge_tables | {"_zero_cycle_core", "_return_keys"}, path.stem
        assert "_node_succs" in vars(tr), path.stem
        assert bool(tr._zero_cycle_core.any()) is report["catastrophic"], path.stem


def adjacency(to, w):
    """Adjacency lists of a successor table, weights as Python ints; the
    edges into the sink, node m, are not there."""
    return [
        [(int(to[i, u]), int(w[i, u]), i) for i in range(len(to)) if to[i, u] < to.shape[1]]
        for u in range(to.shape[1])
    ]


def least_mean_cycle(to, w):
    to, w = reference.sink_form(to, w)
    found = trellis_module._least_mean_cycle(to, w)
    check_least_mean_cycle(to, w, found)
    return found.value


# Successor tables (to, w)[input][node]; each case names what it covers.
CASES = {
    # two cycles of mean 2/3 and 4/6, of different lengths, in one graph
    "equal-means": (
        [[1, 2, 0, 4, 5, 6, 7, 8, 3]],
        [[0, 1, 1, 1, 0, 1, 1, 0, 1]],
        Fraction(2, 3),
    ),
    # node 1 has only missing edges; node 0 leads only into it
    "all-missing": ([[1, 1, 0], [1, 0, 2]], [[1, math.inf, 5], [3, math.inf, 4]], Fraction(4)),
    # a chain into a dead end, peeled one node a round: no cycle is left
    "no-cycle": (
        [[1, 2, 3, 3], [2, 3, 3, 0]],
        [[1, 1, 1, math.inf], [2, 0, 7, math.inf]],
        math.inf,
    ),
    # not strongly connected: 0 <-> 1 at mean 3/2, and 2 -> 3 -> 2 at mean
    # 1 beside it; 4 leads into both
    "two-parts": (
        [[1, 0, 3, 2, 0], [0, 1, 2, 3, 2]],
        [[1, 2, 1, 1, 0], [5, 5, 9, 9, 0]],
        Fraction(1),
    ),
    # no single move lowers a mean from the greedy start (each node's
    # lightest edge): only the bias phase finds the cycle 0 -> 1 -> 0
    "bias-phase": ([[0, 1], [1, 0]], [[2, 2], [3, 0]], Fraction(3, 2)),
    # a missing edge from node 1 back to node 0 would close a cycle of mean 1
    "missing-edge": ([[0, 1], [1, 0]], [[2, 3], [2, math.inf]], Fraction(2)),
    # on an offset of 2**52, the cycles 0-1-2 of mean 1/3 and 3-4-5-6 of
    # mean 1/4 have means that round to the same float; the least, 7-8-9-10-11
    # of mean 1/5, is found only once its nodes all leave the first for the
    # second (input 0 leaves the cycle 7-11, input 1 follows it)
    "beyond-floats": (
        [[1, 2, 0, 4, 5, 6, 3, 0, 3, 0, 3, 3], [1, 2, 0, 4, 5, 6, 3, 8, 9, 10, 11, 7]],
        [
            [2**52 + d for d in [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0]],
            [2**52 + d for d in [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1]],
        ],
        2**52 + Fraction(1, 5),
    ),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_least_mean_cycle_cases(case):
    to, w, want = CASES[case]
    assert reference.karp_table(adjacency(*reference.sink_form(to, w))) == want
    got = least_mean_cycle(to, w)
    assert type(got) is type(want)
    assert got == want


@st.composite
def successor_tables(draw):
    """A graph of 1-7 nodes and 1-3 inputs as (to, w)[input][node]: some
    edges missing (inf), weights 0-4, on an offset of 0 or 2**52."""
    nodes = draw(st.integers(1, 7))
    inputs = draw(st.integers(1, 3))
    offset = draw(st.sampled_from([0, 2**52]))
    missing = draw(st.sampled_from([0.0, 0.3, 0.7]))
    to = [[draw(st.integers(0, nodes - 1)) for _ in range(nodes)] for _ in range(inputs)]
    w = [
        [
            math.inf if draw(st.floats(0, 1)) < missing else offset + draw(st.integers(0, 4))
            for _ in range(nodes)
        ]
        for _ in range(inputs)
    ]
    return np.array(to, dtype=np.intp), np.array(w, dtype=float)


@settings(max_examples=400, deadline=None)
@given(successor_tables())
def test_least_mean_cycle_matches_karp_on_random_graphs(graph):
    to, w = graph
    got = least_mean_cycle(to, w)
    want = reference.karp_table(adjacency(*reference.sink_form(to, w)))
    assert type(got) is type(want)
    assert got == want


# -- trellis construction memory -----------------------------------------------


def test_built_trellises_share_one_row():
    tr = build_trellis(load_code(SUITE / "gf16_m2.json"))
    assert tr.num_sections == 4
    for table in (tr.next_state, tr.pred):
        assert table.strides[0] == 0 and not table.flags.writeable
    want = reference.build_trellis(load_code(SUITE / "gf16_m2.json"))
    assert np.array_equal(tr.pred, want.pred) and want.pred.strides[0] != 0


def test_build_memory_is_a_small_multiple_of_the_edge_arrays():
    memory = 18  # 2**18 states x 2 inputs = 2**19 edges
    table = [[[1] + [0] * (memory - 1) + [1], [1, 1] + [0] * (memory - 2) + [1]]]
    code = SkewConvCode(SkewPolyMatrix.from_ints(GF2, table))
    build_trellis(code)  # the field's tables, made once
    tracemalloc.start()
    try:
        tr = build_trellis(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.next_state.size == 2**19
    # the build makes no weights: 1.5 x these here; a pass over the edge ids
    # per label term took 3.2 x, and int64 edge ids peeled twice per digit 4.7 x
    finished = tr.next_state.nbytes + tr.label.nbytes
    assert peak < 3.6 * finished


def test_an_odd_p_build_stays_a_small_multiple_of_the_edge_arrays():
    # GF(9), memory 4, period 2: 9^4 states x 9 inputs x 2 sections.  The
    # table add keeps the uint8 labels: 1.3 x these here; the Zech add's intp
    # sums took 3.6 x, and int64 digit fields for every label term 12 x.
    code = SkewConvCode(SkewPolyMatrix.from_ints(GF9, [[[1, 3, 0, 0, 1], [3, 1, 0, 0, 4]]]))
    build_trellis(code)  # the field's tables, made once
    tracemalloc.start()
    try:
        tr = build_trellis(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.next_state.shape == (2, 9**5)
    finished = tr.next_state[0].nbytes + tr.label.nbytes  # one row held for all sections
    assert peak < 2.5 * finished


def test_the_analysis_caches_the_edge_weights_only_in_its_tables():
    # the loop weights live in `_loop_tables` and `_node_succs`, not beside them
    for path in SPECS:
        code = load_code(path)
        tr = build_trellis(code)
        analyze_code(code, trellis=tr)
        assert "_loop_weight" not in vars(tr), path.stem
        assert "_loop_tables" in vars(tr) and "_node_succs" in vars(tr), path.stem


def held_bytes(table):
    """The bytes an array holds: one row of a table that repeats it."""
    return table[0].nbytes if table.ndim and table.strides[0] == 0 else table.nbytes


def cached_arrays(tr):
    """name: array, for every array a trellis caches, alone or in a tuple."""
    out = {}
    for name, value in vars(tr).items():
        for i, table in enumerate(value if isinstance(value, tuple) else (value,)):
            if isinstance(table, np.ndarray):
                out[name if not isinstance(value, tuple) else f"{name}[{i}]"] = table
    return out


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_an_analyzed_trellis_caches_no_more_bytes_an_edge_than_before(path):
    code = load_code(path)
    tr = build_trellis(code)
    analyze_code(code, trellis=tr)
    edges = tr.num_sections * tr.num_states * tr.num_inputs
    tables = cached_arrays(tr)
    # the edge arrays, pred and the graph questions' own results are as
    # before; the rest replaces the float loop DP's `_pred_paths` (an intp
    # from_state in pred's rows and a float64 weight an edge), an int64
    # `weight`, and `_node_succs` (an intp successor and a float64 weight)
    kept = {"next_state", "label", "pred", "_zero_cycle_core", "_least_mean_cycle[2]"}
    assert kept < tables.keys()
    before = (8 + 8 + 8 + 8) * edges + held_bytes(tr.pred)
    now = sum(held_bytes(table) for name, table in tables.items() if name not in kept)
    assert now <= before, {name: held_bytes(table) / edges for name, table in tables.items()}
    assert tr.weight.dtype == np.uint8 and tr._loop_tables[0].dtype == np.int32


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_an_analyzed_trellis_caches_no_float_array(path):
    # the removed edges lead to a sink node, not to an inf weight, and the
    # graph's weights are `weight` itself: 8 + 1 bytes an edge
    code = load_code(path)
    tr = build_trellis(code)
    analyze_code(code, trellis=tr)
    tables = cached_arrays(tr)
    assert not {name for name, table in tables.items() if table.dtype.kind == "f"}
    to, w = tr._node_succs
    edges = tr.num_sections * tr.num_states * tr.num_inputs
    assert to.dtype == np.intp and np.shares_memory(w, tr.weight)
    assert held_bytes(to) + held_bytes(w) <= 9 * edges


def test_active_burst_distance_keeps_no_survivors():
    tr = build_trellis(load_code(SUITE / "gf9_31_m3.json"))
    ell = 3000
    want = tr.free_distance(ell_max=ell, lmax=ell).burst[ell - 1]
    tr.active_burst_distance(2)  # the cached tables
    tracemalloc.start()
    try:
        got = tr.active_burst_distance(ell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    # a survivor table here is ell x 2 sections x 729 states, 4,374,000
    # bytes; a step's own temporaries are about 0.5 MB whatever ell is
    survivors = ell * tr.num_sections * tr.num_states
    assert peak < survivors // 4

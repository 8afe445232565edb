import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from skewconv import FiniteField, is_catastrophic, unit_memory_bounds
from skewconv.trellis import SURVIVOR_BUDGET, build_trellis, export_dot

from conftest import A, A2, make_code


@pytest.fixture(scope="module")
def example_trellis(example_code):
    return build_trellis(example_code)


@pytest.fixture(scope="module")
def id_trellis(example_code_id):
    return build_trellis(example_code_id)


def test_structure(example_trellis):
    tr = example_trellis
    assert tr.num_states == 4
    assert tr.num_sections == 2
    assert tr.next_state.shape == (tr.num_sections, tr.num_states * tr.num_inputs)
    assert tr.label.shape == (*tr.next_state.shape, tr.n)


def test_section_labels_match_phase_formulas(example_trellis, f4):
    # phase 0 (even t): w (a^2, a) + u (1, a); phase 1 (odd t): w (a, a^2) + u (1, a^2)
    taps = {0: ((A2, A), (1, A)), 1: ((A, A2), (1, A2))}
    for s, (held_tap, in_tap) in taps.items():
        for w in range(4):
            for u in range(4):
                e = example_trellis.edge(s, w, u)
                expected = tuple(
                    f4.add_int(f4.mul_int(w, held_tap[j]), f4.mul_int(u, in_tap[j]))
                    for j in range(2)
                )
                assert e.label == expected
                assert e.to_state == u


def test_zero_edge_every_section(example_trellis):
    for s in range(example_trellis.num_sections):
        e = example_trellis.edge(s, 0, 0)
        assert e.to_state == 0 and e.label == (0, 0) and e.weight == 0


@pytest.mark.parametrize(
    "method,args",
    [
        ("edge", (0, -1, 0)),
        ("edge", (0, 4, 0)),
        ("edge", (0, 0, -1)),
        ("edge", (0, 0, 4)),
        ("input_block", (-1,)),
        ("input_block", (4,)),
        ("state_registers", (-1,)),
        ("state_registers", (4,)),
        ("state_name", (4,)),
    ],
)
def test_a_state_or_input_id_out_of_range_is_refused(example_trellis, method, args):
    # 4 states x 4 inputs: -1 read as state 3, and input 4 as the next state's input 0
    with pytest.raises(ValueError, match=r"out of range 0\.\.3$") as err:
        getattr(example_trellis, method)(*args)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "method,args,bad",
    [
        ("edge", (0, 1.0, 0), "state 1.0"),
        ("edge", (0, 0, 1.5), "input 1.5"),
        ("input_block", (2.5,), "input 2.5"),
        ("input_block", ("1",), "input '1'"),
        ("state_registers", (1.0,), "state 1.0"),
        ("state_name", (2.0,), "state 2.0"),
    ],
)
def test_a_state_or_input_id_that_is_no_integer_is_refused(example_trellis, method, args, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(bad)} is not an integer$"):
        getattr(example_trellis, method)(*args)
    with pytest.raises(ValueError, match="is not an integer$"):
        getattr(example_trellis, method)(*(np.float64(v) for v in args))


def test_numpy_integer_ids_are_ids(example_trellis):
    tr = example_trellis
    assert tr.edge(np.int64(1), np.uint8(2), np.int32(3)) == tr.edge(1, 2, 3)
    assert tr.input_block(np.int16(3)) == tr.input_block(3) == (3,)
    assert tr.state_registers(np.uint64(2)) == tr.state_registers(2)


def test_the_section_of_an_edge_is_taken_mod_the_period(example_trellis):
    tr = example_trellis
    assert tr.edge(2, 1, 3) == tr.edge(0, 1, 3) and tr.edge(-1, 3, 1) == tr.edge(1, 3, 1)


def test_paths_spell_encoder_outputs(example_code, example_trellis):
    tr = example_trellis
    for length in range(1, 5):
        for u in itertools.product(range(4), repeat=length):
            state = 0
            labels = []
            for t, sym in enumerate(u):
                e = tr.edge(t % tr.num_sections, state, sym)
                labels.append(e.label)
                state = e.to_state
            enc = example_code.encode([[sym] for sym in u]).to_ints()
            assert labels == enc


# -- burst distances --------------------------------------------------------


def test_active_burst_distance_of_example(example_trellis):
    for ell in range(2, 11):
        assert example_trellis.active_burst_distance(ell) == ell + 2


def test_no_one_loop_sentinel(example_trellis):
    assert example_trellis.active_burst_distance(1) == math.inf


def test_active_burst_rejects_bad_length(example_trellis):
    with pytest.raises(ValueError):
        example_trellis.active_burst_distance(0)


def exhaustive_loop_minimum(tr, ell):
    """Enumerate every state/input path of exactly ell edges from the zero
    state back to the zero state, skipping weight-0 zero-to-zero edges."""
    best = math.inf
    for start in range(tr.num_sections):
        for inputs in itertools.product(range(tr.num_inputs), repeat=ell):
            state = 0
            weight = 0
            ok = True
            for step, idx in enumerate(inputs):
                e = tr.edge((start + step) % tr.num_sections, state, idx)
                if state == 0 and e.to_state == 0 and e.weight == 0:
                    ok = False
                    break
                weight += e.weight
                state = e.to_state
            if ok and state == 0:
                best = min(best, weight)
    return best


def test_burst_distance_matches_exhaustive_enumeration(example_trellis, id_trellis):
    for tr in (example_trellis, id_trellis):
        for ell in (2, 3, 4):
            assert tr.active_burst_distance(ell) == exhaustive_loop_minimum(tr, ell)


def test_free_distance_of_example(example_trellis):
    fd = example_trellis.free_distance()
    assert fd.value == 4
    assert fd.stabilized
    assert fd.achieved_by == "loop"


def test_a_free_distance_with_no_codeword_is_no_integer(example_trellis):
    fd = example_trellis.free_distance(ell_max=1)
    assert fd.value == math.inf
    with pytest.raises(ValueError, match="^no codeword found: the free distance is not an integer$"):
        int(fd)
    assert int(example_trellis.free_distance()) == 4


def test_free_distance_identity_twist(id_trellis):
    fd = id_trellis.free_distance()
    assert fd.value == 2
    assert fd.achieved_by == "zero_output_tail"
    assert fd.stabilized


def test_free_distance_witness_is_a_loop(example_trellis):
    fd = example_trellis.free_distance()
    assert fd.loop_length == len(fd.witness)
    assert fd.witness[0].from_state == 0
    assert fd.witness[-1].to_state == 0
    assert sum(sum(1 for v in step.label if v) for step in fd.witness) == fd.value


def test_free_distance_binary_code_against_weight_scan():
    code = make_code(FiniteField(2, 1), [[[1], [1, 1]]])  # (1, 1 + D) over GF(2)
    tr = build_trellis(code)
    best = math.inf
    for length in range(1, 7):
        for u in itertools.product(range(2), repeat=length):
            if not any(u):
                continue
            w = code.encode([[b] for b in u], terminate=True).weight()
            best = min(best, w)
    assert best == 3
    assert tr.free_distance().value == 3


def test_free_distance_is_min_burst(example_trellis):
    fd = example_trellis.free_distance(ell_max=12)
    assert fd.value == min(
        example_trellis.active_burst_distance(ell) for ell in range(1, 13)
    )


@pytest.mark.parametrize("ell_max,lmax", [(-3, 0), (0, 0), (0, 12), (4, -1)])
def test_free_distance_rejects_bad_lengths(example_trellis, ell_max, lmax):
    # a scan that never reaches its frontier would certify inf as stabilized
    with pytest.raises(ValueError, match="ell_max must be >= 1 and lmax >= 0"):
        example_trellis.free_distance(ell_max, lmax)


def test_loop_scans_over_the_parent_budget_fail_at_once(example_trellis):
    # 4 states: 2^22 + 1 steps would hold just over 2^24 parent entries
    steps = SURVIVOR_BUDGET // example_trellis.num_states + 1
    with pytest.raises(ValueError, match="budget"):
        example_trellis.free_distance(lmax=steps)
    with pytest.raises(ValueError, match="budget"):
        example_trellis.free_distance(ell_max=steps)
    with pytest.raises(ValueError, match="budget"):
        example_trellis.active_burst_distance(steps)


# -- slope -------------------------------------------------------------------


def test_slope_of_example(example_trellis):
    s = example_trellis.slope()
    assert isinstance(s, Fraction)
    assert s == 1


def test_slope_identity_twist(id_trellis):
    assert id_trellis.slope() == 0


def test_slope_bound_and_burst_growth(example_trellis, example_code):
    s = example_trellis.slope()
    assert s <= example_code.n - example_code.k
    for ell in range(2, 11):
        assert example_trellis.active_burst_distance(ell) >= s * ell


# -- catastrophicity ----------------------------------------------------------


def test_example_is_not_catastrophic(example_code):
    assert is_catastrophic(example_code).catastrophic is False


def test_identity_twist_is_catastrophic(example_code_id):
    result = is_catastrophic(example_code_id)
    assert result.catastrophic is True
    steps = result.witness
    assert all(all(v == 0 for v in step.label) for step in steps)
    assert any(any(v != 0 for v in step.input_block) for step in steps)
    assert steps[0].from_state == steps[-1].to_state
    for prev, nxt in zip(steps, steps[1:]):
        assert prev.to_state == nxt.from_state


def test_identity_generator_not_catastrophic(f4):
    code = make_code(f4, [[[1]]])
    assert is_catastrophic(code).catastrophic is False


def test_catastrophic_iff_zero_slope_with_cycle(example_code, example_code_id):
    for code in (example_code, example_code_id):
        tr = build_trellis(code)
        flagged = is_catastrophic(code).catastrophic
        zero_slope = tr.slope() == 0
        assert flagged == (zero_slope and tr.catastrophic_cycle() is not None)


# -- bounds --------------------------------------------------------------------


def test_unit_memory_bounds(example_code, f4):
    assert unit_memory_bounds(example_code) == (4, 1)
    code31 = make_code(f4, [[[1], [A], [0, 1]]])  # [3, 1] unit memory
    assert unit_memory_bounds(code31) == (6, 2)
    memory2 = make_code(f4, [[[1], [1, 0, A]]])
    assert unit_memory_bounds(memory2).d_free_bound is None
    assert unit_memory_bounds(memory2).slope_bound == 1


def test_example_meets_bounds_with_equality(example_trellis, example_code):
    bounds = unit_memory_bounds(example_code)
    assert example_trellis.free_distance().value == bounds.d_free_bound
    assert example_trellis.slope() == bounds.slope_bound


# -- DOT export ------------------------------------------------------------------


def test_dot_structure(example_trellis):
    dot = export_dot(example_trellis, 3)
    nodes = re.findall(r"^\s*t\d+_s\d+ \[", dot, flags=re.M)
    edges = re.findall(r"->", dot)
    assert len(nodes) == 4 + 3 * 4
    assert len(edges) == 3 * 4 * 4
    assert dot.startswith("digraph")


def test_dot_trivial_code(f4):
    code = make_code(f4, [[[1]]])
    tr = build_trellis(code)
    dot = export_dot(tr, 1)
    assert len(re.findall(r"->", dot)) == 1 * tr.num_states * tr.num_inputs == 4
    assert 'label="0"' in dot


def test_dot_rejects_bad_section_count(example_trellis):
    with pytest.raises(ValueError):
        export_dot(example_trellis, 0)

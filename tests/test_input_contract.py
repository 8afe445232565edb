"""The library's input contract: every count, size, length, seed and index
of the public API is an integer checked by `field._integral`, the channel's
eps a real number, and every mixed-field operation is refused by
`field._same_field`; a bad argument raises one ValueError of one line, and
never a TypeError, an IndexError or a numpy allocation.  A job over a size
budget is refused the same way, before any work, by `field._within`."""

import ast
import contextlib
import math
import random
import signal
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skewconv import (
    FiniteField,
    QSChannel,
    Sequence,
    SkewConvCode,
    SkewPoly,
    SkewPolyMatrix,
    SkewTrellisCode,
    SyndromeFormer,
    SyndromeFormerNotFound,
    analyze_code,
    bcjr,
    build_trellis,
    export_dot,
    linearity_report,
    run_simulation,
    syndrome_former,
    verify_duality,
    viterbi,
)
from skewconv import code as code_module, dual as dual_module, trellis as trellis_module
from skewconv.code import coerce_sequence
from skewconv.trellis import EDGE_BUDGET, SURVIVOR_BUDGET, unpack_digits

from conftest import EXAMPLE_TABLE, make_code

F4 = FiniteField(2, 2, [1, 1, 1], theta_r=1)
F4_ID = FiniteField(2, 2, [1, 1, 1], theta_r=0)
CODE = make_code(F4, EXAMPLE_TABLE)
RIGHT_CODE = SkewTrellisCode(CODE.generator)
TRELLIS = build_trellis(CODE)
SF = syndrome_former(CODE)
POLY = SkewPoly(F4, [1, 2])
CHANNEL = QSChannel(4, 0.1)

# each public call with one argument left open, by what the argument is
CALLS = {
    "free_distance-ell_max": lambda x: TRELLIS.free_distance(ell_max=x),
    "free_distance-lmax": lambda x: TRELLIS.free_distance(lmax=x),
    "active_burst_distance-ell": lambda x: TRELLIS.active_burst_distance(x),
    "edge-section": lambda x: TRELLIS.edge(x, 0, 0),
    "export_dot-sections": lambda x: export_dot(TRELLIS, x),
    "scalar_generator-t_rows": lambda x: CODE.scalar_generator(x),
    "time_coefficient-t": lambda x: CODE.time_coefficient(x, 0),
    "time_coefficient-delay": lambda x: CODE.time_coefficient(0, x),
    "ht_window-t_rows": lambda x: SF.ht_window(x),
    "h_window-t_cols": lambda x: SF.h_window(x),
    "SkewPoly.coefficient": lambda x: POLY.coefficient(x),
    "SkewPolyMatrix.coefficient_values": lambda x: CODE.generator.coefficient_values(x),
    "SyndromeFormer.coefficient_values": lambda x: SF.coefficient_values(x),
    "syndrome_former-mu_perp_max": lambda x: syndrome_former(CODE, mu_perp_max=x),
    "verify_duality-length": lambda x: verify_duality(CODE, SF, length=x),
    "verify_duality-num_words": lambda x: verify_duality(CODE, SF, num_words=x),
    "analyze_code-lmax": lambda x: analyze_code(CODE, lmax=x, trellis=TRELLIS),
    "linearity_report-witness_len": lambda x: linearity_report(RIGHT_CODE, witness_len=x),
    "run_simulation-eps": lambda x: run_simulation(CODE, x, 4, 4, trellis=TRELLIS),
    "run_simulation-trials": lambda x: run_simulation(CODE, 0.1, x, 4, trellis=TRELLIS),
    "run_simulation-frame_len": lambda x: run_simulation(CODE, 0.1, 4, x, trellis=TRELLIS),
    "run_simulation-seed": lambda x: run_simulation(CODE, 0.1, 4, 4, seed=x, trellis=TRELLIS),
    "QSChannel-q": lambda x: QSChannel(x, 0.1),
    "QSChannel-eps": lambda x: QSChannel(4, x),
    "draw_errors-count": lambda x: CHANNEL.draw_errors(random.Random(0), x),
    "unpack_digits-base": lambda x: unpack_digits(5, x, 3),
    "unpack_digits-count": lambda x: unpack_digits(5, 2, x),
}

# the budgeted jobs that take no count, each with the budget it is counted
# against cut small, where the real one is costly to reach
JOBS = {
    "build_trellis": (build_trellis, trellis_module, "EDGE_BUDGET", 31),
    "bcjr": (lambda x: bcjr(TRELLIS, x, CHANNEL), trellis_module, "EDGE_BUDGET", 47),
    "viterbi": (lambda x: viterbi(TRELLIS, x), trellis_module, "SURVIVOR_BUDGET", 11),
    "SkewConvCode": (SkewConvCode, code_module, "RANK_WINDOW_BUDGET", 11),
    "syndrome_former": (syndrome_former, dual_module, "RANK_WINDOW_BUDGET", 3),
}
# rank(G_0) = 0 < 1: the rank check's window of 2 block rows has 2 x 3 x 2 entries
DEFICIENT = SkewPolyMatrix.from_ints(F4, [[[0, 1], [0, 1]]])
# one past the loop scans and the DOT export the worked trellis, 4 states x 4 inputs, fits
STEPS, SECTIONS = SURVIVOR_BUDGET // 4 + 1, EDGE_BUDGET // 16 + 1


@contextlib.contextmanager
def deadline(seconds, message):
    """Raise TimeoutError(message) if the block runs past `seconds`."""
    def hung(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def refused_in_one_line(call, value):
    """The message of the ValueError that call(value) raises; it must have
    no newline."""
    with pytest.raises(ValueError) as err:
        call(value)
    message = str(err.value)
    assert message and "\n" not in message, message
    return message


# the calls whose argument defaults to None, which stays their default
NONE_IS_DEFAULT = {"free_distance-ell_max", "syndrome_former-mu_perp_max", "analyze_code-lmax"}


@pytest.mark.parametrize("value", [2.5, "3", None], ids=["float", "str", "None"])
@pytest.mark.parametrize("name", CALLS)
def test_a_non_integer_argument_is_refused_in_one_line(name, value):
    if value is None and name in NONE_IS_DEFAULT:
        CALLS[name](value)
    else:
        refused_in_one_line(CALLS[name], value)


@pytest.mark.parametrize("name", CALLS)
def test_every_call_takes_a_valid_argument(name):
    # the worked code has memory 1, and so does its dual
    CALLS[name]({"time_coefficient-delay": 1}.get(name, 0.05 if name.endswith("-eps") else 2))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("QSChannel-q", 4.5, "q must be an integer >= 2, got 4.5"),
        ("QSChannel-q", 1, "q must be an integer >= 2, got 1"),
        ("QSChannel-eps", "0.1", "eps must be a real number, got '0.1'"),
        ("QSChannel-eps", None, "eps must be a real number, got None"),
        ("run_simulation-eps", "0.1", "eps must be a real number, got '0.1'"),
        ("run_simulation-trials", 2.5, "trials must be an integer >= 1, got 2.5"),
        ("run_simulation-frame_len", 0, "frame_len must be an integer >= 1, got 0"),
        ("run_simulation-seed", "3", "seed must be an integer, got '3'"),
        ("edge-section", 2.5, "section must be an integer, got 2.5"),
        ("free_distance-ell_max", 2.5, "ell_max must be an integer, got 2.5"),
        ("syndrome_former-mu_perp_max", 2.5, "mu_perp_max must be an integer, got 2.5"),
        ("verify_duality-length", 2.5, "length must be an integer, got 2.5"),
        ("draw_errors-count", -1, "count must be an integer >= 0, got -1"),
        ("analyze_code-lmax", 1, "lmax must be an integer >= 2, got 1"),
        ("export_dot-sections", 0, "sections must be an integer >= 1, got 0"),
        ("time_coefficient-delay", 2, "delay 2 outside [0, 1]"),
        ("unpack_digits-count", 2.5, "count must be an integer >= 0, got 2.5"),
        ("unpack_digits-base", 0, "base must be an integer >= 2, got 0"),
        # each budgeted job, just over its budget
        (
            "linearity_report-witness_len",
            EDGE_BUDGET // 2,
            f"a witness word has {EDGE_BUDGET + 2} symbols, over the budget of {EDGE_BUDGET}",
        ),
        (
            "build_trellis",
            CODE,
            "a trellis of 2 section(s) x 4^1 states x 4^1 inputs has 32 edges, over the budget "
            "of 31",
        ),
        (
            "export_dot-sections",
            SECTIONS,
            f"a trellis of {SECTIONS} section(s) x 4^1 states x 4^1 inputs has {16 * SECTIONS} "
            f"edges, over the budget of {EDGE_BUDGET}",
        ),
        (
            "bcjr",
            [[0, 0]] * 3,
            "a BCJR word of 3 blocks x 4 states x 4 inputs has 48 edges, over the budget of 47",
        ),
        (
            "viterbi",
            [[0, 0]] * 3,
            "Viterbi on 1 frame(s) of 3 blocks x 4 states has 12 survivor entries, over the "
            "budget of 11",
        ),
        *(
            (
                name,
                STEPS,
                f"a loop scan of {STEPS} steps x 4 states has {4 * STEPS} survivor entries, over "
                f"the budget of {SURVIVOR_BUDGET}",
            )
            for name in [
                "free_distance-ell_max",
                "free_distance-lmax",
                "active_burst_distance-ell",
                "analyze_code-lmax",
            ]
        ),
        (
            "scalar_generator-t_rows",
            1448,
            f"a window has {1448 * 1449 * 2} entries, over the budget of {EDGE_BUDGET}",
        ),
        (
            "verify_duality-length",
            10**9,
            f"a window has {(10**9 - 1) * 10**9 * 2} entries, over the budget of {EDGE_BUDGET}",
        ),
        (
            "verify_duality-num_words",
            10**9,
            "a duality check of 1000000000 codeword(s) of 8 blocks x 2 symbols has 16000000000 "
            f"symbols, over the budget of {EDGE_BUDGET}",
        ),
        (
            "draw_errors-count",
            10**9,
            f"a channel draw has 1000000000 symbols, over the budget of {EDGE_BUDGET}",
        ),
        (
            "unpack_digits-count",
            10**9,
            f"a digit list has 1000000000 digits, over the budget of {EDGE_BUDGET}",
        ),
        (
            "SkewConvCode",
            DEFICIENT,
            "rank(G_0) < k and the rank check's scalar window has 12 entries, over the budget "
            "of 11",
        ),
        (
            "syndrome_former",
            CODE,
            "the syndrome former's system for dual memory 0 has 4 entries, over the budget of 3",
        ),
    ],
)
def test_the_messages(name, value, message, monkeypatch):
    call = CALLS.get(name)
    if call is None:
        call, module, budget, small = JOBS[name]
        monkeypatch.setattr(module, budget, small)
    tracemalloc.start()
    try:
        with deadline(5, f"{name}({value!r}) was not refused before any work"):
            got = refused_in_one_line(call, value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == message
    assert peak < 1 << 20, f"{name}({value!r}) peaked at {peak} bytes"


def budget_raises(path):
    """(module, function) of each raise in the module at path whose text
    names a budget."""
    text = path.read_text()
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and "budget" in ast.get_source_segment(text, child):
                found.append((path.stem, function))
            visit(child, function)

    visit(ast.parse(text), None)
    return found


def test_every_budget_refusal_is_raised_by_within():
    modules = sorted(Path(code_module.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    assert [raised for path in modules for raised in budget_raises(path)] == [("field", "_within")]


def test_the_run_simulation_bound_on_eps_follows_the_channel_check():
    # in [0, 1) but not below (q - 1) / q: the simulation's own bound
    message = refused_in_one_line(CALLS["run_simulation-eps"], 0.9)
    assert message == "eps must lie in [0, 0.75) for a 4-ary channel"
    assert refused_in_one_line(CALLS["run_simulation-eps"], 1.5) == "eps=1.5 outside [0, 1)"


def test_the_edge_ids_are_checked_before_the_section():
    with pytest.raises(ValueError, match="^state 2.5 is not an integer$"):
        TRELLIS.edge(2.5, 2.5, 0)
    with pytest.raises(ValueError, match=r"^input 9 is out of range 0\.\.3$"):
        TRELLIS.edge(None, 0, 9)


@pytest.mark.parametrize(
    "call", [CODE.scalar_generator, SF.ht_window, SF.h_window], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("t_rows", [10**6, 1448])
def test_a_window_over_the_edge_budget_is_refused_before_it_is_built(call, t_rows):
    # the worked code's windows, and its dual's, hold t_rows x (t_rows + 1)
    # x 2 entries: 1447 block rows stay within the budget, 1448 do not
    assert 1447 * 1448 * 2 <= EDGE_BUDGET
    entries = t_rows * (t_rows + 1) * 2
    with deadline(5, "the refusal allocated the window"):
        message = refused_in_one_line(call, t_rows)
    assert message == f"a window has {entries} entries, over the budget of {EDGE_BUDGET}"


@pytest.mark.parametrize("length", [0, -3, CODE.memory])
def test_a_duality_length_at_or_below_the_memory_is_raised_to_memory_plus_one(length):
    # the same draws as memory + 1 blocks: the generators end in one state
    rng, want_rng = random.Random(4), random.Random(4)
    assert verify_duality(CODE, SF, length=length, rng=rng)
    assert verify_duality(CODE, SF, length=CODE.memory + 1, rng=want_rng)
    assert rng.getstate() == want_rng.getstate()
    assert rng.getstate() != random.Random(4).getstate()


@pytest.mark.parametrize(
    "build, table, message",
    [
        (SkewPolyMatrix, [[1]], "entries must be SkewPoly"),
        (SkewPolyMatrix, [1], "matrix must be a list of rows"),
        (
            lambda table: SkewPolyMatrix.from_ints(F4, table),
            [[[1], 2]],
            "each entry must be a list of coefficients",
        ),
    ],
    ids=["entry-not-a-poly", "row-not-a-list", "from_ints-entry-not-a-list"],
)
def test_a_malformed_matrix_is_refused_before_an_entry_is_read(build, table, message):
    assert refused_in_one_line(build, table) == message


# the calls that read a sequence, by what the sequence is
SEQUENCE_CALLS = {
    "SkewPoly": (lambda x: SkewPoly(F4, x), "coefficients"),
    "Sequence": (lambda x: Sequence(F4, x), "blocks"),
    "encode": (lambda x: CODE.encode(x), "blocks"),
    "viterbi": (lambda x: viterbi(TRELLIS, x), "blocks"),
    "bcjr": (lambda x: bcjr(TRELLIS, x, CHANNEL), "blocks"),
}


@pytest.mark.parametrize("value", [5, None], ids=["int", "None"])
@pytest.mark.parametrize("name", SEQUENCE_CALLS)
def test_a_value_that_is_not_a_sequence_is_refused_in_one_line(name, value):
    call, what = SEQUENCE_CALLS[name]
    message = refused_in_one_line(call, value)
    assert message == f"{what} must be a sequence, got {type(value).__name__}"


def test_a_block_that_is_not_a_sequence_is_refused_in_one_line():
    # an integer block is a block of one symbol
    message = refused_in_one_line(lambda x: Sequence(F4, [[1], x]), None)
    assert message == "block 1 must be a sequence, got NoneType"


def test_the_channel_transmits_a_sequence_of_its_alphabet_only():
    # refused before any draw
    rng = random.Random(2)
    state = rng.getstate()
    message = refused_in_one_line(lambda x: CHANNEL.transmit(x, rng), [[1, 2]])
    assert message == "the channel transmits a Sequence, got list"
    message = refused_in_one_line(lambda x: QSChannel(16, 0.1).transmit(x, rng), CODE.encode([[1]]))
    assert message == "channel alphabet does not match the sequence's field"
    assert rng.getstate() == state


MIXED = {
    "FieldElement": lambda: F4(1) + F4_ID(1),
    "symbol": lambda: Sequence(F4, [[F4_ID(1)]]),
    "Sequence.__add__": lambda: Sequence(F4, [[1]]) + Sequence(F4_ID, [[1]]),
    "coerce_sequence": lambda: coerce_sequence(F4, Sequence(F4_ID, [[1, 0]]), 2),
    "SyndromeFormer": lambda: SyndromeFormer(
        CODE, SkewPolyMatrix.from_ints(F4_ID, [[[1], [1]]]), validate=False
    ),
    "SkewPoly": lambda: POLY + SkewPoly(F4_ID, [1]),
    "SkewPolyMatrix": lambda: SkewPolyMatrix([[POLY, SkewPoly(F4_ID, [1])]]),
    "SkewPolyMatrix.__matmul__": lambda: (
        SkewPolyMatrix.from_ints(F4, [[[1]]]) @ SkewPolyMatrix.from_ints(F4_ID, [[[1]]])
    ),
}


@pytest.mark.parametrize("name", MIXED)
def test_mixed_field_operands_are_refused(name):
    with pytest.raises(ValueError, match="^mixed-field operands$"):
        MIXED[name]()


# the fuzzed arguments: small integers, floats with nan and the infinities,
# short text, None and the bools
ARGUMENTS = st.one_of(
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CALLS)), value=ARGUMENTS)
def test_every_argument_works_or_is_refused_in_one_line(name, value):
    with deadline(10, f"{name}({value!r}) did not finish"):
        try:
            CALLS[name](value)
        except SyndromeFormerNotFound:
            # the search's answer, not a refusal: no dual within the cap
            assert name == "syndrome_former-mu_perp_max"
        except ValueError as exc:
            assert str(exc) and "\n" not in str(exc), str(exc)

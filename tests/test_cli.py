import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import skewconv
from skewconv.cli import main

from conftest import A, A2, with_leaf

EXAMPLE_DOC = {
    "field": {"p": 2, "n": 2, "modulus": [1, 1, 1], "theta_r": 1},
    "k": 1,
    "n": 2,
    "module_side": "left",
    "G": [[[1, A], [A, A2]]],
}


@pytest.fixture()
def code_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE_DOC))
    return str(path)


@pytest.fixture()
def id_code_file(tmp_path):
    doc = dict(EXAMPLE_DOC, field=dict(EXAMPLE_DOC["field"], theta_r=0))
    path = tmp_path / "example_id.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_seq(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_schema(name):
    import importlib.resources as res

    return json.loads(res.files("skewconv").joinpath(f"schemas/{name}").read_text())


# -- encode --------------------------------------------------------------------


def test_encode_worked_example(capsys, code_file, tmp_path):
    u = write_seq(tmp_path, "u.txt", "1\n0\n0\n1\n")
    rc, out, _ = run_cli(capsys, "encode", code_file, u, "--terminate")
    assert rc == 0
    assert out == "1 2\n2 3\n0 0\n1 3\n3 2\n"


def test_encode_empty_input(capsys, code_file, tmp_path):
    u = write_seq(tmp_path, "u.txt", "")
    rc, out, _ = run_cli(capsys, "encode", code_file, u)
    assert rc == 0 and out == ""


def test_encode_pretty(capsys, code_file, tmp_path):
    u = write_seq(tmp_path, "u.txt", "1\n0\n")
    rc, out, _ = run_cli(capsys, "encode", code_file, u, "--terminate", "--pretty")
    assert rc == 0
    assert out == "1 a\na a^2\n0 0\n"


def test_encode_matches_library(capsys, code_file, tmp_path, example_code):
    from skewconv import format_sequence

    u = write_seq(tmp_path, "u.txt", "3\n1\n2\n")
    rc, out, _ = run_cli(capsys, "encode", code_file, u, "--terminate")
    assert rc == 0
    assert out == format_sequence(example_code.encode([[3], [1], [2]], terminate=True))


# -- decode --------------------------------------------------------------------


def test_encode_decode_round_trip(capsys, code_file, tmp_path):
    u = write_seq(tmp_path, "u.txt", "1\n3\n0\n2\n")
    rc, out, _ = run_cli(capsys, "encode", code_file, u, "--terminate")
    v = write_seq(tmp_path, "v.txt", out)
    rc, decoded, _ = run_cli(capsys, "decode", code_file, v, "--terminate")
    assert rc == 0
    assert decoded == "1\n3\n0\n2\n"


def test_decode_bcjr_route(capsys, code_file, tmp_path):
    u = write_seq(tmp_path, "u.txt", "2\n0\n1\n")
    rc, out, _ = run_cli(capsys, "encode", code_file, u, "--terminate")
    v = write_seq(tmp_path, "v.txt", out)
    rc, decoded, _ = run_cli(
        capsys, "decode", code_file, v, "--terminate", "--method", "bcjr", "--eps", "0.1"
    )
    assert rc == 0 and decoded == "2\n0\n1\n"


def test_decode_bcjr_requires_eps(capsys, code_file, tmp_path):
    v = write_seq(tmp_path, "v.txt", "1 2\n")
    rc, _, err = run_cli(capsys, "decode", code_file, v, "--method", "bcjr")
    assert rc == 1 and "--eps" in err


# -- analyze --------------------------------------------------------------------


def test_analyze_example(capsys, code_file):
    rc, out, _ = run_cli(capsys, "analyze", code_file, "--lmax", "10")
    assert rc == 0
    report = json.loads(out)
    assert report["tau"] == 2
    assert report["d_free"] == 4
    assert report["slope"] == 1
    assert report["catastrophic"] is False
    assert report["d_burst"] == [ell + 2 for ell in range(2, 11)]
    assert report["bounds"] == {"d_free_unit_memory": 4, "slope": 1}
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, load_schema("analyze_report.schema.json"))


def test_analyze_identity_twist(capsys, id_code_file):
    rc, out, _ = run_cli(capsys, "analyze", id_code_file, "--lmax", "6")
    assert rc == 0
    report = json.loads(out)
    assert report["tau"] == 1
    assert report["d_free"] == 2
    assert report["slope"] == 0
    assert report["catastrophic"] is True


# -- dual -----------------------------------------------------------------------


def test_dual_output(capsys, code_file):
    rc, out, _ = run_cli(capsys, "dual", code_file)
    assert rc == 0
    doc = json.loads(out)
    assert doc["mu_perp"] == 1
    assert doc["H"] == [[[1, A], [A2, A2]]]
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, load_schema("dual_output.schema.json"))


def test_dual_not_found_exit_code(capsys, code_file):
    rc, _, err = run_cli(capsys, "dual", code_file, "--mu-perp-max", "0")
    assert rc == 2
    assert "syndrome former" in err


def test_dual_rejects_negative_cap(capsys, code_file):
    rc, out, err = run_cli(capsys, "dual", code_file, "--mu-perp-max", "-1")
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "mu_perp_max must be >= 0" in err


def test_dual_refuses_a_search_over_the_budget(capsys, code_file, tmp_path):
    # memory 300: no former up to dual memory 240, and the system of dual
    # memory 241 is over the 2^18-entry budget
    g = [1] + [0] * 299
    path = tmp_path / "m300.json"
    path.write_text(json.dumps(dict(EXAMPLE_DOC, G=[[g + [1], g + [A]]])))
    rc, out, err = run_cli(capsys, "dual", str(path), "--mu-perp-max", "1000000")
    assert rc == 1 and out == ""
    assert err.count("\n") == 1
    assert "dual memory 241 has 262328 entries, over the budget of 262144" in err
    # a huge cap on a code of dual memory 1 is searched no further
    rc, out, _ = run_cli(capsys, "dual", code_file, "--mu-perp-max", "1000000000")
    assert rc == 0 and json.loads(out)["mu_perp"] == 1


def test_dual_accepts_code_flag(capsys, code_file):
    rc_pos, out_pos, _ = run_cli(capsys, "dual", code_file)
    rc_flag, out_flag, _ = run_cli(capsys, "dual", "--code", code_file)
    assert rc_pos == rc_flag == 0
    assert out_pos == out_flag
    rc, _, err = run_cli(capsys, "dual")
    assert rc == 1 and "required" in err


def test_distance_alias(capsys, code_file):
    rc1, out1, _ = run_cli(capsys, "analyze", code_file, "--lmax", "4")
    rc2, out2, _ = run_cli(capsys, "distance", code_file, "--lmax", "4")
    assert rc1 == rc2 == 0 and out1 == out2


def test_analyze_right_module_code(capsys, tmp_path):
    doc = dict(EXAMPLE_DOC, module_side="right")
    path = tmp_path / "right.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli(capsys, "analyze", str(path))
    assert rc == 0
    report = json.loads(out)
    assert report["tau"] == 1  # right-module trellises are time-invariant


# -- trellis ----------------------------------------------------------------------


def test_trellis_dot(capsys, code_file, tmp_path):
    rc, out, _ = run_cli(capsys, "trellis", code_file, "--sections", "2")
    assert rc == 0
    assert out.startswith("digraph") and out.count("->") == 2 * 4 * 4
    target = tmp_path / "t.dot"
    rc, piped, _ = run_cli(capsys, "trellis", code_file, "--sections", "2", "--out", str(target))
    assert rc == 0 and piped == ""
    assert target.read_text() == out


# -- simulate ----------------------------------------------------------------------


def test_simulate_noiseless(capsys, code_file):
    rc, out, _ = run_cli(
        capsys, "simulate", code_file, "--eps", "0", "--trials", "50", "--frame-len", "5"
    )
    assert rc == 0
    report = json.loads(out)
    assert report["ber"] == 0 and report["fer"] == 0
    assert report["symbol_errors_in"] == 0
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, load_schema("sim_report.schema.json"))


def test_simulate_deterministic(capsys, code_file):
    args = ("simulate", code_file, "--eps", "0.05", "--trials", "120", "--seed", "9")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_simulate_rejects_bad_eps(capsys, code_file):
    rc, _, err = run_cli(capsys, "simulate", code_file, "--eps", "0.9")
    assert rc == 1 and "eps" in err


# -- errors and plumbing -------------------------------------------------------------


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "analyze", str(bad))
    assert rc == 1 and "error" in err


def test_missing_file_exit_code(capsys):
    rc, _, err = run_cli(capsys, "analyze", "/nonexistent/code.json")
    assert rc == 1


def test_module_entry_point(code_file, tmp_path):
    u = tmp_path / "u.txt"
    u.write_text("1\n")
    # the subprocess imports the same skewconv as this test, installed or not
    package_dir = str(Path(skewconv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "skewconv", "encode", code_file, str(u), "--terminate"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 2\n2 3\n"


def test_dual_rejects_right_module_code(capsys, tmp_path):
    path = tmp_path / "right.json"
    path.write_text(json.dumps(dict(EXAMPLE_DOC, module_side="right")))
    rc, out, err = run_cli(capsys, "dual", str(path))
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "left-module" in err


@contextlib.contextmanager
def time_limit(seconds):
    def hung(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_simulate_rejects_an_over_budget_frame_at_once(capsys, code_file):
    with time_limit(10):
        rc, out, err = run_cli(
            capsys, "simulate", code_file, "--eps", "0.1", "--trials", "1",
            "--frame-len", "100000000",
        )
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_decode_rejects_an_over_budget_word(capsys, tmp_path):
    # GF(16), memory 2: 256 states, so 65536 blocks fill the survivor budget
    doc = {
        "field": {"p": 2, "n": 4, "modulus": [1, 1, 0, 0, 1], "theta_r": 1},
        "k": 1,
        "n": 2,
        "module_side": "left",
        "G": [[[9, 3, 14], [9, 14, 13]]],
    }
    path = tmp_path / "gf16.json"
    path.write_text(json.dumps(doc))
    received = write_seq(tmp_path, "r.txt", "0 0\n" * 65537)
    with time_limit(20):
        rc, out, err = run_cli(capsys, "decode", str(path), received)
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_bcjr_rejects_an_over_budget_word_at_once(capsys, tmp_path):
    # 1100 blocks x 256 states x 16 inputs is over the 2^22 edge budget
    spec = Path(__file__).resolve().parents[1] / "perfbench" / "suite" / "gf16_m2.json"
    received = write_seq(tmp_path, "r.txt", "0 0\n" * 1100)
    with time_limit(10):
        rc, out, err = run_cli(
            capsys, "decode", str(spec), received, "--method", "bcjr", "--eps", "0.05"
        )
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_analyze_rejects_an_over_budget_trellis_at_once(capsys, tmp_path):
    # GF(256), memory 3: 2^24 states x 256 inputs x 8 sections
    doc = {
        "field": {"p": 2, "n": 8, "theta_r": 1},
        "k": 1,
        "n": 2,
        "module_side": "left",
        "G": [[[1, 2, 3, 5], [7, 11, 13, 17]]],
    }
    path = tmp_path / "gf256_m3.json"
    path.write_text(json.dumps(doc))
    with time_limit(10):
        rc, out, err = run_cli(capsys, "analyze", str(path))
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_analyze_rejects_an_over_budget_lmax_at_once(capsys, code_file):
    # the worked code has 4 states: 10^8 loop steps hold 4 x 10^8 parent entries
    with time_limit(10):
        rc, out, err = run_cli(capsys, "analyze", code_file, "--lmax", "100000000")
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_trellis_rejects_an_over_budget_export_at_once(capsys, code_file, tmp_path):
    target = tmp_path / "t.dot"
    with time_limit(10):
        rc, out, err = run_cli(
            capsys, "trellis", code_file, "--sections", "100000000", "--out", str(target)
        )
    assert rc == 1 and out == "" and not target.exists()
    assert err.count("\n") == 1 and "budget" in err


def memory_200_doc(g0):
    # GF(4), theta = a^2: 2 x 201 block rows of 602 block columns
    rest = [[(3 * i + j) % 4 for i in range(1, 200)] + [1 + j] for j in range(2)]
    return dict(EXAMPLE_DOC, G=[[[g0[j]] + rest[j] for j in range(2)]])


def test_a_long_memory_spec_with_full_rank_g0_loads_at_once(capsys, tmp_path):
    path = tmp_path / "m200.json"
    path.write_text(json.dumps(memory_200_doc([1, 1])))
    with time_limit(10):
        rc, out, err = run_cli(capsys, "dual", str(path), "--mu-perp-max", "0")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "syndrome former" in err


def test_a_rank_check_over_budget_exits_at_once(capsys, tmp_path):
    path = tmp_path / "m200.json"
    path.write_text(json.dumps(memory_200_doc([0, 0])))
    with time_limit(10):
        rc, out, err = run_cli(capsys, "analyze", str(path))
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "budget" in err and "rank(G_0) < k" in err


# -- every leaf of a spec replaced by a value of another JSON type ---------------


def leaf_paths(node, path=()):
    """The paths to the leaves of a JSON document, in document order."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in leaf_paths(value, (*path, key))]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node) for leaf in leaf_paths(value, (*path, i))]
    return [path]


LEAF_VALUES = ["null", "true", '"2"', "2.5", "Infinity", "[]", "{}"]


@pytest.mark.parametrize("text", LEAF_VALUES)
@pytest.mark.parametrize(
    "path", leaf_paths(EXAMPLE_DOC), ids=lambda path: ".".join(map(str, path))
)
def test_a_spec_leaf_of_any_json_type_exits_in_one_line(capsys, tmp_path, path, text):
    spec = tmp_path / "spec.json"
    spec.write_text(with_leaf(EXAMPLE_DOC, path, text))
    for command in ("analyze", "dual"):
        with time_limit(10):
            rc, out, err = run_cli(capsys, command, str(spec))
        assert rc in (0, 1, 2), command
        assert err.count("\n") <= 1 and "Traceback" not in err, command
        assert (out == "") == (rc != 0), command


def test_the_leaf_sweep_covers_valid_and_refused_specs(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    cases = {
        (("field", "modulus"), "null"): 0,
        (("field", "theta_r"), "true"): 0,
        (("field", "p"), "Infinity"): 1,
        (("n",), "Infinity"): 1,
        (("module_side",), "[]"): 1,
        (("module_side",), "{}"): 1,
    }
    assert len(leaf_paths(EXAMPLE_DOC)) == 13
    for (path, text), want in cases.items():
        spec.write_text(with_leaf(EXAMPLE_DOC, path, text))
        rc, _, err = run_cli(capsys, "analyze", str(spec))
        assert rc == want, (path, text, err)


# -- fuzzing encode and decode -------------------------------------------------


@pytest.fixture(scope="module")
def side_files(tmp_path_factory):
    """The worked code as a left- and a right-module spec, and a file for
    the sequence text."""
    folder = tmp_path_factory.mktemp("fuzz")
    specs = []
    for side in ("left", "right"):
        path = folder / f"{side}.json"
        path.write_text(json.dumps(dict(EXAMPLE_DOC, module_side=side)))
        specs.append(str(path))
    return specs, folder / "word.txt"


# sequence text of symbols, separators and stray marks, or any short text
SEQUENCE_TEXT = st.one_of(
    st.text(alphabet="0123 \n\t-.a^x,#49e", max_size=30), st.text(max_size=20)
)
EPS_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.1, 0.0, 0.05, 0.75, 1.0]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["encode", "decode"]),
    side=st.integers(0, 1),
    text=SEQUENCE_TEXT,
    terminate=st.booleans(),
    method=st.sampled_from([None, "viterbi", "bcjr"]),
    eps=st.one_of(st.none(), EPS_VALUES),
    joined=st.booleans(),
)
def test_encode_and_decode_exit_in_one_line_on_any_input(
    side_files, command, side, text, terminate, method, eps, joined
):
    # "--eps -inf" reads -inf as a flag, "--eps=-inf" as the value
    specs, word = side_files
    word.write_text(text, encoding="utf-8")
    argv = [command, specs[side], str(word)] + ["--terminate"] * terminate
    if command == "decode":
        argv += ["--method", method] if method else []
        if eps is not None:
            argv += [f"--eps={eps!r}"] if joined else ["--eps", repr(eps)]
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), (argv, text)
    assert err.getvalue().count("\n") <= 1, (argv, text, err.getvalue())
    assert (out.getvalue() == "" or rc == 0) and (err.getvalue() == "") == (rc == 0), (argv, text)

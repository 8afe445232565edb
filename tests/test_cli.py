import json
import subprocess
import sys

import pytest

from skewconv.cli import main

from conftest import A, A2

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
    proc = subprocess.run(
        [sys.executable, "-m", "skewconv", "encode", code_file, str(u), "--terminate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 2\n2 3\n"


def test_dual_rejects_right_module_code(capsys, tmp_path):
    path = tmp_path / "right.json"
    path.write_text(json.dumps(dict(EXAMPLE_DOC, module_side="right")))
    rc, out, err = run_cli(capsys, "dual", str(path))
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "left-module" in err

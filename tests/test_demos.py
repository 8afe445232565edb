"""Every demo runs and prints exactly what it printed when its digest was
recorded: the SHA-256 of its stdout, one per demo in DIGESTS.  All seven
demos print the same bytes on every run, so each is pinned.

    PYTHONPATH=src python tests/test_demos.py

prints the digests of the current code; paste them here only when a demo's
output is meant to change, and say why in the change.
"""

import hashlib
import io
import pathlib
import runpy
from contextlib import redirect_stdout

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DIGESTS = {
    "01_finite_fields_and_skew_polynomials.py": "494e245fdf9441346966e94be0d05b19f926d4b08326b1eae48f2527a73fd51d",
    "02_encoding_a_skew_convolutional_code.py": "a3f92fddc5956687c78472186f5cae9827385d183426795682fbb08b22193260",
    "03_trellis_distances_and_catastrophicity.py": "f309c4734d80dede5e8d31fef6930b7966670f75ffa9f51d0279e7efa037bc69",
    "04_viterbi_and_bcjr_decoding.py": "0a372560db174cbf07150ebb727f1f4c0b08393bcd9282919343a5694d9bcdfe",
    "05_dual_code_syndrome_former.py": "262d85828e26d90190160202089e0a90d6e9276fe65faaa728409db2f0c39691",
    "06_right_module_trellis_codes.py": "cd1d90378137c5737e26a0f736fb0ae32da48cd6986d92818e410b14b5633b8b",
    "07_error_rate_simulation.py": "c1236d0776fa93ea7fcf735f83dd4f9f89950b9d4d91e26725b00d83e5b56a89",
}


def _stdout(script):
    buf = io.StringIO()
    with redirect_stdout(buf):
        runpy.run_path(str(script), run_name="__main__")
    return buf.getvalue()


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    out = _stdout(script)
    assert out.strip()
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[script.name]


if __name__ == "__main__":
    for script in sorted(DEMO_DIR.glob("*.py")):
        print(f'    "{script.name}": "{hashlib.sha256(_stdout(script).encode()).hexdigest()}",')

"""Golden CLI outputs: the SHA-256 of the exit code and stdout of every
subcommand on the six benchmark suite specs, from `cli_golden.json`.

Each case names a suite spec, the arguments after it and, for `encode` and
`decode`, the input word the fixture holds as text.  Any byte of drift in
what the CLI prints, or in its exit code, fails the case.

The fixture is made from seeded input words by

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites `cli_golden.json` from the current code; run it only when an
output is meant to change, and say why in the change.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from skewconv.cli import main

HERE = Path(__file__).resolve().parent
SUITE = HERE.parent / "perfbench" / "suite"
FIXTURE = HERE / "cli_golden.json"
SPECS = ("gf16_m2", "gf4_worked", "gf4_worked_id", "gf9_31_m3", "gf9_32_m1", "gf9_right_m2")


def _digest(rc, out):
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def _run(spec, args, text, tmp_path):
    argv = [args[0], str(SUITE / f"{spec}.json")]
    if text is not None:
        word = tmp_path / "word.txt"
        word.write_text(text)
        argv.append(str(word))
    argv += args[1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return _digest(rc, out.getvalue())


def _cases():
    """The cases without digests: seeded information words, and received
    words made by encoding one and changing a few symbols."""
    from skewconv import Sequence
    from skewconv.codespec import format_sequence, load_code

    rng = random.Random(20)
    cases = []
    for spec in SPECS:
        code = load_code(SUITE / f"{spec}.json")
        q, k, n = code.field.size, code.k, code.n
        info = [[rng.randrange(q) for _ in range(k)] for _ in range(6)]
        info_text = "".join(" ".join(map(str, b)) + "\n" for b in info)
        for flags in ([], ["--terminate"], ["--pretty"]):
            cases.append({"spec": spec, "args": ["encode", *flags], "input": info_text})
        for terminate in (False, True):
            sent = [list(b) for b in code.encode(info, terminate=terminate).to_ints()]
            for _ in range(2):
                t, i = rng.randrange(len(sent)), rng.randrange(n)
                sent[t][i] = (sent[t][i] + 1 + rng.randrange(q - 1)) % q
            received = format_sequence(Sequence(code.field, sent, width=n))
            tail = ["--terminate"] if terminate else []
            cases.append({"spec": spec, "args": ["decode", *tail], "input": received})
            cases.append(
                {"spec": spec, "args": ["decode", "--method", "bcjr", "--eps", "0.1", *tail],
                 "input": received}
            )
        cases.append({"spec": spec, "args": ["analyze"], "input": None})
        cases.append({"spec": spec, "args": ["dual"], "input": None})
        cases.append(
            {"spec": spec, "args": ["simulate", "--eps", "0.05", "--trials", "200", "--seed", "3"],
             "input": None}
        )
        cases.append({"spec": spec, "args": ["trellis", "--sections", "2"], "input": None})
    return cases


def _load():
    return json.loads(FIXTURE.read_text())


# an absent fixture parametrizes nothing here and fails the coverage test
@pytest.mark.parametrize(
    "case", _load() if FIXTURE.exists() else [], ids=lambda c: f"{c['spec']}-{'-'.join(a.lstrip('-') for a in c['args'])}"
)
def test_cli_output_is_unchanged(case, tmp_path):
    assert _run(case["spec"], case["args"], case["input"], tmp_path) == case["sha256"]


def test_fixture_covers_every_subcommand_on_every_suite_spec():
    cases = _load()
    assert {c["spec"] for c in cases} == set(SPECS)
    for spec in SPECS:
        commands = {c["args"][0] for c in cases if c["spec"] == spec}
        assert commands == {"encode", "decode", "analyze", "dual", "simulate", "trellis"}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = _cases()
        for case in cases:
            case["sha256"] = _run(case["spec"], case["args"], case["input"], Path(tmp))
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}", file=sys.stderr)

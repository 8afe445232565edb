"""The output oracle of the benchmark's analyze-suite workload,
`perfbench/suite/expected.json`: every committed `analyze` report and
linearity report is what `analyze_code` and `linearity_report` give on the
committed spec.  The committed duals are checked in `test_dual.py`.  The
file is only read."""

import json
from pathlib import Path

import pytest

from skewconv import analyze_code, linearity_report, load_code

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite"
EXPECTED = json.loads((SUITE / "expected.json").read_text(encoding="utf-8"))["analyze"]
LINEARITY = sorted(name for name, entry in EXPECTED.items() if "linearity" in entry)


def plain(obj):
    """The JSON form of obj, so tuples compare equal to committed lists."""
    return json.loads(json.dumps(obj))


def test_every_suite_spec_has_a_committed_report():
    specs = {p.stem for p in SUITE.glob("*.json") if p.stem != "expected"}
    assert specs == set(EXPECTED)
    right = {name for name in specs if load_code(SUITE / f"{name}.json").module_side == "right"}
    assert right == set(LINEARITY) != set()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_analyze_reproduces_the_committed_report(name):
    report = analyze_code(load_code(SUITE / f"{name}.json"))
    assert plain(report) == EXPECTED[name]["report"]


@pytest.mark.parametrize("name", LINEARITY)
def test_linearity_report_reproduces_the_committed_report(name):
    rep = linearity_report(load_code(SUITE / f"{name}.json"))
    witness = None
    if rep.witness is not None:
        scale, blocks, lhs, rhs = rep.witness
        witness = [scale, blocks, lhs.to_ints(), rhs.to_ints()]
    got = {
        "fixed_subfield": rep.fixed_subfield,
        "additive_ok": rep.additive_ok,
        "subfield_homogeneous": rep.subfield_homogeneous,
        "witness": witness,
    }
    assert plain(got) == EXPECTED[name]["linearity"]

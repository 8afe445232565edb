"""The traced benchmark run wraps the library's names listed in
`perfbench/spans.py`; each must resolve where `Tracer.install` looks it up,
so that renaming or deleting a traced name fails here rather than in the
traced run.  `perfbench/` is read, never written: the spans module is loaded
without a bytecode cache."""

import importlib.util
import sys
from pathlib import Path

import pytest

from skewconv import codespec  # imports every skewconv module the tracer patches

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "suite" / "gf4_worked.json"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans_guard", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_target_and_uninstall_restores_it(spans):
    # each FUNCTIONS entry is bound in its defining module, each METHODS and
    # COUNTED entry in the vars of its class, as `Tracer.install` reads them
    def bound():
        functions = [vars(sys.modules[m])[a] for m, a, _ in spans.FUNCTIONS]
        methods = [vars(getattr(sys.modules[m], c))[a] for m, c, a, _ in spans.METHODS]
        field_cls = sys.modules["skewconv.field"].FiniteField
        return functions + methods + [vars(field_cls)[a] for a, _ in spans.COUNTED]

    before = bound()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = bound()
        codespec.loads_code(SPEC.read_text())
    finally:
        tracer.uninstall()
    assert all(now is not old for now, old in zip(during, before))
    assert [name for name, *_ in tracer.spans] == ["codespec.load"]
    assert all(now is old for now, old in zip(bound(), before))

"""The benchmark's calls into the library still fit it: every `skewconv`
function or class that `perfbench/workloads.py` calls, directly or through
`attempt(...)`, binds the arguments it is given there, and every name that
`perfbench/selftest.py` patches resolves.  So removing a parameter that the
benchmark passes (the `rng=` of `linearity_report`, say) fails here rather
than in a benchmark run.  Both files are parsed with `ast`, never imported,
so no bytecode is written under `perfbench/`."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name):
    """The syntax tree of a perfbench file, and the skewconv modules it
    imports by name (`from skewconv import ...`), at any depth."""
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "skewconv"
        for alias in node.names
    }
    return tree, modules


def library_calls():
    """(line, module, name, positional count, keyword names) of each call of
    a skewconv module's attribute in workloads.py; a call
    attempt(failures, key, fn, *args, **kwargs) is a call of fn."""
    tree, modules = parse("workloads.py")
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = node.func, node.args
        if isinstance(fn, ast.Name) and fn.id == "attempt":
            fn, args = args[2], args[3:]
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id in modules:
            assert not any(isinstance(a, ast.Starred) for a in args), node.lineno
            keywords = [kw.arg for kw in node.keywords]
            assert None not in keywords, node.lineno  # no **kwargs
            calls.append((node.lineno, fn.value.id, fn.attr, len(args), keywords))
    return calls


CALLS = library_calls()


def test_the_calls_are_found():
    called = {(module, name, tuple(keywords)) for _, module, name, _, keywords in CALLS}
    assert {
        ("analysis", "run_simulation", ("seed", "trellis")),
        ("analysis", "analyze_code", ("trellis",)),
        ("decoder", "viterbi", ("terminated",)),
        ("decoder", "bcjr", ("terminated",)),
        ("dual", "verify_duality", ("rng",)),
        ("skewtrellis", "linearity_report", ("rng",)),
    } <= called


@pytest.mark.parametrize(
    "line, module, name, positional, keywords",
    CALLS,
    ids=[f"{module}.{name}" for _, module, name, _, _ in CALLS],
)
def test_each_call_binds_to_the_signature(line, module, name, positional, keywords):
    target = getattr(importlib.import_module(f"skewconv.{module}"), name)
    inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_every_name_the_selftest_patches_resolves():
    # its corruptions are (module, "name", make) triples; `analysis.viterbi`
    # is kept for one of them
    tree, modules = parse("selftest.py")
    patched = {
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name)
        and node.elts[0].id in modules
        and isinstance(node.elts[1], ast.Constant)
    }
    assert ("analysis", "viterbi") in patched
    for module, name in patched:
        assert callable(getattr(importlib.import_module(f"skewconv.{module}"), name)), name

"""The import layout of the package: every import sits at module level, the
trellis module imports neither the decoder nor the analysis, and the
decoder takes its kernel and budgets from the trellis module."""

import ast
from pathlib import Path

import pytest

import skewconv
from skewconv import decoder, trellis

PACKAGE = Path(skewconv.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_modules(tree):
    """The full names of the modules an ast imports from, relative imports
    resolved against the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["skewconv", base]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_package_has_its_modules():
    assert {"trellis", "decoder", "analysis", "dual"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = [
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not inside, f"{path.name}: import inside a function at line(s) {inside}"


def test_the_trellis_module_imports_neither_decoder_nor_analysis():
    names = imported_modules(ast.parse((PACKAGE / "trellis.py").read_text()))
    assert "numpy" in names
    for banned in ("skewconv.decoder", "skewconv.analysis"):
        assert not {n for n in names if n == banned or n.startswith(banned + ".")}, banned


def test_the_decoder_uses_the_trellis_kernel_and_budgets():
    assert decoder.acs is trellis.acs
    assert decoder.SURVIVOR_BUDGET == trellis.SURVIVOR_BUDGET == 1 << 24
    assert decoder.check_survivor_budget is trellis.check_survivor_budget

"""The import layout of the package: every import sits at module level, the
trellis module imports neither the decoder nor the analysis, the decoder
takes its kernel and budgets from the trellis module, and the analysis and
simulation never import `numpy.random`."""

import ast
import os
import subprocess
import sys
import textwrap
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
    # the budgets are read off the trellis module at each call, not copied
    assert decoder.acs is trellis.acs
    assert decoder._trellis is trellis and not hasattr(decoder, "SURVIVOR_BUDGET")
    assert trellis.SURVIVOR_BUDGET == 1 << 24
    assert decoder.check_survivor_budget is trellis.check_survivor_budget


SUITE = PACKAGE.parents[1] / "perfbench" / "suite"

# numpy imports numpy.random on first use only, and that import alone costs
# a process about 5.5 MiB of resident memory
NO_NUMPY_RANDOM = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    from skewconv import (
        analyze_code,
        linearity_report,
        load_code,
        run_simulation,
        syndrome_former,
        verify_duality,
    )

    for path in sorted(Path(sys.argv[1]).glob("*.json")):
        if path.stem == "expected":
            continue
        code = load_code(path)
        analyze_code(code)
        if code.module_side == "right":
            assert linearity_report(code).additive_ok
        else:
            assert verify_duality(code, syndrome_former(code))
        run_simulation(code, 0.05, 3, 2)
    print(sorted(name for name in sys.modules if name.startswith("numpy.random")))
    """
)


def test_the_suite_analysis_and_simulation_never_import_numpy_random():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, str(SUITE)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"

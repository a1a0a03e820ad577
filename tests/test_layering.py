"""Module layering: the density zoo reads no calibration plan, and the
bandwidth selector knows no density."""

import ast
from pathlib import Path

import pytest

import locband

SRC = Path(locband.__file__).resolve().parent

# module of src/locband: the package modules it must not import
FORBIDDEN = {"densities": {"calibration"}, "selector": {"densities"}}


def package_imports(source: str) -> set[str]:
    """The locband modules that the source imports, in any form and at any
    depth of its tree (a function-level import counts too)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = "locband" + (f".{node.module}" if node.module else "") if node.level == 1 else node.module or ""
            if base == "locband":
                found |= {alias.name for alias in node.names}
            elif base.startswith("locband."):
                found.add(base.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("locband.")}
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_forbidden_imports(module):
    assert not package_imports((SRC / f"{module}.py").read_text(encoding="utf-8")) & FORBIDDEN[module]


@pytest.mark.parametrize("line", [
    "from .calibration import CalibrationPlan",
    "from . import calibration",
    "from .calibration.sub import x",
    "import locband.calibration",
    "from locband.calibration import optimal_bandwidth",
    "from locband import calibration as plans",
    "def f():\n    from .calibration import derive_plan",
])
def test_every_import_form_is_seen(line):
    assert "calibration" in package_imports(line)

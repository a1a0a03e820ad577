"""Module layering: the density zoo reads no calibration plan, the
bandwidth selector knows no density, the package defines no exception
class of its own (a refusal is a ValueError with its message), and only
cli.main turns a refusal into exit status 2."""

import ast
import builtins
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


def exception_classes(source: str) -> set[str]:
    """The classes the source defines on a builtin exception, directly or
    through another class it defines; a base may be a name or an attribute."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    found: set[str] = set()
    while True:
        more = {c.name for c in classes
                if any(_is_exception(getattr(b, "id", getattr(b, "attr", None)), found) for b in c.bases)}
        if more <= found:
            return found
        found |= more


def _is_exception(name, found: set[str]) -> bool:
    base = getattr(builtins, name or "", None)
    return name in found or (isinstance(base, type) and issubclass(base, BaseException))


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_exception_classes(module):
    assert exception_classes((SRC / f"{module}.py").read_text(encoding="utf-8")) == set()


@pytest.mark.parametrize("source, found", [
    ("class E(Exception): pass", {"E"}),
    ("class E(ValueError, KeyError): pass", {"E"}),
    ("class E(builtins.ArithmeticError): pass", {"E"}),
    ("class C(E): pass\nclass E(RuntimeError): pass", {"C", "E"}),
    ("def f():\n    class E(BaseException): pass", {"E"}),
    ("class P: pass\nclass D(dict): pass\nclass Q(P): pass", set()),
])
def test_every_exception_class_is_seen(source, found):
    assert exception_classes(source) == found


def functions_returning_2(source: str) -> set[str]:
    """The top-level functions of the source with a `return 2` anywhere in
    their body, a nested function's included."""
    return {
        node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
        and any(isinstance(r, ast.Return) and isinstance(r.value, ast.Constant) and r.value.value == 2
                for r in ast.walk(node))
    }


def test_only_main_returns_2():
    assert functions_returning_2((SRC / "cli.py").read_text(encoding="utf-8")) == {"main"}


@pytest.mark.parametrize("source, found", [
    ("def main():\n    return 2", {"main"}),
    ("def cmd():\n    if x:\n        return 2\n    return 0", {"cmd"}),
    ("def cmd():\n    def inner():\n        return 2", {"cmd"}),
    ("def cmd():\n    return 1 if x else 0\n\ndef main():\n    return 2 if x else 0", set()),
])
def test_every_return_2_is_seen(source, found):
    assert functions_returning_2(source) == found

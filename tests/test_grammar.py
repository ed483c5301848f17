"""Every module parses with the grammar of the oldest Python that
pyproject.toml admits, and the package's import graph has the shape the
layers promise.  ast.parse with feature_version is a best-effort check: it
refuses newer syntax such as except* (3.11), but not a call to a library
function that the older Python lacks.

The one import cycle left is building <-> toric: toric builds on building's
records, and building's delzant_check and realize_p6 call toric's
validate_charmap and fenn_charmap, so those two functions import from toric
in their bodies.  Nothing else imports inside a function, and golden is read,
never reached into: it imports nothing from classify, and building imports
nothing from golden."""

import ast
import re
from functools import cache
from pathlib import Path

import pytest

import biersphere

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MODULES = sorted(Path(biersphere.__file__).parent.glob("*.py"))
IMPORTS = (ast.Import, ast.ImportFrom)


def oldest_python() -> tuple[int, int]:
    found = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text())
    return int(found[1]), int(found[2])


@cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=path.name, feature_version=oldest_python())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_on_the_oldest_python(path):
    parse(path)


def test_newer_syntax_is_refused():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def package_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The biersphere modules that one import statement loads, by short name."""
    if isinstance(node, ast.Import):
        full = [a.name for a in node.names]
    else:
        module = (("biersphere." if node.level else "") + (node.module or "")).rstrip(".")
        full = [f"{module}.{a.name}" for a in node.names] if module == "biersphere" else [module]
    return {name.split(".")[1] for name in full if name.startswith("biersphere.")}


def test_the_only_function_local_imports_are_buildings_toric_imports():
    local = {
        (path.stem, fn.name, ast.unparse(node).split(" import ")[0])
        for path in MODULES
        for fn in ast.walk(parse(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, IMPORTS)
    }
    assert local == {
        ("building", "delzant_check", "from .toric"),
        ("building", "realize_p6", "from .toric"),
    }


def test_golden_is_read_never_reached_into():
    graph = {
        path.stem: set().union(
            *(package_modules(n) for n in ast.walk(parse(path)) if isinstance(n, IMPORTS))
        )
        for path in MODULES
    }
    assert "classify" not in graph["golden"]
    assert "golden" not in graph["building"]
    # the scan does see the edges that stay: from . import x and from .x import y
    assert {"golden", "bier", "complexes"} <= graph["classify"]

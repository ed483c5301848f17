"""Every decision in the package is exact: floating point appears only where
the OFF export orders each facet's vertices for viewers."""

import ast
from pathlib import Path

import biersphere

FLOAT_ALLOWED = {("building.py", "_facet_cycles"), ("building.py", "write_off")}


def float_uses(tree: ast.Module):
    """(enclosing top-level function or None, line) of each float(...) call,
    float or complex constant and use of the name atan2 in a module."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Name) and node.id in ("float", "atan2")
                or isinstance(node, ast.Attribute) and node.attr == "atan2"
                or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            ):
                yield owner, node.lineno


def test_floats_only_order_off_vertices():
    found = set()
    for path in sorted(Path(biersphere.__file__).parent.glob("*.py")):
        for owner, line in float_uses(ast.parse(path.read_text())):
            found.add((path.name, owner))
            assert (path.name, owner) in FLOAT_ALLOWED, f"{path.name}:{line} uses a float"
    assert found == FLOAT_ALLOWED

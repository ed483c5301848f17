"""Every computation in the package is exact: no module uses a float, down to
the OFF export, which orders each facet's vertices by the certified incidence
and writes integer coordinates."""

import ast
from pathlib import Path

import biersphere


def float_uses(tree: ast.Module):
    """Line of each float(...) call, float or complex constant and use of the
    name atan2 in a module."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Name) and node.id in ("float", "atan2")
            or isinstance(node, ast.Attribute) and node.attr == "atan2"
            or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        ):
            yield node.lineno


def test_no_module_uses_a_float():
    for path in sorted(Path(biersphere.__file__).parent.glob("*.py")):
        lines = list(float_uses(ast.parse(path.read_text())))
        assert not lines, f"{path.name} uses a float on lines {lines}"

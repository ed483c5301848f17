"""Every module parses with the grammar of the oldest Python that
pyproject.toml admits.  ast.parse with feature_version is a best-effort
check: it refuses newer syntax such as except* (3.11), but not a call to a
library function that the older Python lacks."""

import ast
import re
from pathlib import Path

import pytest

import biersphere

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MODULES = sorted(Path(biersphere.__file__).parent.glob("*.py"))


def oldest_python() -> tuple[int, int]:
    found = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text())
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_on_the_oldest_python(path):
    ast.parse(path.read_text(), filename=path.name, feature_version=oldest_python())


def test_newer_syntax_is_refused():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))

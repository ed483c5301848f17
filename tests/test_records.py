"""The records are named tuples: immutable, hashed and printed as the frozen
dataclasses they replace were, still validated on construction, and never
rebuilt by ``_make`` or ``_replace``, which skip that validation.  Importing
the package loads neither ``dataclasses`` nor ``inspect``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biersphere
from biersphere import verify
from biersphere.bier import bier_sphere
from biersphere.building import nerve_of_realization, realize_nestohedron, validate_building_set
from biersphere.classify import canonical_form, classify_bier
from biersphere.complexes import LabelCapError, SimplicialComplex
from biersphere.toric import CharMatrix, buchstaber_certificate, cohomology_presentation

SRC = Path(biersphere.__file__).resolve().parent


def one_of_each():
    """An instance of each of the 14 record types."""
    K = SimplicialComplex.from_facets(3, [[1, 2], [3]])
    B = validate_building_set([[1], [2], [3], [1, 2], [1, 2, 3]], 3)
    R = realize_nestohedron(B)
    cert = buchstaber_certificate(K)
    report = classify_bier(2)
    rows = tuple(verify.check_enumeration())
    return [
        K,
        bier_sphere(K),
        B,
        R.halfspaces[0],
        R,
        nerve_of_realization(R),
        canonical_form(K),
        report.classes[0],
        report,
        cert.matrix,
        cert,
        cohomology_presentation(cert.sphere.complex, cert.matrix),
        rows[0],
        verify.PaperVerificationSummary(rows),
    ]


def test_one_of_each_record_type():
    assert len({type(r) for r in one_of_each()}) == 14


@pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
def test_record_semantics(record):
    name, fields = type(record).__name__, record._fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    again = type(record)(*(getattr(record, f) for f in fields))
    assert again == record and again is not record
    # a frozen dataclass hashed the tuple of its fields, so set and dict
    # orders are unchanged
    assert hash(again) == hash(record) == hash(tuple(getattr(record, f) for f in fields))
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{name}({shown})"


def test_records_still_validate_on_construction():
    with pytest.raises(LabelCapError):
        SimplicialComplex(65, frozenset({1}))
    with pytest.raises(ValueError, match="ground size must be in"):
        SimplicialComplex(0, frozenset({0}))
    with pytest.raises(ValueError, match="out of range"):
        SimplicialComplex(2, frozenset({0b100}))
    with pytest.raises(ValueError, match="row length"):
        CharMatrix(entries=((1, 0), (0,)), labels=("a", "b"))
    assert CharMatrix(entries=((1, 0),), labels=("a", "b")).cols == 2


def test_char_matrix_refuses_repeated_labels():
    # ``on`` takes the first column of a label, so a repeated one would be
    # dropped without a word
    with pytest.raises(ValueError, match=r"column labels repeat: \['a'\]"):
        CharMatrix(entries=((1, 0, 1),), labels=("a", "b", "a"))


def test_no_record_is_rebuilt_past_its_validation():
    for path in sorted(SRC.glob("*.py")):
        found = re.findall(r"\._(?:make|replace)\(", path.read_text())
        assert not found, f"{path.name} calls {found}"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import biersphere, biersphere.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        check=True,
    ).stdout.split()
    assert "biersphere.cli" in out
    assert "dataclasses" not in out and "inspect" not in out

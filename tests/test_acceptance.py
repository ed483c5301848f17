"""Acceptance gate: one test per criterion, each printing its own verdict.

Every comparison is exact; run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines on a passing run.
"""

from biersphere import verify


def report(number, name, rows):
    ok = all(r.passed for r in rows)
    print(f"criterion {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    for r in rows:
        if not r.passed:
            print(f"  {r.name}: expected {r.expected}, computed {r.computed}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_enumeration_count():
    report(1, "28 complex classes on [4]", verify.check_enumeration())


def test_criterion_2_classification_count():
    report(2, "13 sphere types, 4 flag", verify.check_classification())


def test_criterion_3_f_vector_census():
    report(3, "f-vector census", verify.check_f_census())


def test_criterion_4_mf_golden_tables():
    report(4, "minimal non-face tables", verify.check_mf_tables())


def test_criterion_5_mf_formula_oracle():
    report(5, "MF formula exhaustive to m=5", verify.check_mf_formula())


def test_criterion_6_sphere_certificates():
    report(6, "sphere certificates to m=5", verify.check_sphere_certificates())


def test_criterion_7_buchstaber_certificates():
    report(7, "Buchstaber certificates to m=5", verify.check_buchstaber())


def test_criterion_8_betti_golden():
    report(8, "Betti numbers of the 13 types", verify.check_betti())


def test_criterion_9_published_matrices():
    report(9, "characteristic matrix tables", verify.check_appendix_matrices())


def test_criterion_10_nestohedron_agreement():
    report(10, "nestohedron two-path agreement", verify.check_nestohedra())


def test_criterion_11_orientability():
    report(11, "small-cover orientability", verify.check_orientability())


def test_criterion_12_duality():
    report(12, "duality properties to m=5", verify.check_duality())

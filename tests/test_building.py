import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from biersphere import golden, verify
from biersphere.building import (
    BuildingSet,
    BuildingSetError,
    NestohedronRealization,
    _enumerate_vertices,
    delzant_check,
    nerve_by_truncation,
    nerve_of_realization,
    read_off,
    realize_nestohedron,
    realize_p6,
    validate_building_set,
    write_off,
)
from biersphere.classify import MAX_CANON_VERTICES, canonical_form
from biersphere.toric import CharMatrix, fenn_charmap
from biersphere.verify import golden_polytope


def permutohedron_set(n1):
    """All nonempty subsets of [n1]."""
    ground = range(1, n1 + 1)
    return validate_building_set(
        [c for k in range(1, n1 + 1) for c in combinations(ground, k)], n1
    )


def associahedron_set(n1):
    """All intervals of [n1]."""
    return validate_building_set(
        [range(a, b + 1) for a in range(1, n1 + 1) for b in range(a, n1 + 1)], n1
    )


def json_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_validate_accepts_good_set():
    B = validate_building_set([[1], [2], [3], [4], [1, 2, 3, 4]], 4)
    assert B.is_connected
    assert len(B.elements) == 5


def test_validate_reports_missing_singleton():
    with pytest.raises(BuildingSetError, match="singleton"):
        validate_building_set([[1], [2], [1, 2], [2, 3]], 3)


def test_validate_reports_union_axiom():
    with pytest.raises(BuildingSetError, match="union"):
        validate_building_set([[1], [2], [3], [1, 2], [2, 3]], 3)


def test_validate_rejects_foreign_elements():
    with pytest.raises(BuildingSetError):
        validate_building_set([[1], [2], [3], [4]], 3)


def test_proper_element_order():
    B = golden.golden_building_set(7)
    names = [tuple(sorted(s)) for s in B.proper_elements()]
    assert names == [(1,), (2,), (3,), (4,), (1, 2, 3), (1, 3, 4), (1, 2)]


def test_simplex_realization():
    # the minimal connected building set cuts out a simplex: the lattice
    # points are the permutations of (2,1,1,1)
    R = realize_nestohedron(golden.golden_building_set(13))
    expected = set()
    for i in range(4):
        pt = [Fraction(1)] * 4
        pt[i] = Fraction(2)
        expected.add(tuple(pt))
    assert set(R.vertices) == expected
    nerve = nerve_of_realization(R)
    assert nerve.complex.f_vector() == (4, 6, 4)


def test_cube_realization():
    R = realize_nestohedron(golden.golden_building_set(10))
    assert len(R.vertices) == 8
    nerve = nerve_of_realization(R)
    assert nerve.complex.f_vector() == (6, 12, 8)


def test_cut_simplex_realization():
    R = realize_nestohedron(golden.golden_building_set(12))
    assert len(R.vertices) == 6
    nerve = nerve_of_realization(R)
    assert nerve.complex.f_vector() == (5, 9, 6)


def test_realization_exactness_and_simplicity():
    for i in golden.NESTOHEDRAL_INDICES:
        R = realize_nestohedron(golden.golden_building_set(i))
        for v, inc in zip(R.vertices, R.incidence):
            assert sum(v) == R.level
            assert len(inc) == 3
            for j, h in enumerate(R.halfspaces):
                val = sum(Fraction(c) * x for c, x in zip(h.coeffs, v))
                assert val >= h.rhs
                assert (val == h.rhs) == (j in inc)


def test_realization_requires_connected():
    B = validate_building_set([[1], [2], [3]], 3)
    with pytest.raises(BuildingSetError):
        realize_nestohedron(B)
    with pytest.raises(BuildingSetError):
        nerve_by_truncation(B)


def test_truncation_nerve_starts_at_simplex():
    trunc = nerve_by_truncation(golden.golden_building_set(13))
    assert trunc.complex.f_vector() == (4, 6, 4)


def test_truncation_single_cut():
    trunc = nerve_by_truncation(golden.golden_building_set(12))
    assert trunc.complex.f_vector() == (5, 9, 6)


def test_two_paths_agree():
    inputs = [golden.golden_building_set(i) for i in golden.NESTOHEDRAL_INDICES]
    inputs += [permutohedron_set(4), associahedron_set(5)]
    for B in inputs:
        trunc = nerve_by_truncation(B)
        direct = nerve_of_realization(realize_nestohedron(B))
        assert trunc.labelled_facets() == direct.labelled_facets()
        m = max(trunc.complex.m, direct.complex.m)
        if m <= MAX_CANON_VERTICES:
            assert canonical_form(trunc.complex.with_ground(m)) == canonical_form(
                direct.complex.with_ground(m)
            )


def test_realizations_pinned():
    # SHA-256 of the sorted-key JSON: any change in a coordinate, a label or
    # an order shows here
    golden_list = [golden_polytope(i)[0].to_json_obj() for i in range(1, 14)]
    assert json_sha256(golden_list) == (
        "252f207e9c3d7a25a9f834fbd5d28232bee6567531cd09ba8e94fe56a9ed3b03"
    )
    assert json_sha256(realize_nestohedron(permutohedron_set(4)).to_json_obj()) == (
        "25edd78a0737a06ed0357bc070224b3450fbbca3a4bd463dcc5ce019f652b52a"
    )
    assert json_sha256(realize_nestohedron(associahedron_set(5)).to_json_obj()) == (
        "83c3af44ad7f3d790336805496f4a224c281d8ed4c2bfac989c40600dec85e0f"
    )


def test_enumeration_asserts_integral_h_representation():
    R = realize_nestohedron(golden.golden_building_set(13))
    with pytest.raises(AssertionError, match="integral"):
        _enumerate_vertices(R.ambient, R.level + Fraction(1, 2), R.halfspaces)


def test_nerves_match_spheres():
    for i in golden.NESTOHEDRAL_INDICES:
        nerve = nerve_of_realization(realize_nestohedron(golden.golden_building_set(i)))
        S = golden.golden_sphere(i)
        assert canonical_form(nerve.complex.with_ground(S.m)) == canonical_form(S)


def test_no_building_set_gives_type_6():
    target = canonical_form(golden.golden_sphere(6))
    for i in golden.NESTOHEDRAL_INDICES:
        nerve = nerve_of_realization(realize_nestohedron(golden.golden_building_set(i)))
        assert canonical_form(nerve.complex.with_ground(8)) != target


def test_delzant_check():
    for i in golden.NESTOHEDRAL_INDICES:
        B = golden.golden_building_set(i)
        assert delzant_check(realize_nestohedron(B), fenn_charmap(B))


def double_first_column(F):
    return CharMatrix(
        entries=tuple(tuple(2 * x if j == 0 else x for j, x in enumerate(row)) for row in F.entries),
        labels=F.labels,
    )


def test_delzant_check_rejects_bad_matrix():
    B = golden.golden_building_set(13)
    R = realize_nestohedron(B)
    assert not delzant_check(R, double_first_column(fenn_charmap(B)))


def test_delzant_check_needs_every_facet_label():
    B = golden.golden_building_set(10)
    F = fenn_charmap(B)
    short = F.on(F.labels[:-1])
    with pytest.raises(ValueError, match="do not match facet labels"):
        delzant_check(realize_nestohedron(B), short)


def test_realize_p6():
    R6, L6 = realize_p6()
    assert len(R6.vertices) == 12
    nerve = nerve_of_realization(R6)
    assert nerve.complex.f_vector() == (8, 18, 12)
    S6 = golden.golden_sphere(6)
    assert canonical_form(nerve.complex.with_ground(S6.m)) == canonical_form(S6)
    assert delzant_check(R6, L6)
    A6 = golden.appendix_matrix(6)
    assert sorted(L6.column(j) for j in range(8)) == sorted(A6.column(j) for j in range(8))
    assert L6 == fenn_charmap(golden.golden_building_set(1))


def test_broken_type_6_matrix_fails_its_rows(monkeypatch):
    # the verify rows are the only type-6 certificate, so a bad matrix must
    # come back as FAIL rows, not as an exception out of the realizer
    def broken_p6():
        R6, L6 = realize_p6()
        return R6, double_first_column(L6)

    monkeypatch.setattr(verify, "realize_p6", broken_p6)
    verify.golden_polytope.cache_clear()
    try:
        rows = verify.check_betti() + verify.check_appendix_matrices()
    finally:
        verify.golden_polytope.cache_clear()
    failed = {r.name: r.computed for r in rows if not r.passed}
    assert sorted(failed) == ["Betti numbers type 6", "type 6 Delzant", "type 6 matrix columns"]
    assert "not valid for the complex" in failed["Betti numbers type 6"]


def test_off_roundtrip():
    R = realize_nestohedron(golden.golden_building_set(10))
    text = write_off(R)
    parsed = read_off(text)
    assert len(parsed["vertices"]) == 8
    assert len(parsed["faces"]) == 6
    assert parsed["edges"] == 12
    body = {tuple(v) for v in parsed["vertices"]}
    assert body == {tuple(float(c) for c in v[:-1]) for v in R.vertices}


def test_realization_json_roundtrip():
    R = realize_nestohedron(golden.golden_building_set(12))
    again = NestohedronRealization.from_json_obj(R.to_json_obj())
    assert again == R


def test_building_set_json_roundtrip():
    B = golden.golden_building_set(10)
    assert BuildingSet.from_json_obj(B.to_json_obj()) == B

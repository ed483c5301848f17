import hashlib
import json
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from biersphere import building, complexes, golden, verify
from biersphere.building import (
    BuildingSet,
    BuildingSetError,
    NerveComplex,
    NestohedronRealization,
    _certified_incidence,
    _forest_orderings,
    _realize,
    delzant_check,
    element_label,
    nerve_by_truncation,
    nerve_of_realization,
    realize_nestohedron,
    realize_p6,
    validate_building_set,
    write_off,
)
from biersphere.classify import canonical_form
from biersphere.cli import main
from biersphere.complexes import SimplicialComplex, _antichain, mask_of
from biersphere.toric import CharMatrix, det_int, fenn_charmap
from biersphere.verify import golden_polytope


def read_off(text: str) -> dict:
    """Parse the subset of OFF that write_off emits: the round-trip oracle."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "OFF":
        raise ValueError("not an OFF file")
    nv, nf, ne = map(int, lines[1].split())
    vertices = [[int(x) for x in lines[2 + i].split()] for i in range(nv)]
    faces = []
    for i in range(nf):
        parts = list(map(int, lines[2 + nv + i].split()))
        if parts[0] != len(parts) - 1:
            raise ValueError("malformed face row")
        faces.append(parts[1:])
    return {"vertices": vertices, "faces": faces, "edges": ne}


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


def brute_force_vertices(R: NestohedronRealization):
    """Oracle: every vertex of R's H-representation, by solving each square
    system of dim halfspaces plus the level row with Cramer's rule on det_int
    and keeping the feasible solutions, with incidence recomputed in
    fractions.  Returns (vertices, incidence) in R's sorted order."""
    ambient, level, halfspaces = R.ambient, R.level, R.halfspaces
    points = set()
    for tight in combinations(range(len(halfspaces)), ambient - 1):
        rows = [list(halfspaces[i].coeffs) for i in tight] + [[1] * ambient]
        rhs = [halfspaces[i].rhs.numerator for i in tight] + [level.numerator]
        D = det_int(rows)
        if D == 0:
            continue
        N = [
            det_int([r[:j] + [b] + r[j + 1:] for r, b in zip(rows, rhs)])
            for j in range(ambient)
        ]
        if D < 0:
            D, N = -D, [-x for x in N]
        if all(
            sum(c * x for c, x in zip(h.coeffs, N)) >= h.rhs.numerator * D
            for h in halfspaces
        ):
            points.add(tuple(Fraction(x, D) for x in N))
    vertices = tuple(sorted(points))
    incidence = tuple(
        frozenset(
            i
            for i, h in enumerate(halfspaces)
            if sum(c * x for c, x in zip(h.coeffs, pt)) == h.rhs
        )
        for pt in vertices
    )
    return vertices, incidence


def assert_matches_oracle(R: NestohedronRealization):
    assert (R.vertices, R.incidence) == brute_force_vertices(R)


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
    # records built without validate_building_set: a missing singleton, the
    # empty set and a label off the ground are refused, as the oracle does
    ground = frozenset({1, 2, 3, 4})
    singles = {frozenset({i}) for i in ground}
    for elements, match in [
        ((singles - {frozenset({4})}) | {ground}, "simplex building set"),
        (singles | {ground, frozenset()}, "nonempty"),
        (singles | {ground, frozenset({1, 2, 3}), frozenset({1, 5})}, r"\[1, 5\] not a nonempty"),
    ]:
        B = BuildingSet(4, frozenset(elements))
        with pytest.raises(BuildingSetError, match=match):
            nerve_by_truncation(B)
        with pytest.raises(ValueError):
            nerve_by_decomposition_search(B)


def test_truncation_nerve_starts_at_simplex():
    trunc = nerve_by_truncation(golden.golden_building_set(13))
    assert trunc.complex.f_vector() == (4, 6, 4)


def test_truncation_single_cut():
    trunc = nerve_by_truncation(golden.golden_building_set(12))
    assert trunc.complex.f_vector() == (5, 9, 6)


def test_orderings_match_brute_force():
    for i in range(1, 14):
        assert_matches_oracle(golden_polytope(i)[0])
    for B in (permutohedron_set(4), associahedron_set(5), permutohedron_set(5)):
        assert_matches_oracle(realize_nestohedron(B))


def test_old_type_6_coefficients_are_refused():
    # y_{4} = -2, y_{1,2,3} = 1, the other triples 3, y_{1,2,3,4} = -5 leave
    # out the pairs {i,4}: some ordering point violates a halfspace
    y = {frozenset({4}): -2, frozenset({1, 2, 3}): 1, frozenset({1, 2, 3, 4}): -5}
    for T in ((1, 2, 4), (1, 3, 4), (2, 3, 4)):
        y[frozenset(T)] = 3
    with pytest.raises(AssertionError, match="violates"):
        _realize(golden.golden_building_set(1), y, permutations(range(4)))


def test_type_6_needs_every_ordering():
    # the normal fan of type 6 is not the nested fan of B_1, so one ordering
    # per B_1-forest misses vertices, and the closure check says so
    R6, _ = realize_p6()
    B1 = golden.golden_building_set(1)
    y = {frozenset(T): 1 for T in [(1, 4), (2, 4), (3, 4), *combinations((1, 2, 3, 4), 3)]}
    y.update({frozenset({4}): -2, frozenset({1, 2, 3, 4}): -2})
    assert _realize(B1, y, permutations(range(4))) == R6
    with pytest.raises(AssertionError, match="close up"):
        _realize(B1, y, _forest_orderings(B1))


def test_dependent_tight_normals_are_refused():
    # tight on n = 2 halfspaces, but {1,2}, {3} and the level row are dependent
    rows = [((1, 1, 0), 0), ((0, 0, 1), 0)]
    with pytest.raises(AssertionError, match="dependent"):
        _certified_incidence(rows, [(0, 0, 0)], 2)


def counted_det_int(monkeypatch) -> list:
    """The rows of every det_int call that building makes from now on."""
    calls, det = [], building.det_int
    monkeypatch.setattr(building, "det_int", lambda rows: calls.append(rows) or det(rows))
    return calls


def test_exact_fallback_decides_when_f2_finds_a_dependency(monkeypatch):
    # no nestohedron vertex reaches det_int, so force every one through it
    expected = realize_nestohedron(permutohedron_set(4)), realize_p6()
    monkeypatch.setattr(building, "_odd_rank", lambda masks: False)
    calls = counted_det_int(monkeypatch)
    got = realize_nestohedron(permutohedron_set(4)), realize_p6()
    assert got == expected
    assert len(calls) == len(expected[0].vertices) + len(expected[1][0].vertices) == 24 + 12


def test_f2_certifies_every_permutohedron_vertex(monkeypatch):
    calls = counted_det_int(monkeypatch)
    assert len(realize_nestohedron(permutohedron_set(5)).vertices) == 120
    assert calls == []


def test_sparse_building_set_on_a_wide_ground():
    # the simplex building set has n + 1 forests whatever its ground size
    for n1 in (12, 25):
        B = validate_building_set([[i] for i in range(1, n1 + 1)] + [range(1, n1 + 1)], n1)
        R = realize_nestohedron(B)
        assert len(R.vertices) == n1
        if n1 == 12:
            assert_matches_oracle(R)


def test_missing_vertex_fails_closure():
    R = realize_nestohedron(permutohedron_set(4))
    rows = [(h.coeffs, int(h.rhs)) for h in R.halfspaces]
    points = [tuple(int(c) for c in v) for v in R.vertices]
    assert len(_certified_incidence(rows, points, 3)) == 24
    with pytest.raises(AssertionError, match="close up"):
        _certified_incidence(rows, points[1:], 3)


def test_redundant_halfspace_is_refused():
    # the triangle x >= 0 on the level sum(x) = 1, plus x_1 + x_2 >= -1,
    # which holds everywhere and is tight at no vertex: not a facet
    rows = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)]
    points = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(_certified_incidence(rows, points, 2)) == 3
    with pytest.raises(AssertionError, match="tight at no vertex: not a facet"):
        _certified_incidence(rows + [((1, 1, 0), -1)], points, 2)
    # x_1 + x_2 >= 0 holds everywhere and is tight at (0, 0, 1) beside
    # x_1 >= 0 and x_2 >= 0: three tight halfspaces at a corner of a polygon
    with pytest.raises(AssertionError, match=r"non-simple vertex \(0, 0, 1\): tight on 3 facets"):
        _certified_incidence(rows + [((1, 1, 0), 0)], points, 2)


def connected_building_sets_on(n1):
    """Every connected building set on [n1]: singletons and the full set
    with each family of the other subsets closed under unions of meeting
    pairs."""
    ground = frozenset(range(1, n1 + 1))
    base = {frozenset({i}) for i in ground} | {ground}
    middle = [frozenset(c) for k in range(2, n1) for c in combinations(sorted(ground), k)]
    for bits in range(1 << len(middle)):
        elements = base | {c for j, c in enumerate(middle) if bits >> j & 1}
        if all(a | b in elements for a in elements for b in elements if a & b):
            yield validate_building_set(elements, n1)


def nerve_by_facet_scan(R: NestohedronRealization) -> NerveComplex:
    """Oracle: one nerve vertex per halfspace that some vertex is tight on,
    found by a scan of every vertex per halfspace, the facets renumbered
    onto those and reduced to their maximal members."""
    active = [h for h in range(len(R.halfspaces)) if any(h in inc for inc in R.incidence)]
    position = {h: p + 1 for p, h in enumerate(active)}
    facets = [mask_of(position[h] for h in inc if h in position) for inc in R.incidence]
    K = SimplicialComplex(len(active), _antichain(facets))
    return NerveComplex(K, tuple(R.halfspaces[h].label for h in active))


def nerve_by_decomposition_search(B: BuildingSet) -> NerveComplex:
    """Oracle: the truncation as a search.  Start from the boundary of the
    simplex on the singletons; for each other proper element S, largest
    first, find the maximal elements placed so far inside S, require them to
    partition S and to span a face, and subdivide at that face."""
    if not B.is_connected:
        raise BuildingSetError("truncation nerve requires a connected building set")
    n1 = B.n_plus_1
    base = {frozenset({i}) for i in range(1, n1 + 1)} | {B.full_set}
    if not base <= B.elements:
        raise BuildingSetError("building set must contain the simplex building set")
    K = SimplicialComplex.simplex_boundary(n1)
    labels = [frozenset({i}) for i in range(1, n1 + 1)]
    current = set(base)
    for S in sorted(B.elements - base, key=lambda s: (-len(s), tuple(sorted(s)))):
        maximal = [e for e in current if e < S and not any(e < o < S for o in current)]
        if frozenset().union(*maximal) != S or sum(map(len, maximal)) != len(S):
            raise BuildingSetError(f"no disjoint decomposition of {sorted(S)}")
        face = mask_of(labels.index(e) + 1 for e in maximal)
        if not K.is_face(face):
            raise BuildingSetError(f"decomposition of {sorted(S)} is not a face; bad order")
        K = K.stellar_subdivision(face)
        labels.append(S)
        current.add(S)
    return NerveComplex(K, tuple(element_label(s) for s in labels))


def test_nerve_matches_the_facet_scan_on_every_building_set_on_4():
    count = 0
    for B in connected_building_sets_on(4):
        R = realize_nestohedron(B)
        direct = nerve_of_realization(R)
        assert direct == nerve_by_facet_scan(R)
        assert direct == nerve_by_truncation(B) == nerve_by_decomposition_search(B)
        count += 1
    assert count == 378


def test_nerves_need_no_facet_scan_and_no_maximality_filter(monkeypatch):
    def refused(*args):
        raise AssertionError("called")

    monkeypatch.setattr(complexes, "_antichain", refused)
    monkeypatch.setattr(NestohedronRealization, "facet_vertex_sets", refused)
    for i in range(1, 14):
        R = realize_p6()[0] if i == 6 else realize_nestohedron(golden.golden_building_set(i))
        assert nerve_of_realization(R).complex.is_pseudomanifold()
    for i in golden.NESTOHEDRAL_INDICES:
        assert nerve_by_truncation(golden.golden_building_set(i)).complex.is_pseudomanifold()


def test_two_paths_agree():
    inputs = [golden.golden_building_set(i) for i in golden.NESTOHEDRAL_INDICES]
    inputs += [permutohedron_set(4), associahedron_set(5)]
    inputs += [permutohedron_set(6), associahedron_set(6)]
    for B in inputs:
        direct = nerve_of_realization(realize_nestohedron(B))
        assert nerve_by_truncation(B) == direct == nerve_by_decomposition_search(B)


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


def test_type_6_matrix_missing_a_label_fails_its_rows(monkeypatch, capsys):
    # a matrix that cannot be laid out on the nerve fails every row that
    # reads the polytope, with the reason, and verify-paper exits 3
    R6, L6 = realize_p6()

    def short_p6():
        return R6, L6.on(L6.labels[:-1])

    monkeypatch.setattr(verify, "realize_p6", short_p6)
    verify.golden_polytope.cache_clear()
    try:
        rows = verify.check_betti() + verify.check_appendix_matrices()
        code = main(["verify-paper"])
    finally:
        verify.golden_polytope.cache_clear()
    failed = {r.name: r.computed for r in rows if not r.passed}
    assert sorted(failed) == [
        "Betti numbers type 6",
        "type 6 Delzant",
        "type 6 matrix columns",
        "type 6 nerve",
    ]
    reason = f"matrix columns do not match facet labels: none for {[L6.labels[-1]]}"
    assert set(failed.values()) == {reason}
    assert code == 3
    assert "FAIL type 6 nerve" in capsys.readouterr().out


def test_refused_truncation_fails_its_row(monkeypatch, capsys):
    # a building set that the truncation refuses fails its nestohedron row
    # with the reason, and verify-paper still prints every row and exits 3
    def refused(B):
        raise BuildingSetError("truncation refused")

    monkeypatch.setattr(verify, "nerve_by_truncation", refused)
    rows = verify.check_nestohedra()
    code, out = main(["verify-paper"]), capsys.readouterr().out
    assert [r.computed for r in rows] == ["truncation refused"] * len(rows)
    assert code == 3
    assert "FAIL nestohedron type 1: expected True, computed truncation refused" in out
    assert "PASS duality failures at m=5" in out


def test_off_roundtrip():
    R = realize_nestohedron(golden.golden_building_set(10))
    text = write_off(R)
    parsed = read_off(text)
    assert len(parsed["vertices"]) == 8
    assert len(parsed["faces"]) == 6
    assert parsed["edges"] == 12
    body = {tuple(v) for v in parsed["vertices"]}
    assert body == {v[:-1] for v in R.vertices}


def triple(u, v, w) -> int:
    """The integer determinant det(u, v, w) of three 3-vectors, as u . (v x w)."""
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def test_off_faces_walk_edges_counter_clockwise_from_outside():
    # the 13 golden polytopes and the nestohedra of all 378 connected
    # building sets on [4]: each face row lists its facet once, from its
    # least vertex, along edges (two shared tight halfspaces), and turns
    # counter-clockwise seen from outside, that is away from a vertex q off
    # the facet, at every vertex
    polytopes = [golden_polytope(i)[0] for i in range(1, 14)]
    polytopes += [realize_nestohedron(B) for B in connected_building_sets_on(4)]
    assert len(polytopes) == 391
    for R in polytopes:
        parsed = read_off(write_off(R))
        body = parsed["vertices"]
        facets = R.facet_vertex_sets()
        assert len(parsed["faces"]) == len(facets)
        for face, vs in zip(parsed["faces"], facets):
            assert sorted(face) == sorted(vs) and face[0] == min(vs)
            q = body[min(set(range(len(body))) - vs)]
            for i, a in enumerate(face):
                b, c = face[(i + 1) % len(face)], face[(i + 2) % len(face)]
                assert len(R.incidence[a] & R.incidence[b]) == 2
                A, B, C = body[a], body[b], body[c]
                turn = [[s - t for s, t in zip(u, w)] for u, w in ((B, A), (C, B), (q, A))]
                assert triple(*turn) < 0


@pytest.mark.parametrize("n1", [5, 2])
def test_off_export_refuses_other_dimensions(n1):
    # the permutohedron on [5] is 4-dimensional and the segment on [2]
    # 1-dimensional: neither has 3-coordinate vertices or cyclic facets
    R = realize_nestohedron(permutohedron_set(n1))
    reason = rf"OFF export needs a 3-polytope \(n_plus_1 = 4\), got {n1}$"
    with pytest.raises(ValueError, match=reason):
        write_off(R)


def test_building_set_json_roundtrip():
    B = golden.golden_building_set(10)
    assert BuildingSet.from_json_obj(B.to_json_obj()) == B

import random
from itertools import combinations, permutations, product

import pytest

from biersphere import golden, toric, verify
from biersphere.classify import enumerate_complexes
from biersphere.complexes import SimplicialComplex
from biersphere.toric import (
    CharMatrix,
    bier_charmap,
    buchstaber_certificate,
    cohomology_presentation,
    det_int,
    fenn_charmap,
    small_cover_orientable,
    validate_charmap,
)
from biersphere.verify import golden_polytope


def det_oracle(a):
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def test_det_int_against_expansion():
    mats = [
        [[2]],
        [[1, 2], [3, 4]],
        [[0, 1, 2], [1, 0, 3], [4, 5, 0]],
        [[2, 0, 0, 1], [0, 1, 0, 0], [3, 0, 1, 0], [0, 0, 0, 5]],
        [[1, 1], [1, 1]],
    ]
    for a in mats:
        assert det_int([row[:] for row in a]) == det_oracle(a)
    assert det_int([]) == 1


def test_bier_charmap_shape():
    L = bier_charmap(4)
    assert L.rows == 3 and L.cols == 8
    assert L.column(0) == (1, 0, 0)
    assert L.column(3) == (1, 1, 1)
    assert L.column(7) == (1, 1, 1)
    assert L.labels[:4] == ("x1", "x2", "x3", "x4")


def test_bier_charmap_m2():
    L = bier_charmap(2)
    assert L.entries == ((1, 1, 1, 1),)


def test_validate_charmap_golden():
    _, nerve, Lam = golden_polytope(13)
    ok, bad = validate_charmap(nerve.complex, Lam)
    assert ok and bad is None


def test_validate_charmap_reports_failure():
    _, nerve, Lam = golden_polytope(13)
    S = nerve.complex
    broken = CharMatrix(
        entries=tuple(
            tuple(row[0] if j == 1 else x for j, x in enumerate(row))
            for row in Lam.entries
        ),
        labels=Lam.labels,
    )
    ok, bad = validate_charmap(S, broken)
    assert not ok
    assert bad in S.facets


def test_validate_charmap_rejects_wrong_facet_size():
    K = SimplicialComplex.from_facets(3, [[1, 2], [3]])
    Lam = CharMatrix(entries=((1, 0, 1), (0, 1, 1)), labels=("a", "b", "c"))
    with pytest.raises(ValueError):
        validate_charmap(K, Lam)


def test_buchstaber_exhaustive_small():
    for m in (2, 3, 4):
        for K in enumerate_complexes(m):
            cert = buchstaber_certificate(K)
            assert cert.upper_bound == m + 1
            assert cert.bad_facet is None
            ok, _ = validate_charmap(cert.sphere.complex, cert.matrix)
            assert ok


def doubled_x1(m):
    """The doubled-ground labelling with its x1 column doubled: det 2 on
    every facet through x1."""
    L = bier_charmap(m)
    return CharMatrix(
        entries=tuple(tuple(2 * x if j == 0 else x for j, x in enumerate(row)) for row in L.entries),
        labels=L.labels,
    )


def test_buchstaber_certificate_can_fail(monkeypatch):
    monkeypatch.setattr(toric, "bier_charmap", doubled_x1)
    cert = buchstaber_certificate(SimplicialComplex.from_facets(4, [[1, 2], [3]]))
    assert cert.bad_facet is not None
    assert cert.bad_facet in cert.sphere.complex.facets
    assert cert.bad_facet & 1
    assert cert.upper_bound == 5


def test_fenn_columns():
    F = fenn_charmap(golden.golden_building_set(13)).on(("{1}", "{4}"))
    assert F.column(0) == (1, 0, 0)
    assert F.column(1) == (-1, -1, -1)
    F10 = fenn_charmap(golden.golden_building_set(10)).on(("{1,2}", "{1,2,3}"))
    assert F10.column(0) == (1, 1, 0)
    assert F10.column(1) == (1, 1, 1)


def test_fenn_matches_published_matrices():
    for i in golden.NESTOHEDRAL_INDICES:
        F = fenn_charmap(golden.golden_building_set(i))
        A = golden.appendix_matrix(i)
        assert sorted(F.labels) == sorted(A.labels)
        assert F.on(A.labels) == A


def test_on_lays_columns_out_by_label():
    A = CharMatrix(entries=((1, 0, 1), (0, 1, 1)), labels=("a", "b", "c"))
    assert A.on(("c", "a")) == CharMatrix(entries=((1, 1), (1, 0)), labels=("c", "a"))
    for perm in permutations(A.labels):
        assert A.on(perm).on(A.labels) == A
    with pytest.raises(ValueError, match="do not match facet labels"):
        A.on(("a", "d"))


def test_p6_vertex_map_is_least_valid():
    # P6_COLUMN_OF_VERTEX is documented as the lexicographically least column
    # assignment under which the published type-6 matrix is valid
    S6 = golden.golden_sphere(6)
    rows = golden.CHAR_MATRICES[6]
    names = tuple(f"x{j}" for j in range(1, 5)) + tuple(f"y{j}" for j in range(1, 5))

    def valid(cols):
        entries = tuple(tuple(row[c] for c in cols) for row in rows)
        return validate_charmap(S6, CharMatrix(entries=entries, labels=names))[0]

    first = next(cols for cols in permutations(range(8)) if valid(cols))
    assert first == golden.P6_COLUMN_OF_VERTEX
    assert validate_charmap(S6, golden.appendix_matrix(6).on(names))[0]


def test_cohomology_presentation():
    _, nerve, Lam = golden_polytope(10)
    S = nerve.complex
    pres = cohomology_presentation(S, Lam)
    assert pres.betti == (1, 3, 3, 1)
    assert sum(pres.betti) == S.f_vector()[-1]
    supports = {rel for rel in pres.monomial_relations}
    assert len(supports) == len(pres.monomial_relations)
    assert pres.linear_relations == Lam.entries


def test_betti_golden_all_types():
    for i in range(1, 14):
        _, nerve, Lam = golden_polytope(i)
        assert cohomology_presentation(nerve.complex, Lam).betti == golden.BETTI[i]


def test_betti_sanity():
    for i in range(1, 14):
        _, nerve, Lam = golden_polytope(i)
        b = cohomology_presentation(nerve.complex, Lam).betti
        assert b[0] == b[-1] == 1
        assert b[1] == nerve.complex.m - 3


def test_presentation_rejects_invalid_matrix():
    _, nerve, Lam = golden_polytope(13)
    S = nerve.complex
    zeroed = CharMatrix(
        entries=tuple(tuple(0 for _ in row) for row in Lam.entries),
        labels=Lam.labels,
    )
    with pytest.raises(ValueError):
        cohomology_presentation(S, zeroed)


def _gl3_f2():
    """All 168 invertible 3x3 matrices over the two-element field, as
    column triples."""
    vecs = [v for v in product((0, 1), repeat=3) if v != (0, 0, 0)]
    out = []
    for b1 in vecs:
        for b2 in vecs:
            if b2 == b1:
                continue
            span = {b1, b2, tuple((x + y) % 2 for x, y in zip(b1, b2))}
            for b3 in vecs:
                if b3 not in span:
                    out.append((b1, b2, b3))
    return out


def orientable_by_search(Lambda):
    """Oracle: the first basis of F_2^3, in _gl3_f2 order, whose set
    {b1, b2, b3, b1+b2+b3} holds every column mod 2, or None."""
    columns = set(zip(*Lambda.mod2()))
    for b1, b2, b3 in _gl3_f2():
        allowed = {b1, b2, b3, tuple((x + y + z) % 2 for x, y, z in zip(b1, b2, b3))}
        if columns <= allowed:
            return (b1, b2, b3)
    return None


def test_gl3_count():
    assert len(_gl3_f2()) == 168


def test_orientability_matches_the_basis_search():
    for i in range(1, 14):
        A = golden.appendix_matrix(i)
        assert small_cover_orientable(A) == orientable_by_search(A), i
    # every set of columns mod 2, lifted to integers of either sign
    rng = random.Random(14)
    vecs = list(product((0, 1), repeat=3))
    for k in range(len(vecs) + 1):
        for cols in combinations(vecs, k):
            cols = [tuple(x + 2 * rng.randint(-2, 2) for x in c) for c in cols * 2]
            A = CharMatrix(
                entries=tuple(zip(*cols)) if cols else ((), (), ()),
                labels=tuple(map(str, range(len(cols)))),
            )
            assert small_cover_orientable(A) == orientable_by_search(A), cols


def test_orientability_identity_basis():
    w = small_cover_orientable(golden.appendix_matrix(13))
    assert w is not None
    cols = {golden.appendix_matrix(13).mod2()[r] for r in range(3)}  # rows, just sanity
    b1, b2, b3 = w
    assert len({b1, b2, b3}) == 3


def test_orientability_golden_set():
    found = {
        i
        for i in range(1, 14)
        if small_cover_orientable(golden.appendix_matrix(i)) is not None
    }
    assert found == set(golden.ORIENTABLE_INDICES)


def test_orientability_needs_three_rows():
    with pytest.raises(ValueError):
        small_cover_orientable(CharMatrix(entries=((1, 0), (0, 1)), labels=("a", "b")))


def test_charmatrix_json_roundtrip():
    A = golden.appendix_matrix(7)
    assert CharMatrix.from_json_obj(A.to_json_obj()) == A


def test_check_buchstaber_counts_a_broken_labelling(monkeypatch):
    monkeypatch.setattr(verify, "bier_charmap", doubled_x1)
    rows = verify.check_buchstaber()
    # every census sphere but the one on which x1 is a ghost has a facet at x1
    assert [r.computed for r in rows] == ["2", "7", "27", "207"]
    assert not any(r.passed for r in rows)

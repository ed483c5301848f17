import random

import pytest

from biersphere import golden, verify
from biersphere.bier import bier_sphere
from biersphere.classify import (
    bier_census,
    canonical_form,
    classify_bier,
    enumerate_complexes,
    isomorphic,
)
from biersphere.cli import main
from biersphere.complexes import SimplicialComplex, mask_of, vertices_of


def relabel(K, perm):
    """perm is a dict on 1..m."""
    facets = [mask_of(perm[v] for v in vertices_of(f)) for f in K.facets]
    return SimplicialComplex(K.m, frozenset(facets) or frozenset({0}))


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(7)
    for K in enumerate_complexes(4):
        form = canonical_form(K)
        for _ in range(5):
            p = list(range(1, 5))
            rng.shuffle(p)
            perm = {i + 1: p[i] for i in range(4)}
            assert canonical_form(relabel(K, perm)) == form


def test_canonical_form_separates_types():
    forms = {canonical_form(golden.golden_sphere(i)) for i in range(1, 14)}
    assert len(forms) == 13


def test_ghost_count_enters_the_form():
    K = SimplicialComplex.from_facets(3, [[1, 2]])
    L = K.with_ground(5)
    assert canonical_form(K) != canonical_form(L)
    assert canonical_form(K).facets == canonical_form(L).facets


def test_isomorphic_witness_maps_facets():
    rng = random.Random(11)
    for i in (1, 7, 10, 13):
        S = golden.golden_sphere(i)
        p = list(range(1, 9))
        rng.shuffle(p)
        perm = {j + 1: p[j] for j in range(8)}
        T = relabel(S, perm)
        w = isomorphic(S, T)
        assert w is not None
        image = {frozenset(w[v] for v in vertices_of(f)) for f in S.facets}
        assert image == {frozenset(vertices_of(f)) for f in T.facets}


def test_distinct_types_are_not_isomorphic():
    assert isomorphic(golden.golden_sphere(1), golden.golden_sphere(2)) is None
    assert isomorphic(golden.golden_sphere(4), golden.golden_sphere(5)) is None


def test_size_bound():
    with pytest.raises(ValueError):
        canonical_form(SimplicialComplex.simplex(11))


def test_enumeration_counts():
    assert len(enumerate_complexes(1)) == 1
    assert len(enumerate_complexes(4)) == 28
    with pytest.raises(ValueError):
        enumerate_complexes(6)


def test_enumeration_excludes_full_simplex():
    for K in enumerate_complexes(3):
        assert not K.is_full_simplex


def test_bier_census_pairs_each_class_with_its_sphere():
    for m in range(2, 5):
        census = bier_census(m)
        assert list(census) == [(K, bier_sphere(K).complex) for K in enumerate_complexes(m)]
        assert bier_census(m) is census


def test_classification_m4():
    report = classify_bier(4)
    assert report.total_complexes == 28
    assert report.class_count == 13
    indices = sorted(c.golden_index for c in report.classes)
    assert indices == list(range(1, 14))
    for c in report.classes:
        assert c.f_vector == golden.F_VECTORS[c.golden_index]
        assert c.flag == (c.golden_index in golden.FLAG_INDICES)
    # every enumerated complex lands in exactly one class
    used = [i for c in report.classes for i in c.source_indices]
    assert sorted(used) == list(range(28))


def test_classification_m2():
    report = classify_bier(2)
    assert report.class_count == 1


def test_classification_bounds():
    with pytest.raises(ValueError):
        classify_bier(1)
    with pytest.raises(ValueError):
        classify_bier(6)


def test_golden_sources_rebuild_their_spheres():
    for i in range(1, 14):
        K = golden.golden_source(i)
        assert bier_sphere(K).complex == golden.golden_sphere(i)


def test_census_type_without_golden_index_fails_rows(monkeypatch, capsys):
    # a census sphere that matches no golden table gets golden_index None:
    # its rows read FAIL and verify-paper exits 3
    lookup = golden.sphere_index_by_canonical_form()
    dropped = min(golden.FLAG_INDICES)
    monkeypatch.setattr(
        golden,
        "sphere_index_by_canonical_form",
        lambda: {form: i for form, i in lookup.items() if i != dropped},
    )
    classify_bier.cache_clear()
    try:
        rows = verify.check_classification() + verify.check_mf_tables()
        code = main(["verify-paper"])
    finally:
        classify_bier.cache_clear()
    failed = [r.name for r in rows if not r.passed]
    assert failed == ["flag types", "MF table S_None"]
    assert code == 3
    assert "FAIL MF table S_None" in capsys.readouterr().out

import json
from itertools import combinations

import pytest

from biersphere import golden
from biersphere.classify import bier_census
from biersphere.complexes import (
    DegenerateComplexError,
    SimplicialComplex,
    euler_of_f,
    mask_of,
    submasks,
    vertices_of,
)


def euler_characteristic(K):
    return euler_of_f(K.f_vector())


def faces_brute(facets, m):
    out = {0}
    for f in facets:
        for s in submasks(f):
            out.add(s)
    return out


def brute_force_minimal_non_faces(K):
    """Scan of all 2^m subsets: s is a minimal non-face iff it is not a face
    while every s minus one vertex is; sorted by (size, mask)."""
    out = []
    for s in range(1, 1 << K.m):
        if K.is_face(s):
            continue
        sub = s
        minimal = True
        while sub:
            low = sub & -sub
            if not K.is_face(s & ~low):
                minimal = False
                break
            sub &= sub - 1
        if minimal:
            out.append(s)
    out.sort(key=lambda x: (x.bit_count(), x))
    return out


def berge_oracle(K):
    """Minimal non-faces as minimal transversals of the facet complements,
    grown one facet at a time (Berge multiplication) with comprehensions and
    a (size, mask) key: an oracle for grounds too wide for the 2^m scan."""
    full = (1 << K.m) - 1
    family = [0]
    for f in sorted(K.facets, reverse=True):
        comp = full & ~f
        bits = [1 << (v - 1) for v in vertices_of(comp)]
        kept = [t for t in family if t & comp]
        grown = [t | b for t in family if not t & comp for b in bits]
        near: dict[int, list[int]] = {}
        for k in kept:
            near.setdefault(k & comp, []).append(k)
        family = kept + [s for s in grown if all(k & ~s for k in near.get(s & comp, ()))]
    family.sort(key=lambda x: (x.bit_count(), x))
    return family


def test_mask_roundtrip():
    assert mask_of([1, 3, 4]) == 0b1101
    assert list(vertices_of(0b1101)) == [1, 3, 4]


def test_from_facets_reduces_to_antichain():
    K = SimplicialComplex.from_facets(4, [[1, 2], [1], [3]])
    assert K.facets == frozenset({mask_of([1, 2]), mask_of([3])})


def test_from_facets_rejects_bad_labels():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets(3, [[0, 1]])
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets(3, [[4]])


def test_boundary_of_simplex():
    K = SimplicialComplex.simplex_boundary(4)
    assert K.f_vector() == (4, 6, 4)
    assert euler_characteristic(K) == 2
    assert K.h_vector() == (1, 1, 1, 1)
    assert K.minimal_non_faces() == [0b1111]
    assert not K.is_flag()


def test_empty_complex_is_all_ghosts():
    K = SimplicialComplex.empty(4)
    assert K.dim == -1
    assert K.is_void_of_faces  # only the empty face
    assert list(K.ghost_vertices()) == [1, 2, 3, 4]
    with pytest.raises(DegenerateComplexError):
        K.f_vector()


def test_f_vector_against_face_count():
    K = SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4], [5]])
    faces = faces_brute(K.facets, 5)
    for k, count in enumerate(K.f_vector()):
        assert count == sum(1 for f in faces if f.bit_count() == k + 1)


def test_h_vector_alternating_sum_oracle():
    # h_n = (-1)^n (1 - chi~) comes out of the defining polynomial identity;
    # check the whole identity by evaluating both sides at several points.
    K = SimplicialComplex.from_facets(5, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    f = (1,) + K.f_vector()
    h = K.h_vector()
    n = K.dim + 1
    for t in range(-3, 4):
        lhs = sum(h[k] * t ** (n - k) for k in range(n + 1))
        rhs = sum(f[i] * (t - 1) ** (n - i) for i in range(n + 1))
        assert lhs == rhs


def test_minimal_non_faces_definition():
    K = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    faces = faces_brute(K.facets, 4)
    mf = set(K.minimal_non_faces())
    for s in range(1, 1 << 4):
        minimal = s not in faces and all(
            (s & ~(1 << (v - 1))) in faces for v in vertices_of(s)
        )
        assert (s in mf) == minimal

    cases = [K]
    for m in (2, 3, 4):
        for source, sphere in bier_census(m):
            cases += [source, sphere]
    cases += [golden.golden_sphere(i) for i in range(1, 14)]
    cases += [
        SimplicialComplex.simplex(5),
        SimplicialComplex.empty(5),
        # ghost vertices
        SimplicialComplex.from_facets(6, [[1, 2], [2, 3]]),
        SimplicialComplex.simplex_boundary(3).with_ground(6),
        SimplicialComplex.from_facets(7, [[1, 2, 3], [3, 4, 5], [1, 5]]),
    ]
    for C in cases:
        assert C.minimal_non_faces() == brute_force_minimal_non_faces(C)
    assert SimplicialComplex.simplex(5).minimal_non_faces() == []
    assert SimplicialComplex.empty(5).minimal_non_faces() == [1 << i for i in range(5)]


def test_flag_detection():
    square = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert square.is_flag()
    assert not SimplicialComplex.simplex_boundary(3).is_flag()


def test_stellar_subdivision_counts():
    # subdividing a triangle of the simplex boundary: one 2-face becomes three
    K = SimplicialComplex.simplex_boundary(4)
    sub = K.stellar_subdivision(mask_of([1, 2, 3]))
    assert sub.m == 5
    assert sub.f_vector() == (5, 9, 6)
    assert sub.is_pseudomanifold()


def test_stellar_requires_face():
    K = SimplicialComplex.simplex_boundary(4)
    with pytest.raises(ValueError):
        K.stellar_subdivision(mask_of([1, 2, 3, 4]))
    with pytest.raises(ValueError):
        K.stellar_subdivision(0)


def test_pseudomanifold():
    assert SimplicialComplex.simplex_boundary(3).is_pseudomanifold()
    path = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
    assert not path.is_pseudomanifold()


def test_with_ground_adds_ghosts():
    K = SimplicialComplex.simplex_boundary(3)
    big = K.with_ground(6)
    assert big.m == 6
    assert list(big.ghost_vertices()) == [4, 5, 6]
    assert big.f_vector() == K.f_vector()
    with pytest.raises(ValueError):
        big.with_ground(3)
    with pytest.raises(ValueError):
        big.with_ground(65)


def test_json_roundtrip():
    K = SimplicialComplex.from_facets(5, [[1, 2, 3], [4]])
    text = json.dumps(K.to_json_obj())
    assert SimplicialComplex.from_json_obj(json.loads(text)) == K

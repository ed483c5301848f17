"""Hypothesis properties of the Bier construction, the maximality filter and
the canonical search on random complexes, and of the nestohedron realizer on
random building sets."""

from itertools import combinations, permutations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from biersphere import classify  # noqa: E402
from biersphere.bier import (  # noqa: E402
    alexander_dual,
    bier_mf_formula,
    bier_sphere,
    deleted_join,
)
from biersphere.building import (  # noqa: E402
    _forest_orderings,
    _odd_rank,
    det_int,
    nerve_by_truncation,
    nerve_of_realization,
    realize_nestohedron,
    validate_building_set,
)
from biersphere.classify import _canonical_search, canonical_form  # noqa: E402
from biersphere.complexes import (  # noqa: E402
    SimplicialComplex,
    _antichain,
    faces_of,
    ridges_in_two,
    submasks,
    vertices_of,
)
from biersphere.verify import is_mf_of  # noqa: E402
from test_bier import bier_mf_formula_oracle, deleted_join_oracle  # noqa: E402
from test_building import assert_matches_oracle, nerve_by_decomposition_search  # noqa: E402
from test_classify import (  # noqa: E402
    brute_force_canonical_search,
    onto_ground,
    random_complex,
)
from test_complexes import (  # noqa: E402
    berge_oracle,
    brute_force_minimal_non_faces,
    faces_brute,
)


@st.composite
def non_simplex_complexes(draw, max_m=7):
    m = draw(st.integers(2, max_m))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(0, full - 1), max_size=6))
    return SimplicialComplex(m, _antichain(masks))


@settings(deadline=None, max_examples=150)
@given(non_simplex_complexes(max_m=8))
@example(SimplicialComplex.empty(5))
@example(SimplicialComplex.simplex_boundary(6))
@example(SimplicialComplex.from_facets(6, [[1, 2], [2, 3]]))  # ghosts of K
def test_swapped_sphere_is_bier_of_dual(K):
    m = K.m
    low = (1 << m) - 1
    S = bier_sphere(K).complex
    assert S == deleted_join(K, alexander_dual(K))
    swapped = frozenset((f >> m) | ((f & low) << m) for f in S.facets)
    assert bier_sphere(alexander_dual(K)).complex.facets == swapped


@settings(deadline=None, max_examples=150)
@given(non_simplex_complexes(max_m=8))
def test_minimal_non_faces_rebuild_the_complex(K):
    # brute force over all 2^m subsets: the faces are the sets that contain
    # no minimal non-face
    mnf = K.minimal_non_faces()
    faces = [s for s in range(1 << K.m) if not any(s & n == n for n in mnf)]
    assert SimplicialComplex(K.m, _antichain(faces)) == K
    assert mnf == brute_force_minimal_non_faces(K)


@st.composite
def wide_few_facet_complexes(draw):
    """One to four random facets on a ground of 20 to 64 labels, where the
    2^m scan is out of reach."""
    m = draw(st.integers(20, 64))
    full = (1 << m) - 1
    masks = draw(st.lists(st.integers(0, full - 1), min_size=1, max_size=4))
    return SimplicialComplex(m, _antichain(masks))


@settings(deadline=None, max_examples=60)
@given(wide_few_facet_complexes())
@example(SimplicialComplex.simplex_boundary(24))
@example(SimplicialComplex.empty(64))
def test_minimal_non_faces_match_the_berge_oracle_on_wide_grounds(K):
    assert K.minimal_non_faces() == berge_oracle(K)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 8).flatmap(lambda m: st.lists(st.integers(0, (1 << m) - 1), max_size=6)))
@example([])  # the empty face even without facets
@example([0])
@example([0b00111, 0b01110, 0b10000])
def test_faces_of_matches_the_submask_listing(facets):
    assert faces_of(facets) == faces_brute(facets, 8)


@settings(deadline=None, max_examples=150)
@given(non_simplex_complexes(max_m=8))
def test_alexander_dual_is_an_involution(K):
    assert alexander_dual(alexander_dual(K)) == K


@settings(deadline=None, max_examples=200)
@given(non_simplex_complexes(max_m=8))
@example(SimplicialComplex.empty(4))
@example(SimplicialComplex.simplex_boundary(5))
@example(SimplicialComplex.from_facets(6, [[1, 2, 3, 4, 5], [6]]))  # ghosts of the dual
@example(SimplicialComplex.from_facets(6, [[1, 2], [2, 3]]))  # ghosts of K
def test_mf_formula_matches_the_dual_oracle(K):
    assert bier_mf_formula(K) == bier_mf_formula_oracle(K)


@settings(deadline=None, max_examples=150)
@given(non_simplex_complexes(max_m=6), st.data())
def test_duality_check_accepts_exactly_the_minimal_non_faces(K, data):
    # the formula, less one set, and with a superset of one set added;
    # the sphere's own minimal non-faces are the oracle
    S = bier_sphere(K).complex
    mf = bier_mf_formula(K)
    i = data.draw(st.integers(0, len(mf) - 1))
    label = data.draw(st.sampled_from(vertices_of(~mf[i] & (1 << S.m) - 1)))
    families = [mf, mf[:i] + mf[i + 1 :], mf + [mf[i] | 1 << label - 1]]
    assert [is_mf_of(L, S) for L in families] == [True, False, False]
    oracle = set(S.minimal_non_faces())
    assert [is_mf_of(L, S) for L in families] == [set(L) == oracle for L in families]


@st.composite
def complex_pairs(draw, max_m=6):
    """Two complexes on one ground set [m], each any antichain (the void
    complex {0} and the full simplex included), drawn independently, so the
    second is seldom the dual of the first."""
    m = draw(st.integers(1, max_m))
    full = (1 << m) - 1
    masks = st.lists(st.integers(0, full), max_size=5)
    return tuple(SimplicialComplex(m, _antichain(draw(masks))) for _ in range(2))


VOID3 = SimplicialComplex.empty(3)


@settings(deadline=None, max_examples=150)
@given(complex_pairs())
@example((VOID3, VOID3))
@example((VOID3, SimplicialComplex.simplex(3)))
@example((SimplicialComplex.simplex_boundary(3), VOID3))
def test_deleted_join_matches_face_listing_oracle(pair):
    K1, K2 = pair
    assert deleted_join(K1, K2) == deleted_join_oracle(K1, K2)


def quadratic_antichain(masks):
    """Every mask against every other: the maximal ones, or {0}."""
    masks = set(masks)
    maximal = {f for f in masks if not any(f != g and f & ~g == 0 for g in masks)}
    return frozenset(maximal) if maximal else frozenset({0})


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(0, (1 << 8) - 1), max_size=40))
def test_antichain_matches_quadratic_filter(masks):
    assert _antichain(masks) == quadratic_antichain(masks)


@st.composite
def complexes_with_a_face(draw, max_m=7):
    """A complex with at least one vertex and a nonempty face sigma of it."""
    m = draw(st.integers(1, max_m))
    masks = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=6))
    K = SimplicialComplex(m, _antichain(masks))
    faces = sorted({s for f in K.facets for s in submasks(f)} - {0})
    return K, draw(st.sampled_from(faces))


@settings(deadline=None, max_examples=200)
@given(complexes_with_a_face())
@example((SimplicialComplex.simplex_boundary(4), 0b0011))
@example((SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4], [5]]), 0b0100))
def test_stellar_subdivision_keeps_an_antichain(pair):
    # an antichain is its own set of maximal members, which _antichain finds
    K, sigma = pair
    facets = K.stellar_subdivision(sigma).facets
    assert facets == _antichain(facets)


@settings(deadline=None, max_examples=150)
@given(non_simplex_complexes(max_m=7))
def test_canonical_search_matches_brute_force(K):
    assert _canonical_search(K) == brute_force_canonical_search(K)


def automorphisms(K):
    """Aut(K) by brute force over every permutation of [m], each as the
    tuple of the images of 1..m."""
    return [
        g
        for g in permutations(range(1, K.m + 1))
        if {sum(1 << (g[v - 1] - 1) for v in vertices_of(f)) for f in K.facets} == K.facets
    ]


@settings(deadline=None, max_examples=100)
@given(non_simplex_complexes(max_m=6).filter(lambda K: K.m >= 3), st.randoms(use_true_random=False))
@example(SimplicialComplex.from_facets(6, [[v] for v in range(1, 7)]), None)  # all of S_6
def test_sphere_search_seeded_with_aut_k(K, rng):
    # any subset of Aut(K), acting on both sides of Bier(K) as
    # x_i -> x_g(i), y_i -> y_g(i) and taken to the sphere's vertex indices,
    # leaves the encoding and the first best leaf as they are; brute force
    # on [6] can take seconds, so there the unseeded search, itself checked
    # against brute force, is the oracle
    m = K.m
    group = automorphisms(K)
    # the explicit example passes no rng and seeds the whole group
    seeds = rng.sample(group, rng.randint(1, len(group))) if rng else group
    S = bier_sphere(K).complex
    _, order, masks = classify._relabelled(S)
    index = {v: i for i, v in enumerate(order)}
    lifted = [g + tuple(m + image for image in g) for g in seeds]
    known = [[index[g[v] - 1] for v in order] for g in lifted]
    enc, labels, _ = classify._search(masks, known)
    if m <= 5:
        oracle = brute_force_canonical_search(S)
        assert (enc, {v + 1: label for v, label in zip(order, labels)}) == oracle
    else:
        assert (enc, labels) == classify._search(masks)[:2]


@settings(deadline=None, max_examples=150)
@given(st.randoms(use_true_random=False))
def test_memo_answers_as_the_search_does(rng):
    # a dozen random complexes on [2..5], each with a copy relabelled onto
    # part of a ground up to two larger (ghosts, other supports), all
    # through one memo
    memo = {}
    for _ in range(12):
        K = random_complex(rng, rng.randint(2, 5), faces=6)
        L = onto_ground(K, K.m + rng.randint(0, 2), rng)
        assert canonical_form(K, memo) == canonical_form(K)
        assert canonical_form(L, memo) == canonical_form(L)
        assert canonical_form(L, memo).facets == canonical_form(K, memo).facets


@st.composite
def pure_families(draw):
    """Distinct k-subsets of [m] as masks, or the facets of a Bier sphere,
    a family whose every ridge lies in exactly two members."""
    if draw(st.booleans()):
        return bier_sphere(draw(non_simplex_complexes(max_m=5))).complex.facets
    m = draw(st.integers(1, 7))
    k = draw(st.integers(1, m))
    members = [sum(1 << i for i in c) for c in combinations(range(m), k)]
    return frozenset(draw(st.sets(st.sampled_from(members), max_size=12)))


def ridges_in_two_oracle(family):
    """Each codimension-1 subset of a member against every member."""
    ridges = {f & ~(1 << i) for f in family for i in range(f.bit_length()) if f >> i & 1}
    return all(sum(1 for f in family if r & f == r and r != f) == 2 for r in ridges)


@settings(deadline=None, max_examples=200)
@given(pure_families())
@example(frozenset())
@example(SimplicialComplex.simplex_boundary(4).facets)
@example(frozenset({0b00111, 0b01011, 0b10011}))  # a ridge in three members
def test_ridges_in_two_matches_the_ridge_count(family):
    assert ridges_in_two(family) == ridges_in_two_oracle(family)


@st.composite
def connected_building_sets(draw, sizes=(4, 5)):
    """Singletons, the full set and a few random subsets of [n1], n1 drawn
    from sizes, closed under unions of intersecting pairs."""
    n1 = draw(st.sampled_from(sizes))
    ground = frozenset(range(1, n1 + 1))
    extra = draw(st.lists(st.frozensets(st.integers(1, n1), min_size=2, max_size=n1), max_size=5))
    elements = {frozenset({i}) for i in ground} | {ground} | set(extra)
    while True:
        unions = {a | b for a in elements for b in elements if a & b} - elements
        if not unions:
            return validate_building_set(elements, n1)
        elements |= unions


@settings(deadline=None, max_examples=60)
@given(connected_building_sets())
def test_orderings_match_brute_force(B):
    R = realize_nestohedron(B)
    assert len(_forest_orderings(B)) == len(R.vertices)  # one B-forest per vertex
    assert_matches_oracle(R)


@settings(deadline=None, max_examples=100)
@given(connected_building_sets(sizes=(5, 6)))
def test_truncation_nerve_is_the_realization_nerve(B):
    # the same record, labels and vertex numbers included, as the nerve of
    # the certified realization and as the decomposition-search oracle
    trunc = nerve_by_truncation(B)
    assert trunc == nerve_of_realization(realize_nestohedron(B))
    assert trunc == nerve_by_decomposition_search(B)


@st.composite
def normals_with_the_level_row(draw):
    """n <= 7 random 0/1 rows on n + 1 coordinates, then the all-ones row."""
    n = draw(st.integers(0, 7))
    row = st.lists(st.integers(0, 1), min_size=n + 1, max_size=n + 1)
    return draw(st.lists(row, min_size=n, max_size=n)) + [[1] * (n + 1)]


@settings(deadline=None, max_examples=300)
@given(normals_with_the_level_row())
@example([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]])  # determinant 2
@example([[1, 1, 0], [0, 0, 1], [1, 1, 1]])  # determinant 0
@example([[1, 0, 0], [0, 1, 0], [1, 1, 1]])  # determinant 1
def test_odd_rank_is_the_parity_of_the_determinant(rows):
    # _certified_incidence skips det_int exactly when this is odd, so nonzero
    masks = [sum(c << i for i, c in enumerate(r)) for r in rows]
    assert _odd_rank(masks) == (det_int(rows) % 2 == 1)

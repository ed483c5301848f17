import itertools
import json
import random
import time

import pytest

from biersphere import bier, verify
from biersphere.bier import (
    FullSimplexError,
    alexander_dual,
    bier_mf_formula,
    bier_sphere,
    deleted_join,
    ghost_count,
    render_mf,
    side_label,
)
from biersphere.classify import MAX_CENSUS_M, bier_census, canonical_form, enumerate_complexes
from biersphere.cli import main
from biersphere.complexes import SimplicialComplex, _antichain, mask_of, submasks, vertices_of
from test_complexes import euler_characteristic


def all_faces(K):
    out = {0}
    for f in K.facets:
        out.update(submasks(f))
    return out


def deleted_join_oracle(K1, K2):
    m = K1.m
    cand = set()
    for s in all_faces(K1):
        for t in all_faces(K2):
            if s & t == 0:
                cand.add(s | (t << m))
    maximal = {c for c in cand if not any(c != d and c & ~d == 0 for d in cand)}
    return SimplicialComplex(2 * m, frozenset(maximal) or frozenset({0}))


def filtered_join_oracle(K1, K2):
    """The facet-pair candidates of the join kept by the inclusion-maximality
    filter: each candidate against every kept one of larger size."""
    m = K1.m
    cand = set()
    for f1 in K1.facets:
        for f2 in K2.facets:
            inter = f1 & f2
            for a in submasks(inter):
                cand.add((f1 & ~a) | ((f2 & ~(inter & ~a)) << m))
    return SimplicialComplex(2 * m, _antichain(cand))


def wide_complex(m, k):
    """Three random k-label facets on [m], drawn from a fixed seed."""
    rng = random.Random(f"wide/{m}/{k}")
    return SimplicialComplex.from_facets(m, [rng.sample(range(1, m + 1), k) for _ in range(3)])


def swap_sides(S, m):
    """S on 2m positions with x_i and y_i exchanged."""
    low = (1 << m) - 1
    return SimplicialComplex(2 * m, frozenset((f >> m) | ((f & low) << m) for f in S.facets))


def test_dual_of_empty_is_boundary():
    K = SimplicialComplex.empty(4)
    assert alexander_dual(K) == SimplicialComplex.simplex_boundary(4)
    assert alexander_dual(SimplicialComplex.simplex_boundary(4)) == K


def test_dual_of_simplex_undefined():
    with pytest.raises(FullSimplexError):
        alexander_dual(SimplicialComplex.simplex(4))


def test_dual_involution_everywhere():
    for m in (2, 3, 4):
        for K in enumerate_complexes(m):
            assert alexander_dual(alexander_dual(K)) == K


def test_dual_on_64_labels(capsys, tmp_path):
    # three 32-label facets on [64]: far past any scan of the 2^64 subsets
    rng = random.Random(64)
    K = SimplicialComplex.from_facets(64, [rng.sample(range(1, 65), 32) for _ in range(3)])
    mf = K.minimal_non_faces()
    assert len(mf) > 500
    for s in mf:
        assert not K.is_face(s)
        assert all(K.is_face(s & ~(1 << (v - 1))) for v in vertices_of(s))
    dual = alexander_dual(K)
    assert alexander_dual(dual) == K
    path = tmp_path / "k64.json"
    path.write_text(json.dumps(K.to_json_obj()))
    assert main(["dual", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == dual.to_json_obj()


def test_deleted_join_matches_oracle():
    for m in (2, 3):
        reps = enumerate_complexes(m)
        for K1 in reps:
            for K2 in reps:
                assert deleted_join(K1, K2) == deleted_join_oracle(K1, K2)


@pytest.mark.parametrize("m, k", [(10, 6), (12, 8), (14, 9)])
def test_deleted_join_matches_filtered_oracle_on_wide_grounds(m, k):
    K = wide_complex(m, k)
    dual = alexander_dual(K)
    for K1, K2 in ((K, dual), (K, K)):
        assert deleted_join(K1, K2) == filtered_join_oracle(K1, K2)


def test_deleted_join_work_is_one_star_pass_per_side(monkeypatch):
    # each distinct sigma (tau) costs one pass over K1's (K2's) facets: 201,240
    # containment tests for 9,240 candidates, where the maximality filter made
    # 7,943,299 comparisons
    K = wide_complex(14, 9)
    dual = alexander_dual(K)
    tests = [0]
    star = bier._star

    def counted(facets, s):
        tests[0] += len(facets)
        return star(facets, s)

    monkeypatch.setattr(bier, "_star", counted)
    J = deleted_join(K, dual)
    assert len(J.facets) == 6680
    assert tests[0] == 201_240


def test_join_past_the_label_cap_is_refused_up_front(monkeypatch):
    # three 20-label facets on [40]: Bier(K) would make 416,284,672 join
    # candidates before the 80-position complex could be refused
    rng = random.Random(40)
    K = SimplicialComplex.from_facets(40, [rng.sample(range(1, 41), 20) for _ in range(3)])

    def unreachable(*args):
        raise AssertionError("built before the cap was checked")

    monkeypatch.setattr(bier, "submasks", unreachable)
    monkeypatch.setattr(bier, "alexander_dual", unreachable)
    # one reason for both callers: the sphere is built without a join
    reason = "^the doubled ground of 2m = 80 positions exceeds the 64-label cap$"
    with pytest.raises(ValueError, match=reason):
        deleted_join(K, K)
    with pytest.raises(ValueError, match=reason):
        bier_sphere(K)


def test_deleted_join_of_point_with_itself():
    # facets intersect here, so the splitting over the intersection matters
    P = SimplicialComplex.from_facets(1, [[1]])
    J = deleted_join(P, P)
    assert J.facets == frozenset({mask_of([1]), mask_of([2])})


def test_bier_sphere_certificate():
    for m in (2, 3, 4):
        for K in enumerate_complexes(m):
            S = bier_sphere(K)
            B = S.complex
            assert B.is_pure()
            assert B.dim == m - 2
            assert B.is_pseudomanifold()
            assert euler_characteristic(B) == 1 + (-1) ** (m - 2)


def test_bier_sphere_is_the_join_on_the_census():
    # the replay's facets against the definition K *_Delta K^
    for m in range(2, MAX_CENSUS_M + 1):
        for K in enumerate_complexes(m):
            if not K.is_full_simplex:
                assert bier_sphere(K).complex == deleted_join(K, alexander_dual(K))


@pytest.mark.parametrize("m, k", [(10, 6), (12, 8)])
def test_bier_sphere_is_the_join_on_wide_grounds(m, k):
    K = wide_complex(m, k)
    S = bier_sphere(K)
    assert S.source_m == m
    assert S.complex == deleted_join(K, alexander_dual(K))


SKELETON = SimplicialComplex.from_facets(8, list(itertools.combinations(range(1, 9), 3)))
TIED = SimplicialComplex.from_facets(
    5, [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [1, 5], [2, 5], [3, 4, 5]]
)
HALVES = SimplicialComplex.from_facets(
    6, [[1, 3, 4, 5], [1, 3, 4, 6], [1, 4, 5, 6], [2, 3], [3, 4, 5, 6]]
)


@pytest.mark.parametrize(
    "K, replayed_side",
    [
        # the dual has only the empty face; replaying K would take 2^20 - 2 flips
        (SimplicialComplex.simplex_boundary(20), SimplicialComplex.empty(20)),
        (alexander_dual(wide_complex(12, 8)), wide_complex(12, 8)),
        # sum 2^|F| is 448 > 2^8, so the sums decide: the dual's is 1,120;
        # K has 93 faces and its dual 163
        (SKELETON, SKELETON),
        # both sums are 36 > 2^5, so the dual's faces are counted: 15, and
        # K has the other 17
        (TIED, alexander_dual(TIED)),
        # and from the other side: the dual's 17 faces are counted, K replayed
        (alexander_dual(TIED), alexander_dual(TIED)),
        # sums 68 and 68 > 2^6, 32 faces each: K on a tie
        (HALVES, HALVES),
    ],
    ids=[
        "simplex-boundary-20",
        "dual-of-wide-12",
        "skeleton-8",
        "tied-sums-5",
        "tied-dual-5",
        "tied-faces-6",
    ],
)
def test_bier_sphere_replays_the_side_with_fewer_faces(monkeypatch, K, replayed_side):
    replayed = []
    replay = bier._flip_replay

    def counted(m, faces):
        replayed.append(faces)
        return replay(m, faces)

    monkeypatch.setattr(bier, "_flip_replay", counted)
    start = time.process_time()
    S = bier_sphere(K)
    assert time.process_time() - start < 1.0
    assert replayed == [sorted(all_faces(replayed_side))[1:]]
    assert S.complex == deleted_join(K, alexander_dual(K))


def test_bier_sphere_builds_the_dual_only_to_replay_it_or_compare_sums(monkeypatch):
    census = [(m, bier_census(m)) for m in range(2, MAX_CENSUS_M + 1)]
    duals, replayed = [], []
    dual, replay = bier.alexander_dual, bier._flip_replay
    monkeypatch.setattr(bier, "alexander_dual", lambda K: duals.append(K) or dual(K))
    monkeypatch.setattr(bier, "_flip_replay", lambda m, fs: replayed.append(fs) or replay(m, fs))
    dual_replays = compared = 0
    for m, spheres in census:
        for K, S in spheres:
            built, faces = len(duals), sorted(all_faces(K))
            assert bier_sphere(K).complex == S
            on_dual = replayed[-1] != faces[1:]
            dual_replays += on_dual
            if bier._face_bound(K) <= 1 << m:
                # the side with fewer faces, K on a tie, and the dual built
                # only when it is replayed
                assert len(replayed[-1]) + 1 == min(len(faces), (1 << m) - len(faces))
                assert len(duals) - built == on_dual
            else:
                assert len(duals) - built == 1
                compared += not on_dual
    assert len(duals) == dual_replays + compared


def test_flip_replay_refuses_a_face_before_its_boundary():
    # {1, 2} before {2}: the facet x2 y3 that the flip at {1, 2} removes is
    # not held yet
    with pytest.raises(AssertionError, match="failed its sphere certificate") as raised:
        bier._flip_replay(3, [0b001, 0b011, 0b010])
    assert str(raised.value) == (
        "Bier construction failed its sphere certificate"
        " at face [1, 2]: a facet it removes is not held"
    )
    # the empty face would add the starting facets a second time
    with pytest.raises(AssertionError, match="failed its sphere certificate") as raised:
        bier._flip_replay(3, [0])
    assert str(raised.value) == (
        "Bier construction failed its sphere certificate"
        " at face []: a facet it adds is already held"
    )
    assert bier._flip_replay(3, [0b001, 0b010, 0b011]) == bier_sphere(
        SimplicialComplex.from_facets(3, [[1, 2]])
    ).complex.facets


def test_bier_rejects_simplex():
    with pytest.raises(FullSimplexError):
        bier_sphere(SimplicialComplex.simplex(3))


def bier_mf_formula_oracle(K):
    """The closed formula read off the dual itself: MF(K) on the x side,
    MF(K^) on the y side, and x_i y_i over the vertices of both."""
    dual = alexander_dual(K)
    m = K.m
    out = K.minimal_non_faces()
    out.extend(s << m for s in dual.minimal_non_faces())
    both = K.vertex_mask() & dual.vertex_mask()
    out.extend(1 << (v - 1) | 1 << (m + v - 1) for v in vertices_of(both))
    out.sort(key=lambda x: (x.bit_count(), x))
    return out


def test_mf_formula_matches_direct_computation():
    for m in (2, 3, 4):
        for K in enumerate_complexes(m):
            S = bier_sphere(K)
            assert set(bier_mf_formula(K)) == set(S.complex.minimal_non_faces())


def mf_mismatches_oracle(formula):
    """The MF row's counts per m by direct comparison: the formula's sets
    against the minimal non-faces listed from each census sphere's facets."""
    return [
        str(sum(1 for K, S in bier_census(m) if set(formula(K)) != set(S.minimal_non_faces())))
        for m in range(2, MAX_CENSUS_M + 1)
    ]


def without_pairs(mf, m):
    return [s for s in mf if not (s.bit_count() == 2 and s >> m == s & (1 << m) - 1)]


def with_superset(mf, m):
    # the first set and the lowest label outside it
    free = ~mf[0] & (1 << 2 * m) - 1
    return mf + [mf[0] | free & -free]


# a wrong formula, and the mismatch counts per m = 2..5 the direct
# comparison gives for it
MF_MUTATIONS = {
    "drop the x_i y_i pairs": (without_pairs, ["1", "6", "26", "206"]),
    "drop the first set": (lambda mf, m: mf[1:], ["3", "8", "28", "208"]),
    "add one superset": (with_superset, ["3", "8", "28", "208"]),
    "duplicate a set": (lambda mf, m: mf + mf[:1], ["0", "0", "0", "0"]),
}


@pytest.mark.parametrize("name", MF_MUTATIONS)
def test_mf_row_counts_what_the_direct_comparison_counts(monkeypatch, name):
    mutate, expected = MF_MUTATIONS[name]

    def formula(K):
        return mutate(bier_mf_formula(K), K.m)

    oracle = mf_mismatches_oracle(formula)
    assert oracle == expected
    monkeypatch.setattr(verify, "bier_mf_formula", formula)
    assert [r.computed for r in verify.check_mf_formula()] == oracle


def test_ghost_count_formula():
    for m in range(2, MAX_CENSUS_M + 1):
        for K, S in bier_census(m):
            assert ghost_count(K) == len(S.ghost_vertices())
    with pytest.raises(FullSimplexError):
        ghost_count(SimplicialComplex.simplex(4))


def test_bier_of_empty_is_simplex_boundary_on_y():
    S = bier_sphere(SimplicialComplex.empty(4)).complex
    assert list(S.ghost_vertices()) == [1, 2, 3, 4]
    assert S.f_vector() == (4, 6, 4)


def test_render():
    assert side_label(2, 4) == "x2"
    assert side_label(6, 4) == "y2"
    masks = [mask_of([1, 5]), mask_of([3, 4])]
    assert render_mf(masks, 4) == ["x1y1", "x3x4"]


def test_sphere_json_roundtrip():
    S = bier_sphere(SimplicialComplex.from_facets(4, [[1, 2], [3]]))
    obj = S.to_json_obj()
    assert obj["side_labels"] is True


def test_swapped_sphere_is_bier_of_dual():
    moved = 0
    for m in range(2, 5):
        for K in enumerate_complexes(m):
            S = bier_sphere(K).complex
            T = bier_sphere(alexander_dual(K)).complex
            assert swap_sides(S, m) == T
            # the isomorphism test that exact equality replaced
            assert canonical_form(S) == canonical_form(T)
            if m == 4 and swap_sides(S, m) != S:
                moved += 1
    assert moved  # the swap is not the identity on every sphere over [4]

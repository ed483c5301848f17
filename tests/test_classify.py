import hashlib
import random
from itertools import combinations, permutations, product
from math import factorial

import pytest

from biersphere import classify, golden, verify
from biersphere.bier import bier_sphere, render_mf
from biersphere.classify import (
    MAX_CANON_VERTICES,
    _canonical_search,
    bier_census,
    canonical_form,
    classify_bier,
    enumerate_complexes,
    isomorphic,
)
from biersphere.cli import main
from biersphere.complexes import SimplicialComplex, _antichain, mask_of, vertices_of


def relabel(K, perm):
    """perm is a dict on 1..m."""
    facets = [mask_of(perm[v] for v in vertices_of(f)) for f in K.facets]
    return SimplicialComplex(K.m, frozenset(facets) or frozenset({0}))


def brute_force_canonical_search(K):
    """The unpruned search on nested-tuple colours: every child of every
    node is explored, so its cost grows factorially with the symmetry.

    Returns (least facet encoding over all leaves, labeling of the first
    leaf that attains it).
    """
    verts = list(vertices_of(K.vertex_mask()))
    if not verts:
        return (), {}
    facet_sets = [vertices_of(f) for f in sorted(K.facets)]

    def compress(colors):
        ranked = {c: (i,) for i, c in enumerate(sorted(set(colors.values())))}
        return {v: ranked[c] for v, c in colors.items()}

    def refine(colors):
        count = len(set(colors.values()))
        while True:
            new = {}
            for v in colors:
                views = sorted(tuple(sorted(colors[u] for u in f)) for f in facet_sets if v in f)
                new[v] = (colors[v], tuple(views))
            colors = compress(new)
            new_count = len(set(colors.values()))
            if new_count == count:
                return colors
            count = new_count

    best: list = [None, None]

    def descend(colors):
        cells: dict[tuple, list[int]] = {}
        for v, c in colors.items():
            cells.setdefault(c, []).append(v)
        target = next((sorted(cells[c]) for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            order = sorted(verts, key=lambda v: colors[v])
            labeling = {v: i + 1 for i, v in enumerate(order)}
            enc = tuple(sorted(tuple(sorted(labeling[u] for u in f)) for f in facet_sets))
            if best[0] is None or enc < best[0]:
                best[0], best[1] = enc, labeling
            return
        for v in target:
            branched = dict(colors)
            branched[v] = branched[v] + (-1,)  # just after its cell-mates
            descend(refine(compress(branched)))

    descend(refine({v: (0,) for v in verts}))
    return best[0], best[1]


def test_pruned_search_matches_brute_force():
    # every census complex and its Bier sphere for m = 2..4, and the golden spheres
    complexes = [K for m in range(2, 5) for pair in bier_census(m) for K in pair]
    complexes += [golden.golden_sphere(i) for i in range(1, 14)]
    # with c the colour of a cell, a facet coloured (0, c) sorts after one
    # coloured (0, 1, c), but (0,) sorts before (0, 1): on these two complexes,
    # ranking a cell's groups by facet colours with one c cut out, instead of
    # by the full colour tuples, changes the form
    reordering = (
        (9, [(1, 2, 3, 5, 7, 9), (1, 2, 3, 7, 8), (1, 2, 4, 7), (1, 3, 4, 5, 6, 7, 8, 9),
             (2, 3, 6, 8), (2, 4, 5, 7, 9)]),
        (8, [(1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 8), (1, 4, 5, 6, 7, 8), (2, 3, 4, 5, 7, 8),
             (3, 5, 6, 7, 8)]),
    )
    complexes += [SimplicialComplex.from_facets(m, facets) for m, facets in reordering]
    for K in complexes:
        assert _canonical_search(K) == brute_force_canonical_search(K)


def test_pruned_search_matches_brute_force_on_unions_of_cycles():
    # refinement cannot split a regular graph, so each search branches on
    # every vertex at the root, and a wrongly skipped sibling shows
    rng = random.Random(17)
    for lengths in ([3, 3], [3, 4], [3, 5], [4, 4]):
        facets, start = [], 1
        for n in lengths:
            cycle = list(range(start, start + n))
            facets += [[cycle[i], cycle[(i + 1) % n]] for i in range(n)]
            start += n
        K = SimplicialComplex.from_facets(start - 1, facets)
        form = canonical_form(K)
        for _ in range(5):
            p = rng.sample(range(1, start), start - 1)
            L = relabel(K, {i + 1: p[i] for i in range(start - 1)})
            assert _canonical_search(L) == brute_force_canonical_search(L)
            assert canonical_form(L) == form


def join_of_skeleta(*parts):
    """The join of the j-subsets of k vertices, for each (k, j) in parts, on
    consecutive labels: (k, k - 1) is the boundary of a simplex, (k, 1) a set
    of k points."""
    pieces, start = [], 1
    for k, j in parts:
        pieces.append([list(c) for c in combinations(range(start, start + k), j)])
        start += k
    return SimplicialComplex.from_facets(start - 1, [sum(fs, []) for fs in product(*pieces)])


def blow_up(K, sizes):
    """Replace vertex v of K by a class of sizes[v - 1] twins."""
    start = [1]
    for size in sizes:
        start.append(start[-1] + size)
    facets = [[u for v in vertices_of(f) for u in range(start[v - 1], start[v])] for f in K.facets]
    return SimplicialComplex.from_facets(start[-1] - 1, facets)


def test_pruned_search_matches_brute_force_on_twins():
    # twin classes are pruned without a leaf and end refinement early, so
    # complexes made of them check both shortcuts against the unpruned search
    rng = random.Random(23)
    complexes = [
        join_of_skeleta(*parts).with_ground(8)
        for parts in (
            [(3, 2), (4, 3)],
            [(2, 1), (2, 1), (3, 2)],
            [(3, 1), (4, 3)],
            [(2, 1), (2, 1), (3, 1)],
        )
        for _ in range(6)
    ]
    for m in (3, 4):
        for K in enumerate_complexes(m):
            for _ in range(5):
                sizes = [3] * m  # redrawn until at most 8 vertices
                while sum(sizes) > 8:
                    sizes = [rng.randint(1, 3) for _ in range(m)]
                complexes.append(blow_up(K, sizes))
    for K in complexes:
        p = rng.sample(range(1, K.m + 1), K.m)
        L = relabel(K, {i + 1: p[i] for i in range(K.m)})
        assert _canonical_search(L) == brute_force_canonical_search(L)


def incidence_graph(nx, K):
    """Vertices 1..m and facets as nodes, each marked with its side."""
    G = nx.Graph()
    G.add_nodes_from((("v", v) for v in range(1, K.m + 1)), side="vertex")
    for f in K.facets:
        G.add_node(("f", f), side="facet")
        G.add_edges_from((("v", v), ("f", f)) for v in vertices_of(f))
    return G


def random_complex(rng, m, faces=5):
    """Up to ``faces`` random proper faces on [m], reduced to their maximal ones."""
    full = (1 << m) - 1
    return SimplicialComplex(
        m, _antichain(rng.randrange(full) for _ in range(rng.randint(1, faces)))
    )


def test_forms_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    same_side = nx.algorithms.isomorphism.categorical_node_match("side", None)
    # small grounds, then grounds of 11 and 12 up to the vertex cap
    for count, low, high, faces, least in ((300, 2, 7, 5, 50), (120, 11, 12, 10, 30)):
        agreed = {True: 0, False: 0}
        for _ in range(count):
            m = rng.randint(low, high)
            K = random_complex(rng, m, faces)
            if rng.random() < 0.5:
                p = rng.sample(range(1, m + 1), m)
                L = relabel(K, {i + 1: p[i] for i in range(m)})
            else:
                L = random_complex(rng, m, faces)
            equal = canonical_form(K) == canonical_form(L)
            GK, GL = incidence_graph(nx, K), incidence_graph(nx, L)
            assert equal == nx.is_isomorphic(GK, GL, node_match=same_side)
            agreed[equal] += 1
        assert min(agreed.values()) > least


def count_refinements(monkeypatch):
    calls = [0]
    refine = classify._refine

    def counted(*args):
        calls[0] += 1
        return refine(*args)

    monkeypatch.setattr(classify, "_refine", counted)
    return calls


def fully_symmetric(n):
    """Complexes on [n] whose automorphisms are the whole symmetric group."""
    return (
        SimplicialComplex.simplex_boundary(n),
        SimplicialComplex.from_facets(n, combinations(range(1, n + 1), 5)),
        SimplicialComplex.from_facets(n, [[v] for v in range(1, n + 1)]),
    )


def test_vertex_cap_holds_for_full_symmetry(monkeypatch):
    # each complex has the whole symmetric group on [12]: unpruned, the search
    # would refine about 12! = 479 M times; the bound counts work, not seconds
    n = MAX_CANON_VERTICES
    calls = count_refinements(monkeypatch)
    for K in fully_symmetric(n):
        calls[0] = 0
        form = canonical_form(K)
        assert form.facets == tuple(sorted(vertices_of(f) for f in K.facets))
        assert calls[0] <= n**3


def count_leaves(monkeypatch):
    """Each leaf of a search, and nothing else, encodes the facets once."""
    calls = [0]
    encoding = classify._encoding

    def counted(*args):
        calls[0] += 1
        return encoding(*args)

    monkeypatch.setattr(classify, "_encoding", counted)
    return calls


def test_one_twin_class_is_one_leaf(monkeypatch):
    # all twelve vertices are twins: the root partition is one twin class, so
    # each level below it keeps one child and the search is a single leaf
    n = MAX_CANON_VERTICES
    leaves = count_leaves(monkeypatch)
    for K in fully_symmetric(n):
        leaves[0] = 0
        canonical_form(K)
        assert leaves[0] == 1


def cross_polytope(d):
    """The boundary of the d-dimensional cross-polytope: on [2d], one of i
    and i + d for each i <= d."""
    choices = product(*([i, i + d] for i in range(1, d + 1)))
    return SimplicialComplex.from_facets(2 * d, choices)


def test_cross_polytope_work_is_pinned(monkeypatch):
    # twelve vertices in six twin pairs {i, i + 6} and a vertex-transitive
    # group of order 2^6 * 6!: twins, the automorphisms that leaves reveal
    # and the backjumps they allow prune the search to 7 leaves
    K = cross_polytope(6)
    rng = random.Random(29)
    leaves = count_leaves(monkeypatch)
    forms = set()
    for _ in range(3):
        p = rng.sample(range(1, 13), 12)
        leaves[0] = 0
        forms.add(canonical_form(relabel(K, {i + 1: p[i] for i in range(12)})))
        assert leaves[0] == 7
    assert len(forms) == 1


def test_census_sphere_work_is_pinned(monkeypatch):
    # the 111 sphere searches on [5], each seeded with Aut(K) acting on both
    # sides and cut short by backjumps; without the seeds they take 746
    # refinements and 325 leaves, without the backjumps 512 and 199, with
    # neither 888 and 409
    bier_census(5)
    refinements, leaves = count_refinements(monkeypatch), count_leaves(monkeypatch)
    classify_bier.__wrapped__(5)
    assert (refinements[0], leaves[0]) == (483, 180)


def group_order(n, generators):
    """The order of the group the permutations of range(n) generate, by closure."""
    group = frontier = {tuple(range(n))}
    while frontier:
        frontier = {tuple(g[x] for x in a) for a in frontier for g in generators} - group
        group = group | frontier
    return len(group)


def test_search_generators_generate_the_automorphism_group():
    # twin transpositions and leaf automorphisms against brute force over
    # every permutation of the vertices, on every class on [1..5]
    for m in range(1, 6):
        for K in enumerate_complexes(m):
            _, order, masks = classify._relabelled(K)
            if not order:
                continue
            n = len(order)
            generators = classify._search(masks)[2]
            faces = set(masks)
            brute = sum(
                {sum(1 << p[i] for i in range(n) if f >> i & 1) for f in masks} == faces
                for p in permutations(range(n))
            )
            assert group_order(n, generators) == brute


def test_orbit_sums_are_the_dedekind_numbers():
    # orbit-stabilizer: a class on [m] has m! / (|Aut| * ghosts!) labelled
    # copies; the complexes on [m] but the simplex number M(m) - 2 for the
    # Dedekind numbers M (OEIS A000372), which also count the empty
    # antichain and the simplex; |Aut| is the closure of the generators
    # the memo kept for the class
    for m, antichains in zip(range(1, 6), (1, 4, 18, 166, 7579)):
        classes, memo = classify._enumerate_cached(m)
        total = 0
        for _, K in classes:
            _, order, masks = classify._relabelled(K)
            aut = group_order(len(order), memo[(m, masks)][1]) if order else 1
            total += factorial(m) // (aut * factorial(m - len(order)))
        assert total == antichains


def test_census_sphere_seeds_are_automorphisms(monkeypatch):
    # every seed of the 111 sphere searches on [5] is a permutation of the
    # sphere's vertex indices that maps its facet masks onto themselves
    bier_census(5)
    seeds = []
    search = classify._search

    def checked(masks, known=()):
        n = max(masks).bit_length()
        faces = set(masks)
        for g in known:
            assert sorted(g) == list(range(n))
            assert {sum(1 << g[i] for i in range(n) if f >> i & 1) for f in masks} == faces
        seeds.extend(known)
        return search(masks, known)

    monkeypatch.setattr(classify, "_search", checked)
    classify_bier.__wrapped__(5)
    assert len(seeds) == 211


def census_inputs(monkeypatch, m):
    """The complexes a fresh census on [m] takes a canonical form of."""
    seen = []

    def collect(K, *args, **kwargs):
        seen.append(K)
        return canonical_form(K, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(classify, "canonical_form", collect)
        classify._enumerate_cached.__wrapped__(m)
    return seen


def test_census_calls_canonical_form_once_per_antichain(monkeypatch):
    # the benchmark's traced self-test pins the same counts: Dedekind's 168
    # antichains on [4] and 7,581 on [5], less the simplex and {empty set}
    # (the empty antichain already stands for that complex)
    assert len(census_inputs(monkeypatch, 4)) == 166
    assert len(census_inputs(monkeypatch, 5)) == 7579


def onto_ground(K, ground, rng):
    """K relabelled onto a random |[K.m]|-subset of [ground]."""
    image = rng.sample(range(1, ground + 1), K.m)
    return SimplicialComplex(
        ground, frozenset(mask_of(image[v - 1] for v in vertices_of(f)) for f in K.facets)
    )


def test_memo_agrees_with_the_search_on_every_antichain(monkeypatch):
    # every antichain on [4] and [5], and each relabelled onto a random
    # subset of [6] or [7] (ghosts, supports other than 1..n), through one
    # memo shared across both grounds and both copies
    rng = random.Random(37)
    memo, checked = {}, 0
    for m in (4, 5):
        for K in census_inputs(monkeypatch, m):
            for J in (K, onto_ground(K, rng.choice((6, 7)), rng)):
                assert canonical_form(J, memo) == canonical_form(J)
                checked += 1
    assert 10 * len(memo) < checked  # most forms came from the memo


def index_space_key(K):
    """The memo key, computed apart from classify: the non-ghost labels in
    increasing order become vertex indices 0..n-1, then the facets over those
    indices are relabelled by the vertex order (sorted facet sizes, index)."""
    index = {v: i for i, v in enumerate(vertices_of(K.vertex_mask()))}
    facets = [[index[v] for v in vertices_of(f)] for f in K.facets]
    sizes = [sorted(len(face) for face in facets if i in face) for i in range(len(index))]
    bit = [0] * len(index)
    for i, v in enumerate(sorted(range(len(index)), key=sizes.__getitem__)):
        bit[v] = 1 << i
    return (K.m, tuple(sorted(sum(map(bit.__getitem__, face)) for face in facets)))


class KeyLog(dict):
    """A memo that records the key of every lookup."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def get(self, key, default=None):
        self.keys.append(key)
        return super().get(key, default)


def test_memo_key_is_the_index_space_key(monkeypatch):
    # every antichain on [4] and [5], and each relabelled onto random subsets
    # of [6] and [7], so ghosts sit among the labels
    rng = random.Random(53)
    memo, expected = KeyLog(), []
    for m in (4, 5):
        for K in census_inputs(monkeypatch, m):
            for J in (K, onto_ground(K, 6, rng), onto_ground(K, 7, rng)):
                if J.vertex_mask():  # the all-ghost complex takes no key
                    canonical_form(J, memo)
                    expected.append(index_space_key(J))
    assert memo.keys == expected
    assert len(expected) == 3 * (166 + 7579 - 2)


def count_searches(monkeypatch):
    calls = [0]
    search = classify._search

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(classify, "_search", counted)
    return calls


def test_census_searches_once_per_relabelling_class(monkeypatch):
    # 7,579 forms on [5] and 166 on [4], but a search only for the first
    # complex of each key (its facets relabelled by root colour, then index)
    calls = count_searches(monkeypatch)
    assert len(classify._enumerate_cached.__wrapped__(4)[0]) == 28
    assert calls[0] == 32
    calls[0] = 0
    assert len(classify._enumerate_cached.__wrapped__(5)[0]) == 208
    assert calls[0] == 345


def test_pruned_search_matches_brute_force_on_every_antichain(monkeypatch):
    # each antichain on [4] as the census gives it, and relabelled onto a
    # random 4-subset of [6], which brings ghosts and a support other than
    # 1..n: both kinds of support, each of which reaches the search only
    # through the memo key's relabelling
    rng = random.Random(31)
    index_space = set()
    for K in census_inputs(monkeypatch, 4):
        for J in (K, onto_ground(K, 6, rng)):
            assert _canonical_search(J) == brute_force_canonical_search(J)
            support = J.vertex_mask()
            index_space.add(support == (1 << support.bit_count()) - 1)
    assert index_space == {False, True}


def test_census_searches_one_sphere_per_dual_pair(monkeypatch):
    # Bier(K^) is Bier(K) with its sides swapped: of the 208 classes on [5],
    # 14 are self-dual and 194 form 97 dual pairs, so 111 of the spheres (on
    # [10]) are searched, and as many duals (on [5]) are looked up
    bier_census(5)
    grounds = []

    def counted(take_form):
        def call(*args):
            form = take_form(*args)
            grounds.append(form.ground_size)
            return form

        return call

    monkeypatch.setattr(classify, "canonical_form", counted(canonical_form))
    monkeypatch.setattr(classify, "_sphere_form", counted(classify._sphere_form))
    classify_bier.__wrapped__(5)
    assert grounds.count(10) == 111
    assert grounds.count(5) == 111
    assert len(grounds) == 222


def test_census_duals_are_memo_hits(monkeypatch):
    # each dual is an antichain on [5] that the enumeration's memo already
    # holds, so only the 111 spheres are searched
    bier_census(5)
    calls = count_searches(monkeypatch)
    classify_bier.__wrapped__(5)
    assert calls[0] == 111


def grouped_by_one_search_per_sphere(m):
    """The census types as classify_bier grouped them before it shared forms
    between dual classes: (first sphere, source indices) per canonical form
    of every census sphere, in order of first appearance."""
    groups = {}
    for idx, (_, sphere) in enumerate(bier_census(m)):
        groups.setdefault(canonical_form(sphere), (sphere, []))[1].append(idx)
    return [(sphere, tuple(sources)) for sphere, sources in groups.values()]


def test_classification_matches_one_search_per_sphere():
    for m in range(2, 6):
        got = [(c.representative, c.source_indices) for c in classify_bier(m).classes]
        assert sorted(got, key=lambda t: t[1]) == grouped_by_one_search_per_sphere(m)


def test_classification_mf_column_matches_each_sphere():
    # the MF column comes from the closed formula of a source complex; the
    # sphere's own minimal non-faces are the oracle
    for m in range(2, 6):
        for c in classify_bier(m).classes:
            mf = c.representative.minimal_non_faces()
            assert c.mf_rendered == tuple(render_mf(mf, m))
            assert c.flag == c.representative.is_flag()


def test_classification_order_and_vectors():
    # classes run by (f-vector descending, number of minimal non-faces,
    # sphere form), all distinct, and carry their representative's own f-
    # and h-vectors
    for m in range(2, 6):
        classes = classify_bier(m).classes
        keys = []
        for c in classes:
            S = c.representative
            f = S.f_vector()
            assert c.f_vector == f
            assert c.h_vector == S.h_vector()
            keys.append((tuple(-x for x in f), len(S.minimal_non_faces()), canonical_form(S)))
        assert keys == sorted(set(keys))


def test_ten_vertex_witness_of_a_rigid_complex():
    # the only automorphism is the identity, so the witness is the relabeling
    K = SimplicialComplex.from_facets(
        10, [[1, 2, 3, 4], [4, 5, 6], [6, 7], [7, 8], [8, 9, 10], [2, 5], [3, 9]]
    )
    p = random.Random(13).sample(range(1, 11), 10)
    perm = {i + 1: p[i] for i in range(10)}
    assert isomorphic(K, relabel(K, perm)) == perm


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
    # one vertex over the cap is refused on every way into the search: with
    # and without a memo, through isomorphic, and with ghosts among the labels
    over = SimplicialComplex.simplex(MAX_CANON_VERTICES + 1)
    ghosted = onto_ground(over, 15, random.Random(41))  # 13 vertices on [15]
    message = r"too many non-ghost vertices \(13 > 12\)"
    memo = {}
    for K in (over, ghosted):
        with pytest.raises(ValueError, match=message):
            canonical_form(K)
        with pytest.raises(ValueError, match=message):
            canonical_form(K, memo)
        with pytest.raises(ValueError, match=message):
            isomorphic(K, K)
    assert memo == {}
    # at the cap, ghosts among the labels do not count
    at_cap = onto_ground(SimplicialComplex.simplex(MAX_CANON_VERTICES), 15, random.Random(43))
    assert canonical_form(at_cap) == (3, 15, (tuple(range(1, MAX_CANON_VERTICES + 1)),))


# sha256 of the repr of the class forms on [1..5] and then the census sphere
# forms on [2..5]; an output hash sees a moved form only through the class
# order
CENSUS_FORMS_SHA256 = "d262f94751a07f47d10020d4d1a2554cf51777dd385ed4fb38222f2686f405f2"


def test_census_forms_are_pinned():
    forms = [form for m in range(1, 6) for form, _ in classify._enumerate_cached(m)[0]]
    forms += [canonical_form(S) for m in range(2, 6) for _, S in bier_census(m)]
    assert len(forms) == 248 + 247
    assert hashlib.sha256(repr(forms).encode()).hexdigest() == CENSUS_FORMS_SHA256


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
    # only the census on [4] carries the published numbering
    for m in (2, 3):
        assert {c.golden_index for c in classify_bier(m).classes} == {None}


def test_classification_bounds():
    with pytest.raises(ValueError):
        classify_bier(1)
    with pytest.raises(ValueError):
        classify_bier(6)


def golden_source(i):
    """A complex on [4] whose Bier sphere equals golden_sphere(i) on the nose:
    the full subcomplex of the sphere on the x positions."""
    xmask = (1 << golden.SOURCE_M) - 1
    S = golden.golden_sphere(i)
    return SimplicialComplex(golden.SOURCE_M, _antichain(f & xmask for f in S.facets))


def test_golden_sources_rebuild_their_spheres():
    for i in range(1, 14):
        K = golden_source(i)
        assert bier_sphere(K).complex == golden.golden_sphere(i)


def test_census_type_without_golden_index_fails_rows(monkeypatch, capsys):
    # a census sphere that matches no golden table gets golden_index None:
    # its rows read FAIL and verify-paper exits 3
    lookup = classify._golden_index_by_form()
    dropped = min(golden.FLAG_INDICES)
    monkeypatch.setattr(
        classify,
        "_golden_index_by_form",
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

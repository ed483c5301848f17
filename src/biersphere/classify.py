"""Combinatorial equivalence, enumeration and the Bier-sphere census.

Canonical forms use colour refinement plus individualisation: vertices are
partitioned by structural signatures, each non-singleton cell is branched on,
and the lexicographically least facet encoding over all discrete leaves is
the canonical form.  Ghost vertices are interchangeable; only their count
enters the form.

The search skips subtrees that an automorphism maps onto explored ones
(orbit pruning; McKay & Piperno, "Practical graph isomorphism II", 2014).  A
leaf whose encoding equals the first or the best leaf's gives an automorphism
g = lab_b^-1 . lab_a of K, which is kept.  At a node with individualised path
P, a child v is skipped when the kept automorphisms that fix P pointwise
carry an explored sibling w to v.  Such a g fixes P and preserves K, and the
refinement commutes with relabelling, so the subtree under P+v is the g-image
of the subtree under P+w, with the same encodings.  The least encoding, and
the first leaf in search order that attains it, are therefore those of the
unpruned search.  Automorphisms known before the search (``canonical_form``'s
``automorphisms``) are kept from the start: the argument needs only that g
preserves K.

Such a leaf also ends the search below the point where its path leaves the
other leaf's (backjumping).  g carries the leaf's colouring to the other's,
and the refinement commutes with relabelling, so it carries the leaf's path
to a path with the other's discrete colouring, which is the other's path: a
vertex individualised where two paths part ranks after its cell-mates, and
refinement keeps that order, so each leaf ranks its own choice last in that
cell.  If the paths share P and then take v and w, g fixes P pointwise and
carries v to w, so every leaf under P+v is the g-image of one under P+w,
with the same encoding.  P+w came first (it is on the first leaf's path, or
the best leaf came before this one), so its subtree is finished, and the
search returns to the node at P and goes on with the next sibling of v.

Twins, vertices v and w whose transposition t = (v w) maps K onto itself,
are such automorphisms known before any leaf; they form classes, found once
per search.  A sibling v that is a twin of an explored w is skipped: both lie
in a non-singleton cell, so neither is on P, t fixes P pointwise, and the
argument above applies.  Refinement stops without a confirming round once
every non-singleton cell is one twin class: t preserves K and a colouring
that gives v and w one colour, and refinement commutes with relabelling, so
the next round gives v and w one colour again, no cell splits and no rank
moves.  Below such a twin-class partition each level keeps one child, as the
individualised vertex's cell-mates are its twins, and refines without a
round, so the search runs down one chain to one leaf.  The search returns
the twin transpositions with the automorphisms it kept as its generators;
on every class on [1..5] they generate Aut of the non-ghost part.

The census takes a form of every antichain on [m], 7,579 on [5], but
searches only once per relabelling class.  ``canonical_form`` takes an
optional memo from a key to a form and the generators of the search of
that key, over the key's vertex indices.  The key is K's ground size and its
facets relabelled by the vertex order (root colour, index), so equal keys
mean isomorphic complexes on grounds of one size, whose forms are equal:
the encoding is an isomorphism invariant, and the ghost count is the
ground size less the vertex count.  The root colours rank each vertex's
sorted facet sizes, so a stable sort of the non-ghost labels by those
sizes gives the same order, and the key is read off the label masks
before any colour is ranked.  The key's masks are also the search's only
input (``_relabelled`` is the one way into index space): the search is
label-equivariant, and inside a root cell the key order is the label
order, so a search of the key's masks visits the same tree as one of K's
labels taken in increasing order and ends at the same first leaf.  A hit
skips the ranking, the twin tests and the search, and returns the stored
form; on [5], 345 keys are searched and the other 7,234 forms are hits.
The memo is exact for any batch, but it pays only where many inputs are
relabellings of few, so each enumeration on [m] creates a fresh one and
returns it with its classes, for ``classify_bier``'s dual lookups; it
lives as long as the cached classes (345 entries on [5]).  A memo for
every call would also keep each later search, the census spheres
included, for as long as the process runs.  A call without a memo takes a
fresh one; its key is then the search's input, so it costs no more than
the relabelling that the search needs anyway.

The census searches one Bier sphere per pair of dual classes.  Bier(K^) is
Bier(K) with the x and y sides swapped, since K^^ = K and the deleted join
is symmetric, and relabelling [m] commutes with the dual and the join, so
classes with isomorphic duals have isomorphic spheres.  ``classify_bier``
takes the dual's form of each class it searches from the enumeration's
memo, which holds the key of every antichain on [m]; that form is the
dual's class form, and when that class comes later, it takes the searched
sphere's form.  For the same reason Aut(K) acts on Bier(K) diagonally,
x_i -> x_g(i) and y_i -> y_g(i): g preserves K, so its non-faces, its dual
and their deleted join.  Each sphere search starts from the generators of
Aut(K) acting so.  They come from the memo too: the enumeration searched
the key of each class representative, as the first complex of its class
misses, and the vertex order maps the key's indices to K's labels.  A
second search of K would cost about 5 ms on [5], and a module-level store
would outlive the memo, which lives as long as the cached classes.  A
type's minimal non-faces come from ``bier_mf_formula`` of its first
source complex, the formula that
``verify.check_mf_formula`` checks against every census sphere through
Alexander duality.  The records are named tuples (see complexes), and a form
orders as the tuple (ghost count, ground size, facets).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import golden
from .bier import alexander_dual, bier_mf_formula, bier_sphere, render_mf
from .complexes import SimplicialComplex, h_of_f, vertices_of

MAX_CANON_VERTICES = 12
MAX_CENSUS_M = 5  # largest ground set of the census, classification and checks


CanonicalForm = namedtuple("CanonicalForm", "ghost_count ground_size facets")


def _refine(
    facets: list[tuple[int, ...]],
    incident: list[list[int]],
    twin: list[int],
    colors: list[int],
    count: int,
) -> tuple[list[int], int]:
    """Iterate vertex colouring by the multiset of coloured facets.

    Colours are ranks 0..count-1.  A vertex's signature is its colour and the
    sorted colour tuples of the facets through it; the new colours rank the
    distinct signatures in sorted order.  Each signature extends the old
    colour, so the partition only refines and keeps its order (a singleton
    cell needs no tuples): it is stable once the number of colour classes
    stops growing, or as soon as each cell lies in one twin class
    (``twin[v]`` names v's class).
    """
    # a cell of twins cannot split, so such a partition (a discrete one too)
    # needs no confirming round
    while len(set(zip(colors, twin))) > count:
        cells: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        sorted_facets = [tuple(sorted(map(colors.__getitem__, f))) for f in facets]
        refined = [0] * len(colors)
        rank = 0
        for cell in cells:
            parts = [cell]
            if len(cell) > 1:
                groups: dict[tuple, list[int]] = {}
                for v in cell:
                    key = tuple(sorted(map(sorted_facets.__getitem__, incident[v])))
                    groups.setdefault(key, []).append(v)
                parts = [groups[key] for key in sorted(groups)]
            for part in parts:
                for v in part:
                    refined[v] = rank
                rank += 1
        colors = refined
        if rank == count:
            break
        count = rank
    return colors, count


def _orbits(n: int, generators: list[list[int]]) -> list[int]:
    """Root of each point's orbit under the group the permutations generate."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for x, y in enumerate(g):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


@lru_cache(maxsize=1 << MAX_CANON_VERTICES)
def _positions(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of a mask, in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _encoding(facets: list[tuple[int, ...]], labels: list[int]) -> tuple:
    """The sorted relabelled facets of a leaf."""
    return tuple(sorted([tuple(sorted(map(labels.__getitem__, f))) for f in facets]))


def _by_size(masks, n: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The facets' positions in increasing size order, and the sorted sizes
    of the facets through each position below n."""
    facets = sorted(map(_positions, masks), key=len)
    sizes: list[list[int]] = [[] for _ in range(n)]
    for face in facets:
        size = len(face)
        for i in face:
            sizes[i].append(size)
    return facets, sizes


def _relabelled(K: SimplicialComplex) -> tuple[int, list[int], tuple[int, ...]]:
    """K in vertex-index space: (ghost count, the non-ghost labels less one
    in vertex order, the facet masks over vertex indices, sorted).

    The vertex order is (sorted facet sizes, label), the order (root colour,
    index) of the search, so the masks are a complex isomorphic to K and,
    with the ground size, the memo key.  Every refinement cell lies in one
    root cell, inside which this order is the label order, so the search
    branches on a cell's vertices in label order."""
    m = K.m
    facets, sizes = _by_size(K.facets, m)
    ghosts = sizes.count([])  # a ghost's sizes are empty, so the ghosts come first
    if m - ghosts > MAX_CANON_VERTICES:
        raise ValueError(f"too many non-ghost vertices ({m - ghosts} > {MAX_CANON_VERTICES})")
    order = sorted(range(m), key=sizes.__getitem__)[ghosts:]
    bit = [0] * m
    for i, v in enumerate(order):
        bit[v] = 1 << i
    masks = tuple(sorted([sum(map(bit.__getitem__, face)) for face in facets]))
    return ghosts, order, masks


def _index_automorphisms(K: SimplicialComplex, order: list[int], automorphisms) -> list:
    """Label permutations of K, each a sequence whose entry i - 1 is the
    image of label i, as permutations of the vertex indices of order (the
    non-ghost labels less one, as ``_relabelled`` gives them).  A ValueError
    for one that is not a permutation of [m] mapping K's facets onto
    themselves."""
    m = K.m
    index = {v: i for i, v in enumerate(order)}
    out = []
    for g in automorphisms:
        if sorted(g) != list(range(1, m + 1)):
            raise ValueError(f"not a permutation of [{m}]: {list(g)}")
        bit = [1 << (image - 1) for image in g]
        if {sum(map(bit.__getitem__, _positions(f))) for f in K.facets} != K.facets:
            raise ValueError(f"not an automorphism of the complex: {list(g)}")
        # g maps the facets, so the vertices, onto themselves
        out.append([index[g[v] - 1] for v in order])
    return out


def _canonical_search(K: SimplicialComplex, automorphisms=()):
    """Return (canonical facet encoding, labeling old->new) for non-ghosts;
    automorphisms as for ``canonical_form``."""
    _, order, masks = _relabelled(K)
    known = _index_automorphisms(K, order, automorphisms)
    if not order:
        return (), {}
    enc, labels, _ = _search(masks, known)
    return enc, {v + 1: label for v, label in sorted(zip(order, labels))}


def _search(
    masks: tuple[int, ...], known: list[list[int]] = ()
) -> tuple[tuple, list[int], list[list[int]]]:
    """The search over the vertex indices of masks from the root colouring,
    which ranks the sorted sizes of each vertex's facets as one round from
    the uniform colouring would: (least encoding, labels 1..n of the first
    leaf that attains it, generators), over vertex indices.  known holds
    automorphisms of masks (g[v] the image of v), which prune from the
    start; the generators are known, the twin transpositions and the
    automorphisms that leaves reveal."""
    n = max(masks).bit_length()  # indices 0..n-1 all occur, the last in the greatest
    # colour tuples, twin tests and leaf encodings are sorted or set-based, so
    # the facet order does not matter
    facets, facet_sizes = _by_size(masks, n)
    profiles = list(map(tuple, facet_sizes))
    rank = {s: c for c, s in enumerate(sorted(set(profiles)))}
    root = list(map(rank.__getitem__, profiles))
    # v and w are twins when swapping them maps K onto itself; twins share a
    # root colour, and the relation is an equivalence, so each class is named
    # by its least vertex, and w is tested against the earlier class heads of
    # its root colour only
    faceset = set(masks)
    twin = list(range(n))
    heads: dict[int, list[int]] = {}
    for w in range(n):
        same_root = heads.setdefault(root[w], [])
        for v in same_root:
            pair = 1 << v | 1 << w
            if all(f ^ pair in faceset for f in masks if f & pair not in (0, pair)):
                twin[w] = v
                break
        else:
            same_root.append(w)
    incident: list[list[int]] = [[] for _ in range(n)]
    for j, face in enumerate(facets):
        for i in face:
            incident[i].append(j)
    first = best = None  # (encoding, labeling as a list over vertex indices, path)
    automorphisms: list[list[int]] = list(known)

    def leaf(labeling: list[int], path: tuple[int, ...]) -> int | None:
        """Record a leaf; the level to return to when it repeats a known one."""
        nonlocal first, best
        enc = _encoding(facets, labeling)
        if first is None:
            first = best = (enc, labeling, path)
            return
        for known_enc, known_labeling, known_path in (first, best):
            if enc == known_enc:
                # known^-1 . labeling maps K onto itself
                inverse = [0] * n
                for v, label in enumerate(known_labeling):
                    inverse[label - 1] = v
                automorphisms.append([inverse[label - 1] for label in labeling])
                # the paths leave each other below their common prefix
                level = 0
                while path[level] == known_path[level]:
                    level += 1
                return level
        if enc < best[0]:
            best = (enc, labeling, path)

    def descend(colors: list[int], count: int, path: tuple[int, ...]) -> int | None:
        if count == n:
            return leaf([c + 1 for c in colors], path)
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        target = next(c for c, size in enumerate(sizes) if size > 1)
        explored: list[int] = []
        seen, orbit = 0, None
        for v in (u for u in range(n) if colors[u] == target):
            if any(twin[w] == twin[v] for w in explored):
                continue
            if explored and seen != len(automorphisms):
                seen = len(automorphisms)
                fixing = [g for g in automorphisms if all(g[p] == p for p in path)]
                orbit = _orbits(n, fixing)
            if orbit is not None and orbit[v] in {orbit[w] for w in explored}:
                continue
            explored.append(v)
            # v ranks just after its cell-mates
            branched = [c + 1 if c > target else c for c in colors]
            branched[v] = target + 1
            level = descend(*_refine(facets, incident, twin, branched, count + 1), path + (v,))
            if level is not None and level < len(path):
                return level

    descend(*_refine(facets, incident, twin, root, len(rank)), ())
    twins = []
    for w, v in enumerate(twin):
        if v != w:
            swap = list(range(n))
            swap[v], swap[w] = w, v
            twins.append(swap)
    return best[0], best[1], twins + automorphisms


def canonical_form(
    K: SimplicialComplex, memo: dict | None = None, automorphisms=()
) -> CanonicalForm:
    """The form of K.  A memo, a dict that the caller creates and passes to
    every call of one batch, answers K without a search when an earlier
    complex relabelled to the same facets (see the module docstring); a
    call without one searches as it would with a fresh one.  The memo keeps
    each search's generators beside its form.  automorphisms are known
    automorphisms of K, each a sequence whose entry i - 1 is the image of
    label i; they prune the search and leave the form as it is.  One that
    does not map K's facets onto themselves is refused (ValueError)."""
    m = K.m
    ghosts, order, masks = _relabelled(K)
    known = _index_automorphisms(K, order, automorphisms) if automorphisms else []
    if not order:
        return CanonicalForm(m, m, ())
    memo = {} if memo is None else memo
    key = (m, masks)
    entry = memo.get(key)
    if entry is None:
        enc, _, generators = _search(masks, known)
        entry = memo[key] = (CanonicalForm(ghosts, m, enc), generators)
    return entry[0]


def isomorphic(K1: SimplicialComplex, K2: SimplicialComplex) -> dict[int, int] | None:
    """A vertex bijection witnessing combinatorial equivalence, if any.

    The witness maps non-ghost vertices of K1 to those of K2 and is
    re-verified facet by facet before being returned.
    """
    enc1, lab1 = _canonical_search(K1)
    enc2, lab2 = _canonical_search(K2)
    form1 = CanonicalForm(K1.m - len(lab1), K1.m, enc1)
    if form1 != CanonicalForm(K2.m - len(lab2), K2.m, enc2):
        return None
    inv2 = {new: old for old, new in lab2.items()}
    witness = {v: inv2[lab1[v]] for v in lab1}
    image = {frozenset(witness[u] for u in vertices_of(f)) for f in K1.facets}
    expect = {frozenset(vertices_of(f)) for f in K2.facets}
    if image != expect:
        raise AssertionError("canonical labelings produced a non-isomorphism")
    return witness


def enumerate_complexes(m: int) -> list[SimplicialComplex]:
    """One representative per isomorphism class on [m], excluding the simplex.

    Generates every antichain of nonempty subsets (the empty antichain stands
    for the all-ghost complex) and dedupes by canonical form.
    """
    return [K for _, K in _enumerate_cached(m)[0]]


@lru_cache(maxsize=None)
def _enumerate_cached(
    m: int,
) -> tuple[tuple[tuple[CanonicalForm, SimplicialComplex], ...], dict]:
    """(form, representative) per class on [m], in increasing form order,
    and the memo of the enumeration, which holds the key of every antichain
    on [m] but the simplex."""
    if not 1 <= m <= MAX_CENSUS_M:
        raise ValueError(f"enumeration supported for 1 <= m <= {MAX_CENSUS_M}")
    full = (1 << m) - 1
    # bit t of comparable[s] is set when t is contained in s or contains it
    comparable = [
        sum(1 << t for t in range(1, full + 1) if s & ~t == 0 or t & ~s == 0)
        for s in range(full + 1)
    ]

    def antichains(chosen: tuple[int, ...], start: int, blocked: int):
        """chosen, then every antichain that extends it by sets from start
        on, depth first in increasing set order."""
        yield chosen
        for s in range(start, full + 1):
            if not blocked >> s & 1:
                yield from antichains(chosen + (s,), s + 1, blocked | comparable[s])

    # one search per relabelling class
    memo: dict = {}
    seen: dict[CanonicalForm, SimplicialComplex] = {}
    for chain in antichains((), 1, 0):
        if chain == (full,):
            continue  # the full simplex is excluded
        K = SimplicialComplex(m, frozenset(chain) if chain else frozenset({0}))
        form = canonical_form(K, memo)
        if form not in seen:
            seen[form] = K
    return tuple((f, seen[f]) for f in sorted(seen)), memo


@lru_cache(maxsize=None)
def bier_census(m: int) -> tuple[tuple[SimplicialComplex, SimplicialComplex], ...]:
    """(K, Bier(K)) for each class K of enumerate_complexes(m), in that order.

    Computed once per m and shared by classify_bier and the exhaustive
    verification checks.
    """
    return tuple((K, bier_sphere(K).complex) for K in enumerate_complexes(m))


BierClass = namedtuple(
    "BierClass", "representative f_vector h_vector mf_rendered flag source_indices golden_index"
)


class ClassificationReport(namedtuple("ClassificationReport", "m total_complexes classes")):
    __slots__ = ()

    @property
    def class_count(self) -> int:
        return len(self.classes)


@lru_cache(maxsize=None)
def _golden_index_by_form() -> dict[CanonicalForm, int]:
    """The canonical form of each golden sphere, mapped to its published index."""
    return {canonical_form(golden.golden_sphere(i)): i for i in golden.MF_TABLES}


def _lifted_automorphisms(K: SimplicialComplex, memo: dict) -> list[list[int]]:
    """The generators of Aut(K) that the search of K's key left in memo,
    acting on both sides of Bier(K): x_i -> x_g(i), y_i -> y_g(i)."""
    m = K.m
    _, order, masks = _relabelled(K)
    if not order:
        return []
    lifted = []
    for h in memo[(m, masks)][1]:
        g = list(range(1, m + 1))
        for i, v in enumerate(order):
            g[v] = order[h[i]] + 1
        lifted.append(g + [m + image for image in g])
    return lifted


@lru_cache(maxsize=None)
def classify_bier(m: int) -> ClassificationReport:
    """Group the Bier spheres of all complex classes on [m] by combinatorial type.

    Classes are ordered by (f-vector descending lexicographically, number of
    minimal non-faces, canonical form); the published S_i numbering for m = 4 is
    attached from the shipped golden tables.  Dual classes share one sphere
    search (see the module docstring).
    """
    if not 2 <= m <= MAX_CENSUS_M:
        raise ValueError(f"classification supported for 2 <= m <= {MAX_CENSUS_M}")
    enumerated, memo = _enumerate_cached(m)  # a dual is an antichain on [m], so a hit
    census = bier_census(m)
    # class form -> its sphere's form, found by its dual class's search
    shared: dict[CanonicalForm, CanonicalForm] = {}
    groups: dict[CanonicalForm, tuple] = {}  # sphere form -> (K, sphere, sources)
    for idx, ((cls, K), (_, sphere)) in enumerate(zip(enumerated, census)):
        form = shared.get(cls)
        if form is None:
            form = canonical_form(sphere, None, _lifted_automorphisms(K, memo))
            shared[canonical_form(alexander_dual(K), memo)] = form
        groups.setdefault(form, (K, sphere, []))[2].append(idx)

    lookup = _golden_index_by_form() if m == golden.SOURCE_M else {}
    keyed = []
    for form, (K, sphere, sources) in groups.items():
        f = sphere.f_vector()
        mf = bier_mf_formula(K)
        bier_class = BierClass(
            representative=sphere,
            f_vector=f,
            h_vector=h_of_f(f),
            mf_rendered=tuple(render_mf(mf, m)),
            flag=all(s.bit_count() <= 2 for s in mf),
            source_indices=tuple(sources),
            golden_index=lookup.get(form),
        )
        keyed.append(((tuple(-x for x in f), len(mf), form), bier_class))
    keyed.sort(key=lambda t: t[0])
    return ClassificationReport(
        m=m, total_complexes=len(census), classes=tuple(c for _, c in keyed)
    )

"""Combinatorial equivalence, enumeration and the Bier-sphere census.

Canonical forms use colour refinement plus individualisation: vertices are
partitioned by structural signatures, each non-singleton cell is branched on,
and the lexicographically least facet encoding over all discrete leaves is
the canonical form.  Ghost vertices are interchangeable; only their count
enters the form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .bier import bier_sphere, render_mf
from .complexes import SimplicialComplex, mask_of, vertices_of

MAX_CANON_VERTICES = 10
MAX_CENSUS_M = 5  # largest ground set of the census, classification and checks


@dataclass(frozen=True, order=True)
class CanonicalForm:
    ghost_count: int
    ground_size: int
    facets: tuple[tuple[int, ...], ...]


def _refine(facet_sets: list[tuple[int, ...]], colors: dict[int, tuple]) -> dict[int, tuple]:
    """Iterate vertex colouring by the multiset of coloured facet views.

    Each new colour extends the old one, so the partition only refines: it
    is stable once the number of colour classes stops growing.
    """
    count = len(set(colors.values()))
    while True:
        new = {}
        for v in colors:
            views = sorted(
                tuple(sorted(colors[u] for u in f if u != v))
                for f in facet_sets
                if v in f
            )
            new[v] = (colors[v], tuple(views))
        # compression keeps the partition: it ranks colours in order
        colors = _compress(new)
        new_count = len(set(colors.values()))
        if new_count == count:
            return colors
        count = new_count


def _partition(colors: dict[int, tuple]) -> tuple[tuple[int, ...], ...]:
    cells: dict[tuple, list[int]] = {}
    for v, c in colors.items():
        cells.setdefault(c, []).append(v)
    return tuple(tuple(sorted(cells[c])) for c in sorted(cells))


def _compress(colors: dict[int, tuple]) -> dict[int, tuple]:
    ranked = {c: (i,) for i, c in enumerate(sorted(set(colors.values())))}
    return {v: ranked[c] for v, c in colors.items()}


def _canonical_search(K: SimplicialComplex):
    """Return (canonical facet encoding, labeling old->new) for non-ghosts."""
    verts = list(vertices_of(K.vertex_mask()))
    if len(verts) > MAX_CANON_VERTICES:
        raise ValueError(f"too many non-ghost vertices ({len(verts)} > {MAX_CANON_VERTICES})")
    if not verts:
        return (), {}
    facet_sets = [vertices_of(f) for f in sorted(K.facets)]
    init = {v: (0,) for v in verts}
    best: list = [None, None]  # encoding, labeling

    def encode(labeling: dict[int, int]):
        return tuple(sorted(tuple(sorted(labeling[u] for u in f)) for f in facet_sets))

    def descend(colors: dict[int, tuple]):
        cells = _partition(colors)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            order = sorted(verts, key=lambda v: colors[v])
            labeling = {v: i + 1 for i, v in enumerate(order)}
            enc = encode(labeling)
            if best[0] is None or enc < best[0]:
                best[0], best[1] = enc, labeling
            return
        for v in target:
            branched = dict(colors)
            branched[v] = branched[v] + (-1,)
            descend(_refine(facet_sets, _compress(branched)))

    descend(_refine(facet_sets, init))
    return best[0], best[1]


def _form(K: SimplicialComplex, enc) -> CanonicalForm:
    return CanonicalForm(K.m - K.vertex_mask().bit_count(), K.m, enc)


def canonical_form(K: SimplicialComplex) -> CanonicalForm:
    return _form(K, _canonical_search(K)[0])


def isomorphic(K1: SimplicialComplex, K2: SimplicialComplex) -> dict[int, int] | None:
    """A vertex bijection witnessing combinatorial equivalence, if any.

    The witness maps non-ghost vertices of K1 to those of K2 and is
    re-verified facet by facet before being returned.
    """
    enc1, lab1 = _canonical_search(K1)
    enc2, lab2 = _canonical_search(K2)
    if _form(K1, enc1) != _form(K2, enc2):
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
    return list(_enumerate_cached(m))


@lru_cache(maxsize=None)
def _enumerate_cached(m: int) -> tuple[SimplicialComplex, ...]:
    if not 1 <= m <= MAX_CENSUS_M:
        raise ValueError(f"enumeration supported for 1 <= m <= {MAX_CENSUS_M}")
    full = (1 << m) - 1
    subsets = list(range(1, 1 << m))
    antichains: list[tuple[int, ...]] = [()]

    def extend(chosen: tuple[int, ...], start: int):
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            if any(s & ~c == 0 or c & ~s == 0 for c in chosen):
                continue
            nxt = chosen + (s,)
            antichains.append(nxt)
            extend(nxt, idx + 1)

    extend((), 0)
    seen: dict[CanonicalForm, SimplicialComplex] = {}
    for chain in antichains:
        if chain == (full,):
            continue  # the full simplex is excluded
        K = SimplicialComplex(m, frozenset(chain) if chain else frozenset({0}))
        form = canonical_form(K)
        if form not in seen:
            seen[form] = K
    return tuple(seen[f] for f in sorted(seen))


@lru_cache(maxsize=None)
def bier_census(m: int) -> tuple[tuple[SimplicialComplex, SimplicialComplex], ...]:
    """(K, Bier(K)) for each class K of enumerate_complexes(m), in that order.

    Computed once per m and shared by classify_bier and the exhaustive
    verification checks.
    """
    return tuple((K, bier_sphere(K).complex) for K in enumerate_complexes(m))


@dataclass(frozen=True)
class BierClass:
    representative: SimplicialComplex
    f_vector: tuple[int, ...]
    h_vector: tuple[int, ...]
    mf_rendered: tuple[str, ...]
    flag: bool
    source_indices: tuple[int, ...]
    golden_index: int | None


@dataclass(frozen=True)
class ClassificationReport:
    m: int
    total_complexes: int
    classes: tuple[BierClass, ...] = field(default_factory=tuple)

    @property
    def class_count(self) -> int:
        return len(self.classes)


@lru_cache(maxsize=None)
def classify_bier(m: int) -> ClassificationReport:
    """Group the Bier spheres of all complex classes on [m] by combinatorial type.

    Classes are ordered by (f-vector descending lexicographically, number of
    minimal non-faces, canonical form); the published S_i numbering for m = 4 is
    attached from the shipped golden tables.
    """
    from . import golden

    if not 2 <= m <= MAX_CENSUS_M:
        raise ValueError(f"classification supported for 2 <= m <= {MAX_CENSUS_M}")
    census = bier_census(m)
    groups: dict[CanonicalForm, dict] = {}
    for idx, (_, sphere) in enumerate(census):
        form = canonical_form(sphere)
        entry = groups.setdefault(form, {"sphere": sphere, "sources": []})
        entry["sources"].append(idx)

    lookup = golden.sphere_index_by_canonical_form() if m == 4 else {}
    classes = []
    for form, entry in groups.items():
        sphere = entry["sphere"]
        f = sphere.f_vector()
        mf = sphere.minimal_non_faces()
        key = (tuple(-x for x in f), len(mf), form)
        classes.append((key, form, sphere, f, mf, tuple(entry["sources"])))
    classes.sort(key=lambda t: t[0])

    out = []
    for _, form, sphere, f, mf, sources in classes:
        out.append(
            BierClass(
                representative=sphere,
                f_vector=f,
                h_vector=sphere.h_vector(),
                mf_rendered=tuple(render_mf(mf, m)),
                flag=sphere.is_flag(),
                source_indices=sources,
                golden_index=lookup.get(form),
            )
        )
    return ClassificationReport(m=m, total_complexes=len(census), classes=tuple(out))

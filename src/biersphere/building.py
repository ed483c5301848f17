"""Building sets and exact nestohedron geometry.

Every polytope here is Postnikov's generalized permutohedron sum_T y_T Delta_T
for integer coefficients y: y = 1 on each element of B for the nestohedron of
B, and a signed table on the type-1 building set for type 6.  Its halfspaces
are sum_{i in S} x_i >= sum_{T subset of S} y_T over the proper elements S of
B, on the level hyperplane sum(x) = sum(y).  Vertices are read off
orderings of the ground set in integers, one per B-forest for a nestohedron
and all 24 for type 6, and certified, not searched for: each is feasible and
simple, and their tight sets close up, so no vertex is missing.  No floating
point enters any decision; floats only order vertices cosmetically in the
OFF export.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from math import atan2
from operator import mul

from .complexes import (
    SimplicialComplex,
    _antichain,
    json_int,
    mask_of,
    ridges_in_two,
    vertices_of,
)


class BuildingSetError(ValueError):
    """A family violating one of the building-set axioms."""


@dataclass(frozen=True)
class BuildingSet:
    n_plus_1: int
    elements: frozenset[frozenset[int]]

    @property
    def full_set(self) -> frozenset[int]:
        return frozenset(range(1, self.n_plus_1 + 1))

    @property
    def is_connected(self) -> bool:
        return self.full_set in self.elements

    def proper_elements(self) -> list[frozenset[int]]:
        """Elements other than the full set, in the fixed column order:
        singletons in natural order, then descending cardinality with
        lexicographic tie-break."""
        proper = [s for s in self.elements if s != self.full_set]
        singles = sorted((s for s in proper if len(s) == 1), key=min)
        rest = sorted(
            (s for s in proper if len(s) > 1),
            key=lambda s: (-len(s), tuple(sorted(s))),
        )
        return singles + rest

    def to_json_obj(self) -> dict:
        return {
            "n_plus_1": self.n_plus_1,
            "elements": sorted([sorted(e) for e in self.elements]),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BuildingSet":
        return validate_building_set(
            [frozenset(map(json_int, e)) for e in obj["elements"]], json_int(obj["n_plus_1"])
        )


def validate_building_set(elements, n_plus_1: int) -> BuildingSet:
    """Check both axioms and report the violated one."""
    elems = frozenset(frozenset(e) for e in elements)
    ground = frozenset(range(1, n_plus_1 + 1))
    for e in elems:
        if not e or not e <= ground:
            raise BuildingSetError(f"element {sorted(e)} not a nonempty subset of [{n_plus_1}]")
    for i in ground:
        if frozenset({i}) not in elems:
            raise BuildingSetError(f"missing singleton {{{i}}}")
    for a, b in combinations(elems, 2):
        if a & b and (a | b) not in elems:
            raise BuildingSetError(
                f"union axiom violated: {sorted(a)} meets {sorted(b)} "
                f"but {sorted(a | b)} is absent"
            )
    return BuildingSet(n_plus_1, elems)


@dataclass(frozen=True)
class Halfspace:
    """coeffs . x >= rhs, labelled; element is set for nestohedral facets."""

    label: str
    coeffs: tuple[int, ...]
    rhs: int
    element: frozenset[int] | None = None


@dataclass(frozen=True)
class NestohedronRealization:
    """Exact vertex description of a simple polytope in the level hyperplane."""

    ambient: int
    level: int  # sum of coordinates on the defining hyperplane
    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[tuple[int, ...], ...]
    incidence: tuple[frozenset[int], ...]  # halfspace indices tight per vertex

    def facet_vertex_sets(self) -> list[frozenset[int]]:
        """Per halfspace, the set of vertex indices lying on it."""
        out = []
        for h_idx in range(len(self.halfspaces)):
            out.append(frozenset(v for v, inc in enumerate(self.incidence) if h_idx in inc))
        return out

    def to_json_obj(self) -> dict:
        return {
            "ambient": self.ambient,
            "level": str(self.level),
            "halfspaces": [
                {
                    "label": h.label,
                    "coeffs": list(h.coeffs),
                    "rhs": str(h.rhs),
                    "element": sorted(h.element) if h.element is not None else None,
                }
                for h in self.halfspaces
            ],
            "vertices": [[str(c) for c in v] for v in self.vertices],
            "incidence": [sorted(inc) for inc in self.incidence],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "NestohedronRealization":
        return cls(
            ambient=int(obj["ambient"]),
            level=int(obj["level"]),
            halfspaces=tuple(
                Halfspace(
                    label=h["label"],
                    coeffs=tuple(h["coeffs"]),
                    rhs=int(h["rhs"]),
                    element=frozenset(h["element"]) if h["element"] is not None else None,
                )
                for h in obj["halfspaces"]
            ),
            vertices=tuple(tuple(map(int, v)) for v in obj["vertices"]),
            incidence=tuple(frozenset(inc) for inc in obj["incidence"]),
        )


def element_label(S) -> str:
    """Label of a building-set element, e.g. "{1,2,4}"."""
    return "{" + ",".join(map(str, sorted(S))) + "}"


def _realize(B: BuildingSet, y: dict[frozenset[int], int], orderings) -> NestohedronRealization:
    """Postnikov's generalized permutohedron sum_T y_T Delta_T for integer
    coefficients y on subsets T of [n+1], in the hyperplane sum(x) = sum(y).

    Each proper element S of B gives the halfspace sum_{i in S} x_i >= z(S),
    where z(S) = sum_{T subset of S} y_T.  Each ordering w of the 0-based
    coordinates gives the point sum_T y_T e_{last_w(T)}: coordinate w_k is z
    of the prefix through w_k minus z of the prefix before it.
    _certified_incidence proves that these points are all the vertices.
    """
    n1 = B.n_plus_1
    masks = [(mask_of(T), c) for T, c in y.items()]

    @cache
    def z(I: int) -> int:
        return sum(c for t, c in masks if t & ~I == 0)

    points = set()
    for w in orderings:
        x = [0] * n1
        prefix = 0
        for i in w:
            x[i] = z(prefix | 1 << i) - z(prefix)
            prefix |= 1 << i
        points.add(tuple(x))
    points = sorted(points)
    proper = B.proper_elements()
    rows = [(tuple(1 if i in S else 0 for i in range(1, n1 + 1)), z(mask_of(S))) for S in proper]
    incidence = _certified_incidence(rows, points, n1 - 1)
    halfspaces = tuple(Halfspace(element_label(S), a, b, S) for S, (a, b) in zip(proper, rows))
    return NestohedronRealization(n1, sum(y.values()), halfspaces, tuple(points), incidence)


def _certified_incidence(rows, points, n: int) -> tuple[frozenset[int], ...]:
    """Per integer point, the indices of the halfspaces coeffs . x >= rhs in
    rows that it is tight on.

    Raises AssertionError unless each point satisfies every halfspace and is
    tight on exactly n of them, whose normals are independent of each other
    and of the all-ones level row, so it is a simple vertex; and the tight
    sets close up: every (n-1)-subset of one lies in exactly two.  Then every
    edge from a listed vertex ends at a listed vertex, and the graph of a
    bounded polytope is connected, so no vertex is missing.
    """
    from .toric import det_int

    incidence = []
    for p in points:
        slack = [sum(map(mul, coeffs, p)) - rhs for coeffs, rhs in rows]
        if min(slack, default=0) < 0:
            raise AssertionError(f"point {p} violates a halfspace")
        tight = frozenset(j for j, d in enumerate(slack) if d == 0)
        if len(tight) != n:
            raise AssertionError(f"non-simple vertex {p}: tight on {len(tight)} facets")
        if det_int([rows[j][0] for j in sorted(tight)] + [(1,) * len(p)]) == 0:
            raise AssertionError(f"point {p} is not a vertex: its tight normals are dependent")
        incidence.append(tight)
    if not ridges_in_two(mask_of(j + 1 for j in t) for t in incidence):
        raise AssertionError("the tight sets do not close up: an edge leaves the points")
    return tuple(incidence)


def _forest_orderings(B: BuildingSet) -> list[tuple[int, ...]]:
    """One ordering of the 0-based coordinates per B-forest: the maximal
    elements of B inside the remaining set partition it, and each of them
    ends with a chosen root after an ordering of the rest of it.  For y > 0
    on B the normal fan of sum_S y_S Delta_S is the nested fan of B
    (Postnikov 2009, Thm 7.4), so these reach every vertex once, at a cost
    proportional to the number of vertices, not to (n+1)!."""
    by_size = sorted(map(mask_of, B.elements), key=int.bit_count, reverse=True)

    def orderings(I: int) -> list[tuple[int, ...]]:
        out, covered = [()], 0
        for C in by_size:
            if C & ~I == 0 and not C & covered:
                covered |= C
                rest = [(w, c - 1) for c in vertices_of(C) for w in orderings(C & ~(1 << c - 1))]
                out = [u + w + (c,) for u in out for w, c in rest]
        return out

    return orderings(mask_of(B.full_set))


def realize_nestohedron(B: BuildingSet) -> NestohedronRealization:
    """The nestohedron sum_{S in B} Delta_S: y = 1 on each element of B, so
    z(S) = |B restricted to S| at level |B|, read off the B-forests."""
    if not B.is_connected:
        raise BuildingSetError("realization requires a connected building set")
    return _realize(B, dict.fromkeys(B.elements, 1), _forest_orderings(B))


@dataclass(frozen=True)
class NerveComplex:
    """Boundary complex of the dual simplicial polytope, with facet labels."""

    complex: SimplicialComplex
    labels: tuple[str, ...]  # label of each vertex position 1..m

    def labelled_facets(self) -> frozenset[frozenset[str]]:
        """Facets as sets of labels: equal for two nerves exactly when they
        are the same labelled complex, whatever their vertex order."""
        return frozenset(
            frozenset(self.labels[v - 1] for v in vertices_of(f)) for f in self.complex.facets
        )


def nerve_of_realization(R: NestohedronRealization) -> NerveComplex:
    """Nerve of the facet covering: one vertex per nonempty facet."""
    facet_sets = R.facet_vertex_sets()
    active = [i for i, vs in enumerate(facet_sets) if vs]
    position = {h: p + 1 for p, h in enumerate(active)}
    facets = [
        mask_of(position[h] for h in inc if h in position) for inc in R.incidence
    ]
    K = SimplicialComplex(len(active), _antichain(facets))
    return NerveComplex(K, tuple(R.halfspaces[h].label for h in active))


def nerve_by_truncation(B: BuildingSet) -> NerveComplex:
    """Nerve complex built by stellar subdivisions along the truncation lemma.

    Starts from the boundary of the simplex on the singleton labels and
    subdivides at the face spanned by the minimal decomposition of each
    non-simplex element, processed in inclusion-reverse order.
    """
    if not B.is_connected:
        raise BuildingSetError("truncation nerve requires a connected building set")
    n1 = B.n_plus_1
    base = {frozenset({i}) for i in range(1, n1 + 1)} | {B.full_set}
    if not base <= B.elements:
        raise BuildingSetError("building set must contain the simplex building set")
    K = SimplicialComplex.simplex_boundary(n1)
    labels = [frozenset({i}) for i in range(1, n1 + 1)]
    todo = sorted(
        B.elements - base, key=lambda s: (-len(s), tuple(sorted(s)))
    )
    current = set(base)
    for S in todo:
        maximal = [
            e for e in current
            if e < S and not any(e < other < S for other in current)
        ]
        covered = frozenset().union(*maximal) if maximal else frozenset()
        if covered != S or sum(len(e) for e in maximal) != len(S):
            raise BuildingSetError(f"no disjoint decomposition of {sorted(S)}")
        face = mask_of(labels.index(e) + 1 for e in maximal)
        if not K.is_face(face):
            raise BuildingSetError(f"decomposition of {sorted(S)} is not a face; bad order")
        K = K.stellar_subdivision(face)
        labels.append(S)
        current.add(S)
    return NerveComplex(K, tuple(element_label(s) for s in labels))


def delzant_check(R: NestohedronRealization, Lambda) -> bool:
    """Every vertex's tight-facet columns must form a lattice basis: Lambda,
    matched to the nerve's vertices by facet label, is characteristic."""
    from .toric import validate_charmap

    nerve = nerve_of_realization(R)
    return validate_charmap(nerve.complex, Lambda.on(nerve.labels))[0]


def realize_p6():
    """The one non-nestohedral type, as a generalized permutohedron.

    It is sum_T y_T Delta_T on the type-1 building set B_1 with the signed
    coefficients y_{4} = -2, y_{i,4} = 1 for i = 1, 2, 3, y_T = 1 for each of
    the four triples T and y_{1,2,3,4} = -2; the level is sum(y) = 3.  Its
    halfspaces are those of the type-1 nestohedron with other right-hand
    sides: x_i >= 0 for i = 1, 2, 3, x_4 >= -2 and sum_{i in T} x_i >= 1 for
    the triples.  This is the cube [0,2]^3 in (x_1, x_2, x_3) with the two
    opposite corners where x_1 + x_2 + x_3 is 0 or 6 cut off.  Returns the
    polytope with its Delzant matrix fenn_charmap(B_1), whose column set is
    the published type-6 matrix.  Its normal fan is not the nested fan of
    B_1, so its vertices are read off all 24 orderings of [4], not the B_1
    forests.  Only the vertices are certified here: the verify rows `type 6
    nerve` and `type 6 Delzant` certify the rest.
    """
    from . import golden
    from .toric import fenn_charmap

    B1 = golden.golden_building_set(1)
    y = {frozenset(T): 1 for T in [(1, 4), (2, 4), (3, 4), *combinations((1, 2, 3, 4), 3)]}
    y.update({frozenset({4}): -2, frozenset({1, 2, 3, 4}): -2})
    return _realize(B1, y, permutations(range(4))), fenn_charmap(B1)


# -- OFF export -------------------------------------------------------------

def _facet_cycles(R: NestohedronRealization) -> list[list[int]]:
    """Vertex indices of each nonempty facet, ordered cyclically (3-polytopes).

    Ordering uses floating point only; membership is exact.
    """
    cycles = []
    for vs in R.facet_vertex_sets():
        idxs = sorted(vs)
        if not idxs:
            continue
        pts = [tuple(float(c) for c in R.vertices[i]) for i in idxs]
        cx = [sum(p[k] for p in pts) / len(pts) for k in range(len(pts[0]))]
        rel = [tuple(p[k] - cx[k] for k in range(len(p))) for p in pts]
        u = rel[0]
        # Gram-Schmidt a second in-plane axis from any independent rel vector
        def dot(a, b):
            return sum(x * y for x, y in zip(a, b))
        w = next(r for r in rel[1:] if abs(dot(r, u)) ** 2 < dot(r, r) * dot(u, u) * (1 - 1e-12))
        proj = dot(w, u) / dot(u, u)
        v2 = tuple(w[k] - proj * u[k] for k in range(len(w)))
        angles = [atan2(dot(r, v2), dot(r, u)) for r in rel]
        cycles.append([i for _, i in sorted(zip(angles, idxs))])
    return cycles


def write_off(R: NestohedronRealization) -> str:
    """OFF text: decimal coordinates in the body, exact integers in comments.

    The body drops the last ambient coordinate (an affine bijection on the
    level hyperplane) so standard 3-coordinate viewers can read the file;
    the comments and the JSON twin keep every exact coordinate.
    """
    cycles = _facet_cycles(R)
    lines = ["OFF"]
    edge_count = sum(len(c) for c in cycles) // 2
    lines.append(f"{len(R.vertices)} {len(cycles)} {edge_count}")
    for v in R.vertices:
        lines.append("# " + " ".join(str(c) for c in v))
        lines.append(" ".join(repr(float(c)) for c in v[:-1]))
    for cyc in cycles:
        lines.append(str(len(cyc)) + " " + " ".join(map(str, cyc)))
    return "\n".join(lines) + "\n"


def read_off(text: str) -> dict:
    """Parse the subset of OFF emitted by write_off."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "OFF":
        raise ValueError("not an OFF file")
    nv, nf, ne = map(int, lines[1].split())
    vertices = [[float(x) for x in lines[2 + i].split()] for i in range(nv)]
    faces = []
    for i in range(nf):
        parts = list(map(int, lines[2 + nv + i].split()))
        if parts[0] != len(parts) - 1:
            raise ValueError("malformed face row")
        faces.append(parts[1:])
    return {"vertices": vertices, "faces": faces, "edges": ne}

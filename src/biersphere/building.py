"""Building sets and exact nestohedron geometry.

Every polytope here is Postnikov's generalized permutohedron sum_T y_T Delta_T
for integer coefficients y: y = 1 on each element of B for the nestohedron of
B, and a signed table on the type-1 building set for type 6.  Its halfspaces
are sum_{i in S} x_i >= sum_{T subset of S} y_T over the proper elements S of
B, on the level hyperplane sum(x) = sum(y).  Vertices are read off
orderings of the ground set in integers, one per B-forest for a nestohedron
and all 24 for type 6, and certified, not searched for: each is feasible and
simple, their tight sets close up, so no vertex is missing, and every
halfspace is tight at one of them, so each halfspace is a facet.  So the
nerve has one vertex per halfspace, and its size and the facet count that
`bier nestohedron` prints are certified, not assumed.  No float occurs: the
OFF export walks the certified incidence and prints integer coordinates.
The records are named tuples, so they equal plain tuples (see complexes).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations, compress, permutations

from .complexes import (
    SimplicialComplex,
    json_int,
    mask_of,
    ridges_in_two,
    vertices_of,
)


class BuildingSetError(ValueError):
    """A family violating one of the building-set axioms."""


class BuildingSet(namedtuple("BuildingSet", "n_plus_1 elements")):
    __slots__ = ()

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


# coeffs . x >= rhs, labelled by the building-set element it bounds
Halfspace = namedtuple("Halfspace", "label coeffs rhs element")


class NestohedronRealization(
    namedtuple("NestohedronRealization", "ambient level halfspaces vertices incidence")
):
    """Exact vertex description of a simple polytope in the level hyperplane
    (of coordinate sum level), with the halfspaces tight at each vertex."""

    __slots__ = ()

    def facet_vertex_sets(self) -> list[frozenset[int]]:
        """Per halfspace, the set of vertex indices lying on it."""
        out: list[set[int]] = [set() for _ in self.halfspaces]
        for v, inc in enumerate(self.incidence):
            for h in inc:
                out[h].add(v)
        return [frozenset(vs) for vs in out]

    def to_json_obj(self) -> dict:
        return {
            "ambient": self.ambient,
            "level": str(self.level),
            "halfspaces": [
                {
                    "label": h.label,
                    "coeffs": list(h.coeffs),
                    "rhs": str(h.rhs),
                    "element": sorted(h.element),
                }
                for h in self.halfspaces
            ],
            "vertices": [[str(c) for c in v] for v in self.vertices],
            "incidence": [sorted(inc) for inc in self.incidence],
        }


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
    rows that it is tight on.  Every normal coeffs is the 0/1 indicator of a
    set, as _realize builds them, so coeffs . x is the sum of x over it.

    Raises AssertionError unless each point satisfies every halfspace and is
    tight on exactly n of them, whose normals are independent of each other
    and of the all-ones level row, so it is a simple vertex; and the tight
    sets close up: every (n-1)-subset of one lies in exactly two.  Then every
    edge from a listed vertex ends at a listed vertex, and the graph of a
    bounded polytope is connected, so no vertex is missing.  Last, every
    halfspace must be tight at some listed vertex: a halfspace tight at a
    simple vertex is one of its n facets, so each halfspace is a facet.

    Independence is decided over F_2 first: rows independent there have an
    odd determinant, so a nonzero one, and the exact det_int runs only when
    _odd_rank finds a dependency.  At a Delzant vertex the determinant is
    +-1, so no nestohedron and no type-6 vertex reaches det_int.
    """
    masks = [sum(c << i for i, c in enumerate(coeffs)) for coeffs, _ in rows]
    incidence = []
    for p in points:
        slack = [sum(compress(p, coeffs)) - rhs for coeffs, rhs in rows]
        if min(slack, default=0) < 0:
            raise AssertionError(f"point {p} violates a halfspace")
        tight = frozenset(j for j, d in enumerate(slack) if d == 0)
        if len(tight) != n:
            raise AssertionError(f"non-simple vertex {p}: tight on {len(tight)} facets")
        level = (1 << len(p)) - 1
        if not _odd_rank([masks[j] for j in tight] + [level]) and (
            det_int([rows[j][0] for j in sorted(tight)] + [(1,) * len(p)]) == 0
        ):
            raise AssertionError(f"point {p} is not a vertex: its tight normals are dependent")
        incidence.append(tight)
    if not ridges_in_two(mask_of(j + 1 for j in t) for t in incidence):
        raise AssertionError("the tight sets do not close up: an edge leaves the points")
    untouched = set(range(len(rows))).difference(*incidence)
    if untouched:
        raise AssertionError(f"halfspace {min(untouched)} is tight at no vertex: not a facet")
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


# boundary complex of the dual simplicial polytope, labelled per vertex
NerveComplex = namedtuple("NerveComplex", "complex labels")


def nerve_of_realization(R: NestohedronRealization) -> NerveComplex:
    """Nerve of the facet covering: vertex h + 1 is halfspace h, and each
    polytope vertex gives the facet of the halfspaces tight at it.

    Every halfspace is a facet, as _certified_incidence proves, so no
    position is empty.  Distinct simple vertices have distinct tight n-sets,
    so these facets already form an antichain.
    """
    facets = frozenset(mask_of(h + 1 for h in inc) for inc in R.incidence)
    labels = tuple(h.label for h in R.halfspaces)
    return NerveComplex(SimplicialComplex(len(labels), facets), labels)


def nerve_by_truncation(B: BuildingSet) -> NerveComplex:
    """The nerve of the nestohedron of B by the truncation lemma.

    The nestohedron is the simplex with the face of each element of B
    truncated, largest first (Feichtner-Sturmfels 2005; Postnikov 2009), and
    truncating a face of a simple polytope stellarly subdivides its nerve at
    the dual face.  So the nerve is the boundary of the simplex on the
    singletons, vertex i for {i}, subdivided at the face of S's singletons
    for each proper non-singleton element S, by size descending, then
    lexicographically.  That is the order of B.proper_elements(), in which
    realize_nestohedron numbers its halfspaces, so the record equals
    nerve_of_realization's, labels and vertex numbers included.

    Proof that S's singleton face is the face to subdivide, and is there:
    every element placed before S besides the singletons is at least as
    large as S and differs from it, so none lies inside S, and S's maximal
    sub-elements so far are exactly its singletons.  Subdividing at an
    earlier T keeps every face that does not contain T's singleton face, so
    S's singleton face, a face of the simplex boundary as S is proper, is
    still present.
    """
    if not B.is_connected:
        raise BuildingSetError("truncation nerve requires a connected building set")
    n1 = B.n_plus_1
    singles = [frozenset({i}) for i in range(1, n1 + 1)]
    if not B.elements.issuperset(singles):
        raise BuildingSetError("building set must contain the simplex building set")
    rest = sorted(B.elements - {*singles, B.full_set}, key=lambda s: (-len(s), tuple(sorted(s))))
    K = SimplicialComplex.simplex_boundary(n1)
    for S in rest:
        if not S or not S <= B.full_set:
            raise BuildingSetError(f"element {sorted(S)} not a nonempty subset of [{n1}]")
        K = K.stellar_subdivision(mask_of(S))
    return NerveComplex(K, tuple(map(element_label, singles + rest)))


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
    forests.  Only the vertices and one facet per halfspace are certified
    here: the verify rows `type 6 nerve` and `type 6 Delzant` certify the
    rest.
    """
    from .toric import fenn_charmap

    B1 = BuildingSet(4, frozenset(  # the singletons, the four triples and [4]
        frozenset(T) for k in (1, 3, 4) for T in combinations(range(1, 5), k)))
    y = {frozenset(T): 1 for T in [(1, 4), (2, 4), (3, 4), *combinations((1, 2, 3, 4), 3)]}
    y.update({frozenset({4}): -2, frozenset({1, 2, 3, 4}): -2})
    return _realize(B1, y, permutations(range(4))), fenn_charmap(B1)


# -- Exact linear algebra ---------------------------------------------------

def _odd_rank(masks) -> bool:
    """Whether the 0/1 rows with these bit masks are independent over F_2,
    by XOR elimination.  For n + 1 rows on n + 1 coordinates that says
    their integer determinant is odd, so not 0."""
    basis = []
    for r in masks:
        for b in basis:
            if r & b & -b:  # b's pivot is its lowest bit, which no later row has
                r ^= b
        if not r:
            return False
        basis.append(r)
    return True


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- OFF export -------------------------------------------------------------

def _facet_cycles(R: NestohedronRealization) -> list[list[int]]:
    """Each facet's vertices from the least, counter-clockwise seen from outside.

    Every vertex is simple (_certified_incidence), so any two of its three
    tight halfspaces meet the polytope in an edge, whose other end is the
    vertex sharing them: vertices sharing exactly two tight halfspaces are
    an edge.  The walk steps along edges and is reversed when its first
    vertices a, b, c turn clockwise seen from outside, which is away from a
    vertex q off the facet: det(b-a, c-b, q-a) > 0.
    """
    body = [v[:-1] for v in R.vertices]
    cycles = []
    for vs in R.facet_vertex_sets():
        cycle = [min(vs)]
        while len(cycle) < len(vs):
            tight = R.incidence[cycle[-1]]
            cycle.append(min(v for v in vs.difference(cycle) if len(R.incidence[v] & tight) == 2))
        a, b, c = (body[v] for v in cycle[:3])
        q = body[min(set(range(len(body))) - vs)]
        if det_int([[s - t for s, t in zip(u, w)] for u, w in ((b, a), (c, b), (q, a))]) > 0:
            cycle[1:] = cycle[:0:-1]
        cycles.append(cycle)
    return cycles


def write_off(R: NestohedronRealization) -> str:
    """OFF text in exact integers.  The body drops the last ambient coordinate
    (an affine bijection on the level hyperplane) for 3-coordinate viewers;
    the comments and the JSON twin keep every coordinate.
    """
    if R.ambient != 4:
        raise ValueError(f"OFF export needs a 3-polytope (n_plus_1 = 4), got {R.ambient}")
    cycles = _facet_cycles(R)
    lines = ["OFF"]
    edge_count = sum(len(c) for c in cycles) // 2
    lines.append(f"{len(R.vertices)} {len(cycles)} {edge_count}")
    for v in R.vertices:
        lines.append("# " + " ".join(str(c) for c in v))
        lines.append(" ".join(str(c) for c in v[:-1]))
    for cyc in cycles:
        lines.append(str(len(cyc)) + " " + " ".join(map(str, cyc)))
    return "\n".join(lines) + "\n"

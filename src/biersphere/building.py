"""Building sets and exact nestohedron geometry.

Realizations intersect the level hyperplane sum(x) = |B| with the halfspaces
sum_{i in S} x_i >= |B restricted to S|; the non-nestohedral type 6 keeps
those normals with other right-hand sides.  Vertices are enumerated by solving
every square subsystem by Cramer's rule on the integer determinant det_int,
the same kernel that certifies characteristic matrices.  No floating point
enters any decision; floats only order vertices cosmetically in the OFF
export.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import atan2

from .complexes import SimplicialComplex, _antichain, mask_of, vertices_of


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

    def restriction_size(self, S: frozenset[int]) -> int:
        return sum(1 for e in self.elements if e <= S)

    def to_json_obj(self) -> dict:
        return {
            "n_plus_1": self.n_plus_1,
            "elements": sorted([sorted(e) for e in self.elements]),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BuildingSet":
        return validate_building_set(
            [frozenset(e) for e in obj["elements"]], int(obj["n_plus_1"])
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


# -- exact linear algebra -------------------------------------------------

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


@dataclass(frozen=True)
class Halfspace:
    """coeffs . x >= rhs, labelled; element is set for nestohedral facets."""

    label: str
    coeffs: tuple[int, ...]
    rhs: Fraction
    element: frozenset[int] | None = None


@dataclass(frozen=True)
class NestohedronRealization:
    """Exact vertex description of a simple polytope in the level hyperplane."""

    ambient: int
    level: Fraction  # sum of coordinates on the defining hyperplane
    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    incidence: tuple[frozenset[int], ...]  # halfspace indices tight per vertex

    @property
    def dim(self) -> int:
        return self.ambient - 1

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
            level=Fraction(obj["level"]),
            halfspaces=tuple(
                Halfspace(
                    label=h["label"],
                    coeffs=tuple(h["coeffs"]),
                    rhs=Fraction(h["rhs"]),
                    element=frozenset(h["element"]) if h["element"] is not None else None,
                )
                for h in obj["halfspaces"]
            ),
            vertices=tuple(tuple(Fraction(c) for c in v) for v in obj["vertices"]),
            incidence=tuple(frozenset(inc) for inc in obj["incidence"]),
        )


def _enumerate_vertices(
    ambient: int, level: Fraction, halfspaces: tuple[Halfspace, ...]
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[frozenset[int], ...]]:
    """Brute-force vertex enumeration inside the level hyperplane.

    Solves each (ambient x ambient) system of dim tight halfspaces plus the
    hyperplane by Cramer's rule on integer determinants, tests feasibility
    as integer inequalities c . N >= rhs * D before any fraction is built,
    dedupes, and recomputes incidence from scratch so simplicity can be
    asserted independently.
    """
    if level.denominator != 1 or any(h.rhs.denominator != 1 for h in halfspaces):
        raise AssertionError("the H-representation must be integral")
    dim = ambient - 1
    points: list[tuple[Fraction, ...]] = []
    for tight in combinations(range(len(halfspaces)), dim):
        rows = [list(halfspaces[i].coeffs) for i in tight] + [[1] * ambient]
        rhs = [halfspaces[i].rhs.numerator for i in tight] + [level.numerator]
        D = det_int(rows)
        if D == 0:
            continue
        N = [
            det_int([r[:j] + [b] + r[j + 1:] for r, b in zip(rows, rhs)])
            for j in range(ambient)
        ]
        if D < 0:
            D, N = -D, [-x for x in N]
        if all(
            sum(c * x for c, x in zip(h.coeffs, N)) >= h.rhs.numerator * D
            for h in halfspaces
        ):
            pt = tuple(Fraction(x, D) for x in N)
            if pt not in points:
                points.append(pt)
    points.sort()
    incidence = []
    for pt in points:
        tightset = frozenset(
            i
            for i, h in enumerate(halfspaces)
            if sum(Fraction(c) * x for c, x in zip(h.coeffs, pt)) == h.rhs
        )
        if len(tightset) != dim:
            raise AssertionError(f"non-simple vertex {pt}: tight on {len(tightset)} facets")
        incidence.append(tightset)
    return tuple(points), tuple(incidence)


def element_label(S) -> str:
    """Label of a building-set element, e.g. "{1,2,4}"."""
    return "{" + ",".join(map(str, sorted(S))) + "}"


def _realize(B: BuildingSet, z, level: int) -> NestohedronRealization:
    """The polytope sum(x) = level, sum_{i in S} x_i >= z(S) for each proper
    element S of B (Postnikov's H-representation), enumerated exactly."""
    ambient = B.n_plus_1
    halfspaces = tuple(
        Halfspace(
            label=element_label(S),
            coeffs=tuple(1 if i in S else 0 for i in range(1, ambient + 1)),
            rhs=Fraction(z(S)),
            element=S,
        )
        for S in B.proper_elements()
    )
    level = Fraction(level)
    vertices, incidence = _enumerate_vertices(ambient, level, halfspaces)
    return NestohedronRealization(ambient, level, halfspaces, vertices, incidence)


def realize_nestohedron(B: BuildingSet) -> NestohedronRealization:
    """The nestohedron: z(S) = |B restricted to S| at level |B|."""
    if not B.is_connected:
        raise BuildingSetError("realization requires a connected building set")
    return _realize(B, B.restriction_size, len(B.elements))


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

    Same facet normals as the type-1 nestohedron, other right-hand sides:
    x_i >= 0 for i = 1, 2, 3, x_4 >= -2 and sum_{i in T} x_i >= 1 for the
    four triples T, at level 3.  This is the cube [0,2]^3 in (x_1, x_2, x_3) with the two
    opposite corners where x_1 + x_2 + x_3 is 0 or 6 cut off.  Returns the
    polytope with its Delzant matrix fenn_charmap(B_1), whose column set is
    the published type-6 matrix.  Asserts neither: the verify rows
    `type 6 nerve` and `type 6 Delzant` are the certificates.
    """
    from . import golden
    from .toric import fenn_charmap

    B1 = golden.golden_building_set(1)

    def z(S):
        if len(S) == 3:
            return 1
        return -2 if S == {4} else 0

    return _realize(B1, z, 3), fenn_charmap(B1)


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
    """OFF text: decimal coordinates in the body, exact fractions in comments.

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

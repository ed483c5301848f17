"""Characteristic matrices, certificates, and small-cover invariants.

All determinant work is exact integer arithmetic (fraction-free
elimination); the mod-2 material reduces the same matrices.
The records are named tuples, so they equal plain tuples (see complexes).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from operator import mul

from .complexes import SimplicialComplex, json_int, vertices_of
from .bier import bier_sphere, side_label
from .building import BuildingSetError, det_int, element_label


class CharMatrix(namedtuple("CharMatrix", "entries labels")):
    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...], labels: tuple[str, ...]):
        if any(len(r) != len(labels) for r in entries):
            raise ValueError("row length does not match label count")
        return super().__new__(cls, entries, labels)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.labels)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[r][j] for r in range(self.rows))

    def on(self, labels) -> "CharMatrix":
        """The columns with the given labels, in that order: the matrix
        laid out on a complex whose vertex positions carry those labels."""
        missing = [lab for lab in labels if lab not in self.labels]
        if missing:
            raise ValueError(f"matrix columns do not match facet labels: none for {missing}")
        cols = [self.labels.index(lab) for lab in labels]
        return CharMatrix(
            entries=tuple(tuple(row[j] for j in cols) for row in self.entries),
            labels=tuple(labels),
        )

    def mod2(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(x % 2 for x in row) for row in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(r) for r in self.entries],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CharMatrix":
        labels = obj["labels"]
        if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
            raise TypeError(f"labels must be a list of strings, got {labels!r}")
        mat = cls(
            entries=tuple(tuple(map(json_int, r)) for r in obj["entries"]),
            labels=tuple(labels),
        )
        if mat.rows != json_int(obj["rows"]) or mat.cols != json_int(obj["cols"]):
            raise ValueError("declared shape does not match entries")
        return mat


def bier_charmap(m: int) -> CharMatrix:
    """(m-1) x 2m labelling of Bier spheres on [m]: i and i' to e_i for
    i < m, both m-columns to the all-ones vector."""
    if m < 2:
        raise ValueError("the ground set must have size >= 2")
    n = m - 1
    ones = tuple(1 for _ in range(n))
    cols = []
    for _ in range(2):
        for i in range(n):
            cols.append(tuple(1 if r == i else 0 for r in range(n)))
        cols.append(ones)
    entries = tuple(tuple(col[r] for col in cols) for r in range(n))
    labels = tuple(side_label(p, m) for p in range(1, 2 * m + 1))
    return CharMatrix(entries=entries, labels=labels)


def bad_facets(facets, Lambda: CharMatrix):
    """The masks among facets, in the order given, whose column submatrix
    (column j for ground position j+1) does not have determinant +-1."""
    n = Lambda.rows
    for facet in facets:
        verts = vertices_of(facet)
        if len(verts) != n:
            raise ValueError(f"facet of size {len(verts)} against {n} rows")
        minor = [[Lambda.entries[r][v - 1] for v in verts] for r in range(n)]
        if det_int(minor) not in (1, -1):
            yield facet


def validate_charmap(
    K: SimplicialComplex, Lambda: CharMatrix
) -> tuple[bool, int | None]:
    """Check every facet's column submatrix has determinant +-1.

    Column j of the matrix corresponds to ground position j+1.  Returns
    (True, None) or (False, first offending facet mask in increasing mask
    order), evaluating minors up to that facet.  ``verify.check_buchstaber``
    passes the union of the census spheres' facets on [m] to
    ``bad_facets`` instead, so each distinct minor is evaluated once per m.
    """
    if Lambda.cols != K.m:
        raise ValueError("column count must equal the ground-set size")
    bad = next(bad_facets(sorted(K.facets), Lambda), None)
    return bad is None, bad


# A labelling of a Bier sphere and the bound it attains: s = s_R =
# upper_bound when bad_facet is None, else the facet it fails on.
BuchstaberCertificate = namedtuple("BuchstaberCertificate", "sphere matrix upper_bound bad_facet")


def buchstaber_certificate(K: SimplicialComplex) -> BuchstaberCertificate:
    """Certify s = s_R = m+1 for Bier(K) by the doubled-ground labelling.

    The bound is the sphere's ground size minus its dimension minus one
    (2m - (m-2) - 1 = m+1); the labelling attains it exactly when it is
    characteristic, so a failed certificate names its first bad facet.
    """
    S = bier_sphere(K)
    Lambda = bier_charmap(K.m)
    _, bad = validate_charmap(S.complex, Lambda)
    return BuchstaberCertificate(S, Lambda, S.complex.m - S.complex.dim - 1, bad)


def fenn_charmap(B) -> CharMatrix:
    """Canonical Delzant matrix of a nestohedron, one column per proper
    element: v_i = 1 if i in S without n+1, -1 if n+1 in S without i, else 0.
    """
    if not B.is_connected:
        raise BuildingSetError("Fenn matrix requires a connected building set")
    n1 = B.n_plus_1
    n = n1 - 1
    proper = B.proper_elements()
    entries = []
    for i in range(1, n + 1):
        row = []
        for S in proper:
            if i in S and n1 not in S:
                row.append(1)
            elif i not in S and n1 in S:
                row.append(-1)
            else:
                row.append(0)
        entries.append(tuple(row))
    return CharMatrix(entries=tuple(entries), labels=tuple(map(element_label, proper)))


class CohomologyPresentation(
    namedtuple(
        "CohomologyPresentation", "generators monomial_relations linear_relations betti"
    )
):
    """betti holds beta_0, beta_2, ..., beta_2n."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "generators": list(self.generators),
            "monomial_relations": [list(rel) for rel in self.monomial_relations],
            "linear_relations": [list(r) for r in self.linear_relations],
            "betti": list(self.betti),
        }


def cohomology_presentation(
    K: SimplicialComplex, Lambda: CharMatrix
) -> CohomologyPresentation:
    """Generators-and-relations description of the associated quasitoric
    manifold's cohomology; even Betti numbers are the h-vector entries."""
    ok, bad = validate_charmap(K, Lambda)
    if not ok:
        raise ValueError(f"matrix is not valid for the complex (facet {list(vertices_of(bad))})")
    gens = tuple(f"v{i}" for i in range(1, K.m + 1))
    monomials = tuple(
        tuple(f"v{v}" for v in vertices_of(s)) for s in K.minimal_non_faces()
    )
    return CohomologyPresentation(
        generators=gens,
        monomial_relations=monomials,
        linear_relations=Lambda.entries,
        betti=tuple(K.h_vector()),
    )


def small_cover_orientable(Lambda: CharMatrix):
    """Orientability of the small cover over a 3-polytope, with a basis
    b1, b2, b3 of F_2^3 whose set {b1, b2, b3, b1+b2+b3} contains every
    column mod 2, or None (Nakayama-Nishimura 2005).

    Those sets are the seven affine planes {v : phi . v = 1}, phi != 0, and
    any three points of one such plane are a basis, so the witness is the
    least three points, in product order, of the least plane (as a sorted
    list of points) that holds the columns.
    """
    if Lambda.rows != 3:
        raise ValueError("criterion implemented for three rows only")
    columns = set(zip(*Lambda.mod2()))
    vecs = list(product((0, 1), repeat=3))
    planes = ([v for v in vecs if sum(map(mul, phi, v)) % 2] for phi in vecs[1:])
    return min((tuple(P[:3]) for P in planes if columns <= set(P)), default=None)

"""Shipped golden tables for the two-dimensional census.

The thirteen sphere types are pinned down by their minimal non-face tables
in x/y notation; the spheres themselves are rebuilt from those tables at
runtime, and ``classify`` reads them to attach the published numbering.
Matrices are stored row-wise with their published column order, given here
as the per-type facet label listing.
"""

from __future__ import annotations

from functools import lru_cache

from .bier import alexander_dual
from .building import BuildingSet, element_label
from .complexes import SimplicialComplex, mask_of
from .toric import CharMatrix

SOURCE_M = 4

# Minimal non-faces of the thirteen sphere types, x/y notation on m = 4.
MF_TABLES: dict[int, str] = {
    1: "x1x2 x1x3 x1x4 x2x3 x2x4 x3x4 y2y3y4 y1y3y4 y1y2y4 y1y2y3 "
       "x1y1 x2y2 x3y3 x4y4",
    2: "x3x4 x1x3 x1x4 x2x4 x2x3 y3y4 y1y2y4 y1y2y3 x1y1 x2y2 x3y3 x4y4",
    3: "x3x4 x1x3 x1x4 x2x4 y3y4 y1y4 y1y2y3 x1y1 x2y2 x3y3 x4y4",
    4: "x2x3 x1x3 x1x4 x2x4 y3y4 y1y2 x1y1 x2y2 x3y3 x4y4",
    5: "x3x4 x2x3 x2x4 y3y4 y2y4 y2y3 x1y1 x2y2 x3y3 x4y4",
    6: "x1x2x3 x2x4 x3x4 x1x4 y3y4 y2y4 y1y4 y1y2y3 x1y1 x2y2 x3y3 x4y4",
    7: "x1x4 x2x4 x3x4 y4 y1y2y3 x1y1 x2y2 x3y3",
    8: "x2x4 x3x4 y4 y2y3 x1y1 x2y2 x3y3",
    9: "x1x2x4 x2x3x4 x1x3x4 y4 y2y3 y1y3 y1y2 x1y1 x2y2 x3y3",
    10: "x3x4 y4 y3 x1y1 x2y2",
    11: "x1x3x4 x2x3x4 y4 y3 y1y2 x1y1 x2y2",
    12: "x1x3x4 y4 y3 y1 x2y2",
    13: "x1x2x3x4 y4 y3 y1 y2",
}

F_VECTORS: dict[int, tuple[int, int, int]] = {
    1: (8, 18, 12), 2: (8, 18, 12), 3: (8, 18, 12), 4: (8, 18, 12),
    5: (8, 18, 12), 6: (8, 18, 12), 7: (7, 15, 10), 8: (7, 15, 10),
    9: (7, 15, 10), 10: (6, 12, 8), 11: (6, 12, 8), 12: (5, 9, 6),
    13: (4, 6, 4),
}

FLAG_INDICES = frozenset({4, 5, 8, 10})

ORIENTABLE_INDICES = frozenset({1, 6, 9, 11, 12, 13})

BETTI: dict[int, tuple[int, int, int, int]] = {
    **{i: (1, 5, 5, 1) for i in (1, 2, 3, 4, 5, 6)},
    **{i: (1, 4, 4, 1) for i in (7, 8, 9)},
    **{i: (1, 3, 3, 1) for i in (10, 11)},
    12: (1, 2, 2, 1),
    13: (1, 1, 1, 1),
}

# Proper building-set elements in the published listing order (the same
# order as the characteristic-matrix columns); the full set [4] is implied.
BUILDING_SET_COLUMNS: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((1,), (2,), (3,), (4,), (1, 3, 4), (1, 2, 4), (1, 2, 3), (2, 3, 4)),
    2: ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (1, 3, 4), (2, 3, 4)),
    3: ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (2, 3), (1, 3, 4)),
    4: ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (3, 4), (1, 3, 4)),
    5: ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (3, 4), (1, 2, 4)),
    7: ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (1, 3, 4)),
    8: ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (1, 3)),
    9: ((1,), (2,), (3,), (4,), (1, 2, 3), (1, 2, 4), (1, 3, 4)),
    10: ((1,), (2,), (3,), (4,), (1, 2), (1, 2, 3)),
    11: ((1,), (2,), (3,), (4,), (1, 2, 3), (2, 3, 4)),
    12: ((1,), (2,), (3,), (4,), (1, 2, 3)),
    13: ((1,), (2,), (3,), (4,)),
}

NESTOHEDRAL_INDICES = tuple(sorted(BUILDING_SET_COLUMNS))

# Characteristic matrices of the thirteen canonical Delzant realizations,
# columns ordered as in BUILDING_SET_COLUMNS.  Type 6 has no building set;
# its published column order carries no labels, so we ship the vertex
# correspondence P6_COLUMN_OF_VERTEX below (the lexicographically least
# assignment under which the matrix is valid for the type-6 sphere).
CHAR_MATRICES: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((1, 0, 0, -1, 0, 0, 1, -1),
        (0, 1, 0, -1, -1, 0, 1, 0),
        (0, 0, 1, -1, 0, -1, 1, 0)),
    2: ((1, 0, 0, -1, 1, 1, 0, -1),
        (0, 1, 0, -1, 1, 1, -1, 0),
        (0, 0, 1, -1, 0, 1, 0, 0)),
    3: ((1, 0, 0, -1, 1, 1, 0, 0),
        (0, 1, 0, -1, 1, 1, 1, -1),
        (0, 0, 1, -1, 0, 1, 1, 0)),
    4: ((1, 0, 0, -1, 1, 1, -1, 0),
        (0, 1, 0, -1, 1, 1, -1, -1),
        (0, 0, 1, -1, 0, 1, 0, 0)),
    5: ((1, 0, 0, -1, 1, 1, -1, 0),
        (0, 1, 0, -1, 1, 1, -1, 0),
        (0, 0, 1, -1, 0, 1, 0, -1)),
    6: ((1, 0, 0, -1, 0, 0, 1, -1),
        (0, 1, 0, 0, -1, 0, 1, -1),
        (0, 0, 1, 0, 0, -1, 1, -1)),
    7: ((1, 0, 0, -1, 1, 1, 0),
        (0, 1, 0, -1, 1, 1, -1),
        (0, 0, 1, -1, 0, 1, 0)),
    8: ((1, 0, 0, -1, 1, 1, 1),
        (0, 1, 0, -1, 1, 1, 0),
        (0, 0, 1, -1, 0, 1, 1)),
    9: ((1, 0, 0, -1, 1, 0, 0),
        (0, 1, 0, -1, 1, 0, -1),
        (0, 0, 1, -1, 1, -1, 0)),
    10: ((1, 0, 0, -1, 1, 1),
         (0, 1, 0, -1, 1, 1),
         (0, 0, 1, -1, 0, 1)),
    11: ((1, 0, 0, -1, 1, -1),
         (0, 1, 0, -1, 1, 0),
         (0, 0, 1, -1, 1, 0)),
    12: ((1, 0, 0, -1, 1),
         (0, 1, 0, -1, 1),
         (0, 0, 1, -1, 1)),
    13: ((1, 0, 0, -1),
         (0, 1, 0, -1),
         (0, 0, 1, -1)),
}


# Column index of CHAR_MATRICES[6] for each sphere position
# x1, x2, x3, x4, y1, y2, y3, y4 in turn.
P6_COLUMN_OF_VERTEX = (0, 1, 2, 3, 6, 4, 5, 7)


def _parse_xy(token: str) -> int:
    """'x1y3' -> mask on 2*SOURCE_M positions."""
    verts = []
    for k in range(0, len(token), 2):
        side, idx = token[k], int(token[k + 1])
        verts.append(idx if side == "x" else SOURCE_M + idx)
    return mask_of(verts)


@lru_cache(maxsize=None)
def golden_sphere(i: int) -> SimplicialComplex:
    """Sphere type i as a complex on 8 positions, rebuilt from its MF table:
    the Alexander dual of the complex whose facets are the complements of
    the minimal non-faces."""
    m = 2 * SOURCE_M
    full = (1 << m) - 1
    dual = SimplicialComplex(
        m, frozenset(full & ~_parse_xy(tok) for tok in MF_TABLES[i].split())
    )
    return alexander_dual(dual)


def golden_building_set(i: int):
    """The published building set realizing sphere type i (i != 6)."""
    if i not in BUILDING_SET_COLUMNS:
        raise KeyError(f"no building set for type {i}")
    elements = {frozenset(s) for s in BUILDING_SET_COLUMNS[i]}
    elements.add(frozenset(range(1, SOURCE_M + 1)))
    return BuildingSet(SOURCE_M, frozenset(elements))


def appendix_matrix(i: int):
    """Characteristic matrix of type i with its published column labels."""
    rows = CHAR_MATRICES[i]
    if i == 6:
        names = tuple(f"x{j}" for j in range(1, 5)) + tuple(f"y{j}" for j in range(1, 5))
        labels = tuple(
            names[P6_COLUMN_OF_VERTEX.index(c)] for c in range(len(rows[0]))
        )
    else:
        labels = tuple(map(element_label, BUILDING_SET_COLUMNS[i]))
    return CharMatrix(entries=rows, labels=labels)

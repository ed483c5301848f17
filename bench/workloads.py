"""Benchmark workloads: inputs made from a seed, and the check of every output.

A workload turns ``(seed, scratch directory)`` into a list of operations.  An
operation is a name and a callable that runs the program on one input and
raises if the output is wrong; ``child.py`` runs each one and records the
type of whatever it raises.  The package is reached through its module
attributes (``bs.realize_nestohedron``, ``cli.main``), so the tracer's
rebinding applies to every call made here.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import biersphere as bs
from biersphere import cli
from biersphere.complexes import SimplicialComplex

# Output of ``bier classify --m 5`` on the seed commit, which later changes
# must reproduce byte for byte.
CENSUS_M5_SHA256 = {
    "classes.json": "eabfe8849b4c44cb3cdeba449f25138b3007c05a8bab7f2c6aa4f7bde3b73a6a",
    "report.md": "a6503f74ea0229536045967bafca1ad7abfaa496dec99a4e9d7d65b5bf6a18e1",
}
CENSUS_M5_CLASSES = 208
VERIFY_PAPER_MIN_ROWS = 75  # rows printed by verify-paper on the seed commit


class WrongOutput(AssertionError):
    """An operation finished, but its output failed the benchmark's check."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongOutput(what)


# -- verify-paper and census-m5: the two CLI commands -----------------------

def verify_paper(seed: int, scratch: Path):
    def op():
        rc = cli.main(["verify-paper", "--out", str(scratch)])
        expect(rc == 0, f"verify-paper exited {rc}")
        summary = json.loads((scratch / "summary.json").read_text())
        failing = [r["name"] for r in summary["rows"] if not r["passed"]]
        expect(not failing, f"failing rows: {failing}")
        expect(summary["passed"], "summary not marked passed")
        expect(
            len(summary["rows"]) >= VERIFY_PAPER_MIN_ROWS,
            f"{len(summary['rows'])} rows, expected at least {VERIFY_PAPER_MIN_ROWS}",
        )

    return [("verify-paper", op)]


def census_m5(seed: int, scratch: Path):
    def op():
        rc = cli.main(["classify", "--m", "5", "--out", str(scratch)])
        expect(rc == 0, f"classify exited {rc}")
        classes = json.loads((scratch / "classes.json").read_text())
        expect(
            classes["total_complex_classes"] == CENSUS_M5_CLASSES,
            f"{classes['total_complex_classes']} complex classes",
        )
        for name, digest in CENSUS_M5_SHA256.items():
            got = hashlib.sha256((scratch / name).read_bytes()).hexdigest()
            expect(got == digest, f"{name} differs from the seed commit's output")

    return [("classify-m5", op)]


# -- nestohedra-n5: exact realizations on [4] and [5] -----------------------

def permutohedron(n1: int):
    ground = range(1, n1 + 1)
    return bs.validate_building_set(
        [c for r in range(1, n1 + 1) for c in combinations(ground, r)], n1
    )


def associahedron(n1: int):
    return bs.validate_building_set(
        [range(i, j + 1) for i in range(1, n1 + 1) for j in range(i, n1 + 1)], n1
    )


def random_building_set(rng: random.Random, n1: int, proper: int):
    """A connected building set on [n1] with exactly ``proper`` elements
    besides the full set, grown by random subsets and closed under unions
    of intersecting elements.  The element count fixes the number of square
    systems, so the cost is steady across seeds."""
    full = frozenset(range(1, n1 + 1))
    pool = [frozenset(c) for r in range(2, n1) for c in combinations(sorted(full), r)]
    while True:
        elems = {frozenset({i}) for i in full} | {full}
        while len(elems) - 1 < proper:
            elems.add(rng.choice(pool))
            grown = True
            while grown:
                grown = False
                for a, b in combinations(list(elems), 2):
                    if a & b and a | b not in elems:
                        elems.add(a | b)
                        grown = True
        if len(elems) - 1 == proper:
            return bs.validate_building_set(elems, n1)


def _nestohedron_op(B, vertices: int | None, facets: int):
    def op():
        R = bs.realize_nestohedron(B)
        nerve = bs.nerve_of_realization(R)
        ok = bs.delzant_check(R, bs.fenn_charmap(B))
        expect(ok, "Delzant check failed")
        if vertices is not None:
            expect(len(R.vertices) == vertices, f"{len(R.vertices)} vertices")
        nonempty = sum(1 for s in R.facet_vertex_sets() if s)
        expect(nonempty == facets, f"{nonempty} facets")
        expect(
            nerve.complex.is_pseudomanifold()
            and nerve.complex.dim == B.n_plus_1 - 2
            and len(nerve.complex.facets) == len(R.vertices),
            "nerve is not a simplicial sphere of the right dimension",
        )
        trunc = bs.nerve_by_truncation(B)
        expect(
            trunc.complex.f_vector() == nerve.complex.f_vector(),
            "truncation nerve and realization nerve disagree",
        )

    return op


def nestohedra_n5(seed: int, scratch: Path):
    rng = random.Random(seed)
    return [
        ("permutohedron-5", _nestohedron_op(permutohedron(5), 120, 30)),
        ("associahedron-5", _nestohedron_op(associahedron(5), 42, 14)),
        ("random-4", _nestohedron_op(random_building_set(rng, 4, 9), None, 9)),
        ("random-5", _nestohedron_op(random_building_set(rng, 5, 16), None, 16)),
    ]


# -- wide-ground: a few facets on large ground sets -------------------------

# (m, facet sizes, whether the op builds the Bier sphere).  The facet
# pattern is fixed per entry and the seed relabels the ground set: how many
# labels the facets share sets the cost of both minimal_non_faces and
# deleted_join, and varies several-fold between random draws of one size.
WIDE_SHAPES = (
    (12, (6, 6, 4), False),
    (14, (7, 7, 4), False),
    (16, (8, 8, 5), False),
    (18, (9, 9, 6), False),
    (18, (9, 9, 6), False),
    (10, (6, 6, 6), True),
    (12, (8, 8, 8), True),
    (12, (8, 8, 8), True),
)


def wide_complexes(seed: int) -> list[tuple[SimplicialComplex, bool]]:
    rng = random.Random(seed)
    out = []
    for i, (m, sizes, sphere) in enumerate(WIDE_SHAPES):
        shape = random.Random(f"wide-ground/{i}")
        base = [shape.sample(range(1, m + 1), k) for k in sizes]
        relabel = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
        facets = [[relabel[v] for v in f] for f in base]
        out.append((SimplicialComplex.from_facets(m, facets), sphere))
    return out


def check_minimal_non_faces(K: SimplicialComplex, mf: list[int]) -> None:
    """Every reported minimal non-face is a non-face whose codimension-1
    subsets are all faces."""
    expect(bool(mf), "no minimal non-faces reported")
    for s in mf:
        expect(not K.is_face(s), f"{s:#x} is a face")
        rest = s
        while rest:
            low = rest & -rest
            expect(K.is_face(s & ~low), f"{s:#x} is not minimal")
            rest &= rest - 1


def _wide_op(K: SimplicialComplex, sphere: bool):
    full = (1 << K.m) - 1

    def op():
        dual = bs.alexander_dual(K)
        mf = K.minimal_non_faces()
        check_minimal_non_faces(K, mf)
        expect(
            dual.facets == frozenset(full & ~s for s in mf),
            "dual facets are not the complements of the minimal non-faces",
        )
        if not sphere:
            flag = K.is_flag()
            expect(flag == all(s.bit_count() <= 2 for s in mf), "is_flag disagrees")
            return
        S = bs.bier_sphere(K).complex
        expect(S.m == 2 * K.m, "sphere not on the doubled ground set")
        for F in S.facets:
            sigma, tau = F & full, F >> K.m
            expect(F.bit_count() == K.m - 1, "sphere facet of the wrong size")
            expect(sigma & tau == 0, "sphere facet uses both sides of a label")
            expect(K.is_face(sigma) and dual.is_face(tau), "facet outside the join")

    return op


def wide_ground(seed: int, scratch: Path):
    return [
        (f"{'bier' if sphere else 'mnf'}-m{K.m}-{i}", _wide_op(K, sphere))
        for i, (K, sphere) in enumerate(wide_complexes(seed))
    ]


WORKLOADS = {
    "verify-paper": verify_paper,
    "census-m5": census_m5,
    "nestohedra-n5": nestohedra_n5,
    "wide-ground": wide_ground,
}

"""End-to-end verification against the shipped golden tables.

Each check returns rows of (name, expected, computed, pass); the CLI and
the acceptance tests share these so there is exactly one source of truth
for what "everything still holds" means.
The records are named tuples, so they equal plain tuples (see complexes).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from . import golden
from .bier import alexander_dual, bier_mf_formula, deleted_join, ghost_count, render_mf
from .building import (
    NerveComplex,
    NestohedronRealization,
    nerve_by_truncation,
    nerve_of_realization,
    realize_nestohedron,
    realize_p6,
)
from .classify import (
    MAX_CENSUS_M,
    bier_census,
    classify_bier,
    enumerate_complexes,
    isomorphic,
)
from .complexes import SimplicialComplex, _antichain, euler_of_f, h_of_f
from .toric import (
    CharMatrix,
    bad_facets,
    bier_charmap,
    cohomology_presentation,
    fenn_charmap,
    small_cover_orientable,
    validate_charmap,
)


CheckRow = namedtuple("CheckRow", "name expected computed passed")


class PaperVerificationSummary(namedtuple("PaperVerificationSummary", "rows")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "rows": [
                {
                    "name": r.name,
                    "expected": r.expected,
                    "computed": r.computed,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }

    def to_markdown(self) -> str:
        lines = [
            "# Verification summary",
            "",
            "| check | expected | computed | result |",
            "| --- | --- | --- | --- |",
        ]
        for r in self.rows:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"| {r.name} | {r.expected} | {r.computed} | {mark} |")
        lines.append("")
        lines.append(f"Overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def golden_polytope(i: int) -> tuple[NestohedronRealization, NerveComplex, CharMatrix]:
    """The realized polytope of sphere type i, its nerve, and its Delzant
    matrix laid out on the nerve by facet label, built once per type: the
    nestohedron of the published building set with its canonical matrix, or
    for type 6 the generalized permutohedron.  Only the rows certify them."""
    if i == 6:
        R, F = realize_p6()
    else:
        B = golden.golden_building_set(i)
        R, F = realize_nestohedron(B), fenn_charmap(B)
    nerve = nerve_of_realization(R)
    return R, nerve, F.on(nerve.labels)


def _row(name: str, expected, computed) -> CheckRow:
    return CheckRow(name, str(expected), str(computed), str(expected) == str(computed))


def _computed(compute):
    """compute(), or the ValueError that refused it, which then fails the
    row with its reason."""
    try:
        return compute()
    except ValueError as exc:
        return exc


def check_enumeration() -> list[CheckRow]:
    return [_row("complex classes on [4]", 28, len(enumerate_complexes(4)))]


def check_classification() -> list[CheckRow]:
    report = classify_bier(4)
    rows = [_row("sphere types on [4]", 13, report.class_count)]
    flags = sorted((c.golden_index for c in report.classes if c.flag), key=lambda i: i or 0)
    rows.append(_row("flag types", sorted(golden.FLAG_INDICES), flags))
    flag_f = sorted((c.f_vector for c in report.classes if c.flag), reverse=True)
    golden_f = sorted((golden.F_VECTORS[i] for i in golden.FLAG_INDICES), reverse=True)
    rows.append(_row("flag f-vectors", golden_f, flag_f))
    return rows


def check_f_census() -> list[CheckRow]:
    report = classify_bier(4)
    census = Counter(c.f_vector for c in report.classes)
    expected = Counter(golden.F_VECTORS.values())
    return [_row("f-vector census", sorted(expected.items()), sorted(census.items()))]


def check_mf_tables() -> list[CheckRow]:
    report = classify_bier(4)
    rows = []
    for c in report.classes:
        # golden_index comes from the canonical-form lookup of the golden
        # spheres, so a class that has one is that sphere's class
        i = c.golden_index
        ok = i is not None and set(
            render_mf(golden.golden_sphere(i).minimal_non_faces(), golden.SOURCE_M)
        ) == set(golden.MF_TABLES[i].split())
        rows.append(_row(f"MF table S_{i}", True, ok))
    return rows


def _census_rows(label: str, failed) -> list[CheckRow]:
    """One row per m in 2..MAX_CENSUS_M counting the (K, Bier(K)) census
    records for which failed(K, S) holds."""
    return [
        _row(f"{label} at m={m}", 0, sum(1 for K, S in bier_census(m) if failed(K, S)))
        for m in range(2, MAX_CENSUS_M + 1)
    ]


def is_mf_of(sets, S: SimplicialComplex) -> bool:
    """Whether the family ``sets``, taken as a set, is exactly MF(S), for S
    not the full simplex, checked through Alexander duality without listing
    MF(S) (see ``check_mf_formula``)."""
    L = set(sets)
    full = (1 << S.m) - 1
    comps = frozenset(full & ~s for s in L)
    if not L or 0 in L or _antichain(comps) != comps:
        return False
    return alexander_dual(SimplicialComplex(S.m, comps)) == S


def check_mf_formula() -> list[CheckRow]:
    """``bier_mf_formula(K)`` against each census sphere S, by ``is_mf_of``.
    ``classify_bier`` takes its MF column from the formula, so this side
    reads the spheres and never the classification.

    MF(S) is the set of minimal transversals Tr of the complements of S's
    facets, and the Alexander dual of a complex has the complements of its
    minimal non-faces as facets.  Take L, the formula's sets.  When L is a
    clutter (a nonempty antichain without the empty set), the complex C
    with facets {full - l : l in L} has MF(C) = Tr(L), so C's dual is S
    exactly when Tr(L) is the set of complements of S's facets.  Then
    MF(S) = Tr(Tr(L)) = L, as Tr(Tr(L)) = L for every clutter (Berge,
    *Hypergraphs*, 1989; Eiter & Gottlob, 1995).  Conversely, L = MF(S)
    gives Tr(L) = Tr(Tr(complements)) = the complements of S's facets, a
    clutter too.  MF(S) is a clutter, so an L that is not one is refused
    outright.  On [5] each sphere's check is then a Berge pass over 14 sets
    of 2.3 labels on average, not over 23 facet complements of 6 labels."""

    def failed(K, S):
        return not is_mf_of(bier_mf_formula(K), S)

    return _census_rows("MF formula mismatches", failed)


def check_sphere_certificates() -> list[CheckRow]:
    def failed(K, S):
        # a pseudomanifold of dimension m - 2; h and the Euler characteristic
        # both from one f-vector
        if not (S.is_pseudomanifold() and S.dim == K.m - 2):
            return True
        f = S.f_vector()
        h = h_of_f(f)
        return not (
            euler_of_f(f) == 1 + (-1) ** (K.m - 2)
            and h == h[::-1]
            and len(S.ghost_vertices()) == ghost_count(K)
        )

    return _census_rows("sphere certificate failures", failed)


def check_buchstaber() -> list[CheckRow]:
    """The doubled-ground labelling is a characteristic matrix of every
    Bier sphere, which certifies s = s_R = m + 1.

    The spheres on [m] share one matrix, so each distinct facet minor is
    evaluated once per m (128 determinants for the 5,086 census facets on
    m <= 5), and a sphere fails exactly when one of its facets is bad."""
    rows = []
    for m in range(2, MAX_CENSUS_M + 1):
        census = bier_census(m)
        facets = set().union(*(S.facets for _, S in census))
        bad = set(bad_facets(sorted(facets), bier_charmap(m)))
        failed = sum(1 for _, S in census if not bad.isdisjoint(S.facets))
        rows.append(_row(f"Buchstaber certificate failures at m={m}", 0, failed))
    return rows


def check_betti() -> list[CheckRow]:
    """Betti numbers on each realized nerve; a matrix that does not fit the
    nerve or is not characteristic there fails the row with its reason."""

    def betti(i):
        _, nerve, Lam = golden_polytope(i)
        return cohomology_presentation(nerve.complex, Lam).betti

    return [
        _row(f"Betti numbers type {i}", golden.BETTI[i], _computed(lambda: betti(i)))
        for i in range(1, 14)
    ]


def check_appendix_matrices() -> list[CheckRow]:
    rows = []
    for i in golden.NESTOHEDRAL_INDICES:
        A = golden.appendix_matrix(i)

        def canonical():
            _, _, F = golden_polytope(i)
            return sorted(F.labels) == sorted(A.labels) and F.on(A.labels) == A

        rows.append(_row(f"canonical matrix type {i}", True, _computed(canonical)))
    A6 = golden.appendix_matrix(6)
    S6 = golden.golden_sphere(6)

    def type_6():
        _, nerve, L6 = golden_polytope(6)
        same_columns = sorted(L6.column(j) for j in range(L6.cols)) == sorted(
            A6.column(j) for j in range(A6.cols)
        )
        same_sphere = isomorphic(nerve.complex.with_ground(S6.m), S6) is not None
        return same_columns, same_sphere, validate_charmap(nerve.complex, L6)[0]

    got = _computed(type_6)
    if isinstance(got, ValueError):
        got = (got,) * 3
    for name, value in zip(("matrix columns", "nerve", "Delzant"), got):
        rows.append(_row(f"type 6 {name}", True, value))
    return rows


def check_nestohedra() -> list[CheckRow]:
    rows = []
    for i in golden.NESTOHEDRAL_INDICES:
        S = golden.golden_sphere(i)

        def agrees():
            _, nerve, F = golden_polytope(i)
            return (
                isomorphic(nerve.complex.with_ground(S.m), S) is not None
                and nerve_by_truncation(golden.golden_building_set(i)) == nerve
                and validate_charmap(nerve.complex, F)[0]
            )

        rows.append(_row(f"nestohedron type {i}", True, _computed(agrees)))
    return rows


def check_orientability() -> list[CheckRow]:
    found = sorted(
        i
        for i in range(1, 14)
        if small_cover_orientable(golden.appendix_matrix(i)) is not None
    )
    return [_row("orientable small covers", sorted(golden.ORIENTABLE_INDICES), found)]


def check_duality() -> list[CheckRow]:
    """K is the dual of its dual, and Bier(K^) is Bier(K) with x_i and y_i
    swapped: equal facet sets, which is stronger than isomorphism.  With
    K^^ = K checked, Bier(K^) is the deleted join of K^ and K; it needs no
    sphere certificate of its own, since its facets must equal the swapped
    facets of S, which bier_census certified."""

    def failed(K, S):
        dual = alexander_dual(K)
        if alexander_dual(dual) != K:
            return True
        m = K.m
        low = (1 << m) - 1
        swapped = frozenset((f >> m) | ((f & low) << m) for f in S.facets)
        return deleted_join(dual, K).facets != swapped

    return _census_rows("duality failures", failed)


def verify_paper() -> PaperVerificationSummary:
    rows: list[CheckRow] = []
    rows += check_enumeration()
    rows += check_classification()
    rows += check_f_census()
    rows += check_mf_tables()
    rows += check_mf_formula()
    rows += check_sphere_certificates()
    rows += check_buchstaber()
    rows += check_betti()
    rows += check_appendix_matrices()
    rows += check_nestohedra()
    rows += check_orientability()
    rows += check_duality()
    return PaperVerificationSummary(rows=tuple(rows))

"""End-to-end verification against the shipped golden tables.

Each check returns rows of (name, expected, computed, pass); the CLI and
the acceptance tests share these so there is exactly one source of truth
for what "everything still holds" means.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import golden
from .bier import alexander_dual, bier_mf_formula, bier_sphere, ghost_count, render_mf
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
    canonical_form,
    classify_bier,
    enumerate_complexes,
)
from .complexes import euler_of_f, h_of_f, ridges_in_two
from .toric import (
    CharMatrix,
    bier_charmap,
    cohomology_presentation,
    fenn_charmap,
    small_cover_orientable,
    validate_charmap,
)


@dataclass(frozen=True)
class CheckRow:
    name: str
    expected: str
    computed: str
    passed: bool


@dataclass(frozen=True)
class PaperVerificationSummary:
    rows: tuple[CheckRow, ...]

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


def check_enumeration() -> list[CheckRow]:
    return [_row("complex classes on [4]", 28, len(enumerate_complexes(4)))]


def check_classification() -> list[CheckRow]:
    report = classify_bier(4)
    rows = [_row("sphere types on [4]", 13, report.class_count)]
    flags = sorted((c.golden_index for c in report.classes if c.flag), key=lambda i: i or 0)
    rows.append(_row("flag types", sorted(golden.FLAG_INDICES), flags))
    flag_f = sorted(
        (c.f_vector for c in report.classes if c.flag), reverse=True
    )
    rows.append(
        _row(
            "flag f-vectors",
            [(8, 18, 12), (8, 18, 12), (7, 15, 10), (6, 12, 8)],
            flag_f,
        )
    )
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


def check_mf_formula() -> list[CheckRow]:
    def failed(K, S):
        return set(bier_mf_formula(K)) != set(S.minimal_non_faces())

    return _census_rows("MF formula mismatches", failed)


def check_sphere_certificates() -> list[CheckRow]:
    def failed(K, S):
        # a pure pseudomanifold of dimension m - 2 >= 0; h and the Euler
        # characteristic both from one f-vector
        if not (S.is_pure() and S.dim == K.m - 2 >= 0 and ridges_in_two(S.facets)):
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
    Bier sphere, which certifies s = s_R = m + 1."""

    def failed(K, S):
        return not validate_charmap(S, bier_charmap(K.m))[0]

    return _census_rows("Buchstaber certificate failures", failed)


def check_betti() -> list[CheckRow]:
    """Betti numbers on each realized nerve; a matrix that does not fit the
    nerve or is not characteristic there fails the row with its reason."""
    rows = []
    for i in range(1, 14):
        try:
            _, nerve, Lam = golden_polytope(i)
            betti = cohomology_presentation(nerve.complex, Lam).betti
        except ValueError as exc:
            betti = exc
        rows.append(_row(f"Betti numbers type {i}", golden.BETTI[i], betti))
    return rows


def check_appendix_matrices() -> list[CheckRow]:
    rows = []
    for i in golden.NESTOHEDRAL_INDICES:
        A = golden.appendix_matrix(i)
        try:
            _, _, F = golden_polytope(i)
            ok = sorted(F.labels) == sorted(A.labels) and F.on(A.labels) == A
        except ValueError as exc:
            ok = exc
        rows.append(_row(f"canonical matrix type {i}", True, ok))
    A6 = golden.appendix_matrix(6)
    S6 = golden.golden_sphere(6)
    try:
        _, nerve, L6 = golden_polytope(6)
        same_columns = sorted(L6.column(j) for j in range(L6.cols)) == sorted(
            A6.column(j) for j in range(A6.cols)
        )
        same_sphere = canonical_form(nerve.complex.with_ground(S6.m)) == canonical_form(S6)
        delzant = validate_charmap(nerve.complex, L6)[0]
    except ValueError as exc:
        same_columns = same_sphere = delzant = exc
    rows.append(_row("type 6 matrix columns", True, same_columns))
    rows.append(_row("type 6 nerve", True, same_sphere))
    rows.append(_row("type 6 Delzant", True, delzant))
    return rows


def check_nestohedra() -> list[CheckRow]:
    rows = []
    for i in golden.NESTOHEDRAL_INDICES:
        trunc = nerve_by_truncation(golden.golden_building_set(i))
        S = golden.golden_sphere(i)
        try:
            _, nerve, F = golden_polytope(i)
            ok = (
                canonical_form(nerve.complex.with_ground(S.m)) == canonical_form(S)
                and trunc.labelled_facets() == nerve.labelled_facets()
                and validate_charmap(nerve.complex, F)[0]
            )
        except ValueError as exc:
            ok = exc
        rows.append(_row(f"nestohedron type {i}", True, ok))
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
    swapped: equal facet sets, which is stronger than isomorphism."""

    def failed(K, S):
        dual = alexander_dual(K)
        if alexander_dual(dual) != K:
            return True
        m = K.m
        low = (1 << m) - 1
        swapped = frozenset((f >> m) | ((f & low) << m) for f in S.facets)
        return bier_sphere(dual).complex.facets != swapped

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

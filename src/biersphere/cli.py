"""Command-line surface.

Exit codes: 0 success, 1 parse or IO error, 2 violated domain precondition,
3 verification failure.  Every refusal of a well-formed input, by the library
or by a command, is a ValueError, and ``main`` alone maps it to exit 2; the
library raises AssertionError only for a failed construction certificate,
which ``main`` maps to exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bier import alexander_dual, bier_sphere, render_mf
from .building import (
    BuildingSet,
    BuildingSetError,
    nerve_of_realization,
    realize_nestohedron,
    write_off,
)
from .classify import classify_bier
from .complexes import (
    MAX_GROUND,
    LabelCapError,
    SimplicialComplex,
    euler_of_f,
    h_of_f,
    json_int,
    vertices_of,
)
from .toric import (
    CharMatrix,
    buchstaber_certificate,
    cohomology_presentation,
    fenn_charmap,
    small_cover_orientable,
    validate_charmap,
)
from .verify import verify_paper

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class CliError(Exception):
    """A read or write failure (exit 1) or a failed verification (exit 3)."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(path: str, parse, what: str):
    """parse(obj) of the JSON file at path; a malformed file is a CliError,
    a well-formed but refused building set or ground size passes through."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    try:
        return parse(obj)
    except (BuildingSetError, LabelCapError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad {what} JSON in {path}: {exc}")


def _load_building(path: str, nerve: bool) -> BuildingSet:
    B = _load(path, BuildingSet.from_json_obj, "building set")
    n = len(B.proper_elements())  # the facets of the nestohedron, the vertices of its nerve
    if nerve and n == 0:
        raise ValueError("the nerve is empty: a building set on [1] has no proper element")
    if nerve and n > MAX_GROUND:
        raise ValueError(f"a nerve of {n} vertices exceeds the {MAX_GROUND}-label cap")
    return B


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(obj) -> None:
    sys.stdout.write(_json_text(obj))


def _write(path, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot write {path}: {exc}")


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot create {out}: {exc}")
    return out


def cmd_dual(args) -> int:
    K = _load(args.input, SimplicialComplex.from_json_obj, "complex")
    _emit(alexander_dual(K).to_json_obj())
    return EXIT_OK


def cmd_sphere(args) -> int:
    K = _load(args.input, SimplicialComplex.from_json_obj, "complex")
    _emit(bier_sphere(K).to_json_obj())
    return EXIT_OK


def cmd_invariants(args) -> int:
    def parse(obj):
        K = SimplicialComplex.from_json_obj(obj)
        source_m = obj.get("source_m")
        return K, None if source_m is None else json_int(source_m)

    K, source_m = _load(args.input, parse, "complex")
    if not K.is_pure():
        raise ValueError("h-vector requires a pure complex")
    f = K.f_vector()
    mf = K.minimal_non_faces()
    if source_m is not None and 2 * source_m == K.m:
        rendered = render_mf(mf, source_m)
    else:
        rendered = [list(vertices_of(s)) for s in mf]
    _emit(
        {
            "f": list(f),
            "h": list(h_of_f(f)),
            "mf": rendered,
            "flag": all(s.bit_count() <= 2 for s in mf),
            "euler": euler_of_f(f),
            "ghosts": len(K.ghost_vertices()),
        }
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    report = classify_bier(args.m)  # refuses m out of range before a directory is made
    out = _out_dir(args.out)
    classes = []
    for idx, c in enumerate(report.classes, start=1):
        name = f"S_{c.golden_index}" if c.golden_index else f"class_{idx}"
        rec = {
            "name": name,
            "f_vector": list(c.f_vector),
            "h_vector": list(c.h_vector),
            "mf": list(c.mf_rendered),
            "flag": c.flag,
            "source_class_indices": list(c.source_indices),
            "complex_file": f"{name}.json",
        }
        classes.append(rec)
        _write(out / f"{name}.json", _json_text(c.representative.to_json_obj()))
    _write(
        out / "classes.json",
        _json_text(
            {
                "m": report.m,
                "total_complex_classes": report.total_complexes,
                "class_count": report.class_count,
                "classes": classes,
            }
        ),
    )
    lines = [
        f"# Bier sphere types on [{report.m}]",
        "",
        f"{report.total_complexes} complex classes, {report.class_count} sphere types,",
        f"{sum(1 for c in report.classes if c.flag)} of them flag.",
        "",
        "| type | f-vector | h-vector | flag | minimal non-faces |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rec in classes:
        lines.append(
            "| {name} | {f} | {h} | {flag} | {mf} |".format(
                name=rec["name"],
                f=tuple(rec["f_vector"]),
                h=tuple(rec["h_vector"]),
                flag="yes" if rec["flag"] else "no",
                mf=" ".join(rec["mf"]),
            )
        )
    _write(out / "report.md", "\n".join(lines) + "\n")
    print(f"{report.class_count} classes written to {out}")
    return EXIT_OK


def cmd_charmap(args) -> int:
    if args.bier:
        K = _load(args.bier, SimplicialComplex.from_json_obj, "complex")
        cert = buchstaber_certificate(K)
        if cert.bad_facet is not None:
            raise CliError(
                EXIT_VERIFY, f"validation failed on facet {list(vertices_of(cert.bad_facet))}"
            )
        Lambda = cert.matrix
        print(f"validation PASS, s={cert.upper_bound}", file=sys.stderr)
    else:
        B = _load_building(args.building, nerve=True)
        Lambda = fenn_charmap(B)
        nerve = nerve_of_realization(realize_nestohedron(B))
        ok, bad = validate_charmap(nerve.complex, Lambda.on(nerve.labels))
        if not ok:
            raise CliError(EXIT_VERIFY, f"validation failed on facet {list(vertices_of(bad))}")
        print("validation PASS", file=sys.stderr)
    _emit(Lambda.to_json_obj())
    return EXIT_OK


def cmd_nestohedron(args) -> int:
    B = _load_building(args.input, nerve=bool(args.nerve))
    if args.off and B.n_plus_1 != 4:
        raise ValueError(f"OFF export needs a 3-polytope (n_plus_1 = 4), got {B.n_plus_1}")
    R = realize_nestohedron(B)
    if args.off:
        _write(args.off, write_off(R))
        _write(args.off + ".json", _json_text(R.to_json_obj()))
    if args.nerve:
        nerve = nerve_of_realization(R)
        obj = nerve.complex.to_json_obj()
        obj["labels"] = list(nerve.labels)
        _write(args.nerve, _json_text(obj))
    print(f"{len(R.vertices)} vertices, {len(R.halfspaces)} facets")
    return EXIT_OK


def cmd_orientable(args) -> int:
    Lambda = _load(args.input, CharMatrix.from_json_obj, "matrix")
    witness = small_cover_orientable(Lambda)
    _emit(
        {
            "orientable": witness is not None,
            "basis": [list(b) for b in witness] if witness else None,
        }
    )
    return EXIT_OK


def cmd_betti(args) -> int:
    K = _load(args.complex, SimplicialComplex.from_json_obj, "complex")
    Lambda = _load(args.matrix, CharMatrix.from_json_obj, "matrix")
    _emit(cohomology_presentation(K, Lambda).to_json_obj())
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    summary = verify_paper()
    if args.out:
        out = _out_dir(args.out)
        _write(out / "summary.json", _json_text(summary.to_json_obj()))
        _write(out / "summary.md", summary.to_markdown())
    for r in summary.rows:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name}: expected {r.expected}, computed {r.computed}")
    if not summary.passed:
        raise CliError(EXIT_VERIFY, "verification failed")
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bier",
        description="Bier spheres, their classification and toric invariants",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("dual", help="Alexander dual of a complex")
    s.add_argument("input")
    s.set_defaults(func=cmd_dual)

    s = sub.add_parser("sphere", help="Bier sphere of a complex")
    s.add_argument("input")
    s.set_defaults(func=cmd_sphere)

    s = sub.add_parser("invariants", help="f/h-vectors, minimal non-faces, flagness")
    s.add_argument("input")
    s.set_defaults(func=cmd_invariants)

    s = sub.add_parser("classify", help="census of Bier sphere types on [m]")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("charmap", help="characteristic matrix of a sphere or nestohedron")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--bier", help="complex JSON; uses the doubled-ground labelling")
    g.add_argument("--building", help="building set JSON; uses the canonical columns")
    s.set_defaults(func=cmd_charmap)

    s = sub.add_parser("nestohedron", help="realize a nestohedron exactly")
    s.add_argument("input")
    s.add_argument("--off", help="write OFF file (plus a lossless .json twin)")
    s.add_argument("--nerve", help="write nerve complex JSON")
    s.set_defaults(func=cmd_nestohedron)

    s = sub.add_parser("orientable", help="small-cover orientability of a 3-row matrix")
    s.add_argument("input")
    s.set_defaults(func=cmd_orientable)

    s = sub.add_parser("betti", help="cohomology presentation and Betti numbers")
    s.add_argument("complex")
    s.add_argument("matrix")
    s.set_defaults(func=cmd_betti)

    s = sub.add_parser("verify-paper", help="re-check every shipped golden value")
    s.add_argument("--out", help="directory for summary.md and summary.json")
    s.set_defaults(func=cmd_verify_paper)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # a refused input, from the library or a command
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:  # a construction failed its certificate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())

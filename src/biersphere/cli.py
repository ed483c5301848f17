"""Command-line surface.

Exit codes: 0 success, 1 parse or IO error, 2 violated domain precondition,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import golden
from .bier import FullSimplexError, alexander_dual, bier_sphere, render_mf
from .building import (
    BuildingSet,
    BuildingSetError,
    nerve_of_realization,
    realize_nestohedron,
    write_off,
)
from .classify import MAX_CENSUS_M, classify_bier
from .complexes import MAX_GROUND, SimplicialComplex, json_int, vertices_of
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
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")


def _load_complex(path: str) -> SimplicialComplex:
    obj = _load_json(path)
    try:
        return SimplicialComplex.from_json_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad complex JSON in {path}: {exc}")


def _load_matrix(path: str) -> CharMatrix:
    obj = _load_json(path)
    try:
        return CharMatrix.from_json_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad matrix JSON in {path}: {exc}")


def _load_building(path: str, nerve: bool) -> BuildingSet:
    obj = _load_json(path)
    try:
        B = BuildingSet.from_json_obj(obj)
    except BuildingSetError as exc:
        raise CliError(EXIT_DOMAIN, str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad building set JSON in {path}: {exc}")
    n = len(B.proper_elements())  # the facets of the nestohedron, the vertices of its nerve
    if nerve and n > MAX_GROUND:
        raise CliError(EXIT_DOMAIN, f"a nerve of {n} vertices exceeds the {MAX_GROUND}-label cap")
    return B


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_dual(args) -> int:
    K = _load_complex(args.input)
    try:
        _emit(alexander_dual(K).to_json_obj())
    except FullSimplexError:
        raise CliError(EXIT_DOMAIN, "Alexander dual undefined for the full simplex")
    return EXIT_OK


def cmd_sphere(args) -> int:
    K = _load_complex(args.input)
    try:
        _emit(bier_sphere(K).to_json_obj())
    except FullSimplexError:
        raise CliError(EXIT_DOMAIN, "Bier sphere undefined for the full simplex")
    except ValueError as exc:
        raise CliError(EXIT_DOMAIN, str(exc))
    return EXIT_OK


def cmd_invariants(args) -> int:
    obj = _load_json(args.input)
    try:
        K = SimplicialComplex.from_json_obj(obj)
        source_m = obj.get("source_m")
        source_m = None if source_m is None else json_int(source_m)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"bad complex JSON in {args.input}: {exc}")
    try:
        f = K.f_vector()
        h = K.h_vector()
    except ValueError as exc:  # DegenerateComplexError, or h of a non-pure complex
        raise CliError(EXIT_DOMAIN, str(exc))
    mf = K.minimal_non_faces()
    if source_m is not None and 2 * source_m == K.m:
        rendered = render_mf(mf, source_m)
    else:
        rendered = [list(vertices_of(s)) for s in mf]
    _emit(
        {
            "f": list(f),
            "h": list(h),
            "mf": rendered,
            "flag": K.is_flag(),
            "euler": K.euler_characteristic(),
            "ghosts": len(K.ghost_vertices()),
        }
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    if not 2 <= args.m <= MAX_CENSUS_M:
        raise CliError(EXIT_DOMAIN, f"classification supported for 2 <= m <= {MAX_CENSUS_M}")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot create {out}: {exc}")
    report = classify_bier(args.m)
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
        with open(out / f"{name}.json", "w") as fh:
            json.dump(c.representative.to_json_obj(), fh, indent=2)
            fh.write("\n")
    with open(out / "classes.json", "w") as fh:
        json.dump(
            {
                "m": report.m,
                "total_complex_classes": report.total_complexes,
                "class_count": report.class_count,
                "classes": classes,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
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
    with open(out / "report.md", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{report.class_count} classes written to {out}")
    return EXIT_OK


def cmd_charmap(args) -> int:
    if args.bier:
        K = _load_complex(args.bier)
        try:
            cert = buchstaber_certificate(K)
        except (FullSimplexError, ValueError) as exc:
            raise CliError(EXIT_DOMAIN, str(exc))
        if cert.bad_facet is not None:
            raise CliError(
                EXIT_VERIFY, f"validation failed on facet {list(vertices_of(cert.bad_facet))}"
            )
        Lambda = cert.matrix
        print(f"validation PASS, s={cert.upper_bound}", file=sys.stderr)
    else:
        B = _load_building(args.building, nerve=True)
        try:
            Lambda = fenn_charmap(B)
        except BuildingSetError as exc:
            raise CliError(EXIT_DOMAIN, str(exc))
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
        raise CliError(
            EXIT_DOMAIN, f"OFF export needs a 3-polytope (n_plus_1 = 4), got {B.n_plus_1}"
        )
    try:
        R = realize_nestohedron(B)
    except BuildingSetError as exc:
        raise CliError(EXIT_DOMAIN, str(exc))
    if args.off:
        with open(args.off, "w") as fh:
            fh.write(write_off(R))
        with open(args.off + ".json", "w") as fh:
            json.dump(R.to_json_obj(), fh, indent=2)
            fh.write("\n")
    if args.nerve:
        nerve = nerve_of_realization(R)
        obj = nerve.complex.to_json_obj()
        obj["labels"] = list(nerve.labels)
        with open(args.nerve, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    print(f"{len(R.vertices)} vertices, {len([s for s in R.facet_vertex_sets() if s])} facets")
    return EXIT_OK


def cmd_orientable(args) -> int:
    Lambda = _load_matrix(args.input)
    try:
        witness = small_cover_orientable(Lambda)
    except ValueError as exc:
        raise CliError(EXIT_DOMAIN, str(exc))
    _emit(
        {
            "orientable": witness is not None,
            "basis": [list(b) for b in witness] if witness else None,
        }
    )
    return EXIT_OK


def cmd_betti(args) -> int:
    K = _load_complex(args.complex)
    Lambda = _load_matrix(args.matrix)
    try:
        pres = cohomology_presentation(K, Lambda)
    except ValueError as exc:
        raise CliError(EXIT_DOMAIN, str(exc))
    _emit(pres.to_json_obj())
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    summary = verify_paper()
    if args.out:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot create {out}: {exc}")
        with open(out / "summary.json", "w") as fh:
            json.dump(summary.to_json_obj(), fh, indent=2)
            fh.write("\n")
        with open(out / "summary.md", "w") as fh:
            fh.write(summary.to_markdown())
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


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans recorded from outside the program, by rebinding in place.

Each traced function is replaced by a wrapper wherever it is bound: in every
loaded ``biersphere`` namespace (``verify.canonical_form`` and
``golden.canonical_form`` were bound by ``from .classify import``) and, for
methods, on ``SimplicialComplex``.  Spans stay in memory as
``[name, parent, start, end, attrs]``; self time and the per-layer metrics
are derived once, at the end.
"""

from __future__ import annotations

import functools
import sys
from math import comb
from time import perf_counter

VERIFY_CHECKS = (
    "check_enumeration",
    "check_classification",
    "check_f_census",
    "check_mf_tables",
    "check_mf_formula",
    "check_sphere_certificates",
    "check_buchstaber",
    "check_betti",
    "check_appendix_matrices",
    "check_nestohedra",
    "check_orientability",
    "check_duality",
)

# layer -> traced public functions of that module
LAYERS = {
    "bier": ("alexander_dual", "deleted_join", "bier_sphere", "bier_mf_formula"),
    "classify": ("canonical_form", "isomorphic", "enumerate_complexes", "classify_bier"),
    "building": (
        "realize_nestohedron",
        "nerve_of_realization",
        "nerve_by_truncation",
        "delzant_check",
        "realize_p6",
    ),
    "toric": (
        "det_int",
        "validate_charmap",
        "buchstaber_certificate",
        "fenn_charmap",
        "small_cover_orientable",
        "cohomology_presentation",
    ),
    "verify": VERIFY_CHECKS,
}
MNF = "complexes.minimal_non_faces"

# Size buckets of the scaling series: the sizes the workloads produce.  Every
# bucket is always reported; a call of another size counts only in the totals.
MNF_SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18)  # ground size m
CANON_SIZES = tuple(range(0, 11))  # non-ghost vertex count
REALIZE_SIZES = (4, 5)  # n + 1


def _complex_key(K):
    return (K.m, K.facets)


def _mnf_attrs(args):
    K = args[0]
    return {"key": _complex_key(K), "m": K.m}


def _canon_attrs(args):
    K = args[0]
    return {"key": _complex_key(K), "v": K.vertex_mask().bit_count()}


def _bier_attrs(args):
    return {"key": _complex_key(args[0])}


def _join_attrs(args):
    K1, K2 = args[0], args[1]
    return {
        "candidates": sum(
            1 << (f1 & f2).bit_count() for f1 in K1.facets for f2 in K2.facets
        )
    }


def _realize_attrs(args):
    B = args[0]
    n1 = B.n_plus_1
    return {"n1": n1, "systems": comb(len(B.elements) - 1, n1 - 1)}


def _realize_post(attrs, result):
    attrs["vertices"] = len(result.vertices)


ATTRS = {
    MNF: _mnf_attrs,
    "classify.canonical_form": _canon_attrs,
    "bier.bier_sphere": _bier_attrs,
    "bier.deleted_join": _join_attrs,
    "building.realize_nestohedron": _realize_attrs,
}
POST = {"building.realize_nestohedron": _realize_post}


class Tracer:
    """Records one span per call of every traced function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attrs_of, post = ATTRS.get(name), POST.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args) if attrs_of else None
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, attrs]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if post:
                post(attrs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in all loaded biersphere modules."""
        from biersphere.complexes import SimplicialComplex

        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "biersphere" or name.startswith("biersphere."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"biersphere.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        SimplicialComplex.minimal_non_faces = self.wrap(
            MNF, SimplicialComplex.minimal_non_faces
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls, self time, computed counts and series."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child_time[s[1]] += s[3] - s[2]
        out: dict[str, float] = {}
        traced = [MNF] + [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs]
        for name in traced:
            if not name.startswith("verify."):
                out[f"{name}.calls"] = 0
                out[f"{name}.self_s"] = 0.0
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.s"] = 0.0
        for m in MNF_SIZES:
            out[f"{MNF}.self_s.m{m}"] = 0.0
        for v in CANON_SIZES:
            out[f"classify.canonical_form.self_s.v{v}"] = 0.0
        for n1 in REALIZE_SIZES:
            out[f"building.realize_nestohedron.self_s.n{n1}"] = 0.0
        out[f"{MNF}.subsets_scanned"] = 0
        out["bier.deleted_join.candidates"] = 0
        out["building.realize_nestohedron.square_systems"] = 0
        vertices = 0
        verify_enumerate = 0
        distinct: dict[str, set] = {
            MNF: set(),
            "bier.bier_sphere": set(),
            "classify.canonical_form": set(),
        }

        for i, (name, parent, start, end, attrs) in enumerate(spans):
            total = end - start
            own = total - child_time[i]
            if name.startswith("verify."):
                out[f"{name}.s"] += total
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if name in distinct:
                distinct[name].add(attrs["key"])
            if name == MNF:
                out[f"{MNF}.subsets_scanned"] += (1 << attrs["m"]) - 1
                bucket = f"{MNF}.self_s.m{attrs['m']}"
            elif name == "classify.canonical_form":
                bucket = f"{name}.self_s.v{attrs['v']}"
            elif name == "building.realize_nestohedron":
                out[f"{name}.square_systems"] += attrs["systems"]
                vertices += attrs.get("vertices", 0)
                bucket = f"{name}.self_s.n{attrs['n1']}"
            else:
                if name == "bier.deleted_join":
                    out[f"{name}.candidates"] += attrs["candidates"]
                elif name == "classify.enumerate_complexes" and self._under_verify(parent):
                    verify_enumerate += 1
                continue
            if bucket in out:
                out[bucket] += own

        for name, keys in distinct.items():
            calls = out[f"{name}.calls"]
            out[f"{name}.distinct"] = len(keys)
            out[f"{name}.distinct_ratio"] = len(keys) / calls if calls else 0.0
        systems = out["building.realize_nestohedron.square_systems"]
        out["building.realize_nestohedron.vertices_per_system"] = (
            vertices / systems if systems else 0.0
        )
        out["verify.enumerate_complexes.calls"] = verify_enumerate
        out["trace.spans"] = len(spans)
        return out

    def _under_verify(self, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0].startswith("verify."):
                return True
            parent = self.spans[parent][1]
        return False

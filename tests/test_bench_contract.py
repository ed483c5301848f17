"""The names the benchmark tracer rebinds must exist in the package.

bench/tracer.py wraps functions by name; a rename under src/ would only
show as a crash of a traced benchmark run.  The tracer imports only the
standard library, so it is loaded here by path and read, never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from biersphere.complexes import SimplicialComplex

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"biersphere.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_minimal_non_faces_is_a_plain_method():
    assert inspect.isfunction(vars(SimplicialComplex)["minimal_non_faces"])

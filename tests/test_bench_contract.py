"""What the benchmark relies on must hold in the package.

bench/tracer.py wraps functions by name; a rename under src/ would only
show as a crash of a traced benchmark run.  bench/workloads.py pins the
bytes of ``bier classify --m 5``, which otherwise only a benchmark run
checks.  Both are loaded here by path and read, never installed.
"""

import hashlib
import importlib
import importlib.util
import inspect
from pathlib import Path

from biersphere.cli import main
from biersphere.complexes import SimplicialComplex

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_bench("tracer")
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"biersphere.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_minimal_non_faces_is_a_plain_method():
    assert inspect.isfunction(vars(SimplicialComplex)["minimal_non_faces"])


def test_census_m5_output_matches_the_benchmark_pin(tmp_path):
    pins = load_bench("workloads").CENSUS_M5_SHA256
    assert main(["classify", "--m", "5", "--out", str(tmp_path)]) == 0
    for name, digest in pins.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

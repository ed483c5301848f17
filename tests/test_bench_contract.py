"""What the benchmark relies on must hold in the package.

bench/tracer.py wraps functions by name; a rename under src/ would only
show as a crash of a traced benchmark run.  bench/workloads.py pins the
bytes of ``bier classify --m 5`` and checks the output of every workload
operation, which otherwise only a benchmark run does, and bench/run.py the
traced self-test's call counts.  They are loaded here by path and read,
never installed.
"""

import hashlib
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from biersphere.cli import main
from biersphere.complexes import SimplicialComplex

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name while the module executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
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


def test_traced_self_test_counts_match_the_harness(tmp_path):
    # the child the traced benchmark runs, in its own interpreter, with the
    # tracer wrapping canonical_form in every biersphere namespace
    child = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "selftest", "census-m5", "0", str(tmp_path), "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    counts = json.loads((tmp_path / "result.json").read_text())["selftest"]
    assert counts == load_bench("run").SELFTEST_EXPECTED


@pytest.mark.parametrize("workload", ["nestohedra-n5", "wide-ground"])
def test_cheap_workloads_pass_their_own_checks(workload, tmp_path):
    # each operation raises when a name, a return shape or a result that the
    # workload reads from the package changes
    for _, op in load_bench("workloads").WORKLOADS[workload](1, tmp_path):
        op()

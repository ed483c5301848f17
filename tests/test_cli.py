import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

import biersphere
from biersphere import cli, golden
from biersphere.bier import alexander_dual, bier_sphere
from biersphere.cli import main
from biersphere.complexes import SimplicialComplex


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def empty4(tmp_path):
    return write(tmp_path / "empty4.json", {"m": 4, "facets": [[]]})


@pytest.fixture
def full4(tmp_path):
    return write(tmp_path / "full4.json", {"m": 4, "facets": [[1, 2, 3, 4]]})


@pytest.fixture
def b10(tmp_path):
    return write(tmp_path / "b10.json", golden.golden_building_set(10).to_json_obj())


@pytest.fixture
def permutohedron7(tmp_path):
    """Every nonempty subset of [7]: 126 proper elements, so its nerve
    would have 126 vertices."""
    elements = [list(c) for r in range(1, 8) for c in combinations(range(1, 8), r)]
    return write(tmp_path / "b7.json", {"n_plus_1": 7, "elements": elements})


def sha256(path):
    """Hex digest of a written file; the pinned values are the outputs of
    the published census and verification, byte for byte."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dual_empty(capsys, empty4):
    code, out, _ = run(capsys, "dual", empty4)
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 4
    assert sorted(map(sorted, obj["facets"])) == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]


def test_dual_simplex_is_domain_error(capsys, full4):
    code, _, err = run(capsys, "dual", full4)
    assert code == 2
    assert "undefined" in err


def test_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "dual", str(bad))
    assert code == 1


def test_sphere_and_invariants(capsys, empty4, tmp_path):
    code, out, _ = run(capsys, "sphere", empty4)
    assert code == 0
    sphere_file = write(tmp_path / "s.json", json.loads(out))
    code, out, _ = run(capsys, "invariants", sphere_file)
    assert code == 0
    inv = json.loads(out)
    assert inv["f"] == [4, 6, 4]
    assert inv["euler"] == 2
    assert inv["ghosts"] == 4
    assert "y1y2y3y4" in inv["mf"]


def test_invariants_golden_sphere(capsys, tmp_path):
    obj = golden.golden_sphere(10).to_json_obj()
    obj["source_m"] = 4
    path = write(tmp_path / "s10.json", obj)
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0
    inv = json.loads(out)
    assert set(inv["mf"]) == set(golden.MF_TABLES[10].split())
    assert inv["f"] == [6, 12, 8]


@pytest.mark.parametrize("source_m", ["x", [1], 2.0, True])
def test_invariants_malformed_source_m(capsys, tmp_path, source_m):
    path = write(tmp_path / "k.json", {"m": 4, "facets": [[1, 2], [3, 4]], "source_m": source_m})
    code, out, err = run(capsys, "invariants", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad complex JSON") and "Traceback" not in err


def parse_error(capsys, *argv):
    """Exit 1 with the loader's message, nothing on stdout, no traceback."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: bad ") and "Traceback" not in err
    return err


# JSON integer fields take JSON integers only: a float is not truncated, and
# true is not 1
@pytest.mark.parametrize(
    "obj",
    [
        {"m": 3.5, "facets": [[1, 2]]},
        {"m": True, "facets": [[1]]},
        {"m": 3, "facets": [[1.0, 2]]},
        {"m": 3, "facets": [[True, 2]]},
    ],
)
def test_complex_json_needs_integers(capsys, tmp_path, obj):
    err = parse_error(capsys, "dual", write(tmp_path / "k.json", obj))
    assert "bad complex JSON" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("entries", [[1.9, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]),
        ("rows", 3.0),
        ("cols", True),
        ("labels", "abcd"),
        ("labels", [1, 2, 3, 4]),
    ],
)
def test_matrix_json_needs_integers(capsys, tmp_path, field, value):
    obj = golden.appendix_matrix(13).to_json_obj()
    obj[field] = value
    err = parse_error(capsys, "orientable", write(tmp_path / "m.json", obj))
    assert "bad matrix JSON" in err


@pytest.mark.parametrize(
    "obj",
    [
        {"n_plus_1": 3.0, "elements": [[1], [2], [3], [1, 2, 3]]},
        {"n_plus_1": 3, "elements": [[1.0], [2], [3], [1, 2, 3]]},
        {"n_plus_1": 3, "elements": [[True], [2], [3], [1, 2, 3]]},
    ],
)
def test_building_json_needs_integers(capsys, tmp_path, obj):
    err = parse_error(capsys, "nestohedron", write(tmp_path / "b.json", obj))
    assert "bad building set JSON" in err


def test_invariants_lists_faces_once_and_minimal_non_faces_once(capsys, tmp_path, monkeypatch):
    from biersphere.complexes import SimplicialComplex

    obj = golden.golden_sphere(1).to_json_obj()
    obj["source_m"] = 4
    path = write(tmp_path / "s1.json", obj)
    calls = {"f_vector": 0, "minimal_non_faces": 0}
    for name in calls:
        method = getattr(SimplicialComplex, name)

        def counted(self, method=method, name=name):
            calls[name] += 1
            return method(self)

        monkeypatch.setattr(SimplicialComplex, name, counted)
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0
    assert json.loads(out)["f"] == [8, 18, 12]
    assert calls == {"f_vector": 1, "minimal_non_faces": 1}


def test_invariants_non_pure_is_domain_error(capsys, tmp_path):
    path = write(tmp_path / "np.json", {"m": 4, "facets": [[1, 2], [3]]})
    code, out, err = run(capsys, "invariants", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_invariants_refuses_non_pure_before_listing_faces(capsys, tmp_path, monkeypatch):
    # a non-pure complex with one wide facet is refused before its 2^|F|
    # faces are listed
    from biersphere.complexes import SimplicialComplex

    def refused(self):
        raise AssertionError("faces listed")

    monkeypatch.setattr(SimplicialComplex, "f_vector", refused)
    path = write(tmp_path / "np.json", {"m": 64, "facets": [list(range(1, 31)), [64]]})
    code, out, err = run(capsys, "invariants", path)
    assert (code, out) == (2, "")
    assert err == "error: h-vector requires a pure complex\n"


def test_classify(capsys, tmp_path):
    out_dir = tmp_path / "cls"
    code, _, _ = run(capsys, "classify", "--m", "4", "--out", str(out_dir))
    assert code == 0
    classes = json.loads((out_dir / "classes.json").read_text())
    assert classes["class_count"] == 13
    assert classes["total_complex_classes"] == 28
    names = {c["name"] for c in classes["classes"]}
    assert names == {f"S_{i}" for i in range(1, 14)}
    assert (out_dir / "report.md").exists()
    for c in classes["classes"]:
        assert (out_dir / c["complex_file"]).exists()
    assert sha256(out_dir / "classes.json") == (
        "80b912fa2b2ab480aef3a0fc91f40e6c0cbd6de0fb3a252e3f09e6aea68d8fcc"
    )
    assert sha256(out_dir / "report.md") == (
        "3203c098a8e22e09d4a348a5d5953002c3c578dd7429927a2c009a3b53d179de"
    )


def test_classify_out_of_range(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--m", "6", "--out", str(tmp_path / "x"))
    assert code == 2


def test_charmap_bier(capsys, empty4):
    code, out, err = run(capsys, "charmap", "--bier", empty4)
    assert code == 0
    assert "PASS" in err and "s=5" in err
    obj = json.loads(out)
    assert obj["rows"] == 3 and obj["cols"] == 8


def test_bier_past_the_label_cap_is_domain_error(capsys, tmp_path, monkeypatch):
    # three 20-label facets on [40]: the replay would list K's 3,142,687
    # nonempty faces and take one flip for each before the 80-position sphere
    # could be refused; the dual and the join stay off the path as well
    from biersphere import bier

    rng = random.Random(40)
    facets = [sorted(rng.sample(range(1, 41), 20)) for _ in range(3)]
    path = write(tmp_path / "k40.json", {"m": 40, "facets": facets})

    def unreachable(*args):
        raise AssertionError("built before the cap was checked")

    monkeypatch.setattr(bier, "alexander_dual", unreachable)
    monkeypatch.setattr(bier, "deleted_join", unreachable)
    monkeypatch.setattr(bier, "_flip_replay", unreachable)
    monkeypatch.setattr(bier, "submasks", unreachable)
    for argv in (("sphere", path), ("charmap", "--bier", path)):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        reason = "the doubled ground of 2m = 80 positions exceeds the 64-label cap"
        assert err == f"error: {reason}\n"


def test_failed_sphere_certificate_exits_3(capsys, empty4, monkeypatch):
    # the library raises AssertionError only for a failed construction
    # certificate: one stderr line and exit 3, not a traceback
    from biersphere import bier

    def failed(*args):
        raise AssertionError("Bier construction failed its sphere certificate")

    monkeypatch.setattr(bier, "_flip_replay", failed)
    code, out, err = run(capsys, "sphere", empty4)
    assert (code, out) == (3, "")
    assert err == "error: Bier construction failed its sphere certificate\n"


def test_charmap_building(capsys, b10):
    code, out, _ = run(capsys, "charmap", "--building", b10)
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == 3 and obj["cols"] == 6


def test_charmap_disconnected_building(capsys, tmp_path):
    path = write(tmp_path / "disc.json", {"n_plus_1": 3, "elements": [[1], [2], [3]]})
    code, _, err = run(capsys, "charmap", "--building", path)
    assert code == 2


def test_charmap_building_nerve_over_the_cap(capsys, permutohedron7):
    code, out, err = run(capsys, "charmap", "--building", permutohedron7)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "64-label cap" in err


def test_nestohedron_outputs(capsys, b10, tmp_path):
    off = tmp_path / "p10.off"
    nerve = tmp_path / "n10.json"
    code, out, _ = run(capsys, "nestohedron", b10, "--off", str(off), "--nerve", str(nerve))
    assert code == 0
    assert "8 vertices" in out
    from test_building import read_off

    parsed = read_off(off.read_text())
    assert len(parsed["vertices"]) == 8
    twin = json.loads((tmp_path / "p10.off.json").read_text())
    assert len(twin["vertices"]) == 8
    nerve_obj = json.loads(nerve.read_text())
    assert len(nerve_obj["labels"]) == 6


def test_nestohedron_off_needs_a_3_polytope(capsys, tmp_path):
    path = write(
        tmp_path / "b5.json",
        {"n_plus_1": 5, "elements": [[1], [2], [3], [4], [5], [1, 2, 3, 4, 5]]},
    )
    off = tmp_path / "p5.off"
    code, out, err = run(capsys, "nestohedron", path, "--off", str(off))
    assert code == 2
    assert "error:" in err
    assert not off.exists() and not (tmp_path / "p5.off.json").exists()


def test_nestohedron_nerve_over_the_cap(capsys, permutohedron7, tmp_path):
    nerve = tmp_path / "n7.json"
    code, out, err = run(capsys, "nestohedron", permutohedron7, "--nerve", str(nerve))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "64-label cap" in err
    assert not nerve.exists()
    # without a nerve the polytope itself is still realized
    code, out, _ = run(capsys, "nestohedron", permutohedron7)
    assert code == 0
    assert "5040 vertices, 126 facets" in out


def test_orientable_command(capsys, tmp_path):
    path = write(tmp_path / "m13.json", golden.appendix_matrix(13).to_json_obj())
    code, out, _ = run(capsys, "orientable", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["orientable"] is True
    assert len(obj["basis"]) == 3

    path = write(tmp_path / "m10.json", golden.appendix_matrix(10).to_json_obj())
    code, out, _ = run(capsys, "orientable", path)
    assert code == 0
    assert json.loads(out)["orientable"] is False


def test_betti_command(capsys, tmp_path):
    from biersphere.verify import golden_polytope

    _, nerve, Lam = golden_polytope(13)
    cpath = write(tmp_path / "c.json", nerve.complex.to_json_obj())
    mpath = write(tmp_path / "m.json", Lam.to_json_obj())
    code, out, _ = run(capsys, "betti", cpath, mpath)
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1, 1, 1]


def test_verify_paper(capsys, tmp_path):
    out_dir = tmp_path / "vp"
    code, out, _ = run(capsys, "verify-paper", "--out", str(out_dir))
    assert code == 0
    assert "all checks passed" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["passed"] is True
    assert (out_dir / "summary.md").exists()
    assert sha256(out_dir / "summary.json") == (
        "1e516f4439bf2a385673689c0913c104fd2b698cbea72b74d862a9b71fb773dc"
    )
    assert sha256(out_dir / "summary.md") == (
        "062cdb310f8d960eb6d6dc32c28ae75571ea5c3f820cba304e8c4ec758fff05d"
    )


def write_error(capsys, *argv):
    """Exit 1 naming the unwritable path, nothing on stdout, no traceback."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("flag", ["--off", "--nerve"])
def test_nestohedron_unwritable_output(capsys, b10, tmp_path, flag):
    blocker = tmp_path / "file"
    blocker.write_text("")
    write_error(capsys, "nestohedron", b10, flag, str(blocker / "p.out"))


@pytest.mark.parametrize(
    "argv, name",
    [(("classify", "--m", "4"), "classes.json"), (("verify-paper",), "summary.json")],
)
def test_unwritable_output_file_in_out_dir(capsys, tmp_path, argv, name):
    (tmp_path / name).mkdir()
    err = write_error(capsys, *argv, "--out", str(tmp_path))
    assert name in err


FULL4 = {"m": 4, "facets": [[1, 2, 3, 4]]}
TRIANGLE = {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]}
DISCONNECTED = {"n_plus_1": 3, "elements": [[1], [2], [3]]}
ON_1 = {"n_plus_1": 1, "elements": [[1]]}  # no proper element: its nestohedron is a point
ROWS_4 = {"rows": 4, "cols": 1, "entries": [[1], [0], [0], [0]], "labels": ["a"]}
REPEATED_LABEL = {
    "rows": 3, "cols": 2, "entries": [[1, 0], [0, 1], [0, 0]], "labels": ["a", "a"]
}
# the minor on facet {1, 3} of TRIANGLE is 2
NOT_CHARACTERISTIC = {
    "rows": 2, "cols": 3, "entries": [[1, 0, 1], [0, 1, 2]], "labels": ["a", "b", "c"]
}
M13 = golden.appendix_matrix(13).to_json_obj()

# Refused and malformed inputs, run in a directory that holds only the input
# files: argv, the files, the exit code and a fragment of the reason.
REFUSED = {
    "dual-simplex": ("dual k.json", {"k.json": FULL4}, 2, "Alexander dual undefined"),
    "sphere-simplex": ("sphere k.json", {"k.json": FULL4}, 2, "Bier sphere undefined"),
    "charmap-bier-simplex": (
        "charmap --bier k.json", {"k.json": FULL4}, 2, "Bier sphere undefined"
    ),
    "sphere-m1": ("sphere k.json", {"k.json": {"m": 1, "facets": [[1]]}}, 2, "m >= 2"),
    "charmap-bier-m1": ("charmap --bier k.json", {"k.json": {"m": 1, "facets": [[]]}}, 2, "m >= 2"),
    "sphere-past-the-cap": (
        "sphere k.json", {"k.json": {"m": 33, "facets": [[1]]}}, 2, "64-label cap"
    ),
    "sphere-ground-past-the-cap": (
        "sphere k.json", {"k.json": {"m": 65, "facets": [[1]]}}, 2, "64-label cap"
    ),
    # a label is a bit of a mask, so the ground is checked before any label
    # becomes one: a mask of bit 2^70 is too large to make
    "invariants-label-past-the-cap": (
        "invariants k.json", {"k.json": {"m": 2**70, "facets": [[2**70]]}}, 2, "64-label cap"
    ),
    "invariants-void": (
        "invariants k.json", {"k.json": {"m": 4, "facets": [[]]}}, 2, "has no f-vector"
    ),
    "invariants-non-pure": (
        "invariants k.json", {"k.json": {"m": 4, "facets": [[1, 2], [3]]}}, 2, "pure complex"
    ),
    "charmap-building-disconnected": (
        "charmap --building b.json", {"b.json": DISCONNECTED}, 2, "connected building set"
    ),
    "nestohedron-disconnected": (
        "nestohedron b.json", {"b.json": DISCONNECTED}, 2, "connected building set"
    ),
    "nestohedron-missing-singleton": (
        "nestohedron b.json", {"b.json": {"n_plus_1": 2, "elements": [[1], [1, 2]]}}, 2,
        "missing singleton",
    ),
    "nestohedron-nerve-building-on-1": (
        "nestohedron b.json --nerve n.json", {"b.json": ON_1}, 2, "the nerve is empty"
    ),
    "charmap-building-on-1": (
        "charmap --building b.json", {"b.json": ON_1}, 2, "the nerve is empty"
    ),
    **{
        f"{command.split()[0]}-building-on-{n}": (
            f"{command} b.json", {"b.json": {"n_plus_1": n, "elements": []}}, 2,
            f"n_plus_1 must be >= 1, got {n}",
        )
        for command in ("charmap --building", "nestohedron")
        for n in (0, -2)
    },
    "nestohedron-off-not-3d": (
        "nestohedron b.json --off p.off", {"b.json": ON_1}, 2, "needs a 3-polytope"
    ),
    "orientable-4-rows": ("orientable m.json", {"m.json": ROWS_4}, 2, "three rows only"),
    "orientable-repeated-label": (
        "orientable m.json", {"m.json": REPEATED_LABEL}, 1, "column labels repeat"
    ),
    "betti-shape-mismatch": (
        "betti k.json m.json", {"k.json": TRIANGLE, "m.json": M13}, 2, "column count"
    ),
    "betti-not-characteristic": (
        "betti k.json m.json", {"k.json": TRIANGLE, "m.json": NOT_CHARACTERISTIC}, 2,
        "(facet [1, 3])",
    ),
    "classify-m6": ("classify --m 6 --out cls", {}, 2, "2 <= m <= 5"),
    "classify-m1": ("classify --m 1 --out cls", {}, 2, "2 <= m <= 5"),
    "sphere-float-m": (
        "sphere k.json", {"k.json": {"m": 4.0, "facets": [[1]]}}, 1, "bad complex JSON"
    ),
    "betti-declared-shape": (
        "betti k.json m.json", {"k.json": TRIANGLE, "m.json": {**M13, "cols": 5}}, 1,
        "declared shape",
    ),
}


def refused_case(tmp_path, name):
    argv, inputs, code, reason = REFUSED[name]
    for file, obj in inputs.items():
        write(tmp_path / file, obj)
    return argv.split(), inputs, code, reason


def assert_refused(tmp_path, inputs, code, reason, result):
    """The expected exit, the reason on stderr, nothing on stdout and no
    file written."""
    assert result[:2] == (code, "")
    err = result[2]
    assert err.startswith("error:") and reason in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("name", REFUSED)
def test_refused_input(capsys, tmp_path, monkeypatch, name):
    argv, inputs, code, reason = refused_case(tmp_path, name)
    monkeypatch.chdir(tmp_path)
    assert_refused(tmp_path, inputs, code, reason, run(capsys, *argv))


def module_env(**env):
    """The environment for ``python -m biersphere.cli`` on this checkout."""
    path = [str(Path(biersphere.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **env}


def test_refused_input_through_module_entry(tmp_path):
    argv, inputs, code, reason = refused_case(tmp_path, "charmap-building-on-1")
    proc = subprocess.run(
        [sys.executable, "-m", "biersphere.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=module_env(),
    )
    assert_refused(tmp_path, inputs, code, reason, (proc.returncode, proc.stdout, proc.stderr))


# One 12-label facet on [13]: its Bier sphere has 4,096 facets, about 0.5 MB
# of JSON in about 61k tokens, so its output spans many write batches and
# overfills any pipe buffer.
FACET_12 = {"m": 13, "facets": [list(range(1, 13))]}


@pytest.mark.parametrize("command, build", [("sphere", bier_sphere), ("dual", alexander_dual)])
def test_stdout_is_json_dumps(capsys, tmp_path, command, build):
    code, out, _ = run(capsys, command, write(tmp_path / "k.json", FACET_12))
    obj = build(SimplicialComplex.from_json_obj(FACET_12)).to_json_obj()
    assert (code, out) == (0, json.dumps(obj, indent=2) + "\n")


class CountingSink:
    """A stdout that counts its writes and keeps nothing."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return len(text)


def test_json_is_written_as_it_is_encoded(monkeypatch):
    """Encoded whole, the text peaks at about 8 times its length in token
    strings; one write per token would be a system call each on an
    unbuffered stdout."""
    obj = bier_sphere(SimplicialComplex.from_json_obj(FACET_12)).to_json_obj()
    size = len(json.dumps(obj, indent=2))
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size
    assert 0 < sink.writes <= 40


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_1_quietly(tmp_path, unbuffered):
    path = write(tmp_path / "k.json", FACET_12)
    proc = subprocess.Popen(
        [sys.executable, "-m", "biersphere.cli", "sphere", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=module_env(PYTHONUNBUFFERED=unbuffered),
    )
    assert proc.stdout.read(64).startswith(b"{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_stdout_closed_before_a_short_output(tmp_path, unbuffered):
    """A buffered output that fits the buffer is written at the last flush."""
    path = write(tmp_path / "k.json", {"m": 4, "facets": [[]]})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "biersphere.cli", "dual", path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=module_env(PYTHONUNBUFFERED=unbuffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")

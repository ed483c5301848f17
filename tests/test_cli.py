import hashlib
import json
import random
from itertools import combinations

import pytest

from biersphere import golden
from biersphere.cli import main


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
    # three 20-label facets on [40]: Bier(K) would make 416,284,672 join
    # candidates before the 80-position sphere could be refused
    from biersphere import bier

    rng = random.Random(40)
    facets = [sorted(rng.sample(range(1, 41), 20)) for _ in range(3)]
    path = write(tmp_path / "k40.json", {"m": 40, "facets": facets})

    def unreachable(*args):
        raise AssertionError("built before the cap was checked")

    monkeypatch.setattr(bier, "alexander_dual", unreachable)
    monkeypatch.setattr(bier, "deleted_join", unreachable)
    for argv in (("sphere", path), ("charmap", "--bier", path)):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "64-label cap" in err


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
    from biersphere.building import read_off

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

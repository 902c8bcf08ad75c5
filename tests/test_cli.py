import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import propermaps
from propermaps.ballmaps import RationalBallMap
from propermaps.cli import main
from propermaps.corpus import build_whitney_term, corpus
from propermaps.documents import (MapDocumentError, dumps_map, map_from_document,
                                  map_to_document)
from propermaps.polyalg import Polynomial


# -------------------------------------------------------------- serialization
def test_round_trip_is_bit_exact(registry):
    for name, m in registry.maps.items():
        doc = json.loads(dumps_map(m))
        back = map_from_document(doc)
        assert back.n == m.n and back.N == m.N
        for original, rebuilt in zip(m.p, back.p):
            assert original.terms == rebuilt.terms, name
        assert m.q.terms == back.q.terms


def test_round_trip_preserves_awkward_doubles():
    value = 0.1 + 0.2  # not exactly 0.3
    m = RationalBallMap(1, 1, [Polynomial(1, {(3,): complex(value, -value)})])
    back = map_from_document(json.loads(dumps_map(m)))
    assert back.p[0].terms[(3,)] == complex(value, -value)


@pytest.mark.parametrize("mutation, message", [
    (lambda d: d.pop("target_dim"), "missing"),
    (lambda d: d.update(extra=1), "unknown"),
    (lambda d: d.update(schema_version="99"), "schema_version"),
    (lambda d: d["numerator"].pop(), "one term-list per component"),
    (lambda d: d["numerator"][0][0]["exponents"].pop(), "exponents"),
    (lambda d: d["denominator"].clear(), "constant term"),
])
def test_malformed_documents_are_rejected(mutation, message, registry):
    doc = map_to_document(registry.maps["faran.h"])
    mutation(doc)
    with pytest.raises(MapDocumentError, match=message):
        map_from_document(doc)


def test_term_with_non_numeric_coefficient_rejected():
    doc = {"schema_version": "1", "domain_dim": 1, "target_dim": 1,
           "numerator": [[{"exponents": [1], "re": "one", "im": 0.0}]],
           "denominator": [{"exponents": [0], "re": 1.0, "im": 0.0}]}
    with pytest.raises(MapDocumentError):
        map_from_document(doc)


# ----------------------------------------------------------------- commands
def test_verify_catalog_map_exits_zero(capsys):
    assert main(["verify", "faran.h"]) == 0
    assert "proper" in capsys.readouterr().out


def test_verify_bad_map_exits_one(tmp_path, capsys):
    half = RationalBallMap(2, 1, [0.5 * Polynomial.variable(2, 0)])
    path = tmp_path / "half.json"
    path.write_text(dumps_map(half))
    assert main(["verify", str(path)]) == 1


def test_verify_reports_how_the_denominator_was_decided(tmp_path, capsys):
    from propermaps.constructors import BallAutomorphism, automorphism_map
    path = tmp_path / "moebius.json"
    path.write_text(dumps_map(automorphism_map(BallAutomorphism([0.5, 0.0]))))
    assert main(["verify", str(path)]) == 0
    assert "denominator: factored (margin 5.000e-01)" in capsys.readouterr().out
    assert main(["verify", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["denominator_method"] == "factored"
    assert payload["denominator_margin"] == pytest.approx(0.5)


def test_verify_rejects_denominator_vanishing_on_the_sphere(tmp_path, capsys):
    # q = 1 - z1 vanishes at (1, 0); a sampled check used to accept it.
    doc = {"schema_version": "1", "domain_dim": 2, "target_dim": 2,
           "numerator": [[{"exponents": [1, 0], "re": 1.0, "im": 0.0}],
                         [{"exponents": [0, 1], "re": 1.0, "im": 0.0}]],
           "denominator": [{"exponents": [0, 0], "re": 1.0, "im": 0.0},
                           {"exponents": [1, 0], "re": -1.0, "im": 0.0}]}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: denominator factor")


def test_missing_file_exits_two(capsys):
    assert main(["verify", "/does/not/exist.json"]) == 2


def test_degree_and_embdim_commands(capsys):
    assert main(["degree", "ex2.1.f"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["embdim", "ex2.1.g"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_equiv_command_exit_codes(capsys):
    assert main(["equiv", "faran.f", "faran.f"]) == 0
    assert main(["equiv", "ex2.1.f", "ex2.1.g"]) == 1


def test_bound_command(capsys):
    assert main(["bound", "degree", "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["bound", "degree", "2", "4"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["bound", "degree", "1", "3"]) == 2  # domain dimension too small


def test_blaschke_command(capsys):
    assert main(["blaschke", "--zeros", "0.3,-0.5j,0.1+0.2j", "--homotopy",
                 "--grid", "7"]) == 0
    out = capsys.readouterr().out
    assert "winding degree: 3" in out


def test_blaschke_rejects_zero_outside_disk(capsys):
    assert main(["blaschke", "--zeros", "1.5"]) == 2


def test_xvariety_fiber_and_graph(capsys):
    assert main(["xvariety", "ex4.1.map", "--at", "0.3+0.1j,0.2"]) == 0
    assert "fiber dimension" in capsys.readouterr().out
    assert main(["xvariety", "ex2.1.h", "--graph-test", "--samples", "10"]) == 0


def test_xvariety_pole_is_a_mathematical_failure(tmp_path, capsys):
    # Automorphism denominator 1 - 0.5 z1 vanishes at w = (2, 0).
    from propermaps.constructors import BallAutomorphism, automorphism_map
    path = tmp_path / "moebius.json"
    path.write_text(dumps_map(automorphism_map(BallAutomorphism([0.5, 0.0]))))
    assert main(["xvariety", str(path), "--at", "2,0"]) == 1


def test_whitney_collapse_flag(tmp_path, capsys):
    script = tmp_path / "plain.json"
    script.write_text(json.dumps({"domain_dim": 2,
                                  "steps": [{"subspace": [1]}]}))
    assert main(["whitney", "build", str(script), "--collapse", "--grid", "7"]) == 0
    assert "degree-lowering family" in capsys.readouterr().out


def test_homotopy_family_id(capsys):
    assert main(["homotopy", "ex2.1.family", "--grid", "11"]) == 0
    assert "passed=True" in capsys.readouterr().out


def test_homotopy_juxtaposition_script(tmp_path, capsys):
    script = tmp_path / "family.json"
    script.write_text(json.dumps({"kind": "juxtaposition",
                                  "left": "faran.g", "right": "faran.h"}))
    assert main(["homotopy", str(script), "--grid", "9"]) == 0


def test_whitney_build_command(tmp_path, capsys):
    script = tmp_path / "term.json"
    script.write_text(json.dumps({
        "domain_dim": 2,
        "start": {"a": [[0.1, 0.0], [0.0, -0.1]]},
        "steps": [{"subspace": [1]},
                  {"subspace": [0, 2], "phi": {"a": [[0.0, 0.1], [0.0, 0.0]]}}],
    }))
    out_path = tmp_path / "map.json"
    assert main(["whitney", "build", str(script), "--out", str(out_path),
                 "--monomial-homotopy", "--grid", "7"]) == 0
    saved = json.loads(out_path.read_text())
    assert saved["domain_dim"] == 2
    rebuilt = map_from_document(saved)
    assert rebuilt.N == saved["target_dim"]


WHITNEY_SCRIPT = {
    "domain_dim": 2,
    "start": {"a": [[0.3, 0.1], [0.0, -0.2]]},
    "steps": [{"subspace": [1], "phi": {"a": [[0.0, 0.2], [0.1, 0.0]]}},
              {"subspace": [0, 2]}],
}


def _whitney_document(tmp_path):
    script = tmp_path / "term.json"
    script.write_text(json.dumps(WHITNEY_SCRIPT))
    out_path = tmp_path / "map.json"
    assert main(["whitney", "build", str(script), "--out", str(out_path)]) == 0
    return json.loads(out_path.read_text())


def test_map_documents_keep_denominator_factors(tmp_path, registry):
    from propermaps.ballmaps import certify_proper
    in_memory = certify_proper(build_whitney_term(WHITNEY_SCRIPT).map)
    doc = _whitney_document(tmp_path)
    assert len(doc["denominator_factors"]) >= 2
    loaded = certify_proper(map_from_document(doc))
    assert in_memory.denominator_method == loaded.denominator_method == "factored"
    assert loaded.denominator_margin == in_memory.denominator_margin
    # Maps without factors are written exactly as before.
    assert list(map_to_document(registry.maps["faran.h"])) == [
        "schema_version", "domain_dim", "target_dim", "numerator", "denominator"]


@pytest.mark.parametrize("field", [
    "centres", [[0.5, 0.0]], [[[0.5, 0.0]]], [[[0.5, "x"], [0.0, 0.0]]],
    [[[float("nan"), 0.0], [0.0, 0.0]]], [[[0.5, 0.0, 0.0], [0.0, 0.0]]],
])
def test_malformed_denominator_factors_exit_two(field, tmp_path, capsys):
    doc = _whitney_document(tmp_path)
    doc["denominator_factors"] = field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: denominator_factors")


def test_denominator_factors_that_miss_q_fall_back(tmp_path, capsys):
    from propermaps.ballmaps import certify_proper
    doc = _whitney_document(tmp_path)
    without = dict(doc)
    del without["denominator_factors"]
    expected = certify_proper(map_from_document(without))
    doc["denominator_factors"][0][0] = [0.5, 0.0]
    cert = certify_proper(map_from_document(doc))
    assert cert.denominator_method != "factored"
    assert (cert.denominator_method, cert.denominator_margin, cert.verdict) == (
        expected.denominator_method, expected.denominator_margin, expected.verdict)
    # A factor field cannot make a denominator that vanishes on the sphere
    # pass: q = 1 - z1 is still decided by its own factor.
    pole = {"schema_version": "1", "domain_dim": 2, "target_dim": 2,
            "numerator": [[{"exponents": [1, 0], "re": 1.0, "im": 0.0}],
                          [{"exponents": [0, 1], "re": 1.0, "im": 0.0}]],
            "denominator": [{"exponents": [0, 0], "re": 1.0, "im": 0.0},
                            {"exponents": [1, 0], "re": -1.0, "im": 0.0}],
            "denominator_factors": [[[0.5, 0.0], [0.0, 0.0]]]}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(pole))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: denominator factor")


def test_verify_reports_the_largest_remainder_entry(tmp_path, capsys):
    half = RationalBallMap(2, 2, [0.5 * Polynomial.variable(2, 0),
                                  0.5 * Polynomial.variable(2, 1)])
    path = tmp_path / "half.json"
    path.write_text(dumps_map(half))
    assert main(["verify", str(path)]) == 1
    assert "largest remainder entry: ((0, 0), (0, 0))" in capsys.readouterr().out
    assert main(["verify", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["worst_entry"] == [[0, 0], [0, 0]]
    assert main(["corpus", "run", "--grid", "3", "--json"]) == 0
    maps = json.loads(capsys.readouterr().out)["maps"]
    assert all("worst_entry" in report for report in maps.values())


def test_whitney_script_parses_vector_subspaces():
    term = build_whitney_term({
        "domain_dim": 2,
        "steps": [{"subspace": [[[1.0, 0.0], [0.0, 0.0]]]}],
    })
    assert term.map.N == 3


def test_corpus_list_and_run(capsys):
    assert main(["corpus", "list"]) == 0
    listed = capsys.readouterr().out
    for name in ("ex2.1.f", "ex2.1.family", "faran.phi", "whitney.W",
                 "ex4.1.map", "ex4.2.family"):
        assert name in listed
    assert main(["corpus", "run", "--grid", "5"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_corpus_run_is_deterministic(capsys):
    main(["corpus", "run", "--grid", "5", "--seed", "3"])
    first = capsys.readouterr().out
    main(["corpus", "run", "--grid", "5", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_json_output_mode(capsys):
    assert main(["verify", "faran.phi", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "proper"
    assert payload["residual"] <= 1e-9
    assert main(["corpus", "run", "--grid", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0


def test_registry_contains_exactly_four_faran_maps(registry):
    faran = [name for name in registry.maps if name.startswith("faran.")]
    assert sorted(faran) == ["faran.f", "faran.g", "faran.h", "faran.phi"]


def test_registry_dimensions(registry):
    assert registry.maps["ex4.1.map"].N == 4
    assert registry.families["ex2.1.family"].target_dim == 5
    assert registry.get_map("whitney.W").n == 3
    with pytest.raises(KeyError):
        registry.get_map("nope")


# ------------------------------------------------------------ malformed input
SRC = str(Path(propermaps.__file__).resolve().parents[1])


def _run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "propermaps.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def _nan_document():
    doc = map_to_document(RationalBallMap.identity(2))
    doc["numerator"][0][0]["re"] = float("nan")
    return doc


# Each case: CLI arguments, the document written to doc.json (if any), and a
# fragment of the error line that names the check expected to reject it.
MALFORMED = {
    "blaschke-nan-zero": (["blaschke", "--zeros", "0.3,nan", "--homotopy"], None,
                          "must be finite"),
    "document-nan-coefficient": (["verify", "doc.json"], _nan_document(),
                                 "numerator[0][0].re must be a finite number"),
    "xvariety-nan-point": (["xvariety", "faran.h", "--at=nan,0.1"], None,
                           "must be finite"),
    "whitney-steps-not-a-list": (["whitney", "build", "doc.json"],
                                 {"domain_dim": 2, "steps": 5},
                                 "steps must be a list"),
    "whitney-subspace-out-of-range": (["whitney", "build", "doc.json"],
                                      {"domain_dim": 2, "steps": [{"subspace": [7]}]},
                                      "out of range"),
    "homotopy-blaschke-bare-zeros": (["homotopy", "doc.json"],
                                     {"kind": "blaschke", "zeros": [1, 2]},
                                     "[re, im] zeros"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_without_traceback(case, tmp_path):
    args, document, reason = MALFORMED[case]
    if document is not None:
        (tmp_path / "doc.json").write_text(json.dumps(document))
    result = _run_cli(args, tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    first = result.stderr.splitlines()[0]
    assert first.startswith("input error:") and reason in first
    assert "Traceback" not in result.stderr


def test_import_does_not_load_scipy(tmp_path):
    code = ("import sys, propermaps; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

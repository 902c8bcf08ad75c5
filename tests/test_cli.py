import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import propermaps
from propermaps._linalg import random_unitary
from propermaps.ballmaps import RationalBallMap, apply_linear
from propermaps.cli import _build_parser, main
from propermaps.constructors import BlaschkeProduct
from propermaps.corpus import build_whitney_term, corpus, faran_maps
from propermaps.documents import (MapDocumentError, dumps_map, map_from_document,
                                  map_to_document)
from propermaps.homotopy import (blaschke_homotopy, faran_families, homotopy_to_monomial,
                                 verify_family)
from propermaps.polyalg import DEFAULT_TOL, Polynomial
from propermaps.xvariety import build_xmatrix


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
    half = RationalBallMap(2, 1, [Polynomial.monomial((1, 0), 0.5)])
    path = tmp_path / "half.json"
    path.write_text(dumps_map(half))
    assert main(["verify", str(path)]) == 1


def test_verify_reports_how_the_denominator_was_decided(tmp_path, capsys):
    from propermaps.ballmaps import certify_proper
    from propermaps.constructors import BallAutomorphism, automorphism_map
    m = automorphism_map(BallAutomorphism([0.5, 0.0]))
    path = tmp_path / "moebius.json"
    path.write_text(dumps_map(m))
    assert main(["verify", str(path)]) == 0
    assert "denominator: factored (margin 5.000e-01)" in capsys.readouterr().out
    assert main(["verify", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["denominator_method"] == "factored"
    assert payload["denominator_margin"] == pytest.approx(0.5)
    # The witness point comes next to its defect, as [re, im] pairs.
    cert = certify_proper(map_from_document(json.loads(path.read_text())))
    assert payload["sampled_sphere_defect"] == cert.witness_value
    assert payload["witness"] == [[z.real, z.imag] for z in cert.witness.tolist()]


def test_verify_decides_a_composed_denominator_without_its_factors(tmp_path, capsys):
    from propermaps.ballmaps import compose
    from propermaps.constructors import BallAutomorphism, automorphism_map
    square = RationalBallMap(2, 3, [Polynomial.monomial((2, 0)),
                                    Polynomial.monomial((1, 1), 2 ** 0.5),
                                    Polynomial.monomial((0, 2))])
    doc = map_to_document(compose(square, automorphism_map(BallAutomorphism([0.5, 0.0]))))
    # Documents written before maps carried their factors have no such field.
    del doc["denominator_factors"]
    path = tmp_path / "composed.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 0
    assert "denominator: factored (margin 2.500e-01)" in capsys.readouterr().out
    assert main(["verify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["denominator_method"] == "factored"


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


def test_equiv_reports_the_largest_relative_entry(registry, tmp_path, capsys):
    h = registry.maps["faran.h"]
    rotated = tmp_path / "rotated.json"
    rotated.write_text(dumps_map(apply_linear(random_unitary(h.N, np.random.default_rng(4)), h)))
    for argv, code, equivalent in ((["faran.h", str(rotated)], 0, True),
                                   (["ex2.1.f", "ex2.1.g"], 1, False)):
        assert main(["equiv", *argv]) == code
        lines = capsys.readouterr().out.splitlines()
        head, _, value = lines[1].partition(": ")
        assert head == "largest relative entry"
        printed = float(value.split()[0])
        assert main(["equiv", *argv, "--json"]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["equivalent"] is equivalent
        assert abs(printed - report["largest_relative"]) <= 1e-3 * report["largest_relative"]
        if equivalent:
            assert report["largest_relative"] < 1e-12
        else:
            assert report["largest_relative"] > DEFAULT_TOL


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


@pytest.mark.parametrize("extra", [[], ["--graph-test", "--samples", "5"]])
def test_xvariety_of_a_zero_numerator(extra, tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(dumps_map(RationalBallMap(2, 1, [Polynomial.zero(2)])))
    assert main(["xvariety", str(path), *extra]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if not extra:
        assert captured.out.startswith("homogenization matrix: 1 x 1, degree 0")


def _printed_terms(text, n):
    """{exponents: coefficient} of an entry as ``xvariety`` prints it, for
    example ``(0.5-0.25j)*w1^2*w2 + -1``."""
    terms = {}
    for bit in ([] if text == "0" else text.split(" + ")):
        coefficient, *variables = bit.split("*")
        alpha = [0] * n
        for variable in variables:
            name, _, power = variable.partition("^")
            alpha[int(name[1:]) - 1] += int(power or 1)
        terms[tuple(alpha)] = complex(coefficient)
    return terms


@pytest.mark.parametrize("name", ["faran.h", "ex2.1.f", "ex2.1.f-rotated"])
def test_xvariety_prints_each_entry_of_the_matrix(name, registry, tmp_path, capsys):
    m = registry.maps[name.split("-")[0]]
    token = name
    if name.endswith("-rotated"):
        m = apply_linear(random_unitary(m.N, np.random.default_rng(4)), m)
        token = str(tmp_path / "rotated.json")
        Path(token).write_text(dumps_map(m))
    assert main(["xvariety", token]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  row ")]
    x = build_xmatrix(m)
    assert len(lines) == x.row_count
    complex_form = False
    for line, alpha, row in zip(lines, x.rows, x.entries):
        head, _, body = line.partition(": ")
        assert head == f"  row {list(alpha)}"
        printed = body[1:-1].split(", ")
        assert len(printed) == len(row)
        for text, entry in zip(printed, row):
            complex_form |= "j)" in text
            got = _printed_terms(text, m.n)
            for beta in set(got) | set(entry.terms):
                want = entry.terms.get(beta, 0.0)
                # Six significant digits of each part.
                assert abs(got.get(beta, 0.0) - want) <= 1e-5 * max(1.0, abs(want))
    assert complex_form == name.endswith("-rotated")


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
    out = capsys.readouterr().out
    assert "degree-lowering family in B" in out
    assert "monomial endpoint" not in out
    assert main(["whitney", "build", str(script), "--collapse", "--grid", "7", "--json"]) == 0
    assert "collapse_from" not in json.loads(capsys.readouterr().out)


def test_whitney_collapse_of_the_readme_script(tmp_path, capsys):
    # The README's script has a step with an automorphism, so its term is not
    # a monomial map: the degree-lowering family starts at the monomial
    # endpoint of the term's monomial homotopy.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Whitney scripts", 1)[1].split("```json", 1)[1]
    script = tmp_path / "script.json"
    script.write_text(block.split("```", 1)[0])
    args = ["whitney", "build", str(script), "--monomial-homotopy", "--collapse",
            "--grid", "11"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "monomial homotopy: endpoint degree 3, pass" in lines
    assert "degree-lowering family from the monomial endpoint in B6: pass" in lines
    # The JSON report names the map that was lowered, too.
    assert main(args + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["collapse_from"] == "monomial_endpoint"
    assert payload["collapse"]["passed"]


def test_homotopy_family_id(capsys):
    assert main(["homotopy", "ex2.1.family", "--grid", "11"]) == 0
    assert "passed=True" in capsys.readouterr().out


def test_homotopy_juxtaposition_script(tmp_path, capsys):
    script = tmp_path / "family.json"
    script.write_text(json.dumps({"kind": "juxtaposition",
                                  "left": "faran.g", "right": "faran.h"}))
    assert main(["homotopy", str(script), "--grid", "9"]) == 0


@pytest.mark.parametrize("kind", ["whitney-monomial", "blaschke"])
def test_homotopy_family_scripts(kind, tmp_path, capsys):
    if kind == "blaschke":
        script = {"kind": kind, "zeros": [[0.3, 0.1], [-0.2, 0.4]], "theta": 0.7}
        family = blaschke_homotopy(BlaschkeProduct(0.7, [0.3 + 0.1j, -0.2 + 0.4j]))
    else:
        script = {"kind": kind, "script": WHITNEY_SCRIPT}
        family = homotopy_to_monomial(build_whitney_term(WHITNEY_SCRIPT))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(script))
    assert main(["homotopy", str(path), "--grid", "11", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    expected = verify_family(family, grid_size=11).to_dict()
    # Everything but the timings of the two runs is the same.
    assert report.pop("timings").keys() == expected.pop("timings").keys()
    assert report == expected
    assert report["passed"]


def test_whitney_collapse_without_the_monomial_homotopy(tmp_path, capsys):
    # The term starts at an automorphism, so it is not a monomial map: the
    # monomial homotopy is built for the collapse alone, and not reported.
    assert not build_whitney_term(WHITNEY_SCRIPT).map.is_monomial_map
    script = tmp_path / "term.json"
    script.write_text(json.dumps(WHITNEY_SCRIPT))
    assert main(["whitney", "build", str(script), "--collapse", "--grid", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["collapse_from"] == "monomial_endpoint"
    assert payload["collapse"]["passed"]
    assert "monomial_homotopy" not in payload


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
    half = RationalBallMap(2, 2, [Polynomial.monomial((1, 0), 0.5),
                                  Polynomial.monomial((0, 1), 0.5)])
    path = tmp_path / "half.json"
    path.write_text(dumps_map(half))
    assert main(["verify", str(path)]) == 1
    assert "largest remainder entry: ((1, 0), (1, 0))" in capsys.readouterr().out
    assert main(["verify", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["worst_entry"] == [[1, 0], [1, 0]]
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


def test_catalog_listing_equals_the_built_entries():
    # corpus list reads each id's (n, N, degree) or (domain, target) from
    # the table, and each builder's first doc line from a numpy-free
    # wrapper; every entry built must agree.
    from propermaps import homotopy
    from propermaps.corpus import BUILDERS, listing
    assert listing() == corpus().entries()
    assert len(listing()) == 17
    assert BUILDERS["blaschke.homotopy"].__doc__ == homotopy.blaschke_homotopy.__doc__


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


def test_corpus_calls_each_faran_builder_once():
    # The four faran.* map ids share one builder, and so do the three
    # faran.*.family ids; the families build their endpoints' maps once more.
    codes = {faran_maps.__code__: "faran_maps", faran_families.__code__: "faran_families"}
    calls = dict.fromkeys(codes.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        registry = corpus()
    finally:
        sys.setprofile(None)
    assert calls == {"faran_maps": 2, "faran_families": 1}
    assert len(registry.maps) == 9 and len(registry.families) == 5


def test_registry_dimensions(registry):
    assert registry.maps["ex4.1.map"].N == 4
    assert registry.families["ex2.1.family"].target_dim == 5
    assert registry.get_map("whitney.W").n == 3
    with pytest.raises(KeyError):
        registry.get_map("nope")


def test_catalog_degree_drop_maps_are_the_family_ends(registry):
    # The catalog writes ex2.1.f and ex2.1.g out, so they load without homotopy.
    family = registry.families["ex2.1.family"]
    for name, end in (("ex2.1.f", family.endpoint_right), ("ex2.1.g", family.endpoint_left)):
        m = registry.maps[name]
        assert m.support == end.support
        assert m.coefficients.tobytes() == end.coefficients.tobytes()


# ------------------------------------------------------------- option surface
SHARED_FLAGS = {"--tol", "--seed", "--grid", "--samples", "--json"}

# Per subcommand: the shared flags its handler reads, and its --grid default.
FLAG_TABLE = {
    "verify": ({"--tol", "--seed", "--json"}, None),
    "degree": ({"--json"}, None),
    "embdim": ({"--json"}, None),
    "bound": ({"--json"}, None),
    "equiv": ({"--tol", "--json"}, None),
    "xvariety": ({"--seed", "--samples", "--json"}, None),
    "whitney": ({"--tol", "--seed", "--grid", "--json"}, 101),
    "homotopy": ({"--tol", "--seed", "--grid", "--json"}, 101),
    "blaschke": ({"--tol", "--seed", "--grid", "--json"}, 11),
    "corpus": ({"--tol", "--seed", "--grid", "--json"}, 11),
}


def test_each_subcommand_declares_only_the_shared_flags_it_reads():
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(FLAG_TABLE)
    for name, p in subparsers.items():
        flags, grid = FLAG_TABLE[name]
        declared = {s for a in p._actions for s in a.option_strings} & SHARED_FLAGS
        assert declared == flags, name
        assert p.get_default("grid") == grid, name
    assert sum(len(flags) for flags, _ in FLAG_TABLE.values()) == 27


@pytest.mark.parametrize("argv", [
    ["degree", "ex2.1.f", "--tol", "1e-3"],
    ["verify", "faran.h", "--grid", "5"],
    ["equiv", "ex2.1.f", "ex2.1.g", "--seed", "3"],
    ["bound", "degree", "2", "3", "--samples", "0"],
])
def test_a_flag_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_usage_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line usage", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].strip().splitlines()
    assert lines and all(line.startswith("propermaps ") for line in lines)
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


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
                                      "subspace indices [7] out of range for target "
                                      "dimension 2"),
    "whitney-subspace-beyond-int64": (["whitney", "build", "doc.json"],
                                      {"domain_dim": 2, "steps": [{"subspace": [2 ** 70]}]},
                                      f"subspace indices [{2 ** 70}] out of range"),
    "whitney-subspace-empty": (["whitney", "build", "doc.json"],
                               {"domain_dim": 2, "steps": [{"subspace": []}]},
                               "tensor subspace must be nonzero"),
    "homotopy-blaschke-bare-zeros": (["homotopy", "doc.json"],
                                     {"kind": "blaschke", "zeros": [1, 2]},
                                     "[re, im] zeros"),
    "equiv-nan-tol": (["equiv", "ex2.1.f", "ex2.1.g", "--tol", "nan"], None,
                      "--tol must be a finite positive number"),
    "verify-negative-tol": (["verify", "faran.h", "--tol", "-1"], None,
                            "--tol must be a finite positive number"),
    "homotopy-infinite-tol": (["homotopy", "faran.fg.family", "--tol", "inf"], None,
                              "--tol must be a finite positive number"),
    "xvariety-zero-samples": (["xvariety", "faran.h", "--graph-test", "--samples", "0"],
                              None, "--samples must be at least 1"),
    "verify-negative-seed": (["verify", "faran.h", "--seed", "-1"], None,
                             "--seed must be a non-negative integer"),
    "xvariety-negative-seed": (["xvariety", "faran.h", "--graph-test", "--seed", "-1"], None,
                               "--seed must be a non-negative integer"),
    "bound-negative-target": (["bound", "degree", "2", "-3"], None, "no proper map from B2"),
    "bound-target-below-domain": (["bound", "degree", "3", "2"], None,
                                  "no proper map from B3 to B2"),
    "whitney-out-under-a-file": (["whitney", "build", "doc.json", "--out", "doc.json/out.json"],
                                 {"domain_dim": 2, "steps": [{"subspace": [1]}]},
                                 "Not a directory"),
    "homotopy-whitney-monomial-without-script": (["homotopy", "doc.json"],
                                                 {"kind": "whitney-monomial"},
                                                 "needs a 'script' object"),
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


MODULES = ("bounds", "_linalg", "polyalg", "ballmaps", "constructors", "homotopy", "xvariety",
           "documents", "corpus", "cli")


def test_import_does_not_load_scipy(tmp_path):
    # Importing every module also builds no plan, so every module-level
    # cache of the package stays empty, and each is bounded.
    code = (f"import json, sys, {', '.join(f'propermaps.{m}' for m in MODULES)}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(json.dumps({f'{name}.{attr}': [c.cache_info().currsize, "
            "c.cache_info().maxsize] for name, module in list(sys.modules.items()) "
            "if name.split('.')[0] == 'propermaps' for attr, c in vars(module).items() "
            "if hasattr(c, 'cache_info')}))")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    modules, caches = result.stdout.splitlines()
    assert modules == "[]"
    caches = json.loads(caches)
    assert {"propermaps.ballmaps._support_degrees", "propermaps.ballmaps._power_plan",
            "propermaps.polyalg._bernstein_plan", "propermaps.polyalg._radial_plan",
            "propermaps.polyalg._product_plan",
            "propermaps.polyalg._degree_table", "propermaps.xvariety._lift_plan"} <= set(caches)
    for name, (currsize, maxsize) in caches.items():
        assert currsize == 0, name
        assert isinstance(maxsize, int) and maxsize > 0, name


# ------------------------------------------------------------ one-shot loading
# The test process has every module loaded, so these run fresh interpreters.
def _fresh(code, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _modules_after_main(args, cwd):
    """The exit code of ``main(args)`` in a fresh interpreter, the propermaps
    modules it loaded, whether it loaded numpy, and what it wrote to stderr."""
    code = ("import contextlib, io, json, sys\nfrom propermaps.cli import main\n"
            "err = io.StringIO()\nwith contextlib.redirect_stderr(err):\n"
            "    code = main(%r)\n"
            "print(json.dumps([code, sorted(m.split('.')[1] for m in sys.modules "
            "if m.startswith('propermaps.')), 'numpy' in sys.modules, err.getvalue()]))"
            % (list(args),))
    return _fresh(code, cwd)


def test_import_loads_no_submodule(tmp_path):
    code = ("import json, sys, propermaps\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('propermaps.')]))")
    assert _fresh(code, tmp_path) == []


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module, tmp_path):
    # A lazy import can hide a cycle that only one import order reaches.
    assert _fresh(f"import propermaps.{module}\nprint('[]')", tmp_path) == []


@pytest.mark.parametrize("args, expected", [
    (["bound", "degree", "2", "3"], 0),
    (["verify", "doc.json"], 0),
    (["degree", "doc.json"], 0),
    (["verify", "faran.h"], 0),
    (["degree", "ex2.1.f"], 0),
    (["blaschke", "--zeros", "0.3,-0.5j", "--homotopy", "--grid", "3"], 0),
    (["corpus", "list"], 0),
])
def test_a_command_loads_only_its_own_modules(args, expected, tmp_path):
    (tmp_path / "doc.json").write_text(dumps_map(RationalBallMap.identity(2)))
    code, modules, _, _ = _modules_after_main(args, tmp_path)
    assert code == expected
    # Only the Blaschke homotopy builds and verifies a family.
    family = {"homotopy", "constructors"} if args[0] == "blaschke" else set()
    assert {"homotopy", "constructors", "xvariety"} & set(modules) == family
    # A catalog id and its listing load the catalog; a document path does
    # not, and neither does a family that is not built from it.
    assert ("corpus" in modules) == (args[1] in ("faran.h", "ex2.1.f", "list"))


def _write_rejected_inputs(tmp_path):
    bad_schema = map_to_document(faran_maps()["h"])
    bad_schema["schema_version"] = "99"
    for name, payload in (("bad-schema.json", bad_schema),
                          ("whitney-bad-steps.json", {"domain_dim": 2, "steps": 5}),
                          ("family-bad-kind.json", {"kind": "spiral"})):
        (tmp_path / name).write_text(json.dumps(payload))


@pytest.mark.parametrize("args, expected, stderr", [
    (["bound", "degree", "2", "3"], 0, ""),
    (["bound", "degree", "2", "3", "--json"], 0, ""),
    (["verify", "missing.json"], 2,
     "input error: [Errno 2] No such file or directory: 'missing.json'\n"),
    (["degree", "bad-schema.json"], 2, "input error: unsupported schema_version '99'\n"),
    (["homotopy", "family-bad-kind.json"], 2,
     "input error: unknown family script kind 'spiral'\n"),
    (["blaschke", "--zeros", "0.3,nan", "--homotopy"], 2,
     "input error: zeros '0.3,nan' must be finite\n"),
    (["whitney", "build", "whitney-bad-steps.json"], 2,
     "input error: script steps must be a list\n"),
    (["verify", "nosuch.id"], 2, "input error: unknown catalog id or missing file: nosuch.id\n"),
    (["homotopy", "faran.h"], 2, "input error: faran.h is a catalog map, not a family\n"),
    (["corpus", "list"], 0, ""),
    (["corpus", "list", "--json"], 0, ""),
])
def test_bound_and_rejected_input_load_no_numpy(args, expected, stderr, tmp_path):
    _write_rejected_inputs(tmp_path)
    code, modules, numpy_loaded, err = _modules_after_main(args, tmp_path)
    assert (code, err) == (expected, stderr)
    assert not numpy_loaded
    assert not {"_linalg", "polyalg", "ballmaps"} & set(modules)
    # A token that may be a catalog id, and the listing, read the catalog's
    # table, and only that.
    assert ("corpus" in modules) == (args[1] in ("nosuch.id", "faran.h", "list"))


def test_a_command_that_computes_with_a_map_loads_numpy(tmp_path):
    # So that the test above cannot pass because numpy is never recorded.
    code, modules, numpy_loaded, err = _modules_after_main(["verify", "faran.h"], tmp_path)
    assert (code, err) == (0, "")
    assert numpy_loaded and "ballmaps" in modules


def test_plain_data_modules_load_no_numpy(tmp_path):
    code = ("import json, sys\nimport propermaps.bounds, propermaps.documents, propermaps.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'\n"
            "    or m in ('propermaps.ballmaps', 'propermaps.polyalg'))))")
    assert _fresh(code, tmp_path) == []


def test_json_default_writes_numpy_integers_as_integers():
    from fractions import Fraction

    from propermaps.cli import _json_default
    values = {"int": np.int64(4), "float": np.float32(0.5), "complex": np.complex128(1 - 2j),
              "array": np.array([1, 2]), "fraction": Fraction(10, 4), "python": 3 + 4j}
    assert json.loads(json.dumps(values, default=_json_default)) == {
        "int": 4, "float": 0.5, "complex": [1.0, -2.0], "array": [1, 2],
        "fraction": "5/2", "python": [3.0, 4.0]}
    assert isinstance(_json_default(np.int64(4)), int)
    with pytest.raises(TypeError):
        _json_default(object())


def test_a_catalog_id_builds_only_its_own_entry(tmp_path):
    # corpus() is replaced before cli is imported, so any call of it fails.
    code = ("import importlib, json\n"
            "def refuse():\n    raise AssertionError('corpus() built the whole catalog')\n"
            "importlib.import_module('propermaps.corpus').corpus = refuse\n"
            "from propermaps.cli import main\n"
            "print(json.dumps(main(['verify', 'faran.h'])))")
    assert _fresh(code, tmp_path) == 0


@pytest.mark.parametrize("args, message", [
    (["verify", "faran.fg.family"], "faran.fg.family is a catalog family, not a map"),
    (["homotopy", "faran.h"], "faran.h is a catalog map, not a family"),
    (["degree", "nosuch.id"], "unknown catalog id or missing file: nosuch.id"),
])
def test_a_token_that_is_no_file_says_what_it_is(args, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"
    # A token with a directory part is a path, as before.
    assert main([args[0], os.path.join("sub", args[1])]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    if args[0] != "homotopy":
        # A map document of that name is read as a path.
        (tmp_path / args[1]).write_text(dumps_map(RationalBallMap.identity(2)))
        assert main(args) == 0


def test_catalog_ids_are_not_read_as_paths():
    # cli reads a token with a directory part or a .json suffix as a path
    # without loading the catalog, so no catalog id may look like one.
    from propermaps.corpus import CATALOG
    assert CATALOG and not [name for name in CATALOG
                            if os.path.dirname(name) or name.endswith(".json")]


def _pole_document(tmp_path):
    # Automorphism denominator 1 - 0.5 z1 vanishes at w = (2, 0).
    from propermaps.constructors import BallAutomorphism, automorphism_map
    (tmp_path / "doc.json").write_text(
        dumps_map(automorphism_map(BallAutomorphism([0.5, 0.0]))))


def _vanishing_denominator_document(tmp_path):
    doc = {"schema_version": "1", "domain_dim": 2, "target_dim": 2,
           "numerator": [[{"exponents": [1, 0], "re": 1.0, "im": 0.0}],
                         [{"exponents": [0, 1], "re": 1.0, "im": 0.0}]],
           "denominator": [{"exponents": [0, 0], "re": 1.0, "im": 0.0},
                           {"exponents": [1, 0], "re": -1.0, "im": 0.0}]}
    (tmp_path / "doc.json").write_text(json.dumps(doc))


def _unknown_family_script(tmp_path):
    (tmp_path / "doc.json").write_text(json.dumps({"kind": "spiral"}))


@pytest.mark.parametrize("args, write, code", [
    (["xvariety", "doc.json", "--at", "2,0"], _pole_document, 1),
    (["verify", "doc.json"], _vanishing_denominator_document, 1),
    (["homotopy", "doc.json"], _unknown_family_script, 2),
])
def test_a_fresh_process_fails_as_in_process(args, write, code, tmp_path, capsys,
                                             monkeypatch):
    # The exit code of an error class does not depend on which modules the
    # command had loaded before it was raised.
    write(tmp_path)
    fresh = _run_cli(args, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(args) == fresh.returncode == code
    captured = capsys.readouterr()
    assert captured.out == fresh.stdout == ""
    assert captured.err == fresh.stderr
    assert captured.err.startswith("error:" if code == 1 else "input error:")


def test_exports_are_their_modules_objects():
    import importlib
    for name in propermaps.__all__:
        module = importlib.import_module(f"propermaps.{propermaps._MODULE_OF[name]}")
        assert getattr(propermaps, name) is getattr(module, name), name
    assert set(propermaps.__all__) <= set(dir(propermaps))
    namespace = {}
    exec("from propermaps import *", namespace)
    assert {name: namespace[name] for name in propermaps.__all__} == {
        name: getattr(propermaps, name) for name in propermaps.__all__}

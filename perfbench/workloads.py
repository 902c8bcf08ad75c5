"""The four benchmark workloads: seeded inputs, operations and their oracles.

Each workload function takes the seed and returns the operations of one
pass.  An operation's ``run`` is what the benchmark times; its ``check``
compares the result with values fixed by construction and returns one
``"check: detail"`` string per mismatch.  Checks read coefficients directly instead of calling
the program's own invariants, so an oracle never shares code with what it
judges.

The program is always reached through module attributes at call time
(``bm.certify_proper(...)``), so the tracer's wrappers are seen when they are
installed and the shipped functions run when they are not.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

pm_linalg = importlib.import_module("propermaps._linalg")
bm = importlib.import_module("propermaps.ballmaps")
cons = importlib.import_module("propermaps.constructors")
docs = importlib.import_module("propermaps.documents")
hom = importlib.import_module("propermaps.homotopy")
poly = importlib.import_module("propermaps.polyalg")
reg_mod = importlib.import_module("propermaps.corpus")
xv = importlib.import_module("propermaps.xvariety")

#: Coefficients at or below this magnitude are noise (the program's own
#: comparison tolerance).
TOL = 1e-9


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], list]


# ------------------------------------------------------------------ helpers
def _multinomial(d: int, alpha) -> int:
    out = math.factorial(d)
    for e in alpha:
        out //= math.factorial(e)
    return out


def _monomials(n: int, d: int) -> list:
    if n == 1:
        return [(d,)]
    return [(k,) + rest for k in range(d, -1, -1) for rest in _monomials(n - 1, d - k)]


def tensor_power(n: int, d: int):
    """z^{(x)d}: components sqrt(multinomial(d, alpha)) z^alpha; proper, embdim N."""
    comps = [poly.Polynomial(n, {a: math.sqrt(_multinomial(d, a))})
             for a in _monomials(n, d)]
    return bm.RationalBallMap(n, len(comps), comps)


def _automorphism(n: int, rng: np.random.Generator):
    """Ball automorphism with a center of norm in [0.3, 0.5], so compositions are dense."""
    direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    radius = 0.3 + 0.2 * rng.random()
    return cons.BallAutomorphism(radius * direction, pm_linalg.random_unitary(n, rng))


def _support(m) -> list:
    return sorted({a for comp in m.p for a in comp.terms}, reverse=True)


def rotate(m, unitary: np.ndarray):
    """U . m built from the coefficient matrix, without the program's apply_linear."""
    monos = _support(m)
    mat = np.array([[comp.terms.get(a, 0j) for a in monos] for comp in m.p])
    rows = unitary @ mat
    comps = [poly.Polynomial(m.n, dict(zip(monos, row))) for row in rows]
    return bm.RationalBallMap(m.n, m.N, comps, m.q)


def perturb(m, rng: np.random.Generator):
    """Copy of m with one seeded numerator coefficient scaled by (1 + 1e-6).

    The coefficient is drawn among those of at least half the largest
    magnitude, so the change to ||p||^2 stays far above the 1e-9 comparison
    tolerance and the copy is NOT_PROPER by construction.
    """
    top = max(abs(c) for comp in m.p for c in comp.terms.values())
    slots = [(i, a) for i, comp in enumerate(m.p) for a, c in sorted(comp.terms.items())
             if abs(c) >= 0.5 * top]
    i, alpha = slots[int(rng.integers(len(slots)))]
    comps = list(m.p)
    terms = dict(comps[i].terms)
    terms[alpha] *= 1.0 + 1e-6
    comps[i] = poly.Polynomial(m.n, terms)
    return bm.RationalBallMap(m.n, m.N, comps, m.q)


def eval_terms(p, z) -> complex:
    """Value of a polynomial at z, summed from its terms."""
    return sum(c * np.prod([zj ** e for zj, e in zip(z, a)]) for a, c in p.terms.items())


def _significant(p) -> dict:
    return {a: c for a, c in p.terms.items() if abs(c) > TOL}


def _degree(m) -> int:
    return max((sum(a) for comp in m.p for a in _significant(comp)), default=0)


# -------------------------------------------------------------- family-grid
FAMILY_SHAPES = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3))


def _whitney_term(n: int, length: int, slot: int, rng: np.random.Generator):
    """Random Whitney term drawn like acceptance criterion 08.

    The structural choices criterion 08 draws at random (canonical or dense
    subspace, its dimension, leading or trailing canonical components,
    whether an injection follows) cycle with the slot and step instead.  They
    decide how many segments the monomial homotopy has, so fixing them keeps
    the cost of a pass the same whatever the seed.  The automorphisms, dense
    bases and injections are seeded.
    """
    term = cons.whitney_start(_automorphism(n, rng))
    for k in range(length):
        size = term.map.N
        pick = slot + k
        if pick % 2 == 0:
            d = 1 + (pick // 2) % min(size, 3)
            basis = np.arange(d) if pick % 4 == 0 else np.arange(size - d, size)
        else:
            d = 1 + (pick // 2) % 2
            g = rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d))
            basis, _ = np.linalg.qr(g)
        injection = None
        if pick % 4 == 3:
            grown = size + d * (n - 1)
            g = (rng.standard_normal((grown + 1, grown))
                 + 1j * rng.standard_normal((grown + 1, grown)))
            injection, _ = np.linalg.qr(g)
        term = cons.whitney_extend(term, basis, _automorphism(n, rng),
                                   injection=injection)
    return term


def _family_check(length: int):
    def check(result) -> list:
        fam, report = result
        bad = []
        if not report.passed:
            bad.append(f"verify_family: not passed ({len(report.properness_failures)} "
                       f"failures, max residual {report.max_residual:.1e})")
        end = fam.endpoint_right
        comps = [_significant(c) for c in end.p]
        if set(_significant(end.q)) != {(0,) * end.n} or any(len(c) != 1 for c in comps):
            bad.append("endpoint: right endpoint is not a monomial map")
        elif _degree(end) != length + 1:
            bad.append(f"endpoint: degree {_degree(end)}, expected {length + 1}")
        if max(report.degrees) > length + 1:
            bad.append(f"degrees: {max(report.degrees)} exceeds {length + 1}")
        return bad
    return check


def family_grid(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for slot, (n, length) in enumerate(FAMILY_SHAPES):
        term = _whitney_term(n, length, slot, rng)

        def run(term=term):
            fam = hom.homotopy_to_monomial(term)
            return fam, hom.verify_family(fam, grid_size=101)

        ops.append(Op(f"whitney-n{n}-len{length}", run, _family_check(length)))
    return ops


# -------------------------------------------------------------- map-certify
TENSOR_LADDER = ((2, (6, 12, 20, 30, 40)), (3, (4, 6, 12, 20)), (4, (5,)))
COMPOSE_LADDER = ((2, (6, 8, 12, 16)), (3, (4, 5, 6)), (4, (3, 4)))

#: Catalog maps with their degree and embedding dimension.
CATALOG = {
    "ex2.1.f": (4, 5), "ex2.1.g": (3, 5), "ex2.1.h": (2, 3), "whitney.W": (2, 5),
    "faran.f": (1, 2), "faran.g": (2, 3), "faran.h": (2, 3), "faran.phi": (3, 3),
    "ex4.1.map": (5, 4),
}


def ladder(rng: np.random.Generator) -> list:
    """(id, map, degree) for the tensor powers and the dense compositions."""
    out = []
    for n, ds in TENSOR_LADDER:
        for d in ds:
            out.append((f"tensor-n{n}-d{d}", tensor_power(n, d), d))
    for n, ds in COMPOSE_LADDER:
        for d in ds:
            m = bm.compose(tensor_power(n, d), cons.automorphism_map(_automorphism(n, rng)))
            out.append((f"compose-n{n}-d{d}", m, d))
    return out


def _certify_op(op_id: str, m, rotated, proper: bool, deg: int, embdim: int) -> Op:
    def run():
        cert = bm.certify_proper(m)
        return (cert, bm.degree(m), bm.embedding_dimension(m),
                bm.norm_equivalent(m, rotated))

    def check(result) -> list:
        cert, got_deg, got_emb, equiv = result
        bad = []
        want = "proper" if proper else "not-proper"
        if cert.verdict.value != want:
            bad.append(f"certify_proper: {cert.verdict.value} (residual "
                       f"{cert.residual_norm:.1e}), expected {want}")
        if got_deg != deg:
            bad.append(f"degree: {got_deg}, expected {deg}")
        if got_emb != embdim:
            bad.append(f"embedding_dimension: {got_emb}, expected {embdim}")
        if not equiv.equivalent:
            bad.append("norm_equivalent: m and U.m reported inequivalent")
        return bad

    return Op(op_id, run, check)


def map_certify(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    registry = reg_mod.corpus()
    for op_id, m, d in ladder(rng):
        u = pm_linalg.random_unitary(m.N, rng)
        ops.append(_certify_op(op_id, m, rotate(m, u), True, d, m.N))
        bent = perturb(m, rng)
        ops.append(_certify_op(op_id + "-perturbed", bent, rotate(bent, u), False, d, m.N))
    for name, (d, embdim) in CATALOG.items():
        m = registry.maps[name]
        u = pm_linalg.random_unitary(m.N, rng)
        ops.append(_certify_op(name, m, rotate(m, u), True, d, embdim))
    return ops


# --------------------------------------------------------------- fiber-scan
FIBER_SAMPLES = 20
FIBER_LADDER = ((2, 4), (2, 5), (2, 6), (2, 8), (2, 12), (3, 3), (3, 4), (3, 5), (4, 3))


def _pairs_on_hyperplane(n: int, count: int, rng: np.random.Generator) -> list:
    """(z, w) with <z, w> = sum z_j conj(w_j) = 1."""
    out = []
    for _ in range(count):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = z / np.sum(z * np.conj(w))
        out.append((z * 0.7, w / 0.7))
    return out


def _reconstruction_bad(m, x, pairs) -> list:
    """XMatrix.reconstruct_component must give p_k(z) wherever <z, w> = 1.

    Rounding in a sum is bounded by the sum of the terms' magnitudes, which
    for dense high-degree maps is far above the value itself, so the
    tolerance is relative to that sum.
    """
    for z, w in pairs:
        az, aw = np.abs(z), np.abs(w)
        for k, comp in enumerate(m.p):
            want = eval_terms(comp, z)
            got = x.reconstruct_component(k, z, w)
            scale = sum(abs(c) * np.prod(aw ** np.array(g)) * np.prod(az ** np.array(a))
                        for a, row in zip(x.rows, x.entries)
                        for g, c in row[k].terms.items())
            if abs(got - want) > 1e-10 * (1.0 + scale):
                return [f"reconstruct: component {k} gives {got:.6g}, expected {want:.6g}"]
    return []


def _graph_op(op_id: str, m, seed: int, pairs) -> Op:
    def run():
        x = xv.build_xmatrix(m)
        return x, xv.graph_test(m, x, samples=FIBER_SAMPLES, seed=seed)

    def check(result) -> list:
        x, report = result
        bad = _reconstruction_bad(m, x, pairs)
        if report.samples_checked < FIBER_SAMPLES:
            bad.append(f"graph_test: {report.samples_checked} points checked")
        return bad

    return Op(op_id, run, check)


def _member_op(member, c: float, seed: int, w_axis: np.ndarray, pairs) -> Op:
    """Criterion 05: generic fibers trivial, a positive-dimensional fiber on w1 = 0."""
    def run():
        x = xv.build_xmatrix(member, degree=4)
        report = xv.graph_test(member, x, samples=50, seed=seed, include_hyperplanes=False)
        return x, report, xv.fiber_at(member, x, w_axis)

    def check(result) -> list:
        x, report, fiber = result
        bad = _reconstruction_bad(member, x, pairs)
        if not report.graph_equals_x or report.samples_checked < 50:
            bad.append(f"graph_test: {report.verdict} at c={c:.3f}")
        if fiber.dimension < 1:
            bad.append(f"fiber_at: trivial fiber on w1 = 0 at c={c:.3f}")
        return bad

    return Op(f"ex2.1-member-{int(c * 3)}", run, check)


def fiber_scan(seed: int) -> list:
    rng = np.random.default_rng(seed)
    registry = reg_mod.corpus()
    ops = []
    for name in CATALOG:
        m = registry.maps[name]
        ops.append(_graph_op(name, m, int(rng.integers(1 << 30)),
                             _pairs_on_hyperplane(m.n, 2, rng)))
    for n, d in FIBER_LADDER:
        m = bm.compose(tensor_power(n, d), cons.automorphism_map(_automorphism(n, rng)))
        ops.append(_graph_op(f"compose-n{n}-d{d}", m, int(rng.integers(1 << 30)),
                             _pairs_on_hyperplane(n, 2, rng)))
    quartic = registry.families["ex2.1.family"]
    for third in range(3):
        c = (third + 0.05 + 0.9 * rng.random()) / 3.0
        w_axis = np.array([0.0, 0.3 + 0.2 * rng.standard_normal() + 0.1j])
        ops.append(_member_op(quartic.evaluate(c), c, int(rng.integers(1 << 30)),
                              w_axis, _pairs_on_hyperplane(2, 2, rng)))
    family_seed = int(rng.integers(1 << 30))

    def run_family():
        return xv.xmatrix_along_family(quartic, grid_size=11, seed=family_seed)

    def check_family(report) -> list:
        bad = []
        if report.degree != 4:
            bad.append(f"xmatrix_along_family: degree {report.degree}, expected 4")
        if report.rank_drops != [0.0] or set(report.generic_ranks[1:]) != {5}:
            bad.append(f"xmatrix_along_family: ranks {report.generic_ranks}, "
                       "expected a drop at t = 0 only")
        return bad

    ops.append(Op("ex2.1.family-xmatrix", run_family, check_family))
    return ops


# ------------------------------------------------------------------ cli-cold
@dataclass
class CliResult:
    code: int
    out: str
    err: str


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp)
    return path


def _ctext(value) -> str:
    """A complex number as the CLI parses it, e.g. ``0.1234-0.5000j``."""
    return f"{complex(value):.4f}".strip("()")


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


def cli_commands(seed: int, workdir: str) -> list:
    """(id, argv, expected exit code, verdict predicate on (stdout, stderr))."""
    rng = np.random.default_rng(seed)
    registry = reg_mod.corpus()
    term = _whitney_term(2, 2, 1, rng)
    good = _write_json(os.path.join(workdir, "whitney-map.json"),
                       docs.map_to_document(term.map))
    bent = _write_json(os.path.join(workdir, "whitney-map-perturbed.json"),
                       docs.map_to_document(perturb(term.map, rng)))
    faran_h = registry.maps["faran.h"]
    rotated = _write_json(os.path.join(workdir, "faran-h-rotated.json"),
                          docs.map_to_document(
                              rotate(faran_h, pm_linalg.random_unitary(faran_h.N, rng))))
    bad_schema = docs.map_to_document(faran_h)
    bad_schema["schema_version"] = "99"
    bad_doc = _write_json(os.path.join(workdir, "bad-schema.json"), bad_schema)
    bad_steps = _write_json(os.path.join(workdir, "whitney-bad-steps.json"),
                            {"domain_dim": 2, "steps": 5})
    bad_kind = _write_json(os.path.join(workdir, "family-bad-kind.json"),
                           {"kind": "spiral"})
    missing = os.path.join(workdir, "missing.json")

    radii = 0.2 + 0.6 * rng.random(3)
    angles = 2 * np.pi * rng.random(3)
    zero_text = ",".join(_ctext(r * np.exp(1j * a)) for r, a in zip(radii, angles))
    axis_point = "0," + _ctext(0.3 + 0.2 * rng.standard_normal() + 0.1j)
    point = ",".join(_ctext(v) for v in rng.standard_normal(2) * 0.5 + 0.1j)

    def line(prefix):
        return lambda out, err: _first_line(out).startswith(prefix)

    def fiber_positive(out, err):
        head = _first_line(out)
        return head.startswith("fiber dimension at") and int(head.rsplit(":", 1)[1]) > 0

    def input_error(out, err):
        return out.strip() == "" and _first_line(err).startswith("input error:")

    return [
        ("verify-catalog", ["verify", "faran.h"], 0, line("verdict: proper")),
        ("degree", ["degree", "ex2.1.f"], 0, line("4")),
        ("embdim", ["embdim", "ex2.1.g"], 0, line("5")),
        ("equiv-inequivalent", ["equiv", "ex2.1.f", "ex2.1.g"], 1, line("inequivalent")),
        ("equiv-rotated", ["equiv", "faran.h", rotated], 0, line("equivalent")),
        ("xvariety", ["xvariety", "ex4.1.map"], 0,
         line("homogenization matrix: 6 x 4, degree 5")),
        ("xvariety-at-axis", ["xvariety", "ex2.1.f", f"--at={axis_point}"], 0,
         fiber_positive),
        ("xvariety-at-generic", ["xvariety", "ex4.1.map", f"--at={point}"], 0,
         line(f"fiber dimension at {point}: 0")),
        ("xvariety-graph-test", ["xvariety", "ex2.1.f", "--graph-test", "--samples", "20"],
         0, line("exceptional-fibers-found")),
        ("bound", ["bound", "degree", "2", "3"], 0, line("3")),
        ("blaschke-homotopy", ["blaschke", f"--zeros={zero_text}", "--homotopy", "--grid", "11"],
         0, line("winding degree: 3")),
        ("homotopy-catalog", ["homotopy", "faran.fg.family"], 0,
         line("grid=101 target_dim=4 passed=True")),
        ("corpus-list", ["corpus", "list"], 0, line("ex2.1.f")),
        ("corpus-run", ["corpus", "run", "--grid", "11"], 0,
         lambda out, err: out.strip().endswith("all checks passed")),
        ("verify-document", ["verify", good], 0, line("verdict: proper")),
        ("verify-document-perturbed", ["verify", bent], 1, line("verdict: not-proper")),
        ("input-missing-file", ["verify", missing], 2, input_error),
        ("input-bad-schema", ["degree", bad_doc], 2, input_error),
        ("input-bad-family-kind", ["homotopy", bad_kind], 2, input_error),
        ("input-blaschke-nan", ["blaschke", "--zeros", "0.3,nan", "--homotopy"], 2,
         input_error),
        ("input-whitney-bad-steps", ["whitney", "build", bad_steps], 2, input_error),
    ]


def _run_child(argv, workdir: str, env: dict) -> CliResult:
    proc = subprocess.run([sys.executable, "-m", "propermaps.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, text=True, timeout=120)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _run_in_process(argv, workdir: str) -> CliResult:
    """``cli.main(argv)`` in this process; an escaping exception reads as exit 1."""
    cli = importlib.import_module("propermaps.cli")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a child would print a traceback, exit 1
                code = 1
                print(f"Traceback: {type(exc).__name__}: {exc}", file=err)
    finally:
        os.chdir(cwd)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_cold(seed: int, workdir: str, src: str, in_process: bool = False) -> list:
    """One operation per command: a fresh child process, or ``cli.main`` in-process."""
    env = dict(os.environ, PYTHONPATH=src)
    ops = []
    for op_id, argv, code, verdict in cli_commands(seed, workdir):
        if in_process:
            run = functools.partial(_run_in_process, argv, workdir)
        else:
            run = functools.partial(_run_child, argv, workdir, env)

        def check(result, code=code, verdict=verdict) -> list:
            bad = []
            if result.code != code:
                bad.append(f"exit: {result.code}, expected {code}")
            if not verdict(result.out, result.err):
                shown = _first_line(result.out) or _first_line(result.err) or "(no output)"
                bad.append(f"verdict: unexpected {shown[:80]!r}")
            return bad

        ops.append(Op(op_id, run, check))
    return ops

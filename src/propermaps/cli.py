"""Batch command-line interface for the ball-map workbench.

Subcommands: verify, degree, embdim, equiv, xvariety, whitney build,
homotopy, bound degree, blaschke, corpus list|run.  Map arguments accept
either a catalog id (see ``corpus list``) or a path to a JSON map document.
Exit codes: 0 on success, 1 on mathematical failure (e.g. a map that is not
proper, inequivalent maps), 2 on input errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from fractions import Fraction

import numpy as np

from .ballmaps import (DEFAULT_SEED, DenominatorVanishesError, RationalBallMap,
                       Verdict, certify_proper, degree, degree_bound,
                       embedding_dimension, norm_equivalent)
from .constructors import (BlaschkeProduct, NonIntegralWindingError, blaschke_map,
                           winding_degree, winding_integral)
from .corpus import Corpus, build_whitney_term, corpus, parse_complex
from .documents import MapDocumentError, dumps_map, load_map_path, require_number
from .homotopy import (EndpointMismatchError, NotTensorImageError,
                       PropernessFailureError, blaschke_homotopy,
                       collapse_to_linear, homotopy_to_monomial,
                       juxtaposition_family, verify_family)
from .polyalg import DEFAULT_TOL
from .xvariety import (EvaluationAtPoleError, build_xmatrix, fiber_at,
                       graph_test)

_MATH_ERRORS = (DenominatorVanishesError, NonIntegralWindingError,
                NotTensorImageError, PropernessFailureError,
                EndpointMismatchError, EvaluationAtPoleError)
_INPUT_ERRORS = (MapDocumentError, FileNotFoundError, IsADirectoryError,
                 KeyError, json.JSONDecodeError)


class _Output:
    """Collects report lines and a JSON payload; emits one of them at the end."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines: list = []
        self.payload: dict = {}

    def line(self, text: str):
        self.lines.append(text)

    def set(self, key: str, value):
        self.payload[key] = value

    def emit(self):
        if self.as_json:
            print(json.dumps(self.payload, default=_json_default, indent=2))
        else:
            for text in self.lines:
                print(text)


def _json_default(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.complexfloating,)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _load_map(token: str, reg: Corpus) -> RationalBallMap:
    if token in reg.maps:
        return reg.maps[token]
    return load_map_path(token)


def _parse_complex_list(text: str, what: str) -> list:
    """Comma-separated finite complex numbers, e.g. ``0.3+0.1j,0.2``."""
    try:
        values = [complex(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise MapDocumentError(f"cannot parse {what} {text!r}: {exc}") from exc
    if not all(cmath.isfinite(v) for v in values):
        raise MapDocumentError(f"{what} {text!r} must be finite")
    return values


def _coeff_str(c: complex) -> str:
    if abs(c.imag) <= 1e-12:
        return f"{c.real:.6g}"
    return f"({c.real:.6g}{c.imag:+.6g}j)"


def _poly_str(poly, prefix: str = "w") -> str:
    if poly.is_zero:
        return "0"
    bits = []
    for alpha, c in poly.sorted_terms():
        mono = "*".join(f"{prefix}{j + 1}^{e}" if e > 1 else f"{prefix}{j + 1}"
                        for j, e in enumerate(alpha) if e)
        bits.append(_coeff_str(c) if not mono else f"{_coeff_str(c)}*{mono}")
    return " + ".join(bits)


# ------------------------------------------------------------------- commands
def _grid(args, fallback: int) -> int:
    return args.grid if args.grid is not None else fallback


def _cmd_verify(args, reg: Corpus, out: _Output) -> int:
    m = _load_map(args.map, reg)
    cert = certify_proper(m, tol=args.tol, seed=args.seed)
    out.line(f"verdict: {cert.verdict.value}")
    out.line(f"residual: {cert.residual_norm:.3e}")
    out.line(f"largest remainder entry: {cert.worst_entry}")
    out.line(f"denominator: {cert.denominator_method} "
             f"(margin {cert.denominator_margin:.3e})")
    if cert.witness_value is not None:
        out.line(f"sampled sphere defect: {cert.witness_value:.3e}")
    out.set("verdict", cert.verdict.value)
    out.set("residual", cert.residual_norm)
    out.set("worst_entry", cert.worst_entry)
    out.set("denominator_method", cert.denominator_method)
    out.set("denominator_margin", cert.denominator_margin)
    out.set("sampled_sphere_defect", cert.witness_value)
    return 0 if cert.verdict is Verdict.PROPER else 1


def _cmd_degree(args, reg: Corpus, out: _Output) -> int:
    m = _load_map(args.map, reg)
    value = degree(m)
    out.line(str(value))
    out.set("degree", value)
    return 0


def _cmd_embdim(args, reg: Corpus, out: _Output) -> int:
    m = _load_map(args.map, reg)
    value = embedding_dimension(m)
    out.line(str(value))
    out.set("embedding_dimension", value)
    return 0


def _cmd_equiv(args, reg: Corpus, out: _Output) -> int:
    a = _load_map(args.map1, reg)
    b = _load_map(args.map2, reg)
    result = norm_equivalent(a, b, tol=args.tol)
    out.set("equivalent", result.equivalent)
    if result.equivalent:
        out.line("equivalent")
        out.line(f"witness residual: {result.witness_residual:.3e}")
        out.set("witness_residual", result.witness_residual)
        out.set("unitary", result.unitary)
        return 0
    alpha, beta, diff = result.mismatch
    out.line("inequivalent")
    out.line(f"distinguishing entry ({alpha}, {beta}): {diff}")
    out.set("mismatch", {"alpha": list(alpha), "beta": list(beta), "delta": diff})
    return 1


def _cmd_xvariety(args, reg: Corpus, out: _Output) -> int:
    m = _load_map(args.map, reg)
    x = build_xmatrix(m)
    out.set("rows", [list(alpha) for alpha in x.rows])
    out.set("shape", [x.row_count, x.N])
    out.set("degree", x.d)
    out.set("numerator_only_heuristic", x.numerator_only_heuristic)
    if x.numerator_only_heuristic:
        out.line("note: nontrivial denominator; the matrix uses the numerator "
                 "only and the fiber description is unvalidated")
    if args.at is not None:
        w = _parse_complex_list(args.at, "point")
        report = fiber_at(m, x, w)
        out.line(f"fiber dimension at {args.at}: {report.dimension}")
        out.line(f"base point: {np.array2string(report.base, precision=6)}")
        out.set("fiber_dimension", report.dimension)
        out.set("base", report.base)
        out.set("nullspace_basis", report.nullspace_basis)
        return 0
    if args.graph_test:
        result = graph_test(m, x, samples=args.samples, seed=args.seed)
        out.line(f"{result.verdict} ({result.samples_checked} points checked)")
        out.set("verdict", result.verdict)
        out.set("samples_checked", result.samples_checked)
        out.set("exceptional", [{"w": w, "dimension": dim}
                                for w, dim in result.exceptional])
        for w, dim in result.exceptional[:5]:
            out.line(f"  dimension {dim} fiber at "
                     f"{np.array2string(w, precision=4)}")
        return 0
    out.line(f"homogenization matrix: {x.row_count} x {x.N}, degree {x.d}")
    out.line("entries (polynomials in the conjugated variables):")
    entries = []
    for i, alpha in enumerate(x.rows):
        row = [_poly_str(x.entry(i, k)) for k in range(x.N)]
        entries.append(row)
        out.line(f"  row {list(alpha)}: [{', '.join(row)}]")
    out.set("entries", entries)
    return 0


def _cmd_whitney(args, reg: Corpus, out: _Output) -> int:
    with open(args.script, "r", encoding="utf-8") as fp:
        script = json.load(fp)
    term = build_whitney_term(script)
    m = term.map
    out.line(f"whitney term: {term.length} steps, B{m.n} -> B{m.N}, "
             f"degree {degree(m)}")
    out.set("steps", term.length)
    out.set("domain_dim", m.n)
    out.set("target_dim", m.N)
    out.set("degree", degree(m))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(dumps_map(m))
        out.line(f"map written to {args.out}")
    code = 0
    if args.monomial_homotopy:
        family = homotopy_to_monomial(term)
        report = verify_family(family, grid_size=_grid(args, 101), tol=args.tol,
                               seed=args.seed)
        out.line("monomial homotopy: "
                 f"endpoint degree {degree(family.endpoint_right)}, "
                 f"{'pass' if report.passed else 'FAIL'}")
        out.set("monomial_homotopy", report.to_dict())
        code = max(code, 0 if report.passed else 1)
    if args.collapse:
        family = collapse_to_linear(term)
        report = verify_family(family, grid_size=_grid(args, 101), tol=args.tol,
                               seed=args.seed)
        out.line(f"degree-lowering family in B{family.target_dim}: "
                 f"{'pass' if report.passed else 'FAIL'}")
        out.set("collapse", report.to_dict())
        code = max(code, 0 if report.passed else 1)
    return code


def _family_from_script(path: str, reg: Corpus):
    with open(path, "r", encoding="utf-8") as fp:
        script = json.load(fp)
    if not isinstance(script, dict):
        raise MapDocumentError("a family script must be a JSON object")
    kind = script.get("kind")
    if kind == "juxtaposition":
        left, right = script.get("left"), script.get("right")
        if not (isinstance(left, str) and isinstance(right, str)):
            raise MapDocumentError("a juxtaposition script needs 'left' and 'right' "
                                   "map ids or paths")
        return juxtaposition_family(_load_map(left, reg), _load_map(right, reg))
    if kind == "blaschke":
        zeros = script.get("zeros")
        if not (isinstance(zeros, list)
                and all(isinstance(a, list) and len(a) == 2 for a in zeros)):
            raise MapDocumentError("a blaschke script needs a list of [re, im] zeros")
        theta = require_number(script.get("theta", 0.0), "theta")
        return blaschke_homotopy(BlaschkeProduct(theta, [parse_complex(a) for a in zeros]))
    if kind == "whitney-monomial":
        return homotopy_to_monomial(build_whitney_term(script["script"]))
    raise MapDocumentError(f"unknown family script kind {kind!r}")


def _cmd_homotopy(args, reg: Corpus, out: _Output) -> int:
    if args.family in reg.families:
        family = reg.families[args.family]
    else:
        family = _family_from_script(args.family, reg)
    report = verify_family(family, grid_size=_grid(args, 101), tol=args.tol,
                           seed=args.seed)
    out.line(report.summary())
    out.set("report", report.to_dict())
    return 0 if report.passed else 1


def _cmd_bound(args, reg: Corpus, out: _Output) -> int:
    if args.quantity != "degree":
        raise MapDocumentError(f"unknown bound {args.quantity!r}")
    value = degree_bound(args.n, args.N)
    out.line(str(value))
    out.set("bound", value)
    return 0


def _cmd_blaschke(args, reg: Corpus, out: _Output) -> int:
    zeros = _parse_complex_list(args.zeros, "zeros")
    product = BlaschkeProduct(args.theta, zeros)
    m = blaschke_map(product)
    value = winding_integral(m)
    wd = winding_degree(m)
    out.line(f"winding degree: {wd}")
    out.line(f"quadrature residual: {abs(value - wd):.3e}")
    out.set("winding_degree", wd)
    out.set("quadrature_residual", abs(value - wd))
    if args.homotopy:
        family = blaschke_homotopy(product)
        report = verify_family(family, grid_size=_grid(args, 11), tol=args.tol,
                               seed=args.seed)
        degrees = sorted(set(report.degrees))
        out.line(f"homotopy to z^{wd}: degrees {degrees}, "
                 f"{'pass' if report.passed else 'FAIL'}")
        out.set("homotopy", report.to_dict())
        if not report.passed or degrees != [wd]:
            return 1
    return 0


def _cmd_corpus(args, reg: Corpus, out: _Output) -> int:
    if args.action == "list":
        rows = []
        for name, kind, summary in reg.entries():
            out.line(f"{name:24s} {kind:8s} {summary}")
            rows.append({"name": name, "kind": kind, "summary": summary})
        out.set("entries", rows)
        return 0
    # corpus run: certify every map, verify every family.
    failures = 0
    map_reports = {}
    for name in sorted(reg.maps):
        cert = certify_proper(reg.maps[name], tol=args.tol, seed=args.seed)
        ok = cert.verdict is Verdict.PROPER
        failures += 0 if ok else 1
        out.line(f"map {name:16s} {cert.verdict.value:20s} "
                 f"residual {cert.residual_norm:.2e}")
        map_reports[name] = {"verdict": cert.verdict.value,
                             "residual": cert.residual_norm,
                             "worst_entry": cert.worst_entry,
                             "denominator_method": cert.denominator_method,
                             "denominator_margin": cert.denominator_margin}
    family_reports = {}
    seen = set()
    for name in sorted(reg.families):
        fam = reg.families[name]
        if id(fam) in seen:
            out.line(f"family {name:20s} (same object as above)")
            continue
        seen.add(id(fam))
        grid = _grid(args, 11)
        report = verify_family(fam, grid_size=grid, tol=args.tol,
                               seed=args.seed)
        failures += 0 if report.passed else 1
        out.line(f"family {name:20s} {'pass' if report.passed else 'FAIL'} "
                 f"(grid {grid}, max residual {report.max_residual:.2e})")
        family_reports[name] = report.to_dict()
    out.set("maps", map_reports)
    out.set("families", family_reports)
    out.set("failures", failures)
    out.line("all checks passed" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------- parser
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="comparison tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="random sampling seed")
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    common.add_argument("--grid", type=int, default=None,
                        help="grid size for family verification "
                             "(default 101; 11 for corpus runs)")
    common.add_argument("--samples", type=int, default=50,
                        help="sample count for randomized checks")

    parser = argparse.ArgumentParser(
        prog="propermaps",
        description="Certify and explore rational proper maps between unit balls.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="certify that a map is proper")
    p.add_argument("map")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("degree", parents=[common], help="numerator degree of a map")
    p.add_argument("map")
    p.set_defaults(handler=_cmd_degree)

    p = sub.add_parser("embdim", parents=[common],
                       help="embedding dimension (independent components)")
    p.add_argument("map")
    p.set_defaults(handler=_cmd_embdim)

    p = sub.add_parser("equiv", parents=[common],
                       help="decide norm equivalence of two maps")
    p.add_argument("map1")
    p.add_argument("map2")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("xvariety", parents=[common],
                       help="homogenization matrix, fibers, graph test")
    p.add_argument("map")
    p.add_argument("--at", help="domain point, comma-separated complex numbers")
    p.add_argument("--graph-test", action="store_true",
                   help="sample fibers and report exceptional ones")
    p.set_defaults(handler=_cmd_xvariety)

    p = sub.add_parser("whitney", parents=[common],
                       help="build iterated tensor terms from a script")
    p.add_argument("action", choices=["build"])
    p.add_argument("script", help="path to a JSON construction script")
    p.add_argument("--out", help="write the resulting map document here")
    p.add_argument("--monomial-homotopy", action="store_true",
                   help="also verify the homotopy to a monomial endpoint")
    p.add_argument("--collapse", action="store_true",
                   help="also verify the degree-lowering family")
    p.set_defaults(handler=_cmd_whitney)

    p = sub.add_parser("homotopy", parents=[common],
                       help="verify a family from the catalog or a script")
    p.add_argument("family", help="catalog family id or JSON script path")
    p.set_defaults(handler=_cmd_homotopy)

    p = sub.add_parser("bound", parents=[common], help="numeric bounds")
    p.add_argument("quantity", choices=["degree"])
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("blaschke", parents=[common],
                       help="winding degree of a Blaschke product")
    p.add_argument("--zeros", required=True,
                   help="comma-separated complex zeros inside the disk")
    p.add_argument("--theta", type=float, default=0.0, help="outer phase")
    p.add_argument("--homotopy", action="store_true",
                   help="also verify the contraction to z^m")
    p.set_defaults(handler=_cmd_blaschke)

    p = sub.add_parser("corpus", parents=[common],
                       help="list or run the built-in example corpus")
    p.add_argument("action", choices=["list", "run"])
    p.set_defaults(handler=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    reg = corpus()
    out = _Output(args.json)
    try:
        code = args.handler(args, reg, out)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    out.emit()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

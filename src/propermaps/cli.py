"""Batch command-line interface for the ball-map workbench.

Subcommands: verify, degree, embdim, equiv, xvariety, whitney build,
homotopy, bound degree, blaschke, corpus list|run.  Map arguments accept
either a catalog id (see ``corpus list``) or a path to a JSON map document.
Each subcommand takes ``--json`` and only those of ``--tol``, ``--seed``,
``--grid`` and ``--samples`` that it reads; ``--grid`` defaults to 101 for
``whitney build`` and ``homotopy`` and to 11 for ``blaschke`` and ``corpus``.
Exit codes: 0 on success, 1 on mathematical failure (e.g. a map that is not
proper, inequivalent maps), 2 on input errors.

Each handler checks its input before it imports the modules it computes
with, so ``bound`` and input that is rejected never load numpy.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys

from .bounds import DEFAULT_SEED, DEFAULT_TOL, MAX_TOL, PRINT_REAL_TOL

#: Mathematical failures (exit 1), matched without imports: a raised error's module is loaded.
_MATH_ERRORS = {"ballmaps": "DenominatorVanishesError", "constructors": "NonIntegralWindingError",
                "homotopy": "NotTensorImageError EndpointMismatchError",
                "xvariety": "EvaluationAtPoleError"}


def _math_errors() -> tuple:
    loaded = {module: sys.modules.get(f"{__package__}.{module}") for module in _MATH_ERRORS}
    return tuple(getattr(loaded[module], cls) for module, names in _MATH_ERRORS.items()
                 if loaded[module] for cls in names.split())


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
            import json
            print(json.dumps(self.payload, default=_json_default, indent=2))
        else:
            for text in self.lines:
                print(text)


def _json_default(value):
    """JSON for what ``json`` does not write itself.  numpy types are looked
    up only when numpy is loaded: a value of one cannot exist otherwise."""
    from fractions import Fraction
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Fraction):
        return str(value)
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.complexfloating):
            return [float(value.real), float(value.imag)]
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _catalog(token: str, kind: str):
    """Entry ``token`` of ``kind``, or None for a path to read.  A token with a
    directory part or a .json suffix skips the catalog; any other is read as
    a path only when it names an existing file, and otherwise raises a
    ValueError that says what it is: a catalog id of the other kind, or
    neither an id nor a file."""
    if os.path.dirname(token) or token.endswith(".json"):
        return None
    from .corpus import CATALOG, catalog_entry
    kind_of, build, key, _ = CATALOG.get(token, (None, None, None, None))
    if kind_of == kind:
        return catalog_entry(build(), key)
    if os.path.exists(token):
        return None
    if kind_of is None:
        raise ValueError(f"unknown catalog id or missing file: {token}")
    raise ValueError(f"{token} is a catalog {kind_of}, not a {kind}")


def _load_map(token: str):
    m = _catalog(token, "map")
    if m is None:
        from .documents import load_map_path
        m = load_map_path(token)
    return m


def _parse_complex_list(text: str, what: str) -> list:
    """Comma-separated finite complex numbers, e.g. ``0.3+0.1j,0.2``."""
    try:
        values = [complex(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}") from exc
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError(f"{what} {text!r} must be finite")
    return values


def _coeff_str(c: complex) -> str:
    if abs(c.imag) <= PRINT_REAL_TOL:
        return f"{c.real:.6g}"
    return f"({c.real:.6g}{c.imag:+.6g}j)"


def _poly_str(poly, prefix: str = "w") -> str:
    if all(abs(c) <= DEFAULT_TOL for c in poly.terms.values()):
        return "0"
    bits = []
    for alpha, c in sorted(poly.terms.items(), reverse=True):
        mono = "*".join(f"{prefix}{j + 1}^{e}" if e > 1 else f"{prefix}{j + 1}"
                        for j, e in enumerate(alpha) if e)
        bits.append(_coeff_str(c) if not mono else f"{_coeff_str(c)}*{mono}")
    return " + ".join(bits)


# ------------------------------------------------------------------- commands
def _cmd_verify(args, out: _Output) -> int:
    m = _load_map(args.map)
    from .ballmaps import Verdict, certify_proper
    cert = certify_proper(m, tol=args.tol, seed=args.seed)
    out.line(f"verdict: {cert.verdict.value}")
    out.line(f"residual: {cert.residual_norm:.3e}")
    out.line(f"largest remainder entry: {cert.worst_entry}")
    out.line(f"denominator: {cert.denominator_method} "
             f"(margin {cert.denominator_margin:.3e})")
    out.line(f"sampled sphere defect: {cert.witness_value:.3e}")
    out.set("verdict", cert.verdict.value)
    out.set("residual", cert.residual_norm)
    out.set("worst_entry", cert.worst_entry)
    out.set("denominator_method", cert.denominator_method)
    out.set("denominator_margin", cert.denominator_margin)
    out.set("sampled_sphere_defect", cert.witness_value)
    out.set("witness", cert.witness)
    return 0 if cert.verdict is Verdict.PROPER else 1


def _cmd_degree(args, out: _Output) -> int:
    m = _load_map(args.map)
    from .ballmaps import degree
    value = degree(m)
    out.line(str(value))
    out.set("degree", value)
    return 0


def _cmd_embdim(args, out: _Output) -> int:
    m = _load_map(args.map)
    from .ballmaps import embedding_dimension
    value = embedding_dimension(m)
    out.line(str(value))
    out.set("embedding_dimension", value)
    return 0


def _cmd_equiv(args, out: _Output) -> int:
    a = _load_map(args.map1)
    b = _load_map(args.map2)
    from .ballmaps import norm_equivalent
    result = norm_equivalent(a, b, tol=args.tol)
    out.set("equivalent", result.equivalent)
    out.set("largest_relative", result.largest_relative)
    relative = f"largest relative entry: {result.largest_relative:.3e} (tol {args.tol:.1e})"
    if result.equivalent:
        out.line("equivalent")
        out.line(relative)
        out.line(f"witness residual: {result.witness_residual:.3e}")
        out.set("witness_residual", result.witness_residual)
        out.set("unitary", result.unitary)
        return 0
    alpha, beta, diff = result.mismatch
    out.line("inequivalent")
    out.line(relative)
    out.line(f"distinguishing entry ({alpha}, {beta}): {diff}")
    out.set("mismatch", {"alpha": list(alpha), "beta": list(beta), "delta": diff})
    return 1


def _cmd_xvariety(args, out: _Output) -> int:
    m = _load_map(args.map)
    import numpy as np
    from .xvariety import build_xmatrix, fiber_at, graph_test
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
    entries = [[_poly_str(entry) for entry in row] for row in x.entries]
    for alpha, row in zip(x.rows, entries):
        out.line(f"  row {list(alpha)}: [{', '.join(row)}]")
    out.set("entries", entries)
    return 0


def _read_json(path: str):
    import json
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _cmd_whitney(args, out: _Output) -> int:
    from .documents import build_whitney_term
    term = build_whitney_term(_read_json(args.script))
    from .ballmaps import degree
    m = term.map
    out.line(f"whitney term: {term.length} steps, B{m.n} -> B{m.N}, "
             f"degree {degree(m)}")
    out.set("steps", term.length)
    out.set("domain_dim", m.n)
    out.set("target_dim", m.N)
    out.set("degree", degree(m))
    if args.out:
        from .documents import dumps_map
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(dumps_map(m))
        out.line(f"map written to {args.out}")
    code = 0
    family = None
    if args.monomial_homotopy or args.collapse:
        from .homotopy import collapse_to_linear, homotopy_to_monomial, verify_family
    if args.monomial_homotopy:
        family = homotopy_to_monomial(term)
        report = verify_family(family, grid_size=args.grid, tol=args.tol,
                               seed=args.seed)
        out.line("monomial homotopy: "
                 f"endpoint degree {degree(family.endpoint_right)}, "
                 f"{'pass' if report.passed else 'FAIL'}")
        out.set("monomial_homotopy", report.to_dict())
        code = max(code, 0 if report.passed else 1)
    if args.collapse:
        # Degree lowering needs a monomial map; a term that is not one is
        # homotopic to the monomial endpoint of its monomial homotopy.
        source, origin = m, ""
        if not m.is_monomial_map:
            if family is None:
                family = homotopy_to_monomial(term)
            source, origin = family.endpoint_right, " from the monomial endpoint"
            out.set("collapse_from", "monomial_endpoint")
        lowering = collapse_to_linear(source)
        report = verify_family(lowering, grid_size=args.grid, tol=args.tol,
                               seed=args.seed)
        out.line(f"degree-lowering family{origin} in B{lowering.target_dim}: "
                 f"{'pass' if report.passed else 'FAIL'}")
        out.set("collapse", report.to_dict())
        code = max(code, 0 if report.passed else 1)
    return code


def _cmd_homotopy(args, out: _Output) -> int:
    family = _catalog(args.family, "family")
    if family is None:
        from .documents import family_from_script
        family = family_from_script(_read_json(args.family), _load_map)
    from .homotopy import verify_family
    report = verify_family(family, grid_size=args.grid, tol=args.tol,
                           seed=args.seed)
    out.line(report.summary())
    out.set("report", report.to_dict())
    return 0 if report.passed else 1


def _cmd_bound(args, out: _Output) -> int:
    from .bounds import degree_bound
    value = degree_bound(args.n, args.N)
    out.line(str(value))
    out.set("bound", value)
    return 0


def _cmd_blaschke(args, out: _Output) -> int:
    zeros = _parse_complex_list(args.zeros, "zeros")
    from .constructors import BlaschkeProduct, blaschke_map, winding_degree, winding_integral
    product = BlaschkeProduct(args.theta, zeros)
    m = blaschke_map(product)
    value = winding_integral(m)
    wd = winding_degree(m)
    out.line(f"winding degree: {wd}")
    out.line(f"quadrature residual: {abs(value - wd):.3e}")
    out.set("winding_degree", wd)
    out.set("quadrature_residual", abs(value - wd))
    if args.homotopy:
        from .homotopy import blaschke_homotopy, verify_family
        family = blaschke_homotopy(product)
        report = verify_family(family, grid_size=args.grid, tol=args.tol,
                               seed=args.seed)
        degrees = sorted(set(report.degrees))
        out.line(f"homotopy to z^{wd}: degrees {degrees}, "
                 f"{'pass' if report.passed else 'FAIL'}")
        out.set("homotopy", report.to_dict())
        if not report.passed or degrees != [wd]:
            return 1
    return 0


def _cmd_corpus(args, out: _Output) -> int:
    from .corpus import corpus, listing
    if args.action == "list":
        rows = []
        for name, kind, summary in listing():
            out.line(f"{name:24s} {kind:8s} {summary}")
            rows.append({"name": name, "kind": kind, "summary": summary})
        out.set("entries", rows)
        return 0
    reg = corpus()
    # corpus run: certify every map, verify every family.
    from .ballmaps import Verdict, certify_proper
    from .homotopy import verify_family
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
        report = verify_family(fam, grid_size=args.grid, tol=args.tol,
                               seed=args.seed)
        failures += 0 if report.passed else 1
        out.line(f"family {name:20s} {'pass' if report.passed else 'FAIL'} "
                 f"(grid {args.grid}, max residual {report.max_residual:.2e})")
        family_reports[name] = report.to_dict()
    out.set("maps", map_reports)
    out.set("families", family_reports)
    out.set("failures", failures)
    out.line("all checks passed" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------- parser
_FLAGS = {
    "--tol": dict(type=float, default=DEFAULT_TOL,
                  help=f"comparison tolerance (default %(default)s; in (0, {MAX_TOL:g}))"),
    "--seed": dict(type=int, default=DEFAULT_SEED, help="random sampling seed"),
}


def _command(sub, name: str, handler, text: str, flags=(), grid=None):
    """A subcommand with ``--json``, the ``flags`` of ``_FLAGS`` its handler
    reads and, when ``grid`` is given, ``--grid`` with that default."""
    p = sub.add_parser(name, help=text)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    if grid is not None:
        p.add_argument("--grid", type=int, default=grid,
                       help=f"grid size for family verification (default {grid})")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report")
    p.set_defaults(handler=handler)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propermaps",
        description="Certify and explore rational proper maps between unit balls.")
    sub = parser.add_subparsers(dest="command", required=True)
    tol_seed = ("--tol", "--seed")

    p = _command(sub, "verify", _cmd_verify, "certify that a map is proper", tol_seed)
    p.add_argument("map")

    p = _command(sub, "degree", _cmd_degree, "numerator degree of a map")
    p.add_argument("map")

    p = _command(sub, "embdim", _cmd_embdim, "embedding dimension (independent components)")
    p.add_argument("map")

    p = _command(sub, "equiv", _cmd_equiv, "decide norm equivalence of two maps", ("--tol",))
    p.add_argument("map1")
    p.add_argument("map2")

    p = _command(sub, "xvariety", _cmd_xvariety, "homogenization matrix, fibers, graph test",
                 ("--seed",))
    p.add_argument("map")
    p.add_argument("--at", help="domain point, comma-separated complex numbers")
    p.add_argument("--graph-test", action="store_true",
                   help="sample fibers and report exceptional ones")
    p.add_argument("--samples", type=int, default=50,
                   help="random points for --graph-test (default 50; at least 1)")

    p = _command(sub, "whitney", _cmd_whitney, "build iterated tensor terms from a script",
                 tol_seed, grid=101)
    p.add_argument("action", choices=["build"])
    p.add_argument("script", help="path to a JSON construction script")
    p.add_argument("--out", help="write the resulting map document here")
    p.add_argument("--monomial-homotopy", action="store_true",
                   help="also verify the homotopy to a monomial endpoint")
    p.add_argument("--collapse", action="store_true",
                   help="also verify the degree-lowering family")

    p = _command(sub, "homotopy", _cmd_homotopy, "verify a family from the catalog or a script",
                 tol_seed, grid=101)
    p.add_argument("family", help="catalog family id or JSON script path")

    p = _command(sub, "bound", _cmd_bound, "numeric bounds")
    p.add_argument("quantity", choices=["degree"])
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)

    p = _command(sub, "blaschke", _cmd_blaschke, "winding degree of a Blaschke product",
                 tol_seed, grid=11)
    p.add_argument("--zeros", required=True,
                   help="comma-separated complex zeros inside the disk")
    p.add_argument("--theta", type=float, default=0.0, help="outer phase")
    p.add_argument("--homotopy", action="store_true",
                   help="also verify the contraction to z^m")

    p = _command(sub, "corpus", _cmd_corpus, "list or run the built-in example corpus",
                 tol_seed, grid=11)
    p.add_argument("action", choices=["list", "run"])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = _Output(args.json)
    try:
        # A NaN tolerance would pass every comparison it is used in.
        if "tol" in args and not 0.0 < args.tol < MAX_TOL:
            raise ValueError(f"--tol must be a finite positive number below {MAX_TOL:g}, "
                             f"got {args.tol}")
        if "samples" in args and args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        if "seed" in args and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        code = args.handler(args, out)
    except _math_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    out.emit()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

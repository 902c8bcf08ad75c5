"""Per-layer metrics: which callables are traced and what is reported for them.

Layer names follow the modules of ``src/propermaps``.  Unless a metric says
otherwise, it is the total over the traced phase divided by the number of
operations in that phase, so runs of different lengths compare.
``constructors.whitney_extend`` only runs while inputs are built, so it is
reported for the one traced set-up instead.
"""

from __future__ import annotations

import importlib

from tracer import summarize

CERTIFY = "ballmaps.certify_proper"
POLY_EVAL = "polyalg.Polynomial.evaluate_many"
MAP_EVAL = "ballmaps.RationalBallMap.evaluate_many"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _poly_points(span, args, kwargs, result):
    counts = {"points": len(_arg(args, kwargs, 1, "points"))}
    if span.parent is not None and span.parent.name == CERTIFY:
        floor = importlib.import_module("propermaps.ballmaps").DENOMINATOR_FLOOR
        counts["rejects"] = int(len(result) > 0 and abs(result).min() < floor)
    return counts


#: (module, qualname, count function) for every wrapped callable.  Some are
#: wrapped only so that their time counts in ``trace.coverage_ratio``
#: (``ballmaps.degree``) or feeds a derived view (the witness evaluation).
TARGETS = (
    ("polyalg", "properness_form", lambda s, a, k, r: {"entries": len(r.entries)}),
    ("polyalg", "squared_norm_form", None),
    ("polyalg", "reduce_mod_sphere",
     lambda s, a, k, r: {"entries_in": len(_arg(a, k, 0, "form").entries)}),
    ("polyalg", "Polynomial.evaluate_many", _poly_points),
    ("ballmaps", "RationalBallMap.evaluate_many",
     lambda s, a, k, r: {"points": len(_arg(a, k, 1, "points"))}),
    ("ballmaps", "certify_proper",
     lambda s, a, k, r: {"not_proper": int(r.verdict.value == "not-proper")}),
    ("ballmaps", "degree", None),
    ("ballmaps", "embedding_dimension", None),
    ("ballmaps", "norm_equivalent", None),
    ("ballmaps", "apply_linear", None),
    ("constructors", "tensor_on_subspace", None),
    ("constructors", "automorphism_map", None),
    ("constructors", "whitney_extend", None),
    ("homotopy", "verify_family", lambda s, a, k, r: {"points": len(r.grid)}),
    ("homotopy", "homotopy_to_monomial", None),
    ("homotopy", "HomotopyFamily.evaluate", None),
    ("xvariety", "build_xmatrix", None),
    ("xvariety", "XMatrix.conjugated_at",
     lambda s, a, k, r: {"entry_evals": a[0].row_count * a[0].N}),
    ("xvariety", "fiber_at", None),
    ("xvariety", "graph_test", None),
    ("xvariety", "xmatrix_along_family", None),
    ("corpus", "corpus", None),
    ("documents", "load_map_path", None),
    ("cli", "main", None),
)

#: Spans reported as calls and self time per operation.
TIMED = (
    "polyalg.properness_form", "polyalg.squared_norm_form", "polyalg.reduce_mod_sphere",
    POLY_EVAL, CERTIFY, "ballmaps.embedding_dimension", "ballmaps.norm_equivalent",
    "ballmaps.apply_linear", "constructors.tensor_on_subspace",
    "constructors.automorphism_map", "homotopy.verify_family",
    "homotopy.homotopy_to_monomial", "homotopy.HomotopyFamily.evaluate",
    "xvariety.build_xmatrix", "xvariety.XMatrix.conjugated_at", "xvariety.fiber_at",
    "xvariety.graph_test", "xvariety.xmatrix_along_family", "corpus.corpus",
    "cli.main", "documents.load_map_path",
)

#: Counts reported per operation: (span name, count key).
COUNTS = (
    ("polyalg.properness_form", "entries"), ("polyalg.reduce_mod_sphere", "entries_in"),
    (POLY_EVAL, "points"), (CERTIFY, "not_proper"),
    ("xvariety.XMatrix.conjugated_at", "entry_evals"),
)

COLD_START = ("process.bare_start_s", "import.numpy_s", "import.scipy_s",
              "import.propermaps_s")


def declared() -> list:
    """The per-layer metrics as BENCHMARK.json lists them: name, unit, better."""
    out = []
    for name in TIMED:
        out += [(f"{name}.calls", "count/op", "lower"), (f"{name}.self_s", "s/op", "lower")]
    out += [(f"{name}.{key}", "count/op", "lower") for name, key in COUNTS]
    out += [("ballmaps.denominator.calls", "count/op", "lower"),
            ("ballmaps.denominator.self_s", "s/op", "lower"),
            ("ballmaps.denominator.points", "count/op", "lower"),
            ("ballmaps.denominator.rejects", "count/op", "lower"),
            ("ballmaps.denominator.useful_ratio", "ratio", "higher"),
            ("ballmaps.witness.calls", "count/op", "lower"),
            ("ballmaps.witness.self_s", "s/op", "lower"),
            ("ballmaps.witness.total_s", "s/op", "lower"),
            ("ballmaps.witness.points", "count/op", "lower"),
            ("ballmaps.witness.useful_ratio", "ratio", "higher"),
            ("constructors.whitney_extend.calls", "count", "lower"),
            ("constructors.whitney_extend.self_s", "s", "lower"),
            ("constructors.whitney_extend.total_s", "s", "lower"),
            ("homotopy.evaluate_per_member", "ratio", "lower")]
    out += [(name, "s", "lower") for name in COLD_START]
    out += [("machine.calib_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("trace.coverage_ratio", "ratio", "higher"),
            ("trace.errors", "count/op", "lower")]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, traced, plain) -> dict:
    """Per-layer metrics from the traced phase; overhead against the untraced one.

    The overhead is untraced ``ops_per_s`` over traced ``ops_per_s`` minus
    one, both from latencies at reference speed as in the untraced runs.
    """
    spans = tracer.spans_where("timed")
    ops = traced.attempted
    table = summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
    units = {name: unit for name, unit, _ in declared()}
    out = {}

    def put(name: str, value: float):
        out[name] = (value, units[name])

    for name in TIMED:
        row = table.get(name, empty)
        put(f"{name}.calls", row["calls"] / ops)
        put(f"{name}.self_s", row["self_s"] / ops)
    for name, key in COUNTS:
        put(f"{name}.{key}", table.get(name, {}).get(key, 0) / ops)

    under = lambda name: [s for s in spans  # noqa: E731
                          if s.name == name and s.parent is not None
                          and s.parent.name == CERTIFY]
    denominator = summarize(under(POLY_EVAL)).get(POLY_EVAL, dict(empty, points=0))
    put("ballmaps.denominator.calls", denominator["calls"] / ops)
    put("ballmaps.denominator.self_s", denominator["self_s"] / ops)
    put("ballmaps.denominator.points", denominator["points"] / ops)
    put("ballmaps.denominator.rejects", denominator.get("rejects", 0) / ops)
    put("ballmaps.denominator.useful_ratio",
        _ratio(denominator.get("rejects", 0), denominator["calls"]))
    witness = summarize(under(MAP_EVAL)).get(MAP_EVAL, dict(empty, points=0))
    certify = table.get(CERTIFY, {})
    put("ballmaps.witness.calls", witness["calls"] / ops)
    put("ballmaps.witness.self_s", witness["self_s"] / ops)
    put("ballmaps.witness.total_s", witness["total_s"] / ops)
    put("ballmaps.witness.points", witness["points"] / ops)
    put("ballmaps.witness.useful_ratio",
        _ratio(certify.get("not_proper", 0), witness["calls"]))

    setup = summarize(tracer.spans_where("setup")).get("constructors.whitney_extend", empty)
    put("constructors.whitney_extend.calls", setup["calls"])
    put("constructors.whitney_extend.self_s", setup["self_s"])
    put("constructors.whitney_extend.total_s", setup["total_s"])
    put("homotopy.evaluate_per_member",
        _ratio(table.get("homotopy.HomotopyFamily.evaluate", empty)["calls"],
               table.get("homotopy.verify_family", {}).get("points", 0)))

    rate = lambda ledger: ledger.attempted / sum(map(sum, ledger.by_op.values()))  # noqa: E731
    put("trace.overhead_ratio", rate(plain) / rate(traced) - 1.0)
    traced_busy = sum(traced.latencies)
    put("trace.coverage_ratio", _ratio(sum(row["self_s"] for row in table.values()),
                                       traced_busy))
    put("trace.errors", sum(row["errors"] for row in table.values()) / ops)
    return out

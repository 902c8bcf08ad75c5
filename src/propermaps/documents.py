"""Flat-file map documents: JSON serialization of rational ball maps.

Schema (version "1"): an object with exactly the fields ``schema_version``,
``domain_dim``, ``target_dim``, ``numerator``, ``denominator``.  The numerator
is a list of term lists, one per component; the denominator is a single term
list; each term is ``{"exponents": [...], "re": float, "im": float}`` with one
exponent per domain variable.  The denominator must contain the constant term
with re = 1, im = 0.  Floats round-trip bit-exactly through JSON.

The optional field ``denominator_factors`` (written only for maps that carry
factors) lists the centres a_k of q = prod_k (1 - <z, a_k>), each as one
[re, im] pair per domain variable; certification checks them against q.
"""

from __future__ import annotations

import json
import math
from typing import IO

from .ballmaps import RationalBallMap
from .polyalg import DEFAULT_TOL, Polynomial

SCHEMA_VERSION = "1"

_TOP_LEVEL_FIELDS = {"schema_version", "domain_dim", "target_dim",
                     "numerator", "denominator"}
_TERM_FIELDS = {"exponents", "re", "im"}


class MapDocumentError(ValueError):
    """The document is not a well-formed map description."""


def _terms_to_list(poly: Polynomial) -> list:
    out = []
    for alpha, coeff in poly.sorted_terms():
        out.append({"exponents": list(alpha), "re": coeff.real, "im": coeff.imag})
    return out


def require_number(value, where: str) -> float:
    """A finite real JSON number as a float; anything else is a MapDocumentError."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise MapDocumentError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _list_to_terms(items, domain_dim: int, where: str) -> dict:
    if not isinstance(items, list):
        raise MapDocumentError(f"{where} must be a list of terms")
    terms = {}
    for k, item in enumerate(items):
        spot = f"{where}[{k}]"
        if not isinstance(item, dict):
            raise MapDocumentError(f"{spot} must be an object")
        unknown = set(item) - _TERM_FIELDS
        if unknown:
            raise MapDocumentError(f"{spot} has unknown fields {sorted(unknown)}")
        missing = _TERM_FIELDS - set(item)
        if missing:
            raise MapDocumentError(f"{spot} is missing fields {sorted(missing)}")
        exps = item["exponents"]
        if (not isinstance(exps, list) or len(exps) != domain_dim
                or any(isinstance(e, bool) or not isinstance(e, int) or e < 0
                       for e in exps)):
            raise MapDocumentError(
                f"{spot}.exponents must be {domain_dim} non-negative integers")
        coeff = complex(require_number(item["re"], f"{spot}.re"),
                        require_number(item["im"], f"{spot}.im"))
        key = tuple(exps)
        if key in terms:
            raise MapDocumentError(f"{spot} repeats exponents {key}")
        terms[key] = coeff
    return terms


def _list_to_factors(items, domain_dim: int) -> list:
    """Factor centres from lists of [re, im] pairs, one pair per domain variable."""
    if not (isinstance(items, list) and all(
            isinstance(centre, list) and len(centre) == domain_dim
            and all(isinstance(pair, list) and len(pair) == 2 for pair in centre)
            for centre in items)):
        raise MapDocumentError("denominator_factors must be a list of centres, "
                               f"each {domain_dim} [re, im] pairs")
    return [[complex(require_number(re, "denominator_factors re"),
                     require_number(im, "denominator_factors im")) for re, im in centre]
            for centre in items]


def map_to_document(m: RationalBallMap) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "domain_dim": m.n,
        "target_dim": m.N,
        "numerator": [_terms_to_list(comp) for comp in m.p],
        "denominator": _terms_to_list(m.q),
    }
    if len(m.factors):
        doc["denominator_factors"] = [[[a.real, a.imag] for a in centre]
                                      for centre in m.factors.tolist()]
    return doc


def map_from_document(doc: dict) -> RationalBallMap:
    if not isinstance(doc, dict):
        raise MapDocumentError("document must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_FIELDS - {"denominator_factors"}
    if unknown:
        raise MapDocumentError(f"unknown top-level fields {sorted(unknown)}")
    missing = _TOP_LEVEL_FIELDS - set(doc)
    if missing:
        raise MapDocumentError(f"missing top-level fields {sorted(missing)}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise MapDocumentError(f"unsupported schema_version {doc['schema_version']!r}")
    n = doc["domain_dim"]
    target = doc["target_dim"]
    for name, value in (("domain_dim", n), ("target_dim", target)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise MapDocumentError(f"{name} must be a positive integer")
    numerator = doc["numerator"]
    if not isinstance(numerator, list) or len(numerator) != target:
        raise MapDocumentError("numerator must list one term-list per component")
    components = [Polynomial(n, _list_to_terms(items, n, f"numerator[{i}]"))
                  for i, items in enumerate(numerator)]
    q_terms = _list_to_terms(doc["denominator"], n, "denominator")
    constant = q_terms.get((0,) * n)
    if constant is None or abs(constant - 1.0) > DEFAULT_TOL:
        raise MapDocumentError("denominator must contain the constant term re=1, im=0")
    denominator = Polynomial(n, q_terms)
    factors = _list_to_factors(doc.get("denominator_factors", []), n)
    try:
        return RationalBallMap(n, target, components, denominator, factors=factors)
    except ValueError as exc:
        raise MapDocumentError(str(exc)) from exc


def dumps_map(m: RationalBallMap) -> str:
    return json.dumps(map_to_document(m), indent=2) + "\n"


def load_map(fp: IO[str]) -> RationalBallMap:
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise MapDocumentError(f"invalid JSON: {exc}") from exc
    return map_from_document(doc)


def load_map_path(path: str) -> RationalBallMap:
    with open(path, "r", encoding="utf-8") as fp:
        return load_map(fp)

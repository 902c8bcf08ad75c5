"""Plain-data documents: maps, Whitney scripts and family scripts as JSON.

Every reader here checks its fields as plain Python data first, and imports
the modules that compute with maps (and with them numpy) only once the
fields have passed, so input that is rejected costs no numpy import.

Map documents (schema version "1"): an object with exactly the fields
``schema_version``, ``domain_dim``, ``target_dim``, ``numerator``,
``denominator``.  The numerator is a list of term lists, one per component;
the denominator is a single term list; each term is
``{"exponents": [...], "re": float, "im": float}`` with one exponent per
domain variable.  The denominator must contain the constant term with
re = 1, im = 0.  Floats round-trip bit-exactly through JSON.

The optional field ``denominator_factors`` (written only for maps that carry
factors) lists the centres a_k of q = prod_k (1 - <z, a_k>), each as one
[re, im] pair per domain variable; certification checks them against q.

Whitney scripts and family scripts are read by ``build_whitney_term`` and
``family_from_script``.
"""

from __future__ import annotations

import json
import math
from typing import IO, TYPE_CHECKING

from .bounds import DEFAULT_TOL

if TYPE_CHECKING:
    from .ballmaps import RationalBallMap

SCHEMA_VERSION = "1"

_TOP_LEVEL_FIELDS = {"schema_version", "domain_dim", "target_dim",
                     "numerator", "denominator"}
_TERM_FIELDS = {"exponents", "re", "im"}


class MapDocumentError(ValueError):
    """The document is not a well-formed map description."""


def _terms_to_list(support, row) -> list:
    """The terms of a stored row over its descending support, in support
    order: its nonzero entries, which storage has floored."""
    return [{"exponents": list(alpha), "re": c.real, "im": c.imag}
            for alpha, c in zip(support, row.tolist()) if c]


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
        "numerator": [_terms_to_list(m.support, row) for row in m.coefficients[:-1]],
        "denominator": _terms_to_list(m.support, m.coefficients[-1]),
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
    p_terms = [_list_to_terms(items, n, f"numerator[{i}]")
               for i, items in enumerate(numerator)]
    q_terms = _list_to_terms(doc["denominator"], n, "denominator")
    constant = q_terms.get((0,) * n)
    if constant is None or abs(constant - 1.0) > DEFAULT_TOL:
        raise MapDocumentError("denominator must contain the constant term re=1, im=0")
    factors = _list_to_factors(doc.get("denominator_factors", []), n)
    from .ballmaps import RationalBallMap
    from .polyalg import Polynomial
    try:
        components = [Polynomial(n, terms) for terms in p_terms]
        return RationalBallMap(n, target, components, Polynomial(n, q_terms),
                               factors=factors)
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


# ------------------------------------------------------------ Whitney scripts
def build_whitney_term(script: dict):
    """Build a Whitney term from a plain-data script.

    Expected shape::

        {"domain_dim": n,
         "start": {"a": [[re, im], ...], "unitary": [[[re, im], ...], ...]?},
         "steps": [{"subspace": [indices] | [[re, im] vectors...],
                    "phi": {"a": ..., "unitary": ...}?,
                    "injection": [[[re, im], ...], ...]?}, ...]}

    Complex scalars are written as [re, im] pairs; "unitary", "phi" and
    "injection" are optional.
    """
    if not isinstance(script, dict):
        raise ValueError("a Whitney script must be a JSON object")
    n = script.get("domain_dim")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("script needs a positive integer domain_dim")
    steps = script.get("steps", [])
    if not isinstance(steps, list):
        raise ValueError("script steps must be a list")
    from .constructors import whitney_extend, whitney_start
    term = whitney_start(_parse_automorphism(script.get("start"), n))
    for k, raw in enumerate(steps):
        if not isinstance(raw, dict) or "subspace" not in raw:
            raise ValueError(f"step {k} must be an object with a subspace")
        basis = _parse_subspace(raw["subspace"])
        phi = _parse_automorphism(raw["phi"], n) if raw.get("phi") else None
        injection = _parse_matrix(raw["injection"]) if raw.get("injection") else None
        term = whitney_extend(term, basis, phi, injection)
    return term


def parse_complex(value) -> complex:
    """A finite complex number written as a real number or an [re, im] pair."""
    parts = value if isinstance(value, (list, tuple)) else [value, 0.0]
    if len(parts) != 2:
        raise ValueError(f"cannot read complex number from {value!r}")
    return complex(require_number(parts[0], "real part"),
                   require_number(parts[1], "imaginary part"))


def _parse_vector(values) -> list:
    if not isinstance(values, list):
        raise ValueError(f"expected a list of complex numbers, got {values!r}")
    return [parse_complex(v) for v in values]


def _parse_matrix(rows):
    import numpy as np
    if not isinstance(rows, list):
        raise ValueError(f"expected a list of matrix rows, got {rows!r}")
    mat = np.array([_parse_vector(row) for row in rows], dtype=complex)
    if mat.ndim != 2:
        raise ValueError("matrix rows must be nonempty and of equal length")
    return mat


def _parse_automorphism(raw, n: int):
    from .constructors import BallAutomorphism
    if raw is None:
        return BallAutomorphism.identity(n)
    if not isinstance(raw, dict):
        raise ValueError("an automorphism must be an object with 'a' and 'unitary'")
    center = _parse_vector(raw.get("a", [0.0] * n))
    if len(center) != n:
        raise ValueError(f"automorphism center must have {n} entries")
    unitary = _parse_matrix(raw["unitary"]) if raw.get("unitary") else None
    return BallAutomorphism(center, unitary)


def _parse_subspace(raw):
    import numpy as np
    if not isinstance(raw, list):
        raise ValueError("a subspace must be a list of indices or vectors")
    if all(isinstance(v, int) and not isinstance(v, bool) for v in raw):
        return raw  # column indices, which subspace_basis checks
    return np.column_stack([_parse_vector(v) for v in raw])


# ------------------------------------------------------------- family scripts
def family_from_script(script, load_map):
    """The homotopy family of a family script; ``load_map`` reads the map
    tokens of a juxtaposition.  The kinds:

    * ``{"kind": "juxtaposition", "left": map, "right": map}``
    * ``{"kind": "blaschke", "zeros": [[re, im], ...], "theta": phase?}``
    * ``{"kind": "whitney-monomial", "script": Whitney script}``
    """
    if not isinstance(script, dict):
        raise MapDocumentError("a family script must be a JSON object")
    kind = script.get("kind")
    if kind == "juxtaposition":
        left, right = script.get("left"), script.get("right")
        if not (isinstance(left, str) and isinstance(right, str)):
            raise MapDocumentError("a juxtaposition script needs 'left' and 'right' "
                                   "map ids or paths")
        left, right = load_map(left), load_map(right)
        from .homotopy import juxtaposition_family
        return juxtaposition_family(left, right)
    if kind == "blaschke":
        zeros = script.get("zeros")
        if not (isinstance(zeros, list)
                and all(isinstance(a, list) and len(a) == 2 for a in zeros)):
            raise MapDocumentError("a blaschke script needs a list of [re, im] zeros")
        theta = require_number(script.get("theta", 0.0), "theta")
        zeros = [parse_complex(a) for a in zeros]
        from .constructors import BlaschkeProduct
        from .homotopy import blaschke_homotopy
        return blaschke_homotopy(BlaschkeProduct(theta, zeros))
    if kind == "whitney-monomial":
        if "script" not in script:
            raise MapDocumentError("a whitney-monomial script needs a 'script' object")
        term = build_whitney_term(script["script"])
        from .homotopy import homotopy_to_monomial
        return homotopy_to_monomial(term)
    raise MapDocumentError(f"unknown family script kind {kind!r}")

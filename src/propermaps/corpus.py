"""Built-in registry of worked example maps and homotopy families.

Catalog ids are stable strings used by the command-line interface and the
test suite.  Maps: ex2.1.f, ex2.1.g, ex2.1.h, whitney.W, faran.f, faran.g,
faran.h, faran.phi, ex4.1.map.  Families: ex2.1.family, ex4.2.family (the
same quartic/cubic family viewed through its homogenization matrices),
faran.fg.family, faran.gh.family, faran.hphi.family.  Parameterized builders
construct Blaschke products and Whitney terms from user data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ballmaps import RationalBallMap
from .polyalg import Polynomial


def whitney_map() -> RationalBallMap:
    """The classical degree-two map from B_3 to B_5."""
    z1 = Polynomial.variable(3, 0)
    z2 = Polynomial.variable(3, 1)
    z3 = Polynomial.variable(3, 2)
    return RationalBallMap(3, 5, [z1, z2, z1 * z3, z2 * z3, z3 * z3])


def group_invariant_degree5_map() -> RationalBallMap:
    """The degree-five group-invariant map from B_2 to B_4."""
    z1 = Polynomial.variable(2, 0)
    z2 = Polynomial.variable(2, 1)
    r5 = math.sqrt(5.0)
    return RationalBallMap(2, 4, [z1 ** 5, (z1 ** 3) * z2 * r5,
                                  z1 * (z2 ** 2) * r5, z2 ** 5])


def quadric_three_map() -> RationalBallMap:
    """The degree-two map (z, zw, w^2) from B_2 to B_3."""
    z = Polynomial.variable(2, 0)
    w = Polynomial.variable(2, 1)
    return RationalBallMap(2, 3, [z, z * w, w * w])


def degree_drop_maps() -> dict:
    """The ends of ``degree_drop_family``: "f" at t = 1 (degree 4), "g" at t = 0 (degree 3)."""
    m = Polynomial.monomial
    return {"f": RationalBallMap(2, 5, [m((1, 0)), m((1, 1)), m((1, 2)), m((1, 3)), m((0, 4))]),
            "g": RationalBallMap(2, 5, [m((0, 2), -1.0), m((1, 1)), m((1, 2), -1.0),
                                        m((2, 1)), m((2, 0))])}


def faran_maps() -> dict:
    """The four pairwise spherically inequivalent maps from B_2 to B_3."""
    z = Polynomial.variable(2, 0)
    w = Polynomial.variable(2, 1)
    zero = Polynomial.zero(2)
    return {
        "f": RationalBallMap(2, 3, [z, w, zero]),
        "g": RationalBallMap(2, 3, [z * z, z * w, w]),
        "h": RationalBallMap(2, 3, [z * z, z * w * math.sqrt(2.0), w * w]),
        "phi": RationalBallMap(2, 3, [z ** 3, z * w * math.sqrt(3.0), w ** 3]),
    }


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
        basis = _parse_subspace(raw["subspace"], term.map.N)
        phi = _parse_automorphism(raw["phi"], n) if raw.get("phi") else None
        injection = _parse_matrix(raw["injection"]) if raw.get("injection") else None
        term = whitney_extend(term, basis, phi, injection)
    return term


def parse_complex(value) -> complex:
    """A finite complex number written as a real number or an [re, im] pair."""
    from .documents import require_number
    parts = value if isinstance(value, (list, tuple)) else [value, 0.0]
    if len(parts) != 2:
        raise ValueError(f"cannot read complex number from {value!r}")
    return complex(require_number(parts[0], "real part"),
                   require_number(parts[1], "imaginary part"))


def _parse_vector(values) -> np.ndarray:
    if not isinstance(values, list):
        raise ValueError(f"expected a list of complex numbers, got {values!r}")
    return np.array([parse_complex(v) for v in values], dtype=complex)


def _parse_matrix(rows) -> np.ndarray:
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
    if center.size != n:
        raise ValueError(f"automorphism center must have {n} entries")
    unitary = _parse_matrix(raw["unitary"]) if raw.get("unitary") else None
    return BallAutomorphism(center, unitary)


def _parse_subspace(raw, target_dim: int) -> np.ndarray:
    if not isinstance(raw, list):
        raise ValueError("a subspace must be a list of indices or vectors")
    if all(isinstance(v, int) and not isinstance(v, bool) for v in raw):
        if any(not 0 <= v < target_dim for v in raw):
            raise ValueError(f"subspace indices {raw} out of range for "
                             f"target dimension {target_dim}")
        return np.array(raw, dtype=int)  # column indices, as whitney_extend reads them
    return np.column_stack([_parse_vector(v) for v in raw])


@dataclass(frozen=True)
class Corpus:
    """Named registry of built-in maps, families, and parameterized builders."""

    maps: dict
    families: dict
    builders: dict

    def entries(self) -> list:
        out = []
        for name in sorted(self.maps):
            m = self.maps[name]
            out.append((name, "map", f"B{m.n} -> B{m.N}, degree {m.degree}"))
        for name in sorted(self.families):
            fam = self.families[name]
            out.append((name, "family",
                        f"B{fam.domain_dim} -> B{fam.target_dim}"))
        for name in sorted(self.builders):
            doc = (self.builders[name].__doc__ or "").strip()
            out.append((name, "builder", doc.splitlines()[0] if doc else ""))
        return out

    def get_map(self, name: str) -> RationalBallMap:
        if name not in self.maps:
            raise KeyError(f"unknown corpus map {name!r}")
        return self.maps[name]


def _blaschke_builder(theta: float, zeros) -> RationalBallMap:
    """blaschke(theta, zeros): finite Blaschke product as a disk self-map."""
    from .constructors import BlaschkeProduct, blaschke_map
    return blaschke_map(BlaschkeProduct(theta, zeros))


def _homotopy():
    from . import homotopy
    return homotopy


def _faran_families():
    return _homotopy().faran_families()


#: Every catalog id with its kind, the builder of its entry and, for a
#: builder that returns a dict of entries, the key of its own.  ``corpus()``
#: calls each builder once, so ids that share one share what it built.
CATALOG = {
    "ex2.1.f": ("map", degree_drop_maps, "f"),
    "ex2.1.g": ("map", degree_drop_maps, "g"),
    "ex2.1.h": ("map", quadric_three_map, None),
    "whitney.W": ("map", whitney_map, None),
    **{f"faran.{k}": ("map", faran_maps, k) for k in ("f", "g", "h", "phi")},
    "ex4.1.map": ("map", group_invariant_degree5_map, None),
    **dict.fromkeys(("ex2.1.family", "ex4.2.family"),
                    ("family", lambda: _homotopy().degree_drop_family(), None)),
    **{f"faran.{k}.family": ("family", _faran_families, k) for k in ("fg", "gh", "hphi")},
}


def catalog_entry(built, key):
    """The entry of a catalog id from what its builder ``built`` (see CATALOG)."""
    return built if key is None else built[key]


def corpus() -> Corpus:
    """Assemble the registry of built-in example maps and families."""
    built = {build: build() for build in dict.fromkeys(b for _, b, _ in CATALOG.values())}
    maps, families = ({name: catalog_entry(built[build], key)
                       for name, (kind_of, build, key) in CATALOG.items() if kind_of == kind}
                      for kind in ("map", "family"))
    return Corpus(maps, families, {"blaschke": _blaschke_builder, "whitney": build_whitney_term,
                                   "blaschke.homotopy": _homotopy().blaschke_homotopy})

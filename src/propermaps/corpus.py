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
from typing import TYPE_CHECKING

from .documents import build_whitney_term

if TYPE_CHECKING:
    from .ballmaps import RationalBallMap


def _table_map(n: int, *table) -> RationalBallMap:
    """The polynomial map from B_n with one component per entry of ``table``,
    a dict {exponents: coefficient} of its terms."""
    from .ballmaps import RationalBallMap
    from .polyalg import Polynomial
    return RationalBallMap(n, len(table), [Polynomial(n, terms) for terms in table])


def whitney_map() -> RationalBallMap:
    """The classical degree-two map from B_3 to B_5."""
    return _table_map(3, {(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(1, 0, 1): 1.0},
                      {(0, 1, 1): 1.0}, {(0, 0, 2): 1.0})


def group_invariant_degree5_map() -> RationalBallMap:
    """The degree-five group-invariant map from B_2 to B_4."""
    r5 = math.sqrt(5.0)
    return _table_map(2, {(5, 0): 1.0}, {(3, 1): r5}, {(1, 2): r5}, {(0, 5): 1.0})


def quadric_three_map() -> RationalBallMap:
    """The degree-two map (z, zw, w^2) from B_2 to B_3."""
    return _table_map(2, {(1, 0): 1.0}, {(1, 1): 1.0}, {(0, 2): 1.0})


def degree_drop_maps() -> dict:
    """The ends of ``degree_drop_family``: "f" at t = 1 (degree 4), "g" at t = 0 (degree 3)."""
    return {"f": _table_map(2, {(1, 0): 1.0}, {(1, 1): 1.0}, {(1, 2): 1.0}, {(1, 3): 1.0},
                            {(0, 4): 1.0}),
            "g": _table_map(2, {(0, 2): -1.0}, {(1, 1): 1.0}, {(1, 2): -1.0}, {(2, 1): 1.0},
                            {(2, 0): 1.0})}


def faran_maps() -> dict:
    """The four pairwise spherically inequivalent maps from B_2 to B_3."""
    return {
        "f": _table_map(2, {(1, 0): 1.0}, {(0, 1): 1.0}, {}),
        "g": _table_map(2, {(2, 0): 1.0}, {(1, 1): 1.0}, {(0, 1): 1.0}),
        "h": _table_map(2, {(2, 0): 1.0}, {(1, 1): math.sqrt(2.0)}, {(0, 2): 1.0}),
        "phi": _table_map(2, {(3, 0): 1.0}, {(1, 1): math.sqrt(3.0)}, {(0, 3): 1.0}),
    }


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

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
        """(name, kind, summary) of every map, family and builder, read from
        the built entries; ``listing`` gives the same for ``corpus()`` from
        the catalog's table alone."""
        return _entries({name: (m.n, m.N, m.degree) for name, m in self.maps.items()},
                        {name: (fam.domain_dim, fam.target_dim)
                         for name, fam in self.families.items()}, self.builders)


def _entries(maps: dict, families: dict, builders: dict) -> list:
    """(name, kind, summary) of each map from its (n, N, degree), then of
    each family from its (domain, target) dimensions, then of each builder
    from the first line of its docstring, each kind sorted by name."""
    out = [(name, "map", "B{} -> B{}, degree {}".format(*maps[name])) for name in sorted(maps)]
    out += [(name, "family", "B{} -> B{}".format(*families[name])) for name in sorted(families)]
    for name in sorted(builders):
        doc = (builders[name].__doc__ or "").strip()
        out.append((name, "builder", doc.splitlines()[0] if doc else ""))
    return out


def _blaschke_builder(theta: float, zeros) -> RationalBallMap:
    """blaschke(theta, zeros): finite Blaschke product as a disk self-map."""
    from .constructors import BlaschkeProduct, blaschke_map
    return blaschke_map(BlaschkeProduct(theta, zeros))


def _homotopy():
    from . import homotopy
    return homotopy


def _blaschke_homotopy(b):
    """Contract all zeros and the phase to 0: endpoints are the product and z^m."""
    return _homotopy().blaschke_homotopy(b)


def _faran_families():
    return _homotopy().faran_families()


#: The parameterized builders, with docstrings readable without numpy.
BUILDERS = {"blaschke": _blaschke_builder, "whitney": build_whitney_term,
            "blaschke.homotopy": _blaschke_homotopy}

#: Every catalog id with its kind, the builder of its entry, for a builder
#: that returns a dict of entries the key of its own, and what ``corpus
#: list`` shows of the entry: (n, N, degree) of a map, (domain, target)
#: dimensions of a family.  ``corpus()`` calls each builder once, so ids that
#: share one share what it built.
CATALOG = {
    "ex2.1.f": ("map", degree_drop_maps, "f", (2, 5, 4)),
    "ex2.1.g": ("map", degree_drop_maps, "g", (2, 5, 3)),
    "ex2.1.h": ("map", quadric_three_map, None, (2, 3, 2)),
    "whitney.W": ("map", whitney_map, None, (3, 5, 2)),
    "faran.f": ("map", faran_maps, "f", (2, 3, 1)),
    "faran.g": ("map", faran_maps, "g", (2, 3, 2)),
    "faran.h": ("map", faran_maps, "h", (2, 3, 2)),
    "faran.phi": ("map", faran_maps, "phi", (2, 3, 3)),
    "ex4.1.map": ("map", group_invariant_degree5_map, None, (2, 4, 5)),
    **dict.fromkeys(("ex2.1.family", "ex4.2.family"),
                    ("family", lambda: _homotopy().degree_drop_family(), None, (2, 5))),
    "faran.fg.family": ("family", _faran_families, "fg", (2, 4)),
    "faran.gh.family": ("family", _faran_families, "gh", (2, 4)),
    "faran.hphi.family": ("family", _faran_families, "hphi", (2, 5)),
}


def catalog_entry(built, key):
    """The entry of a catalog id from what its builder ``built`` (see CATALOG)."""
    return built if key is None else built[key]


def listing() -> list:
    """What ``corpus().entries()`` gives, from CATALOG and BUILDERS alone,
    so that listing the catalog builds nothing and loads no numpy."""
    maps, families = ({name: listed for name, (kind_of, _, _, listed) in CATALOG.items()
                       if kind_of == kind} for kind in ("map", "family"))
    return _entries(maps, families, BUILDERS)


def corpus() -> Corpus:
    """Assemble the registry of built-in example maps and families."""
    built = {build: build() for build in dict.fromkeys(b for _, b, _, _ in CATALOG.values())}
    maps, families = ({name: catalog_entry(built[build], key)
                       for name, (kind_of, build, key, _) in CATALOG.items() if kind_of == kind}
                      for kind in ("map", "family"))
    return Corpus(maps, families, dict(BUILDERS))

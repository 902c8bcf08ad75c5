"""Homogenization matrix of a rational map and the fibers it cuts out.

For a map of numerator degree d, every numerator monomial is multiplied by
the power of <z, conj(w)> that brings it to degree d.  Collecting, per
degree-d monomial in z, the resulting coefficients (polynomials in the
conjugated point) gives a K x N matrix, K = binomial(d+n-1, n-1).  A point
(w, zeta) solves the polarized sphere equation exactly when zeta - f(w) lies
in the kernel of the conjugated matrix evaluated at w, so kernels describe
the fibers over w and a trivial kernel for every nonzero w says the solution
set is precisely the graph of f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from .ballmaps import DEFAULT_SEED, RationalBallMap, degree as map_degree
from .homotopy import HomotopyFamily
from .polyalg import (DEFAULT_TOL, Polynomial, monomials_of_degree,
                      multinomial, total_degree)


class EvaluationAtPoleError(ArithmeticError):
    """The denominator vanishes at the requested point."""


@dataclass(frozen=True)
class XMatrix:
    """Homogenization matrix: rows indexed by degree-d monomials, one column per component.

    Entries are polynomials in the conjugated domain variables.  Row order is
    lexicographic descending, so for two variables the first row belongs to
    z1^d and the last to z2^d.  The construction uses the numerator only;
    ``numerator_only_heuristic`` is set when the map has a nontrivial
    denominator, for which the fiber description is unvalidated.
    """

    n: int
    N: int
    d: int
    rows: tuple
    entries: tuple  # K x N nested tuples of Polynomial in the conjugated variables
    numerator_only_heuristic: bool = False

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def entry(self, row: int, col: int) -> Polynomial:
        return self.entries[row][col]

    def matrix_at_conjugate(self, w: Sequence[complex]) -> np.ndarray:
        """Evaluate the entry polynomials at conj(w); raw, without outer conjugation."""
        wbar = np.conj(np.asarray(w, dtype=complex))
        out = np.zeros((self.row_count, self.N), dtype=complex)
        for i in range(self.row_count):
            for k in range(self.N):
                out[i, k] = self.entries[i][k](wbar)
        return out

    def conjugated_at(self, w: Sequence[complex]) -> np.ndarray:
        """The numeric matrix whose kernel translates the fiber over w."""
        return np.conj(self.matrix_at_conjugate(w))

    def reconstruct_component(self, col: int, z: Sequence[complex],
                              w: Sequence[complex]) -> complex:
        """Sum of entries against z-monomials; equals p_col(z) when <z, w> = 1."""
        acc = 0.0 + 0.0j
        zv = np.asarray(z, dtype=complex)
        wbar = np.conj(np.asarray(w, dtype=complex))
        for i, alpha in enumerate(self.rows):
            mono = np.prod(zv ** np.array(alpha))
            acc += self.entries[i][col](wbar) * mono
        return acc

    def max_coefficient_distance(self, other: "XMatrix") -> float:
        if (self.n, self.N, self.d) != (other.n, other.N, other.d):
            raise ValueError("matrices have different shapes")
        return max((a.distance(b) for row_a, row_b in zip(self.entries, other.entries)
                    for a, b in zip(row_a, row_b)), default=0.0)


def build_xmatrix(m: RationalBallMap, degree: Optional[int] = None) -> XMatrix:
    """Homogenize the numerator against <z, conj(w)> powers at the given degree.

    The degree defaults to the numerator degree, 0 for a zero numerator; a
    larger value embeds the map among higher-degree maps, which keeps matrix
    shapes constant along a family.  Column k collects, per degree-d monomial
    z^alpha, the coefficient polynomial in the conjugated variables of
    component k.
    """
    top = map_degree(m)
    d = top if degree is None else int(degree)
    if d < top:
        raise ValueError("homogenization degree cannot be below the map degree")
    rows = monomials_of_degree(m.n, d)
    row_index = {alpha: i for i, alpha in enumerate(rows)}
    entry_terms: list = [[{} for _ in range(m.N)] for _ in range(len(rows))]
    for k, comp in enumerate(m.p):
        for alpha, coeff in comp.terms.items():
            gap = d - total_degree(alpha)
            for gamma in monomials_of_degree(m.n, gap):
                row = row_index[tuple(a + g for a, g in zip(alpha, gamma))]
                weight = coeff * multinomial(gap, gamma)
                terms = entry_terms[row][k]
                terms[gamma] = terms.get(gamma, 0.0) + weight
    entries = tuple(tuple(Polynomial(m.n, cell) for cell in row_cells)
                    for row_cells in entry_terms)
    return XMatrix(m.n, m.N, d, tuple(rows), entries,
                   numerator_only_heuristic=not m.has_trivial_denominator)


@dataclass(frozen=True)
class FiberReport:
    """Fiber over a domain point: affine translate of the matrix kernel.

    Fiber points are f(w) + v for v in the span of ``nullspace_basis``
    columns; ``dimension`` is the kernel dimension (0 means the fiber is the
    single point f(w)).
    """

    w: np.ndarray
    base: np.ndarray
    nullspace_basis: np.ndarray
    dimension: int


def fiber_at(m: RationalBallMap, x: XMatrix, w: Sequence[complex]) -> FiberReport:
    """Fiber over w: f(w) plus the kernel of the conjugated matrix at w.

    The origin is special-cased as the single point (0, f(0)).  Raises
    EvaluationAtPoleError when the denominator vanishes at w.
    """
    wv = np.asarray(w, dtype=complex).reshape(-1)
    if wv.size != m.n:
        raise ValueError("point dimension mismatch")
    if np.linalg.norm(wv) <= DEFAULT_TOL:
        base = m.evaluate(np.zeros(m.n, dtype=complex))
        return FiberReport(wv, base, np.zeros((m.N, 0), dtype=complex), 0)
    if abs(m.q(wv)) <= 1e-8:
        raise EvaluationAtPoleError(f"denominator vanishes at {wv}")
    matrix = x.conjugated_at(wv)
    kernel = _linalg.nullspace_basis(matrix)
    return FiberReport(wv, m.evaluate(wv), kernel, kernel.shape[1])


@dataclass(frozen=True)
class GraphTestResult:
    """Outcome of sampling fibers: either all trivial or a list of exceptions."""

    graph_equals_x: bool
    exceptional: tuple  # (w, dimension) pairs
    samples_checked: int

    @property
    def verdict(self) -> str:
        return "graph-equals-x" if self.graph_equals_x else "exceptional-fibers-found"


def graph_test(m: RationalBallMap, x: Optional[XMatrix] = None,
               samples: int = 50, seed: int = DEFAULT_SEED,
               include_hyperplanes: bool = True) -> GraphTestResult:
    """Sample fibers at random and structured points, reporting any positive-dimensional ones.

    Generic points are complex Gaussian; structured points lie on the
    coordinate hyperplanes w_j = 0, where exceptional fibers concentrate in
    the worked examples.  Points at poles of the map are skipped.
    """
    if x is None:
        x = build_xmatrix(m)
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(samples):
        points.append(rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
    if include_hyperplanes and m.n > 1:
        per_plane = max(2, samples // (4 * m.n))
        for j in range(m.n):
            for _ in range(per_plane):
                w = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
                w[j] = 0.0
                points.append(w)
    exceptional = []
    checked = 0
    for w in points:
        if np.linalg.norm(w) <= DEFAULT_TOL:
            continue
        try:
            report = fiber_at(m, x, w)
        except EvaluationAtPoleError:
            continue
        checked += 1
        if report.dimension > 0:
            exceptional.append((w, report.dimension))
    return GraphTestResult(not exceptional, tuple(exceptional), checked)


@dataclass
class XFamilyReport:
    """Matrices of a family on a grid, with continuity and rank profiles."""

    grid: list
    degree: int
    matrices: list
    max_entry_step: float
    generic_ranks: list
    rank_drops: list  # t values where the generic rank falls below the maximum

    def to_dict(self) -> dict:
        return {
            "grid_size": len(self.grid),
            "degree": self.degree,
            "max_entry_step": self.max_entry_step,
            "generic_ranks": self.generic_ranks,
            "rank_drops": self.rank_drops,
        }


def xmatrix_along_family(family: HomotopyFamily, grid_size: int = 11,
                         degree: Optional[int] = None, w_samples: int = 5,
                         seed: int = DEFAULT_SEED) -> XFamilyReport:
    """Build the matrices of a family at a common degree and track their behavior.

    The homogenization degree is the maximum numerator degree over the grid
    (so the matrix shape is constant in t), entrywise coefficient paths are
    compared between adjacent samples, and the generic rank per t is the
    largest rank of the conjugated matrix over a fixed set of random points;
    parameters where it drops below the overall maximum are flagged.
    """
    ts = [i / (grid_size - 1) for i in range(grid_size)]
    members = list(family.evaluate_many(ts))
    top = degree
    if top is None:
        top = max(map_degree(m) for m in members)
    matrices = [build_xmatrix(m, degree=top) for m in members]

    max_step = 0.0
    for a, b in zip(matrices, matrices[1:]):
        max_step = max(max_step, a.max_coefficient_distance(b))

    rng = np.random.default_rng(seed)
    points = [rng.standard_normal(family.domain_dim)
              + 1j * rng.standard_normal(family.domain_dim)
              for _ in range(w_samples)]
    generic_ranks = []
    for x in matrices:
        best = 0
        for w in points:
            best = max(best, _linalg.numerical_rank(x.conjugated_at(w)))
        generic_ranks.append(best)
    overall = max(generic_ranks)
    drops = [t for t, r in zip(ts, generic_ranks) if r < overall]
    return XFamilyReport(ts, top, matrices, max_step, generic_ranks, drops)

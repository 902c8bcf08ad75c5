"""Homogenization matrix of a rational map and the fibers it cuts out.

For a map of numerator degree d, every numerator monomial z^alpha is
multiplied by <z, conj(w)>^(d - |alpha|), whose terms are multinomial(d -
|alpha|, gamma) z^(alpha + gamma) conj(w)^gamma.  Collecting, per degree-d
monomial in z, the coefficients (polynomials in the conjugated point) gives
a K x N matrix, K = binomial(d+n-1, n-1).  A point (w, zeta) solves the
polarized sphere equation exactly when zeta - f(w) lies in the kernel of
the conjugated matrix evaluated at w, so kernels describe the fibers over w
and a trivial kernel for every nonzero w says the solution set is precisely
the graph of f.  The matrix is the map's numerator rows read through one
cached lift plan per (n, d, support), so a stack of points gives a stack of
matrices, and their ranks come from one stacked SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from .ballmaps import DEFAULT_SEED, RationalBallMap, degree as map_degree
from .bounds import DEFAULT_TOL, POLE_TOL
from .polyalg import (Polynomial, _monomial_values, align_rows, check_plan_degree,
                      evaluate_rows, monomials_of_degree, multinomial)

#: Lift entries (points x K x M) of one block of ``XMatrix.conjugated_at``:
#: 512 kB of complex values.  The largest graph test of the fiber-scan
#: benchmark (the degree-5 composition on B_3, 26 points x 21 rows x 56
#: monomials, 30,576 entries) is one block; a block holds at least one point.
LIFT_ENTRIES = 2 ** 15

#: Random points at which ``xmatrix_along_family`` takes each member's generic rank.
RANK_POINTS = 5


class EvaluationAtPoleError(ArithmeticError):
    """The denominator vanishes at the requested point."""


# A fiber-scan pass lifts 20 supports (catalog, composition ladder, the
# ex2.1 members and the family's grid at degree 4), so 32 plans hold one.
# A plan keeps 32 bytes per (row, monomial) pair and n int64 per distinct
# gamma: the largest, the degree-12 composition on B_2, 455 pairs in 16 kB.
@lru_cache(maxsize=32)
def _lift_plan(n: int, d: int, support: tuple):
    """(row, column, gamma, weight, exponents): for each degree-d row r and
    support monomial alpha <= r, row-major, the row, alpha's column, the
    index of gamma = r - alpha in the distinct ``exponents`` and the weight
    multinomial(d - |alpha|, gamma).  Monomials above degree d pair with no row."""
    check_plan_degree(n, d)
    rows = np.array(monomials_of_degree(n, d), dtype=np.int64).reshape(-1, n)
    gap = rows[:, None, :] - np.array(support, dtype=np.int64)[None]
    row, column = np.nonzero((gap >= 0).all(axis=2))
    exps, gamma = np.unique(gap[row, column], axis=0, return_inverse=True)
    weight = np.array([float(multinomial(sum(g), g)) for g in exps.tolist()])
    plan = (row, column, gamma.reshape(-1), weight[gamma.reshape(-1)], exps)
    for array in plan:
        array.flags.writeable = False
    return plan


@dataclass(frozen=True, eq=False)
class XMatrix:
    """Homogenization matrix: rows indexed by degree-d monomials, one column per component.

    It is stored as the map's read-only (N, M) ``numerator`` rows over
    ``support`` and read through the cached lift plan of (n, d, support).
    Rows descend lexicographically: for two variables the first row belongs
    to z1^d and the last to z2^d.  ``entries`` is a view, nested tuples of
    polynomials in the conjugated variables built on each read.
    ``numerator_only_heuristic`` is set when the map has a nontrivial
    denominator, for which the fiber description is unvalidated.  Equality
    is identity.
    """

    n: int
    N: int
    d: int
    rows: tuple
    support: tuple
    numerator: np.ndarray = field(repr=False)
    numerator_only_heuristic: bool = False

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple:
        """K x N nested tuples of Polynomial in the conjugated variables."""
        row, column, gamma, weight, exps = _lift_plan(self.n, self.d, self.support)
        coeffs = self.numerator.T[column]
        item, col = np.nonzero(coeffs)
        terms = [[{} for _ in range(self.N)] for _ in self.rows]
        for i, k, mono, c in zip(row[item].tolist(), col.tolist(),
                                 map(tuple, exps[gamma[item]].tolist()),
                                 (coeffs[item, col] * weight[item]).tolist()):
            terms[i][k][mono] = c
        return tuple(tuple(Polynomial._raw(self.n, t) for t in cells) for cells in terms)

    def conjugated_at(self, w) -> np.ndarray:
        """The numeric (K, N) matrix whose kernel translates the fiber over
        the point w, or the (m, K, N) stack of them at an (m, n) array of
        points: the lift of the support to the rows at conj(w), in blocks of
        at most LIFT_ENTRIES, times the numerator rows, conjugated."""
        pts = np.asarray(w, dtype=complex)
        points = pts.reshape(-1, self.n)
        row, column, gamma, weight, exps = _lift_plan(self.n, self.d, self.support)
        shape = (self.row_count, len(self.support))
        out = []
        for block in np.array_split(points, len(points) * shape[0] * shape[1] // LIFT_ENTRIES + 1):
            lift = np.zeros((len(block), *shape), dtype=complex)
            lift[:, row, column] = _monomial_values(exps, np.conj(block)).T[:, gamma] * weight
            out.append(lift @ self.numerator.T)
        matrices = np.conj(np.concatenate(out))
        return matrices if pts.ndim == 2 else matrices[0]

    def reconstruct_component(self, col: int, z: Sequence[complex],
                              w: Sequence[complex]) -> complex:
        """Sum of entries against z-monomials; equals p_col(z) when <z, w> = 1."""
        entries = np.conj(self.conjugated_at(w)).T[col:col + 1]
        return complex(evaluate_rows(self.n, self.rows, entries, [z])[0, 0])


def build_xmatrix(m: RationalBallMap, degree: Optional[int] = None) -> XMatrix:
    """Homogenize the numerator against <z, conj(w)> powers at the given degree.

    The degree defaults to the numerator degree, 0 for a zero numerator; a
    larger value embeds the map among higher-degree maps, which keeps matrix
    shapes constant along a family.  The map's numerator rows are not copied.
    """
    top = map_degree(m)
    d = top if degree is None else int(degree)
    if d < top:
        raise ValueError("homogenization degree cannot be below the map degree")
    return XMatrix(m.n, m.N, d, tuple(monomials_of_degree(m.n, d)), m.support,
                   m.coefficients[:-1], numerator_only_heuristic=not m.has_trivial_denominator)


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
    origin = np.linalg.norm(wv) <= DEFAULT_TOL
    values = evaluate_rows(m.n, m.support, m.coefficients, [0 * wv if origin else wv])[0]
    if abs(values[-1]) <= POLE_TOL:
        raise EvaluationAtPoleError(f"denominator vanishes at {wv}")
    kernel = (np.zeros((m.N, 0), dtype=complex) if origin
              else _linalg.nullspace_basis(x.conjugated_at(wv)))
    return FiberReport(wv, values[:-1] / values[-1], kernel, kernel.shape[1])


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
    the worked examples.  The origin and the poles of the map are skipped;
    the fiber dimensions at the other points are N minus the ranks of one
    stacked ``conjugated_at``, as ``fiber_at`` gives them point by point.
    """
    if x is None:
        x = build_xmatrix(m)
    rng = np.random.default_rng(seed)
    per_plane = max(2, samples // (4 * m.n)) if include_hyperplanes and m.n > 1 else 0
    pts = np.array([rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
                    for _ in range(samples + m.n * per_plane)]).reshape(-1, m.n)
    # The last points lie on the hyperplanes w_1 = 0, ..., w_n = 0 in turn.
    pts[samples + np.arange(m.n * per_plane), np.repeat(np.arange(m.n), per_plane)] = 0.0
    q = evaluate_rows(m.n, m.support, m.coefficients[-1:], pts)[:, 0]
    kept = pts[(np.linalg.norm(pts, axis=1) > DEFAULT_TOL) & (np.abs(q) > POLE_TOL)]
    dims = m.N - _linalg.numerical_rank(x.conjugated_at(kept))
    exceptional = tuple((w, int(dim)) for w, dim in zip(kept, dims) if dim > 0)
    return GraphTestResult(not exceptional, exceptional, len(kept))


@dataclass
class XFamilyReport:
    """Matrices of a family on a grid, with continuity and rank profiles."""

    grid: list
    degree: int
    matrices: list
    max_entry_step: float
    generic_ranks: list
    rank_drops: list  # t values where the generic rank falls below the maximum


def xmatrix_along_family(family, grid_size: int = 11,
                         seed: int = DEFAULT_SEED) -> XFamilyReport:
    """Build the matrices of a family at a common degree and track their behavior.

    The homogenization degree is the maximum numerator degree over the grid
    (so the matrix shape is constant in t), entry coefficients (the aligned
    numerator rows times the lift weights) are compared between adjacent
    samples, and the generic rank per t is the largest rank of the
    conjugated matrix at ``RANK_POINTS`` random points, one stacked rank
    per member; parameters where it drops below the overall maximum are
    flagged.
    """
    ts = [i / (grid_size - 1) for i in range(grid_size)]
    members = list(family.evaluate_many(ts))
    top = max(map_degree(m) for m in members)
    matrices = [build_xmatrix(m, degree=top) for m in members]
    support, rows = align_rows(*((x.support, x.numerator) for x in matrices))
    _, column, _, weight, _ = _lift_plan(family.domain_dim, top, support)
    entries = np.stack(rows)[:, :, column] * weight
    max_step = float(np.abs(np.diff(entries, axis=0)).max(initial=0.0))
    rng = np.random.default_rng(seed)
    points = np.array([rng.standard_normal(family.domain_dim)
                       + 1j * rng.standard_normal(family.domain_dim)
                       for _ in range(RANK_POINTS)])
    generic_ranks = [int(_linalg.numerical_rank(x.conjugated_at(points)).max(initial=0))
                     for x in matrices]
    overall = max(generic_ranks)
    drops = [t for t, r in zip(ts, generic_ranks) if r < overall]
    return XFamilyReport(ts, top, matrices, max_step, generic_ranks, drops)

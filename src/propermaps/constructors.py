"""Builders for automorphisms, Blaschke products, tensor steps, and Whitney terms.

Sign convention for ball automorphisms: the rational map is

    z  ->  U (L_a(z) - a) / (1 - <z, a>),      L_a(z) = <z, a> a / (s + 1) + s z,

with s = sqrt(1 - ||a||^2) and <z, a> = sum z_j conj(a_j).  With this choice
a = 0 and U = I give the identity map, the map vanishes at z = a, and the
inverse automorphism has parameters (-U a, U*).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from .ballmaps import (DimensionMismatchError, RationalBallMap, Verdict, _apply_linear_run,
                       _Block, _factor_rows, _store, _top_degree, certify_proper)
from .polyalg import (COEFFICIENT_FLOOR, _product_plan, align_rows, canonical_rows,
                      evaluate_rows, monomials_of_degree, multiply_rows)


class NonIntegralWindingError(ArithmeticError):
    """The winding quadrature is too far from an integer to trust the input."""


class TensorSubspaceError(ValueError):
    """The tensor subspace is zero or its basis is not orthonormal."""


class BallAutomorphism:
    """Automorphism of the unit ball: unitary part U after a Moebius factor at a."""

    __slots__ = ("a", "U")

    def __init__(self, center: Sequence[complex], unitary: Optional[np.ndarray] = None):
        a = np.array(center, dtype=complex).reshape(-1)
        if a.size < 1:
            raise ValueError("center must be a nonempty vector")
        if not np.isfinite(a).all():
            raise ValueError(f"center {a} must be finite")
        if np.linalg.norm(a) >= 1.0:
            raise ValueError(f"center must lie strictly inside the ball, |a|={np.linalg.norm(a)}")
        u = np.eye(a.size, dtype=complex) if unitary is None else np.array(unitary, dtype=complex)
        if u.shape != (a.size, a.size) or not _linalg.is_unitary(u):
            raise ValueError("unitary part must be a square unitary matrix")
        # The maps keep the centre as their factor centre; no caller holds either array.
        a.flags.writeable = False
        u.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "U", u)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BallAutomorphism is immutable")

    @classmethod
    def identity(cls, n: int) -> "BallAutomorphism":
        return cls(np.zeros(n, dtype=complex))

    @property
    def dim(self) -> int:
        return self.a.size

    @property
    def is_identity(self) -> bool:
        return (np.linalg.norm(self.a) == 0.0
                and np.max(np.abs(self.U - np.eye(self.dim))) <= 1e-14)

    def inverse(self) -> "BallAutomorphism":
        return BallAutomorphism(-(self.U @ self.a), self.U.conj().T)

    def __call__(self, z: Sequence[complex]) -> np.ndarray:
        return automorphism_map(self).evaluate(z)

    def __repr__(self):
        return f"BallAutomorphism(dim={self.dim}, |a|={np.linalg.norm(self.a):.3g})"


def automorphism_map(phi: BallAutomorphism) -> RationalBallMap:
    """Degree-one rational map of the automorphism; denominator 1 - <z, a>."""
    return _automorphism_maps(phi.a[None], phi.U[None])[0][0]


def _automorphism_maps(centres: np.ndarray, unitaries: np.ndarray) -> list:
    """The blocks of the maps of the automorphisms with the (T, n) centres
    and the (T, n, n) unitary parts, which are taken as valid, from one
    stacked product."""
    n = centres.shape[1]
    # s = sqrt(1 - ||a||^2), with ||a|| rounded as np.linalg.norm rounds it
    # (dot products of the real and of the imaginary parts) and squared by
    # the float power, so that the rows keep their values to the last bit.
    re, im = centres.real, centres.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
    s = np.array([math.sqrt(max(0.0, 1.0 - r ** 2)) for r in norms.ravel().tolist()])
    s = s[:, None, None]
    # Columns: z_1, ..., z_n, then the constant term; q = 1 - <z, a> is the last row.
    monos = monomials_of_degree(n, 1) + [(0,) * n]
    outer = centres[:, :, None] * centres.conj()[:, None, :]
    mobius = np.concatenate([outer / (s + 1.0) + s * np.eye(n), -centres[:, :, None]],
                            axis=2)
    last = np.concatenate([-centres.conj(), np.ones((len(centres), 1))], axis=1)
    rows = np.concatenate([unitaries @ mobius, last[:, None, :]], axis=1)
    rows[np.abs(rows) <= COEFFICIENT_FLOOR] = 0.0
    return _store(n, tuple(monos), rows, centres[:, None, :])


def automorphism_from_map(m: RationalBallMap) -> BallAutomorphism:
    """Recognize a degree-one equidimensional proper map as a ball automorphism.

    Recovers the Moebius center from the denominator and solves for the
    unitary part on the coefficient level.  Raises ValueError when the map is
    not of that shape.
    """
    if m.N != m.n:
        raise ValueError("an automorphism must be equidimensional")
    if m.degree > 1 or _top_degree(m.support, m.coefficients[-1:]) > 1:
        raise ValueError("an automorphism has numerator and denominator of degree <= 1")
    n = m.n
    q = dict(zip(m.support, m.coefficients[-1].tolist()))
    a = -np.conj([q.get(alpha, 0.0) for alpha in monomials_of_degree(n, 1)])
    if np.linalg.norm(a) >= 1.0:
        raise ValueError("recovered center lies outside the open ball")
    reference = automorphism_map(BallAutomorphism(a))
    _, (ref_mat, map_mat) = align_rows(
        *(canonical_rows(f.support, f.coefficients[:-1]) for f in (reference, m)))
    unitary = _linalg.procrustes_unitary(ref_mat, map_mat)
    if np.max(np.abs(unitary @ ref_mat - map_mat)) > 1e-5:
        raise ValueError("map is not a unitary multiple of a Moebius factor")
    return BallAutomorphism(a, unitary)


def boundary_constant_map(point: Sequence[complex]) -> RationalBallMap:
    """Degenerate limit of automorphisms as the center reaches the sphere.

    When ||a|| = 1 the Moebius factor collapses to a constant boundary point
    (a unitary away from a itself); the compactified family therefore adds
    only constant maps.  Returns the constant map at the given point, with
    denominator 1.
    """
    a = np.asarray(point, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(a) - 1.0) > 1e-6:
        raise ValueError("boundary constant requires a point of the unit sphere")
    return RationalBallMap.constant(a, a.size)


# --------------------------------------------------------------------- Blaschke
@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite product of disk factors e^{i theta} prod (z - a_j)/(1 - conj(a_j) z)."""

    theta: float
    zeros: tuple

    def __init__(self, theta: float, zeros: Sequence[complex]):
        zs = tuple(complex(a) for a in zeros)
        theta = float(theta)
        if not math.isfinite(theta):
            raise ValueError(f"Blaschke phase {theta} must be finite")
        for a in zs:
            if not cmath.isfinite(a) or abs(a) >= 1.0:
                raise ValueError(f"Blaschke zero {a} must lie inside the unit disk")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "zeros", zs)

    @property
    def factor_count(self) -> int:
        return len(self.zeros)


def blaschke_map(b: BlaschkeProduct) -> RationalBallMap:
    """The product as a rational self-map of the unit disk (degree = factor count)."""
    if not b.zeros:
        raise ValueError("a proper disk map needs at least one factor")
    return _blaschke_maps(np.array([b.theta]), np.array([b.zeros], dtype=complex))[0][0]


def _blaschke_maps(thetas: np.ndarray, zeros: np.ndarray) -> list:
    """The blocks of the maps of the products with the (T,) phases and the
    (T, m) zeros, which are taken as valid, from one product of their
    factors."""
    centres = zeros[:, :, None]
    # q = prod (1 - conj(a) z), each factor 1 - <z, a> in one variable; its
    # conjugate rows read backwards are those of prod (z - a).
    support, q = _factor_rows(1, centres)
    p = np.exp(1j * thetas)[:, None] * q[:, ::-1].conj()
    rows = np.stack([p, q], axis=1)
    rows[np.abs(rows) <= COEFFICIENT_FLOOR] = 0.0
    return _store(1, support, rows, centres)


def winding_integral(m: RationalBallMap, nodes: int = 4096) -> complex:
    """Quadrature value of (1/2 pi i) * contour integral of f'/f over |z| = 1.

    Uses trapezoidal quadrature on the circle, which for the logarithmic
    derivative of a rational map without zeros or poles on the contour
    converges geometrically.
    """
    if m.n != 1 or m.N != 1:
        raise DimensionMismatchError("winding numbers are defined for disk self-maps")
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    zs = np.exp(1j * angles)[:, None]
    pv, qv = evaluate_rows(1, m.support, m.coefficients, zs).T
    if np.min(np.abs(pv)) == 0.0 or np.min(np.abs(qv)) == 0.0:
        raise ZeroDivisionError("map has a zero or pole on the unit circle")
    # p' and q': the rows times each exponent k, over z^(k-1).
    exps = np.array(m.support)
    dpv, dqv = evaluate_rows(1, np.maximum(exps - 1, 0), m.coefficients * exps[:, 0], zs).T
    return complex(np.mean(zs[:, 0] * (dpv / pv - dqv / qv)))


def winding_degree(m: RationalBallMap, nodes: int = 4096) -> int:
    """Nearest integer to the winding quadrature; rejects non-integral values."""
    value = winding_integral(m, nodes)
    nearest = round(value.real)
    residual = abs(value - nearest)
    if residual > 1e-3:
        raise NonIntegralWindingError(
            f"winding integral {value} is {residual:.2e} away from an integer")
    return int(nearest)


# ----------------------------------------------------------------- tensor steps
def _as_domain_map(phi, n: int) -> RationalBallMap:
    if phi is None:
        return RationalBallMap.identity(n)
    if isinstance(phi, BallAutomorphism):
        if phi.dim != n:
            raise DimensionMismatchError("automorphism dimension mismatch")
        return automorphism_map(phi)
    if isinstance(phi, RationalBallMap):
        if phi.n != n or phi.N != n:
            raise DimensionMismatchError("domain factor must be a self-map of the domain ball")
        return phi
    raise TypeError("phi must be None, a BallAutomorphism, or a RationalBallMap")


def subspace_basis(target_dim: int, columns) -> np.ndarray:
    """Normalize subspace input: index list or explicit vectors -> column matrix.
    Indices must lie in range(target_dim); a negative one does not wrap."""
    arr = np.asarray(columns)
    if (arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer)
            or isinstance(columns, list) and all(type(v) is int for v in columns)):
        indices = [int(v) for v in columns]
        if any(not 0 <= v < target_dim for v in indices):
            raise TensorSubspaceError(f"subspace indices {indices} out of range for "
                                      f"target dimension {target_dim}")
        basis = np.zeros((target_dim, len(indices)), dtype=complex)
        basis[indices, np.arange(len(indices))] = 1.0
        return basis
    basis = np.asarray(columns, dtype=complex)
    if basis.ndim == 1:
        basis = basis[:, None]
    return basis


def tensor_on_subspace(f: RationalBallMap, basis: np.ndarray,
                       phi=None) -> RationalBallMap:
    """Tensor the part of f in a target subspace with a domain self-map.

    With P the orthogonal projection onto the span of the (orthonormal) basis
    columns, the result represents (P f tensor phi) + (1 - P) f in orthonormal
    coordinates: first the tensor block, ordered by basis column then domain
    variable, then the complement coordinates.  Target dimension grows from N
    to N + d(n - 1); properness is preserved because on the sphere
    ||phi|| = 1 restores ||f||.  ``basis`` is read as by ``subspace_basis``.
    With ``phi=None`` the tensor block's coefficients of z^alpha move to
    z^alpha z_j, and nothing is multiplied.
    """
    step = WhitneyStep(subspace_basis(f.N, basis))
    return _apply_step(step, _Block.of(f), _Block.of(_as_domain_map(phi, f.n)))[0][0]


def _tensor_in_frame(fs: _Block, frame: np.ndarray, d: int, phis: _Block) -> list:
    """``tensor_on_subspace`` in a checked unitary frame whose first d
    columns are the subspace basis and whose rest is its complement.

    ``fs`` and ``phis`` are blocks of maps (see ``ballmaps._Block``), of
    domain self-maps for ``phis``; one of them is a block of one.  Member k
    of the result tensors map k of ``fs`` with the one domain factor, or the
    one map with factor k.  One product makes every row of every member, and
    the result is its blocks.  With the identity as the factor the product
    only moves coefficients, so they are moved instead: row (b, j) takes
    frame coordinate b's coefficient of z^alpha into column alpha + e_j.
    Each of the product's sums adds c * 1 and products with 0 from +0.0, so
    the two agree bit for bit once ``+ 0.0`` turns a -0.0 part into +0.0.
    """
    n = fs.n
    f_rows, f_centres = fs.rows, fs.centres
    phi_rows, phi_centres = phis.rows, phis.centres
    count = max(len(f_rows), len(phi_rows))

    # Coordinates of f in the frame (basis, complement): rows of frame^H @ f,
    # with the entries at or below the storage floor dropped.
    coords = frame.conj().T @ f_rows[:, :-1]
    coords[np.abs(coords) <= COEFFICIENT_FLOOR] = 0.0
    # Output row r is left row r times right row r: the tensor block, the
    # complement times phi's denominator, and the new denominator f.q * phi.q.
    left = np.concatenate([np.repeat(coords[:, :d], n, axis=1), coords[:, d:],
                           f_rows[:, -1:]], axis=1)
    size = left.shape[1]
    if _is_identity(phis):
        # The identity's row k, z_j for k = j < n and q = 1 for k = n, is 1
        # in its column k; right row r is its row right_row[r].
        support, column = _product_plan(n, fs.support, phis.support)
        out = np.arange(size)
        right_row = np.where(out < d * n, out % n, n)
        rows = np.zeros((count, size, len(support)), dtype=complex)
        rows[:, out[:, None], column.reshape(-1, n + 1).T[right_row]] = left
        rows += 0.0
        # The frame coordinates are floored; the q row is copied as stored.
        q = rows[:, -1]
        q[np.abs(q) <= COEFFICIENT_FLOOR] = 0.0
        return _store(n, support, rows, f_centres)
    right = np.concatenate([np.tile(phi_rows[:, :n], (1, d, 1)),
                            np.repeat(phi_rows[:, n:], fs.N - d + 1, axis=1)], axis=1)
    left = _repeat_to(left, count).reshape(count * size, -1)
    right = _repeat_to(right, count).reshape(count * size, -1)
    support, rows = multiply_rows(n, fs.support, left, phis.support, right)
    rows[np.abs(rows) <= COEFFICIENT_FLOOR] = 0.0
    centres = np.concatenate([_repeat_to(f_centres, count), _repeat_to(phi_centres, count)],
                             axis=1)
    return _store(n, support, rows.reshape(count, size, -1), centres)


def _is_identity(phis: _Block) -> bool:
    """Whether a block of domain factors is the identity map alone: rows
    eye(n + 1) over its support, and no factor centres."""
    identity = RationalBallMap.identity(phis.n)
    return (len(phis) == 1 and phis.centres.size == 0 and phis.support == identity.support
            and np.array_equal(phis.rows[0], identity.coefficients))


def _repeat_to(stack: np.ndarray, count: int) -> np.ndarray:
    """A stack of one or of ``count`` slices as a stack of ``count`` slices."""
    return stack if len(stack) == count else np.repeat(stack, count, axis=0)


def juxtapose(f: RationalBallMap, g: RationalBallMap, t: float) -> RationalBallMap:
    """The map sqrt(1 - t^2) f + t g into the direct sum of the two targets.

    Its squared norm is (1 - t^2) ||f||^2 + t^2 ||g||^2 exactly at the
    Hermitian-form level, so the juxtaposition is proper for every t in [0,1].
    """
    at = _juxtaposition_path(f, g)
    if not 0.0 <= t <= 1.0:
        raise ValueError("parameter must lie in [0, 1]")
    return at(np.array([t], dtype=float))[0][0]


def _juxtaposition_path(f: RationalBallMap, g: RationalBallMap):
    """ts -> the blocks of the juxtapositions at the parameters ts: the
    fixed rows (p_f q_g, p_g q_f) / (q_f q_g), from one product, scaled by
    sqrt(1 - t^2) and t in one stacked ``apply_linear`` product."""
    if f.n != g.n:
        raise DimensionMismatchError("juxtaposition requires a common domain")
    support, (fr, gr) = align_rows((f.support, f.coefficients), (g.support, g.coefficients))
    left = np.vstack([fr[:-1], gr[:-1], fr[-1:]])
    right = np.vstack([np.repeat(gr[-1:], f.N, axis=0), np.repeat(fr[-1:], g.N, axis=0),
                       gr[-1:]])
    product = multiply_rows(f.n, support, left, support, right)
    rows = _Block.of(RationalBallMap._from_rows(f.n, *product, np.vstack([f.factors, g.factors])))
    return lambda ts: _apply_linear_run(_diagonals(*[_root(ts)] * f.N, *[ts] * g.N), rows)


def _diagonals(*entries) -> np.ndarray:
    """(T, K, K): the diagonal matrices whose K entries are arrays over the
    (T,) parameters or scalars for all."""
    diagonal = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return diagonal[..., None] * np.eye(len(entries))


def _root(ts: np.ndarray, top: float = 1.0) -> np.ndarray:
    """sqrt(top - t^2), which is 0 where rounding makes it negative."""
    return np.sqrt(np.maximum(0.0, top - ts * ts))


# --------------------------------------------------------------- Whitney terms
@dataclass(frozen=True)
class WhitneyStep:
    """One extension step: tensor subspace basis, domain automorphism, injection.

    The basis and injection are read-only copies of the caller's arrays.
    ``frame`` is the unitary whose first d columns are the basis and whose
    rest is their ``gram_schmidt_complement``: the coordinates the step
    tensors in.  It is built, and the basis checked to be nonzero with
    orthonormal columns, once per step, when it is first read.
    ``injection_frame`` completes a checked injection to a unitary likewise.
    """

    basis: np.ndarray
    phi: Optional[BallAutomorphism] = None
    injection: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("basis", "injection"):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=complex)
                value.flags.writeable = False
                object.__setattr__(self, name, value)

    @cached_property
    def frame(self) -> np.ndarray:
        if self.basis.shape[1] == 0:
            raise TensorSubspaceError("tensor subspace must be nonzero")
        if not _linalg.has_orthonormal_columns(self.basis):
            raise TensorSubspaceError("subspace basis must have orthonormal columns")
        return _linalg.complete_unitary(self.basis)

    @cached_property
    def injection_frame(self) -> np.ndarray:
        return _linalg.complete_unitary(self.injection)


def _apply_step(step: WhitneyStep, fs: _Block, phis: _Block) -> list:
    """The blocks of the step on blocks of maps, as ``_tensor_in_frame``
    takes them: each member tensored in the step's frame, then taken
    through its injection block by block."""
    if step.basis.shape[0] != fs.N:
        raise DimensionMismatchError(
            f"basis rows {step.basis.shape[0]} do not match target dimension {fs.N}")
    return _inject(step.injection, _tensor_in_frame(fs, step.frame, step.basis.shape[1], phis))


def _inject(injection: Optional[np.ndarray], blocks: list) -> list:
    """The blocks taken through an injection, if any, block by block."""
    if injection is None:
        return blocks
    return [out for block in blocks for out in _apply_linear_run(injection, block)]


@dataclass(frozen=True)
class WhitneyTerm:
    """A term of an iterated tensor sequence, with its construction history.

    ``maps[k]`` is the k-th map of the sequence (``maps[0]`` is the starting
    automorphism), ``maps[-1]`` the current one.  The degree of the k-th map
    is at most k + 1, and every map in the chain is certified proper on
    construction.
    """

    start: BallAutomorphism
    steps: tuple
    maps: tuple

    @property
    def map(self) -> RationalBallMap:
        return self.maps[-1]

    @property
    def length(self) -> int:
        return len(self.steps)


def whitney_start(phi: BallAutomorphism, certify: bool = True) -> WhitneyTerm:
    m = automorphism_map(phi)
    if certify:
        _require_proper(m)
    return WhitneyTerm(phi, (), (m,))


def _require_proper(m: RationalBallMap):
    certificate = certify_proper(m)
    if certificate.verdict is not Verdict.PROPER:
        raise ArithmeticError(
            f"construction produced a non-proper map: {certificate.verdict.value}, "
            f"residual {certificate.residual_norm:.3e}")


def whitney_extend(term: WhitneyTerm, basis, phi: Optional[BallAutomorphism] = None,
                   injection: Optional[np.ndarray] = None,
                   certify: bool = True) -> WhitneyTerm:
    """Extend a Whitney term by one tensor step followed by an isometric injection.

    The new degree is at most (history length + 2); it fails to increase
    exactly when the tensored subspace misses all top-degree components.
    """
    current = term.map
    step = WhitneyStep(subspace_basis(current.N, basis), phi, injection)
    if step.injection is not None:
        if step.injection.shape[1] != current.N + step.basis.shape[1] * (current.n - 1):
            raise DimensionMismatchError("injection must accept the tensored target")
        if not _linalg.has_orthonormal_columns(step.injection):
            raise ValueError("injection must be norm-preserving (orthonormal columns)")
    new_map = _apply_step(step, _Block.of(current),
                          _Block.of(_as_domain_map(phi, current.n)))[0][0]
    if certify:
        _require_proper(new_map)
    expected = term.length + 2
    if new_map.degree > expected:
        raise ArithmeticError(
            f"degree {new_map.degree} exceeds the bound {expected} for a Whitney term")
    return WhitneyTerm(term.start, term.steps + (step,), term.maps + (new_map,))


def random_ball_automorphism(n: int, rng: np.random.Generator,
                             max_center_norm: float = 0.5) -> BallAutomorphism:
    direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    radius = max_center_norm * rng.random()
    return BallAutomorphism(radius * direction, _linalg.random_unitary(n, rng))


def random_blaschke_product(rng: np.random.Generator, max_factors: int = 6,
                            min_factors: int = 1,
                            radius_range: tuple = (0.05, 0.85)) -> BlaschkeProduct:
    count = int(rng.integers(min_factors, max_factors + 1))
    lo, hi = radius_range
    zeros = []
    for _ in range(count):
        r = lo + (hi - lo) * rng.random()
        angle = 2.0 * np.pi * rng.random()
        zeros.append(r * np.exp(1j * angle))
    return BlaschkeProduct(2.0 * np.pi * rng.random(), zeros)

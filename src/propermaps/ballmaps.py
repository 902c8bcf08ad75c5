"""Rational maps between unit balls: data type, properness certificate, invariants.

A map is stored as a numerator vector of polynomials together with a scalar
denominator normalized so q(0) = 1.  Properness of p/q as a map from the unit
ball of C^n to the unit ball of C^N is certified exactly at the coefficient
level: the Hermitian form of ||p||^2 - |q|^2 is reduced modulo the sphere
relation, and the map is proper precisely when the remainder vanishes and the
map is nonconstant.

A map may also carry the centres a_k of its denominator factors, with
q = prod_k (1 - <z, a_k>).  The constructors set them and the linear
operations keep them, so that the denominator is certified from its factors
instead of by sampling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from .polyalg import (DEFAULT_TOL, HermitianForm, MultiIndex, Polynomial,
                      coefficient_matrix, gram_form, monomials_of_degree,
                      polynomials_from_rows, properness_form, reduce_mod_sphere,
                      squared_norm_form)

#: Fixed default seed for all pseudo-random sampling (reproducible runs).
DEFAULT_SEED = 7

#: Lower bound of |q| on the closed ball below which the denominator counts
#: as vanishing there.
DENOMINATOR_FLOOR = 1e-6

DENOMINATOR_SAMPLES = 10_000
WITNESS_SAMPLES = 500


class DimensionMismatchError(ValueError):
    """Operands live over different domain or target dimensions."""


class NormalizationError(ValueError):
    """The denominator does not satisfy q(0) = 1."""


class DenominatorVanishesError(ArithmeticError):
    """The denominator has a zero, or a modulus below the floor, on the closed ball."""


class Verdict(enum.Enum):
    PROPER = "proper"
    NOT_PROPER = "not-proper"
    CONSTANT_ON_SPHERE = "constant-on-sphere"


class RationalBallMap:
    """Rational map p/q from the unit ball of C^n toward C^N.

    Invariants enforced at construction: all components share the domain
    variable count, and q(0) = 1.  Nonvanishing of q on the closed ball is
    checked during certification, not here.  ``factors`` is a (K, n) array of
    the centres a_k of q = prod_k (1 - <z, a_k>), empty when they are unknown;
    certification uses them only after checking that they multiply out to q.
    """

    __slots__ = ("n", "N", "p", "q", "factors")

    def __init__(self, domain_dim: int, target_dim: int,
                 numerator: Sequence[Polynomial], denominator: Polynomial | None = None,
                 tol: float = DEFAULT_TOL, *, factors=()):
        numerator = tuple(numerator)
        if target_dim != len(numerator):
            raise DimensionMismatchError(
                f"target_dim={target_dim} but {len(numerator)} components given")
        if target_dim < 1:
            raise DimensionMismatchError("target dimension must be positive")
        for comp in numerator:
            if comp.nvars != domain_dim:
                raise DimensionMismatchError("component variable count mismatch")
        if denominator is None:
            denominator = Polynomial.one(domain_dim)
        if denominator.nvars != domain_dim:
            raise DimensionMismatchError("denominator variable count mismatch")
        if abs(denominator.constant_term() - 1.0) > tol:
            raise NormalizationError(
                f"denominator must satisfy q(0)=1, got q(0)={denominator.constant_term()}")
        centres = np.array(factors, dtype=complex)
        if centres.size == 0:
            centres = np.zeros((0, domain_dim), dtype=complex)
        elif centres.ndim != 2 or centres.shape[1] != domain_dim:
            raise DimensionMismatchError("denominator factor centres need one entry "
                                         "per domain variable")
        if not np.all(np.isfinite(centres)):
            raise ValueError("denominator factor centres must be finite")
        centres.flags.writeable = False
        object.__setattr__(self, "n", domain_dim)
        object.__setattr__(self, "N", target_dim)
        object.__setattr__(self, "p", numerator)
        object.__setattr__(self, "q", denominator)
        object.__setattr__(self, "factors", centres)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalBallMap is immutable")

    # ------------------------------------------------------------------ build
    @classmethod
    def identity(cls, n: int) -> "RationalBallMap":
        return cls(n, n, [Polynomial.variable(n, j) for j in range(n)])

    @classmethod
    def constant(cls, values: Sequence[complex], domain_dim: int) -> "RationalBallMap":
        comps = [Polynomial.constant(domain_dim, v) for v in values]
        return cls(domain_dim, len(comps), comps)

    @classmethod
    def from_components(cls, components: Sequence[Polynomial],
                        denominator: Polynomial | None = None) -> "RationalBallMap":
        components = list(components)
        if not components:
            raise DimensionMismatchError("need at least one component")
        return cls(components[0].nvars, len(components), components, denominator)

    # ---------------------------------------------------------------- queries
    @property
    def degree(self):
        """Numerator degree: max total degree over terms above tolerance."""
        return max((comp.degree for comp in self.p), default=float("-inf"))

    @property
    def has_trivial_denominator(self) -> bool:
        return self.q.is_constant

    @property
    def is_monomial_map(self) -> bool:
        """True when q = 1 and every component is a single term (or zero)."""
        return (self.has_trivial_denominator
                and all(len(c.significant_terms()) <= 1 for c in self.p))

    def is_constant_map(self, tol: float = DEFAULT_TOL) -> bool:
        """True when p/q is a constant map, i.e. p_i = p_i(0) * q for all i."""
        for comp in self.p:
            residue = comp - comp.constant_term() * self.q
            if residue.max_abs_coeff() > tol:
                return False
        return True

    # -------------------------------------------------------------- evaluation
    def evaluate(self, point: Sequence[complex]) -> np.ndarray:
        qv = self.q(point)
        if qv == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return np.array([comp(point) for comp in self.p], dtype=complex) / qv

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        qv = self.q.evaluate_many(pts)
        num = np.stack([comp.evaluate_many(pts) for comp in self.p], axis=1)
        return num / qv[:, None]

    # ------------------------------------------------------------------ forms
    def squared_norm_form(self) -> HermitianForm:
        """Hermitian form of ||p||^2 (numerator only)."""
        return squared_norm_form(self.p)

    def properness_form(self) -> HermitianForm:
        return properness_form(self.p, self.q)

    # ------------------------------------------------------------- conversions
    def padded(self, target_dim: int) -> "RationalBallMap":
        """The map followed by the injection that appends zero components."""
        if target_dim < self.N:
            raise DimensionMismatchError("cannot pad to a smaller target")
        if target_dim == self.N:
            return self
        comps = list(self.p) + [Polynomial.zero(self.n)] * (target_dim - self.N)
        return RationalBallMap(self.n, target_dim, comps, self.q, factors=self.factors)

    def scaled(self, factor: complex) -> "RationalBallMap":
        return RationalBallMap(self.n, self.N, [comp * factor for comp in self.p], self.q,
                               factors=self.factors)

    def distance(self, other: "RationalBallMap") -> float:
        """Largest coefficient difference of p and q after padding to a common target."""
        if self.n != other.n:
            raise DimensionMismatchError("maps must share the domain dimension")
        big = max(self.N, other.N)
        a, b = self.padded(big), other.padded(big)
        return max([a.q.distance(b.q)] + [x.distance(y) for x, y in zip(a.p, b.p)])

    def allclose(self, other: "RationalBallMap", tol: float = DEFAULT_TOL) -> bool:
        return self.n == other.n and self.distance(other) <= tol

    def __repr__(self):
        return (f"RationalBallMap(B{self.n} -> B{self.N}, degree={self.degree}, "
                f"q_degree={self.q.degree})")


@dataclass(frozen=True)
class PropernessCertificate:
    """Outcome of exact properness certification plus a sampled witness.

    ``residual_norm`` is the largest remainder entry of the reduced Hermitian
    form (zero means ||p||^2 = |q|^2 identically on the sphere), and
    ``worst_entry`` its monomial pair (alpha, beta), the first largest in the
    row-major order of the remainder matrix; None when the remainder is empty.
    ``denominator_method`` says how q was shown not to vanish on the closed
    ball (``trivial``, ``factored``, ``coefficient-bound`` or ``sampled``) and
    ``denominator_margin`` is the lower bound of |q| there that the method
    gave (for ``sampled``, the smallest sampled modulus).  ``witness`` is the
    sampled sphere point where | ||f||^2 - 1 | was largest, with that value in
    ``witness_value``; both are None when no witness was sampled.
    """

    verdict: Verdict
    residual_norm: float
    worst_entry: Optional[tuple]
    denominator_method: str
    denominator_margin: float
    witness: Optional[np.ndarray] = None
    witness_value: Optional[float] = None

    @property
    def is_proper(self) -> bool:
        return self.verdict is Verdict.PROPER


def sphere_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Pseudo-random points on the unit sphere of C^n."""
    g = rng.standard_normal((count, 2 * n))
    z = g[:, :n] + 1j * g[:, n:]
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    return z / norms[:, None]


def ball_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Pseudo-random points of the closed unit ball of C^n (radius-uniform)."""
    directions = sphere_points(n, count, rng)
    radii = rng.random(count) ** (1.0 / (2 * n))
    return directions * radii[:, None]


def denominator_from_factors(n: int, factors) -> Polynomial:
    """The denominator prod_k (1 - <z, a_k>) for the rows a_k of ``factors``."""
    centres = np.asarray(factors, dtype=complex).reshape(-1, n)
    monos = [(0,) * n] + monomials_of_degree(n, 1)
    rows = np.hstack([np.ones((len(centres), 1)), -centres.conj()])
    out = Polynomial.one(n)
    for factor in polynomials_from_rows(n, monos, rows):
        out = out * factor
    return out


def _factored_margin(m: RationalBallMap, factors: np.ndarray, floor: float):
    """Lower bound of |q| on the closed ball from factor centres, or None when
    there are none, they do not multiply out to q, or an inexact bound is low."""
    if not len(factors):
        return None
    _, mat = coefficient_matrix([m.q, denominator_from_factors(m.n, factors)])
    gap = np.abs(mat[0] - mat[1])
    if gap.max() > DEFAULT_TOL * np.abs(mat[0]).max():
        return None
    # On the closed ball |1 - <z, a>| >= 1 - ||a||, with equality at
    # z = a / ||a||.  The product of these minima, less the coefficient
    # gap to q, bounds |q| from below; for one nonconstant factor it is
    # the exact minimum, so falling back to sampling could only miss it.
    lows = 1.0 - np.linalg.norm(factors, axis=1)
    margin = float(np.prod(lows) - gap.sum())
    exact = np.count_nonzero(lows < 1.0) == 1
    if lows.min() <= 0.0 or (exact and margin < floor):
        raise DenominatorVanishesError(
            f"denominator factor 1 - <z, a> has modulus {max(lows.min(), 0.0):.3e}"
            f" on the closed ball, below {floor:.1e}")
    return margin if margin >= floor else None


def _check_denominator(m: RationalBallMap, floor: float, seed: int) -> tuple:
    """(method, margin): how q was shown to stay above ``floor`` on the closed ball.

    Tries, in order: a constant q; the carried factors, or q's own when it
    has degree one, used only when they multiply out to q; the coefficient
    bound 1 - sum_{alpha != 0} |q_alpha|; q's own factor when the carried
    ones did not match; and, as a last resort, the smallest |q| over seeded
    sample points of the ball and the sphere.  Raises
    DenominatorVanishesError when a factor vanishes on the closed ball, when
    the exact minimum of a single factor is below the floor, or when a
    sampled modulus is.
    """
    if m.has_trivial_denominator:
        return "trivial", abs(m.q.constant_term())
    own = m.factors[:0]
    if m.q.degree == 1:
        # q = 1 + sum c_j z_j = 1 - <z, a> with a_j = -conj(c_j).
        linear = [m.q.terms.get(alpha, 0.0) for alpha in monomials_of_degree(m.n, 1)]
        own = -np.conj(np.array([linear], dtype=complex))
    margin = _factored_margin(m, m.factors if len(m.factors) else own, floor)
    if margin is not None:
        return "factored", margin
    zero = (0,) * m.n
    margin = abs(m.q.constant_term()) - sum(abs(c) for alpha, c in m.q.terms.items()
                                            if alpha != zero)
    if margin >= floor:
        return "coefficient-bound", margin
    # Wrong carried factors must not leave a degree-one q to sampling, which
    # misses its zero on the sphere; its own factor decides it exactly.
    margin = _factored_margin(m, own, floor)
    if margin is not None:
        return "factored", margin
    rng = np.random.default_rng(seed)
    half = DENOMINATOR_SAMPLES // 2
    pts = np.vstack([ball_points(m.n, half, rng),
                     sphere_points(m.n, DENOMINATOR_SAMPLES - half, rng)])
    vals = np.abs(m.q.evaluate_many(pts))
    minimum = float(vals.min())
    if minimum < floor:
        raise DenominatorVanishesError(
            f"denominator modulus {minimum:.3e} below {floor:.1e} on the closed ball")
    return "sampled", minimum


def certify_proper(m: RationalBallMap, tol: float = DEFAULT_TOL,
                   seed: int = DEFAULT_SEED,
                   denominator_floor: float = DENOMINATOR_FLOOR,
                   witness_samples: int = WITNESS_SAMPLES) -> PropernessCertificate:
    """Certify whether p/q is a proper map between unit balls.

    The verdict is PROPER exactly when the sphere-reduced remainder of
    ||p||^2 - |q|^2 vanishes within tolerance and the map is nonconstant;
    CONSTANT_ON_SPHERE covers the boundary case where the norms agree but
    p/q is constant.  Raises DenominatorVanishesError when q cannot be kept
    above the floor on the closed ball (see ``_check_denominator``).  The
    witness never affects the verdict; ``witness_samples=0`` skips it.
    """
    method, margin = _check_denominator(m, denominator_floor, seed)

    remainder = reduce_mod_sphere(m.properness_form())
    residual = remainder.max_abs_entry()
    largest = remainder.largest_entry()
    worst = None if largest is None else largest[:2]

    witness = None
    witness_value = None
    if witness_samples > 0:
        pts = sphere_points(m.n, witness_samples, np.random.default_rng(seed))
        values = np.abs(np.sum(np.abs(m.evaluate_many(pts)) ** 2, axis=1) - 1.0)
        k = int(np.argmax(values))
        witness = pts[k]
        witness_value = float(values[k])

    if residual <= tol:
        verdict = Verdict.CONSTANT_ON_SPHERE if m.is_constant_map(tol) else Verdict.PROPER
    else:
        verdict = Verdict.NOT_PROPER
    if verdict is Verdict.PROPER and m.N < m.n:
        # A proper map cannot decrease the dimension; reaching this means the
        # certificate itself is inconsistent.
        raise ArithmeticError("certified a proper map with target below domain")
    return PropernessCertificate(verdict, residual, worst, method, margin, witness,
                                 witness_value)


def degree(m: RationalBallMap) -> int:
    """Degree of a proper rational map: the degree of its numerator."""
    d = m.degree
    if d == float("-inf"):
        return 0
    return int(d)


def embedding_dimension(m: RationalBallMap, rtol: float = _linalg.RANK_RTOL) -> int:
    """Number of linearly independent components (rank of the coefficient rows)."""
    _, mat = coefficient_matrix(m.p)
    return _linalg.numerical_rank(mat, rtol=rtol)


@dataclass(frozen=True)
class NormEquivalence:
    """Result of the squared-norm comparison of two maps.

    On equivalence ``unitary`` maps the first map's components onto the
    second's (after zero-padding to the common target), with the reported
    max coefficient residual.  On failure ``mismatch`` holds a distinguishing
    Hermitian-form entry (alpha, beta, difference).
    """

    equivalent: bool
    unitary: Optional[np.ndarray] = None
    witness_residual: Optional[float] = None
    mismatch: Optional[tuple] = None


def norm_equivalent(f: RationalBallMap, g: RationalBallMap,
                    tol: float = DEFAULT_TOL) -> NormEquivalence:
    """Decide ||f||^2 == ||g||^2, producing a unitary witness or a mismatch.

    Targets are first padded to a common dimension by appending zeros.  When
    the denominators differ, the numerators are cross-multiplied, p_f q_g
    against p_g q_f.  One coefficient stack of both sides gives the signed
    Gram matrix of ||left||^2 - ||right||^2, whose first largest entry in
    row-major order is the mismatch when it exceeds ``tol``.  Otherwise the
    witness is computed by least squares over unitaries on the same stack
    (orthogonal Procrustes), so it is always unitary, including for
    rank-deficient stacks such as f vs f + zero components.
    """
    if f.n != g.n:
        raise DimensionMismatchError("maps must share the domain dimension")
    big = max(f.N, g.N)
    fp, gp = f.padded(big), g.padded(big)
    if f.q.allclose(g.q, tol):
        left, right = list(fp.p), list(gp.p)
    else:
        left, right = [comp * g.q for comp in fp.p], [comp * f.q for comp in gp.p]
    monos, stack = coefficient_matrix(left + right)
    largest = gram_form(f.n, monos, stack, negated=big).largest_entry()
    if largest is not None and abs(largest[2]) > tol:
        return NormEquivalence(False, mismatch=largest)

    stack_f, stack_g = stack[:big], stack[big:]
    unitary = _linalg.procrustes_unitary(stack_f, stack_g)
    residual = float(np.max(np.abs(unitary @ stack_f - stack_g))) if monos else 0.0
    return NormEquivalence(True, unitary=unitary, witness_residual=residual)


def degree_bound(n: int, N: int) -> Fraction:
    """Upper bound N(N-1) / (2(2n-3)) for the degree of a proper map."""
    if n < 2:
        raise ValueError("the degree bound requires domain dimension n >= 2")
    return Fraction(N * (N - 1), 2 * (2 * n - 3))


def largest_binomial_coefficient(d: int) -> int:
    """max_k binomial(d, k), the one-variable denominator coefficient bound."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return math.comb(d, d // 2)


def denominator_sup_bound(d: int) -> float:
    """Bound for |q| on the ball: (d+1) times the largest binomial coefficient."""
    return float((d + 1) * largest_binomial_coefficient(d))


def coefficient_bound(n: int, d: int) -> float:
    """Explicit coefficient bound for normalized degree-d proper maps on B_n.

    Chain: one-variable factorization bounds the coefficients of q by the
    largest binomial coefficient; the homogeneous expansion gives
    |q| <= (d+1) B(1,d) on the ball, and ||p|| = |q| on the sphere; Cauchy
    estimates on the polydisc of radius 1/(2 sqrt(n)) inside the ball then
    bound every coefficient by the sup times (2 sqrt(n))^d.
    """
    if n < 1:
        raise ValueError("domain dimension must be positive")
    if d < 0:
        raise ValueError("degree must be non-negative")
    return denominator_sup_bound(d) * (2.0 * math.sqrt(n)) ** d


def apply_linear(matrix: np.ndarray, m: RationalBallMap) -> RationalBallMap:
    """Compose with a linear map on the target: rows of ``matrix`` give components."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[1] != m.N:
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not accept target dimension {m.N}")
    monos, coeffs = coefficient_matrix(m.p)
    comps = polynomials_from_rows(m.n, monos, mat @ coeffs)
    return RationalBallMap(m.n, mat.shape[0], comps, m.q, factors=m.factors)


def compose(outer: RationalBallMap, inner: RationalBallMap) -> RationalBallMap:
    """Composition outer(inner(z)) as a rational map, renormalized to q(0) = 1.

    Substitution clears denominators by homogenizing with powers of the inner
    denominator, so the result is exact at the coefficient level.  When the
    outer denominator is trivial the result's denominator is the inner one to
    the power ``top``, so it keeps the inner factors, each repeated that often.
    """
    if inner.N != outer.n:
        raise DimensionMismatchError(
            f"cannot compose B{inner.n}->B{inner.N} with B{outer.n}->B{outer.N}")
    deg_terms = [outer.q.degree] + [comp.degree for comp in outer.p]
    top = max(int(d) for d in deg_terms if d != float("-inf"))

    power_cache: dict[MultiIndex, Polynomial] = {}

    def monomial_in_inner(alpha: MultiIndex) -> Polynomial:
        cached = power_cache.get(alpha)
        if cached is not None:
            return cached
        acc = Polynomial.one(inner.n)
        for j, e in enumerate(alpha):
            for _ in range(e):
                acc = acc * inner.p[j]
        power_cache[alpha] = acc
        return acc

    q_pows = [Polynomial.one(inner.n)]
    for _ in range(top):
        q_pows.append(q_pows[-1] * inner.q)

    def substituted(poly: Polynomial) -> Polynomial:
        acc = Polynomial.zero(inner.n)
        for alpha, c in poly.terms.items():
            acc = acc + monomial_in_inner(alpha) * q_pows[top - sum(alpha)] * c
        return acc

    new_p = [substituted(comp) for comp in outer.p]
    new_q = substituted(outer.q)
    c0 = new_q.constant_term()
    if abs(c0) <= DEFAULT_TOL:
        raise DenominatorVanishesError("composed denominator vanishes at the origin")
    scale = 1.0 / c0
    factors = np.tile(inner.factors, (top, 1)) if outer.has_trivial_denominator else ()
    return RationalBallMap(inner.n, outer.N, [comp * scale for comp in new_p],
                           new_q * scale, factors=factors)

"""Rational maps between unit balls: data type, properness certificate, invariants.

A map p/q is stored as its coefficient rows over one monomial support, with
the denominator normalized so q(0) = 1.  Properness of p/q as a map from the
unit ball of C^n to the unit ball of C^N is certified exactly at the
coefficient level: the Hermitian form of ||p||^2 - |q|^2 is reduced modulo
the sphere relation, and the map is proper precisely when the remainder
vanishes and the map is nonconstant.

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
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from .polyalg import (COEFFICIENT_FLOOR, DEFAULT_TOL, ZERO_DEGREE, HermitianForm,
                      Polynomial, align_rows, canonical_rows, coefficient_matrix,
                      evaluate_rows, gram_form, monomials_of_degree,
                      multiply_rows, polynomials_from_rows, reduce_mod_sphere,
                      squared_norm_form)  # noqa: F401 - re-exported

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


def _top_degree(support, rows):
    """Largest total degree of a column with an entry above DEFAULT_TOL; -inf if none."""
    live = (np.abs(rows) > DEFAULT_TOL).any(axis=0).tolist()
    return max((sum(a) for a, keep in zip(support, live) if keep), default=ZERO_DEGREE)


class RationalBallMap:
    """Rational map p/q from the unit ball of C^n toward C^N.

    The map is its coefficient rows: ``coefficients`` is a read-only
    (N+1) x M complex array of the rows p_1, ..., p_N, q over ``support``, a
    descending tuple of multi-indices.  Entries at or below the storage floor
    are zero and every column has an entry above it; as q(0) = 1, the last
    column is the constant monomial.  ``p`` and ``q`` are Polynomial views,
    built on each access.  The constructor checks that all components share
    the domain variable count and that q(0) = 1; nonvanishing of q on the
    closed ball is checked during certification.  ``factors`` is a (K, n)
    array of the centres a_k of q = prod_k (1 - <z, a_k>), empty when they are
    unknown; certification uses them only after checking that they multiply
    out to q.
    """

    __slots__ = ("n", "N", "support", "coefficients", "factors")

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
        self._store(domain_dim, *coefficient_matrix([*numerator, denominator]), factors)

    def _store(self, n: int, support, rows, factors):
        centres = np.array(factors, dtype=complex)
        if centres.size == 0:
            centres = np.zeros((0, n), dtype=complex)
        elif centres.ndim != 2 or centres.shape[1] != n:
            raise DimensionMismatchError("denominator factor centres need one entry "
                                         "per domain variable")
        if not np.all(np.isfinite(centres)):
            raise ValueError("denominator factor centres must be finite")
        support, rows = canonical_rows(support, rows)
        centres.flags.writeable = rows.flags.writeable = False
        for name, value in zip(self.__slots__, (n, len(rows) - 1, support, rows, centres)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _from_rows(cls, n: int, support, rows, factors=()) -> "RationalBallMap":
        """The map with rows p_1, ..., p_N, q over ``support``; q(0) = 1 unchecked."""
        return object.__new__(cls)._store(n, support, rows, factors)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalBallMap is immutable")

    # ------------------------------------------------------------------ build
    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, n: int) -> "RationalBallMap":
        return cls._from_rows(n, monomials_of_degree(n, 1) + [(0,) * n], np.eye(n + 1))

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
    def p(self) -> tuple:
        return tuple(polynomials_from_rows(self.n, self.support, self.coefficients[:-1]))

    @property
    def q(self) -> Polynomial:
        return polynomials_from_rows(self.n, self.support, self.coefficients[-1:])[0]

    @property
    def degree(self):
        """Numerator degree: max total degree over terms above tolerance."""
        return _top_degree(self.support, self.coefficients[:-1])

    @property
    def has_trivial_denominator(self) -> bool:
        return _top_degree(self.support, self.coefficients[-1:]) <= 0

    @property
    def is_monomial_map(self) -> bool:
        """True when q = 1 and every component is a single term (or zero)."""
        terms = np.count_nonzero(np.abs(self.coefficients[:-1]) > DEFAULT_TOL, axis=1)
        return self.has_trivial_denominator and bool(np.all(terms <= 1))

    def is_constant_map(self, tol: float = DEFAULT_TOL) -> bool:
        """True when p/q is a constant map, i.e. p_i = p_i(0) * q for all i."""
        rows = self.coefficients
        return not np.any(np.abs(rows[:-1] - rows[:-1, -1:] * rows[-1]) > tol)

    # -------------------------------------------------------------- evaluation
    def evaluate(self, point: Sequence[complex]) -> np.ndarray:
        values = evaluate_rows(self.n, self.support, self.coefficients, [point])[0]
        if values[-1] == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return values[:-1] / values[-1]

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        values = evaluate_rows(self.n, self.support, self.coefficients, points)
        return values[:, :-1] / values[:, -1:]

    # ------------------------------------------------------------------ forms
    def squared_norm_form(self) -> HermitianForm:
        """Hermitian form of ||p||^2 (numerator only)."""
        return gram_form(self.n, *canonical_rows(self.support, self.coefficients[:-1]))

    def properness_form(self) -> HermitianForm:
        """Hermitian form of ||p||^2 - |q|^2: the signed Gram of the rows."""
        return gram_form(self.n, self.support, self.coefficients, negated=1)

    # ------------------------------------------------------------- conversions
    def padded(self, target_dim: int) -> "RationalBallMap":
        """The map followed by the injection that appends zero components."""
        if target_dim < self.N:
            raise DimensionMismatchError("cannot pad to a smaller target")
        if target_dim == self.N:
            return self
        rows = np.insert(self.coefficients, [self.N] * (target_dim - self.N), 0.0, axis=0)
        return RationalBallMap._from_rows(self.n, self.support, rows, self.factors)

    def scaled(self, factor: complex) -> "RationalBallMap":
        rows = self.coefficients * np.append(np.full(self.N, factor), 1.0)[:, None]
        return RationalBallMap._from_rows(self.n, self.support, rows, self.factors)

    def distance(self, other: "RationalBallMap") -> float:
        """Largest coefficient difference of p and q after padding to a common target."""
        if self.n != other.n:
            raise DimensionMismatchError("maps must share the domain dimension")
        big = max(self.N, other.N)
        a, b = self.padded(big), other.padded(big)
        _, (x, y) = align_rows((a.support, a.coefficients), (b.support, b.coefficients))
        gap = x - y  # hypot is the modulus that Python's abs of a complex takes
        return float(np.hypot(gap.real, gap.imag).max())

    def allclose(self, other: "RationalBallMap", tol: float = DEFAULT_TOL) -> bool:
        return self.n == other.n and self.distance(other) <= tol

    def __repr__(self):
        return (f"RationalBallMap(B{self.n} -> B{self.N}, degree={self.degree}, "
                f"q_degree={_top_degree(self.support, self.coefficients[-1:])})")


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


def _factor_rows(n: int, factors):
    """(support, row) of prod_k (1 - <z, a_k>) for the rows a_k of ``factors``."""
    centres = np.asarray(factors, dtype=complex).reshape(-1, n)
    linear = [(0,) * n] + monomials_of_degree(n, 1)
    monos, row = [(0,) * n], np.ones((1, 1), dtype=complex)
    for centre in centres:
        monos, row = multiply_rows(n, monos, row, linear,
                                   np.hstack([1.0, -centre.conj()])[None, :])
        row[np.abs(row) <= COEFFICIENT_FLOOR] = 0.0
    return canonical_rows(monos, row)


def denominator_from_factors(n: int, factors) -> Polynomial:
    """The denominator prod_k (1 - <z, a_k>) for the rows a_k of ``factors``."""
    return polynomials_from_rows(n, *_factor_rows(n, factors))[0]


def _factored_margin(n: int, q, factors: np.ndarray, floor: float):
    """Lower bound of |q| on the closed ball from factor centres, or None when
    there are none, they do not multiply out to q (its (support, row) block),
    or an inexact bound is low."""
    if not len(factors):
        return None
    _, (own, product) = align_rows(q, _factor_rows(n, factors))
    gap = np.abs(own[0] - product[0])
    if gap.max() > DEFAULT_TOL * np.abs(own[0]).max():
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
        return "trivial", float(abs(m.coefficients[-1, -1]))
    q = canonical_rows(m.support, m.coefficients[-1:])
    row = q[1][0]
    own = m.factors[:0]
    if _top_degree(*q) == 1:
        # q = 1 + sum c_j z_j = 1 - <z, a> with a_j = -conj(c_j).
        terms = dict(zip(q[0], row))
        own = -np.conj([[terms.get(alpha, 0.0) for alpha in monomials_of_degree(m.n, 1)]])
    margin = _factored_margin(m.n, q, m.factors if len(m.factors) else own, floor)
    if margin is not None:
        return "factored", margin
    # The last column of q's support is its constant term.
    margin = float(abs(row[-1]) - np.abs(row[:-1]).sum())
    if margin >= floor:
        return "coefficient-bound", margin
    # Wrong carried factors must not leave a degree-one q to sampling, which
    # misses its zero on the sphere; its own factor decides it exactly.
    margin = _factored_margin(m.n, q, own, floor)
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
    rows = m.coefficients[:-1]
    return _linalg.numerical_rank(rows[:, rows.any(axis=0)], rtol=rtol)


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
    _, (fq, gq) = align_rows((f.support, f.coefficients[-1:]),
                             (g.support, g.coefficients[-1:]))
    if np.abs(fq - gq).max() <= tol:
        left, right = (fp.support, fp.coefficients[:-1]), (gp.support, gp.coefficients[:-1])
    else:
        left = multiply_rows(f.n, fp.support, fp.coefficients[:-1],
                             g.support, np.repeat(g.coefficients[-1:], big, axis=0))
        right = multiply_rows(f.n, gp.support, gp.coefficients[:-1],
                              f.support, np.repeat(f.coefficients[-1:], big, axis=0))
    monos, (a, b) = align_rows(left, right)
    monos, stack = canonical_rows(monos, np.vstack([a, b]))
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
    rows = np.zeros((len(mat) + 1, len(m.support)), dtype=complex)
    # Only the columns where p has an entry; the others stay zero.
    live = m.coefficients[:-1].any(axis=0)
    rows[:-1, live] = mat @ m.coefficients[:-1, live]
    rows[-1] = m.coefficients[-1]
    return RationalBallMap._from_rows(m.n, m.support, rows, m.factors)


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
    n = inner.n
    top = int(_top_degree(outer.support, outer.coefficients))
    one = ((0,) * n,), np.ones((1, 1), dtype=complex)

    def times(left, right):
        """Product of two one-row blocks, floor-dropped as in arithmetic."""
        return canonical_rows(*multiply_rows(n, *left, *right))

    # inner^alpha is the product of its prefix, alpha less one unit of its
    # last nonzero variable, and that variable's component.
    powers = {(0,) * outer.n: one}

    def power(alpha):
        if alpha not in powers:
            k = max(j for j, e in enumerate(alpha) if e)
            prefix = power(alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:])
            powers[alpha] = times(prefix, (inner.support, inner.coefficients[k:k + 1]))
        return powers[alpha]

    q_pows = [one]
    for _ in range(top):
        q_pows.append(times(q_pows[-1], (inner.support, inner.coefficients[-1:])))
    # Row alpha of the substitution is inner^alpha q^(top - |alpha|), so one
    # matrix product substitutes every outer row at once.
    support, blocks = align_rows(*[times(power(alpha), q_pows[top - sum(alpha)])
                                   for alpha in outer.support])
    rows = outer.coefficients @ np.vstack(blocks)
    c0 = rows[-1, -1] if not any(support[-1]) else 0.0
    if abs(c0) <= DEFAULT_TOL:
        raise DenominatorVanishesError("composed denominator vanishes at the origin")
    factors = np.tile(inner.factors, (top, 1)) if outer.has_trivial_denominator else ()
    return RationalBallMap._from_rows(n, support, rows * (1.0 / c0), factors)

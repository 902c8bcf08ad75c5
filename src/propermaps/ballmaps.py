"""Rational maps between unit balls: data type, properness certificate, invariants.

A map p/q is stored as its coefficient rows over one monomial support, with
the denominator normalized so q(0) = 1.  Properness of p/q as a map from the
unit ball of C^n to the unit ball of C^N is certified exactly at the
coefficient level: the map is proper precisely when every Bernstein
coefficient of the Hermitian form of ||p||^2 - |q|^2 on the sphere vanishes
and the map is nonconstant.

A map may also carry the centres a_k of its denominator factors, with
q = prod_k (1 - <z, a_k>).  The constructors set them and the linear
operations keep them, so that the denominator is certified from its factors
instead of by sampling.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import _linalg
from .bounds import COEFFICIENT_FLOOR, DEFAULT_SEED, DEFAULT_TOL, DENOMINATOR_FLOOR
from .polyalg import (Polynomial, align_rows, canonical_rows, coefficient_matrix,
                      evaluate_rows, monomials_of_degree, multinomial, _mask_groups,
                      multiply_rows, normalized_gram_difference, polynomials_from_rows,
                      radial_residuals, signed_gram, sphere_residuals, sphere_scales)

DENOMINATOR_SAMPLES = 10_000
WITNESS_SAMPLES = 500

#: Gram entries, T maps times M^2 for their common support of M monomials,
#: that one certification block may hold (256 kB of Gram matrices).  Memory
#: is why there is a bound: the Gram stack, its moduli and the gathered
#: reduction terms all grow with the block.  Over three family-grid passes
#: (2-vCPU x86-64, numpy 2.4) the peak RSS was 40.2 MB certifying map by
#: map, 47.3 MB (+18%) with each run of same-support members as one block,
#: 41.7 MB (+4%) with blocks of 2^14 entries, which were also the fastest,
#: and 40.6 MB with 2^12, whose pass took 14% longer.  A map whose own Gram
#: is larger is a block of one.
BLOCK_ENTRIES = 2 ** 14

#: Degree reported for the zero polynomial.
ZERO_DEGREE = float("-inf")


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


# A family-grid pass reads the degrees of 32 distinct supports and a
# map-certify pass of 28 (seed 3), so 64 entries hold either pass; an entry
# keeps its support tuple and one int64 per monomial.
@lru_cache(maxsize=64)
def _support_degrees(support: tuple) -> np.ndarray:
    """The total degree of each multi-index of ``support``, read-only."""
    degrees = np.fromiter(map(sum, support), dtype=np.int64, count=len(support))
    degrees.flags.writeable = False
    return degrees


def _top_degrees(support: tuple, stack: np.ndarray) -> np.ndarray:
    """For each (R, M) slice of a (T, R, M) stack of rows over ``support``,
    the largest total degree of a column with an entry above DEFAULT_TOL, or
    -1 when there is none."""
    live = (np.abs(stack) > DEFAULT_TOL).any(axis=1)
    return np.where(live, _support_degrees(support), -1).max(axis=1)


def _top_degree(support, rows):
    """Largest total degree of a column with an entry above DEFAULT_TOL; -inf if none."""
    top = int(_top_degrees(support, rows[None])[0])
    return top if top >= 0 else ZERO_DEGREE


def _constant_maps(stack: np.ndarray, squares: Optional[np.ndarray] = None) -> np.ndarray:
    """For each map of a (T, N+1, M) stack of rows, whether p_i = p_i(0) q for
    all i, that is |p_i - p_i(0) q| <= DEFAULT_TOL at every coefficient.

    Given the stack's squared moduli ``squares``, as for a block of monomial
    maps, p_i(0) q is formed on q's columns alone: in a column where no q
    of the stack has an entry, the difference is p_i, so the largest of its
    squared moduli there is compared with DEFAULT_TOL^2, with no temporary
    of the stack's size.  Without them one expression takes the whole stack,
    which costs fewer numpy calls on a small block."""
    p, q = stack[:, :-1], stack[:, -1:]
    if squares is None:
        return ~(np.abs(p - p[:, :, -1:] * q) > DEFAULT_TOL).any(axis=(1, 2))
    columns = q.any(axis=(0, 1))
    off = (squares[:, :-1].max(axis=1)[:, ~columns] > DEFAULT_TOL * DEFAULT_TOL).any(axis=1)
    near = p.compress(columns, axis=2) - p[:, :, -1:] * q.compress(columns, axis=2)
    return ~(off | (np.abs(near) > DEFAULT_TOL).any(axis=(1, 2)))


class RationalBallMap:
    """Rational map p/q from the unit ball of C^n toward C^N.

    The map is its coefficient rows: ``coefficients`` is a read-only
    (N+1) x M complex array of the rows p_1, ..., p_N, q over ``support``, a
    descending tuple of multi-indices.  Entries at or below the storage floor
    are zero and every column has an entry above it; as q(0) = 1, the last
    column is the constant monomial.  ``p`` and ``q`` are Polynomial views,
    built on each access.  The constructor, the one public way to build a
    map from terms, checks that all components share the domain variable
    count and that q(0) = 1; nonvanishing of q on the closed ball is checked
    during certification.  ``factors`` is a (K, n) array of the centres a_k
    of q = prod_k (1 - <z, a_k>), empty when they are unknown; certification
    uses them only after checking that they multiply out to q.
    """

    __slots__ = ("n", "N", "support", "coefficients", "factors")

    def __init__(self, domain_dim: int, target_dim: int,
                 numerator: Sequence[Polynomial], denominator: Polynomial | None = None,
                 *, factors=()):
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
            denominator = Polynomial(domain_dim, {(0,) * domain_dim: 1.0})
        if denominator.nvars != domain_dim:
            raise DimensionMismatchError("denominator variable count mismatch")
        q0 = denominator.terms.get((0,) * domain_dim, 0j)
        if abs(q0 - 1.0) > DEFAULT_TOL:
            raise NormalizationError(f"denominator must satisfy q(0)=1, got q(0)={q0}")
        stored = self._from_rows(domain_dim, *coefficient_matrix([*numerator, denominator]),
                                 factors)
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(stored, name))

    @classmethod
    def _from_stack(cls, n: int, support, stack, factors) -> list:
        """The blocks (see ``_Block``) of the maps whose rows p_1, ..., p_N, q
        over ``support`` are the (N+1, M) slices of a (T, N+1, M) stack and
        whose factor centres are the (K, n) slices of ``factors``, (T, K, n)
        or (1, K, n) for all; q(0) = 1 unchecked.

        This is the checked entry for rows from outside a kernel: it copies
        the stack and the centres, so the caller's arrays are never changed,
        checks that the centres are finite with one entry per domain
        variable, and hands the copies to ``_store``.
        """
        centres = np.array(factors, dtype=complex)
        if centres.size == 0:
            centres = np.zeros((1, 0, n), dtype=complex)
        elif centres.ndim != 3 or centres.shape[2] != n:
            raise DimensionMismatchError("denominator factor centres need one entry "
                                         "per domain variable")
        if not np.isfinite(centres).all():
            raise ValueError("denominator factor centres must be finite")
        return _store(n, tuple(support), np.array(stack, dtype=complex), centres)

    @classmethod
    def _from_rows(cls, n: int, support, rows, factors=()) -> "RationalBallMap":
        """The map with rows p_1, ..., p_N, q over ``support``; q(0) = 1 unchecked.
        ``_from_stack`` on a stack of one."""
        return cls._from_stack(n, support, np.asarray(rows)[None],
                               np.asarray(factors, dtype=complex)[None])[0][0]

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalBallMap is immutable")

    # ------------------------------------------------------------------ build
    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, n: int) -> "RationalBallMap":
        return cls._from_rows(n, monomials_of_degree(n, 1) + [(0,) * n], np.eye(n + 1))

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

    # -------------------------------------------------------------- evaluation
    def evaluate(self, point: Sequence[complex]) -> np.ndarray:
        values = evaluate_rows(self.n, self.support, self.coefficients, [point])[0]
        if values[-1] == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return values[:-1] / values[-1]

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        values = evaluate_rows(self.n, self.support, self.coefficients, points)
        return values[:, :-1] / values[:, -1:]

    # ------------------------------------------------------------- conversions
    def padded(self, target_dim: int) -> "RationalBallMap":
        """The map followed by the injection that appends zero components."""
        return self if target_dim == self.N else _Block.of(self).padded(target_dim)[0]

    def distance(self, other: "RationalBallMap") -> float:
        """Largest coefficient difference of p and q after padding to a common target."""
        if self.n != other.n:
            raise DimensionMismatchError("maps must share the domain dimension")
        big = max(self.N, other.N)
        a, b = self.padded(big), other.padded(big)
        return _distance((a.support, a.coefficients), (b.support, b.coefficients))

    def allclose(self, other: "RationalBallMap", tol: float = DEFAULT_TOL) -> bool:
        return self.n == other.n and self.distance(other) <= tol

    def __repr__(self):
        return (f"RationalBallMap(B{self.n} -> B{self.N}, degree={self.degree}, "
                f"q_degree={_top_degree(self.support, self.coefficients[-1:])})")


class _Block(Sequence):
    """Consecutive maps from B_n that share one support and one set of live
    columns, stored as one read-only (T, N+1, M) array ``rows`` of their rows
    p_1, ..., p_N, q over ``support`` and one (T, K, n) array ``centres`` of
    their factor centres: the unit that family evaluation passes between its
    layers.  It is a sequence of RationalBallMap that builds a member only
    when it is indexed, as a view of its rows; a slice is a block of views.
    """

    __slots__ = ("n", "support", "rows", "centres")

    def __init__(self, n: int, support: tuple, rows: np.ndarray, centres: np.ndarray):
        self.n, self.support, self.rows, self.centres = n, support, rows, centres

    @classmethod
    def of(cls, m: RationalBallMap) -> "_Block":
        """The block of one map, of views of its arrays."""
        return cls(m.n, m.support, m.coefficients[None], m.factors[None])

    @property
    def N(self) -> int:
        return self.rows.shape[1] - 1

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _Block(self.n, self.support, self.rows[k], self.centres[k])
        m = object.__new__(RationalBallMap)
        values = (self.n, self.N, self.support, self.rows[k], self.centres[k])
        for name, value in zip(RationalBallMap.__slots__, values):
            object.__setattr__(m, name, value)
        return m

    def padded(self, target_dim: int) -> "_Block":
        """The members followed by the injection that appends zero components."""
        if target_dim == self.N:
            return self
        if target_dim < self.N:
            raise DimensionMismatchError("cannot pad to a smaller target")
        rows = np.insert(self.rows, [self.N] * (target_dim - self.N), 0.0, axis=1)
        return _store(self.n, self.support, rows, self.centres)[0]


def _store(n: int, support: tuple, stack: np.ndarray, centres: np.ndarray) -> list:
    """The blocks of the maps of a (T, N+1, M) stack of rows that the caller
    has just built and owns, with finite (T, K, n) or (1, K, n) centres from
    a stored block, a checked automorphism or Blaschke product, or
    ``_from_stack``'s check; the one maker of blocks of fresh arrays.
    Nothing is copied or checked: the entries at or below
    ``COEFFICIENT_FLOOR`` are set to +0.0 in place, the arrays are made
    read-only, and each run of consecutive maps whose rows have an entry in
    the same columns is one block, its rows without the other columns.  A
    stack whose maps all have an entry in every column is one block of its
    own array, as are stored blocks with one support concatenated or padded
    with zero components, which the floor leaves as they are.  No map is
    built until a block is indexed.
    """
    stack[np.abs(stack) <= COEFFICIENT_FLOOR] = 0.0
    if len(centres) != len(stack):
        centres = np.repeat(centres, len(stack), axis=0)
    centres.flags.writeable = False
    stack.flags.writeable = False
    masks = stack.any(axis=1)
    if masks.all():
        return [_Block(n, support, stack, centres)] if len(stack) else []
    cuts = np.flatnonzero((masks[1:] != masks[:-1]).any(axis=1)) + 1
    blocks = []
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(stack)]):
        live = masks[lo]
        kept = tuple(alpha for alpha, keep in zip(support, live.tolist()) if keep)
        rows = stack[lo:hi].compress(live, axis=2)
        rows.flags.writeable = False
        blocks.append(_Block(n, kept, rows, centres[lo:hi]))
    return blocks


def _members(items: Iterable) -> Iterator[RationalBallMap]:
    """The maps of a stream of blocks and loose maps, in order."""
    for item in items:
        if isinstance(item, _Block):
            yield from item
        else:
            yield item


def _distance(left: tuple, right: tuple) -> float:
    """The largest modulus of the difference of two (support, rows) blocks
    with one row count, on the union of their supports."""
    _, (x, y) = align_rows(left, right)
    gap = x - y  # hypot is the modulus that Python's abs of a complex takes
    return float(np.hypot(gap.real, gap.imag).max())


@dataclass(frozen=True)
class PropernessCertificate:
    """Outcome of exact properness certification plus a sampled witness.

    ``residual_norm`` is the largest Bernstein coefficient of ||p||^2 -
    |q|^2 on the sphere (``reduce_mod_sphere``; zero means ||p||^2 = |q|^2
    there) over ``sphere_scales`` of |q|^2, which is 1 for q = 1, so scaling
    p and q together leaves it unchanged; ``worst_entry`` is its monomial
    pair (alpha, beta), first in row-major order, or None when it is zero.
    ``denominator_method`` says how q was shown not to vanish on the closed
    ball (``trivial``, ``factored``, ``coefficient-bound`` or ``sampled``) and
    ``denominator_margin`` is the lower bound of |q| there that the method
    gave (for ``sampled``, the smallest sampled modulus).  ``witness`` is the
    sampled sphere point where | ||f||^2 - 1 | was largest, with that value in
    ``witness_value``.  The verdict never reads them, so the certificate
    keeps the map's block, its index there and the seed, and they are
    sampled on first read, from the member built then, and cached.
    """

    verdict: Verdict
    residual_norm: float
    worst_entry: Optional[tuple]
    denominator_method: str
    denominator_margin: float
    _sampled_from: tuple = field(repr=False, compare=False)

    @cached_property
    def _sample(self) -> dict:
        block, k, seed = self._sampled_from
        return _witness(block[k], seed)

    @property
    def witness(self) -> np.ndarray:
        return self._sample["witness"]

    @property
    def witness_value(self) -> float:
        return self._sample["witness_value"]


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


# A map-certify pass raises centres to 9 distinct (n, m), one per
# composition of its ladder, and a family-grid pass, whose centres are
# distinct, to m = 1 for n = 2 and 3; 32 plans hold either pass.  The bound
# counts plans, not bytes: a plan keeps about 120 bytes per monomial of
# degree at most m (its support tuple, exponent row and weight), 13 kB for
# the largest of a map-certify pass (n = 2, m = 16, 153 monomials) and
# 1.3 MB for n = 4, m = 20 (10,626 monomials), so 41 MB at worst for 32
# plans of that size; higher powers take more.
@lru_cache(maxsize=32)
def _power_plan(n: int, m: int):
    """(support, exponents, weights) of (1 - <z, a>)^m: the monomials z^gamma
    of degree at most m, descending, their (M, n) exponents and the
    multinomial(m; m - |gamma|, gamma) of each, read-only."""
    full = monomials_of_degree(n + 1, m)
    support = tuple(alpha[:n] for alpha in full)
    exponents = np.array(support, dtype=np.int64).reshape(-1, n)
    weights = np.array([float(multinomial(m, alpha)) for alpha in full])
    exponents.flags.writeable = False
    weights.flags.writeable = False
    return support, exponents, weights


def _power_rows(n: int, m: int, centres: np.ndarray):
    """(support, rows): row t is (1 - <z, a_t>)^m for the rows a_t of the
    (T, n) ``centres``, with the coefficient multinomial(m; m - |gamma|,
    gamma) prod_j (-conj(a_tj))^gamma_j of each z^gamma."""
    support, exponents, weights = _power_plan(n, m)
    # powers[e, j, t] = (-conj(a_tj))^e, a running product.
    powers = np.empty((m + 1, n, len(centres)), dtype=complex)
    powers[0] = 1.0
    np.cumprod(np.broadcast_to(-centres.conj().T, powers[1:].shape), axis=0, out=powers[1:])
    rows = powers[exponents[:, 0], 0]
    for j in range(1, n):
        rows = rows * powers[exponents[:, j], j]
    # Adding zero makes a zero +0.0, as the sums of ``multiply_rows`` do.
    return support, (rows * weights[:, None]).T + 0.0


def _factor_rows(n: int, centres: np.ndarray):
    """(support, rows): row t is prod_k (1 - <z, a_k>) over the rows a_k of
    ``centres[t]``, a (T, K, n) stack with K >= 1.

    The factor columns whose centres are equal in every row form one group,
    and a group of m columns is one power (1 - <z, a>)^m in closed form
    (``_power_rows``).  The groups of one multiplicity m get one
    ``_power_rows`` call on their centres stacked, which raises each row on
    its own, so each power is the one of its group alone.  The product
    starts from the first group's power and multiplies the others in order
    of their first column; entries at or below the storage floor
    ``COEFFICIENT_FLOOR`` are dropped after each distinct centre's power.
    When the centres are distinct, every power is its linear factor and the
    product is the chain of factor products.
    """
    groups = [(len(columns), centre) for columns, centre in _mask_groups(centres.swapaxes(0, 1))]
    powers = {}
    for m in dict.fromkeys(m for m, _ in groups):
        same = [centre for k, centre in groups if k == m]
        support, stacked = _power_rows(n, m, np.concatenate(same))
        powers[m] = support, iter(np.split(stacked, len(same)))
    monos = rows = None
    for m, _ in groups:
        support, chunks = powers[m]
        monos, rows = ((support, next(chunks)) if rows is None
                       else multiply_rows(n, monos, rows, support, next(chunks)))
        rows[np.abs(rows) <= COEFFICIENT_FLOOR] = 0.0
    return monos, rows


def _factored_margins(n: int, support, q: np.ndarray, centres: np.ndarray) -> list:
    """For each row of q, (T, M) over ``support``, and its factor centres, a
    (T, K, n) stack with K >= 1: the lower bound of |q| on the closed ball
    from the centres; None when they do not multiply out to q or an inexact
    bound is low; or the DenominatorVanishesError to raise.

    The product of the factors is rebuilt once for the block, one power per
    centre that is shared by every row (``_factor_rows``), and each
    factor's minimum 1 - ||a_k|| and each row's smallest are computed once
    for the block."""
    monos, product = _factor_rows(n, centres)
    _, (own, product) = align_rows((support, q), (monos, product))
    gap = np.abs(own - product)
    match = ~(gap.max(axis=1) > DEFAULT_TOL * np.abs(own).max(axis=1))
    # On the closed ball |1 - <z, a>| >= 1 - ||a||, with equality at
    # z = a / ||a||.  The product of these minima, less the coefficient
    # gap to q, bounds |q| from below; when the nonconstant factors share
    # one centre, as in a power, all are least at the same point, so it is
    # the exact minimum and falling back to sampling could only overstate
    # it.  The gap is summed over the columns where q or the product has an
    # entry, one sum per distinct set of such columns.
    gaps = np.empty(len(q))
    for rows, columns in _mask_groups((own != 0) | (product != 0)):
        gaps[rows] = gap[np.ix_(rows, columns)].sum(axis=1)
    lows = 1.0 - np.linalg.norm(centres, axis=2)
    margins = np.prod(lows, axis=1) - gaps
    moving = lows < 1.0
    first = centres[np.arange(len(centres)), moving.argmax(axis=1)][:, None]
    exact = moving.any(axis=1) & ((centres == first).all(axis=2) | ~moving).all(axis=1)
    out = []
    for margin, low, matched, tight in zip(margins.tolist(), lows.min(axis=1).tolist(),
                                           match.tolist(), exact.tolist()):
        if not matched:
            out.append(None)
        elif low <= 0.0 or (tight and margin < DENOMINATOR_FLOOR):
            out.append(DenominatorVanishesError(
                f"denominator factors reach modulus {max(min(low, margin), 0.0):.3e}"
                f" on the closed ball, below {DENOMINATOR_FLOOR:.1e}"))
        else:
            out.append(margin if margin >= DENOMINATOR_FLOOR else None)
    return out


def _linear_centres(n: int, support, q: np.ndarray) -> np.ndarray:
    """The (T, n) vectors -conj(c) of the linear coefficients c of the rows
    q = 1 + sum_j c_j z_j + ... of a (T, M) stack over ``support``: the
    centre a of q = 1 - <z, a>, and d a for q = (1 - <z, a>)^d."""
    index = {alpha: j for j, alpha in enumerate(support)}
    linear = np.array([index.get(alpha, -1) for alpha in monomials_of_degree(n, 1)])
    return -np.where(linear >= 0, q[:, linear], 0.0).conj()


def _check_denominators(block: _Block, seed: int) -> list:
    """(method, margin) for each map of a block: how q was shown to stay
    above DENOMINATOR_FLOOR on the closed ball, from the block's rows and
    its carried factor centres; or the DenominatorVanishesError it raises.

    Every map goes down one ladder, each step on the maps that the steps
    before it left open: a constant q; the carried factors, when the block
    has any; q's own factors, d copies of a = -conj(c) / d for a q = 1 +
    sum_j c_j z_j + ... of degree d (``_linear_centres``), one step per
    degree; the coefficient bound 1 - sum_{alpha != 0} |q_alpha|; and, as a
    last resort, the smallest |q| over seeded sample points of the ball and
    the sphere, drawn once for the block.
    Factors decide only when they multiply out to q, so a map whose carried
    factors miss q gets what it would get without them.  The error comes
    when a factor vanishes on the closed ball, when the exact minimum of
    factors with one centre is below the floor, or when a sampled modulus is.
    """
    n, support, centres, floor = block.n, block.support, block.centres, DENOMINATOR_FLOOR
    q = block.rows[:, -1]
    q_degrees = _top_degrees(support, q[:, None])
    out = [("trivial", c) if d <= 0 else None
           for c, d in zip(np.abs(q[:, -1]).tolist(), q_degrees.tolist())]
    undecided = q_degrees > 0
    if not undecided.any():
        return out

    def factored(picked, candidates):
        margins = _factored_margins(n, support, q[picked], candidates)
        for k, margin in zip(picked.tolist(), margins):
            if margin is not None:
                undecided[k] = False
                out[k] = margin if isinstance(margin, Exception) else ("factored", margin)

    if centres.shape[1]:
        picked = np.flatnonzero(undecided)
        factored(picked, centres[picked])
    # Not np.unique: it imports numpy.ma, some 20 ms of a cold CLI process.
    degrees = sorted(set(q_degrees[undecided].tolist()))
    linear = _linear_centres(n, support, q) if degrees else None
    for d in degrees:
        picked = np.flatnonzero(undecided & (q_degrees == d))
        factored(picked, np.repeat(linear[picked, None, :] / d, d, axis=1))
    pts = None
    for k in np.flatnonzero(undecided).tolist():
        # q without its empty columns; the last column is the constant term.
        live = q[k] != 0
        row = q[k][live]
        margin = float(abs(row[-1]) - np.abs(row[:-1]).sum())
        if margin >= floor:
            out[k] = ("coefficient-bound", margin)
            continue
        if pts is None:
            rng = np.random.default_rng(seed)
            half = DENOMINATOR_SAMPLES // 2
            pts = np.vstack([ball_points(n, half, rng),
                             sphere_points(n, DENOMINATOR_SAMPLES - half, rng)])
        minimum = float(np.abs(evaluate_rows(n, np.array(support)[live], row[None], pts)).min())
        out[k] = ("sampled", minimum) if minimum >= floor else DenominatorVanishesError(
            f"denominator modulus {minimum:.3e} below {floor:.1e} on the closed ball")
    return out


def _witness(m: RationalBallMap, seed: int) -> dict:
    """The certificate's ``witness`` and ``witness_value``: the sampled sphere
    point where | ||f||^2 - 1 | is largest, and that value."""
    pts = sphere_points(m.n, WITNESS_SAMPLES, np.random.default_rng(seed))
    values = np.abs(np.sum(np.abs(m.evaluate_many(pts)) ** 2, axis=1) - 1.0)
    k = int(np.argmax(values))
    # A copy, so that the certificate does not keep all the sampled points.
    return {"witness": pts[k].copy(), "witness_value": float(values[k])}


def _runs(items: Iterable) -> Iterator[_Block]:
    """The blocks in which a stream of blocks and loose maps is certified
    and taken through a stacked kernel: consecutive members with one
    support, target dimension and number of denominator factors, at most
    BLOCK_ENTRIES Gram entries each, yielded once the next item does not
    join them.

    A block passes through, cut only where it would exceed BLOCK_ENTRIES.
    Loose maps are grouped, and items with one key are joined by one
    concatenation (``_stacked``), which happens only at the seams of a
    family: a segment's reused endpoints, or the grid points on either side
    of a junction.  When reading an item raises, the members read so far
    are yielded before the error propagates."""
    pending, key, count, cap = [], None, 0, 0
    items = iter(items)
    while True:
        try:
            item = next(items, None)
        except Exception:
            if pending:
                yield _stacked(pending)
            raise
        if item is None:
            if pending:
                yield _stacked(pending)
            return
        block = item if isinstance(item, _Block) else _Block.of(item)
        if (block.support, block.N, block.centres.shape[1]) != key:
            if pending:
                yield _stacked(pending)
            pending, count = [], 0
            key = (block.support, block.N, block.centres.shape[1])
            cap = max(1, BLOCK_ENTRIES // len(block.support) ** 2)
        while count + len(block) > cap:
            if count < cap:
                pending.append(block[:cap - count])
                block = block[cap - count:]
            yield _stacked(pending)
            pending, count = [], 0
        pending.append(block)
        count += len(block)


def _stacked(blocks: Sequence[_Block]) -> _Block:
    """Consecutive blocks with one support, target dimension and number of
    factors as one block: one block is itself, its own arrays with no copy,
    and more are the ``_store`` of one concatenation of their arrays."""
    if len(blocks) == 1:
        return blocks[0]
    return _store(blocks[0].n, blocks[0].support, np.concatenate([b.rows for b in blocks]),
                  np.concatenate([b.centres for b in blocks]))[0]


def _block_residuals(n: int, support: tuple, stack: np.ndarray):
    """(residuals, worst, constant) of each map of a (T, N+1, M) stack of
    rows over ``support``: the unscaled residual and its pair, and whether
    the map is constant (``_constant_maps``).  A member whose rows p_1, ...,
    p_N and q have at most one entry each, as a monomial map's, has the
    diagonal Gram sum_r |p_r,alpha|^2 - |q_alpha|^2, which
    ``radial_residuals`` reads, and the same squared moduli decide whether
    it is constant; the signed Grams of the others go through
    ``sphere_residuals``.  That is decided for each member on its own rows,
    so its results do not depend on its block."""
    radial = _linalg.orthogonal_rows(stack.swapaxes(1, 2))
    if radial.all():
        # Each entry times its conjugate in real arithmetic, so exactly real.
        squares = stack.real * stack.real + stack.imag * stack.imag
        return (*radial_residuals(n, support, squares[:, :-1].sum(axis=1) - squares[:, -1]),
                _constant_maps(stack, squares))
    if not radial.any():
        return (*sphere_residuals(n, support, signed_gram(stack, 1)),
                _constant_maps(stack))
    # A mixed block: each part on its own, back in the members' order.
    residuals, worst = np.empty(len(stack)), [None] * len(stack)
    constant = np.empty(len(stack), dtype=bool)
    for members in (radial, ~radial):
        values, pairs, constant[members] = _block_residuals(n, support, stack[members])
        residuals[members] = values
        for k, pair in zip(np.flatnonzero(members).tolist(), pairs):
            worst[k] = pair
    return residuals, worst, constant


def _certify_block(block: _Block, tol: float, seed: int,
                   denominators: list) -> Iterator[PropernessCertificate]:
    """The certificate of each map of a block, in order, read from the
    block's arrays and its ``_check_denominators`` with no member built; an
    error for a map is raised at that map's turn."""
    n, support, stack = block.n, block.support, block.rows
    residuals, worst, constant = _block_residuals(n, support, stack)
    q = stack[:, -1]
    residuals = residuals / sphere_scales(n, support, q.real ** 2 + q.imag ** 2)
    for k, residual in enumerate(residuals.tolist()):
        if isinstance(denominators[k], Exception):
            raise denominators[k]
        # No nonconstant proper map lowers the dimension, whatever the tol.
        if residual > tol or (block.N < n and not constant[k]):
            verdict = Verdict.NOT_PROPER
        else:
            verdict = Verdict.CONSTANT_ON_SPHERE if constant[k] else Verdict.PROPER
        yield PropernessCertificate(verdict, residual, worst[k], *denominators[k],
                                    (block, k, seed))


def _certify_run(block: _Block, tol: float, seed: int, timings: dict) -> Iterator[tuple]:
    """What ``certify_maps`` yields for each map of a block (see ``_runs``);
    an error comes at its map's turn.  The seconds that the block's ranks and
    its denominators take are added to ``timings["rank_s"]`` and
    ``timings["denominator_s"]``."""
    degrees = np.maximum(_top_degrees(block.support, block.rows[:, :-1]), 0).tolist()
    start = time.perf_counter()
    ranks = _embedding_dimensions(block.rows).tolist()
    ranked = time.perf_counter()
    denominators = _check_denominators(block, seed)
    timings["rank_s"] += ranked - start
    timings["denominator_s"] += time.perf_counter() - ranked
    return zip(_certify_block(block, tol, seed, denominators), degrees, ranks)


def certify_maps(maps: Iterable[RationalBallMap], tol: float = DEFAULT_TOL,
                 seed: int = DEFAULT_SEED) -> Iterator[tuple]:
    """Certify maps in order, yielding (certificate, degree, embedding
    dimension) for each: what ``certify_proper``, ``degree`` and
    ``embedding_dimension`` give the map.

    Consecutive maps that share their support, target dimension and number
    of denominator factors are certified as one block of at most
    BLOCK_ENTRIES Gram entries.  A member whose rows p_1, ..., p_N and q
    have at most one entry each, as a monomial map's (tensor powers,
    D'Angelo's maps, the catalog maps, the Faran family members), has a
    diagonal Gram: such members get one bincount over their diagonals
    through the support's radial plan (``radial_residuals``), with no Gram
    matrix and no full plan.  The others get one stacked signed Gram, p's
    part and q's one product each, and one gather and two bincounts
    through the full sphere-reduction plan of the support.  A block also
    gets one product of the denominator factors with a row per map, which
    raises each centre that all the maps share to its power in closed form
    (``_factor_rows``), and the ranks.  A member whose component rows share
    no column has orthogonal rows: its rank counts the row norms.  The other
    members get one stacked Cholesky test of their Gram matrices, which
    decides those of full rank, and one stacked SVD for the rest
    (``_embedding_dimensions``).  Each of these results is that of the
    member on its own rows, so it does not depend on the block.  The
    denominators go down one ladder as a block (``_check_denominators``):
    the carried factors, then q's own with one product per q degree; only a
    q that no factors decide is bounded or sampled map by map.  A
    certificate's witness is sampled when it is first read.
    ``certify_proper`` is the block step on one map.

    ``maps`` may also hold blocks of maps (``_Block``), which are certified
    from their arrays without building their members.  Results come block
    by block as the maps are read, so a caller may stop
    at the first failure; an error for a map is raised at that map's turn,
    and when reading the next map raises, the maps read before it are
    certified first.
    """
    timings = {"rank_s": 0.0, "denominator_s": 0.0}
    for block in _runs(maps):
        yield from _certify_run(block, tol, seed, timings)


def certify_proper(m: RationalBallMap, tol: float = DEFAULT_TOL,
                   seed: int = DEFAULT_SEED) -> PropernessCertificate:
    """Certify whether p/q is a proper map between unit balls.

    The verdict is PROPER exactly when the scaled residual (the largest
    Bernstein coefficient of ||p||^2 - |q|^2 on the sphere over the scale of
    |q|^2) is within tolerance and the map is nonconstant with N >= n: no
    nonconstant proper map lowers the dimension, so a nonconstant map with
    N < n is NOT_PROPER whatever its residual and ``tol``.
    CONSTANT_ON_SPHERE covers the boundary case where the norms agree but
    p/q is constant.  A map whose rows p_1, ..., p_N and q have at most one
    entry each, as a monomial map's, has a diagonal Gram, so only shift 0
    has Bernstein coefficients: it is read from the radial plan alone, with
    no Gram matrix and no full plan (``radial_residuals``); other maps go
    through their signed Gram.  The denominator is decided by the first
    step of one ladder that applies: a constant q, the carried factors, q's
    own factors, the coefficient bound, sampling (``_check_denominators``);
    carried factors that do not multiply out to q are ignored.  Raises
    DenominatorVanishesError when q cannot be kept above DENOMINATOR_FLOOR on
    the closed ball.  The witness never affects the verdict: it is sampled,
    with ``seed``, when it is first read, and cached.  This is the block step
    of ``certify_maps`` on a block of one.
    """
    block = _Block.of(m)
    return next(_certify_block(block, tol, seed, _check_denominators(block, seed)))


def degree(m: RationalBallMap) -> int:
    """Degree of a proper rational map: the degree of its numerator."""
    d = m.degree
    if d == float("-inf"):
        return 0
    return int(d)


def _embedding_dimensions(stack: np.ndarray) -> np.ndarray:
    """For each map of a (T, N+1, M) stack, the rank of its component rows:
    the number of their singular values above ``RANK_RTOL`` times the largest.

    When no two component rows of a map share a column
    (``_linalg.orthogonal_rows``), the rows are orthogonal and their norms
    are their singular values, so the norms are counted: their squares,
    summed from the real and imaginary parts with no copy of the rows,
    against ``RANK_RTOL`` squared times the largest.  The others, and those
    whose squares overflow, go to ``_linalg.numerical_rank`` per set of
    columns where their rows have an entry: a stack whose Gram matrices all
    pass its Cholesky test has full rank without an SVD, and the others get
    one stacked SVD.  Either way the rank is what the SVD of the map's own
    rows counts, so it does not depend on what the map is stacked with.
    """
    rows = stack[:, :-1]
    orthogonal = _linalg.orthogonal_rows(rows)
    ranks = np.zeros(len(stack), dtype=int)
    dense = np.arange(len(stack))
    if any(orthogonal.tolist()):
        norms = (np.einsum("tij,tij->ti", rows.real, rows.real)
                 + np.einsum("tij,tij->ti", rows.imag, rows.imag))
        orthogonal &= np.isfinite(norms).all(axis=1)
        norms = norms[orthogonal]
        ranks[orthogonal] = (norms > norms.max(axis=1, keepdims=True)
                             * _linalg.RANK_RTOL ** 2).sum(axis=1)
        dense = dense[~orthogonal]
        rows = rows[dense]
    for members, columns in _mask_groups(rows.any(axis=1)):
        ranks[dense[members]] = _linalg.numerical_rank(rows[members].compress(columns, axis=2))
    return ranks


def embedding_dimension(m: RationalBallMap) -> int:
    """Number of linearly independent components: the rank of the component
    coefficient rows, counting singular values above ``RANK_RTOL`` (1e-10)
    times the largest.  Rows that share no column are orthogonal, and their
    norms are their singular values; dense rows of full rank are recognized
    by a Cholesky test of their Gram matrix, and only the others take the
    SVD (``_embedding_dimensions``)."""
    return int(_embedding_dimensions(m.coefficients[None])[0])


@dataclass(frozen=True)
class NormEquivalence:
    """Result of the squared-norm comparison of two maps.

    ``largest_relative`` is the largest |G_ij| / sqrt(H_ii H_jj) over the
    entries of the signed Gram G and the unsigned Gram H (see
    ``norm_equivalent``): the margin under ``tol`` when the maps are
    equivalent, and the size of the largest flagged entry when they are not.
    On equivalence ``unitary`` maps the first map's components onto the
    second's (after zero-padding to the common target), with the max
    coefficient residual ``witness_residual``; the decision never reads
    them, so they are computed from the two sides' rows on first read and
    cached.  On failure ``mismatch`` holds a distinguishing Hermitian-form
    entry (alpha, beta, difference), and ``unitary`` and
    ``witness_residual`` are None.
    """

    equivalent: bool
    mismatch: Optional[tuple] = None
    largest_relative: float = 0.0
    _rows: Optional[tuple] = field(default=None, repr=False, compare=False)

    @cached_property
    def _stacks(self) -> Optional[tuple]:
        """Both sides' rows on the columns where either has an entry: a
        column without one, such as q's constant column of a tensor power,
        adds nothing to the witness."""
        if self._rows is None:
            return None
        a, b = self._rows
        live = a.any(axis=0) | b.any(axis=0)
        return (a, b) if live.all() else (a[:, live], b[:, live])

    @cached_property
    def _procrustes(self) -> tuple:
        if self._stacks is None:
            return None, None
        stack_f, stack_g = self._stacks
        unitary = _linalg.procrustes_unitary(stack_f, stack_g)
        residual = (float(np.max(np.abs(unitary @ stack_f - stack_g)))
                    if stack_f.shape[1] else 0.0)
        return unitary, residual

    @property
    def unitary(self) -> Optional[np.ndarray]:
        return self._procrustes[0]

    @property
    def witness_residual(self) -> Optional[float]:
        return self._procrustes[1]


def norm_equivalent(f: RationalBallMap, g: RationalBallMap,
                    tol: float = DEFAULT_TOL) -> NormEquivalence:
    """Decide ||f||^2 == ||g||^2, producing a unitary witness or a mismatch.

    Targets are first padded to a common dimension by appending zeros.  When
    the denominators' rows differ at all, the numerators are cross-multiplied,
    p_f q_g against p_g q_f, and only those rows are floored, since the
    stored rows are.  With A and B the two sides' aligned rows, G = A^T conj(A) -
    B^T conj(B) is the signed Gram of ||left||^2 - ||right||^2 and H =
    A^T conj(A) + B^T conj(B) the unsigned one.  An entry is flagged when
    |G_ij| > tol sqrt(H_ii H_jj), tol times the Cauchy-Schwarz bound of
    |G_ij|, so the test does not change when both maps are scaled together;
    it is read on column-normalized rows (``normalized_gram_difference``),
    where it is |G_ij| / sqrt(H_ii H_jj) > tol.  Only when an entry is
    flagged is the mismatch searched for: the first largest |G_ij| among
    the flagged entries in row-major order (one of the upper triangle, as
    G is Hermitian), recomputed from its two columns scaled by a power of
    two, which rounds as the unscaled ones do (inf beyond a double, not NaN).
    Otherwise the result keeps both sides' rows, and the witness unitary is
    computed from them when first read, by least squares over unitaries
    (orthogonal Procrustes), so it is always unitary, including for
    rank-deficient rows such as f vs f + zero components.
    """
    if f.n != g.n:
        raise DimensionMismatchError("maps must share the domain dimension")
    big = max(f.N, g.N)
    fp, gp = f.padded(big), g.padded(big)
    _, (fq, gq) = align_rows((f.support, f.coefficients[-1:]), (g.support, g.coefficients[-1:]))
    shared = np.array_equal(fq, gq)
    if shared:
        left, right = (fp.support, fp.coefficients[:-1]), (gp.support, gp.coefficients[:-1])
    else:
        left = multiply_rows(f.n, fp.support, fp.coefficients[:-1],
                             g.support, np.repeat(g.coefficients[-1:], big, axis=0))
        right = multiply_rows(f.n, gp.support, gp.coefficients[:-1],
                              f.support, np.repeat(f.coefficients[-1:], big, axis=0))
    monos, (a, b) = align_rows(left, right)
    if not shared:
        # Stored rows are floored already; the cross products are new.
        for rows in (a, b):
            rows[np.abs(rows) <= COEFFICIENT_FLOOR] = 0.0
    gram, norms = normalized_gram_difference(a, b)
    sizes = np.abs(gram)
    largest = float(sizes.max(initial=0.0))
    if largest <= tol:
        return NormEquivalence(True, largest_relative=largest, _rows=(a, b))
    i, j = np.nonzero(np.triu(sizes > tol))
    # Norms times 2^-e, the largest in [1/2, 1): exact, and no product overflows.
    w = np.ldexp(norms, -int(np.frexp(norms.max())[1]))
    k = int(np.argmax(sizes[i, j] * w[i] * w[j]))
    i, j = int(i[k]), int(j[k])
    # Columns i and j times 2^-e, their largest part in [1/2, 1); the entry times 4^e.
    cols = np.ascontiguousarray([a[:, [i, j]], b[:, [i, j]]]).view(float)
    e = int(np.frexp(np.abs(cols).max())[1])
    x = np.ldexp(cols, -e).view(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        value = x[0, :, 0] @ x[0, :, 1].conj() - x[1, :, 0] @ x[1, :, 1].conj()
        value = complex(*np.ldexp([value.real, value.imag], 2 * e))
    return NormEquivalence(False, mismatch=(monos[i], monos[j], value),
                           largest_relative=largest)


def apply_linear(matrix: np.ndarray, m: RationalBallMap) -> RationalBallMap:
    """Compose with a linear map on the target: rows of the (N', N) ``matrix``
    give components."""
    if not isinstance(m, RationalBallMap):
        raise TypeError("apply_linear composes one RationalBallMap")
    if np.ndim(matrix) != 2:
        raise DimensionMismatchError(f"matrix shape {np.shape(matrix)} is not (N', N)")
    return _apply_linear_run(matrix, _Block.of(m))[0][0]


def _apply_linear_run(matrix: np.ndarray, block: _Block) -> list:
    """The blocks of the maps matrix @ p / q for one (N', N) matrix and each
    map of a block, or for a (T, N', N) stack of matrices and a block of one
    map: one stacked product per set of columns where p has an entry."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-1] != block.N:
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not accept target dimension {block.N}")
    stack, centres = block.rows, block.centres
    count = len(mat) if mat.ndim == 3 else len(stack)
    rows = np.zeros((count, mat.shape[-2] + 1, stack.shape[2]), dtype=complex)
    rows[:, -1] = stack[:, -1]
    # Only the columns where p has an entry; the others stay zero.
    p = stack[:, :-1]
    for members, live in _mask_groups(p.any(axis=1)):
        if len(members) == len(p):
            rows[:, :-1, live] = mat @ p[:, :, live]
        else:
            rows[np.ix_(members, range(len(mat)), np.flatnonzero(live))] = \
                mat @ p[members][:, :, live]
    return _store(block.n, block.support, rows, centres)


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
        """Product of two one-row blocks, without the entries at or below
        the storage floor (``canonical_rows``)."""
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

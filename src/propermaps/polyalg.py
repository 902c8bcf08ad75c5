"""Sparse multivariate polynomial and Hermitian-form arithmetic.

This is the algebra layer underneath everything else: polynomials with
complex coefficients indexed by exponent multi-indices, Hermitian coefficient
matrices indexed by pairs of multi-indices, and the reduction that decides
whether a Hermitian polynomial vanishes identically on the unit sphere.

Conventions
-----------
* A multi-index is a tuple of non-negative ints, one entry per variable.
  Monomials are ordered lexicographically descending, first variable most
  significant, so for two variables of degree 5 the order starts at (5, 0)
  and ends at (0, 5).
* Coefficients are double-precision complex numbers.  Comparisons, zero
  tests, and degrees use the global tolerance ``DEFAULT_TOL``; sparse storage
  keeps terms down to ``COEFFICIENT_FLOOR`` so repeated arithmetic cannot
  accumulate dropped mass into the comparison scale.
* All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import chain
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Global comparison tolerance: coefficients within it count as equal/zero.
DEFAULT_TOL = 1e-9

#: Storage floor for sparse terms, well below the comparison tolerance so that
#: repeated arithmetic cannot accumulate dropped mass anywhere near it.
COEFFICIENT_FLOOR = 1e-14

MultiIndex = tuple

#: Degree reported for the zero polynomial.
ZERO_DEGREE = float("-inf")


def total_degree(alpha: MultiIndex) -> int:
    """Total degree |alpha| of a multi-index."""
    return sum(alpha)


def monomials_of_degree(nvars: int, degree: int) -> list[MultiIndex]:
    """All multi-indices of the given total degree, lexicographically descending."""
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    for k in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - k):
            out.append((k,) + rest)
    return out


def multinomial(degree: int, alpha: MultiIndex) -> int:
    """Multinomial coefficient degree! / prod(alpha_j!); alpha must sum to degree."""
    if sum(alpha) != degree:
        raise ValueError("alpha must sum to degree")
    out = math.factorial(degree)
    for e in alpha:
        out //= math.factorial(e)
    return out


class Polynomial:
    """Sparse polynomial in ``nvars`` complex variables.

    ``terms`` maps exponent multi-indices to complex coefficients.  Terms at or
    below the storage floor are dropped on construction; terms at or below the
    comparison tolerance are stored but treated as invisible by the
    tolerance-aware views (``degree``, ``is_zero``, ``significant_terms``), so
    floating noise never influences structural decisions.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, complex] | None = None,
                 tol: float = COEFFICIENT_FLOOR):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean: dict[MultiIndex, complex] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != nvars:
                raise ValueError(f"exponent tuple {alpha} does not match nvars={nvars}")
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} of {alpha} is not finite")
            if abs(c) > tol:
                clean[alpha] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Polynomial":
        """Internal constructor for already-canonical term dicts (no validation)."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1.0)

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The coordinate polynomial z_index (0-based)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1.0})

    @classmethod
    def monomial(cls, exponents: Iterable[int], coeff: complex = 1.0) -> "Polynomial":
        exps = tuple(int(e) for e in exponents)
        return cls(len(exps), {exps: coeff})

    # ------------------------------------------------------------- properties
    def significant_terms(self, tol: float = DEFAULT_TOL) -> dict:
        """Terms whose coefficient magnitude exceeds the comparison tolerance."""
        return {a: c for a, c in self.terms.items() if abs(c) > tol}

    @property
    def degree(self):
        """Max total degree over terms above tolerance; -inf when none remain."""
        degs = [total_degree(a) for a, c in self.terms.items()
                if abs(c) > DEFAULT_TOL]
        return max(degs) if degs else ZERO_DEGREE

    @property
    def is_zero(self) -> bool:
        return all(abs(c) <= DEFAULT_TOL for c in self.terms.values())

    @property
    def is_constant(self) -> bool:
        return all(total_degree(a) == 0 for a in self.significant_terms())

    def constant_term(self) -> complex:
        return self.terms.get((0,) * self.nvars, 0.0 + 0.0j)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def sorted_terms(self) -> list[tuple[MultiIndex, complex]]:
        """Terms sorted lexicographically descending (first variable highest)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # ------------------------------------------------------------- arithmetic
    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return Polynomial._raw(self.nvars,
                               {a: c for a, c in out.items()
                                if abs(c) > COEFFICIENT_FLOOR})

    def __neg__(self):
        return Polynomial._raw(self.nvars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = complex(other)
            return Polynomial._raw(self.nvars,
                                   {a: v * c for a, v in self.terms.items()
                                    if abs(v * c) > COEFFICIENT_FLOOR})
        self._check_compatible(other)
        out: dict[MultiIndex, complex] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(map(add, a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial._raw(self.nvars,
                               {a: c for a, c in out.items()
                                if abs(c) > COEFFICIENT_FLOOR})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def conjugate(self) -> "Polynomial":
        """Polynomial with conjugated coefficients."""
        return Polynomial._raw(self.nvars,
                               {a: c.conjugate() for a, c in self.terms.items()})

    def derivative(self, index: int = 0) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        out = {}
        for alpha, c in self.terms.items():
            e = alpha[index]
            if e == 0:
                continue
            beta = alpha[:index] + (e - 1,) + alpha[index + 1:]
            out[beta] = out.get(beta, 0.0) + c * e
        return Polynomial._raw(self.nvars, out)

    # -------------------------------------------------------------- evaluation
    def __call__(self, point: Sequence[complex]) -> complex:
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        acc = 0.0 + 0.0j
        for alpha, c in self.terms.items():
            term = c
            for z, e in zip(point, alpha):
                if e:
                    term *= complex(z) ** e
            acc += term
        return acc

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (m, nvars) array of complex points; returns shape (m,)."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError("points must have shape (m, nvars)")
        m = pts.shape[0]
        if not self.terms:
            return np.zeros(m, dtype=complex)
        max_exp = [0] * self.nvars
        for alpha in self.terms:
            for j, e in enumerate(alpha):
                max_exp[j] = max(max_exp[j], e)
        powers = []
        for j in range(self.nvars):
            table = np.ones((max_exp[j] + 1, m), dtype=complex)
            for e in range(1, max_exp[j] + 1):
                table[e] = table[e - 1] * pts[:, j]
            powers.append(table)
        acc = np.zeros(m, dtype=complex)
        for alpha, c in self.terms.items():
            term = np.full(m, c, dtype=complex)
            for j, e in enumerate(alpha):
                if e:
                    term = term * powers[j][e]
            acc += term
        return acc

    # -------------------------------------------------------------- comparison
    def distance(self, other: "Polynomial") -> float:
        """Largest coefficient difference over the union of the two supports."""
        self._check_compatible(other)
        return max((abs(self.terms.get(alpha, 0.0) - other.terms.get(alpha, 0.0))
                    for alpha in self.terms.keys() | other.terms.keys()), default=0.0)

    def allclose(self, other: "Polynomial", tol: float = DEFAULT_TOL) -> bool:
        return self.distance(other) <= tol

    def __repr__(self):
        if not self.terms:
            return f"Polynomial({self.nvars}, 0)"
        bits = []
        for alpha, c in self.sorted_terms()[:6]:
            mono = "*".join(f"z{j + 1}^{e}" if e > 1 else f"z{j + 1}"
                            for j, e in enumerate(alpha) if e) or "1"
            bits.append(f"({c:.4g})*{mono}")
        more = " + ..." if len(self.terms) > 6 else ""
        return f"Polynomial({self.nvars}, {' + '.join(bits)}{more})"


class HermitianForm:
    """Sparse Hermitian coefficient matrix over monomial pairs.

    ``entries`` maps pairs (alpha, beta) of multi-indices to complex
    coefficients of z^alpha * conj(z)^beta.  Hermitian symmetry
    entry(beta, alpha) == conj(entry(alpha, beta)) is enforced at
    construction, within tolerance; diagonal entries are real within
    tolerance.
    """

    __slots__ = ("nvars", "entries")

    def __init__(self, nvars: int,
                 entries: Mapping[tuple[MultiIndex, MultiIndex], complex] | None = None,
                 tol: float = COEFFICIENT_FLOOR, validate: bool = True):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        for (alpha, beta), coeff in (entries or {}).items():
            alpha = tuple(int(e) for e in alpha)
            beta = tuple(int(e) for e in beta)
            if len(alpha) != nvars or len(beta) != nvars:
                raise ValueError("multi-index length does not match nvars")
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise ValueError(f"entry {c} at ({alpha}, {beta}) is not finite")
            if abs(c) > tol:
                clean[(alpha, beta)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", clean)
        if validate:
            self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("HermitianForm is immutable")

    @classmethod
    def _raw(cls, nvars: int, entries: dict) -> "HermitianForm":
        """Internal constructor for already-canonical entry dicts (no validation)."""
        f = object.__new__(cls)
        object.__setattr__(f, "nvars", nvars)
        object.__setattr__(f, "entries", entries)
        return f

    def _validate(self, tol: float = DEFAULT_TOL):
        for (alpha, beta), c in self.entries.items():
            mirror = self.entries.get((beta, alpha), 0.0)
            if abs(mirror - c.conjugate()) > 10 * tol:
                raise ValueError(
                    f"Hermitian symmetry violated at ({alpha}, {beta}): "
                    f"{c} vs {mirror}")
            if alpha == beta and abs(c.imag) > 10 * tol:
                raise ValueError(f"diagonal entry at {alpha} is not real: {c}")

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, nvars: int) -> "HermitianForm":
        return cls(nvars, {})

    # ------------------------------------------------------------- arithmetic
    def _check_compatible(self, other: "HermitianForm"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        self._check_compatible(other)
        out = dict(self.entries)
        for key, c in other.entries.items():
            out[key] = out.get(key, 0.0) + c
        return HermitianForm._raw(self.nvars,
                                  {k: c for k, c in out.items()
                                   if abs(c) > COEFFICIENT_FLOOR})

    def __neg__(self) -> "HermitianForm":
        return HermitianForm._raw(self.nvars,
                                  {k: -c for k, c in self.entries.items()})

    def __sub__(self, other: "HermitianForm") -> "HermitianForm":
        return self + (-other)

    def __mul__(self, scalar) -> "HermitianForm":
        s = float(scalar)
        return HermitianForm._raw(self.nvars,
                                  {k: c * s for k, c in self.entries.items()
                                   if abs(c * s) > COEFFICIENT_FLOOR})

    __rmul__ = __mul__

    def product(self, other: "HermitianForm") -> "HermitianForm":
        """Pointwise product of the two forms as functions of (z, conj z)."""
        self._check_compatible(other)
        out: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        for (a1, b1), c1 in self.entries.items():
            for (a2, b2), c2 in other.entries.items():
                key = (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)))
                out[key] = out.get(key, 0.0) + c1 * c2
        return HermitianForm._raw(self.nvars,
                                  {k: c for k, c in out.items()
                                   if abs(c) > COEFFICIENT_FLOOR})

    # -------------------------------------------------------------- evaluation
    def evaluate(self, point: Sequence[complex]) -> complex:
        """Value sum c_{alpha beta} z^alpha conj(z)^beta at a point."""
        z = [complex(v) for v in point]
        zc = [v.conjugate() for v in z]
        acc = 0.0 + 0.0j
        for (alpha, beta), c in self.entries.items():
            term = c
            for v, e in zip(z, alpha):
                if e:
                    term *= v ** e
            for v, e in zip(zc, beta):
                if e:
                    term *= v ** e
            acc += term
        return acc

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        monos = sorted({a for a, _ in self.entries} | {b for _, b in self.entries})
        values = {}
        for alpha in monos:
            poly = Polynomial(self.nvars, {alpha: 1.0})
            values[alpha] = poly.evaluate_many(pts)
        acc = np.zeros(pts.shape[0], dtype=complex)
        for (alpha, beta), c in self.entries.items():
            acc += c * values[alpha] * np.conj(values[beta])
        return acc

    # ---------------------------------------------------------------- queries
    @property
    def is_zero(self) -> bool:
        return all(abs(c) <= DEFAULT_TOL for c in self.entries.values())

    def max_abs_entry(self) -> float:
        return max((abs(c) for c in self.entries.values()), default=0.0)

    def monomial_basis(self) -> list[MultiIndex]:
        """Sorted (descending) list of multi-indices appearing in the form."""
        seen = {a for a, _ in self.entries} | {b for _, b in self.entries}
        return sorted(seen, reverse=True)

    def as_matrix(self, basis: Sequence[MultiIndex] | None = None):
        """Dense Hermitian matrix over the given (default: own) monomial basis."""
        basis = list(basis) if basis is not None else self.monomial_basis()
        index = {alpha: i for i, alpha in enumerate(basis)}
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        for (alpha, beta), c in self.entries.items():
            mat[index[alpha], index[beta]] = c
        return basis, mat

    def allclose(self, other: "HermitianForm", tol: float = DEFAULT_TOL) -> bool:
        self._check_compatible(other)
        for key in set(self.entries) | set(other.entries):
            if abs(self.entries.get(key, 0.0) - other.entries.get(key, 0.0)) > tol:
                return False
        return True

    def __repr__(self):
        return f"HermitianForm({self.nvars}, {len(self.entries)} entries)"


def coefficient_matrix(polys: Sequence[Polynomial]):
    """(monomials, matrix) with one row per polynomial, one column per monomial.

    The monomials are the union support, lexicographically descending.  A
    linear map A applied to the polynomials is ``A @ matrix`` on these rows;
    ``polynomials_from_rows`` turns the product back into polynomials.
    """
    polys = list(polys)
    monos = sorted({alpha for p in polys for alpha in p.terms}, reverse=True)
    index = {alpha: j for j, alpha in enumerate(monos)}
    mat = np.zeros((len(polys), len(monos)), dtype=complex)
    for i, p in enumerate(polys):
        for alpha, c in p.terms.items():
            mat[i, index[alpha]] = c
    return monos, mat


def polynomials_from_rows(nvars: int, monomials: Sequence[MultiIndex],
                          matrix: np.ndarray) -> list[Polynomial]:
    """Inverse of ``coefficient_matrix``: one polynomial per row of the matrix.

    Entries at or below the storage floor are dropped, as in arithmetic.
    """
    return [Polynomial._raw(nvars, {alpha: c for alpha, c in zip(monomials, row)
                                    if abs(c) > COEFFICIENT_FLOOR})
            for row in np.asarray(matrix, dtype=complex).tolist()]


def squared_norm_form(components: Sequence[Polynomial]) -> HermitianForm:
    """Hermitian form of sum_i |p_i(z)|^2 for a vector of polynomials.

    Entry (alpha, beta) is the Hermitian inner product of the coefficient
    vectors attached to z^alpha and z^beta across the components, so the
    result is positive semidefinite as a matrix on its monomial basis.
    """
    comps = list(components)
    if not comps:
        raise ValueError("need at least one component")
    nvars = comps[0].nvars
    for p in comps:
        if p.nvars != nvars:
            raise ValueError("components must share the variable count")
    monos, coeff = coefficient_matrix(comps)
    if not monos:
        return HermitianForm.zero(nvars)
    gram = coeff.T @ coeff.conj()
    # |re| + |im| bounds the modulus from above, so this keeps, in row-major
    # order, every entry above the floor; the modulus test below decides.
    rows, cols = np.nonzero(np.abs(gram.real) + np.abs(gram.imag) > COEFFICIENT_FLOOR)
    entries = {}
    for i, j, value in zip(rows.tolist(), cols.tolist(), gram[rows, cols].tolist()):
        if abs(value) > COEFFICIENT_FLOOR:
            entries[(monos[i], monos[j])] = value
    return HermitianForm._raw(nvars, entries)


def properness_form(numerator: Sequence[Polynomial], denominator: Polynomial) -> HermitianForm:
    """The form of ||p||^2 - |q|^2; it vanishes on the sphere iff p/q maps it to it."""
    return squared_norm_form(numerator) - squared_norm_form([denominator])


@lru_cache(maxsize=None)
def _hyperplane_power(nvars: int, exponent: int) -> Polynomial:
    """(1 - x_1 - ... - x_{nvars-1})^exponent with the last variable unused."""
    base = Polynomial.one(nvars)
    for j in range(nvars - 1):
        base = base - Polynomial.variable(nvars, j)
    return base ** exponent


@lru_cache(maxsize=None)
def _hyperplane_table(nvars: int, top: int):
    """Term counts, exponents and weights of ``_hyperplane_power`` for 0..top.

    Row e of the (top+1, K, nvars) exponents and (top+1, K) real weights lists
    the terms of the e-th power in their stored order, padded to the longest.
    """
    powers = [_hyperplane_power(nvars, e).terms for e in range(top + 1)]
    counts = np.array([len(terms) for terms in powers])
    exps = np.zeros((top + 1, counts.max(), nvars), dtype=np.int64)
    weights = np.zeros((top + 1, counts.max()))
    for e, terms in enumerate(powers):
        exps[e, :counts[e]] = list(terms)
        weights[e, :counts[e]] = [h.real for h in terms.values()]
    for table in (counts, exps, weights):
        table.flags.writeable = False
    return counts, exps, weights


def _group_rows(keys: np.ndarray):
    """(distinct rows, index of each row's group) for an integer matrix."""
    order = np.lexsort(keys.T)
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    index = np.empty(len(keys), dtype=np.int64)
    index[order] = np.cumsum(starts) - 1
    return ordered[starts], index


def reduce_mod_sphere(form: HermitianForm) -> HermitianForm:
    """Remainder of a Hermitian form modulo the unit-sphere relation.

    Entries are grouped by the Fourier shift nu = alpha - beta.  For each
    shift, the radial polynomial sum_beta c_{beta+nu, beta} x^beta (with
    x_j = |z_j|^2) must vanish on the hyperplane sum x_j = 1; substituting
    x_n = 1 - sum_{j<n} x_j gives its remainder.  The returned form collects
    all remainders, re-encoded at the minimal monomial pair with the same
    shift.  It is the zero form (within tolerance) exactly when the input
    vanishes identically on the unit sphere; its largest entry is the
    reduction residual.

    The substitution runs on arrays over all entries at once; each remainder
    coefficient adds its contributions from zero in entry order, then in the
    term order of the hyperplane power, as a loop over the entries would.
    """
    n = form.nvars
    m = len(form.entries)
    if not m:
        return HermitianForm._raw(n, {})
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(form.entries)),
                        dtype=np.int64, count=2 * n * m).reshape(m, 2, n)
    coeffs = np.fromiter(form.entries.values(), dtype=complex, count=m)
    nu = pairs[:, 0] - pairs[:, 1]
    # Shifts below zero in lexicographic order are the conjugate mirrors of
    # shifts above it, so only nu >= 0 is reduced.
    keep = nu[np.arange(m), np.argmax(nu != 0, axis=1)] >= 0
    if not keep.any():
        return HermitianForm._raw(n, {})
    nu, beta, coeffs = nu[keep], pairs[keep, 1], coeffs[keep]
    power = beta[:, -1].copy()
    beta[:, -1] = 0
    counts, exps, weights = _hyperplane_table(n, int(power.max()))
    counts = counts[power]
    # One row per (entry, term of the entry's hyperplane power).
    entry = np.repeat(np.arange(len(power)), counts)
    term = np.arange(len(entry)) - np.repeat(np.cumsum(counts) - counts, counts)
    weight = weights[power[entry], term]
    keys, index = _group_rows(np.hstack([nu[entry],
                                         beta[entry] + exps[power[entry], term]]))
    real = np.bincount(index, weights=coeffs.real[entry] * weight, minlength=len(keys))
    imag = np.bincount(index, weights=coeffs.imag[entry] * weight, minlength=len(keys))
    out: dict[tuple[MultiIndex, MultiIndex], complex] = {}
    for k in np.flatnonzero(np.abs(real) + np.abs(imag) > COEFFICIENT_FLOOR).tolist():
        c = complex(real[k], imag[k])
        if abs(c) <= COEFFICIENT_FLOOR:
            continue
        shift, gamma = keys[k, :n], keys[k, n:]
        alpha = tuple((gamma + np.maximum(shift, 0)).tolist())
        beta_k = tuple((gamma + np.maximum(-shift, 0)).tolist())
        out[(alpha, beta_k)] = c
        if alpha != beta_k:
            out[(beta_k, alpha)] = c.conjugate()
    return HermitianForm._raw(n, out)

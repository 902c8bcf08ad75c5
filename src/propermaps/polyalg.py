"""Sparse multivariate polynomial and Hermitian-form arithmetic.

This is the algebra layer underneath everything else: polynomials with
complex coefficients indexed by exponent multi-indices, Hermitian forms stored
as Gram matrices over a monomial basis, and the reduction that decides
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
    """Hermitian coefficient matrix over a monomial basis.

    ``matrix[i, j]`` is the coefficient of z^alpha * conj(z)^beta for
    alpha = ``basis[i]`` and beta = ``basis[j]``; ``basis`` is a tuple of
    distinct multi-indices, lexicographically descending.  For a vector of
    polynomials with coefficient rows C over the basis, ||p||^2 is the Gram
    matrix C^T conj(C).  The constructor takes a dict {(alpha, beta): c} and
    enforces Hermitian symmetry entry(beta, alpha) == conj(entry(alpha, beta)),
    with real diagonal, within tolerance; ``entries`` gives such a dict back.
    """

    __slots__ = ("nvars", "basis", "matrix")

    def __init__(self, nvars: int,
                 entries: Mapping[tuple[MultiIndex, MultiIndex], complex] | None = None,
                 validate: bool = True):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean = {(tuple(int(e) for e in alpha), tuple(int(e) for e in beta)): complex(c)
                 for (alpha, beta), c in (entries or {}).items()}
        basis = tuple(sorted({alpha for pair in clean for alpha in pair}, reverse=True))
        if any(len(alpha) != nvars for alpha in basis):
            raise ValueError("multi-index length does not match nvars")
        index = {alpha: i for i, alpha in enumerate(basis)}
        matrix = np.zeros((len(basis), len(basis)), dtype=complex)
        for (alpha, beta), c in clean.items():
            if not cmath.isfinite(c):
                raise ValueError(f"entry {c} at ({alpha}, {beta}) is not finite")
            matrix[index[alpha], index[beta]] = c
        self._store(nvars, basis, matrix)
        if validate:
            self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("HermitianForm is immutable")

    def _store(self, nvars: int, basis: tuple, matrix: np.ndarray):
        matrix.flags.writeable = False
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _raw(cls, nvars: int, basis: tuple, matrix: np.ndarray) -> "HermitianForm":
        """Internal constructor for a basis tuple and its square matrix (no validation)."""
        form = object.__new__(cls)
        form._store(nvars, basis, matrix)
        return form

    def _validate(self, tol: float = DEFAULT_TOL):
        """Raise unless the matrix equals its conjugate transpose within 10 tol."""
        mat = self.matrix
        bad = np.argwhere(np.abs(mat - mat.conj().T) > 10 * tol)
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"Hermitian symmetry violated at ({self.basis[i]}, "
                             f"{self.basis[j]}): {mat[i, j]} vs {mat[j, i]}")

    # ------------------------------------------------------------- arithmetic
    def _aligned(self, other: "HermitianForm"):
        """(union basis, own matrix, other's matrix), both over the union basis."""
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        basis = tuple(sorted(set(self.basis) | set(other.basis), reverse=True))
        index = {alpha: i for i, alpha in enumerate(basis)}
        out = np.zeros((2, len(basis), len(basis)), dtype=complex)
        for k, form in enumerate((self, other)):
            own = [index[alpha] for alpha in form.basis]
            out[k][np.ix_(own, own)] = form.matrix
        return basis, out[0], out[1]

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        basis, a, b = self._aligned(other)
        return HermitianForm._raw(self.nvars, basis, a + b)

    def __sub__(self, other: "HermitianForm") -> "HermitianForm":
        basis, a, b = self._aligned(other)
        return HermitianForm._raw(self.nvars, basis, a - b)

    def __mul__(self, scalar) -> "HermitianForm":
        return HermitianForm._raw(self.nvars, self.basis, self.matrix * float(scalar))

    __rmul__ = __mul__

    # -------------------------------------------------------------- evaluation
    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Values sum c_{alpha beta} z^alpha conj(z)^beta at an (m, nvars) array."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError("points must have shape (m, nvars)")
        exps = np.array(self.basis, dtype=np.int64).reshape(-1, self.nvars)
        values = np.prod(pts[:, None, :] ** exps, axis=2)
        return np.einsum("pi,ij,pj->p", values, self.matrix, values.conj())

    # ---------------------------------------------------------------- queries
    @property
    def entries(self) -> dict:
        """A new dict {(alpha, beta): c} of the entries above the floor, row-major."""
        rows, cols = np.nonzero(np.abs(self.matrix) > COEFFICIENT_FLOOR)
        basis = self.basis
        return {(basis[i], basis[j]): c for i, j, c in
                zip(rows.tolist(), cols.tolist(), self.matrix[rows, cols].tolist())}

    @property
    def is_zero(self) -> bool:
        return self.max_abs_entry() <= DEFAULT_TOL

    def max_abs_entry(self) -> float:
        return float(np.abs(self.matrix).max(initial=0.0))

    def largest_entry(self):
        """(alpha, beta, c) of the first largest entry, row-major; None when empty."""
        if not self.basis:
            return None
        i, j = np.unravel_index(np.argmax(np.abs(self.matrix)), self.matrix.shape)
        return self.basis[i], self.basis[j], complex(self.matrix[i, j])

    def as_matrix(self):
        """(basis as a list, matrix): the dense Hermitian matrix over the basis."""
        return list(self.basis), self.matrix

    def allclose(self, other: "HermitianForm", tol: float = DEFAULT_TOL) -> bool:
        _, a, b = self._aligned(other)
        return not np.any(np.abs(a - b) > tol)

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


def gram_form(nvars: int, monomials: Sequence[MultiIndex], rows: np.ndarray,
              negated: int = 0) -> HermitianForm:
    """Form of ||A||^2 - ||B||^2 for the coefficient rows over ``monomials``:
    B is the last ``negated`` rows, A the others, and the matrix is the signed
    Gram matrix A^T conj(A) - B^T conj(B)."""
    head, tail = rows[:len(rows) - negated], rows[len(rows) - negated:]
    gram = head.T @ head.conj()
    if negated:
        gram -= tail.T @ tail.conj()
    return HermitianForm._raw(nvars, tuple(monomials), gram)


def _shared_nvars(components: Sequence[Polynomial]) -> int:
    counts = {p.nvars for p in components}
    if len(counts) != 1:
        raise ValueError("need at least one component, all with one variable count")
    return counts.pop()


def squared_norm_form(components: Sequence[Polynomial]) -> HermitianForm:
    """Hermitian form of sum_i |p_i(z)|^2 for a vector of polynomials.

    Its matrix is the Gram matrix of the coefficient columns over the union
    support, so it is positive semidefinite.
    """
    comps = list(components)
    return gram_form(_shared_nvars(comps), *coefficient_matrix(comps))


def properness_form(numerator: Sequence[Polynomial], denominator: Polynomial) -> HermitianForm:
    """The form of ||p||^2 - |q|^2; it vanishes on the sphere iff p/q maps it to it.

    One signed Gram matrix over the coefficient rows [*p, q], with q's row negated.
    """
    comps = [*numerator, denominator]
    return gram_form(_shared_nvars(comps), *coefficient_matrix(comps), negated=1)


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
    """(distinct rows in ascending lexicographic order, index of each row's group)."""
    order = np.lexsort(keys.T[::-1])
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

    The substitution runs on arrays over the entries above the storage floor,
    read in row-major order; each remainder coefficient adds its
    contributions from zero in that order, then in the term order of the
    hyperplane power, as a loop over ``form.entries`` would.
    """
    n = form.nvars
    rows, cols = np.nonzero(np.abs(form.matrix) > COEFFICIENT_FLOOR)
    basis = np.array(form.basis, dtype=np.int64).reshape(-1, n)
    nu = basis[rows] - basis[cols]
    # Shifts below zero in lexicographic order are the conjugate mirrors of
    # shifts above it, so only nu >= 0 is reduced.
    keep = nu[np.arange(len(nu)), np.argmax(nu != 0, axis=1)] >= 0
    nu, beta, coeffs = nu[keep], basis[cols[keep]], form.matrix[rows[keep], cols[keep]]
    power = beta[:, -1].copy()
    beta[:, -1] = 0
    counts, exps, weights = _hyperplane_table(n, int(power.max(initial=0)))
    counts = counts[power]
    # One row per (entry, term of the entry's hyperplane power).
    entry = np.repeat(np.arange(len(power)), counts)
    term = np.arange(len(entry)) - np.repeat(np.cumsum(counts) - counts, counts)
    weight = weights[power[entry], term]
    keys, index = _group_rows(np.hstack([nu[entry],
                                         beta[entry] + exps[power[entry], term]]))
    real = np.bincount(index, weights=coeffs.real[entry] * weight, minlength=len(keys))
    imag = np.bincount(index, weights=coeffs.imag[entry] * weight, minlength=len(keys))
    values = real + 1j * imag
    big = np.abs(values) > COEFFICIENT_FLOOR
    shift, gamma, values = keys[big, :n], keys[big, n:], values[big]
    pairs = np.vstack([gamma + np.maximum(shift, 0), gamma + np.maximum(-shift, 0)])
    monos, slot = _group_rows(pairs)
    slot = len(monos) - 1 - slot  # the basis is descending
    a, b = slot[:len(values)], slot[len(values):]
    out = np.zeros((len(monos), len(monos)), dtype=complex)
    out[b, a] = values.conj()
    out[a, b] = values
    return HermitianForm._raw(n, tuple(map(tuple, monos[::-1].tolist())), out)

"""Coefficient rows of polynomials, their products and Gram matrices.

This is the algebra layer underneath everything else: polynomials stored as
complex coefficient rows over a descending tuple of exponent multi-indices,
with ``Polynomial`` a read-only term-dict view of one row and
``multiply_rows`` the one product; Hermitian forms stored as Gram matrices
over a monomial basis (``signed_gram``); and the sphere reduction: the
Bernstein coefficients of each Fourier shift's radial polynomial on the
simplex sum |z_j|^2 = 1, which all vanish exactly when the Hermitian
polynomial vanishes identically on the unit sphere, and bound it there.

``HermitianForm`` is a plain value, a basis and its read-only matrix, that
``squared_norm_form`` and ``properness_form`` build and ``reduce_mod_sphere``
reduces.  Certification calls none of the three.  They stay as API, and for
the benchmark's tracer, which wraps them by name until it wraps the kernels.

Conventions
-----------
* A multi-index is a tuple of non-negative ints, one entry per variable.
  Monomials are ordered lexicographically descending, first variable most
  significant, so for two variables of degree 5 the order starts at (5, 0)
  and ends at (0, 5).
* Coefficients are double-precision complex numbers.  Comparisons, zero
  tests, and degrees use the global tolerance ``DEFAULT_TOL``; sparse storage
  keeps terms down to ``COEFFICIENT_FLOOR`` so repeated products cannot
  accumulate dropped mass into the comparison scale.
* All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _linalg
from .bounds import DEFAULT_TOL

#: Storage floor for sparse terms, well below the comparison tolerance so that
#: repeated products cannot accumulate dropped mass anywhere near it.
COEFFICIENT_FLOOR = 1e-14

#: Multiply-adds of a Gram product, R rows times M^2 for M columns, from
#: which ``normalized_gram_difference`` asks whether each row of a block has
#: at most one entry and no two rows share a column.  Below it the test and
#: the diagonal build, about ten numpy calls, cost more than the product: on
#: a 2-vCPU x86-64 host (numpy 2.4, OpenBLAS) they break even at about
#: 1.8e5, the 56 rows of the tensor power of degree 5 on B_4.
ORTHOGONAL_GRAM_MIN = 2 ** 17

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


def evaluate_rows(nvars: int, monomials: Sequence[MultiIndex], rows,
                  points: np.ndarray) -> np.ndarray:
    """(m, R) values at an (m, nvars) array of points of the R polynomials with
    coefficient ``rows`` over ``monomials``.  Powers are running products, and
    points go in blocks of about 2^14 monomial values (256 kB) each."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != nvars:
        raise ValueError("points must have shape (m, nvars)")
    exps = np.array(monomials, dtype=np.int64).reshape(-1, nvars)
    out = []
    for block in np.array_split(pts, len(pts) * len(exps) // 2 ** 14 + 1):
        out.append((np.asarray(rows, dtype=complex) @ _monomial_values(exps, block)).T)
    return np.vstack(out)


def _monomial_values(exps: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(L, m) values of the monomials with the (L, nvars) exponents ``exps``
    at an (m, nvars) array of points, from running products of powers."""
    values = 1.0
    for j in range(exps.shape[1]):
        powers = np.ones((exps[:, j].max(initial=0) + 1, len(points)), dtype=complex)
        for e in range(1, len(powers)):
            powers[e] = powers[e - 1] * points[:, j]
        values = values * powers[exps[:, j]]
    return values


class Polynomial:
    """Sparse polynomial in ``nvars`` complex variables, a read-only view.

    ``terms`` maps exponent multi-indices to complex coefficients; sums and
    products are taken on coefficient rows (``coefficient_matrix``,
    ``multiply_rows``), not on these views.  Terms at or below the storage
    floor are dropped on construction; terms at or below the comparison
    tolerance are stored but treated as invisible by the tolerance-aware
    views (``degree``, ``is_zero``, ``significant_terms``), so floating noise
    never influences structural decisions.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, complex] | None = None,
                 tol: float = COEFFICIENT_FLOOR):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        terms = terms or {}
        # One integer array checks the shape and sign of every exponent and
        # one isfinite every coefficient; the per-term loop runs only when the
        # arrays do not pass, to name the offending term, or the terms do not
        # form such arrays (no terms, ragged tuples, non-integer exponents).
        valid = False
        try:
            exps, values = np.array(list(terms)), np.array(list(terms.values()))
            valid = (exps.dtype.kind in "iu" and exps.shape == (len(terms), nvars)
                     and values.dtype.kind in "biufc" and values.shape == (len(terms),)
                     and bool((exps >= 0).all()) and bool(np.isfinite(values).all()))
        except (TypeError, ValueError, OverflowError):
            pass
        if valid:
            values = values.astype(complex)
            keep = np.abs(values) > tol
            clean = dict(zip(map(tuple, exps[keep].tolist()), values[keep].tolist()))
        else:
            clean = self._checked_terms(nvars, terms, tol)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _checked_terms(nvars: int, terms: Mapping, tol: float) -> dict:
        """The terms above ``tol``, checked one by one; the first bad term raises."""
        clean: dict[MultiIndex, complex] = {}
        for alpha, coeff in terms.items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != nvars:
                raise ValueError(f"exponent tuple {alpha} does not match nvars={nvars}")
            if min(alpha) < 0:
                raise ValueError(f"negative exponent in {alpha}")
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} of {alpha} is not finite")
            if abs(c) > tol:
                clean[alpha] = c
        return clean

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
    def monomial(cls, exponents: Iterable[int], coeff: complex = 1.0) -> "Polynomial":
        exps = tuple(int(e) for e in exponents)
        return cls(len(exps), {exps: coeff})

    # ------------------------------------------------------------- properties
    def significant_terms(self) -> dict:
        """Terms whose coefficient magnitude exceeds the comparison tolerance."""
        return {a: c for a, c in self.terms.items() if abs(c) > DEFAULT_TOL}

    @property
    def degree(self):
        """Max total degree over terms above tolerance; -inf when none remain."""
        degs = [total_degree(a) for a, c in self.terms.items()
                if abs(c) > DEFAULT_TOL]
        return max(degs) if degs else ZERO_DEGREE

    @property
    def is_zero(self) -> bool:
        return all(abs(c) <= DEFAULT_TOL for c in self.terms.values())

    def constant_term(self) -> complex:
        return self.terms.get((0,) * self.nvars, 0.0 + 0.0j)

    def sorted_terms(self) -> list[tuple[MultiIndex, complex]]:
        """Terms sorted lexicographically descending (first variable highest)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # -------------------------------------------------------------- evaluation
    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (m, nvars) array of complex points; returns shape (m,)."""
        return evaluate_rows(self.nvars, list(self.terms), [list(self.terms.values())],
                             points)[:, 0]

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


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Hermitian coefficient matrix over a monomial basis, a plain value:
    ``matrix[i, j]``, made read-only, is the coefficient of z^alpha *
    conj(z)^beta for alpha = ``basis[i]`` and beta = ``basis[j]``; ``basis``
    is a tuple of distinct multi-indices, lexicographically descending."""

    nvars: int
    basis: tuple
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @property
    def entries(self) -> dict:
        """A new dict {(alpha, beta): c} of the entries above the floor, row-major."""
        rows, cols = np.nonzero(np.abs(self.matrix) > COEFFICIENT_FLOOR)
        basis = self.basis
        return {(basis[i], basis[j]): c for i, j, c in
                zip(rows.tolist(), cols.tolist(), self.matrix[rows, cols].tolist())}


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
    sizes = [len(p.terms) for p in polys]
    count = sum(sizes)
    columns = np.fromiter((index[alpha] for p in polys for alpha in p.terms), np.intp, count)
    mat[np.repeat(np.arange(len(polys)), sizes), columns] = np.fromiter(
        (c for p in polys for c in p.terms.values()), complex, count)
    return monos, mat


def polynomials_from_rows(nvars: int, monomials: Sequence[MultiIndex],
                          matrix: np.ndarray) -> list[Polynomial]:
    """Inverse of ``coefficient_matrix``: one polynomial per row of the matrix.

    Entries at or below the storage floor ``COEFFICIENT_FLOOR`` are dropped;
    the others are found by one comparison of the whole matrix, of the
    moduli that Python's abs of a complex takes (``np.abs`` rounds some
    apart).
    """
    matrix = np.asarray(matrix, dtype=complex)
    terms = [{} for _ in range(len(matrix))]
    rows, columns = np.nonzero(np.hypot(matrix.real, matrix.imag) > COEFFICIENT_FLOOR)
    for i, j, c in zip(rows.tolist(), columns.tolist(), matrix[rows, columns].tolist()):
        terms[i][monomials[j]] = c
    return [Polynomial._raw(nvars, row) for row in terms]


def canonical_rows(support: Sequence[MultiIndex], rows: np.ndarray):
    """(support, rows) with the entries at or below the storage floor
    ``COEFFICIENT_FLOOR`` set to zero and the columns left without an entry
    dropped.  ``rows`` is (R, M) or a (T, R, M) stack, whose columns are
    dropped where no slice has an entry."""
    rows = np.array(rows, dtype=complex)
    rows[np.abs(rows) <= COEFFICIENT_FLOOR] = 0.0
    live = rows.any(axis=tuple(range(rows.ndim - 1)))
    if live.all():
        return tuple(support), rows
    return tuple(a for a, keep in zip(support, live.tolist()) if keep), rows[..., live]


def align_rows(*blocks):
    """(support, matrices): the rows of each (support, rows) block placed on
    the descending union of the supports, zero where a block has no column;
    a row's entries keep their order, so its sums add the same terms."""
    supports = [tuple(support) for support, _ in blocks]
    if all(support == supports[0] for support in supports[1:]):
        return supports[0], [np.asarray(rows, dtype=complex) for _, rows in blocks]
    union = tuple(sorted(set().union(*supports), reverse=True))
    index = {alpha: j for j, alpha in enumerate(union)}
    out = []
    for support, (_, rows) in zip(supports, blocks):
        rows = np.asarray(rows, dtype=complex)
        full = np.zeros((len(rows), len(union)), dtype=complex)
        full[:, [index[alpha] for alpha in support]] = rows
        out.append(full)
    return union, out


def _mask_groups(mask: np.ndarray):
    """(indices, row) for each distinct row of a (T, ...) array, such as a
    boolean (T, L) mask, in order of first appearance: the indices of the
    rows whose bytes equal its, ascending."""
    if len(mask) == 1:
        yield [0], mask[0]
        return
    groups = {}
    for k, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(k)
    for members in groups.values():
        yield members, mask[members[0]]


def signed_gram(rows: np.ndarray, negated: int = 0) -> np.ndarray:
    """The signed Gram matrix A^T conj(A) - B^T conj(B) of (R, M) coefficient
    rows, B the last ``negated`` rows and A the others; for a (T, R, M) stack,
    the (T, M, M) stack of the matrices, each the one of its slice.

    A's Grams are one stacked product (``_gram``).  B's Gram is built, and
    subtracted, only on the columns where B has an entry, one product per
    distinct set of such columns among the slices, as for a denominator
    q = 1 with a single entry; when B has an entry in every column, the
    product is the full one.  A monomial map, whose Gram is diagonal, is
    certified without one (``radial_residuals``).
    """
    rows = np.asarray(rows)
    stack = rows.reshape((math.prod(rows.shape[:-2]),) + rows.shape[-2:])
    split = stack.shape[1] - negated
    gram = _gram(stack[:, :split])
    if negated:
        tail = stack[:, split:]
        live = tail.any(axis=1)
        if live.all():
            gram -= _gram(tail)
        else:
            for members, own in _mask_groups(live):
                columns = np.flatnonzero(own)
                gram[np.ix_(members, columns, columns)] -= _gram(tail[members][:, :, columns])
    return gram.reshape(rows.shape[:-2] + gram.shape[1:])


def _diagonal_grams(stack: np.ndarray) -> list:
    """For each (R, M) slice of a (T, R, M) stack, whether its Gram is the
    diagonal of its entries' squared moduli and worth building as one: the
    product takes at least ORTHOGONAL_GRAM_MIN multiply-adds, and each row
    and each column has at most one entry (``_linalg.orthogonal_rows`` of
    the slice and of its transpose), as for the rows of a monomial map."""
    count, rows, size = stack.shape
    if rows * size * size < ORTHOGONAL_GRAM_MIN:
        return [False] * count
    return (_linalg.orthogonal_rows(stack)
            & _linalg.orthogonal_rows(stack.swapaxes(1, 2))).tolist()


def normalized_gram_difference(a: np.ndarray, b: np.ndarray):
    """(gram, norms) of two blocks of coefficient rows over one support, A
    (R, M) and B (S, M): ``norms`` holds sqrt(H_jj), H = A^T conj(A) +
    B^T conj(B), and ``gram`` is A^T conj(A) - B^T conj(B) with entry (i, j)
    divided by norms_i norms_j, or 0 in a column with no entry.

    The squared norms are read once through the blocks' real views.  Each
    block is scaled column by column by 1 / norms_j, and the two Grams
    accumulate in one (M, M) matrix: a block whose Gram is a diagonal
    (``_diagonal_grams``) adds only that diagonal, and another adds one
    dense product.
    """
    squares = []
    for rows in (a, b):
        parts = np.ascontiguousarray(rows).view(float)
        squares.append(np.einsum("ij,ij->j", parts, parts).reshape(-1, 2).sum(axis=1))
    norms = np.sqrt(squares[0] + squares[1])
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    size = len(norms)
    gram, diagonal = None, np.zeros(size)
    for rows, square, sign in ((a, squares[0], 1.0), (b, squares[1], -1.0)):
        if _diagonal_grams(rows[None])[0]:
            diagonal += sign * square
            continue
        scaled = rows * scale
        product = scaled.T @ scaled.conj()
        if gram is None:
            gram = product if sign > 0 else np.negative(product, out=product)
        else:
            gram -= product
    if gram is None:
        gram = np.zeros((size, size), dtype=complex)
    gram.reshape(-1)[::size + 1] += diagonal * scale * scale
    return gram, norms


def _gram(stack: np.ndarray) -> np.ndarray:
    """A^T conj(A) for each (R, M) slice A of a (T, R, M) stack, one stacked
    product."""
    return stack.swapaxes(1, 2) @ stack.conj()


def _form(components: list, negated: int) -> HermitianForm:
    """The form of the signed Gram of the components' coefficient rows over
    their union support (``signed_gram``), the last ``negated`` negated."""
    counts = {p.nvars for p in components}
    if len(counts) != 1:
        raise ValueError("need at least one component, all with one variable count")
    monomials, rows = coefficient_matrix(components)
    return HermitianForm(counts.pop(), tuple(monomials), signed_gram(rows, negated))


def squared_norm_form(components: Sequence[Polynomial]) -> HermitianForm:
    """Hermitian form of sum_i |p_i(z)|^2 for a vector of polynomials: the
    Gram matrix of their coefficient rows, so it is positive semidefinite."""
    return _form(list(components), 0)


def properness_form(numerator: Sequence[Polynomial], denominator: Polynomial) -> HermitianForm:
    """The form of ||p||^2 - |q|^2; it vanishes on the sphere iff p/q maps it
    to it: one signed Gram over the rows [*p, q], with q's row negated."""
    return _form([*numerator, denominator], 1)


def _group_rows(keys: np.ndarray):
    """(distinct rows in ascending lexicographic order, index of each row's group)."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    index = np.empty(len(keys), dtype=np.int64)
    index[order] = np.cumsum(starts) - 1
    return ordered[starts], index


def _descending(nvars: int, keys: np.ndarray):
    """(distinct rows as a descending tuple of multi-indices, each row's slot)."""
    rows, index = _group_rows(keys.reshape(-1, nvars))
    return tuple(map(tuple, rows[::-1].tolist())), len(rows) - 1 - index


# A map-certify pass reads 21 tables and a family-grid pass 8 (seeds 3 and
# 41), so 32 hold either pass.  The bound counts tables, not bytes: the
# table for (nvars, top) = (3, 40) takes 1.7 MB and for (4, 20) 2.4 MB, so
# 77 MB at worst for 32 of the latter size; larger keys take more.
@lru_cache(maxsize=32)
def _degree_table(nvars: int, top: int):
    """(counts, monomials, multinomials, tails, binomials) for degrees 0..top:
    row e of the (top+1, K, nvars) monomials and (top+1, K) multinomials
    lists ``monomials_of_degree(nvars, e)`` and float(multinomial(e, .)).
    By the hockey-stick identity a monomial's rank in its degree is the sum
    over k < nvars - 1 of binomials[k][t_k] = C(t_k + k, k + 1), t_k the
    sum of its last k + 1 exponents, ``tails[k]`` at its flat cell."""
    counts = np.array([math.comb(e + nvars - 1, nvars - 1) for e in range(top + 1)])
    monos = np.zeros((top + 1, counts.max(), nvars), dtype=np.int64)
    weights = np.zeros((top + 1, counts.max()))
    for e in range(top + 1):
        row = monomials_of_degree(nvars, e)
        monos[e, :counts[e]] = row
        weights[e, :counts[e]] = [float(multinomial(e, alpha)) for alpha in row]
    tails = np.cumsum(monos.reshape(-1, nvars)[:, :0:-1], axis=1).T.copy()
    binomials = [np.array([math.comb(t + k, k + 1) for t in range(top + 1)])
                 for k in range(nvars - 1)]
    for table in (counts, monos, weights, tails, *binomials):
        table.flags.writeable = False
    return counts, monos, weights, tails, binomials


def _elevate(nvars: int, gamma: np.ndarray, degree: np.ndarray):
    """(entry, rank, weight): x^gamma (sum x_j)^(D - |gamma|) in the Bernstein
    basis of degree D, for each row gamma of the (P, nvars) array ``gamma``
    and its D in ``degree``.  Per contribution, in row order and then in the
    ``monomials_of_degree`` order of delta, |delta| = D - |gamma|: the row,
    the rank of kappa = gamma + delta among the monomials of degree D and the
    weight multinomial(D - |gamma|, delta) / multinomial(D, kappa) in (0, 1]."""
    counts, monos, multinomials, tails, binomials = _degree_table(
        nvars, int(degree.max(initial=0)))
    # One contribution per (row, delta); delta is the table's flat cell.
    extra = degree - gamma.sum(axis=1)
    repeats = counts[extra]
    entry = np.repeat(np.arange(len(extra)), repeats)
    cell = (np.arange(len(entry)) - np.repeat(np.cumsum(repeats) - repeats, repeats)
            + (extra * monos.shape[1])[entry])
    own = np.cumsum(gamma[:, :0:-1], axis=1).T
    rank = sum((binomials[k][own[k][entry] + tails[k][cell]] for k in range(nvars - 1)),
               np.zeros(len(entry), dtype=np.int64))
    return entry, rank, multinomials.ravel()[cell] / multinomials[degree[entry], rank]


# A family-grid pass reduces 18 bases in full and a map-certify pass 9 (seed
# 3; the monomial maps read only ``_radial_plan``), so 64 plans hold either
# pass; the largest of these takes 0.84 MB (see README).
@lru_cache(maxsize=64)
def _bernstein_plan(nvars: int, basis: tuple):
    """Index work of ``reduce_mod_sphere`` over one basis: (source, weight,
    key, alpha, beta).

    A pair i <= j has the shift nu = alpha_i - alpha_j >= 0 (the basis
    descends) and gamma = min(alpha_i, alpha_j); D_nu is the largest |gamma|
    of the basis pairs with shift nu.  The pair adds to each key (nu, kappa),
    kappa = gamma + delta and |delta| = D_nu - |gamma|, with the weight
    multinomial(D_nu - |gamma|, delta) / multinomial(D_nu, kappa) in (0, 1]:
    per contribution, in row-major pair order and then in the
    ``monomials_of_degree`` order of delta (``_elevate``), the flat matrix
    position read, the weight and the key.  Keys are numbered in the
    row-major order of their pairs (kappa + max(nu, 0), kappa + max(-nu, 0))
    in the reduced form.  The shift-0 contributions, those of the diagonal
    pairs, are also ``_radial_plan``'s.
    """
    n, size = nvars, len(basis)
    exps = np.array(basis, dtype=np.int64).reshape(-1, n)
    rows, cols = np.triu_indices(size)
    gamma = np.minimum(exps[rows], exps[cols])
    shifts, shift = _group_rows(exps[rows] - exps[cols])
    top = np.zeros(len(shifts), dtype=np.int64)
    np.maximum.at(top, shift, gamma.sum(axis=1))
    entry, rank, weight = _elevate(n, gamma, top[shift])
    counts, monos = _degree_table(n, int(top.max(initial=0)))[:2]
    shift = shift[entry]
    sizes = counts[top]
    start = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(shifts)), sizes)
    kappa = monos[top[owner], np.arange(len(owner)) - start[owner]]
    pairs, ascending = _group_rows(np.hstack([kappa + np.maximum(shifts[owner], 0),
                                              kappa + np.maximum(-shifts[owner], 0)]))
    plan = ((rows * size + cols)[entry].astype(np.int32), weight,
            (len(pairs) - 1 - ascending[start[shift] + rank]).astype(np.int32),
            pairs[::-1, :n], pairs[::-1, n:])
    for array in plan:
        array.flags.writeable = False
    return plan


# Every certified block reads one for its scale, so a pass reads as many
# radial plans as bases: 28 for map-certify and 25 for family-grid (seed
# 3), so 64 hold either pass.  The largest of these takes 24 kB.
@lru_cache(maxsize=64)
def _radial_plan(nvars: int, basis: tuple):
    """Index work of the shift-0 Bernstein coefficients over one basis, read
    from its diagonal alone: (columns, slots, terms, kappa).  The radial
    polynomial sum_alpha w_alpha x^alpha of a diagonal w is raised to D, the
    largest degree of the basis; per contribution, in basis order and then
    in the ``monomials_of_degree`` order of delta (``_elevate``), the basis
    column read, the slot of its key kappa and the weight.  ``kappa`` lists
    the keys by slot, descending, so that the pair (kappa, kappa) of each is
    in the row-major order of ``reduce_mod_sphere``'s pairs.  These are
    ``_bernstein_plan``'s contributions of the diagonal pairs, in its order,
    so each key adds the same terms in the same order.
    """
    exps = np.array(basis, dtype=np.int64).reshape(-1, nvars)
    top = int(exps.sum(axis=1).max(initial=0))
    columns, slots, terms = _elevate(nvars, exps, np.full(len(exps), top))
    counts, monos = _degree_table(nvars, top)[:2]
    plan = (columns, slots, terms, monos[top, :counts[top]].copy())
    for array in plan:
        array.flags.writeable = False
    return plan


def _bernstein(nvars: int, basis: tuple, matrices: np.ndarray):
    """(values, alpha, beta): the Bernstein coefficients of each matrix of a
    (T, M, M) stack over ``basis`` at the plan's keys, whose pairs are
    (alpha, beta); each adds its terms from zero, in plan order."""
    source, weight, key, alpha, beta = _bernstein_plan(nvars, basis)
    count, keys = len(matrices), len(alpha)
    coeffs = matrices.reshape(count, -1)[:, source]
    # One bincount for the stack: matrix t's keys are offset by t * keys.
    index = (key + keys * np.arange(count)[:, None]).ravel()
    values = np.empty(count * keys, dtype=complex)
    values.real = np.bincount(index, (coeffs.real * weight).ravel(), count * keys)
    values.imag = np.bincount(index, (coeffs.imag * weight).ravel(), count * keys)
    return values.reshape(count, keys), alpha, beta


def reduce_mod_sphere(form: HermitianForm) -> HermitianForm:
    """The Bernstein coefficients of a Hermitian form on the unit sphere.

    Entries are grouped by shift nu = alpha - beta.  Each shift's radial
    polynomial sum c_{alpha beta} x^gamma (gamma = min(alpha, beta), x_j =
    |z_j|^2) times (sum x_j)^(D - |gamma|) has, over multinomial(D, kappa),
    the Bernstein coefficients b_{nu,kappa} at the shift's degree D.  On the
    simplex sum x_j = 1 the radial polynomial is a convex combination of
    them, so the form vanishes on the sphere exactly when all are zero, and
    is bounded there by the sum over nu, of both signs, of max |b_{nu,kappa}|.
    The result holds b_{nu,kappa} above the storage floor at (kappa +
    max(nu, 0), kappa + max(-nu, 0)), the conjugate at the mirror pair.  The
    plan is cached per basis (``_bernstein_plan``); a call is one gather and
    two bincounts.
    """
    values, alpha, beta = _bernstein(form.nvars, form.basis, form.matrix[None])
    big = np.abs(values[0]) > COEFFICIENT_FLOOR
    values = values[0, big]
    monos, slot = _descending(form.nvars, np.vstack([alpha[big], beta[big]]))
    a, b = slot[:len(values)], slot[len(values):]
    out = np.zeros((len(monos), len(monos)), dtype=complex)
    out[b, a] = values.conj()
    out[a, b] = values
    return HermitianForm(form.nvars, monos, out)


def _largest(values: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """(residuals, worst) of a (T, K) array of Bernstein coefficients at the
    keys whose pairs are (alpha, beta), in row-major order: each row's
    largest modulus, zero at or below the storage floor, and the pair of its
    first largest key (None where the residual is zero)."""
    sizes = np.abs(values)
    residuals = sizes.max(axis=1, initial=0.0)
    residuals[residuals <= COEFFICIENT_FLOOR] = 0.0
    pick = sizes.argmax(axis=1).tolist() if sizes.shape[1] else [0] * len(sizes)
    worst = [None if residual == 0.0 else (tuple(alpha[k].tolist()), tuple(beta[k].tolist()))
             for residual, k in zip(residuals.tolist(), pick)]
    return residuals, worst


def sphere_residuals(nvars: int, basis: tuple, matrices: np.ndarray):
    """(residuals, worst): for each matrix of a (T, M, M) stack over ``basis``,
    the largest modulus of its Bernstein coefficients (``reduce_mod_sphere``),
    zero at or below the storage floor, and the pair of the first largest in
    the row-major order of the keys' pairs (None where zero)."""
    return _largest(*_bernstein(nvars, basis, matrices))


def _radial(nvars: int, basis: tuple, diagonals: np.ndarray):
    """(values, kappa): the shift-0 Bernstein coefficients of each row of a
    (T, M) real array, the diagonal of a matrix over ``basis``, at the keys
    ``kappa`` of ``_radial_plan``; each adds its terms from zero, in plan
    order, with one bincount for the stack."""
    columns, slots, terms, kappa = _radial_plan(nvars, basis)
    index = (slots + len(kappa) * np.arange(len(diagonals))[:, None]).ravel()
    values = np.bincount(index, weights=(diagonals[:, columns] * terms).ravel(),
                         minlength=len(diagonals) * len(kappa))
    return values.reshape(len(diagonals), len(kappa)), kappa


def radial_residuals(nvars: int, basis: tuple, diagonals: np.ndarray):
    """(residuals, worst) as ``sphere_residuals`` gives them for diagonal
    matrices, from the (T, M) real array of their diagonals over ``basis``:
    a diagonal matrix, such as a monomial map's Gram, has only shift 0, so
    its Bernstein coefficients are the radial plan's (``_radial_plan``) and
    the sum over shifts that bounds it on the sphere is its residual.  A
    coefficient adds the terms it adds in ``sphere_residuals``, in the same
    order, so both give a matrix the same residual and pair; no matrix and
    no full plan are built."""
    values, kappa = _radial(nvars, basis, diagonals)
    return _largest(values, kappa, kappa)


def sphere_scales(nvars: int, basis: tuple, weights: np.ndarray) -> np.ndarray:
    """For each row w of a (T, M) array of non-negative weights over
    ``basis``, the largest shift-0 Bernstein coefficient of sum_alpha
    w_alpha x^alpha, which bounds it on the simplex: for w = |q_alpha|^2,
    the mean of |q|^2 over the phases of z; 1 for q = 1.  It reads the
    radial plan alone (``_radial``)."""
    return _radial(nvars, basis, weights)[0].max(axis=1, initial=0.0)


# A family-grid pass multiplies over 28 distinct pairs of supports (tensor
# steps and denominators rebuilt from their factors), whose plans take 10 kB
# together; 64 plans hold a pass.
@lru_cache(maxsize=64)
def _product_plan(nvars: int, left_monos: tuple, right_monos: tuple):
    """(support, columns): the exponent sums of the two supports, descending,
    and the support column of each (left, right) pair, left-major."""
    left = np.array(left_monos, dtype=np.int64).reshape(-1, nvars)
    right = np.array(right_monos, dtype=np.int64).reshape(-1, nvars)
    monos, column = _descending(nvars, left[:, None, :] + right[None, :, :])
    column.flags.writeable = False
    return monos, column


def multiply_rows(nvars: int, left_monos: Sequence[MultiIndex], left: np.ndarray,
                  right_monos: Sequence[MultiIndex], right: np.ndarray):
    """(monomials, matrix) whose row k is the product of the polynomials with
    coefficient rows ``left[k]`` over ``left_monos`` and ``right[k]`` over
    ``right_monos``.

    The monomials are the exponent sums of the two supports, descending.
    Each coefficient adds its products from zero, left column by left
    column, with the rounding of Python's complex product, so it equals the
    term-by-term product of two term dicts stored in the order of
    ``left_monos`` and ``right_monos``.  Entries at or below the storage
    floor are kept; ``canonical_rows`` drops them.
    """
    monos, column = _product_plan(nvars, tuple(left_monos), tuple(right_monos))
    left = np.asarray(left, dtype=complex)[:, :, None]
    right = np.asarray(right, dtype=complex)[:, None, :]
    count = len(left)
    # The real form of the product: numpy's complex multiply may fuse it.
    real = (left.real * right.real - left.imag * right.imag).reshape(count, -1)
    imag = (left.real * right.imag + left.imag * right.real).reshape(count, -1)
    index = (column + len(monos) * np.arange(count)[:, None]).ravel()
    size = count * len(monos)
    out = (np.bincount(index, weights=real.ravel(), minlength=size)
           + 1j * np.bincount(index, weights=imag.ravel(), minlength=size))
    return monos, out.reshape(count, len(monos))

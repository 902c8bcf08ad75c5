"""Reference polynomial arithmetic for the tests, on term dicts.

Sums, products, powers, values and coefficient distances of ``Polynomial``
views, computed term by term from their dicts, and Hermitian forms as dicts
{(alpha, beta): c} with their values and their Bernstein coefficients on the
unit sphere.  Nothing here goes through the coefficient-row kernels of
``propermaps.polyalg`` (``multiply_rows``, ``align_rows``, ``signed_gram``)
or the plans of its sphere reduction (``_bernstein_plan``, ``_radial_plan``,
``_elevate``), so the tests can use it as an independent oracle for them.
A number in a sum or product stands for the constant polynomial; terms at
or below the storage floor are dropped after each step.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from propermaps.polyalg import COEFFICIENT_FLOOR, Polynomial


def var(nvars: int, index: int) -> Polynomial:
    """The coordinate polynomial z_index (0-based) in ``nvars`` variables."""
    return Polynomial.monomial([int(j == index) for j in range(nvars)])


def _terms(item, nvars: int) -> dict:
    if isinstance(item, Polynomial):
        if item.nvars != nvars:
            raise ValueError(f"variable count mismatch: {item.nvars} vs {nvars}")
        return item.terms
    return {(0,) * nvars: complex(item)}


def _nvars(items) -> int:
    return next(item.nvars for item in items if isinstance(item, Polynomial))


def _floored(terms: dict) -> dict:
    return {a: c for a, c in terms.items() if abs(c) > COEFFICIENT_FLOOR}


def add(*items) -> Polynomial:
    """The sum of polynomials and numbers, at least one a polynomial, added
    from the left."""
    nvars = _nvars(items)
    out = _floored(_terms(items[0], nvars))
    for item in items[1:]:
        for alpha, c in _terms(item, nvars).items():
            out[alpha] = out.get(alpha, 0.0) + c
        out = _floored(out)
    return Polynomial._raw(nvars, out)


def sub(left, right) -> Polynomial:
    """left - right."""
    nvars = _nvars((left, right))
    return add(left, Polynomial._raw(nvars, {a: -c for a, c in _terms(right, nvars).items()}))


def mul(*items) -> Polynomial:
    """The product of polynomials and numbers, at least one a polynomial,
    multiplied from the left, each coefficient summed term by term."""
    nvars = _nvars(items)
    out = _floored(_terms(items[0], nvars))
    for item in items[1:]:
        product: dict = {}
        for a, ca in out.items():
            for b, cb in _terms(item, nvars).items():
                key = tuple(x + y for x, y in zip(a, b))
                product[key] = product.get(key, 0.0) + ca * cb
        out = _floored(product)
    return Polynomial._raw(nvars, out)


def power(p: Polynomial, exponent: int) -> Polynomial:
    """p ** exponent by repeated multiplication."""
    return mul(Polynomial.one(p.nvars), *[p] * exponent)


def value(p: Polynomial, point) -> complex:
    """p at one point, summed term by term."""
    if len(point) != p.nvars:
        raise ValueError("point dimension mismatch")
    acc = 0.0 + 0.0j
    for alpha, c in p.terms.items():
        term = c
        for z, e in zip(point, alpha):
            if e:
                term *= complex(z) ** e
        acc += term
    return acc


def distance(a: Polynomial, b: Polynomial) -> float:
    """Largest coefficient difference over the union of the two supports."""
    if a.nvars != b.nvars:
        raise ValueError(f"variable count mismatch: {a.nvars} vs {b.nvars}")
    return max((abs(a.terms.get(alpha, 0.0) - b.terms.get(alpha, 0.0))
                for alpha in a.terms.keys() | b.terms.keys()), default=0.0)


def largest(p: Polynomial) -> float:
    """The largest coefficient modulus of p, 0 for the zero polynomial."""
    return max((abs(c) for c in p.terms.values()), default=0.0)


# ----------------------------------------------------------- Hermitian forms
def support(*polys: Polynomial) -> tuple:
    """The union of the polynomials' supports, lexicographically descending."""
    return tuple(sorted({alpha for p in polys for alpha in p.terms}, reverse=True))


def form(positive, negative=()) -> dict:
    """The entries {(alpha, beta): c} of sum_p |p|^2 - sum_r |r|^2 over the
    polynomials ``positive`` and ``negative``: each pair of terms of one
    polynomial adds c_alpha conj(c_beta), or subtracts it."""
    out: dict = {}
    for sign, polys in ((1.0, positive), (-1.0, negative)):
        for p in polys:
            for (alpha, a), (beta, b) in itertools.product(p.terms.items(), repeat=2):
                out[alpha, beta] = out.get((alpha, beta), 0.0) + sign * a * b.conjugate()
    return out


def form_value(entries: dict, point) -> complex:
    """sum c z^alpha conj(z)^beta at one point, summed term by term."""
    acc = 0.0 + 0.0j
    for (alpha, beta), c in entries.items():
        term = c
        for z, a, b in zip(point, alpha, beta):
            term *= complex(z) ** a * complex(z).conjugate() ** b
        acc += term
    return acc


def _multinomial(degree: int, alpha) -> int:
    out = math.factorial(degree)
    for e in alpha:
        out //= math.factorial(e)
    return out


def _of_degree(nvars: int, degree: int) -> list:
    """The multi-indices of one total degree, lexicographically descending."""
    return sorted((a for a in itertools.product(range(degree + 1), repeat=nvars)
                   if sum(a) == degree), reverse=True)


def sphere_coefficients(basis, entries: dict) -> dict:
    """The Bernstein coefficients of the Hermitian form with ``entries`` over
    ``basis`` on the unit sphere, as ``reduce_mod_sphere`` lays them out.

    Term by term: each entry c at (alpha, beta) with alpha >= beta, in
    row-major order (the basis descends), adds c times multinomial(D -
    |gamma|, delta) / multinomial(D, gamma + delta) to the key (nu, gamma +
    delta) for each delta of degree D - |gamma|, lexicographically
    descending; nu = alpha - beta, gamma = min(alpha, beta) and D is the
    largest |gamma| of the basis pairs with shift nu.  The result holds the
    sums above the storage floor at (kappa + max(nu, 0), kappa + max(-nu,
    0)), and their conjugates at the mirror pairs.
    """
    top: dict = {}
    for alpha, beta in itertools.product(basis, repeat=2):
        nu = tuple(a - b for a, b in zip(alpha, beta))
        top[nu] = max(top.get(nu, 0), sum(map(min, alpha, beta)))
    acc: dict = {}
    for alpha, beta in sorted(entries, reverse=True):
        c = complex(entries[alpha, beta])
        if alpha < beta or c == 0:
            continue
        nu = tuple(a - b for a, b in zip(alpha, beta))
        gamma = tuple(map(min, alpha, beta))
        extra = top[nu] - sum(gamma)
        for delta in _of_degree(len(nu), extra):
            kappa = tuple(g + d for g, d in zip(gamma, delta))
            w = float(_multinomial(extra, delta)) / float(_multinomial(top[nu], kappa))
            acc[nu, kappa] = acc.get((nu, kappa), 0j) + complex(c.real * w, c.imag * w)
    out = {}
    for (nu, kappa), c in acc.items():
        if abs(c) <= COEFFICIENT_FLOOR:
            continue
        alpha = tuple(k + max(v, 0) for k, v in zip(kappa, nu))
        beta = tuple(k + max(-v, 0) for k, v in zip(kappa, nu))
        out[alpha, beta] = c
        if alpha != beta:
            out[beta, alpha] = c.conjugate()
    return out


def largest_coefficient(coefficients: dict):
    """(residual, pair): the largest modulus of the coefficients, numpy's
    abs of their array as the kernels take it, and the first pair with it in
    row-major order, which is the largest pair; (0.0, None) for none."""
    if not coefficients:
        return 0.0, None
    pairs = sorted(coefficients, reverse=True)
    sizes = np.abs(np.array([coefficients[pair] for pair in pairs], dtype=complex))
    k = int(sizes.argmax())
    return float(sizes[k]), pairs[k]

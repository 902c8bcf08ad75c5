"""Reference polynomial arithmetic for the tests, on term dicts.

Sums, products, powers, values and coefficient distances of ``Polynomial``
views, computed term by term from their dicts.  Nothing here goes through
the coefficient-row kernels of ``propermaps.polyalg`` (``multiply_rows``,
``align_rows``), so the tests can use it as an independent oracle for them.
A number in a sum or product stands for the constant polynomial; terms at
or below the storage floor are dropped after each step.
"""

from __future__ import annotations

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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propermaps.polyalg import (COEFFICIENT_FLOOR, DEFAULT_TOL, HermitianForm,
                                Polynomial, coefficient_matrix, monomials_of_degree,
                                polynomials_from_rows, properness_form,
                                reduce_mod_sphere, squared_norm_form)

from conftest import sample_sphere


def z(j, nvars=2):
    return Polynomial.variable(nvars, j)


# ---------------------------------------------------------------- monomials
def test_monomial_order_is_descending_with_first_variable_highest():
    monos = monomials_of_degree(2, 5)
    assert monos[0] == (5, 0)
    assert monos[-1] == (0, 5)
    assert monos == sorted(monos, reverse=True)
    assert len(monos) == 6


def test_monomial_count_matches_binomial():
    for n in (1, 2, 3, 4):
        for d in range(6):
            assert len(monomials_of_degree(n, d)) == math.comb(d + n - 1, n - 1)


# --------------------------------------------------------------- arithmetic
def test_product_of_variables():
    p = z(0) * z(1)
    assert p.terms == {(1, 1): 1.0 + 0.0j}


def test_difference_of_squares():
    p = (z(0) + z(1)) * (z(0) - z(1))
    assert p.allclose(Polynomial(2, {(2, 0): 1.0, (0, 2): -1.0}))


def test_two_term_denominator_square_expanded_by_hand():
    # q = 1 - 0.5 z1 has degree 1; its square is 1 - z1 + 0.25 z1^2 (degree 2).
    q = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5})
    square = q * q
    assert square.allclose(Polynomial(2, {(0, 0): 1.0, (1, 0): -1.0, (2, 0): 0.25}))
    assert square.degree == 2


def test_addition_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        z(0) + Polynomial.variable(3, 0)


def test_distance_is_largest_coefficient_difference():
    a = Polynomial(2, {(1, 0): 1.0, (0, 1): 2.0})
    b = Polynomial(2, {(1, 0): 1.5, (1, 1): -3.0j})
    assert a.distance(b) == pytest.approx(3.0)
    assert b.distance(a) == a.distance(b)
    assert a.distance(a) == 0.0
    assert Polynomial.zero(2).distance(Polynomial.zero(2)) == 0.0
    assert not a.allclose(b) and a.allclose(a + 1e-12 * z(1))


def test_coefficient_matrix_round_trip_and_floor():
    polys = [z(0) * z(1) + 2.0, 3j * z(1), Polynomial.zero(2)]
    monos, mat = coefficient_matrix(polys)
    assert monos == sorted(monos, reverse=True) == [(1, 1), (0, 1), (0, 0)]
    assert mat.shape == (3, 3)
    back = polynomials_from_rows(2, monos, mat)
    assert [p.terms for p in back] == [p.terms for p in polys]
    # Entries at or below the storage floor are dropped, as in arithmetic.
    tiny = polynomials_from_rows(2, [(1, 0), (0, 1)],
                                 np.array([[COEFFICIENT_FLOOR, 2 * COEFFICIENT_FLOOR]]))
    assert list(tiny[0].terms) == [(0, 1)]


@pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("nan")),
                                 float("inf"), complex(float("-inf"), 1.0)])
def test_polynomial_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="not finite"):
        Polynomial(2, {(1, 0): bad, (0, 1): 1.0})


def test_zero_polynomial_degree_sentinel_and_canonical_form():
    zero = Polynomial.zero(2)
    assert zero.degree == float("-inf")
    tiny = Polynomial(2, {(1, 0): 1e-12})
    assert tiny.is_zero
    assert Polynomial(2, {(1, 0): 1e-12}, tol=0.0).terms


def test_power_and_derivative():
    p = z(0, 1) ** 3 + 2 * z(0, 1)
    assert p.derivative(0).allclose(Polynomial(1, {(2,): 3.0, (0,): 2.0}))
    assert (z(0) ** 0).allclose(Polynomial.one(2))


def test_evaluate_many_matches_pointwise(rng):
    p = (z(0) + 2.5 * z(1)) * (z(0) - 1j * z(1)) + 0.25
    pts = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    vec = p.evaluate_many(pts)
    for k in range(40):
        assert abs(vec[k] - p(pts[k])) < 1e-12


coeffs = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                            allow_nan=False, allow_infinity=False)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda terms: Polynomial(2, terms))


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_add_then_subtract_roundtrip(a, b):
    back = (a + b) - b
    assert back.allclose(a, tol=1e-7)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_product_is_evaluation_homomorphism(a, b):
    point = [0.4 + 0.2j, -0.3 + 0.1j]
    lhs = (a * b)(point)
    rhs = a(point) * b(point)
    assert abs(lhs - rhs) < 1e-6 * (1 + abs(rhs))


# ----------------------------------------------------------- Hermitian forms
def test_squared_norm_form_identity_map_is_diagonal_ones():
    form = squared_norm_form([z(0), z(1)])
    assert form.entries == {((1, 0), (1, 0)): 1.0 + 0j, ((0, 1), (0, 1)): 1.0 + 0j}


def test_squared_norm_form_quadratic_diagonal_1_2_1():
    # || (z^2, sqrt2 zw, w^2) ||^2 = |z|^4 + 2|z|^2|w|^2 + |w|^4 by expansion.
    comps = [z(0) * z(0), math.sqrt(2) * z(0) * z(1), z(1) * z(1)]
    form = squared_norm_form(comps)
    diag = {alpha: form.entries[(alpha, alpha)] for alpha, _ in form.entries}
    assert abs(diag[(2, 0)] - 1) < 1e-12
    assert abs(diag[(1, 1)] - 2) < 1e-12
    assert abs(diag[(0, 2)] - 1) < 1e-12
    assert len(form.entries) == 3


def test_squared_norm_form_degree_two_triple():
    form = squared_norm_form([z(0), z(0) * z(1), z(1) * z(1)])
    expected = {((1, 0), (1, 0)): 1, ((1, 1), (1, 1)): 1, ((0, 2), (0, 2)): 1}
    assert form.allclose(HermitianForm(2, expected))


def test_squared_norm_form_positive_semidefinite(rng):
    for _ in range(10):
        comps = [Polynomial(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
                                complex(rng.standard_normal(), rng.standard_normal())
                                for _ in range(4)})
                 for _ in range(3)]
        _, mat = squared_norm_form(comps).as_matrix()
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() >= -1e-6


def test_form_values_match_the_signed_norms_pointwise(rng):
    comps = [z(0) * z(1) + 0.3j, z(1) ** 2 - 0.5 * z(0)]
    q = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.4, (1, 1): 0.2j})
    pts = rng.standard_normal((25, 2)) + 1j * rng.standard_normal((25, 2))
    norms = sum(np.abs(p.evaluate_many(pts)) ** 2 for p in comps)
    assert np.allclose(squared_norm_form(comps).evaluate_many(pts), norms, atol=1e-10)
    defect = norms - np.abs(q.evaluate_many(pts)) ** 2
    assert np.allclose(properness_form(comps, q).evaluate_many(pts), defect, atol=1e-10)


def test_hermitian_symmetry_enforced():
    with pytest.raises(ValueError):
        HermitianForm(2, {((1, 0), (0, 1)): 1.0})  # mirror entry missing
    with pytest.raises(ValueError):
        HermitianForm(2, {((1, 0), (1, 0)): 1.0j})  # non-real diagonal


@pytest.mark.parametrize("bad", [float("nan"), complex(float("inf"), 0.0)])
def test_hermitian_form_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="not finite"):
        HermitianForm(2, {((1, 0), (1, 0)): bad, ((0, 1), (0, 1)): 1.0})


def test_properness_form_identity_is_sphere_defect():
    form = properness_form([z(0), z(1)], Polynomial.one(2))
    expected = HermitianForm(2, {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 1.0,
                                 ((0, 0), (0, 0)): -1.0})
    assert form.allclose(expected)


def test_properness_form_constant_map_is_zero():
    form = properness_form([Polynomial.one(2)], Polynomial.one(2))
    assert form.is_zero


def test_properness_form_quintic_vanishes_on_sphere():
    # (z, zw, zw^2, zw^3, w^4): ||p||^2 - 1 restricted to the sphere is 0.
    w = z(1)
    comps = [z(0), z(0) * w, z(0) * w ** 2, z(0) * w ** 3, w ** 4]
    form = properness_form(comps, Polynomial.one(2))
    assert reduce_mod_sphere(form).is_zero


# ---------------------------------------------------------------- reduction
def test_reduce_sphere_defect_to_zero():
    form = properness_form([z(0), z(1)], Polynomial.one(2))
    assert reduce_mod_sphere(form).is_zero


def test_reduce_cubic_invariant_map():
    comps = [z(0) ** 3, math.sqrt(3.0) * z(0) * z(1), z(1) ** 3]
    form = properness_form(comps, Polynomial.one(2))
    assert reduce_mod_sphere(form).is_zero


def test_reduce_detects_shrunken_map():
    form = properness_form([0.5 * z(0), 0.5 * z(1)], Polynomial.one(2))
    remainder = reduce_mod_sphere(form)
    assert not remainder.is_zero
    assert remainder.max_abs_entry() > DEFAULT_TOL


def _sampled_max(form, seed=3):
    pts = sample_sphere(form.nvars, 200, seed=seed)
    return float(np.max(np.abs(form.evaluate_many(pts))))


def test_reduction_agrees_with_sphere_sampling_oracle():
    w = z(1)
    vanishing = [
        properness_form([z(0), z(1)], Polynomial.one(2)),
        properness_form([z(0) ** 2, math.sqrt(2.0) * z(0) * w, w ** 2],
                        Polynomial.one(2)),
        properness_form([z(0), z(0) * w, w ** 2], Polynomial.one(2)),
    ]
    for form in vanishing:
        assert reduce_mod_sphere(form).is_zero
        assert _sampled_max(form) <= 1e3 * DEFAULT_TOL
    defective = [
        properness_form([0.5 * z(0), 0.5 * w], Polynomial.one(2)),
        properness_form([z(0), 0.9 * w], Polynomial.one(2)),
        properness_form([Polynomial.constant(2, 0.5)], Polynomial.one(2)),
    ]
    for form in defective:
        assert not reduce_mod_sphere(form).is_zero
        assert _sampled_max(form) > DEFAULT_TOL


def test_reduce_handles_off_diagonal_shifts():
    # |z1 + z2|^2 - 1 vanishes nowhere on the whole sphere: remainder nonzero,
    # but (z1+z2)/sqrt(2) scaled norms agree only pointwise, not identically.
    p = z(0) + z(1)
    form = properness_form([p], Polynomial.one(2))
    remainder = reduce_mod_sphere(form)
    assert not remainder.is_zero
    # The cross terms z1 conj(z2) survive reduction with coefficient 1.
    assert abs(remainder.entries.get(((1, 0), (0, 1)), 0) - 1.0) < 1e-12


def test_one_variable_reduction_evaluates_at_one():
    # |z|^2 - 1 on the circle: the radial polynomial x - 1 vanishes at x = 1.
    form = properness_form([z(0, 1)], Polynomial.one(1))
    assert reduce_mod_sphere(form).is_zero


def test_multiples_of_the_sphere_defect_always_reduce_to_zero(rng):
    # (||z||^2 - 1) * F vanishes on the sphere for every F = ||c||^2; it is
    # the form sum_j ||c z_j||^2 - F.
    for _ in range(15):
        comps = [Polynomial(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
                                complex(rng.standard_normal(), rng.standard_normal())
                                for _ in range(3)})
                 for _ in range(2)]
        factor = squared_norm_form(comps)
        product = squared_norm_form([c * z(j) for c in comps for j in range(2)]) - factor
        assert reduce_mod_sphere(product).is_zero
        # Reduction is linear, so adding a sphere multiple changes nothing.
        assert reduce_mod_sphere(factor + product).allclose(
            reduce_mod_sphere(factor), 1e-9)


def _reduce_by_loop(form):
    """Reference reduction: substitute x_n = 1 - sum_{j<n} x_j term by term."""
    n = form.nvars
    base = Polynomial.one(n)
    for j in range(n - 1):
        base = base - z(j, n)
    shifts = {}
    for (alpha, beta), c in form.entries.items():
        nu = tuple(a - b for a, b in zip(alpha, beta))
        shifts.setdefault(nu, {})[beta] = c
    out = {}
    for nu, coeffs in shifts.items():
        if nu < (0,) * n:
            continue
        acc = {}
        for beta, c in coeffs.items():
            head = beta[:-1] + (0,)
            if beta[-1] == 0:
                acc[head] = acc.get(head, 0.0) + c
                continue
            for gamma, h in (base ** beta[-1]).terms.items():
                key = tuple(a + g for a, g in zip(head, gamma))
                acc[key] = acc.get(key, 0.0) + c * h
        for gamma, c in acc.items():
            if abs(c) <= COEFFICIENT_FLOOR:
                continue
            alpha = tuple(g + max(v, 0) for g, v in zip(gamma, nu))
            beta = tuple(g + max(-v, 0) for g, v in zip(gamma, nu))
            out[(alpha, beta)] = c
            if alpha != beta:
                out[(beta, alpha)] = c.conjugate()
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_reduction_equals_the_term_by_term_substitution(nvars, seed):
    gen = np.random.default_rng(seed)
    comps = [Polynomial(nvars, {tuple(gen.integers(0, 4, nvars)):
                                complex(*gen.standard_normal(2)) for _ in range(4)})
             for _ in range(int(gen.integers(1, 4)))]
    q = Polynomial(nvars, {(0,) * nvars: 1.0, tuple(gen.integers(0, 3, nvars)): 0.3})
    e1, zero = (1,) + (0,) * (nvars - 1), (0,) * nvars
    forms = [properness_form(comps, q), squared_norm_form(comps),
             HermitianForm(nvars, {(e1, zero): 1.0}, validate=False),
             HermitianForm(nvars, {(zero, e1): 1.0}, validate=False)]
    for form in forms:
        assert reduce_mod_sphere(form).entries == _reduce_by_loop(form)

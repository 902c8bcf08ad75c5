import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import propermaps
from propermaps import polyalg
from propermaps.ballmaps import RationalBallMap
from propermaps.polyalg import (COEFFICIENT_FLOOR, DEFAULT_TOL, HermitianForm,
                                Polynomial, align_rows, canonical_rows, coefficient_matrix,
                                evaluate_rows, monomials_of_degree, multiply_rows,
                                polynomials_from_rows, properness_form, radial_residuals,
                                reduce_mod_sphere, signed_gram, sphere_residuals,
                                squared_norm_form)

import polyref as ref
from conftest import bench_module, sample_sphere


def z(j, nvars=2):
    return ref.var(nvars, j)


def _close(a: dict, b: dict, tol=DEFAULT_TOL):
    """Whether two forms' entries {(alpha, beta): c} agree within tol on the
    union of their pairs."""
    return all(abs(a.get(pair, 0.0) - b.get(pair, 0.0)) <= tol for pair in a.keys() | b.keys())


def _entries(form):
    """Every nonzero entry of a form's matrix, as a dict {(alpha, beta): c}."""
    return {(form.basis[i], form.basis[j]): complex(form.matrix[i, j])
            for i, j in zip(*np.nonzero(form.matrix))}


def _residual(form):
    """(residual, worst) of the form by the certification kernel
    ``sphere_residuals``: its largest Bernstein coefficient and that pair."""
    residuals, worst = sphere_residuals(form.nvars, form.basis, form.matrix[None])
    return float(residuals[0]), worst[0]


def _coefficients(nvars, basis, matrices):
    """Every Bernstein coefficient of each matrix of a stack by the kernel
    ``_bernstein``, as dicts laid out as ``polyref.sphere_coefficients``: the
    values above the storage floor at their pairs, conjugates mirrored."""
    values, alpha, beta = polyalg._bernstein(nvars, basis, matrices)
    pairs = list(zip(map(tuple, alpha.tolist()), map(tuple, beta.tolist())))
    out = []
    for row in values.tolist():
        member = {}
        for (a, b), c in zip(pairs, row):
            if abs(c) > COEFFICIENT_FLOOR:
                member[b, a] = c.conjugate()
                member[a, b] = c
        out.append(member)
    return out


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


# ------------------------------------------------------- products of rows
def _product(a, b):
    """The product of two polynomials through ``multiply_rows``, floored."""
    monos, rows = canonical_rows(*multiply_rows(2, *coefficient_matrix([a]),
                                                *coefficient_matrix([b])))
    return polynomials_from_rows(2, monos, rows)[0]


def test_product_of_variables():
    p = _product(z(0), z(1))
    assert p.terms == {(1, 1): 1.0 + 0.0j}


def test_difference_of_squares():
    p = _product(ref.add(z(0), z(1)), ref.sub(z(0), z(1)))
    assert p.terms == {(2, 0): 1.0 + 0.0j, (0, 2): -1.0 + 0.0j}


def test_two_term_denominator_square_expanded_by_hand():
    # q = 1 - 0.5 z1 has degree 1; its square is 1 - z1 + 0.25 z1^2 (degree 2).
    q = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5})
    square = _product(q, q)
    assert ref.distance(square, Polynomial(2, {(0, 0): 1.0, (1, 0): -1.0,
                                                (2, 0): 0.25})) <= DEFAULT_TOL
    assert square.degree == 2


def test_addition_rejects_dimension_mismatch():
    # A squared norm sums its components' Grams, which must share one count.
    with pytest.raises(ValueError, match="one variable count"):
        squared_norm_form([z(0), z(0, 3)])
    with pytest.raises(ValueError, match="one variable count"):
        properness_form([z(0)], Polynomial.one(3))


def test_distance_is_largest_coefficient_difference():
    # Maps' distance, on their aligned coefficient rows.
    a = Polynomial(2, {(1, 0): 1.0, (0, 1): 2.0})
    b = Polynomial(2, {(1, 0): 1.5, (1, 1): -3.0j})
    f, g = (RationalBallMap(2, 1, [p]) for p in (a, b))
    assert f.distance(g) == pytest.approx(3.0)
    assert g.distance(f) == f.distance(g)
    assert f.distance(f) == 0.0
    zero = RationalBallMap(2, 1, [Polynomial.zero(2)])
    assert zero.distance(zero) == 0.0
    nearby = RationalBallMap(2, 1, [ref.add(a, ref.mul(1e-12, z(1)))])
    assert not f.allclose(g) and f.allclose(nearby)


def test_coefficient_matrix_round_trip_and_floor():
    polys = [ref.add(ref.mul(z(0), z(1)), 2.0), ref.mul(3j, z(1)), Polynomial.zero(2)]
    monos, mat = coefficient_matrix(polys)
    assert monos == sorted(monos, reverse=True) == [(1, 1), (0, 1), (0, 0)]
    assert mat.shape == (3, 3)
    back = polynomials_from_rows(2, monos, mat)
    assert [p.terms for p in back] == [p.terms for p in polys]
    # Entries at or below the storage floor are dropped.
    tiny = polynomials_from_rows(2, [(1, 0), (0, 1)],
                                 np.array([[COEFFICIENT_FLOOR, 2 * COEFFICIENT_FLOOR]]))
    assert list(tiny[0].terms) == [(0, 1)]


def _terms_entry_by_entry(monomials, matrix):
    """The term dicts of ``polynomials_from_rows``, read one entry at a time
    with Python's abs (the reference for the one comparison it makes)."""
    return [{alpha: c for alpha, c in zip(monomials, row) if abs(c) > COEFFICIENT_FLOOR}
            for row in np.asarray(matrix, dtype=complex).tolist()]


def _matrix_term_by_term(polys):
    """``coefficient_matrix`` with one item assignment per term (reference)."""
    monos = sorted({alpha for p in polys for alpha in p.terms}, reverse=True)
    index = {alpha: j for j, alpha in enumerate(monos)}
    mat = np.zeros((len(polys), len(monos)), dtype=complex)
    for i, p in enumerate(polys):
        for alpha, c in p.terms.items():
            mat[i, index[alpha]] = c
    return monos, mat


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
def test_rows_and_polynomials_match_the_entry_by_entry_reference(nvars, count, width, seed):
    # Entries of every size about the storage floor, exactly on it, zeros of
    # either sign and ordinary coefficients, in random phases.
    gen = np.random.default_rng(seed)
    monos = sorted({tuple(gen.integers(0, 4, nvars).tolist()) for _ in range(width)},
                   reverse=True)
    sizes = gen.choice([0.0, 0.5, 1.0, 1.0 + 2e-16, 1.5, 1e6, 1e12], (count, len(monos)))
    matrix = COEFFICIENT_FLOOR * sizes * np.exp(2j * np.pi * gen.random(sizes.shape))
    matrix[gen.random(sizes.shape) < 0.1] = complex(-0.0, -0.0)
    got = polynomials_from_rows(nvars, monos, matrix)
    want = _terms_entry_by_entry(monos, matrix)
    # Keys, their order and the values, signed zeros included.
    assert [repr(list(p.terms.items())) for p in got] == [repr(list(t.items())) for t in want]
    polys = got + [Polynomial(nvars, {alpha: complex(*gen.standard_normal(2))
                                      for alpha in monos[::2]})]
    (monos_got, mat_got), (monos_want, mat_want) = (coefficient_matrix(polys),
                                                    _matrix_term_by_term(polys))
    assert monos_got == monos_want
    assert mat_got.shape == mat_want.shape and mat_got.tobytes() == mat_want.tobytes()


@pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("nan")),
                                 float("inf"), complex(float("-inf"), 1.0)])
def test_polynomial_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="not finite"):
        Polynomial(2, {(1, 0): bad, (0, 1): 1.0})


@pytest.mark.parametrize("terms, message", [
    ({(1, 0, 0): 1.0}, "exponent tuple (1, 0, 0) does not match nvars=2"),
    ({(1, 0): 1.0, (1,): 2.0}, "exponent tuple (1,) does not match nvars=2"),
    ({(1, 0): 1.0, (1, -1): 2.0}, "negative exponent in (1, -1)"),
    ({(2, -1): float("nan")}, "negative exponent in (2, -1)"),
    ({(1, 0): 1.0, (0, 1): complex(0.0, float("inf"))},
     "coefficient infj of (0, 1) is not finite"),
])
@pytest.mark.parametrize("many", [False, True])
def test_polynomial_names_the_first_bad_term(terms, message, many):
    # The array checks fail and the per-term loop names the first bad term,
    # also behind many good ones.
    if many:
        terms = {**{(a, 40 + b): 1.0 for a in range(6) for b in range(6)}, **terms}
    with pytest.raises(ValueError) as raised:
        Polynomial(2, terms)
    assert str(raised.value) == message


@pytest.mark.parametrize("count", [1, 40])
def test_polynomial_keys_are_integer_tuples(count):
    for kind in (float, np.int64, int):
        terms = {(kind(a), kind(b)): np.complex128(3.0 - 1j) * (a + 1)
                 for a in range(count) for b in (2,)}
        p = Polynomial(2, terms)
        assert p.terms == {(a, 2): (3.0 - 1j) * (a + 1) for a in range(count)}
        for alpha, c in p.terms.items():
            assert all(type(e) is int for e in alpha) and type(c) is complex


def test_zero_polynomial_degree_sentinel_and_canonical_form():
    zero = Polynomial.zero(2)
    assert zero.degree == float("-inf")
    tiny = Polynomial(2, {(1, 0): 1e-12})
    assert tiny.is_zero
    assert Polynomial(2, {(1, 0): 1e-12}, tol=0.0).terms


def test_power():
    # z^3 + 2z: the cube by two row products, the sum on aligned rows.
    line = ((1,),), np.ones((1, 1))
    cube = multiply_rows(1, *multiply_rows(1, *line, *line), *line)
    support, (left, right) = align_rows(cube, (((1,),), [[2.0]]))
    p = polynomials_from_rows(1, support, left + right)[0]
    assert ref.distance(p, Polynomial(1, {(3,): 1.0, (1,): 2.0})) <= DEFAULT_TOL


def test_evaluate_many_matches_pointwise(rng):
    p = ref.add(ref.mul(ref.add(z(0), ref.mul(2.5, z(1))), ref.sub(z(0), ref.mul(1j, z(1)))),
                0.25)
    pts = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    vec = p.evaluate_many(pts)
    for k in range(40):
        assert abs(vec[k] - ref.value(p, pts[k])) < 1e-12


coeffs = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                            allow_nan=False, allow_infinity=False)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda terms: Polynomial(2, terms))


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_add_then_subtract_roundtrip(a, b):
    # Sums are taken on rows aligned on the union support.
    support, (left, right) = align_rows(coefficient_matrix([a]), coefficient_matrix([b]))
    back = polynomials_from_rows(2, support, (left + right) - right)[0]
    assert ref.distance(back, a) <= 1e-7


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_product_is_evaluation_homomorphism(a, b):
    point = np.array([[0.4 + 0.2j, -0.3 + 0.1j]])
    monos, rows = multiply_rows(2, *coefficient_matrix([a]), *coefficient_matrix([b]))
    lhs = evaluate_rows(2, monos, rows, point)[0, 0]
    rhs = a.evaluate_many(point)[0] * b.evaluate_many(point)[0]
    assert abs(lhs - rhs) < 1e-6 * (1 + abs(rhs))


# ----------------------------------------------------------- Hermitian forms
def test_squared_norm_form_identity_map_is_diagonal_ones():
    form = squared_norm_form([z(0), z(1)])
    assert form.entries == {((1, 0), (1, 0)): 1.0 + 0j, ((0, 1), (0, 1)): 1.0 + 0j}


def test_squared_norm_form_quadratic_diagonal_1_2_1():
    # || (z^2, sqrt2 zw, w^2) ||^2 = |z|^4 + 2|z|^2|w|^2 + |w|^4 by expansion.
    comps = [ref.mul(z(0), z(0)), ref.mul(math.sqrt(2), z(0), z(1)), ref.mul(z(1), z(1))]
    form = squared_norm_form(comps)
    diag = {alpha: form.entries[(alpha, alpha)] for alpha, _ in form.entries}
    assert abs(diag[(2, 0)] - 1) < 1e-12
    assert abs(diag[(1, 1)] - 2) < 1e-12
    assert abs(diag[(0, 2)] - 1) < 1e-12
    assert len(form.entries) == 3


def test_squared_norm_form_degree_two_triple():
    form = squared_norm_form([z(0), ref.mul(z(0), z(1)), ref.mul(z(1), z(1))])
    expected = {((1, 0), (1, 0)): 1, ((1, 1), (1, 1)): 1, ((0, 2), (0, 2)): 1}
    assert _close(form.entries, expected)


def test_squared_norm_form_positive_semidefinite(rng):
    for _ in range(10):
        comps = [Polynomial(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
                                complex(rng.standard_normal(), rng.standard_normal())
                                for _ in range(4)})
                 for _ in range(3)]
        eigs = np.linalg.eigvalsh(squared_norm_form(comps).matrix)
        assert eigs.min() >= -1e-6


def test_form_values_match_the_signed_norms_pointwise(rng):
    comps = [ref.add(ref.mul(z(0), z(1)), 0.3j),
             ref.sub(ref.power(z(1), 2), ref.mul(0.5, z(0)))]
    q = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.4, (1, 1): 0.2j})
    pts = rng.standard_normal((25, 2)) + 1j * rng.standard_normal((25, 2))
    norms = sum(np.abs(p.evaluate_many(pts)) ** 2 for p in comps)
    defect = norms - np.abs(q.evaluate_many(pts)) ** 2
    for form, expected in ((squared_norm_form(comps), norms),
                           (properness_form(comps, q), defect)):
        values = [ref.form_value(form.entries, point) for point in pts]
        assert np.allclose(values, expected, atol=1e-10)


def test_properness_form_identity_is_sphere_defect():
    form = properness_form([z(0), z(1)], Polynomial.one(2))
    assert _close(form.entries, {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 1.0,
                                 ((0, 0), (0, 0)): -1.0})
    assert not form.matrix.flags.writeable


def test_properness_form_constant_map_is_zero():
    form = properness_form([Polynomial.one(2)], Polynomial.one(2))
    assert np.abs(form.matrix).max() <= DEFAULT_TOL


def test_properness_form_quintic_vanishes_on_sphere():
    # (z, zw, zw^2, zw^3, w^4): ||p||^2 - 1 restricted to the sphere is 0.
    w = z(1)
    comps = [z(0), ref.mul(z(0), w), ref.mul(z(0), ref.power(w, 2)),
             ref.mul(z(0), ref.power(w, 3)), ref.power(w, 4)]
    form = properness_form(comps, Polynomial.one(2))
    assert _residual(form)[0] <= DEFAULT_TOL


# ---------------------------------------------------------------- reduction
def test_reduce_sphere_defect_to_zero():
    form = properness_form([z(0), z(1)], Polynomial.one(2))
    assert _residual(form) == (0.0, None)


def test_reduce_cubic_invariant_map():
    comps = [ref.power(z(0), 3), ref.mul(math.sqrt(3.0), z(0), z(1)), ref.power(z(1), 3)]
    form = properness_form(comps, Polynomial.one(2))
    assert _residual(form)[0] <= DEFAULT_TOL


def test_reduce_detects_shrunken_map():
    # 0.25 (x1 + x2) - 1 is -0.75 on the simplex: both Bernstein coefficients.
    form = properness_form([ref.mul(0.5, z(0)), ref.mul(0.5, z(1))], Polynomial.one(2))
    assert _residual(form) == (0.75, ((1, 0), (1, 0)))


def _sampled_max(form, seed=3):
    entries = form.entries
    pts = sample_sphere(form.nvars, 200, seed=seed)
    return max(abs(ref.form_value(entries, point)) for point in pts)


def test_reduction_agrees_with_sphere_sampling_oracle():
    w = z(1)
    vanishing = [
        properness_form([z(0), z(1)], Polynomial.one(2)),
        properness_form([ref.power(z(0), 2), ref.mul(math.sqrt(2.0), z(0), w),
                         ref.power(w, 2)], Polynomial.one(2)),
        properness_form([z(0), ref.mul(z(0), w), ref.power(w, 2)], Polynomial.one(2)),
    ]
    for form in vanishing:
        assert _residual(form)[0] <= DEFAULT_TOL
        assert _sampled_max(form) <= 1e3 * DEFAULT_TOL
    defective = [
        properness_form([ref.mul(0.5, z(0)), ref.mul(0.5, w)], Polynomial.one(2)),
        properness_form([z(0), ref.mul(0.9, w)], Polynomial.one(2)),
        properness_form([Polynomial.constant(2, 0.5)], Polynomial.one(2)),
    ]
    for form in defective:
        assert _residual(form)[0] > DEFAULT_TOL
        assert _sampled_max(form) > DEFAULT_TOL


def test_reduce_handles_off_diagonal_shifts():
    # |z1 + z2|^2 - 1 vanishes nowhere on the whole sphere: remainder nonzero,
    # but (z1+z2)/sqrt(2) scaled norms agree only pointwise, not identically.
    p = ref.add(z(0), z(1))
    form = properness_form([p], Polynomial.one(2))
    # The shift-0 part x1 + x2 - 1 reduces to zero; the cross term
    # z1 conj(z2) survives reduction with coefficient 1.
    residual, worst = _residual(form)
    assert abs(residual - 1.0) < 1e-12 and worst == ((1, 0), (0, 1))


def test_one_variable_reduction_evaluates_at_one():
    # |z|^2 - 1 on the circle: the radial polynomial x - 1 vanishes at x = 1.
    form = properness_form([z(0, 1)], Polynomial.one(1))
    assert _residual(form) == (0.0, None)


def test_multiples_of_the_sphere_defect_always_reduce_to_zero(rng):
    # (||z||^2 - 1) * F vanishes on the sphere for every F = ||c||^2; it is
    # the form sum_j ||c z_j||^2 - F.
    for _ in range(15):
        comps = [Polynomial(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
                                complex(rng.standard_normal(), rng.standard_normal())
                                for _ in range(3)})
                 for _ in range(2)]
        # The rows of the c z_j and of the c on one support, the latter
        # negated in one signed Gram.
        basis, (multiples, own) = align_rows(
            coefficient_matrix([ref.mul(c, z(j)) for c in comps for j in range(2)]),
            coefficient_matrix(comps))
        product = signed_gram(np.vstack([multiples, own]), len(own))
        assert sphere_residuals(2, basis, product[None])[0][0] <= DEFAULT_TOL
        # Reduction is linear on one basis, so adding a sphere multiple
        # changes nothing; F is reduced on the sum's basis, since the degree
        # of each shift's coefficients comes from the basis.
        factor = signed_gram(own)
        total, alone = polyalg._bernstein(2, basis, np.stack([factor + product, factor]))[0]
        assert np.abs(total - alone).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_reduction_equals_the_term_by_term_bernstein_coefficients(nvars, seed):
    gen = np.random.default_rng(seed)
    comps = [Polynomial(nvars, {tuple(gen.integers(0, 4, nvars)):
                                complex(*gen.standard_normal(2)) for _ in range(4)})
             for _ in range(int(gen.integers(1, 4)))]
    q = Polynomial(nvars, {(0,) * nvars: 1.0, tuple(gen.integers(0, 3, nvars)): 0.3})
    e1, zero = (1,) + (0,) * (nvars - 1), (0,) * nvars
    forms = [properness_form(comps, q), squared_norm_form(comps),
             HermitianForm(nvars, (e1, zero), np.array([[0, 1], [0, 0]], dtype=complex)),
             HermitianForm(nvars, (e1, zero), np.array([[0, 0], [1, 0]], dtype=complex))]
    for form in forms:
        assert reduce_mod_sphere(form).entries == ref.sphere_coefficients(form.basis,
                                                                          _entries(form))


def test_reduction_plans_are_keyed_by_the_basis():
    # Two forms on one basis that differ only in one off-diagonal pair, just
    # above the storage floor in one and just below it in the other, share
    # one plan.
    comps = [ref.add(ref.mul(z(0), z(0)), ref.mul(z(1), 0.5)),
             ref.sub(ref.mul(z(0), z(1), 0.7), 0.2)]
    base = squared_norm_form(comps)
    i, j = next((i, j) for i in range(len(base.basis)) for j in range(i)
                if base.matrix[i, j] == 0)
    forms = []
    for value in (2 * COEFFICIENT_FLOOR, 0.5 * COEFFICIENT_FLOOR):
        matrix = base.matrix.copy()
        matrix[i, j] = matrix[j, i] = value
        forms.append(HermitianForm(2, base.basis, matrix))
    assert len(forms[0].entries) == len(forms[1].entries) + 2
    expected = [ref.sphere_coefficients(form.basis, _entries(form)) for form in forms]
    assert len(expected[0]) == len(expected[1]) + 2
    for order in (forms, forms[::-1]):
        polyalg._bernstein_plan.cache_clear()
        got = [_coefficients(2, form.basis, form.matrix[None])[0] for form in order]
        assert polyalg._bernstein_plan.cache_info().misses == 1
        got += [_coefficients(2, form.basis, form.matrix[None])[0] for form in order]
        assert polyalg._bernstein_plan.cache_info().hits == 3
        want = expected if order is forms else expected[::-1]
        assert got == want + want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_stacked_reduction_equals_each_matrix_reduction(nvars, seed):
    # Signed Grams on one support whose entries sit above, at and below the
    # storage floor in different members; small integer coefficients make
    # ties for the largest coefficient common.
    gen = np.random.default_rng(seed)
    support = tuple(sorted({tuple(gen.integers(0, 3, nvars).tolist()) for _ in range(5)},
                           reverse=True))
    values = np.array([0, 1, -1, 1j, 0.5, 3e-15, 2e-14, 1e-9])
    stack = gen.choice(values, (int(gen.integers(1, 7)), int(gen.integers(2, 4)), len(support)))
    grams = signed_gram(stack, 1)
    residuals, worst = sphere_residuals(nvars, support, grams)
    stacked = _coefficients(nvars, support, grams)
    for matrix, residual, pair, got in zip(grams, residuals.tolist(), worst, stacked):
        expected = ref.sphere_coefficients(support, _entries(HermitianForm(nvars, support, matrix)))
        assert got == expected
        assert (residual, pair) == ref.largest_coefficient(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_radial_reduction_equals_the_full_reduction_of_a_diagonal(nvars, seed):
    # Diagonals with entries above, at and below the storage floor, and
    # ties for the largest coefficient; the support may have one degree.
    gen = np.random.default_rng(seed)
    support = tuple(sorted({tuple(gen.integers(0, 4, nvars).tolist()) for _ in range(6)},
                           reverse=True))
    values = np.array([0.0, 1.0, -1.0, 0.5, -3.0, 3e-15, 2e-14, 1e-9, 1 / 3])
    diagonals = gen.choice(values, (int(gen.integers(1, 5)), len(support)))
    matrices = np.zeros((len(diagonals), len(support), len(support)), dtype=complex)
    matrices[:, np.arange(len(support)), np.arange(len(support))] = diagonals
    residuals, worst = radial_residuals(nvars, support, diagonals)
    expected, expected_worst = sphere_residuals(nvars, support, matrices)
    assert residuals.tolist() == expected.tolist()
    assert worst == expected_worst


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_residual_kernels_equal_the_term_by_term_reference(nvars, seed):
    # sphere_residuals and radial_residuals against polyref's Bernstein
    # coefficients, which share no plan with them, bit for bit.  Bases of
    # degree <= 6 have pairs whose shifts have negative entries (n >= 2);
    # small integers and halves make the largest coefficient tie.
    gen = np.random.default_rng(seed)
    support = tuple(sorted({tuple(gen.multinomial(d, [1 / nvars] * nvars).tolist())
                            for d in gen.integers(0, 7, 6)}, reverse=True))
    values = np.array([0, 1, -1, 2, 1j, 0.5, -0.5j, 3e-15])
    stack = gen.choice(values, (int(gen.integers(1, 5)), int(gen.integers(1, 4)), len(support)))
    grams = signed_gram(stack, int(gen.integers(0, 2)))
    residuals, worst = sphere_residuals(nvars, support, grams)
    stacked = _coefficients(nvars, support, grams)
    for matrix, residual, pair, got in zip(grams, residuals.tolist(), worst, stacked):
        expected = ref.sphere_coefficients(support, _entries(HermitianForm(nvars, support, matrix)))
        assert got == expected
        assert (residual, pair) == ref.largest_coefficient(expected)
    diagonals = gen.choice(np.array([0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 3e-15]),
                           (int(gen.integers(1, 5)), len(support)))
    residuals, worst = radial_residuals(nvars, support, diagonals)
    for diagonal, residual, pair in zip(diagonals, residuals.tolist(), worst):
        entries = {(alpha, alpha): d for alpha, d in zip(support, diagonal.tolist()) if d}
        assert (residual, pair) == ref.largest_coefficient(ref.sphere_coefficients(support,
                                                                                 entries))


def _random_rows(nvars, seed):
    """Up to four polynomials of degree <= 3 per side, some of them zero."""
    gen = np.random.default_rng(seed)
    count = int(gen.integers(1, 5))
    sides = []
    for _ in range(2):
        sides.append([Polynomial(nvars, {} if gen.random() < 0.25 else
                                 {tuple(gen.integers(0, 4, nvars)):
                                  complex(*gen.standard_normal(2)) * 10.0 ** gen.integers(-3, 4)
                                  for _ in range(int(gen.integers(1, 6)))})
                      for _ in range(count)])
    return sides


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_multiply_rows_agrees_with_polynomial_products(nvars, seed):
    left, right = _random_rows(nvars, seed)
    monos, rows = multiply_rows(nvars, *coefficient_matrix(left),
                                *coefficient_matrix(right))
    assert list(monos) == sorted(set(monos), reverse=True)
    for a, b, got in zip(left, right, polynomials_from_rows(nvars, monos, rows)):
        scale = ref.largest(a) * ref.largest(b)
        assert ref.distance(got, ref.mul(a, b)) <= 1e-14 * scale


@pytest.mark.parametrize("gram_min", [0, polyalg.ORTHOGONAL_GRAM_MIN])
@pytest.mark.parametrize("negated", [0, 1, 20])
def test_signed_gram_of_a_mixed_stack_equals_each_slice_alone(gram_min, negated,
                                                              monkeypatch):
    # 40 rows on 64 columns reach the default ORTHOGONAL_GRAM_MIN.  Members:
    # monomial rows (one column each) under phases and scales, some rows at
    # 1e-12 of the largest; rows that own several columns each; dense rows;
    # zero rows.  Besides, members whose negated rows have entries on a few
    # columns only: q = 1 on the last column, q = 1 - z1 with z1 on the
    # first, and zero rows, under dense and monomial rows.  Each slice's
    # normalized Gram difference agrees too, where ``gram_min`` decides
    # which of its blocks add their diagonal Gram alone.
    monkeypatch.setattr(polyalg, "ORTHOGONAL_GRAM_MIN", gram_min)
    gen = np.random.default_rng(14)
    count, size = 40, 64
    assert count * size * size >= polyalg.ORTHOGONAL_GRAM_MIN
    monomial = np.zeros((count, size), dtype=complex)
    monomial[np.arange(count), gen.permutation(size)[:count]] = 1.0
    scales = gen.uniform(0.5, 2.0, count) * np.exp(2j * np.pi * gen.random(count))
    scales[gen.random(count) < 0.3] *= 1e-12
    several = np.zeros((count, size), dtype=complex)
    several[gen.integers(0, count, size), np.arange(size)] = gen.standard_normal(size)
    dense = gen.standard_normal((count, size)) + 1j * gen.standard_normal((count, size))
    one = np.zeros(size, dtype=complex)
    one[-1] = 1.0
    linear = one.copy()
    linear[0] = -1.0
    narrow = []
    for tail in (one, linear, np.zeros(size)):
        for head in (dense, monomial * scales[:, None]):
            rows = head.copy()
            rows[count - negated:] = tail * gen.uniform(0.5, 2.0, (negated, 1))
            narrow.append(rows)
    stack = np.stack([monomial * scales[:, None], dense, several, monomial,
                      np.zeros((count, size)), several * 1j, *narrow])
    grams = signed_gram(stack, negated)
    eps = np.finfo(float).eps
    for rows, gram in zip(stack, grams):
        assert gram.tobytes() == signed_gram(rows, negated).tobytes()
        head, tail = rows[:count - negated], rows[count - negated:]
        dense_gram = head.T @ head.conj() - tail.T @ tail.conj()
        norms = np.linalg.norm(rows, axis=0)
        assert np.all(np.abs(gram - dense_gram) <= 4 * eps * np.outer(norms, norms))
        normalized, own = polyalg.normalized_gram_difference(head, tail)
        assert np.all(np.abs(own - norms) <= 4 * eps * norms)
        assert np.all(np.abs(normalized * np.outer(own, own) - dense_gram)
                      <= 4 * eps * np.outer(norms, norms))


def test_benchmark_workloads_pass_their_own_checks(monkeypatch, tmp_path):
    # One pass of three workloads at seed 3, the CLI in this process: every
    # name the benchmark reads of the program must still be there and agree.
    workloads = bench_module("workloads", monkeypatch)
    src = str(Path(__file__).resolve().parents[1] / "src")
    ops = [*workloads.family_grid(3), *workloads.map_certify(3),
           *workloads.cli_cold(3, str(tmp_path), src, in_process=True)]
    assert len(ops) >= 60
    for op in ops:
        assert op.check(op.run()) == [], op.id


def test_every_traced_benchmark_target_resolves(monkeypatch):
    # The benchmark's tracer wraps callables by (module, qualname), the
    # public reduce_mod_sphere among them; each must still resolve.
    layers = bench_module("layers", monkeypatch)
    names = set()
    for module, qualname, _ in layers.TARGETS:
        target = importlib.import_module(f"propermaps.{module}")
        for part in qualname.split("."):
            target = getattr(target, part)
        assert callable(target), (module, qualname)
        names.add(qualname)
    assert "reduce_mod_sphere" in names and "reduce_mod_sphere" in propermaps.__all__


def test_only_the_term_dict_boundary_reads_polynomial_views():
    # RationalBallMap.p and .q build Polynomial views on each read.  In the
    # package only map documents and the sampled denominator check read
    # them; everything else reads coefficient rows.
    allowed = {("documents", "map_to_document"), ("ballmaps", "_check_denominators")}
    readers, outside = set(), []
    for path in sorted(Path(propermaps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = [(f"{node.name}.{getattr(item, 'name', '')}", item)
                  for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body]
        owners += [(getattr(node, "name", ""), node)
                   for node in tree.body if not isinstance(node, ast.ClassDef)]
        for owner, node in owners:
            for attr in ast.walk(node):
                if (isinstance(attr, ast.Attribute) and attr.attr in ("p", "q")
                        and isinstance(attr.ctx, ast.Load)):
                    readers.add((path.stem, owner))
                    if (path.stem, owner) not in allowed:
                        outside.append(f"{path.name}:{attr.lineno} {owner} reads .{attr.attr}")
    assert outside == []
    assert ("documents", "map_to_document") in readers

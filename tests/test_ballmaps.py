import math
from fractions import Fraction

import numpy as np
import pytest

from propermaps._linalg import random_unitary
from propermaps.ballmaps import (DenominatorVanishesError, DimensionMismatchError,
                                 NormalizationError, RationalBallMap, Verdict,
                                 apply_linear, certify_proper, coefficient_bound,
                                 compose, degree, degree_bound,
                                 denominator_from_factors, denominator_sup_bound,
                                 embedding_dimension, largest_binomial_coefficient,
                                 norm_equivalent)
from propermaps.constructors import (BallAutomorphism, BlaschkeProduct, automorphism_map,
                                     blaschke_map, juxtapose)
from propermaps.corpus import quadric_three_map, whitney_map
from propermaps.homotopy import degree_drop_family
from propermaps.polyalg import Polynomial, squared_norm_form

from conftest import sample_sphere


def var(j, n=2):
    return Polynomial.variable(n, j)


@pytest.fixture(scope="module")
def quartic():
    fam = degree_drop_family()
    return fam.endpoint_right  # (z, zw, zw^2, zw^3, w^4)


@pytest.fixture(scope="module")
def cubic():
    return degree_drop_family().endpoint_left  # (-w^2, zw, -zw^2, z^2 w, z^2)


# ------------------------------------------------------------- construction
def test_denominator_must_be_normalized():
    q = Polynomial(2, {(0, 0): 0.5})
    with pytest.raises(NormalizationError):
        RationalBallMap(2, 1, [var(0)], q)


def test_component_count_must_match_target():
    with pytest.raises(DimensionMismatchError):
        RationalBallMap(2, 3, [var(0), var(1)])


def test_padding_appends_zero_components():
    m = RationalBallMap.identity(2).padded(4)
    assert m.N == 4
    assert m.p[2].is_zero and m.p[3].is_zero
    with pytest.raises(DimensionMismatchError):
        m.padded(3)


# ------------------------------------------------------------ certification
def test_cubic_map_is_proper(cubic):
    cert = certify_proper(cubic)
    assert cert.verdict is Verdict.PROPER
    assert cert.residual_norm <= 1e-9


def test_group_invariant_quintic_is_proper():
    z1, z2 = var(0), var(1)
    r5 = math.sqrt(5.0)
    m = RationalBallMap(2, 4, [z1 ** 5, r5 * z1 ** 3 * z2, r5 * z1 * z2 ** 2,
                               z2 ** 5])
    cert = certify_proper(m)
    assert cert.verdict is Verdict.PROPER


def test_constant_map_certifies_as_constant_on_sphere():
    m = RationalBallMap.constant([1.0, 0.0], 2)
    assert certify_proper(m).verdict is Verdict.CONSTANT_ON_SPHERE


def test_not_proper_with_witness():
    m = RationalBallMap(2, 2, [0.5 * var(0), 0.5 * var(1)])
    cert = certify_proper(m)
    assert cert.verdict is Verdict.NOT_PROPER
    assert cert.residual_norm > 1e-9
    assert cert.witness is not None and cert.witness_value > 1e-9


def test_denominator_floor_is_enforced():
    phi = BallAutomorphism([0.8, 0.0])
    m = automorphism_map(phi)
    # min |q| on the closed ball is about 1 - 0.8 = 0.2 < 0.5.
    with pytest.raises(DenominatorVanishesError):
        certify_proper(m, denominator_floor=0.5)
    assert certify_proper(m).verdict is Verdict.PROPER


def test_shrunken_map_has_its_largest_remainder_at_the_constant_pair():
    # ||z/2||^2 - 1 = -3/4 on the sphere: the remainder is the constant -3/4.
    cert = certify_proper(RationalBallMap(2, 2, [0.5 * var(0), 0.5 * var(1)]))
    assert cert.verdict is Verdict.NOT_PROPER
    assert cert.residual_norm == pytest.approx(0.75)
    assert cert.worst_entry == ((0, 0), (0, 0))
    assert certify_proper(RationalBallMap.identity(2)).worst_entry is None


def test_automorphism_denominator_is_certified_from_its_factor():
    m = automorphism_map(BallAutomorphism([0.8, 0.0]))
    cert = certify_proper(m, witness_samples=0)
    assert cert.denominator_method == "factored"
    assert cert.denominator_margin == pytest.approx(0.2, abs=1e-12)
    assert cert.witness is None and cert.witness_value is None


def test_degree_one_denominator_reaching_the_sphere_is_rejected():
    # q = 1 - z1 vanishes at z = (1, 0); sampling alone never finds that point.
    q = Polynomial(2, {(0, 0): 1.0, (1, 0): -1.0})
    m = RationalBallMap(2, 2, [var(0), var(1)], q)
    with pytest.raises(DenominatorVanishesError, match="factor"):
        certify_proper(m)
    inside = RationalBallMap(2, 2, [var(0), var(1)],
                             Polynomial(2, {(0, 0): 1.0, (0, 1): 0.5j}))
    cert = certify_proper(inside)
    assert cert.denominator_method == "factored"
    assert cert.denominator_margin == pytest.approx(0.5)


def test_denominator_methods_in_order_of_preference():
    z1, z2 = var(0), var(1)
    assert certify_proper(RationalBallMap.identity(2)).denominator_method == "trivial"
    bounded = RationalBallMap(2, 1, [z1], Polynomial.one(2) + z1 * z2 * 0.25)
    cert = certify_proper(bounded)
    assert cert.denominator_method == "coefficient-bound"
    assert cert.denominator_margin == pytest.approx(0.75)
    # Two factors in different directions: the product of their minima (0.16)
    # is below the floor, the true minimum (about 0.33) is not, so sampling
    # decides and the map is not rejected.
    f = automorphism_map(BallAutomorphism([0.6, 0.0]))
    g = automorphism_map(BallAutomorphism([0.0, 0.6]))
    both = juxtapose(f, g, 0.5)
    assert certify_proper(both).denominator_method == "factored"
    cert = certify_proper(both, denominator_floor=0.25)
    assert cert.denominator_method == "sampled"
    assert 0.25 <= cert.denominator_margin <= 0.45
    assert cert.verdict is Verdict.PROPER


def test_carried_factors_are_checked_against_the_denominator():
    q = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5})
    honest = RationalBallMap(2, 2, [var(0), var(1)], q, factors=[[0.5, 0.0]])
    wrong = RationalBallMap(2, 2, [var(0), var(1)], q, factors=[[0.99, 0.0]])
    assert certify_proper(honest, denominator_floor=0.05).denominator_method == "factored"
    cert = certify_proper(wrong, denominator_floor=0.05)
    assert cert.denominator_method == "coefficient-bound"
    assert cert.denominator_margin == pytest.approx(0.5)
    with pytest.raises(DimensionMismatchError):
        RationalBallMap(2, 2, [var(0), var(1)], q, factors=[[0.5, 0.0, 0.0]])
    with pytest.raises(ValueError):
        RationalBallMap(2, 2, [var(0), var(1)], q, factors=[[float("nan"), 0.0]])


def test_linear_operations_keep_the_factors(rng):
    m = automorphism_map(BallAutomorphism([0.3, -0.2j]))
    u = random_unitary(2, rng)
    for kept in (m.padded(4), m.scaled(0.5), apply_linear(u, m)):
        assert np.array_equal(kept.factors, m.factors)
    square = compose(RationalBallMap(2, 2, [var(0) * var(0), var(1)]), m)
    assert square.factors.shape == (2, 2)
    assert denominator_from_factors(2, square.factors).allclose(square.q, 1e-12)
    assert certify_proper(square).denominator_method == "factored"
    # A rational outer map changes the denominator: no factors are claimed.
    assert len(compose(m, m).factors) == 0


def test_certification_agrees_with_sphere_sampling(registry):
    for name, m in registry.maps.items():
        cert = certify_proper(m)
        assert cert.verdict is Verdict.PROPER, name
        pts = sample_sphere(m.n, 500, seed=11)
        defect = np.abs(np.sum(np.abs(m.evaluate_many(pts)) ** 2, axis=1) - 1.0)
        assert defect.max() <= 1e-6, name


# ---------------------------------------------------------------- invariants
def test_degrees_of_named_maps(quartic, cubic):
    assert degree(quartic) == 4
    assert degree(cubic) == 3
    assert degree(RationalBallMap.identity(3)) == 1


def test_embedding_dimensions(quartic, cubic):
    assert embedding_dimension(quartic) == 5
    assert embedding_dimension(cubic) == 5
    assert embedding_dimension(RationalBallMap.identity(3)) == 3
    thin = RationalBallMap(1, 2, [Polynomial.variable(1, 0), Polynomial.zero(1)])
    assert embedding_dimension(thin) == 1


def test_embedding_dimension_unitary_invariant(quartic, rng):
    u = random_unitary(5, rng)
    assert embedding_dimension(apply_linear(u, quartic)) == 5


def test_embedding_dimension_equals_norm_form_rank(registry):
    from propermaps._linalg import numerical_rank
    for name, m in registry.maps.items():
        _, mat = m.squared_norm_form().as_matrix()
        assert numerical_rank(mat) == embedding_dimension(m), name


def test_apply_linear_with_rectangular_non_unitary_matrix(rng):
    m = automorphism_map(BallAutomorphism([0.3 - 0.1j, 0.2j]))
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    out = apply_linear(a, m)
    assert (out.n, out.N) == (2, 4)
    assert out.q.terms == m.q.terms
    pts = 0.8 * sample_sphere(2, 25, seed=3)
    want = m.evaluate_many(pts) @ a.T
    assert np.max(np.abs(out.evaluate_many(pts) - want)) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        apply_linear(a.T, m)


def test_map_distance_pads_and_compares_denominators(quartic):
    assert quartic.distance(quartic.padded(7)) == 0.0
    assert quartic.padded(7).allclose(quartic)
    shifted = RationalBallMap(2, 5, quartic.p, Polynomial(2, {(0, 0): 1.0, (1, 0): 0.25}))
    assert quartic.distance(shifted) == pytest.approx(0.25)
    assert not RationalBallMap.identity(2).allclose(RationalBallMap.identity(3))


# ----------------------------------------------------------- norm equivalence
def test_unitary_rotation_is_norm_equivalent(quartic, rng):
    u = random_unitary(5, rng)
    result = norm_equivalent(quartic, apply_linear(u, quartic))
    assert result.equivalent
    assert result.witness_residual <= 1e-6
    assert np.max(np.abs(result.unitary @ result.unitary.conj().T - np.eye(5))) < 1e-10


def test_zero_padding_is_norm_equivalent(quartic):
    result = norm_equivalent(quartic, quartic.padded(7))
    assert result.equivalent and result.witness_residual <= 1e-6


def test_identity_vs_origin_moving_automorphism_inequivalent():
    moved = automorphism_map(BallAutomorphism([0.4, 0.1]))
    result = norm_equivalent(RationalBallMap.identity(2), moved)
    assert not result.equivalent
    assert result.mismatch is not None


def test_quartic_and_cubic_are_inequivalent(quartic, cubic):
    assert not norm_equivalent(quartic, cubic).equivalent


def test_norm_equivalence_is_an_equivalence_relation(registry):
    maps = [registry.maps[k] for k in ("faran.f", "faran.g", "faran.h", "faran.phi",
                                       "ex2.1.f", "ex2.1.g", "ex2.1.h")]
    for m in maps:
        assert norm_equivalent(m, m).equivalent
    for a in maps:
        for b in maps:
            ab = norm_equivalent(a, b)
            ba = norm_equivalent(b, a)
            assert ab.equivalent == ba.equivalent
    # transitivity via a rotated/padded chain
    u = random_unitary(3, np.random.default_rng(1))
    a = registry.maps["faran.h"]
    b = apply_linear(u, a)
    c = b.padded(5)
    assert norm_equivalent(a, b).equivalent
    assert norm_equivalent(b, c).equivalent
    assert norm_equivalent(a, c).equivalent


def test_norm_equivalence_across_different_denominators(rng):
    f = automorphism_map(BallAutomorphism([0.3 - 0.1j, 0.2j]))
    u = random_unitary(2, rng)
    rotated = apply_linear(u, f)
    h = denominator_from_factors(2, [[0.4, -0.2j]])  # 1 - <z, b>
    g = RationalBallMap(2, 2, [comp * h for comp in rotated.p], rotated.q * h)
    result = norm_equivalent(f, g)
    assert result.equivalent
    assert result.witness_residual <= 1e-10
    assert np.max(np.abs(result.unitary - u)) <= 1e-10
    other = automorphism_map(BallAutomorphism([0.1, 0.5]))
    result = norm_equivalent(f, other)
    assert not result.equivalent
    left = squared_norm_form([comp * other.q for comp in f.p])
    right = squared_norm_form([comp * f.q for comp in other.p])
    expected = (left - right).max_abs_entry()
    assert abs(abs(result.mismatch[2]) - expected) <= 1e-12 * expected


def test_norm_equivalent_requires_common_domain():
    with pytest.raises(DimensionMismatchError):
        norm_equivalent(RationalBallMap.identity(2), RationalBallMap.identity(3))


# ------------------------------------------------------------------- bounds
def test_degree_bound_values():
    assert degree_bound(2, 3) == Fraction(3)
    assert degree_bound(2, 5) == Fraction(10)
    assert degree_bound(3, 3) == Fraction(1)
    with pytest.raises(ValueError):
        degree_bound(1, 5)


def test_degree_bound_holds_on_registry(registry):
    for name, m in registry.maps.items():
        if m.n >= 2:
            assert degree(m) <= degree_bound(m.n, m.N), name


def test_coefficient_bound_building_blocks():
    assert largest_binomial_coefficient(1) == 1
    assert largest_binomial_coefficient(4) == 6
    assert denominator_sup_bound(1) == 2.0
    assert coefficient_bound(1, 1) == pytest.approx(2.0 * 2.0)


def test_registry_coefficients_within_bound(registry):
    for name, m in registry.maps.items():
        bound = coefficient_bound(m.n, max(degree(m), int(m.q.degree)))
        worst = max([comp.max_abs_coeff() for comp in m.p] + [m.q.max_abs_coeff()])
        assert worst <= bound, name


# -------------------------------------------------------------- composition
def test_composition_closure_through_rotations():
    w_map = whitney_map()
    h = quadric_three_map()
    for k in range(11):
        theta = math.pi / 2 * k / 10
        c, s = math.cos(theta), math.sin(theta)
        u = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        composed = compose(w_map, apply_linear(u, h))
        assert certify_proper(composed).verdict is Verdict.PROPER


def test_composition_with_rational_inner_map():
    phi = BallAutomorphism([0.3, -0.2j])
    inner = automorphism_map(phi)
    outer = quadric_three_map()
    composed = compose(outer, inner)
    assert certify_proper(composed).verdict is Verdict.PROPER
    z = np.array([0.2 + 0.1j, -0.3])
    direct = outer.evaluate(inner.evaluate(z))
    assert np.max(np.abs(composed.evaluate(z) - direct)) < 1e-10


def test_compose_dimension_check():
    with pytest.raises(DimensionMismatchError):
        compose(RationalBallMap.identity(3), RationalBallMap.identity(2))

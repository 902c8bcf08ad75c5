import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unittest import mock

from propermaps import _linalg, ballmaps, polyalg
from propermaps._linalg import random_unitary
from propermaps.ballmaps import (DenominatorVanishesError, DimensionMismatchError,
                                 NormalizationError, RationalBallMap, Verdict,
                                 apply_linear, certify_maps, certify_proper,
                                 coefficient_bound, compose, degree, degree_bound,
                                 denominator_sup_bound,
                                 embedding_dimension, largest_binomial_coefficient,
                                 norm_equivalent)
from propermaps.constructors import (BallAutomorphism, BlaschkeProduct, automorphism_map,
                                     blaschke_map, juxtapose, random_ball_automorphism,
                                     tensor_on_subspace, whitney_extend, whitney_start)
from propermaps.corpus import faran_maps, quadric_three_map, whitney_map
from propermaps.homotopy import degree_drop_family, homotopy_to_monomial, verify_family
from propermaps.polyalg import (COEFFICIENT_FLOOR, Polynomial, align_rows, coefficient_matrix,
                                properness_form, signed_gram)
from propermaps.xvariety import (build_xmatrix, fiber_at, graph_test,
                                 xmatrix_along_family)

import polyref as ref
from conftest import bench_module, sample_sphere


def var(j, n=2):
    return ref.var(n, j)


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
    m = RationalBallMap(2, 4, [ref.power(z1, 5), ref.mul(r5, ref.power(z1, 3), z2),
                               ref.mul(r5, z1, ref.power(z2, 2)), ref.power(z2, 5)])
    cert = certify_proper(m)
    assert cert.verdict is Verdict.PROPER


def test_constant_map_certifies_as_constant_on_sphere():
    m = RationalBallMap.constant([1.0, 0.0], 2)
    assert certify_proper(m).verdict is Verdict.CONSTANT_ON_SPHERE


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_constant_maps_read_from_squared_moduli_match_the_whole_stack(seed):
    # Rows with one entry each, as a monomial map's: the path that reads the
    # off-q columns from the squared moduli decides as the whole difference.
    # Half the rows are scaled to put their largest entry just below or just
    # above tol; |c| = tol itself is left out, where |c|^2 and tol^2 may
    # round apart.
    gen = np.random.default_rng(seed)
    count, rows, size = (int(v) for v in gen.integers(1, 6, 3))
    stack = np.zeros((count, rows + 1, size + 1), dtype=complex)
    columns = gen.integers(0, size + 1, (count, rows))
    sizes = 10.0 ** gen.uniform(-11, 1, (count, rows))
    near_tol = gen.random((count, rows)) < 0.5
    sizes[near_tol] *= 1e-9 * gen.choice([0.5, 0.99, 1.01, 2.0]) / sizes[near_tol].max(initial=1.0)
    stack[np.arange(count)[:, None], np.arange(rows), columns] = \
        sizes * np.exp(2j * np.pi * gen.random((count, rows)))
    # q(0) off 1 makes p_i(0) - p_i(0) q(0) exceed tol for the larger p_i(0).
    stack[:, -1, -1] = 1 + gen.choice([0.0, 1e-12, -1e-8], count)
    squares = stack.real * stack.real + stack.imag * stack.imag
    tol = polyalg.DEFAULT_TOL
    assert np.array_equal(ballmaps._constant_maps(stack, tol, squares),
                          ballmaps._constant_maps(stack, tol))


def test_not_proper_with_witness():
    m = RationalBallMap(2, 2, [ref.mul(0.5, var(0)), ref.mul(0.5, var(1))])
    cert = certify_proper(m)
    assert cert.verdict is Verdict.NOT_PROPER
    assert cert.residual_norm > 1e-9
    assert cert.witness is not None and cert.witness_value > 1e-9


def test_denominator_floor_is_enforced():
    phi = BallAutomorphism([0.8, 0.0])
    m = automorphism_map(phi)
    # min |q| on the closed ball is about 1 - 0.8 = 0.2 < 0.5.
    with mock.patch.object(ballmaps, "DENOMINATOR_FLOOR", 0.5), \
            pytest.raises(DenominatorVanishesError):
        certify_proper(m)
    assert certify_proper(m).verdict is Verdict.PROPER


def test_shrunken_map_has_its_largest_coefficient_at_the_first_degree_one_pair():
    # ||z/2||^2 - 1 = -3/4 on the sphere: both Bernstein coefficients of the
    # degree-one shift-0 keys are -3/4, and the first in row-major order wins.
    cert = certify_proper(RationalBallMap(2, 2, [ref.mul(0.5, var(0)), ref.mul(0.5, var(1))]))
    assert cert.verdict is Verdict.NOT_PROPER
    assert cert.residual_norm == pytest.approx(0.75)
    assert cert.worst_entry == ((1, 0), (1, 0))
    assert certify_proper(RationalBallMap.identity(2)).worst_entry is None


def test_automorphism_denominator_is_certified_from_its_factor():
    m = automorphism_map(BallAutomorphism([0.8, 0.0]))
    cert = certify_proper(m)
    assert cert.denominator_method == "factored"
    assert cert.denominator_margin == pytest.approx(0.2, abs=1e-12)


def test_witnesses_are_computed_on_first_read(registry, rng, monkeypatch):
    maps = [*registry.maps.values(), automorphism_map(BallAutomorphism([0.8, 0.0])),
            RationalBallMap(2, 2, [ref.mul(0.5, var(0)), ref.mul(0.5, var(1))])]
    expected = [ballmaps._witness(m, 11) for m in maps]
    m = registry.maps["faran.h"]
    rotated = apply_linear(random_unitary(m.N, rng), m)
    family = registry.families["faran.fg.family"]
    calls = {"evaluate": 0, "procrustes": 0}
    evaluate, procrustes = RationalBallMap.evaluate_many, _linalg.procrustes_unitary

    def counted_evaluate(self, points):
        calls["evaluate"] += 1
        return evaluate(self, points)

    def counted_procrustes(source, target):
        calls["procrustes"] += 1
        return procrustes(source, target)

    monkeypatch.setattr(RationalBallMap, "evaluate_many", counted_evaluate)
    monkeypatch.setattr(_linalg, "procrustes_unitary", counted_procrustes)
    # Nothing is sampled or solved during certification or a decision.
    singles = [certify_proper(m, seed=11) for m in maps]
    blocks = [cert for cert, _, _ in certify_maps(maps, seed=11)]
    result = norm_equivalent(m, rotated)
    assert verify_family(family).passed
    assert result.equivalent and singles[-1].verdict is Verdict.NOT_PROPER
    assert calls == {"evaluate": 0, "procrustes": 0}

    # The first read samples, with the certificate's seed; later reads do not.
    for certs in (singles, blocks):
        for cert, sample in zip(certs, expected):
            assert np.array_equal(cert.witness, sample["witness"])
            assert cert.witness_value == sample["witness_value"]
    assert calls["evaluate"] == 2 * len(maps)
    for cert in singles + blocks:
        # The point is its own array, so the other samples can be freed.
        assert cert.witness.base is None and cert.witness_value is not None
    assert calls["evaluate"] == 2 * len(maps)

    unitary = procrustes(*result._stacks)
    stack_f, stack_g = result._stacks
    assert np.array_equal(result.unitary, unitary)
    assert result.witness_residual == np.max(np.abs(unitary @ stack_f - stack_g))
    assert result.unitary is result.unitary
    assert calls["procrustes"] == 1
    half = RationalBallMap(2, 2, [ref.mul(0.5, var(0)), ref.mul(0.5, var(1))])
    mismatch = norm_equivalent(m, half)
    assert mismatch.unitary is None and mismatch.witness_residual is None
    assert calls["procrustes"] == 1


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


def _tensor_power(d):
    """z^(x)d on B_2: the components sqrt(binomial(d, k)) z1^(d-k) z2^k."""
    return RationalBallMap(2, d + 1, [Polynomial(2, {(d - k, k): math.sqrt(math.comb(d, k))})
                                      for k in range(d + 1)])


def test_power_of_one_linear_factor_is_decided_exactly():
    z1, z2 = var(0), var(1)
    # (1 - z1)^2 vanishes at (1, 0); sampling alone never finds that point.
    with pytest.raises(DenominatorVanishesError, match="factors"):
        certify_proper(RationalBallMap(2, 2, [z1, z2], ref.power(ref.sub(1.0, z1), 2)))
    # (1 - (z1 + z2)/2)^4 is least at (1, 1)/sqrt(2), which sampling overstates.
    q = ref.power(ref.sub(1.0, ref.mul(ref.add(z1, z2), 0.5)), 4)
    cert = certify_proper(RationalBallMap(2, 2, [z1, z2], q))
    assert cert.denominator_method == "factored"
    assert cert.denominator_margin == pytest.approx((1 - 1 / math.sqrt(2)) ** 4, abs=1e-12)


def test_repeated_centre_gives_the_exact_minimum():
    # q = (1 - z1/2)^20 is least at (1, 0), where |q| = 0.5^20 = 9.5e-7 lies
    # below the floor 1e-6; a sampled minimum stays above it.
    m = compose(_tensor_power(20), automorphism_map(BallAutomorphism([0.5, 0.0])))
    assert len(m.factors) == 20
    for kept in (m, RationalBallMap(2, m.N, m.p, m.q)):
        with pytest.raises(DenominatorVanishesError, match="9.537e-07"):
            certify_proper(kept)


#: Largest total multiplicity by domain dimension, so that the reference
#: product keeps at most C(K + n, n) <= 1001 monomials.
_FACTOR_DEGREES = {1: 40, 2: 40, 3: 15, 4: 10}


@st.composite
def _factor_stacks(draw):
    """(n, centres): a (T, K, n) stack of denominator factor centres.

    The columns come in slots of 1 to 40 copies of one centre per member,
    shuffled.  In each member a slot may take the previous slot's centre,
    so that a centre repeats in every member or in only some.  A component
    is zero or has a modulus in [1/64, 0.99 / sqrt(n)), so every centre has
    norm below 1.
    """
    n = draw(st.integers(1, 4))
    left = _FACTOR_DEGREES[n]
    sizes = [draw(st.integers(1, left))]
    while sizes[-1] < left and len(sizes) < 4 and draw(st.booleans()):
        left -= sizes[-1]
        sizes.append(draw(st.integers(1, left)))
    count = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    moduli = gen.uniform(1 / 64, 0.99 / math.sqrt(n), (count, len(sizes), n))
    moduli[gen.random(moduli.shape) < 0.2] = 0.0
    slots = moduli * np.exp(2j * np.pi * gen.random(moduli.shape))
    for k in range(1, len(sizes)):
        for t in range(count):
            if draw(st.booleans()):
                slots[t, k] = slots[t, k - 1]
    order = draw(st.permutations(range(sum(sizes))))
    return n, np.repeat(slots, sizes, axis=1)[:, order]


def _linear_factor_product(n, centres):
    """prod_k (1 - <z, a_k>) over the rows a_k of ``centres``, as Polynomials."""
    out = Polynomial.one(n)
    for a in centres:
        out = ref.mul(out, Polynomial(n, {(0,) * n: 1.0, **{tuple(np.eye(n, dtype=int)[j]):
                                                            -np.conj(a[j]) for j in range(n)}}))
    return out


def _one_power_per_centre(n, centres):
    """(support, bytes of the rows) of ``_factor_rows`` with one
    ``_power_rows`` call per distinct centre, in order of first column."""
    monos = rows = None
    for columns, centre in polyalg._mask_groups(centres.swapaxes(0, 1)):
        power = ballmaps._power_rows(n, len(columns), centre)
        monos, rows = power if rows is None else polyalg.multiply_rows(n, monos, rows, *power)
        rows[np.abs(rows) <= COEFFICIENT_FLOOR] = 0.0
    return monos, rows.tobytes()


@settings(max_examples=40, deadline=None)
@given(_factor_stacks())
def test_factor_rows_agree_with_the_product_of_linear_factors(drawn):
    n, centres = drawn
    count = centres.shape[1]
    # The storage floor drops mass from both products wherever a coefficient
    # passes below it, which no rounding bound covers; centres scaled by a
    # power of two keep every coefficient above it.  The scaling is exact,
    # so the rounding is that of the unscaled products.
    moduli = np.abs(centres)
    smallest = moduli[moduli > 0].min(initial=1.0)
    centres = centres * 2.0 ** math.ceil(-math.log2(smallest))
    support, rows = ballmaps._factor_rows(n, centres)
    assert (support, rows.tobytes()) == _one_power_per_centre(n, centres)
    for row, member in zip(rows, centres):
        got = dict(zip(support, row.tolist()))
        want = _linear_factor_product(n, member).terms
        bound = _linear_factor_product(n, -np.abs(member)).terms
        # Each coefficient within 8 K eps of the product of the moduli, the
        # sum of the moduli of the terms that add up to it.
        slack = {alpha: 8 * count * np.finfo(float).eps * abs(c) for alpha, c in bound.items()}
        for alpha, value in got.items():
            assert abs(value - want.get(alpha, 0.0)) <= slack.get(alpha, 0.0)
        # Equal supports, but for a coefficient that cancels to the floor.
        mine = {alpha for alpha, value in got.items() if value != 0}
        for alpha in mine ^ set(want):
            assert abs(got.get(alpha, 0.0)) + abs(want.get(alpha, 0.0)) \
                <= COEFFICIENT_FLOOR + slack.get(alpha, 0.0)


def test_composition_without_its_factors_is_certified_without_sampling(monkeypatch):
    m = compose(_tensor_power(3), automorphism_map(BallAutomorphism([0.3, -0.2j])))
    stripped = RationalBallMap(2, m.N, m.p, m.q)
    assert len(stripped.factors) == 0

    def no_sampling(*args):
        raise AssertionError("the denominator was sampled")

    monkeypatch.setattr(ballmaps, "ball_points", no_sampling)
    monkeypatch.setattr(ballmaps, "sphere_points", no_sampling)
    carried = certify_proper(m)
    own = certify_proper(stripped)
    assert own.denominator_method == carried.denominator_method == "factored"
    assert own.denominator_margin == pytest.approx(carried.denominator_margin, rel=1e-12)
    assert own.verdict is carried.verdict is Verdict.PROPER


def test_denominator_methods_in_order_of_preference():
    z1, z2 = var(0), var(1)
    assert certify_proper(RationalBallMap.identity(2)).denominator_method == "trivial"
    bounded = RationalBallMap(2, 1, [z1], ref.add(1.0, ref.mul(z1, z2, 0.25)))
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
    with mock.patch.object(ballmaps, "DENOMINATOR_FLOOR", 0.25):
        cert = certify_proper(both)
    assert cert.denominator_method == "sampled"
    assert 0.25 <= cert.denominator_margin <= 0.45
    assert cert.verdict is Verdict.PROPER
    # A q that is no power of one linear factor still reaches sampling: so
    # does 1 - z1^3, whose zero at (1, 0) the samples miss.
    for q in (ref.add(1.0, ref.mul(z1, z1, 0.6), ref.mul(z2, z2, 0.6j)),
              ref.sub(1.0, ref.power(z1, 3))):
        cert = certify_proper(RationalBallMap(2, 2, [ref.mul(z1, 0.9), ref.mul(z2, 0.9)], q))
        assert cert.denominator_method == "sampled"


def test_carried_factors_are_checked_against_the_denominator():
    q = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5})
    honest = RationalBallMap(2, 2, [var(0), var(1)], q, factors=[[0.5, 0.0]])
    wrong = RationalBallMap(2, 2, [var(0), var(1)], q, factors=[[0.99, 0.0]])
    with mock.patch.object(ballmaps, "DENOMINATOR_FLOOR", 0.05):
        assert certify_proper(honest).denominator_method == "factored"
        cert = certify_proper(wrong)
    # Centres that miss q are ignored: q's own factor decides, as without them.
    assert cert.denominator_method == "factored"
    assert cert.denominator_margin == pytest.approx(0.5)
    with pytest.raises(DimensionMismatchError):
        RationalBallMap(2, 2, [var(0), var(1)], q, factors=[[0.5, 0.0, 0.0]])
    with pytest.raises(ValueError):
        RationalBallMap(2, 2, [var(0), var(1)], q, factors=[[float("nan"), 0.0]])


def _denominator_outcome(m):
    try:
        cert = certify_proper(m)
    except DenominatorVanishesError as error:
        return str(error)
    return cert.denominator_method, cert.denominator_margin, cert.verdict


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["power", "product", "factor-free"]), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-6, 0.05, 0.3]))
def test_carried_factors_that_miss_q_are_ignored(kind, d, seed, floor):
    gen = np.random.default_rng(seed)

    def centre():
        # Some centres reach the sphere, so that q may vanish on the ball.
        a = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        return a / np.linalg.norm(a) * gen.uniform(0.05, 1.05)

    def factor(a):
        return ref.sub(ref.sub(1.0, ref.mul(var(0), np.conj(a[0]))),
                       ref.mul(var(1), np.conj(a[1])))

    if kind == "power":
        q = ref.power(factor(centre()), d)
    elif kind == "product":
        q = ref.mul(Polynomial.one(2), *[factor(centre()) for _ in range(d)])
    else:
        q = Polynomial(2, {(0, 0): 1.0} | {
            alpha: complex(*gen.standard_normal(2)) * gen.uniform(0.02, 0.5)
            for e in range(1, d + 1) for alpha in polyalg.monomials_of_degree(2, e)
            if gen.random() < 0.6})
    bare = RationalBallMap(2, 2, [ref.mul(var(0), 0.5), ref.mul(var(1), 0.5)], q)
    wrong = RationalBallMap(2, 2, bare.p, q,
                            factors=[centre() for _ in range(gen.integers(1, 4))])
    with mock.patch.object(ballmaps, "DENOMINATOR_FLOOR", floor):
        assert _denominator_outcome(wrong) == _denominator_outcome(bare)


def test_linear_operations_keep_the_factors(rng):
    m = automorphism_map(BallAutomorphism([0.3, -0.2j]))
    u = random_unitary(2, rng)
    for kept in (m.padded(4), m.scaled(0.5), apply_linear(u, m)):
        assert np.array_equal(kept.factors, m.factors)
    square = compose(RationalBallMap(2, 2, [ref.mul(var(0), var(0)), var(1)]), m)
    assert np.array_equal(square.factors, np.vstack([m.factors, m.factors]))
    assert ref.distance(ref.mul(m.q, m.q), square.q) <= 1e-12
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
    thin = RationalBallMap(1, 2, [var(0, 1), Polynomial.zero(1)])
    assert embedding_dimension(thin) == 1


def test_embedding_dimension_unitary_invariant(quartic, rng):
    u = random_unitary(5, rng)
    assert embedding_dimension(apply_linear(u, quartic)) == 5


def test_embedding_dimension_equals_norm_form_rank(registry):
    from propermaps._linalg import numerical_rank
    for name, m in registry.maps.items():
        assert numerical_rank(signed_gram(m.coefficients[:-1])) == embedding_dimension(m), name


def _svd_rank(matrix):
    """The rank kernel as one SVD: singular values above RANK_RTOL times the largest."""
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    return np.count_nonzero(s > s[..., :1] * _linalg.RANK_RTOL, axis=-1)


#: Singular values relative to the largest: well conditioned, near
#: sqrt(GRAM_RTOL) and sqrt(GRAM_RTOL / 2), where the Cholesky test of the
#: Gram matrix stops deciding, on either side of RANK_RTOL, at rounding
#: level, and zero.
_SINGULAR_RATIOS = (1.0, 0.3, 7e-3, 6e-4, 1.01e-4, 1e-4, 0.99e-4, 7.1e-5, 7e-5, 1e-6, 1e-8,
                    1e-10 * (1 + 1e-3), 1e-10 * (1 - 1e-3), 1e-12, 1e-14, 0.0)


@st.composite
def _rank_stacks(draw):
    """A (T, r, c) complex stack, r < c or r > c, each slice U diag(s) V^H
    with singular values s drawn from _SINGULAR_RATIOS, some rows zeroed,
    times 2^e for e in {-900, 0, 900}."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count, rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 11))
    small = min(rows, cols)
    slices = []
    for _ in range(count):
        left = random_unitary(rows, gen)[:, :small]
        right = random_unitary(cols, gen)[:, :small]
        ratios = gen.choice(_SINGULAR_RATIOS, small)
        ratios[0] = 1.0
        x = (left * ratios) @ right.conj().T
        x[gen.random(rows) < 0.15] = 0.0
        slices.append(x * 2.0 ** draw(st.sampled_from([-900, 0, 900])))
    return np.stack(slices)


@settings(max_examples=150, deadline=None)
@given(_rank_stacks())
def test_numerical_rank_counts_what_the_svd_counts(stack):
    assert _linalg.numerical_rank(stack).tolist() == _svd_rank(stack).tolist()
    for x in stack:
        assert _linalg.numerical_rank(x) == int(_svd_rank(x))
        assert _linalg.numerical_rank(x.T) == int(_svd_rank(x.T))


def test_numerical_rank_edge_cases():
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert _linalg.numerical_rank(np.zeros(shape)) == 0
    assert _linalg.numerical_rank(np.zeros((0, 2, 3))).tolist() == []
    assert _linalg.numerical_rank(np.zeros((2, 0, 3))).tolist() == [0, 0]
    assert _linalg.numerical_rank(np.zeros((3, 4))) == 0
    assert _linalg.numerical_rank(np.zeros((2, 3, 4))).tolist() == [0, 0]
    # Entries near the largest and smallest floats are scaled, not squared.
    assert _linalg.numerical_rank(np.diag([1e300, 1e299])) == 2
    assert _linalg.numerical_rank(np.diag([1e-320, 3e-321])) == 2
    nan = np.ones((2, 3, 4), dtype=complex)
    nan[1, 0, 2] = np.nan
    for bad in (nan, nan[1]):
        with pytest.raises(np.linalg.LinAlgError):
            _linalg.numerical_rank(bad)


def test_full_rank_maps_take_no_svd(monkeypatch):
    # The dense compositions of the map-certify ladder, drawn as the
    # benchmark draws them, have sigma_min / sigma_max from 6e-4 to 0.36.
    workloads = bench_module("workloads", monkeypatch)
    maps = [m for name, m, _ in workloads.ladder(np.random.default_rng(3))
            if name.startswith("compose")]
    assert len(maps) == 9
    blocks = []
    for slot, (n, length) in enumerate(workloads.FAMILY_SHAPES):
        term = workloads._whitney_term(n, length, slot, np.random.default_rng(3))
        fam = homotopy_to_monomial(term)
        blocks += ballmaps._runs(fam._evaluate([i / 100 for i in range(101)]))
    full = [b for b in blocks if (_svd_rank(b.rows[:, :-1])
                                  == min(b.rows.shape[1] - 1, b.rows.shape[2])).all()
            and not _linalg.orthogonal_rows(b.rows[:, :-1]).any()]
    assert sum(len(block) for block in full) >= 300
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: (calls.append(args[0].shape), svd(*args, **kw))[1])
    assert [embedding_dimension(m) for m in maps] == [m.N for m in maps]
    for block in full:
        want = min(block.rows.shape[1] - 1, block.rows.shape[2])
        assert ballmaps._embedding_dimensions(block.rows).tolist() == [want] * len(block)
    assert calls == []
    # A rank-deficient map still goes to the SVD.
    twice = ref.add(var(0), var(1))
    deficient = RationalBallMap(2, 3, [twice, twice, ref.mul(var(0), var(1))])
    assert embedding_dimension(deficient) == 2
    assert len(calls) == 1


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


def _same_maps(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.n, a.N, a.support) == (b.n, b.N, b.support)
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert not a.coefficients.flags.writeable and not a.factors.flags.writeable
        assert a.factors.tobytes() == b.factors.tobytes()


def test_stacks_of_maps_equal_the_maps_one_by_one(rng):
    # Members of one stack whose rows have entries in different columns: the
    # store and apply_linear group them by those columns, and every result
    # is the one its map gives alone, bit for bit.
    support = tuple(sorted(((a, b) for a in range(4) for b in range(4) if a + b <= 3),
                           reverse=True))
    stack = rng.standard_normal((8, 5, len(support))) + 1j * rng.standard_normal(
        (8, 5, len(support)))
    stack[:, -1] *= 0.01
    stack[:, -1, -1] = 1.0
    factors = 0.3 * rng.standard_normal((8, 2, 2))
    for k in range(8):
        stack[k, :-1, [k, (3 * k + 1) % 9]] = 0.0
        stack[k, 0, 3] = 0.5 * COEFFICIENT_FLOOR
    stack[5, :, 4] = 0.0  # a column of member 5 without any entry
    # The store is the blocks of consecutive members with one set of columns.
    blocks = RationalBallMap._from_stack(2, support, stack, factors)
    assert [len(block) for block in blocks] == [5, 1, 2]
    stored = [m for block in blocks for m in block]
    _same_maps(stored, [RationalBallMap._from_rows(2, support, rows, centres)
                        for rows, centres in zip(stack, factors)])

    run = blocks[0]  # one support, with entries of p in different columns
    assert len({m.support for m in run}) == 1
    one = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    many = rng.standard_normal((5, 6, 4)) + 1j * rng.standard_normal((5, 6, 4))
    _same_maps([m for block in ballmaps._apply_linear_run(one, run) for m in block],
               [apply_linear(one, m) for m in run])
    _same_maps(apply_linear(many, run[1]), [apply_linear(a, run[1]) for a in many])
    # The public function composes one map: a run, even of one, is refused.
    for bad in (run, run[:1], tuple(run)):
        with pytest.raises(TypeError, match="one RationalBallMap"):
            apply_linear(one, bad)


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
    h = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.4, (0, 1): -0.2j})  # 1 - <z, (0.4, -0.2j)>
    g = RationalBallMap(2, 2, [ref.mul(comp, h) for comp in rotated.p], ref.mul(rotated.q, h))
    result = norm_equivalent(f, g)
    assert result.equivalent
    assert result.witness_residual <= 1e-10
    assert np.max(np.abs(result.unitary - u)) <= 1e-10
    other = automorphism_map(BallAutomorphism([0.1, 0.5]))
    result = norm_equivalent(f, other)
    assert not result.equivalent
    support, (left, right) = align_rows(
        coefficient_matrix([ref.mul(comp, other.q) for comp in f.p]),
        coefficient_matrix([ref.mul(comp, f.q) for comp in other.p]))
    expected = np.abs(signed_gram(np.vstack([left, right]), len(right))).max()
    assert abs(abs(result.mismatch[2]) - expected) <= 1e-12 * expected


def test_zero_maps_are_norm_equivalent():
    # Their stacked rows keep no column, so every Gram is 0 x 0.
    zero = RationalBallMap(2, 1, [Polynomial.zero(2)])
    assert norm_equivalent(zero, zero.padded(3)).equivalent
    assert embedding_dimension(zero) == 0


def test_norm_equivalent_requires_common_domain():
    with pytest.raises(DimensionMismatchError):
        norm_equivalent(RationalBallMap.identity(2), RationalBallMap.identity(3))


def _norm_equivalence_oracle(f, g, tol):
    """Norm equivalence decided on one stack: the aligned rows of both sides
    concatenated, their columns without an entry dropped, the dense signed
    Gram G, entries flagged where |G_ij| > tol * outer(norms, norms)_ij, and
    the first largest flagged entry in row-major order.  Returns (decision,
    (i, j, G_ij) or None, the relative Gram |G| / outer(norms, norms), the
    flags, norms, monomials, the two sides' rows)."""
    big = max(f.N, g.N)
    fp, gp = f.padded(big), g.padded(big)
    _, (fq, gq) = polyalg.align_rows((f.support, f.coefficients[-1:]),
                                     (g.support, g.coefficients[-1:]))
    shared = np.abs(fq - gq).max() <= tol
    if shared:
        left, right = (fp.support, fp.coefficients[:-1]), (gp.support, gp.coefficients[:-1])
    else:
        left = polyalg.multiply_rows(f.n, fp.support, fp.coefficients[:-1], g.support,
                                     np.repeat(g.coefficients[-1:], big, axis=0))
        right = polyalg.multiply_rows(f.n, gp.support, gp.coefficients[:-1], f.support,
                                      np.repeat(f.coefficients[-1:], big, axis=0))
    monos, (a, b) = polyalg.align_rows(left, right)
    stack = np.concatenate([a, b])
    if not shared:
        stack[np.abs(stack) <= COEFFICIENT_FLOOR] = 0.0
    live = stack.any(axis=0)
    monos, stack = [m for m, keep in zip(monos, live) if keep], stack[:, live]
    top, bottom = stack[:big], stack[big:]
    gram = top.T @ top.conj() - bottom.T @ bottom.conj()
    norms = np.sqrt((np.abs(stack) ** 2).sum(axis=0))
    bound = np.multiply.outer(norms, norms)
    flagged = np.abs(gram) > tol * bound
    relative = np.abs(gram) / np.where(bound > 0, bound, 1.0)
    if not flagged.any():
        return True, None, relative, flagged, norms, monos, (top, bottom)
    i, j = divmod(int(np.argmax(np.where(flagged, np.abs(gram), 0.0))), len(monos))
    return False, (i, j, gram[i, j]), relative, flagged, norms, monos, (top, bottom)


def _random_rows(gen, n, count, degree, constant):
    """(monomials, rows): ``count`` complex rows over the monomials of degree
    at most ``degree`` on B_n, each column scaled by 10^e for a uniform e in
    [-12, 6], with about a third of the entries zero; the constant column
    is kept only when ``constant``."""
    monos = [alpha for k in range(degree + 1) for alpha in polyalg.monomials_of_degree(n, k)]
    rows = gen.standard_normal((count, len(monos))) + 1j * gen.standard_normal((count, len(monos)))
    rows *= 10.0 ** gen.uniform(-12, 6, len(monos))
    rows[gen.random(rows.shape) < 0.35] = 0.0
    rows[:, 0] *= constant
    return monos, rows


def _rows_map(n, monos, rows, q):
    comps = [Polynomial(n, {alpha: c for alpha, c in zip(monos, row.tolist()) if c})
             for row in rows]
    return RationalBallMap(n, len(comps), comps, q)


def _linear_denominator(gen, n):
    """1 - <z, a> for a random a with |a| = 0.5."""
    a = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    return _linear_factor_product(n, [0.5 * a / np.linalg.norm(a)])


@st.composite
def _norm_pairs(draw):
    """(f, g): f with column scales from 1e-12 to 1e6 and a denominator 1 or
    1 - <z, a>, and g one of: a unitary image of f in a target as large or
    larger; that with numerator and denominator multiplied by another linear
    factor, so that the denominators differ; that with one coefficient
    scaled by 1 + delta, delta from 1e-6 to 1; or an unrelated map with
    its own target dimension and support."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, degree, count = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    q = _linear_denominator(gen, n) if draw(st.booleans()) else Polynomial.one(n)
    f = _rows_map(n, *_random_rows(gen, n, count, degree, draw(st.booleans())), q)
    relation = draw(st.sampled_from(["rotated", "denominator", "perturbed", "unrelated"]))
    if relation == "unrelated":
        other = draw(st.integers(1, 4))
        g = _rows_map(n, *_random_rows(gen, n, other, draw(st.integers(1, 3)),
                                       draw(st.booleans())), q)
        return f, g
    big = f.N + draw(st.integers(0, 2))
    g = apply_linear(random_unitary(big, gen), f.padded(big))
    if relation == "denominator":
        h = _linear_denominator(gen, n)
        g = RationalBallMap(n, g.N, [ref.mul(comp, h) for comp in g.p], ref.mul(g.q, h))
    elif relation == "perturbed" and g.coefficients[:-1].any():
        comps = list(g.p)
        k, alpha = max(((k, alpha) for k, comp in enumerate(comps) for alpha in comp.terms),
                       key=lambda key: gen.random())
        delta = 10.0 ** gen.uniform(-6, 0)
        comps[k] = Polynomial(n, {**comps[k].terms, alpha: comps[k].terms[alpha] * (1 + delta)})
        g = RationalBallMap(n, g.N, comps, g.q)
    return f, g


@settings(max_examples=150, deadline=None)
@given(_norm_pairs())
def test_norm_equivalence_agrees_with_the_stacked_oracle(pair):
    f, g = pair
    tol = polyalg.DEFAULT_TOL
    equivalent, found, relative, flagged, norms, monos, stacks = \
        _norm_equivalence_oracle(f, g, tol)
    # Only pairs whose normalized entries all keep a factor of 10 from tol,
    # so that both flag the same entries whatever their rounding.
    assume(not ((relative >= tol / 10) & (relative <= 10 * tol)).any())
    if found is not None:
        # G is Hermitian: (i, j) and (j, i) are one entry, of one size.
        # Two other entries whose sizes are within rounding of each other
        # are a tie that rounding decides, in either computation.
        upper = np.triu(flagged)
        sizes = np.sort((relative * np.multiply.outer(norms, norms))[upper])
        assume(len(sizes) == 1 or sizes[-1] - sizes[-2] > 1e-6 * sizes[-1])
    result = norm_equivalent(f, g, tol)
    assert result.equivalent == equivalent
    assert abs(result.largest_relative - relative.max(initial=0.0)) <= 1e-12
    if equivalent:
        assert result.mismatch is None
        scale = max(np.abs(stacks[0]).max(initial=0.0), np.abs(stacks[1]).max(initial=0.0))
        unitary = _linalg.procrustes_unitary(*stacks)
        expected = (float(np.max(np.abs(unitary @ stacks[0] - stacks[1])))
                    if stacks[0].shape[1] else 0.0)
        assert abs(result.witness_residual - expected) <= 1e-12 * scale
        return
    i, j, value = found
    if i > j:
        i, j, value = j, i, np.conj(value)
    alpha, beta, got = result.mismatch
    assert (alpha, beta) == (monos[i], monos[j])
    # Relative to the Cauchy-Schwarz bound of |G_ij|, which bounds the
    # rounding of either computation; a dense product's diagonal, say, may
    # carry an imaginary part of that order.
    assert abs(got - value) <= 1e-12 * norms[i] * norms[j]
    assert result.unitary is None and result.witness_residual is None


# ------------------------------------------------------------------- bounds
def test_degree_bound_values():
    assert degree_bound(2, 3) == Fraction(3)
    assert degree_bound(2, 5) == Fraction(10)
    assert degree_bound(3, 3) == Fraction(1)
    with pytest.raises(ValueError):
        degree_bound(1, 5)
    with pytest.raises(ValueError, match="no proper map from B3 to B2"):
        degree_bound(3, 2)


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
        worst = max(ref.largest(comp) for comp in (*m.p, m.q))
        assert worst <= bound, name


def test_catalog_tables_equal_their_products(registry):
    # Each catalog map is written as a table of terms; built instead from
    # products of coordinates (polyref), it is the same map, byte for byte.
    mul, power = ref.mul, ref.power
    z, w = var(0), var(1)
    z1, z2, z3 = (var(j, 3) for j in range(3))
    r2, r3, r5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)
    products = {
        "ex2.1.f": [z, mul(z, w), mul(z, power(w, 2)), mul(z, power(w, 3)), power(w, 4)],
        "ex2.1.g": [mul(-1.0, power(w, 2)), mul(z, w), mul(-1.0, z, power(w, 2)),
                    mul(power(z, 2), w), power(z, 2)],
        "ex2.1.h": [z, mul(z, w), mul(w, w)],
        "whitney.W": [z1, z2, mul(z1, z3), mul(z2, z3), mul(z3, z3)],
        "faran.f": [z, w, Polynomial.zero(2)],
        "faran.g": [mul(z, z), mul(z, w), w],
        "faran.h": [mul(z, z), mul(z, w, r2), mul(w, w)],
        "faran.phi": [power(z, 3), mul(z, w, r3), power(w, 3)],
        "ex4.1.map": [power(z, 5), mul(power(z, 3), w, r5), mul(z, power(w, 2), r5),
                      power(w, 5)],
    }
    assert set(products) == set(registry.maps)
    for name, comps in products.items():
        want, got = RationalBallMap.from_components(comps), registry.maps[name]
        assert (got.n, got.N, got.support) == (want.n, want.N, want.support), name
        assert got.coefficients.tobytes() == want.coefficients.tobytes(), name
        assert got.factors.tobytes() == want.factors.tobytes(), name


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


# --------------------------------------------------------- coefficient rows
def _random_components(nvars, seed):
    """Components with zero members and terms below the storage floor or the
    comparison tolerance, and a denominator 1 + q' with sum |q'_alpha| <= 0.4."""
    gen = np.random.default_rng(seed)

    def terms(count, scales):
        return {tuple(gen.integers(0, 4, nvars)):
                complex(*gen.standard_normal(2)) * gen.choice(scales) for _ in range(count)}

    comps = [Polynomial(nvars, {} if gen.random() < 0.25 else
                        terms(int(gen.integers(1, 6)), [1e-16, 1e-12, 1.0, 1.0, 100.0]),
                        tol=0.0)
             for _ in range(int(gen.integers(1, 5)))]
    q_terms = {alpha: 0.2 * c / abs(c) * gen.random()
               for alpha, c in terms(int(gen.integers(0, 3)), [1.0]).items()}
    q_terms[(0,) * nvars] = 1.0
    return comps, Polynomial(nvars, q_terms, tol=0.0)


def _dict_distance(f, g):
    """Largest coefficient difference of the Polynomial views, padded alike."""
    big = max(f.N, g.N)
    a, b = f.padded(big), g.padded(big)
    return max([ref.distance(a.q, b.q)] + [ref.distance(x, y) for x, y in zip(a.p, b.p)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_rows_and_views_agree(nvars, seed):
    comps, q = _random_components(nvars, seed)
    m = RationalBallMap(nvars, len(comps), comps, q)
    above = [{a: c for a, c in poly.terms.items() if abs(c) > COEFFICIENT_FLOOR}
             for poly in (*comps, q)]
    assert [poly.terms for poly in (*m.p, m.q)] == above
    # Canonical form: descending support, read-only rows p_1..p_N, q with
    # nothing at or below the floor but zeros, and no empty column; also for
    # a padded map and the identity.
    for canonical in (m, m.padded(m.N + 2), RationalBallMap.identity(nvars)):
        rows = canonical.coefficients
        assert canonical.support == tuple(sorted(set(canonical.support), reverse=True))
        assert rows.shape == (canonical.N + 1, len(canonical.support))
        assert rows.dtype == complex and not rows.flags.writeable
        assert not np.any((rows != 0) & (np.abs(rows) <= COEFFICIENT_FLOOR))
        assert np.all((np.abs(rows) > COEFFICIENT_FLOOR).any(axis=0))
        assert canonical.factors.shape[1:] == (nvars,) and not canonical.factors.flags.writeable
    reference = properness_form(m.p, m.q)
    assert reference.basis == m.support
    assert np.array_equal(signed_gram(m.coefficients, 1), reference.matrix)

    other_comps, other_q = _random_components(nvars, seed + 1)
    other = RationalBallMap(nvars, len(other_comps), other_comps, other_q)
    assert m.distance(other) == _dict_distance(m, other)
    assert m.distance(m) == 0.0

    gen = np.random.default_rng(seed)
    pts = sample_sphere(nvars, 8, seed=seed % 1000) * gen.random((8, 1))
    for z, values in zip(pts, m.evaluate_many(pts)):
        qz = ref.value(m.q, z)
        for comp, value in zip(m.p, values):
            size = sum(abs(c) * np.prod(np.abs(z) ** np.array(a))
                       for a, c in comp.terms.items())
            assert abs(value - ref.value(comp, z) / qz) <= 1e-12 * (1.0 + size) / abs(qz)


def test_hot_paths_build_no_polynomial(monkeypatch):
    rng = np.random.default_rng(11)
    term = whitney_start(random_ball_automorphism(2, rng))
    term = whitney_extend(term, np.array([0]), random_ball_automorphism(2, rng))
    injection, _ = np.linalg.qr(rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)))
    term = whitney_extend(term, np.array([1, 2]), random_ball_automorphism(2, rng),
                          injection=injection)
    composed = compose(faran_maps()["phi"], automorphism_map(random_ball_automorphism(2, rng)))
    rotated = apply_linear(random_unitary(composed.N, rng), composed)
    quartic = degree_drop_family()
    member = quartic.evaluate(0.5)

    built = []
    init, raw = Polynomial.__init__, Polynomial._raw.__func__

    def counted_init(self, *args, **kwargs):
        built.append("__init__")
        init(self, *args, **kwargs)

    def counted_raw(cls, *args, **kwargs):
        built.append("_raw")
        return raw(cls, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "_raw", classmethod(counted_raw))
    assert verify_family(homotopy_to_monomial(term)).passed
    assert certify_proper(composed).verdict is Verdict.PROPER
    assert (degree(composed), embedding_dimension(composed)) == (3, 3)
    assert norm_equivalent(composed, rotated).equivalent
    x = build_xmatrix(member, degree=4)
    assert x.conjugated_at(rng.standard_normal((3, 2))).shape == (3, 5, 5)
    assert fiber_at(member, x, [0.0, 0.3]).dimension > 0
    assert graph_test(member, x, samples=10).samples_checked == 14
    assert xmatrix_along_family(quartic, grid_size=3).rank_drops == [0.0]
    assert built == []
    # The views still convert on access.
    composed.q
    assert built == ["_raw"]
    entries = x.entries
    assert built == ["_raw"] * (1 + len(entries) * x.N)


# ------------------------------------------------------ batched certification
def _kernel_makers():
    """Makers of maps on B_2, one support each (a new draw keeps the support):
    factored denominators (one or two carried factors, or q's own: one
    factor, or the square or cube of one), trivial, coefficient-bound and
    sampled ones, not-proper members, a constant map, carried factors that
    miss q and a denominator that vanishes on the closed ball.  The
    wrong-factors maker puts one carried centre that misses q on a draw of
    the automorphism, bounded or sampled maker, keeping that maker's
    support, so that q falls through to its own factor, the coefficient
    bound or sampling.  The two makers from the Whitney map are on
    B_3 and share its support: a unitary image, whose rows are dense, and a
    diagonal image, whose rows share no column."""
    z, w = var(0), var(1)

    def automorphism(gen):
        m = automorphism_map(random_ball_automorphism(2, gen))
        return m.scaled(0.8) if gen.random() < 0.3 else m

    def tensored(gen):
        f = automorphism_map(random_ball_automorphism(2, gen))
        return tensor_on_subspace(f, np.array([1.0, 1.0j]) / math.sqrt(2),
                                  random_ball_automorphism(2, gen))

    def own_factor(gen):
        m = automorphism_map(random_ball_automorphism(2, gen))
        return RationalBallMap(2, 2, m.p, m.q)

    def own_power(gen):
        # Over all monomials of degree <= 3: the numerator of a stripped
        # composition with the tensor cube over the square or the cube of an
        # automorphism's denominator, so that one block mixes q degrees.
        phi = automorphism_map(random_ball_automorphism(2, gen))
        cube = compose(_tensor_power(3), phi)
        q = cube.q if gen.random() < 0.5 else ref.power(phi.q, 2)
        return RationalBallMap(2, cube.N, cube.p, q)

    def monomial(gen):
        m = whitney_map()
        return apply_linear(random_unitary(m.N, gen), m)

    def disjoint(gen):
        # Rows that share no column: the monomial map under a diagonal of
        # phases and scales, some rows at 1e-12 of the largest.
        m = whitney_map()
        scales = gen.uniform(0.5, 2.0, m.N) * np.exp(2j * np.pi * gen.random(m.N))
        scales[gen.random(m.N) < 0.3] *= 1e-12
        return apply_linear(np.diag(scales), m)

    def bounded(gen):
        phase = complex(*gen.standard_normal(2))
        return RationalBallMap(2, 2, [z, w], ref.add(ref.mul(z, w, 0.4 * phase / abs(phase)), 1.0))

    def sampled(gen):
        a, b = np.exp(2j * np.pi * gen.random(2))
        q = ref.add(ref.mul(z, z, 0.6 * a), ref.mul(w, w, 0.6 * b), 1.0)
        return RationalBallMap(2, 2, [ref.mul(z, 0.9), ref.mul(w, 0.9)], q)

    def constant(gen):
        return RationalBallMap.constant(np.exp(2j * np.pi * gen.random(2)) / math.sqrt(2), 2)

    def wrong_factors(gen):
        m = [automorphism, bounded, sampled][gen.integers(3)](gen)
        return RationalBallMap(2, 2, m.p, m.q, factors=[gen.uniform(-0.5, 0.5, 2)])

    def vanishing(gen):
        a = np.exp(2j * np.pi * gen.random(2)) / math.sqrt(2) * (1 - 1e-9)
        return automorphism_map(BallAutomorphism(a))

    return [automorphism, tensored, own_factor, own_power, monomial, disjoint, bounded,
            sampled, constant, wrong_factors, vanishing]


def _same_certificate(a, b):
    return (a.verdict is b.verdict and a.residual_norm == b.residual_norm
            and a.worst_entry == b.worst_entry
            and a.denominator_method == b.denominator_method
            and a.denominator_margin == b.denominator_margin
            and (a.witness is None) == (b.witness is None)
            and (a.witness is None or np.array_equal(a.witness, b.witness))
            and a.witness_value == b.witness_value)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10), st.integers(1, 6)), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([9, 40, 2 ** 14]))
def test_kernel_agrees_with_single_map_certification(runs, seed, budget):
    gen = np.random.default_rng(seed)
    makers = _kernel_makers()
    # Runs of maps on one support; the vanishing maker is drawn rarely.
    maps = [makers[kind](gen) for kind, count in runs
            for _ in range(count if kind < 10 or gen.random() < 0.3 else 0)]
    with mock.patch.object(ballmaps, "BLOCK_ENTRIES", budget):
        results = certify_maps(maps)
        for m in maps:
            try:
                expected = certify_proper(m)
            except DenominatorVanishesError as error:
                # The kernel raises it at this map's turn, with the same message.
                with pytest.raises(DenominatorVanishesError, match=re.escape(str(error))):
                    next(results)
                return
            cert, deg, embdim = next(results)
            assert _same_certificate(cert, expected)
            assert deg == degree(m) and embdim == embedding_dimension(m)
        assert next(results, None) is None


def test_kernel_covers_every_denominator_method_and_verdict():
    gen = np.random.default_rng(3)
    maps = [make(gen) for make in _kernel_makers()[:-1] for _ in range(3)]
    certs = [cert for cert, _, _ in certify_maps(maps)]
    assert {c.denominator_method for c in certs} == {"trivial", "factored",
                                                     "coefficient-bound", "sampled"}
    assert {c.verdict for c in certs} == set(Verdict)


def test_a_block_draws_its_denominator_samples_once():
    gen = np.random.default_rng(3)
    sampled = _kernel_makers()[7]
    maps = [sampled(gen) for _ in range(6)]
    expected = [certify_proper(m) for m in maps]
    with mock.patch.object(ballmaps, "ball_points", wraps=ballmaps.ball_points) as draws:
        certs = [cert for cert, _, _ in certify_maps(maps)]
    # One block, one draw; every margin is still the map's own.
    assert len(list(ballmaps._runs(maps))) == 1
    assert draws.call_count == 1
    for cert, own in zip(certs, expected):
        assert cert.denominator_method == own.denominator_method == "sampled"
        assert cert.denominator_margin == own.denominator_margin


def test_certification_blocks_bound_their_memory():
    gen = np.random.default_rng(5)
    term = whitney_start(random_ball_automorphism(3, gen))
    term = whitney_extend(term, np.array([0]), random_ball_automorphism(3, gen))
    term = whitney_extend(term, np.array([1, 2]), random_ball_automorphism(3, gen))
    m = term.map
    # Five blocks of maps on one support, each as large as the budget allows.
    per_block = ballmaps.BLOCK_ENTRIES // len(m.support) ** 2
    maps = [apply_linear(random_unitary(m.N, gen), m) for _ in range(5 * per_block)]
    assert per_block > 10
    list(certify_maps(maps[:per_block]))  # plans are cached
    tracemalloc.start()
    try:
        results = list(certify_maps(maps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(cert.verdict is Verdict.PROPER for cert, _, _ in results)
    # A full block's Gram stack takes 16 bytes per entry; the block's other
    # arrays (moduli, the gathered reduction terms, the factor products)
    # stay within a few times that, whatever the number of maps.
    assert peak < 8 * 16 * ballmaps.BLOCK_ENTRIES


def _disjoint_rows(gen, count, size, several):
    """(count, size) coefficient rows no two of which have an entry in one
    column: a monomial map's rows (one column each) or, with ``several``,
    rows that own several columns; under phases and scales from 1e-13 to 10,
    so some rows are zero and some sit below RANK_RTOL of the largest."""
    if several:
        owner = gen.integers(-1, count, size)
    else:
        owner = np.full(size, -1)
        owner[gen.permutation(size)[:count]] = np.arange(min(count, size))
    rows = np.zeros((count, size), dtype=complex)
    live = owner >= 0
    rows[owner[live], np.flatnonzero(live)] = (gen.standard_normal(live.sum())
                                               + 1j * gen.standard_normal(live.sum()))
    scales = gen.choice([1.0, 10.0, 0.1, 1e-12, 1e-13, 0.0], count)
    return rows * (scales * np.exp(2j * np.pi * gen.random(count)))[:, None]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_rows_that_share_no_column_match_the_dense_reference(seed, several):
    gen = np.random.default_rng(seed)
    count, size = int(gen.integers(2, 12)), int(gen.integers(2, 30))
    stack = np.stack([_disjoint_rows(gen, count, size, several)
                      for _ in range(int(gen.integers(1, 4)))])
    assert _linalg.orthogonal_rows(stack).all()
    q = np.ones((len(stack), 1, size))
    grams = polyalg.signed_gram(stack)
    ranks = ballmaps._embedding_dimensions(np.concatenate([stack, q], axis=1))
    for rows, gram, rank in zip(stack, grams, ranks.tolist()):
        entry = np.abs(rows).sum(axis=0)  # |a_alpha|, the one entry of column alpha
        bound = 4 * np.finfo(float).eps * np.outer(entry, entry)
        assert np.all(np.abs(gram - rows.T @ rows.conj()) <= bound)
        assert rank == _linalg.numerical_rank(rows)


@pytest.mark.parametrize("gram_min", [0, polyalg.ORTHOGONAL_GRAM_MIN])
@pytest.mark.parametrize("n, d", [(2, 6), (2, 12), (2, 20), (2, 30), (2, 40),
                                  (3, 4), (3, 6), (3, 12), (3, 20)])
def test_tensor_ladder_through_the_rows_that_share_no_column(n, d, gram_min, monkeypatch):
    # ``gram_min`` decides whether norm_equivalent's Gram difference adds
    # the diagonal Grams of these rows alone or takes the dense products.
    monkeypatch.setattr(polyalg, "ORTHOGONAL_GRAM_MIN", gram_min)
    comps = [Polynomial(n, {a: math.sqrt(polyalg.multinomial(d, a))})
             for a in polyalg.monomials_of_degree(n, d)]
    m = RationalBallMap(n, len(comps), comps)
    assert embedding_dimension(m) == m.N
    assert degree(m) == d
    # The dense path: the Gram products of the rows, then the sphere reduction.
    head, tail = m.coefficients[None, :-1], m.coefficients[None, -1:]
    dense = head.swapaxes(1, 2) @ head.conj() - tail.swapaxes(1, 2) @ tail.conj()
    residuals, worst = polyalg.sphere_residuals(n, m.support, dense)
    cert = certify_proper(m)
    assert cert.residual_norm == residuals[0]
    assert cert.worst_entry == worst[0]
    # Its components permuted and turned by phases, whose rows still share
    # no column: equivalent, and a copy scaled by 1 - 1e-6 is not.
    gen = np.random.default_rng(d)
    turn = np.eye(m.N)[gen.permutation(m.N)] * np.exp(2j * np.pi * gen.random(m.N))
    assert norm_equivalent(m, apply_linear(turn, m)).equivalent
    assert not norm_equivalent(m, m.scaled(1 - 1e-6)).equivalent


# ------------------------------------------------ Bernstein sphere reduction
def _tensor_power_on(n, d):
    """z^(x)d on B_n: the components sqrt(multinomial(d, a)) z^a."""
    comps = [Polynomial(n, {a: math.sqrt(polyalg.multinomial(d, a))})
             for a in polyalg.monomials_of_degree(n, d)]
    return RationalBallMap(n, len(comps), comps)


def _with_largest_coefficient_scaled(m, factor):
    """A copy of m whose numerator coefficient of largest modulus is scaled."""
    comps = list(m.p)
    i, alpha = max(((i, a) for i, comp in enumerate(comps) for a in comp.terms),
                   key=lambda key: abs(comps[key[0]].terms[key[1]]))
    comps[i] = Polynomial(m.n, {**comps[i].terms, alpha: comps[i].terms[alpha] * factor})
    return RationalBallMap(m.n, m.N, comps, m.q)


@pytest.mark.parametrize("n, d", [(2, 20), (2, 30), (2, 40), (3, 20)])
def test_high_degree_tensor_powers_are_proper_and_norm_equivalent_to_rotations(n, d):
    m = _tensor_power_on(n, d)
    cert = certify_proper(m)
    assert cert.verdict is Verdict.PROPER, cert.residual_norm
    rotated = apply_linear(random_unitary(m.N, np.random.default_rng(d)), m)
    assert norm_equivalent(m, rotated).equivalent
    assert certify_proper(_with_largest_coefficient_scaled(m, 1 + 1e-6)).verdict \
        is Verdict.NOT_PROPER


def test_a_perturbed_rotation_of_a_large_tensor_power_is_inequivalent():
    m = _tensor_power_on(3, 20)
    bent = _with_largest_coefficient_scaled(m, 1 + 1e-6)
    rotated = apply_linear(random_unitary(m.N, np.random.default_rng(20)), bent)
    # Only |c|^2 |z^alpha|^2 changed, so G has the one entry (alpha, alpha).
    (alpha, c), = ((a, c) for comp, bent_comp in zip(m.p, bent.p)
                   for a, c in comp.terms.items() if bent_comp.terms[a] != c)
    expected = abs(c) ** 2 * (1 - (1 + 1e-6) ** 2)
    relative = abs(expected) / (abs(c) ** 2 * (1 + (1 + 1e-6) ** 2))
    # Against the rotation one side's Gram is dense; against bent itself
    # both are diagonal.
    for other in (rotated, bent):
        result = norm_equivalent(m, other)
        assert not result.equivalent
        assert result.mismatch[:2] == (alpha, alpha)
        assert abs(result.mismatch[2] - expected) <= 1e-6 * abs(expected)
        assert abs(result.largest_relative - relative) <= 1e-6 * relative
    assert norm_equivalent(m, m.padded(m.N + 2)).largest_relative == 0.0


def test_norm_equivalence_keeps_its_temporaries_small():
    # One (M, M) Gram with one product beside it: no stacked copy of both
    # sides, no live-column copy and no (M, M) threshold matrix.
    m = _tensor_power_on(3, 20)
    rotated = apply_linear(random_unitary(m.N, np.random.default_rng(3)), m)
    norm_equivalent(m, rotated)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = norm_equivalent(m, rotated)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.equivalent
    size = len(m.support)
    assert peak < 3.5 * size * size * 16


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_norm_equivalence_does_not_change_when_both_maps_are_scaled(c, registry):
    h = registry.maps["faran.h"]
    pairs = [(registry.maps["ex2.1.f"], registry.maps["ex2.1.g"]),
             (h, apply_linear(random_unitary(h.N, np.random.default_rng(4)), h))]
    for f, g in pairs:
        plain, scaled = norm_equivalent(f, g), norm_equivalent(f.scaled(c), g.scaled(c))
        assert scaled.equivalent == plain.equivalent
        assert (scaled.mismatch is None) == (plain.mismatch is None)
        if plain.mismatch is not None:
            assert scaled.mismatch[:2] == plain.mismatch[:2]
            assert abs(scaled.mismatch[2] - c * c * plain.mismatch[2]) \
                <= 1e-12 * c * c * abs(plain.mismatch[2])
        assert abs(scaled.largest_relative - plain.largest_relative) <= 1e-12


@pytest.mark.parametrize("n, d", [(2, 16), (3, 10)])
def test_tensor_powers_composed_with_an_automorphism_are_proper(n, d):
    centre = np.array([0.3] + [0.1] * (n - 1), dtype=complex)
    m = compose(_tensor_power_on(n, d), automorphism_map(BallAutomorphism(centre, np.eye(n))))
    cert = certify_proper(m)
    assert cert.verdict is Verdict.PROPER, cert.residual_norm
    assert certify_proper(_with_largest_coefficient_scaled(m, 1 + 1e-6)).verdict \
        is Verdict.NOT_PROPER


def test_a_monomial_map_never_builds_the_full_plan(registry):
    # Tensor powers, the catalog maps and the Faran family members have
    # rows with one entry each, so their Grams are diagonal: they read the
    # radial plan alone, cold or warm.
    polyalg._bernstein_plan.cache_clear()
    radial = polyalg._radial_plan.cache_info()
    assert certify_proper(_tensor_power_on(3, 12)).verdict is Verdict.PROPER
    for name, m in registry.maps.items():
        assert certify_proper(m).verdict is Verdict.PROPER, name
    assert verify_family(registry.families["faran.fg.family"], grid_size=101).passed
    assert polyalg._bernstein_plan.cache_info().misses == 0
    after = polyalg._radial_plan.cache_info()
    assert after.hits + after.misses > radial.hits + radial.misses


@pytest.mark.parametrize("scale, verdict", [(1.0, Verdict.PROPER), (0.75, Verdict.NOT_PROPER)])
def test_rows_that_share_a_column_take_the_radial_path(scale, verdict):
    # faran.h with its sqrt(2) zw split into two rows of one column, and a
    # copy whose two rows are too small; the dense path's residual is the
    # reference.
    z, w = var(0), var(1)
    m = RationalBallMap(2, 4, [ref.mul(z, z), ref.mul(z, w, scale), ref.mul(z, w, scale),
                               ref.mul(w, w)])
    head, tail = m.coefficients[None, :-1], m.coefficients[None, -1:]
    dense = head.swapaxes(1, 2) @ head.conj() - tail.swapaxes(1, 2) @ tail.conj()
    residuals, worst = polyalg.sphere_residuals(2, m.support, dense)
    polyalg._bernstein_plan.cache_clear()
    cert = certify_proper(m)
    assert cert.verdict is verdict
    assert cert.residual_norm == residuals[0] and cert.worst_entry == worst[0]
    assert polyalg._bernstein_plan.cache_info().misses == 0


def _dangelo_weights(m):
    """D'Angelo's weights for odd m, in Python integers: (m / (m - k)) C(m - k, k)
    on x^(m - 2k) y^k for k = 0 .. (m - 1) / 2, and 1 on y^m."""
    weights = {}
    for k in range((m - 1) // 2 + 1):
        weight, rest = divmod(m * math.comb(m - k, k), m - k)
        assert rest == 0
        weights[(m - 2 * k, k)] = weight
    weights[(0, m)] = 1
    return weights


def _monomial_map(weights):
    """z -> (sqrt(w_alpha) z^alpha) on B_2, one component per weight."""
    comps = [Polynomial(2, {alpha: math.sqrt(w)}) for alpha, w in weights.items()]
    return RationalBallMap(2, len(comps), comps)


@pytest.mark.parametrize("m", range(3, 62, 2))
def test_dangelo_maps_against_an_exact_oracle(m):
    weights = _dangelo_weights(m)
    # sum_alpha w_alpha x^alpha (x + y)^(m - |alpha|) = (x + y)^m, compared
    # coefficient by coefficient of x^(m - j) y^j in Python integers.
    homogenized = [0] * (m + 1)
    for (a, b), w in weights.items():
        for i in range(m - a - b + 1):
            homogenized[b + i] += w * math.comb(m - a - b, i)
    assert homogenized == [math.comb(m, j) for j in range(m + 1)]
    polyalg._bernstein_plan.cache_clear()
    f = _monomial_map(weights)
    cert = certify_proper(f)
    assert cert.verdict is Verdict.PROPER and cert.residual_norm == 0.0
    assert degree(f) == m and embedding_dimension(f) == (m + 3) // 2
    largest = max(weights, key=weights.get)
    heavier = _monomial_map({**weights, largest: weights[largest] * (1 + 1e-6)})
    assert certify_proper(heavier).verdict is Verdict.NOT_PROPER
    assert polyalg._bernstein_plan.cache_info().misses == 0


def _oracle_map(kind, n, rng):
    """A Whitney map, a Whitney or tensor map composed with an automorphism,
    or a juxtaposition of two Whitney maps, on B_n."""
    def whitney():
        term = whitney_start(random_ball_automorphism(n, rng))
        for _ in range(int(rng.integers(1, 3))):
            count = int(rng.integers(1, term.map.N + 1))
            basis = np.sort(rng.choice(term.map.N, count, replace=False))
            term = whitney_extend(term, basis, random_ball_automorphism(n, rng))
        return term.map
    if kind == "whitney":
        return whitney()
    if kind == "compose":
        inner = automorphism_map(random_ball_automorphism(n, rng, max_center_norm=0.6))
        outer = whitney() if rng.random() < 0.5 else _tensor_power_on(n, int(rng.integers(2, 6)))
        return compose(outer, inner)
    return juxtapose(whitney(), whitney(), float(rng.random()))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["whitney", "compose", "juxtapose"]), st.integers(2, 3),
       st.sampled_from([1.0, 1 + 1e-3, 0.9]), st.integers(0, 2 ** 32 - 1))
def test_sampled_sphere_defect_is_within_the_bernstein_bound(kind, n, factor, seed):
    # Two oracles: on the sphere | ||p||^2 - |q|^2 | is at most the sum over
    # the shifts nu, of both signs, of max_kappa |b_{nu,kappa}|, the
    # Bernstein coefficients of the reduction.  They are polyref's, term by
    # term, of the signed Gram that certification reduces, so that a
    # coefficient at the storage floor is the same on both sides.
    m = _with_largest_coefficient_scaled(_oracle_map(kind, n, np.random.default_rng(seed)),
                                         factor)
    gram = signed_gram(m.coefficients, 1)
    coefficients = ref.sphere_coefficients(m.support, {
        (m.support[i], m.support[j]): complex(gram[i, j]) for i, j in zip(*np.nonzero(gram))})
    largest = {}
    for (alpha, beta), b in coefficients.items():
        nu = tuple(a - c for a, c in zip(alpha, beta))
        largest[nu] = max(largest.get(nu, 0.0), abs(b))
    pts = sample_sphere(n, 400, seed=seed % 1000)
    p_values = np.stack([comp.evaluate_many(pts) for comp in m.p], axis=1)
    q_sizes = np.abs(m.q.evaluate_many(pts)) ** 2
    defect = np.abs((np.abs(p_values) ** 2).sum(axis=1) - q_sizes)
    assert defect.max() <= sum(largest.values()) + 1e-12 * q_sizes.max()
    # The certificate's residual is the largest |b| over the largest
    # shift-0 Bernstein coefficient of sum_alpha |q_alpha|^2 x^alpha.
    weights = np.abs(m.coefficients[-1]) ** 2
    radial = ref.sphere_coefficients(m.support, {(alpha, alpha): w for alpha, w
                                                 in zip(m.support, weights.tolist()) if w})
    scale = max(abs(b) for b in radial.values())
    assert scale >= 1.0
    assert certify_proper(m).residual_norm == pytest.approx(
        max(largest.values(), default=0.0) / scale, rel=1e-12, abs=1e-300)

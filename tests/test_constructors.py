import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from propermaps import ballmaps, constructors
from propermaps._linalg import (UnitaryPath, gram_schmidt_complement, is_unitary,
                                random_unitary)
from propermaps.ballmaps import (DenominatorVanishesError, DimensionMismatchError,
                                 RationalBallMap, Verdict,
                                 certify_proper, compose, degree, norm_equivalent)
from propermaps.constructors import (BallAutomorphism, BlaschkeProduct,
                                     NonIntegralWindingError, TensorSubspaceError,
                                     automorphism_from_map, automorphism_map,
                                     blaschke_map, boundary_constant_map,
                                     juxtapose, random_ball_automorphism,
                                     random_blaschke_product, subspace_basis,
                                     tensor_on_subspace, WhitneyStep, whitney_extend,
                                     whitney_start, winding_degree, winding_integral)
from propermaps.corpus import quadric_three_map, whitney_map
from propermaps.homotopy import automorphism_path
from propermaps.polyalg import (COEFFICIENT_FLOOR, DEFAULT_TOL, Polynomial, align_rows,
                                coefficient_matrix, multiply_rows, monomials_of_degree,
                                polynomials_from_rows, signed_gram)

import polyref as ref
from conftest import bench_module, sample_sphere


def _norm_difference(f, g):
    """The matrix of ||f's numerator||^2 - ||g's||^2: one signed Gram over
    both maps' numerator rows on one support, g's rows negated."""
    _, (left, right) = align_rows((f.support, f.coefficients[:-1]),
                                  (g.support, g.coefficients[:-1]))
    return signed_gram(np.vstack([left, right]), len(right))


# ------------------------------------------------------------- automorphisms
def test_trivial_automorphism_is_identity_map():
    m = automorphism_map(BallAutomorphism.identity(3))
    assert m.allclose(RationalBallMap.identity(3))


def test_automorphism_vanishes_at_its_center():
    phi = BallAutomorphism([0.35 + 0.1j, -0.25, 0.1j])
    m = automorphism_map(phi)
    assert np.max(np.abs(m.evaluate(phi.a))) < 1e-12


def test_automorphism_matches_closed_formula(rng):
    phi = random_ball_automorphism(3, rng)
    a, u = phi.a, phi.U
    s = np.sqrt(1.0 - np.vdot(a, a).real)
    m = automorphism_map(phi)
    for z in 0.9 * sample_sphere(3, 10, seed=5):
        pairing = np.dot(z, a.conj())
        want = u @ (pairing * a / (s + 1.0) + s * z - a) / (1.0 - pairing)
        assert np.max(np.abs(m.evaluate(z) - want)) <= 1e-12


def test_automorphism_path_keeps_the_rows_of_each_automorphism(rng):
    # Reference: each member built alone, from the closed formula with
    # np.linalg.norm and float powers; the stacked path equals it bit for bit.
    phi = random_ball_automorphism(3, rng, 0.9)
    ts = np.linspace(0.0, 1.0, 201)
    upath = UnitaryPath(phi.U)
    monos = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    for t, got in zip(ts.tolist(), ballmaps._members(automorphism_path(phi)(ts)), strict=True):
        a, u = (1.0 - t) * phi.a, upath(1.0 - t)
        s = math.sqrt(max(0.0, 1.0 - float(np.linalg.norm(a) ** 2)))
        mobius = np.hstack([np.outer(a, a.conj()) / (s + 1.0) + s * np.eye(3), -a[:, None]])
        rows = np.vstack([u @ mobius, np.hstack([-a.conj(), 1.0])])
        want = RationalBallMap._from_rows(3, monos, rows, [a])
        assert got.support == want.support
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.factors.tobytes() == want.factors.tobytes()


def test_automorphism_is_proper_degree_one(rng):
    phi = random_ball_automorphism(3, rng)
    m = automorphism_map(phi)
    assert certify_proper(m).verdict is Verdict.PROPER
    assert degree(m) == 1


def test_center_outside_ball_rejected():
    with pytest.raises(ValueError):
        BallAutomorphism([1.0, 0.0])
    with pytest.raises(ValueError):
        BallAutomorphism([0.8, 0.7])
    # The norm of a centre with a NaN is NaN, which no comparison rejects.
    for bad in ([math.nan, 0.0], [0.0, complex(0.1, math.nan)], [math.inf, 0.0],
                [complex(0.0, -math.inf)]):
        with pytest.raises(ValueError, match="must be finite"):
            BallAutomorphism(bad)


def test_automorphism_keeps_its_own_read_only_centre():
    # The map of an automorphism keeps its centre as its factor centre, so
    # the centre is a copy that cannot change.
    centre = np.array([0.3, 0.1j])
    phi = BallAutomorphism(centre)
    centre[0] = 0.9
    assert phi.a.tolist() == [0.3, 0.1j] and not phi.a.flags.writeable
    assert automorphism_map(phi).factors.tolist() == [[0.3, 0.1j]]


def test_automorphism_keeps_its_own_read_only_unitary():
    # A complex unitary is not copied by asarray; the automorphism copies it,
    # so writing into the caller's array changes neither it nor its map.
    unitary = np.array([[0, 1], [1, 0]], dtype=complex)
    phi = BallAutomorphism([0.3, 0.1j], unitary)
    before = automorphism_map(phi)
    unitary[0, 0] = 5.0
    assert phi.U.tolist() == [[0, 1], [1, 0]] and not phi.U.flags.writeable
    after = automorphism_map(phi)
    assert after.coefficients.tobytes() == before.coefficients.tobytes()
    assert certify_proper(after).verdict is Verdict.PROPER


def test_inverse_composes_to_identity(rng):
    for n in (1, 2, 3):
        phi = random_ball_automorphism(n, rng)
        forward = automorphism_map(phi)
        backward = automorphism_map(phi.inverse())
        for left, right in ((forward, backward), (backward, forward)):
            composed = compose(left, right)
            assert composed.allclose(RationalBallMap.identity(n), 1e-6)


def test_boundary_compactification_is_a_constant():
    a = np.array([0.6, 0.8])
    m = boundary_constant_map(a)
    # Constant: each component is its value times q.
    assert all(ref.distance(p, ref.mul(m.q, c)) <= 1e-12 for p, c in zip(m.p, a))
    assert np.max(np.abs(m.evaluate(np.zeros(2)) - a)) < 1e-12
    assert certify_proper(m).verdict is Verdict.CONSTANT_ON_SPHERE
    with pytest.raises(ValueError):
        boundary_constant_map([0.5, 0.0])


def test_automorphism_recognition_roundtrip(rng):
    phi = random_ball_automorphism(2, rng)
    recovered = automorphism_from_map(automorphism_map(phi))
    assert np.max(np.abs(recovered.a - phi.a)) < 1e-9
    assert np.max(np.abs(recovered.U - phi.U)) < 1e-8
    with pytest.raises(ValueError):
        automorphism_from_map(quadric_three_map())


# ------------------------------------------------------------------- tensor
def test_tensor_identity_on_second_axis_gives_degree_two_triple():
    result = tensor_on_subspace(RationalBallMap.identity(2),
                                np.array([[0.0], [1.0]], dtype=complex))
    expected = quadric_three_map()  # (z, zw, w^2) up to component order
    assert result.N == 3
    assert norm_equivalent(result, expected).equivalent
    assert sorted(map(str, result.p)) == sorted(map(str, expected.p))


def test_tensor_identity_b3_gives_classical_degree_two_map():
    result = tensor_on_subspace(RationalBallMap.identity(3),
                                np.array([[0.0], [0.0], [1.0]], dtype=complex))
    assert result.N == 5
    assert norm_equivalent(result, whitney_map()).equivalent


def test_tensor_one_dimensional_iterates_to_monomial():
    m = RationalBallMap.identity(1)
    full = np.array([[1.0]], dtype=complex)
    for _ in range(4):
        m = tensor_on_subspace(m, full)
    assert m.N == 1
    assert ref.distance(m.p[0], Polynomial.monomial((5,))) <= DEFAULT_TOL


def test_tensor_preserves_properness_on_random_subspaces(rng):
    base = quadric_three_map()
    q, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    result = tensor_on_subspace(base, q, random_ball_automorphism(2, rng))
    assert result.N == base.N + 2 * (base.n - 1)
    assert certify_proper(result).verdict is Verdict.PROPER


def test_tensor_block_matches_pointwise_formula(rng):
    base = quadric_three_map()
    q, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    phi = random_ball_automorphism(2, rng)
    result = tensor_on_subspace(base, q, phi)
    for z in 0.9 * sample_sphere(2, 10, seed=6):
        want = np.outer(q.conj().T @ base.evaluate(z), phi(z)).reshape(-1)
        assert np.max(np.abs(result.evaluate(z)[:4] - want)) <= 1e-12


def test_tensor_norm_difference_vanishes_on_sphere(rng):
    # With the identity domain factor, ||E_A(f)||^2 - ||f||^2 is a multiple of
    # ||z||^2 - 1, so the difference form reduces to zero; the exact
    # reduction is polyref's, term by term.
    base = quadric_three_map()
    q, _ = np.linalg.qr(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
    tensored = tensor_on_subspace(base, q)
    difference = ref.form(tensored.p, base.p)
    assert max(abs(c) for c in difference.values()) > DEFAULT_TOL
    reduced = ref.sphere_coefficients(ref.support(*tensored.p, *base.p), difference)
    assert max((abs(b) for b in reduced.values()), default=0.0) <= DEFAULT_TOL


def test_tensor_rejects_bad_subspaces():
    ident = RationalBallMap.identity(2)
    with pytest.raises(TensorSubspaceError):
        tensor_on_subspace(ident, np.zeros((2, 0)))
    with pytest.raises(TensorSubspaceError):
        tensor_on_subspace(ident, np.array([[1.0], [1.0]]))  # not normalized



@pytest.mark.parametrize("indices", [[-1], [2], [0, 5]])
def test_tensor_rejects_subspace_indices_out_of_range(indices):
    # A negative index does not wrap to the last coordinate, and one past
    # the target is refused, by both ways into a tensor step.
    ident = RationalBallMap.identity(2)
    message = re.escape(f"subspace indices {indices} out of range for target dimension 2")
    with pytest.raises(TensorSubspaceError, match=message):
        tensor_on_subspace(ident, indices)
    with pytest.raises(TensorSubspaceError, match=message):
        whitney_extend(whitney_start(BallAutomorphism.identity(2)), np.array(indices))


def test_tensor_checks_its_domain_factor(rng):
    ident = RationalBallMap.identity(2)
    phi = random_ball_automorphism(2, rng)
    basis = np.array([[1.0], [0.0]])
    # A run of maps, or anything else that is not one domain factor, is refused.
    for bad in ([automorphism_map(phi)] * 2, (automorphism_map(phi),), "phi", 1.0):
        with pytest.raises(TypeError, match="phi must be"):
            tensor_on_subspace(ident, basis, bad)
    with pytest.raises(DimensionMismatchError, match="self-map of the domain"):
        tensor_on_subspace(ident, basis, quadric_three_map())
    with pytest.raises(DimensionMismatchError, match="automorphism dimension"):
        tensor_on_subspace(ident, basis, random_ball_automorphism(3, rng))

def _tensor_by_dict_products(f, basis, phi):
    """Reference tensor step: frame coordinates times phi by dict products."""
    phi_map = RationalBallMap.identity(f.n) if phi is None else automorphism_map(phi)
    d = basis.shape[1]
    frame = np.hstack([basis, gram_schmidt_complement(basis)])
    monos, coeffs = coefficient_matrix(f.p)
    rows = polynomials_from_rows(f.n, monos, frame.conj().T @ coeffs)
    comps = [ref.mul(rows[m], phi_map.p[j]) for m in range(d) for j in range(f.n)]
    comps += [ref.mul(row, phi_map.q) for row in rows[d:]]
    return RationalBallMap(f.n, len(comps), comps, ref.mul(f.q, phi_map.q),
                           factors=np.vstack([f.factors, phi_map.factors]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("with_phi", [False, True])
def test_tensor_step_matches_the_dict_product_formula(n, dense, with_phi):
    rng = np.random.default_rng(100 * n + 10 * dense + with_phi)
    f = _random_whitney_map(n, 2, rng)
    if dense:
        g = rng.standard_normal((f.N, 2)) + 1j * rng.standard_normal((f.N, 2))
        basis, _ = np.linalg.qr(g)
    else:
        basis = subspace_basis(f.N, np.sort(rng.choice(f.N, size=2, replace=False)))
    phi = random_ball_automorphism(n, rng, 0.9) if with_phi else None
    want = _tensor_by_dict_products(f, basis, phi)
    scale = max(ref.largest(c) for c in (*want.p, want.q))
    got = tensor_on_subspace(f, basis, phi)
    assert got.N == want.N
    assert np.array_equal(got.factors, want.factors)
    assert got.distance(want) <= 1e-14 * scale


def _tensor_by_product(fs, frame, d, phis):
    """``_tensor_in_frame`` as one ``multiply_rows`` call on the stacks of
    both sides repeated to the block's size, stored by ``_from_stack``."""
    n, count = fs.n, max(len(fs), len(phis))
    coords = frame.conj().T @ fs.rows[:, :-1]
    coords[np.abs(coords) <= COEFFICIENT_FLOOR] = 0.0
    left = np.concatenate([np.repeat(coords[:, :d], n, axis=1), coords[:, d:],
                           fs.rows[:, -1:]], axis=1)
    right = np.concatenate([np.tile(phis.rows[:, :n], (1, d, 1)),
                            np.repeat(phis.rows[:, n:], fs.N - d + 1, axis=1)], axis=1)
    size = left.shape[1]
    left = constructors._repeat_to(left, count).reshape(count * size, -1)
    right = constructors._repeat_to(right, count).reshape(count * size, -1)
    support, rows = multiply_rows(n, fs.support, left, phis.support, right)
    centres = np.concatenate([constructors._repeat_to(fs.centres, count),
                              constructors._repeat_to(phis.centres, count)], axis=1)
    return RationalBallMap._from_stack(n, support, rows.reshape(count, size, -1), centres)


def _awkward_block(n, N, count, rng):
    """A block of ``count`` maps from B_n into B_N over the monomials of
    degree at most 2, with two factor centres each, whose rows hold exact
    zeros, a coordinate that is zero, parts of -0.0 and entries at the
    storage floor.  The maps need not be proper: the tensor step reads
    only rows."""
    support = tuple(alpha for k in (2, 1, 0) for alpha in monomials_of_degree(n, k))
    shape = (count, N + 1, len(support))
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows[rng.random(shape) < 0.3] = 0.0
    rows.real[rng.random(shape) < 0.2] = -0.0
    rows.imag[rng.random(shape) < 0.2] = -0.0
    rows[rng.random(shape) < 0.1] = COEFFICIENT_FLOOR
    rows[rng.random(shape) < 0.1] = -1j * COEFFICIENT_FLOOR
    rows[:, 1] = 0.0
    centres = rng.standard_normal((count, 2, n)) + 1j * rng.standard_normal((count, 2, n))
    return ballmaps._Block(n, support, rows, 0.3 * centres)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("count", [1, 5])
def test_tensor_with_the_identity_moves_coefficients_as_the_product_does(n, dense, count):
    rng = np.random.default_rng(100 * n + 10 * dense + count)
    N = 4
    fs = _awkward_block(n, N, count, rng)
    identity = ballmaps._Block.of(RationalBallMap.identity(n))
    assert constructors._is_identity(identity)
    for d in range(1, N + 1):
        if dense:
            g = rng.standard_normal((N, d)) + 1j * rng.standard_normal((N, d))
            basis, _ = np.linalg.qr(g)
        else:
            basis = subspace_basis(N, np.sort(rng.choice(N, size=d, replace=False)))
        frame = WhitneyStep(basis).frame
        got = constructors._tensor_in_frame(fs, frame, d, identity)
        want = _tensor_by_product(fs, frame, d, identity)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.support == b.support
            assert a.rows.tobytes() == b.rows.tobytes()
            assert a.centres.tobytes() == b.centres.tobytes()


def _kernel_cases(n, count, rng):
    """(name, call) for each kernel that stores its own rows without the
    checked store, on awkward blocks (``_awkward_block``) where it reads
    blocks: the tensor step with the identity and with a block of
    automorphisms, apply_linear on a block and a stack of matrices on one
    map, and the stacked automorphism and Blaschke maps.  A zero centre and
    a zero Blaschke zero give entries of -0.0, which the floor makes +0.0."""
    N = 4
    fs = _awkward_block(n, N, count, rng)
    frame = WhitneyStep(np.linalg.qr(rng.standard_normal((N, 2))
                                     + 1j * rng.standard_normal((N, 2)))[0]).frame
    identity = ballmaps._Block.of(RationalBallMap.identity(n))
    phis = [random_ball_automorphism(n, rng, 0.9) for _ in range(count)]
    phis[0] = BallAutomorphism(np.zeros(n), phis[0].U)
    centres, unitaries = np.array([phi.a for phi in phis]), np.array([phi.U for phi in phis])
    factors = constructors._automorphism_maps(centres, unitaries)[0]
    one = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
    many = rng.standard_normal((count, 3, N)) + 1j * rng.standard_normal((count, 3, N))
    zeros = 0.8 * rng.random((count, 3)) * np.exp(2j * np.pi * rng.random((count, 3)))
    zeros[:, 0] = 0.0
    thetas = 2 * np.pi * rng.random(count)
    return [
        ("identity step", lambda: constructors._tensor_in_frame(fs, frame, 2, identity)),
        ("product step", lambda: constructors._tensor_in_frame(fs[:1], frame, 2, factors)),
        ("apply_linear", lambda: ballmaps._apply_linear_run(one, fs)),
        ("apply_linear stack", lambda: ballmaps._apply_linear_run(many, fs[:1])),
        ("automorphisms", lambda: constructors._automorphism_maps(centres, unitaries)),
        ("blaschke", lambda: constructors._blaschke_maps(thetas, zeros)),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 5])
def test_kernels_store_what_the_checked_store_gives(n, count, monkeypatch):
    # Each kernel floors its own rows and stores them without the checked
    # store's copy, floor and centre check; the blocks are the ones the
    # checked store gives on the same rows and centres, bit for bit.
    rng = np.random.default_rng(10 * n + count)
    for name, call in _kernel_cases(n, count, rng):
        stored, store = [], ballmaps._store

        def spy(dim, support, stack, centres):
            rows, factors = stack.copy(), centres.copy()
            blocks = store(dim, support, stack, centres)
            stored.append((dim, support, rows, factors, blocks))
            return blocks

        with monkeypatch.context() as patch:
            patch.setattr(ballmaps, "_store", spy)
            patch.setattr(constructors, "_store", spy)
            call()
        assert len(stored) == 1, name
        dim, support, rows, factors, got = stored[0]
        want = RationalBallMap._from_stack(dim, support, rows, factors)
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            assert a.support == b.support, name
            assert a.rows.tobytes() == b.rows.tobytes(), name
            assert a.centres.tobytes() == b.centres.tobytes(), name
            assert not a.rows.flags.writeable and not a.centres.flags.writeable


def test_identity_is_told_from_other_domain_factors():
    # A unitary automorphism has the identity's support but other rows, and
    # a block of two identities is a block of factors.
    ident = RationalBallMap.identity(2)
    rotation = automorphism_map(BallAutomorphism([0.0, 0.0], np.array([[0, 1], [1, 0]])))
    assert rotation.support == ident.support
    assert not constructors._is_identity(ballmaps._Block.of(rotation))
    twice = ballmaps._Block(2, ident.support, np.stack([ident.coefficients] * 2),
                            np.stack([ident.factors] * 2))
    assert not constructors._is_identity(twice)


def test_family_grid_multiplies_by_no_identity(monkeypatch):
    # Every tensor step with the identity moves coefficients; the steps with
    # an automorphism still multiply.
    workloads = bench_module("workloads", monkeypatch)
    product, by_identity = constructors.multiply_rows, []

    def recording(nvars, left_monos, left, right_monos, right):
        eye = np.eye(nvars + 1)
        by_identity.append(tuple(right_monos) == RationalBallMap.identity(nvars).support
                           and (right[:, None, :] == eye).all(axis=2).any(axis=1).all())
        return product(nvars, left_monos, left, right_monos, right)

    monkeypatch.setattr(constructors, "multiply_rows", recording)
    op = workloads.family_grid(3)[1]
    assert op.check(op.run()) == []
    assert by_identity and not any(by_identity)


# -------------------------------------------------------------- juxtaposition
def test_juxtaposition_endpoints():
    f = quadric_three_map()
    g = RationalBallMap.identity(2)
    at0 = juxtapose(f, g, 0.0)
    at1 = juxtapose(f, g, 1.0)
    assert at0.allclose(f.padded(5))
    assert norm_equivalent(at1, g).equivalent
    assert at1.p[0].is_zero and at1.p[1].is_zero and at1.p[2].is_zero


def test_juxtaposition_of_identities_keeps_the_norm_form():
    ident = RationalBallMap.identity(2)
    half = juxtapose(ident, ident, 0.5)
    assert np.abs(_norm_difference(half, ident)).max() <= 1e-12


def test_juxtaposition_is_proper_in_the_sum_target():
    f = quadric_three_map()
    g = RationalBallMap.identity(2)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        m = juxtapose(f, g, t)
        assert m.N == 5
        assert certify_proper(m).verdict is Verdict.PROPER


# ------------------------------------------------------------- Whitney terms
def test_whitney_start_and_first_extension():
    term = whitney_start(BallAutomorphism.identity(2))
    assert term.length == 0 and degree(term.map) == 1
    extended = whitney_extend(term, np.array([1]))
    assert extended.length == 1
    assert degree(extended.map) == 2
    assert norm_equivalent(extended.map, quadric_three_map()).equivalent


def test_tensor_and_whitney_read_an_integer_basis_as_column_indices():
    # np.array([1, 0]) names coordinates 1 and 0 for both, not one vector.
    basis = np.array([1, 0])
    tensored = tensor_on_subspace(RationalBallMap.identity(2), basis)
    extended = whitney_extend(whitney_start(BallAutomorphism.identity(2)), basis).map
    assert tensored.N == extended.N == 4
    assert [str(c) for c in tensored.p] == [str(c) for c in extended.p]


def test_whitney_degree_does_not_increment_on_low_degree_subspace():
    term = whitney_start(BallAutomorphism.identity(2))
    term = whitney_extend(term, np.array([1]))       # degree 2: (zw, w^2, z)
    low = int(np.argmin([c.degree for c in term.map.p]))
    term = whitney_extend(term, np.array([low]))     # tensor the linear slot
    assert degree(term.map) == 2  # stays below the bound length+1 = 3


def test_whitney_degree_bound_randomized(rng):
    for n in (2, 3):
        for _ in range(4):
            term = whitney_start(random_ball_automorphism(n, rng))
            for _ in range(int(rng.integers(1, 4))):
                d = int(rng.integers(1, term.map.N + 1))
                idx = rng.choice(term.map.N, size=d, replace=False)
                term = whitney_extend(term, np.sort(idx),
                                      random_ball_automorphism(n, rng))
            assert degree(term.map) <= term.length + 1
            assert certify_proper(term.map).verdict is Verdict.PROPER


def test_whitney_extension_with_isometric_injection(rng):
    term = whitney_start(BallAutomorphism.identity(2))
    iso = np.zeros((4, 3), dtype=complex)
    iso[0, 0] = iso[1, 1] = 1.0
    iso[2, 2] = iso[3, 2] = 1.0 / math.sqrt(2.0)
    term = whitney_extend(term, np.array([0]), injection=iso)
    assert term.map.N == 4
    assert certify_proper(term.map).verdict is Verdict.PROPER


# ----------------------------------------------------------------- Blaschke
def test_blaschke_winding_basic_cases():
    single = BlaschkeProduct(0.0, [0.0])
    assert winding_degree(blaschke_map(single)) == 1
    triple = BlaschkeProduct(0.0, [0.3, -0.5j, 0.1 + 0.2j])
    assert winding_degree(blaschke_map(triple)) == 3
    quintic = BlaschkeProduct(0.0, [0.0] * 5)
    assert winding_degree(blaschke_map(quintic)) == 5


def test_blaschke_zero_outside_disk_rejected():
    with pytest.raises(ValueError):
        BlaschkeProduct(0.0, [1.2])


def test_blaschke_map_is_proper(rng):
    for _ in range(20):
        b = random_blaschke_product(rng)
        m = blaschke_map(b)
        assert certify_proper(m).verdict is Verdict.PROPER
        value = winding_integral(m)
        assert winding_degree(m) == b.factor_count
        assert abs(value - b.factor_count) <= 1e-6


def test_winding_rejects_under_resolved_quadrature():
    m = blaschke_map(BlaschkeProduct(0.0, [0.97, -0.96, 0.95j]))
    with pytest.raises(NonIntegralWindingError):
        winding_degree(m, nodes=4)


# ------------------------------------------------------ denominator factors
def _random_whitney_map(n, steps, rng):
    term = whitney_start(random_ball_automorphism(n, rng, 0.9), certify=False)
    for _ in range(steps):
        d = int(rng.integers(1, min(term.map.N, 2) + 1))
        basis = np.sort(rng.choice(term.map.N, size=d, replace=False))
        term = whitney_extend(term, basis, random_ball_automorphism(n, rng, 0.9),
                              certify=False)
    return term.map


def _random_polynomial_map(nvars, count, rng):
    """Components z_1 * (three random terms of degree <= 2 in each variable)."""
    z1 = ref.var(nvars, 0)
    return RationalBallMap.from_components(
        [ref.mul(z1, Polynomial(nvars, {tuple(rng.integers(0, 3, nvars)):
                                        complex(*rng.standard_normal(2)) for _ in range(3)}))
         for _ in range(count)])


def _factored_construction(kind, rng):
    if kind == "whitney":
        return _random_whitney_map(int(rng.integers(2, 4)), int(rng.integers(1, 3)), rng)
    if kind == "juxtapose":
        f = automorphism_map(random_ball_automorphism(2, rng, 0.9))
        return juxtapose(f, _random_whitney_map(2, 1, rng), float(rng.random()))
    if kind == "blaschke":
        return blaschke_map(random_blaschke_product(rng, max_factors=4,
                                                    radius_range=(0.05, 0.95)))
    inner = _random_whitney_map(2, int(rng.integers(0, 2)), rng)
    return compose(_random_polynomial_map(inner.N, 2, rng), inner)


def _certify_outcome(m, floor):
    try:
        with mock.patch.object(ballmaps, "DENOMINATOR_FLOOR", floor):
            cert = certify_proper(m)
    except DenominatorVanishesError:
        return "denominator vanishes"
    return cert.verdict, cert.residual_norm


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["whitney", "juxtapose", "blaschke", "compose"]),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-6, 1e-3, 0.02, 0.1, 0.3, 0.6]))
def test_carried_factors_multiply_out_and_agree_with_the_bare_map(kind, seed, floor):
    m = _factored_construction(kind, np.random.default_rng(seed))
    assert len(m.factors) >= 1
    product = Polynomial.one(m.n)
    for a in m.factors:  # times 1 - <z, a>
        inner = Polynomial(m.n, dict(zip(monomials_of_degree(m.n, 1), np.conj(a))))
        product = ref.mul(product, ref.sub(1.0, inner))
    assert ref.distance(product, m.q) <= 1e-12 * ref.largest(m.q)
    bare = RationalBallMap(m.n, m.N, m.p, m.q)
    assert _certify_outcome(m, floor) == _certify_outcome(bare, floor)


# ------------------------------------------------------------ linear algebra
DEGENERATE_UNITARIES = {
    "minus-identity": -np.eye(4),
    "identity": np.eye(4),
    "permutation": np.eye(5)[[1, 2, 3, 4, 0]],
    "conjugate-pair": np.diag([np.exp(0.7j), np.exp(-0.7j), 1.0]),
    "repeated": np.diag([np.exp(0.4j)] * 3 + [-1j]),
    "near-degenerate": np.diag([np.exp(1j), np.exp(1j * (1 + 1e-9)), np.exp(-2j)]),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_UNITARIES))
def test_unitary_path_on_degenerate_spectra(name, rng):
    core = DEGENERATE_UNITARIES[name]
    w = random_unitary(core.shape[0], rng)
    u = w @ core @ w.conj().T
    path = UnitaryPath(u)
    eye = np.eye(u.shape[0])
    assert np.max(np.abs(path(0.0) - eye)) <= 1e-10
    assert np.max(np.abs(path(1.0) - u)) <= 1e-10
    assert np.max(np.abs(path(0.5) @ path(0.5) - u)) <= 1e-10
    for s in (0.1, 0.5, 0.9):
        assert np.max(np.abs(path(s).conj().T @ path(s) - eye)) <= 1e-10


def test_unitary_path_stack_equals_each_matrix(rng):
    path = UnitaryPath(random_unitary(4, rng))
    ss = rng.random(9)
    for s, got in zip(ss.tolist(), path(ss)):
        want = (path.frame * np.exp(1j * s * path.angles)) @ path.frame.conj().T
        assert got.tobytes() == want.tobytes()


def test_unitary_path_endpoints(rng):
    u = random_unitary(4, rng)
    path = UnitaryPath(u)
    assert np.max(np.abs(path(0.0) - np.eye(4))) < 1e-12
    assert np.max(np.abs(path(1.0) - u)) < 1e-10
    for s in (0.3, 0.8):
        assert is_unitary(path(s), tol=1e-10)

import math

import numpy as np
import pytest

from propermaps._linalg import random_unitary
from propermaps.ballmaps import RationalBallMap, apply_linear, compose
from propermaps.constructors import (BallAutomorphism, automorphism_map,
                                     random_ball_automorphism)
from propermaps.corpus import group_invariant_degree5_map, quadric_three_map
from propermaps.homotopy import constant_family, degree_drop_family
from propermaps.bounds import DEFAULT_TOL
from propermaps.polyalg import Polynomial, monomials_of_degree, multinomial
from propermaps import xvariety
from propermaps.xvariety import (EvaluationAtPoleError, build_xmatrix, fiber_at,
                                 graph_test, xmatrix_along_family)

import polyref as ref


@pytest.fixture(scope="module")
def quintic():
    return group_invariant_degree5_map()


@pytest.fixture(scope="module")
def quintic_matrix(quintic):
    return build_xmatrix(quintic)


def hyperplane_points(w, count, seed=0):
    """Points z with <z, w> = 1: the reflected base point plus w-orthogonal shifts."""
    gen = np.random.default_rng(seed)
    base = w / np.linalg.norm(w) ** 2
    points = []
    for _ in range(count):
        g = gen.standard_normal(w.size) + 1j * gen.standard_normal(w.size)
        g -= (g @ np.conj(w)) / (np.linalg.norm(w) ** 2) * w
        points.append(base + 0.3 * g)
    return points


def _xmatrix_by_loop(m, degree):
    """Term-by-term reference: each numerator term c z^alpha times
    multinomial(gap, gamma) z^gamma conj(w)^gamma, |gamma| = gap = degree -
    |alpha|, collected per degree-d row and component as Polynomials."""
    rows = monomials_of_degree(m.n, degree)
    row_index = {alpha: i for i, alpha in enumerate(rows)}
    cells = [[{} for _ in range(m.N)] for _ in rows]
    for k, comp in enumerate(m.p):
        for alpha, coeff in comp.terms.items():
            gap = degree - sum(alpha)
            for gamma in monomials_of_degree(m.n, gap):
                terms = cells[row_index[tuple(a + g for a, g in zip(alpha, gamma))]][k]
                terms[gamma] = terms.get(gamma, 0.0) + coeff * multinomial(gap, gamma)
    return tuple(tuple(Polynomial(m.n, cell) for cell in row) for row in cells)


def _graph_test_by_points(m, x, samples, seed, include_hyperplanes):
    """``graph_test``'s points, each decided by its own ``fiber_at``:
    (exceptional (w, dimension) pairs, points checked)."""
    rng = np.random.default_rng(seed)
    points = [rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
              for _ in range(samples)]
    if include_hyperplanes and m.n > 1:
        for j in range(m.n):
            for _ in range(max(2, samples // (4 * m.n))):
                w = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
                w[j] = 0.0
                points.append(w)
    exceptional, checked = [], 0
    for w in points:
        if np.linalg.norm(w) <= 1e-9:
            continue
        try:
            report = fiber_at(m, x, w)
        except EvaluationAtPoleError:
            continue
        checked += 1
        if report.dimension > 0:
            exceptional.append((w, report.dimension))
    return exceptional, checked


def _tensor_power(n, d):
    comps = [Polynomial(n, {a: math.sqrt(multinomial(d, a))})
             for a in monomials_of_degree(n, d)]
    return RationalBallMap(n, len(comps), comps)


@pytest.fixture(scope="module")
def reference_maps(registry):
    """(name, map, degree, graph-test samples, hyperplanes): the catalog, the
    compositions of tensor powers with an automorphism, the ex2.1 members at
    degree 4 and a map whose denominator has a higher degree than its
    numerator."""
    gen = np.random.default_rng(3)
    out = [(name, m, None, 20, True) for name, m in registry.maps.items()]
    for n, d in ((2, 4), (2, 5), (2, 6), (2, 8), (2, 12), (3, 3), (3, 4), (3, 5), (4, 3)):
        phi = random_ball_automorphism(n, gen)
        out.append((f"compose-n{n}-d{d}", compose(_tensor_power(n, d), automorphism_map(phi)),
                    None, 20, True))
    quartic = registry.families["ex2.1.family"]
    for c in (0.041, 0.189, 0.404, 0.697, 0.95):
        out.append((f"ex2.1-{c}", quartic.evaluate(c), 4, 50, False))
    z1, z2 = Polynomial(2, {(1, 0): 1.0}), Polynomial(2, {(0, 1): 1.0})
    q = Polynomial(2, {(0, 0): 1.0, (2, 0): 0.1})
    out.append(("q-above-p", RationalBallMap(2, 2, [z1, z2], q), None, 20, True))
    return out


# ------------------------------------------------------------- construction
def test_entries_equal_the_term_by_term_reference(reference_maps):
    for name, m, d, _, _ in reference_maps:
        x = build_xmatrix(m, degree=d)
        want = _xmatrix_by_loop(m, x.d)
        got = x.entries
        assert [[e.terms for e in row] for row in got] == \
            [[e.terms for e in row] for row in want], name
        assert [[list(e.terms) for e in row] for row in got] == \
            [[list(e.terms) for e in row] for row in want], name


def test_stacked_evaluation_agrees_with_points_and_entries(reference_maps, monkeypatch):
    gen = np.random.default_rng(8)
    for name, m, d, _, _ in reference_maps:
        x = build_xmatrix(m, degree=d)
        pts = gen.standard_normal((4, m.n)) + 1j * gen.standard_normal((4, m.n))
        stacked = x.conjugated_at(pts)
        assert stacked.shape == (4, x.row_count, x.N)
        with monkeypatch.context() as patch:
            # Blocks of one or two points.
            patch.setattr(xvariety, "LIFT_ENTRIES", 2 * x.row_count * len(x.support))
            by_point = np.concatenate([x.conjugated_at(pts[:3]), [x.conjugated_at(pts[3])]])
        by_entry = np.array([[[np.conj(ref.value(e, np.conj(w))) for e in row]
                              for row in x.entries] for w in pts])
        scale = np.abs(by_entry).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(stacked - by_point) <= 1e-12 * scale), name
        assert np.all(np.abs(stacked - by_entry) <= 1e-12 * scale), name


def test_graph_test_equals_a_fiber_at_loop(reference_maps):
    for name, m, d, samples, planes in reference_maps:
        x = build_xmatrix(m, degree=d)
        result = graph_test(m, x, samples=samples, seed=17, include_hyperplanes=planes)
        exceptional, checked = _graph_test_by_points(m, x, samples, 17, planes)
        assert result.samples_checked == checked, name
        assert [dim for _, dim in result.exceptional] == [dim for _, dim in exceptional], name
        assert all(np.array_equal(a, b) for (a, _), (b, _) in
                   zip(result.exceptional, exceptional)), name


def test_identity_matrix_is_identity():
    x = build_xmatrix(RationalBallMap.identity(2))
    assert x.d == 1 and x.row_count == 2 and x.N == 2
    assert np.max(np.abs(x.conjugated_at(np.array([0.3, 0.1j])) - np.eye(2))) < 1e-12


def test_row_count_matches_monomial_count(registry):
    for name, m in registry.maps.items():
        x = build_xmatrix(m)
        d = int(m.degree)
        assert x.row_count == math.comb(d + m.n - 1, m.n - 1), name


def test_homogeneous_map_gives_constant_matrix():
    m = RationalBallMap(2, 3, [Polynomial(2, {(2, 0): 1.0}),
                               Polynomial(2, {(1, 1): math.sqrt(2.0)}),
                               Polynomial(2, {(0, 2): 1.0})])
    x = build_xmatrix(m)
    for row in x.entries:
        for entry in row:
            # Zero or constant: no term above the tolerance of positive degree.
            assert all(sum(alpha) == 0 or abs(c) <= DEFAULT_TOL for alpha, c in entry.terms.items())


def test_quintic_matrix_entries(quintic_matrix):
    x = quintic_matrix
    r5 = math.sqrt(5.0)
    expected = {
        (0, 0): {(0, 0): 1.0},
        (1, 1): {(1, 0): r5},
        (2, 1): {(0, 1): r5},
        (2, 2): {(2, 0): r5},
        (3, 2): {(1, 1): 2.0 * r5},
        (4, 2): {(0, 2): r5},
        (5, 3): {(0, 0): 1.0},
    }
    assert x.rows == ((5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5))
    entries = x.entries
    for i in range(6):
        for k in range(4):
            want = expected.get((i, k), {})
            assert ref.distance(entries[i][k], Polynomial(2, want)) <= 1e-12, (i, k)


def test_reconstruction_recovers_components(registry, rng):
    for name, m in registry.maps.items():
        x = build_xmatrix(m)
        w = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        for z in hyperplane_points(w, 3, seed=5):
            direct = np.array([ref.value(comp, z) for comp in m.p])
            rebuilt = np.array([x.reconstruct_component(k, z, w)
                                for k in range(m.N)])
            assert np.max(np.abs(direct - rebuilt)) < 1e-6, name


def test_polarized_pairing_along_reflection(registry, rng):
    # With z inside the ball and w its reflection across the sphere,
    # <z, w> = 1 forces <f(z), f(w)> = 1 for proper maps.
    for name, m in registry.maps.items():
        if not m.has_trivial_denominator:
            continue
        z = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        z *= 0.8 / np.linalg.norm(z)
        w = z / np.linalg.norm(z) ** 2
        pairing = np.sum(m.evaluate(z) * np.conj(m.evaluate(w)))
        assert abs(pairing - 1.0) < 1e-6, name


# -------------------------------------------------------------------- fibers
def test_generic_fiber_of_quintic_is_trivial(quintic, quintic_matrix, rng):
    for _ in range(5):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        report = fiber_at(quintic, quintic_matrix, w)
        assert report.dimension == 0
        assert np.max(np.abs(report.base - quintic.evaluate(w))) < 1e-12


def test_origin_is_special_cased(quintic, quintic_matrix):
    report = fiber_at(quintic, quintic_matrix, np.zeros(2))
    assert report.dimension == 0
    assert np.max(np.abs(report.base - quintic.evaluate(np.zeros(2)))) < 1e-12


def test_padded_map_has_positive_dimensional_fibers(rng):
    padded = quadric_three_map().padded(5)
    x = build_xmatrix(padded)
    for _ in range(3):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert fiber_at(padded, x, w).dimension >= 2


def test_fiber_points_satisfy_polarized_equation(rng):
    fam = degree_drop_family()
    m = fam.evaluate(0.6)
    x = build_xmatrix(m, degree=4)
    w = np.array([0.0, 0.4 - 0.2j])  # exceptional hyperplane
    report = fiber_at(m, x, w)
    assert report.dimension > 0
    for column in range(report.dimension):
        zeta = report.base + 0.7 * report.nullspace_basis[:, column]
        for z in hyperplane_points(w, 4, seed=9):
            pairing = np.sum(m.evaluate(z) * np.conj(zeta))
            assert abs(pairing - 1.0) < 1e-6


def test_fiber_dimension_is_unitary_invariant(quintic, rng):
    u = random_unitary(4, rng)
    rotated = apply_linear(u, quintic)
    xa, xb = build_xmatrix(quintic), build_xmatrix(rotated)
    for _ in range(4):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        da = fiber_at(quintic, xa, w).dimension
        db = fiber_at(rotated, xb, w).dimension
        assert da == db


def test_pole_evaluation_raises():
    phi = BallAutomorphism([0.5, 0.0])
    m = automorphism_map(phi)
    x = build_xmatrix(m)
    with pytest.raises(EvaluationAtPoleError):
        fiber_at(m, x, np.array([2.0, 0.0]))  # q(w) = 1 - 0.5*2 = 0


# ---------------------------------------------------------------- graph test
def test_identity_graph_equals_solution_set():
    result = graph_test(RationalBallMap.identity(3), samples=30)
    assert result.graph_equals_x
    assert result.samples_checked >= 30


def test_quartic_member_has_exceptional_hyperplane():
    m = degree_drop_family().evaluate(0.7)
    result = graph_test(m, build_xmatrix(m, degree=4), samples=40)
    assert not result.graph_equals_x
    for w, dim in result.exceptional:
        assert abs(w[0]) < 1e-12
        assert dim > 0


def test_rank_deficient_padding_is_exceptional_everywhere(rng):
    padded = quadric_three_map().padded(4)
    result = graph_test(padded, samples=20)
    assert not result.graph_equals_x
    assert len(result.exceptional) == result.samples_checked


def test_zero_numerator_has_degree_zero_and_full_fibers():
    zero = RationalBallMap(2, 3, [Polynomial(2, {})] * 3)
    x = build_xmatrix(zero)
    assert (x.d, x.row_count, x.N) == (0, 1, 3)
    result = graph_test(zero, x, samples=10)
    assert not result.graph_equals_x and result.samples_checked >= 10
    assert all(dim == zero.N for _, dim in result.exceptional)
    assert len(result.exceptional) == result.samples_checked


# ------------------------------------------------------------ family matrices
def test_constant_family_gives_constant_matrices():
    report = xmatrix_along_family(constant_family(quadric_three_map()),
                                  grid_size=5)
    assert report.max_entry_step == 0.0
    assert report.rank_drops == []


def test_quartic_family_determinant_law(rng):
    fam = degree_drop_family()
    for _ in range(10):
        c = 0.15 + 0.8 * rng.random()
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = build_xmatrix(fam.evaluate(c), degree=4)
        det = np.linalg.det(x.conjugated_at(w))
        expected = c ** 2 * w[0] ** 6
        assert abs(det - expected) <= 1e-6 * abs(expected)


def test_family_entry_step_is_the_largest_reference_coefficient_step():
    fam = degree_drop_family()
    report = xmatrix_along_family(fam, grid_size=5)
    matrices = [_xmatrix_by_loop(m, 4) for m in fam.evaluate_many(report.grid)]
    want = max(ref.distance(a, b) for x, y in zip(matrices, matrices[1:])
               for row_x, row_y in zip(x, y) for a, b in zip(row_x, row_y))
    assert report.max_entry_step == want


def test_quartic_family_rank_profile():
    report = xmatrix_along_family(degree_drop_family(), grid_size=11)
    assert report.degree == 4
    assert report.generic_ranks[0] == 4   # cubic member embeds at degree 4
    assert all(r == 5 for r in report.generic_ranks[1:])
    assert report.rank_drops == [0.0]
    finer = xmatrix_along_family(degree_drop_family(), grid_size=41)
    assert finer.max_entry_step < report.max_entry_step  # continuity in t


def test_a_lift_beyond_the_plan_bound_raises_before_it_is_built():
    m = RationalBallMap(2, 2, [Polynomial(2, {(1100, 0): 1.0}), Polynomial(2, {(0, 1): 1.0})])
    with pytest.raises(ValueError, match=r"degree 1100 \(n = 2\)"):
        build_xmatrix(m).conjugated_at([0.1, 0.2])

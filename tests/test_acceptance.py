"""Acceptance suite: every criterion prints one pass/fail line (run with -s)."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from propermaps._linalg import numerical_rank, random_unitary
from propermaps.ballmaps import (RationalBallMap, Verdict, apply_linear,
                                 certify_proper, degree, degree_bound,
                                 embedding_dimension, norm_equivalent)
from propermaps.constructors import (BallAutomorphism, automorphism_map,
                                     blaschke_map, juxtapose,
                                     random_ball_automorphism,
                                     random_blaschke_product, whitney_extend,
                                     whitney_start, winding_degree,
                                     winding_integral)
from propermaps.corpus import corpus, faran_maps
from propermaps.homotopy import (NotTensorImageError, blaschke_homotopy,
                                 collapse_to_linear, degree_drop_family,
                                 homotopy_to_monomial, juxtaposition_family,
                                 verify_family)
from propermaps.polyalg import Polynomial, align_rows, signed_gram
from propermaps.xvariety import build_xmatrix, fiber_at, graph_test

import polyref as ref


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL — {description}")
        raise
    print(f"[criterion {number:02d}] PASS — {description}")


@pytest.fixture(scope="module")
def reg():
    return corpus()


def test_criterion_01_properness_corpus(reg):
    with criterion(1, "all catalog maps certify proper with residual <= 1e-9"):
        names = ["ex2.1.f", "ex2.1.g", "ex2.1.h", "whitney.W",
                 "faran.f", "faran.g", "faran.h", "faran.phi", "ex4.1.map"]
        for name in names:
            cert = certify_proper(reg.maps[name])
            assert cert.verdict is Verdict.PROPER, name
            assert cert.residual_norm <= 1e-9, name


def test_criterion_02_degree_is_not_a_homotopy_invariant(reg):
    with criterion(2, "grid-101 family: degree 4 except 3 at one endpoint, "
                      "embedding dimension 5 throughout"):
        report = verify_family(reg.families["ex2.1.family"], grid_size=101)
        assert report.passed
        assert sum(1 for d in report.degrees if d == 4) >= 99
        assert report.degrees.count(3) == 1
        assert report.degrees[0] == 3  # the single drop sits at an endpoint
        assert all(e == 5 for e in report.embedding_dimensions)


def test_criterion_03_homogenization_matrix_regression(reg):
    with criterion(3, "degree-5 invariant map yields the expected 6x4 matrix "
                      "entrywise (1e-12)"):
        x = build_xmatrix(reg.maps["ex4.1.map"])
        assert x.rows == ((5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5))
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
        for i in range(6):
            for k in range(4):
                want = Polynomial(2, expected.get((i, k), {}))
                assert ref.distance(x.entry(i, k), want) <= 1e-12, (i, k)


def test_criterion_04_determinant_law(reg):
    with criterion(4, "det of the conjugated matrix equals c^2 w1^6 "
                      "(rel 1e-6, 20 samples); rank <= 4 at c = 0"):
        fam = reg.families["ex4.2.family"]
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = 0.1 + 0.9 * rng.random()
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x = build_xmatrix(fam.evaluate(c), degree=4)
            det = np.linalg.det(x.conjugated_at(w))
            expected = c ** 2 * w[0] ** 6
            assert abs(det - expected) <= 1e-6 * abs(expected)
        x0 = build_xmatrix(fam.evaluate(0.0), degree=4)
        for _ in range(20):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert numerical_rank(x0.conjugated_at(w)) <= 4


def test_criterion_05_exceptional_fibers(reg):
    with criterion(5, "family members with c != 0: trivial fibers at 50 generic "
                      "points, positive-dimensional fiber on w1 = 0"):
        fam = reg.families["ex2.1.family"]
        rng = np.random.default_rng(21)
        for c in (0.35, 0.8, 1.0):
            member = fam.evaluate(c)
            x = build_xmatrix(member, degree=4)
            result = graph_test(member, x, samples=50, seed=int(100 * c),
                                include_hyperplanes=False)
            assert result.graph_equals_x
            assert result.samples_checked >= 50
            w = np.array([0.0, 0.0], dtype=complex)
            w[1] = 0.3 + rng.standard_normal() * 0.2 + 0.1j
            assert fiber_at(member, x, w).dimension > 0


def test_criterion_06_blaschke_suite():
    with criterion(6, "100 random products: winding = factor count "
                      "(residual <= 1e-6); homotopy endpoints and constant degree"):
        rng = np.random.default_rng(42)
        for k in range(100):
            b = random_blaschke_product(rng)
            m = blaschke_map(b)
            count = winding_degree(m)
            assert count == b.factor_count
            assert abs(winding_integral(m) - count) <= 1e-6
            fam = blaschke_homotopy(b)
            assert fam.evaluate(0.0).allclose(m, 1e-12)
            endpoint = fam.evaluate(1.0)
            assert ref.distance(endpoint.p[0], Polynomial.monomial((count,))) <= 1e-12
            for i in range(11):
                assert winding_degree(fam.evaluate(i / 10)) == count


def test_criterion_07_juxtaposition_identity(reg):
    with criterion(7, "squared-norm identity of the juxtaposition is exact "
                      "(1e-12) for all same-domain catalog pairs"):
        maps = list(reg.maps.items())
        pairs = [(a, b) for i, (na, a) in enumerate(maps)
                 for nb, b in maps[i + 1:] if a.n == b.n]
        assert len(pairs) >= 28
        for f, g in pairs:
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                mix = juxtapose(f, g, t)
                # ||mix||^2 - (1 - t^2) ||f||^2 - t^2 ||g||^2 as one signed
                # Gram: the weighted rows of f and g negated.
                support, rows = align_rows((mix.support, mix.coefficients[:-1]),
                                           (f.support, f.coefficients[:-1] * math.sqrt(1 - t * t)),
                                           (g.support, g.coefficients[:-1] * t))
                diff = signed_gram(np.vstack(rows), f.N + g.N)
                assert np.abs(diff).max() <= 1e-12
            report = verify_family(juxtaposition_family(f, g), grid_size=11)
            assert report.passed
            assert report.max_residual <= 1e-9


def _random_whitney_term(n, length, rng):
    term = whitney_start(random_ball_automorphism(n, rng))
    for _ in range(length):
        size = term.map.N
        if rng.random() < 0.5:
            d = int(rng.integers(1, min(size, 3) + 1))
            basis = np.sort(rng.choice(size, size=d, replace=False))
        else:
            d = int(rng.integers(1, 3))
            g = rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d))
            basis, _ = np.linalg.qr(g)
        injection = None
        if rng.random() < 0.25:
            grown = size + d * (n - 1)
            g = rng.standard_normal((grown + 1, grown)) \
                + 1j * rng.standard_normal((grown + 1, grown))
            injection, _ = np.linalg.qr(g)
        term = whitney_extend(term, basis, random_ball_automorphism(n, rng),
                              injection=injection)
    return term


def test_criterion_08_whitney_terms_reach_monomial_maps():
    with criterion(8, "20 random tensor sequences: degree <= k+1 per term; "
                      "monomial endpoint of degree exactly k+1 at grid 101"):
        rng = np.random.default_rng(77)
        cases = [(2, int(rng.integers(1, 5))) for _ in range(14)]
        cases += [(3, int(rng.integers(1, 4))) for _ in range(6)]
        for n, length in cases:
            term = _random_whitney_term(n, length, rng)
            for k, m in enumerate(term.maps):
                assert degree(m) <= k + 1
            fam = homotopy_to_monomial(term)
            endpoint = fam.endpoint_right
            assert endpoint.is_monomial_map
            assert all(len(c.significant_terms()) == 1 for c in endpoint.p)
            assert degree(endpoint) == term.length + 1
            report = verify_family(fam, grid_size=101)
            assert report.passed


def test_criterion_09_degree_lowering_families(reg):
    with criterion(9, "degree lowering: (z, zw, w^2) collapses to the identity "
                      "in dimension 4; the cubic invariant map is rejected"):
        h = reg.maps["ex2.1.h"]
        fam = collapse_to_linear(h)
        assert fam.target_dim == 4
        report = verify_family(fam, grid_size=21)
        assert report.passed
        end = norm_equivalent(fam.evaluate(1.0), RationalBallMap.identity(2))
        assert end.equivalent and end.witness_residual <= 1e-6
        with pytest.raises(NotTensorImageError):
            collapse_to_linear(faran_maps()["phi"])


def test_criterion_10_norm_equivalence(reg):
    with criterion(10, "f ~ U f with witness residual <= 1e-6 (20 unitaries); "
                       "moved automorphism and the degree-4/3 pair inequivalent"):
        rng = np.random.default_rng(5)
        f = reg.maps["ex2.1.f"]
        for _ in range(20):
            u = random_unitary(f.N, rng)
            result = norm_equivalent(f, apply_linear(u, f))
            assert result.equivalent
            assert result.witness_residual <= 1e-6
        moved = automorphism_map(BallAutomorphism([0.3, -0.2]))
        assert not norm_equivalent(RationalBallMap.identity(2), moved).equivalent
        assert not norm_equivalent(reg.maps["ex2.1.f"], reg.maps["ex2.1.g"]).equivalent


def test_criterion_11_degree_bound(reg):
    with criterion(11, "catalog degrees respect N(N-1)/(2(2n-3)); the cubic "
                       "invariant map saturates the bound 3 for (2, 3)"):
        for name, m in reg.maps.items():
            if m.n >= 2:
                assert degree(m) <= degree_bound(m.n, m.N), name
        faran = [reg.maps[k] for k in ("faran.f", "faran.g", "faran.h", "faran.phi")]
        assert degree_bound(2, 3) == 3
        assert max(degree(m) for m in faran) == 3


def test_criterion_12_faran_homotopies(reg):
    with criterion(12, "the three explicit homotopies verify at grid 101 in "
                       "dimensions 4, 4, 5 with matching endpoints"):
        maps = faran_maps()
        expectations = {
            "faran.fg.family": (4, "f", "g"),
            "faran.gh.family": (4, "h", "g"),
            "faran.hphi.family": (5, "phi", "h"),
        }
        for name, (dim, left, right) in expectations.items():
            fam = reg.families[name]
            assert fam.target_dim == dim
            report = verify_family(fam, grid_size=101)
            assert report.passed
            assert norm_equivalent(fam.evaluate(0.0), maps[left]).equivalent
            assert norm_equivalent(fam.evaluate(1.0), maps[right]).equivalent

import cmath
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propermaps import _linalg, ballmaps, constructors, homotopy, polyalg
from propermaps._linalg import UnitaryPath
from propermaps.ballmaps import (DenominatorVanishesError, RationalBallMap, Verdict,
                                 apply_linear, certify_proper, degree, norm_equivalent)
from propermaps.bounds import DEFAULT_TOL
from propermaps.constructors import (BallAutomorphism, BlaschkeProduct, WhitneyTerm,
                                     automorphism_map, blaschke_map,
                                     random_ball_automorphism, whitney_extend,
                                     whitney_start, winding_degree)
from propermaps.corpus import faran_maps, quadric_three_map
from propermaps.homotopy import (EndpointMismatchError, HomotopyFamily,
                                 NotTensorImageError, automorphism_contraction,
                                 blaschke_homotopy, collapse_to_linear, concat_families,
                                 constant_family, degree_drop_family,
                                 faran_families, homotopy_to_monomial,
                                 juxtaposition_family, verify_family)
from propermaps.polyalg import Polynomial

import polyref as ref
from conftest import bench_module


def pointwise(fn):
    """The evaluator of a family given by a function of one t: ``fn`` is
    called once per parameter, with a Python float, in order and only when
    its member is read."""
    return lambda ts: map(fn, ts.tolist())


# ------------------------------------------------------------- verification
def test_juxtaposition_family_verifies(registry):
    fam = juxtaposition_family(registry.maps["faran.h"], registry.maps["faran.phi"])
    report = verify_family(fam, grid_size=11)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_shrinking_family_fails_for_positive_t():
    ident = RationalBallMap.identity(2)

    def evaluator(t):
        return RationalBallMap(2, 2, [ref.mul(comp, 1.0 - t) for comp in ident.p])

    fam = HomotopyFamily(2, 2, pointwise(evaluator), ident, ident)
    report = verify_family(fam, grid_size=11)
    assert not report.passed
    assert len(report.properness_failures) == 10  # every t > 0
    assert not report.endpoint_right_ok
    # The failing members all carry their witness, sampled when it is read.
    for _, cert in report.properness_failures:
        assert cert.witness is not None and cert.witness_value > 1e-9


def test_whitney_family_members_certify_without_sampling(rng):
    term = whitney_start(random_ball_automorphism(3, rng))
    dense, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    term = whitney_extend(term, dense, random_ball_automorphism(3, rng))
    injection, _ = np.linalg.qr(rng.standard_normal((10, 9)) + 1j * rng.standard_normal((10, 9)))
    term = whitney_extend(term, np.array([0]), random_ball_automorphism(3, rng),
                          injection=injection)
    fam = homotopy_to_monomial(term)
    methods = set()
    for k in range(21):
        cert = certify_proper(fam.evaluate(k / 20))
        assert cert.verdict is Verdict.PROPER
        methods.add(cert.denominator_method)
    assert methods == {"trivial", "factored"}


def test_coefficient_steps_shrink_under_grid_refinement():
    fam = degree_drop_family()
    coarse = verify_family(fam, grid_size=11)
    fine = verify_family(fam, grid_size=41)
    assert fine.max_coefficient_step < coarse.max_coefficient_step


def test_report_serializes():
    fam = degree_drop_family()
    report = verify_family(fam, grid_size=5)
    data = report.to_dict()
    assert data["passed"] and data["grid_size"] == 5
    assert isinstance(report.summary(), str)


def test_report_names_the_first_worst_grid_points():
    # z -> c z is proper exactly when |c| = 1, with residual 1 - |c|^2.  The
    # scale drops to 0.5 at t = 0.3 and t = 0.8 and flips sign at t = 0.6.
    scales = {0.3: 0.5, 0.6: -1.0, 0.7: -1.0, 0.8: 0.5, 0.9: -1.0, 1.0: -1.0}

    def evaluator(t):
        return RationalBallMap(1, 1, [Polynomial(1, {(1,): scales.get(round(t, 6), 1.0)})])

    fam = HomotopyFamily(1, 1, pointwise(evaluator), evaluator(0.0), evaluator(1.0))
    report = verify_family(fam, grid_size=11)
    assert [t for t, _ in report.properness_failures] == [0.3, 0.8]
    assert report.max_residual == pytest.approx(0.75)
    assert report.t_at_max_residual == 0.3
    # Steps of 0.5 around t = 0.3, of 1.5 around t = 0.8 and of 2 into t = 0.6.
    assert report.max_coefficient_step == pytest.approx(2.0)
    assert report.t_at_max_coefficient_step == 0.6
    data = report.to_dict()
    assert (data["t_at_max_residual"], data["t_at_max_coefficient_step"]) == (0.3, 0.6)
    assert "at t=0.3000" in report.summary() and "at t=0.6000" in report.summary()

    steady = verify_family(constant_family(RationalBallMap.identity(1)), grid_size=5)
    assert (steady.t_at_max_residual, steady.t_at_max_coefficient_step) == (0.0, 0.25)


def test_coefficient_steps_are_the_distances_of_adjacent_members(rng):
    # Inside a run of one support the steps are one array difference; across
    # runs they are distance().  The z -> z^2 jump at t = 0.5 is a step
    # across runs and the largest one.
    def evaluator(t):
        return RationalBallMap(1, 1, [Polynomial(1, {(1,): 1.0 - 0.1 * t}) if t < 0.5
                                      else Polynomial(1, {(2,): 1.0})])

    jump = HomotopyFamily(1, 1, pointwise(evaluator), evaluator(0.0), evaluator(1.0))
    for fam in (jump, _whitney_family(2, 3, rng)[1], degree_drop_family()):
        report = verify_family(fam, grid_size=41)
        members = [fam.evaluate(t) for t in report.grid]
        steps = [a.distance(b) for a, b in zip(members, members[1:])]
        assert report.max_coefficient_step == max(steps)
        assert report.t_at_max_coefficient_step == report.grid[1 + steps.index(max(steps))]
    assert verify_family(jump, grid_size=11).max_coefficient_step == pytest.approx(1.0)


# ------------------------------------------------------ batched verification
def _error_one_by_one(fam, grid_size):
    """(type, message) of the error that certifying the members one at a
    time, each evaluated and then certified in grid order, raises; None if
    none does."""
    try:
        for i in range(grid_size):
            certify_proper(fam.evaluate(i / (grid_size - 1)))
    except Exception as error:
        return type(error), str(error)
    return None


def _mixed_family(kinds):
    """Family on B_2 whose member at t = k/10 is, by kinds[k], an automorphism
    map (.), a shrunken one, not proper (s), one whose denominator vanishes on
    the closed ball (v), or an evaluation error (x).  All members share one
    support and one factor count, so they fall into one block."""
    center = np.array([0.3, 0.4j])

    def evaluator(t):
        kind = kinds[round(10 * t)]
        if kind == "x":
            raise ValueError(f"no member at t={t}")
        if kind == "v":
            return automorphism_map(BallAutomorphism(2 * center * (1 - 1e-9)))
        m = automorphism_map(BallAutomorphism(center * (1 - t / 2)))
        return apply_linear(0.5 * np.eye(2), m) if kind == "s" else m

    end = automorphism_map(BallAutomorphism(center))
    return HomotopyFamily(2, 2, pointwise(evaluator), end, end)


@pytest.mark.parametrize("kinds, kind", [
    ("...s..v....", DenominatorVanishesError),
    ("..v..s.....", DenominatorVanishesError),
    ("....s..x...", ValueError),
    ("....vx.....", DenominatorVanishesError),
    ("x..........", ValueError),
    (".........sx", ValueError),
])
def test_grid_errors_come_for_the_first_offending_member(kinds, kind):
    fam = _mixed_family(kinds)
    expected, detail = _error_one_by_one(fam, 11)
    assert expected is kind
    with pytest.raises(kind) as raised:
        verify_family(fam, grid_size=11)
    assert type(raised.value) is kind
    assert str(raised.value) == detail


def test_grid_is_certified_in_blocks(rng):
    term = whitney_start(random_ball_automorphism(2, rng))
    term = whitney_extend(term, np.array([0]), random_ball_automorphism(2, rng))
    term = whitney_extend(term, np.array([1, 2]), random_ball_automorphism(2, rng))
    fam = homotopy_to_monomial(term)
    # Blocks: runs of members with one support, target dimension and factor
    # count, cut where the next member would exceed the block budget.
    blocks, key, size = 0, None, 0
    for i in range(101):
        m = fam.evaluate(i / 100)
        if ((m.support, m.N, len(m.factors)) != key
                or (size + 1) * len(m.support) ** 2 > ballmaps.BLOCK_ENTRIES):
            blocks, key, size = blocks + 1, (m.support, m.N, len(m.factors)), 0
        size += 1
    plans = (polyalg._bernstein_plan, polyalg._radial_plan)
    before = [plan.cache_info() for plan in plans]
    assert verify_family(fam, grid_size=101).passed
    after = [plan.cache_info() for plan in plans]
    # Two sphere-reduction plan lookups per block, not per member: one for
    # the Bernstein coefficients (the full plan, or the radial plan for the
    # monomial end) and one for their scale (the radial plan).
    lookups = sum(a.hits + a.misses - b.hits - b.misses for a, b in zip(after, before))
    assert lookups == 2 * blocks
    assert blocks <= 10


def test_concat_builds_each_junction_once():
    calls = []
    ident = RationalBallMap.identity(2)

    def segment(label):
        def evaluator(t):
            calls.append((label, t))
            return ident
        return homotopy._segment(2, pointwise(evaluator))

    fam = concat_families([segment("a"), segment("b")])
    assert calls == [("a", 0.0), ("a", 1.0), ("b", 0.0), ("b", 1.0)]
    # Grid points on the ends of a segment reuse its endpoint maps.
    assert verify_family(fam, grid_size=5).passed
    assert calls[4:] == [("a", 0.5), ("b", 0.5)]


def test_segment_builds_both_endpoints_with_one_evaluator_call():
    calls = []
    ident = RationalBallMap.identity(2)

    def evaluator(ts):
        calls.append(ts.tolist())
        return [apply_linear((1.0 - 0.5 * t) * np.eye(2), ident) for t in ts.tolist()]

    fam = homotopy._segment(2, evaluator)
    assert calls == [[0.0, 1.0]]
    assert fam.endpoint_left.allclose(ident)
    assert fam.endpoint_right.allclose(apply_linear(0.5 * np.eye(2), ident))
    # The grid reuses both endpoints and builds its inner points in one call.
    members = list(fam.evaluate_many([0.0, 0.5, 1.0]))
    assert calls == [[0.0, 1.0], [0.5]]
    assert members[0] is fam.endpoint_left and members[2] is fam.endpoint_right


def _whitney_family(n, length, gen):
    """Monomial homotopy of a random Whitney term whose steps cycle through
    canonical and dense subspace bases, with an isometric injection after
    every other step."""
    term = whitney_start(random_ball_automorphism(n, gen))
    for k in range(length):
        size = term.map.N
        if k % 2 == 0:
            basis = np.arange(1 + (k // 2) % 2)
        else:
            g = gen.standard_normal((size, 2)) + 1j * gen.standard_normal((size, 2))
            basis, _ = np.linalg.qr(g)
        injection = None
        if k % 2 == 1:
            grown = size + 2 * (n - 1)
            g = (gen.standard_normal((grown + 1, grown))
                 + 1j * gen.standard_normal((grown + 1, grown)))
            injection, _ = np.linalg.qr(g)
        term = whitney_extend(term, basis, random_ball_automorphism(n, gen),
                              injection=injection)
    return term, homotopy_to_monomial(term)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("length", [1, 3])
def test_each_step_is_framed_once_in_its_own_target(n, length, rng):
    # Length 1 has no injection; length 3 has one after its second step.
    # Each step completes its basis, and its injection when it has one, to
    # a unitary once: the second reduction of the term adds none.
    with mock.patch.object(_linalg, "gram_schmidt_complement",
                           wraps=_linalg.gram_schmidt_complement) as complements:
        term, fam = _whitney_family(n, length, rng)
        again = homotopy_to_monomial(term)
    injected = sum(step.injection is not None for step in term.steps)
    assert complements.call_count == term.length + injected
    assert (length > 1) == (injected > 0)
    # Step k tensors maps[k], whose target is that of the reduction family
    # before the step, so no stage pads a basis or an injection.
    for k, (step, m) in enumerate(zip(term.steps, term.maps)):
        prefix = WhitneyTerm(term.start, term.steps[:k], term.maps[:k + 1])
        assert step.basis.shape[0] == m.N == homotopy_to_monomial(prefix).target_dim
    assert fam.target_dim == again.target_dim == term.map.N


def _assert_block_equals_one_t(fam, ts):
    block = list(fam.evaluate_many(ts))
    single = [fam.evaluate(t) for t in ts]
    assert len(block) == len(single) == len(ts)
    for a, b in zip(block, single):
        assert (a.n, a.N, a.support) == (b.n, b.N, b.support)
        assert a.coefficients.shape == b.coefficients.shape
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert a.factors.shape == b.factors.shape
        assert a.factors.tobytes() == b.factors.tobytes()


def test_block_evaluation_equals_one_t_evaluation(rng):
    # Bit for bit over every generator, on a grid and on shuffled parameters.
    grid = [i / 40 for i in range(41)]
    shuffled = rng.permutation(grid + [0.123, 0.5 + 1e-12, 1.0 - 1e-12]).tolist()
    h = quadric_three_map()
    phi = random_ball_automorphism(2, rng)
    families = [fam for n in (2, 3) for length in (1, 2, 3, 4)
                for fam in [_whitney_family(n, length, rng)[1]]]
    families += [fam.reversed() for fam in families[:3]]
    families += [
        concat_families([automorphism_contraction(phi),
                         constant_family(ballmaps.apply_linear(
                             np.diag([1j, -1.0]), RationalBallMap.identity(2)))]),
        concat_families([constant_family(h), constant_family(
            ballmaps.apply_linear(np.diag([1j, -1.0, 1.0]), h))]),
        *faran_families().values(),
        degree_drop_family(),
        juxtaposition_family(faran_maps()["h"], faran_maps()["phi"]),
        blaschke_homotopy(BlaschkeProduct(0.7, [0.3, -0.5j, 0.1 + 0.2j])),
        collapse_to_linear(h),
        collapse_to_linear(families[2].endpoint_right),
    ]
    for fam in families:
        _assert_block_equals_one_t(fam, grid)
        _assert_block_equals_one_t(fam, shuffled)
        # Evaluator calls of 7 parameters split the grid inside runs.
        with mock.patch.object(homotopy, "GRID_CHUNK", 7):
            _assert_block_equals_one_t(fam, grid)


def test_grid_evaluation_makes_one_product_per_run_and_stage(rng, monkeypatch):
    term, fam = _whitney_family(2, 3, rng)
    ts = [i / 100 for i in range(101)]
    products, factored = [], []
    multiply, tensor = constructors.multiply_rows, constructors._tensor_in_frame

    def counted(fs, frame, d, phis):
        # The identity factor is passed as None.
        factored.append(phis is not None)
        return tensor(fs, frame, d, phis)

    monkeypatch.setattr(constructors, "multiply_rows",
                        lambda *args: products.append(1) or multiply(*args))
    monkeypatch.setattr(constructors, "_tensor_in_frame", counted)
    members = list(fam.evaluate_many(ts))
    runs = len(list(ballmaps._runs(members)))
    # Each stage tensors the runs of the members it passes, and those runs
    # end where the grid's runs do; a run whose domain factor is not the
    # identity takes one product, and one whose factor is the identity only
    # moves coefficients.  One t at a time makes one product per member and
    # stage it passes through.
    assert len(products) == sum(factored) > 0
    assert len(products) <= term.length * runs
    assert runs <= 10



def test_grid_evaluation_bounds_its_memory(rng):
    term, fam = _whitney_family(3, 3, rng)
    assert verify_family(fam, grid_size=101).passed  # plans are cached
    tracemalloc.start()
    try:
        report = verify_family(fam, grid_size=2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    # The evaluator takes GRID_CHUNK parameters at a time and every stacked
    # step after it a run of at most BLOCK_ENTRIES Gram entries, so the peak
    # stays a few certification blocks (16 bytes per entry) whatever the
    # grid: 8.4 MB here, where evaluating the grid in one block took 53 MB.
    assert peak < 48 * 16 * ballmaps.BLOCK_ENTRIES

# ------------------------------------------------------ coefficient blocks
def _random_whitney_family(n, length, seed):
    """Monomial homotopy of a Whitney term whose automorphisms, subspaces
    (canonical or dense, of dimension 1 or 2) and injections are drawn from
    ``seed``."""
    gen = np.random.default_rng(seed)
    term = whitney_start(random_ball_automorphism(n, gen))
    for _ in range(length):
        size = term.map.N
        d = 1 + int(gen.integers(min(size, 2)))
        if gen.random() < 0.5:
            basis = np.sort(gen.choice(size, d, replace=False))
        else:
            basis, _ = np.linalg.qr(gen.standard_normal((size, d))
                                    + 1j * gen.standard_normal((size, d)))
        injection = None
        if gen.random() < 0.5:
            grown = size + d * (n - 1)
            extra = 1 + int(gen.integers(2))
            injection, _ = np.linalg.qr(gen.standard_normal((grown + extra, grown))
                                        + 1j * gen.standard_normal((grown + extra, grown)))
        term = whitney_extend(term, basis, random_ball_automorphism(n, gen),
                              injection=injection)
    return homotopy_to_monomial(term)


def _map_by_map_report(fam, grid_size):
    """What ``verify_family`` reports, from the list of the members that
    ``evaluate_many`` gives: certified by ``certify_maps``, the steps by
    ``distance`` and the endpoints by norm equivalence."""
    grid = [i / (grid_size - 1) for i in range(grid_size)]
    members = list(fam.evaluate_many(grid))
    results = list(ballmaps.certify_maps(members))
    steps = [0.0] + [a.distance(b) for a, b in zip(members, members[1:])]
    max_step, t_step = 0.0, grid[1]
    for step, t in zip(steps, grid):
        if step > max_step:
            max_step, t_step = step, t
    failures = [(t, cert) for t, (cert, _, _) in zip(grid, results)
                if cert.verdict is not Verdict.PROPER]
    ends = [norm_equivalent(m, end, tol=1e3 * DEFAULT_TOL).equivalent
            for m, end in ((members[0], fam.endpoint_left), (members[-1], fam.endpoint_right))]
    return homotopy.FamilyReport(grid, [deg for _, deg, _ in results],
                                 [dim for _, _, dim in results],
                                 [cert.residual_norm for cert, _, _ in results], failures,
                                 *ends, max_step, t_step, fam.target_dim)


def _assert_blocks_change_no_result(fam, grid_size=101):
    grid = [i / (grid_size - 1) for i in range(grid_size)]
    blocks = list(ballmaps._runs(fam._evaluate(grid)))
    members = list(fam.evaluate_many(grid))
    assert sum(len(block) for block in blocks) == len(members) == grid_size
    for a, b in zip((m for block in blocks for m in block), members):
        assert (a.n, a.N, a.support) == (b.n, b.N, b.support)
        assert a.coefficients.shape == b.coefficients.shape
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert a.factors.shape == b.factors.shape
        assert a.factors.tobytes() == b.factors.tobytes()
    report, reference = verify_family(fam, grid_size), _map_by_map_report(fam, grid_size)
    got, want = report.to_dict(), reference.to_dict()
    assert got.pop("timings").keys() == {"evaluate_s", "certify_s", "rank_s", "denominator_s"}
    want.pop("timings")
    assert got == want
    for (t, cert), (t_ref, ref) in zip(report.properness_failures,
                                       reference.properness_failures, strict=True):
        assert (t, cert.verdict, cert.residual_norm, cert.worst_entry,
                cert.denominator_method, cert.denominator_margin) == (
            t_ref, ref.verdict, ref.residual_norm, ref.worst_entry,
            ref.denominator_method, ref.denominator_margin)
        assert cert.witness.tobytes() == ref.witness.tobytes()
    return report


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
# Families whose junctions were once searched for by norm equivalence, which
# rounding noise failed: four raised at an injection and two read a noise
# column at the right endpoint.
@example(3, 1, 331)
@example(3, 2, 331)
@example(3, 3, 331)
@example(3, 3, 155)
@example(3, 3, 137)
@example(3, 3, 317)
def test_blocks_change_no_member_and_no_report(n, length, seed):
    fam = _random_whitney_family(n, length, seed)
    report = _assert_blocks_change_no_result(fam)
    assert report.passed
    # A family of the same members built one t at a time by a user's
    # function verifies as the family itself does.
    user = HomotopyFamily(n, fam.target_dim, pointwise(fam.evaluate),
                          fam.endpoint_left, fam.endpoint_right)
    again = verify_family(user)
    assert again.passed
    assert {**again.to_dict(), "timings": None} == {**report.to_dict(), "timings": None}


@pytest.mark.slow
def test_every_family_of_the_random_whitney_scan_passes():
    # 2,400 families: n = 2 and 3, lengths 1 to 3, seeds 0 to 399.  Left out
    # of the default run; ``pytest -m slow`` runs it.
    failing = [(n, length, seed) for n in (2, 3) for length in (1, 2, 3)
               for seed in range(400)
               if not verify_family(_random_whitney_family(n, length, seed)).passed]
    assert failing == []


def test_blocks_change_no_result_on_the_corpus_families(registry):
    for fam in registry.families.values():
        _assert_blocks_change_no_result(fam)
        _assert_blocks_change_no_result(fam.reversed(), 37)
    # A family that fails keeps its failures and their certificates.
    ident = RationalBallMap.identity(2)
    shrinking = HomotopyFamily(2, 2, lambda ts: [apply_linear((1.0 - 0.5 * t) * np.eye(2), ident)
                                                 for t in ts.tolist()], ident, ident)
    assert len(_assert_blocks_change_no_result(shrinking, 11).properness_failures) == 10


def test_whitney_reduction_has_no_jump():
    # Between the grid points of a continuous family the largest step falls
    # with the spacing, here 20 times; a piece that ended at the wrong map
    # would leave a step that no grid makes smaller.
    for n, length, seed in ((2, 4, 5), (3, 3, 11), (2, 3, 12)):
        fam = _random_whitney_family(n, length, seed)
        coarse = verify_family(fam, grid_size=101).max_coefficient_step
        fine = verify_family(fam, grid_size=2001).max_coefficient_step
        assert fine < 0.4 * coarse


def test_family_grid_passes_its_checks_on_twelve_seeds(monkeypatch):
    # The benchmark draws a family-grid pass per seed; a failed check at one
    # seed fails the whole benchmark run.
    workloads = bench_module("workloads", monkeypatch)
    for seed in range(1, 13):
        for op in workloads.family_grid(seed):
            assert op.check(op.run()) == [], (seed, op.id)


def test_report_times_evaluation_and_certification(rng):
    _, fam = _whitney_family(2, 2, rng)
    start = time.perf_counter()
    report = verify_family(fam)
    wall = time.perf_counter() - start
    timings = report.timings
    assert set(timings) == {"evaluate_s", "certify_s", "rank_s", "denominator_s"}
    assert min(timings.values()) >= 0.0
    # The ranks and the denominators are phases of the certification.
    assert timings["evaluate_s"] + timings["certify_s"] <= wall
    assert timings["rank_s"] + timings["denominator_s"] <= timings["certify_s"]
    assert report.to_dict()["timings"] == timings


# --------------------------------------------------------------- generators
def _root(t, top=1.0):
    return math.sqrt(max(0.0, top - t * t))


def _collapse_reference(components, scaled, free):
    """Member at t of ``collapse_to_linear`` of a map that one lowering step
    takes to a linear map A z: on [0, 1/2) the ``scaled`` components times
    lambda = 1 - 2t and the ``free`` one times sqrt(1 - lambda^2), then the
    unitary path U(2t - 1) to [A, A_perp]^H, which takes A z to the identity."""
    n, dim = components[0].nvars, len(components)
    end = [Polynomial(n, {}) if i in scaled else c for i, c in enumerate(components)]
    linear = np.array([[c.terms.get(tuple(int(k == j) for k in range(n)), 0.0)
                        for j in range(n)] for c in end], dtype=complex)
    path = UnitaryPath(np.hstack([linear, _linalg.gram_schmidt_complement(linear)]).conj().T)

    def member(t):
        piece = min(int(t * 2), 1)
        local = t * 2 - piece
        if piece == 0:
            lam = 1.0 - local
            weights = [lam if i in scaled else _root(lam) if i == free else 1.0
                       for i in range(dim)]
            return RationalBallMap(n, dim, [ref.mul(c, wt) for c, wt in zip(components, weights)])
        u = path(local)
        return RationalBallMap(n, dim, [ref.add(Polynomial(n, {}), *[ref.mul(c, u[i, k])
                                                                     for k, c in enumerate(end)])
                                        for i in range(dim)])

    return member


def _closed_forms(registry):
    """(family, member at t): each built-in family and its docstring formula,
    built one t at a time from term-dict products (``polyref``)."""
    z, w = ref.var(2, 0), ref.var(2, 1)
    mul = ref.mul
    fams, faran = faran_families(), faran_maps()
    h, phi = faran["h"], faran["phi"]

    def drop(t):
        u, v = ref.sub(mul(z, t), mul(w, w, _root(t))), ref.add(mul(z, _root(t)), mul(w, w, t))
        return RationalBallMap(2, 5, [u, mul(z, w), mul(u, v), mul(z, w, v), mul(v, v)])

    z1, z2, z3 = (ref.var(3, j) for j in range(3))
    return [
        (fams["fg"], lambda t: RationalBallMap(2, 4, [mul(z, _root(t)), mul(z, z, t),
                                                      mul(z, w, t), w])),
        (fams["gh"], lambda t: RationalBallMap(2, 4, [mul(z, z), mul(z, w, _root(t, 2.0)),
                                                      mul(w, t), mul(w, w, _root(t))])),
        (fams["hphi"], lambda t: RationalBallMap(2, 5, [mul(z, z, t), mul(w, w, t),
                                                        mul(ref.power(z, 3), _root(t)),
                                                        mul(ref.power(w, 3), _root(t)),
                                                        mul(z, w, _root(t, 3.0))])),
        (degree_drop_family(), drop),
        (juxtaposition_family(h, phi), lambda t: RationalBallMap(
            2, 6, [mul(c, phi.q, _root(t)) for c in h.p] + [mul(c, h.q, t) for c in phi.p],
            mul(h.q, phi.q))),
        (collapse_to_linear(registry.maps["ex2.1.h"]),
         _collapse_reference([z, mul(z, w), mul(w, w), w], {1, 2}, 3)),
        (collapse_to_linear(registry.maps["whitney.W"]),
         _collapse_reference([z1, z2, mul(z1, z3), mul(z2, z3), mul(z3, z3), z3], {2, 3, 4}, 5)),
    ]


def _assert_canonical(m):
    support = list(m.support)
    assert support == sorted(set(support), reverse=True)
    assert support[-1] == (0,) * m.n
    assert (m.coefficients != 0).any(axis=0).all()


def test_built_in_members_equal_their_closed_forms(registry):
    grid = [i / 100 for i in range(101)]
    for fam, formula in _closed_forms(registry):
        for t, m in zip(grid, fam.evaluate_many(grid), strict=True):
            expected = formula(t)
            _assert_canonical(m)
            assert (m.N, m.support) == (expected.N, expected.support)
            assert np.array_equal(m.coefficients, expected.coefficients)
            assert np.array_equal(m.factors, expected.factors)
    # Blaschke members: the chain of factor products rounds the numerator
    # differently from prod (z - a) built term by term.
    b = BlaschkeProduct(0.7, [0.3, -0.5j, 0.1 + 0.2j, -0.6 + 0.25j, 0.45])
    z = ref.var(1, 0)
    for t, m in zip(grid, blaschke_homotopy(b).evaluate_many(grid), strict=True):
        zeros = [(1.0 - t) * a for a in b.zeros]
        p = Polynomial(1, {(0,): cmath.exp(1j * (1.0 - t) * b.theta)})
        q = Polynomial(1, {(0,): 1.0})
        for a in zeros:
            p, q = ref.mul(p, ref.sub(z, a)), ref.mul(q, ref.add(ref.mul(z, -a.conjugate()), 1.0))
        expected = RationalBallMap(1, 1, [p], q)
        _assert_canonical(m)
        assert m.support == expected.support
        assert np.array_equal(m.factors, np.array(zeros)[:, None])
        gap = np.abs(m.coefficients - expected.coefficients).max(axis=1)
        assert np.all(gap <= 1e-15 * np.abs(expected.coefficients).max(axis=1))


def test_degree_drop_family_profile():
    fam = degree_drop_family()
    report = verify_family(fam, grid_size=21)
    assert report.passed
    assert report.degrees[0] == 3
    assert set(report.degrees[1:]) == {4}
    assert set(report.embedding_dimensions) == {5}


def test_degree_drop_endpoints_are_the_named_maps():
    fam = degree_drop_family()
    quartic = RationalBallMap(2, 5, [Polynomial(2, {alpha: 1.0}) for alpha in
                                     ((1, 0), (1, 1), (1, 2), (1, 3), (0, 4))])
    cubic = RationalBallMap(2, 5, [Polynomial(2, {alpha: c}) for alpha, c in
                                   (((0, 2), -1.0), ((1, 1), 1.0), ((1, 2), -1.0),
                                    ((2, 1), 1.0), ((2, 0), 1.0))])
    assert fam.evaluate(1.0).allclose(quartic, 1e-12)
    assert fam.evaluate(0.0).allclose(cubic, 1e-12)


def test_blaschke_homotopy_contracts_to_monomial():
    b = BlaschkeProduct(0.7, [0.3, -0.5j, 0.1 + 0.2j])
    fam = blaschke_homotopy(b)
    report = verify_family(fam, grid_size=11)
    assert report.passed
    assert fam.evaluate(0.0).allclose(blaschke_map(b))
    assert ref.distance(fam.evaluate(1.0).p[0], Polynomial(1, {(3,): 1.0})) <= DEFAULT_TOL
    for k in range(11):
        assert winding_degree(fam.evaluate(k / 10)) == 3


def test_blaschke_product_with_a_repeated_zero():
    # The repeated zero is one factor squared, (1 - 0.3 z)^2, in closed form.
    b = BlaschkeProduct(0.0, [0.3, 0.3, -0.2j])
    m = blaschke_map(b)
    z = Polynomial(1, {(1,): 1.0})
    expected = ref.mul(ref.power(ref.sub(1.0, ref.mul(z, 0.3)), 2), ref.sub(1.0, ref.mul(z, 0.2j)))
    assert ref.distance(m.q, expected) <= 1e-15
    cert = certify_proper(m)
    assert cert.verdict is Verdict.PROPER
    assert cert.denominator_method == "factored"
    assert cert.denominator_margin == pytest.approx(0.7 * 0.7 * 0.8, abs=1e-15)
    assert winding_degree(m) == 3
    fam = blaschke_homotopy(b)
    assert verify_family(fam, grid_size=11).passed
    for k in range(11):
        assert winding_degree(fam.evaluate(k / 10)) == 3


def test_blaschke_homotopy_single_zero_at_origin_is_constant():
    fam = blaschke_homotopy(BlaschkeProduct(0.0, [0.0]))
    for t in (0.0, 0.5, 1.0):
        assert ref.distance(fam.evaluate(t).p[0], Polynomial(1, {(1,): 1.0})) <= DEFAULT_TOL


def test_blaschke_homotopy_rejects_empty_product():
    with pytest.raises(ValueError):
        blaschke_homotopy(BlaschkeProduct(math.pi, []))


def test_faran_families_dimensions_and_endpoints():
    fams = faran_families()
    maps = faran_maps()
    assert fams["fg"].target_dim == 4
    assert fams["gh"].target_dim == 4
    assert fams["hphi"].target_dim == 5
    pairs = {"fg": ("f", "g"), "gh": ("h", "g"), "hphi": ("phi", "h")}
    for key, (left, right) in pairs.items():
        fam = fams[key]
        assert norm_equivalent(fam.evaluate(0.0), maps[left]).equivalent
        assert norm_equivalent(fam.evaluate(1.0), maps[right]).equivalent
        assert verify_family(fam, grid_size=21).passed
    # At t = 1 the second family lands exactly on (z^2, zw, w, 0).
    end = fams["gh"].evaluate(1.0)
    comps = [Polynomial(2, {alpha: 1.0}) for alpha in ((2, 0), (1, 1), (0, 1))]
    assert end.allclose(RationalBallMap(2, 4, [*comps, Polynomial(2, {})]), 1e-12)


def test_constant_identity_contraction():
    fam = automorphism_contraction(BallAutomorphism.identity(2))
    for t in (0.0, 0.37, 1.0):
        assert fam.evaluate(t).allclose(RationalBallMap.identity(2))


def test_random_automorphism_contraction(rng):
    phi = random_ball_automorphism(3, rng)
    fam = automorphism_contraction(phi)
    report = verify_family(fam, grid_size=21)
    assert report.passed
    assert max(report.degrees) <= 1
    assert fam.evaluate(0.0).allclose(automorphism_map(phi), 1e-9)
    assert fam.evaluate(1.0).allclose(RationalBallMap.identity(3), 1e-9)


def test_contraction_accepts_degree_one_proper_map(rng):
    phi = random_ball_automorphism(2, rng)
    fam = automorphism_contraction(automorphism_map(phi))
    assert verify_family(fam, grid_size=7).passed
    with pytest.raises(ValueError):
        automorphism_contraction(quadric_three_map())


# ------------------------------------------------------------- concatenation
def test_concat_inserts_unitary_bridge():
    h = quadric_three_map()
    u = np.diag([1j, -1.0, 1.0])
    rotated = constant_family(
        RationalBallMap(2, 3, [ref.mul(comp, c) for comp, c in zip(h.p, np.diag(u))]))
    fam = concat_families([constant_family(h), rotated])
    report = verify_family(fam, grid_size=9)
    assert report.passed


def test_concat_rejects_inequivalent_junction():
    maps = faran_maps()
    with pytest.raises(EndpointMismatchError):
        concat_families([constant_family(maps["f"]), constant_family(maps["phi"])])


# --------------------------------------------------- reduction to a monomial
def test_automorphism_term_reduces_to_identity(rng):
    term = whitney_start(random_ball_automorphism(2, rng))
    fam = homotopy_to_monomial(term)
    assert fam.endpoint_right.allclose(RationalBallMap.identity(2))
    assert verify_family(fam, grid_size=21).passed


def test_monomial_term_yields_constant_tail():
    term = whitney_start(BallAutomorphism.identity(2))
    term = whitney_extend(term, np.array([1]))
    fam = homotopy_to_monomial(term)
    assert fam.endpoint_right.allclose(term.map)
    report = verify_family(fam, grid_size=11)
    assert report.passed
    assert report.max_coefficient_step < 1e-12  # nothing moves


def test_three_step_term_reaches_degree_four_monomial(rng):
    term = whitney_start(random_ball_automorphism(2, rng))
    for step in range(3):
        d = int(rng.integers(1, term.map.N + 1))
        idx = np.sort(rng.choice(term.map.N, size=d, replace=False))
        term = whitney_extend(term, idx, random_ball_automorphism(2, rng))
    fam = homotopy_to_monomial(term)
    end = fam.endpoint_right
    assert end.is_monomial_map
    assert all(len(comp.terms) == 1 for comp in end.p)
    assert degree(end) == 4
    assert verify_family(fam, grid_size=31).passed


@pytest.mark.parametrize("injected", [False, True])
def test_a_stage_makes_one_tensor_step_with_or_without_an_injection(injected, rng):
    # Building the family evaluates the stage's segment at its two ends, in
    # one tensor step; the injection's bridge starts from the next monomial
    # map padded by zeros and tensors nothing.
    term = whitney_start(BallAutomorphism.identity(2))
    injection = None
    if injected:
        injection, _ = np.linalg.qr(rng.standard_normal((4, 3))
                                    + 1j * rng.standard_normal((4, 3)))
    term = whitney_extend(term, np.array([1]), injection=injection)
    with mock.patch.object(homotopy, "_apply_step", wraps=homotopy._apply_step) as steps:
        fam = homotopy_to_monomial(term)
    assert steps.call_count == 1
    assert verify_family(fam, grid_size=11).passed


def test_built_in_junctions_search_for_no_witness(registry, rng):
    # Each unitary where the reduction's pieces meet comes from the
    # construction, so building a family compares no two maps.
    with mock.patch.object(homotopy, "norm_equivalent", wraps=norm_equivalent) as searches:
        term, _ = _whitney_family(2, 4, rng)
        _random_whitney_family(3, 3, 331)
        collapse_to_linear(registry.maps["ex2.1.h"])
        collapse_to_linear(registry.maps["whitney.W"])
    assert sum(step.injection is not None for step in term.steps) == 2
    assert searches.call_count == 0


def test_a_step_keeps_its_own_basis_and_injection(rng):
    # Writing into the arrays passed to whitney_extend changes neither the
    # reduction family of the term nor its report.
    term = whitney_start(random_ball_automorphism(2, rng))
    basis, _ = np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))
    injection, _ = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    term = whitney_extend(term, basis, random_ball_automorphism(2, rng), injection=injection)
    grid = [i / 20 for i in range(21)]
    before = [m.coefficients.tobytes() for m in homotopy_to_monomial(term).evaluate_many(grid)]
    report = verify_family(homotopy_to_monomial(term), grid_size=21)
    basis[:], injection[:] = 5.0, 5.0
    step = term.steps[0]
    assert not step.basis.flags.writeable and not step.injection.flags.writeable
    fam = homotopy_to_monomial(term)
    assert [m.coefficients.tobytes() for m in fam.evaluate_many(grid)] == before
    again = verify_family(fam, grid_size=21)
    assert report.passed
    assert {**again.to_dict(), "timings": None} == {**report.to_dict(), "timings": None}


def test_reduction_handles_non_canonical_subspace_and_injection(rng):
    term = whitney_start(random_ball_automorphism(2, rng))
    q, _ = np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))
    iso = np.zeros((4, 3), dtype=complex)
    iso[0, 0] = iso[1, 1] = 1.0
    iso[2, 2] = iso[3, 2] = 1.0 / math.sqrt(2.0)
    term = whitney_extend(term, q, random_ball_automorphism(2, rng), injection=iso)
    fam = homotopy_to_monomial(term)
    end = fam.endpoint_right
    assert end.is_monomial_map and degree(end) == 2
    assert verify_family(fam, grid_size=21).passed


# ------------------------------------------------------------ degree lowering
def test_collapse_identity_is_trivial():
    fam = collapse_to_linear(RationalBallMap.identity(2))
    assert fam.target_dim == 3
    report = verify_family(fam, grid_size=5)
    assert report.passed
    assert report.max_coefficient_step < 1e-12


def test_collapse_degree_two_triple():
    fam = collapse_to_linear(quadric_three_map())
    assert fam.target_dim == 4
    report = verify_family(fam, grid_size=21)
    assert report.passed
    end = fam.evaluate(1.0)
    assert norm_equivalent(end, RationalBallMap.identity(2)).equivalent


def test_collapse_monomial_power_in_one_variable():
    m = RationalBallMap(1, 1, [Polynomial(1, {(4,): 1.0})])
    fam = collapse_to_linear(m)
    assert fam.target_dim == 2
    assert verify_family(fam, grid_size=21).passed
    assert norm_equivalent(fam.evaluate(1.0),
                           RationalBallMap.identity(1)).equivalent


def test_collapse_rejects_cubic_invariant_map():
    with pytest.raises(NotTensorImageError):
        collapse_to_linear(faran_maps()["phi"])


# Each map is a monomial map outside the iterated tensor image, with the
# message that names what the degree lowering found missing.
COLLAPSE_REJECTIONS = {
    "missing-sibling": ([Polynomial(2, {(3, 0): 1.0}), Polynomial(2, {(1, 1): math.sqrt(3)}),
                         Polynomial(2, {(0, 3): 1.0})],
                        "missing sibling component for monomial (1, 2)"),
    "unequal-siblings": ([Polynomial(2, {(2, 0): 1.0}), Polynomial(2, {(1, 1): 2.0}),
                          Polynomial(2, {(0, 1): 1.0})],
                         "sibling components have unequal coefficients at (2, 0) "
                         "((1+0j) vs (2+0j))"),
    # The two holders of w^2 differ; the first one's coefficient is the one
    # tried, and no other holder is.
    "first-holder-unequal": ([Polynomial(2, {(0, 2): 0.3}), Polynomial(2, {(0, 2): 0.4}),
                              Polynomial(2, {(1, 1): 0.4}), Polynomial(2, {(1, 0): 1.0})],
                             "sibling components have unequal coefficients at (1, 1) "
                             "((0.4+0j) vs (0.3+0j))"),
    "constant-component": ([Polynomial(2, {(2, 0): 1.0}), Polynomial(2, {(1, 1): 1.0}),
                            Polynomial(2, {(0, 1): 1.0}), Polynomial(2, {(0, 0): 0.5})],
                           "a constant component obstructs reduction to the identity"),
    "non-unitary-linear-end": ([Polynomial(2, {(1, 0): 2.0}), Polynomial(2, {(0, 1): 1.0})],
                               "reduced linear map is not a unitary image of the identity"),
}


@pytest.mark.parametrize("case", sorted(COLLAPSE_REJECTIONS))
def test_collapse_names_why_a_map_is_no_tensor_image(case):
    components, message = COLLAPSE_REJECTIONS[case]
    with pytest.raises(NotTensorImageError) as caught:
        collapse_to_linear(RationalBallMap(2, len(components), components))
    assert str(caught.value) == message


def test_collapse_requires_monomial_input():
    with pytest.raises(ValueError):
        collapse_to_linear(faran_maps()["f"] if False else
                           RationalBallMap(2, 1, [Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})]))


def test_collapse_of_reduction_endpoint(rng):
    # Chain the two constructions: a random term's monomial endpoint is a
    # tensor image, so the degree-lowering family applies to it.
    term = whitney_start(BallAutomorphism.identity(2))
    term = whitney_extend(term, np.array([0]))
    term = whitney_extend(term, np.array([1, 2]))
    end = homotopy_to_monomial(term).endpoint_right
    fam = collapse_to_linear(end)
    assert verify_family(fam, grid_size=21).passed

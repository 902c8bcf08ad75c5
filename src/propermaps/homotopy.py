"""Homotopy families of proper ball maps: contract, verification, generators.

A family is an evaluator, which takes an array of parameters in [0, 1] and
returns the maps there, together with endpoint maps.  Endpoint agreement is
always up to zero-padding and a target unitary, which is the right notion
when targets of different dimensions are compared.
Verification samples the parameter interval, certifies properness at every
grid point, and tracks degree and embedding-dimension profiles plus the
largest coefficient increment between adjacent samples.

Families are concatenated by piecewise-linear reparameterization; junctions
must agree, or be norm-equivalent and get a unitary path to the witness
spliced in (the unitary group is path connected, so this stays inside
proper maps).  The built-in reductions search for no witness: they complete
isometries of their construction to the unitaries of their junctions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _linalg
from . import ballmaps as _bm
from .ballmaps import (DEFAULT_SEED, DimensionMismatchError, RationalBallMap, Verdict,
                       apply_linear, norm_equivalent)
from .bounds import DEFAULT_TOL, ENDPOINT_TOL_FACTOR, JUNCTION_TOL
from .constructors import (BallAutomorphism, BlaschkeProduct, WhitneyTerm,
                           automorphism_from_map, automorphism_map, blaschke_map,
                           _apply_step, _automorphism_maps, _blaschke_maps, _diagonals,
                           _inject, _juxtaposition_path, _root, _tensor_in_frame)

class EndpointMismatchError(ValueError):
    """A family endpoint does not match the declared map up to unitary and padding."""


class NotTensorImageError(ValueError):
    """The monomial map is not an iterated tensor image (missing or unequal siblings)."""


#: Parameters that one evaluator call takes (see ``HomotopyFamily``).  The
#: stacks that evaluation builds grow with it, so it bounds their memory as
#: ``ballmaps.BLOCK_ENTRIES`` bounds certification's.  It is at least the
#: 101 points of ``verify_family``'s default grid, which is then one call:
#: the seven family-grid families' 101-point pass took 49.7 ms with 128 and
#: with no chunks, and 51.6 ms with 64.  A 2,001-point grid of the n = 3,
#: length-3 family-grid family peaked at 52.6 MB traced in one call, 8.4 MB
#: with 128 and 4.5 MB with 64 (x86-64, numpy 2.4).
GRID_CHUNK = 128


@dataclass(frozen=True)
class HomotopyFamily:
    """Continuous family of proper maps from B_n into B_M.

    ``evaluator`` takes a 1-D array of parameters in [0, 1] and returns the
    members at them in order, as an iterable that may build them lazily, so
    that an error for a member comes at that member's turn.  Each member is
    a proper map with target dimension at most M; ``evaluate_many`` pads them
    to exactly M components, and ``evaluate`` is its block of one.  Built-in
    families return the blocks of one stacked kernel call (``ballmaps._Block``:
    consecutive members as one array of rows, each built only when it is
    read), which the iterable may mix with loose maps; a family of a
    function fn of one t passes ``lambda ts: [fn(t) for t in ts.tolist()]``.
    ``evaluate(0)`` and ``evaluate(1)`` are norm-equivalent to the declared
    endpoints padded by zeros.
    """

    domain_dim: int
    target_dim: int
    evaluator: Callable[[np.ndarray], Iterable[RationalBallMap]]
    endpoint_left: RationalBallMap
    endpoint_right: RationalBallMap

    def evaluate_many(self, ts) -> Iterator[RationalBallMap]:
        """The members at the parameters ``ts``, in order; the evaluator takes
        them in blocks of at most GRID_CHUNK consecutive parameters."""
        return _bm._members(self._evaluate(ts))

    def _evaluate(self, ts) -> Iterator:
        """``evaluate_many`` as the evaluator returns it: its blocks and loose
        maps, each padded to the target dimension."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if not np.all((ts >= 0.0) & (ts <= 1.0)):
            raise ValueError("family parameter must lie in [0, 1]")
        return (item.padded(self.target_dim)
                for start in range(0, len(ts), GRID_CHUNK)
                for item in self.evaluator(ts[start:start + GRID_CHUNK]))

    def evaluate(self, t: float) -> RationalBallMap:
        return next(self.evaluate_many([t]))

    def reversed(self) -> "HomotopyFamily":
        return HomotopyFamily(self.domain_dim, self.target_dim,
                              lambda ts: self.evaluator(1.0 - ts),
                              self.endpoint_right, self.endpoint_left)


def _segment(domain_dim: int, evaluator) -> HomotopyFamily:
    """The family of ``evaluator`` with its maps at 0 and 1 as endpoints.

    Each endpoint is built once: evaluating the family there returns it, so
    splicing a junction in ``concat_families`` and the grid points on it
    reuse the map instead of building it again.  Both come from one
    evaluator call.  Each run of consecutive parameters between them goes
    to one evaluator call, whose blocks pass on as they come.
    """
    left, right = _bm._members(evaluator(np.array([0.0, 1.0])))
    if left.N != right.N:
        raise DimensionMismatchError("segment endpoints disagree in target dimension")

    def at(ts: np.ndarray) -> Iterator:
        ends = (ts == 0.0) | (ts == 1.0)
        cuts = [0, *(np.flatnonzero(ends[1:] != ends[:-1]) + 1).tolist(), len(ts)]
        for lo, hi in zip(cuts, cuts[1:]):
            if ends[lo:hi].all():
                yield from (left if t == 0.0 else right for t in ts[lo:hi].tolist())
            else:
                yield from evaluator(ts[lo:hi])

    return HomotopyFamily(domain_dim, left.N, at, left, right)


def constant_family(m: RationalBallMap) -> HomotopyFamily:
    return HomotopyFamily(m.n, m.N, lambda ts: [m] * len(ts), m, m)


def unitary_bridge_family(m: RationalBallMap, unitary: np.ndarray) -> HomotopyFamily:
    """Family t -> U(t) m along a unitary path from the identity to ``unitary``."""
    path, block = _linalg.UnitaryPath(unitary), _bm._Block.of(m)
    return _segment(m.n, lambda ts: _bm._apply_linear_run(path(ts), block))


def concat_families(segments: Sequence[HomotopyFamily]) -> HomotopyFamily:
    """Concatenate families, splicing unitary bridges at norm-equivalent junctions.

    Piece k of the k = 0, ..., K-1 pieces runs over [k/K, (k+1)/K); a grid
    goes to each piece as one block of the consecutive parameters on it.
    """
    segs = list(segments)
    if not segs:
        raise ValueError("need at least one segment")
    n = segs[0].domain_dim
    if any(s.domain_dim != n for s in segs):
        raise DimensionMismatchError("segments must share the domain dimension")
    big = max(s.target_dim for s in segs)

    pieces: list[HomotopyFamily] = [segs[0]]
    for nxt in segs[1:]:
        end, start = pieces[-1].evaluate(1.0).padded(big), nxt.evaluate(0.0).padded(big)
        if not end.allclose(start, JUNCTION_TOL):
            witness = norm_equivalent(end, start, tol=JUNCTION_TOL)
            if not witness.equivalent:
                raise EndpointMismatchError(
                    "junction maps are not norm-equivalent; cannot concatenate")
            pieces.append(unitary_bridge_family(end, witness.unitary))
        pieces.append(nxt)

    count = len(pieces)

    def evaluator(ts: np.ndarray) -> Iterator[RationalBallMap]:
        # t = 1 is the end of the last piece: x - idx is then exactly 1.
        x = ts * count
        idx = np.minimum(x.astype(int), count - 1)
        local = x - idx
        starts = np.flatnonzero(np.diff(idx, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(ts)]):
            yield from pieces[idx[lo]]._evaluate(local[lo:hi])

    return HomotopyFamily(n, big, evaluator, segs[0].endpoint_left, segs[-1].endpoint_right)


# ------------------------------------------------------------------ verification
@dataclass
class FamilyReport:
    """Grid verification record for a homotopy family.

    ``max_coefficient_step`` is the largest coefficient distance between
    adjacent grid members, and ``t_at_max_coefficient_step`` the grid point
    that ends the first such step.  ``timings`` holds the seconds spent
    evaluating the grid (``evaluate_s``) and certifying it (``certify_s``),
    and two phases of the certification: the embedding dimensions
    (``rank_s``) and the denominator checks (``denominator_s``).
    """

    grid: list
    degrees: list
    embedding_dimensions: list
    residuals: list
    properness_failures: list
    endpoint_left_ok: bool
    endpoint_right_ok: bool
    max_coefficient_step: float
    t_at_max_coefficient_step: float
    target_dim: int = 0
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def t_at_max_residual(self) -> float:
        """The first grid point whose residual is the largest."""
        return self.grid[self.residuals.index(self.max_residual)]

    @property
    def passed(self) -> bool:
        return (not self.properness_failures and self.endpoint_left_ok
                and self.endpoint_right_ok)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "grid_size": len(self.grid),
            "target_dim": self.target_dim,
            "degrees": self.degrees,
            "embedding_dimensions": self.embedding_dimensions,
            "max_residual": self.max_residual,
            "t_at_max_residual": self.t_at_max_residual,
            "max_coefficient_step": self.max_coefficient_step,
            "t_at_max_coefficient_step": self.t_at_max_coefficient_step,
            "properness_failures": [
                {"t": t, "verdict": cert.verdict.value,
                 "residual": cert.residual_norm}
                for t, cert in self.properness_failures],
            "endpoint_left_ok": self.endpoint_left_ok,
            "endpoint_right_ok": self.endpoint_right_ok,
            "timings": self.timings,
        }

    def summary(self) -> str:
        lines = [f"grid={len(self.grid)} target_dim={self.target_dim} "
                 f"passed={self.passed}",
                 f"degree profile: {sorted(set(self.degrees))} "
                 f"embdim profile: {sorted(set(self.embedding_dimensions))}",
                 f"max residual: {self.max_residual:.3e} "
                 f"at t={self.t_at_max_residual:.4f}; "
                 f"max coefficient step: {self.max_coefficient_step:.3e} "
                 f"at t={self.t_at_max_coefficient_step:.4f}"]
        for t, cert in self.properness_failures[:5]:
            lines.append(f"  failure at t={t:.4f}: {cert.verdict.value} "
                         f"residual={cert.residual_norm:.3e}")
        if not self.endpoint_left_ok:
            lines.append("  left endpoint mismatch")
        if not self.endpoint_right_ok:
            lines.append("  right endpoint mismatch")
        return "\n".join(lines)


def verify_family(family: HomotopyFamily, grid_size: int = 101,
                  tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> FamilyReport:
    """Certify a family on an equispaced grid and check its endpoints.

    Every sampled map is certified proper; degree and embedding-dimension
    profiles are recorded along with the largest coefficient increment
    between adjacent samples (an empirical continuity measure).  Endpoints
    are compared with the declared maps by norm equivalence after padding.
    Members that are not proper are recorded, never raised.  The sampled
    witness never decides a verdict; the certificates of the members that
    fail, which are the ones reported, sample it when it is first read.

    The grid is evaluated once and read block by block (see
    ``ballmaps._runs``), as the evaluator's blocks come, with no member
    built: each block is certified from its rows, the coefficient steps
    inside it are one array difference of its rows, and the step across two
    blocks is the distance of their boundary rows.  Only the first and last
    members are built, once, for the endpoint checks, and a failing member
    when its certificate's witness is read.  The results, and an error that
    certifying or evaluating a member raises, are those of certifying the
    members one by one in grid order.  ``timings`` sums, block by block, the
    time spent reading the evaluator and the time spent certifying, and,
    within the latter, the time spent on the ranks and on the denominators.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    ts = [i / (grid_size - 1) for i in range(grid_size)]
    grid = iter(ts)
    degrees, embdims, residuals, failures = [], [], [], []
    first = last = None
    max_step, t_step = 0.0, ts[1]
    timings = {"evaluate_s": 0.0, "certify_s": 0.0, "rank_s": 0.0, "denominator_s": 0.0}
    clock = time.perf_counter()
    for block in _bm._runs(family._evaluate(ts)):
        now = time.perf_counter()
        timings["evaluate_s"] += now - clock
        rows = block.rows
        gaps = rows[:-1] - rows[1:]
        # The first member of the grid has no step; 0.0 never beats max_step.
        steps = [0.0 if last is None else _bm._distance((last.support, last.rows[-1]),
                                                        (block.support, rows[0]))]
        steps += np.hypot(gaps.real, gaps.imag).max(axis=(1, 2)).tolist()
        results = _bm._certify_run(block, tol, seed, timings)
        # steps, one per member, comes first, so zip takes no t past the block.
        for step, t, (cert, deg, embdim) in zip(steps, grid, results):
            degrees.append(deg)
            embdims.append(embdim)
            residuals.append(cert.residual_norm)
            if cert.verdict is not Verdict.PROPER:
                failures.append((t, cert))
            if step > max_step:
                max_step, t_step = step, t
        first = block[0] if first is None else first
        last = block
        clock = time.perf_counter()
        timings["certify_s"] += clock - now
    timings["evaluate_s"] += time.perf_counter() - clock

    endpoint_tol = ENDPOINT_TOL_FACTOR * tol
    left_ok = norm_equivalent(first, family.endpoint_left,
                              tol=endpoint_tol).equivalent
    right_ok = norm_equivalent(last[-1], family.endpoint_right,
                               tol=endpoint_tol).equivalent
    return FamilyReport(ts, degrees, embdims, residuals, failures,
                        left_ok, right_ok, max_step, t_step, family.target_dim, timings)


# -------------------------------------------------------------------- generators
def juxtaposition_family(f: RationalBallMap, g: RationalBallMap) -> HomotopyFamily:
    """The family sqrt(1-t^2) f + t g connecting f + 0 and 0 + g."""
    return HomotopyFamily(f.n, f.N + g.N, _juxtaposition_path(f, g), f, g)


def _monomial_map(n: int, exponents, coefficients: np.ndarray) -> RationalBallMap:
    """The map with q = 1 whose component i is coefficients[i] z^exponents[i],
    zero where the coefficient is, over the descending support of the live
    exponents and the constant monomial."""
    slots = np.flatnonzero(coefficients)
    live = list(map(tuple, np.reshape(exponents, (-1, n))[slots].tolist()))
    support = sorted({*live, (0,) * n}, reverse=True)
    index = {alpha: j for j, alpha in enumerate(support)}
    rows = np.zeros((len(coefficients) + 1, len(support)), dtype=complex)
    rows[slots, [index[alpha] for alpha in live]] = coefficients[slots]
    rows[-1, -1] = 1.0
    return RationalBallMap._from_rows(n, support, rows)


def blaschke_homotopy(b: BlaschkeProduct) -> HomotopyFamily:
    """Contract all zeros and the phase to 0: endpoints are the product and z^m."""
    if not b.zeros:
        raise ValueError("a product with no factors is constant, hence not proper")
    right = _monomial_map(1, [b.factor_count], np.ones(1))

    def evaluator(ts: np.ndarray) -> list:
        shrink = 1.0 - ts
        return _blaschke_maps(shrink * b.theta, shrink[:, None] * np.array(b.zeros))

    return HomotopyFamily(1, 1, evaluator, blaschke_map(b), right)


def automorphism_path(phi: BallAutomorphism) -> Callable[[np.ndarray], list]:
    """ts -> the blocks of the maps of the automorphisms with center (1-t) a
    and unitary part contracted to I, from one stack of centres and
    unitaries."""
    upath = _linalg.UnitaryPath(phi.U)

    def at(ts: np.ndarray) -> list:
        s = 1.0 - ts
        return _automorphism_maps(s[:, None] * phi.a, upath(s))

    return at


def automorphism_contraction(phi) -> HomotopyFamily:
    """Family joining an automorphism to the identity map.

    Accepts a BallAutomorphism, or an equidimensional degree-one proper map,
    which is recognized as an automorphism first.
    """
    if isinstance(phi, RationalBallMap):
        phi = automorphism_from_map(phi)
    left = automorphism_map(phi)
    right = RationalBallMap.identity(phi.dim)
    return HomotopyFamily(phi.dim, phi.dim, automorphism_path(phi), left, right)


def _linear_path(monos: Sequence[tuple], weights) -> Callable[[np.ndarray], list]:
    """ts -> the blocks of the maps W(t) R from one stacked ``apply_linear``
    product: R has the monomials ``monos`` as components, over a descending
    support, and ``weights`` maps the (T,) parameters to the (T, N, K)
    matrices W(t)."""
    rows = _bm._Block.of(_monomial_map(len(monos[0]), monos, np.ones(len(monos))))
    return lambda ts: _bm._apply_linear_run(weights(ts), rows)


def degree_drop_family() -> HomotopyFamily:
    """Built-in quartic/cubic family from B_2 to B_5 with a degree drop.

    With c = t and s = sqrt(1 - t^2) the member is

        (cz - sw^2, zw, (cz - sw^2)(sz + cw^2), zw (sz + cw^2), (sz + cw^2)^2).

    Every member is proper with embedding dimension 5; the degree is 4 on
    (0, 1] and drops to 3 at t = 0, so the degree is not a homotopy invariant.
    """
    monos = [(1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (0, 4), (2, 1), (1, 3)]

    def weights(ts: np.ndarray) -> np.ndarray:
        c, s = ts, _root(ts)
        o, one = np.zeros_like(ts), np.ones_like(ts)
        # Columns: z, w^2, zw, z^2, zw^2, w^4, z^2 w, zw^3.
        return np.array([[c, -s, o, o, o, o, o, o],
                         [o, o, one, o, o, o, o, o],
                         [o, o, o, c * s, c * c - s * s, -(c * s), o, o],
                         [o, o, o, o, o, o, s, c],
                         [o, o, o, s * s, 2 * s * c, c * c, o, o]]).transpose(2, 0, 1)

    return _segment(2, _linear_path(monos, weights))  # degree 3 at 0, 4 at 1


def faran_families() -> dict:
    """Explicit homotopies between Faran maps in target dimensions 4, 4, 5.

    Keys: "fg" joins f and g in dimension 4, "gh" joins h and g in
    dimension 4, "hphi" joins phi and h in dimension 5.  Endpoint order
    follows the evaluator: endpoint_left is the map at t = 0.  With
    s = sqrt(1 - t^2) the members are

        fg:   (s z, t z^2, t zw, w),
        gh:   (z^2, sqrt(2 - t^2) zw, t w, s w^2),
        hphi: (t z^2, t w^2, s z^3, s w^3, sqrt(3 - t^2) zw).
    """
    from .corpus import faran_maps
    maps = faran_maps()
    z, w, z2, zw, w2, z3, w3 = (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (0, 3)
    fg = _linear_path([z, z2, zw, w], lambda ts: _diagonals(_root(ts), ts, ts, 1.0))
    gh = _linear_path([z2, zw, w, w2],
                      lambda ts: _diagonals(1.0, _root(ts, 2.0), ts, _root(ts)))
    hphi = _linear_path([z2, w2, z3, w3, zw], lambda ts: _diagonals(
        ts, ts, _root(ts), _root(ts), _root(ts, 3.0)))
    return {
        "fg": HomotopyFamily(2, 4, fg, maps["f"], maps["g"]),
        "gh": HomotopyFamily(2, 4, gh, maps["h"], maps["g"]),
        "hphi": HomotopyFamily(2, 5, hphi, maps["phi"], maps["h"]),
    }


# ------------------------------------------------- reduction to a monomial map
def _monomial_slots(g: RationalBallMap, step) -> list:
    """The component slots in the order the next monomial map tensors them:
    first those whose monomials feed the tensor block (the basis columns'
    own slots when they are canonical vectors and one has top degree, else
    the first slot of top degree, so the degree goes up, and the next ones),
    then the rest in ascending order."""
    size, d = step.basis.shape
    # One slice per component; -1 marks a zero component.
    degrees = _bm._top_degrees(g.support, g.coefficients[:-1, None]).tolist()
    top_degree = max(degrees)
    canonical = np.abs(step.basis).argmax(axis=0).tolist()
    if (len(set(canonical)) == d and max(degrees[j] for j in canonical) == top_degree
            and np.array_equal(step.basis, np.eye(size)[:, canonical])):
        slots = canonical
    else:
        top = degrees.index(top_degree)
        pool = sorted((i for i in range(size) if i != top),
                      key=lambda i: (degrees[i] < 0, i))
        slots = [top] + pool[:d - 1]
    return slots + [i for i in range(size) if i not in slots]


def _monomial_stage(fam_prev: HomotopyFamily, g_map: RationalBallMap, step, n: int):
    """Lift the reduction family through one tensor step.

    Given a family joining F_k to the monomial map g = ``g_map`` (in the
    family's target, which is the step's basis rows), produce the family
    joining F_{k+1} to the next monomial map, and that map: contract the
    step's automorphism, push the previous family through the step to g
    tensored in the step's frame F, then tensor C(1 - t) P^H g in the
    identity frame, with P the monomial slots and C the path to F^H P, and
    through an injection J run the path to [J, J_perp] back from the next
    map padded by zeros.  Each path ends at s = 0 on it (see UnitaryPath).
    """
    g_block = _bm._Block.of(g_map)

    def stage(items: Iterable, start: Optional[_bm._Block] = None) -> Iterator:
        """The blocks of ``items`` through the step, block by block (see
        ``ballmaps._runs``): as the maps tensored, or as the domain factors
        of ``start``."""
        for run in _bm._runs(items):
            yield from (_apply_step(step, run, None) if start is None
                        else _apply_step(step, start, run))

    segments = []
    if step.phi is not None and not step.phi.is_identity:
        at, start = automorphism_path(step.phi), _bm._Block.of(fam_prev.evaluate(0.0))
        segments.append(_segment(n, lambda ts: stage(at(ts), start)))
    segments.append(_segment(n, lambda ts: stage(fam_prev._evaluate(ts))))

    eye, d = np.eye(g_map.N), step.basis.shape[1]
    perm = eye[:, _monomial_slots(g_map, step)]
    # F = P, so F^H P = I exactly, when the slots are the canonical basis's own.
    if not np.array_equal(step.frame, perm):
        path, coordinates = _linalg.UnitaryPath(step.frame.conj().T @ perm), perm.T

        def tail(ts: np.ndarray) -> Iterator:
            for run in _bm._runs(_bm._apply_linear_run(path(1.0 - ts) @ coordinates, g_block)):
                yield from _inject(step.injection, _tensor_in_frame(run, eye, d, None))

        segments.append(_segment(n, tail))

    # The next monomial map: each slot's monomial times z_1, ..., z_n, then
    # the rest, which is the tensor step in the frame of these slots.
    next_map = _tensor_in_frame(g_block, perm, d, None)[0][0]
    if step.injection is not None:
        next_map = next_map.padded(step.injection.shape[0])
        segments.append(unitary_bridge_family(next_map, step.injection_frame).reversed())

    return concat_families(segments), next_map


def homotopy_to_monomial(term: WhitneyTerm) -> HomotopyFamily:
    """Family joining a Whitney term to a monomial map of degree history+1.

    Follows the construction chain: the starting automorphism contracts to the
    identity; each tensor step is pushed through the previous family after
    contracting its automorphism; a unitary rotation keeps the tensored
    subspace on top-degree monomial slots, so the right endpoint is a monomial
    map whose degree is exactly the history length plus one.
    """
    n = term.map.n
    family = automorphism_contraction(term.start)
    g_map = RationalBallMap.identity(n)
    for step in term.steps:
        family, g_map = _monomial_stage(family, g_map, step, n)
    nonzero = np.abs(g_map.coefficients[:-1]).max(axis=1) > DEFAULT_TOL
    right = apply_linear(np.eye(g_map.N)[nonzero], g_map)
    return HomotopyFamily(n, family.target_dim, family.evaluator, term.map, right)


# ------------------------------------------------------- degree-lowering family
def collapse_to_linear(source) -> HomotopyFamily:
    """Reduce a monomial tensor-image map to the identity in one extra dimension.

    Repeatedly takes the last top-degree monomial m (in descending monomial
    order), writes m = z_j q, checks that all sibling components z_1 q ... z_n q
    are present with a common coefficient, scales those by lambda while a new
    component sqrt(1 - lambda^2) q ramps up in a free slot, and ends the step
    with q replacing the whole block.  Iterating down to degree one yields a
    family in target dimension N + 1 ending at the identity injection.  The
    steps lower two arrays: each slot's one term as a row of exponents and a
    coefficient, which is zero for a free slot.

    Raises NotTensorImageError when the sibling structure is missing, which
    happens exactly for monomial maps outside the iterated tensor image.
    Duplicate monomials across slots are allowed; any slot with a matching
    coefficient qualifies as a sibling.
    """
    f = source.map if isinstance(source, WhitneyTerm) else source
    if not f.is_monomial_map:
        raise ValueError("degree lowering requires a monomial map with denominator 1")
    n, dim, eye = f.n, f.N + 1, np.eye(f.n, dtype=np.int64)
    # Each component's one term above DEFAULT_TOL; the source leaves a slot free.
    picked = np.abs(f.coefficients[:-1]).argmax(axis=1)
    terms = f.coefficients[np.arange(f.N), picked]
    exponents = np.vstack([np.array(f.support)[picked], np.zeros((1, n), dtype=np.int64)])
    coefficients = np.append(np.where(np.abs(terms) > DEFAULT_TOL, terms, 0.0), 0.0)
    segments = []

    while True:
        live = coefficients != 0
        degrees = np.where(live, exponents.sum(axis=1), -1)
        if degrees.max() < 2:
            break
        target = min(map(tuple, exponents[degrees == degrees.max()].tolist()))
        last = np.flatnonzero(target)[-1]
        # Row j is the sibling z_j q of z_last q = target; holds[j, i] says
        # that slot i holds it.
        siblings = target - eye[last] + eye
        holds = live & (exponents == siblings[:, None]).all(axis=2)

        # The first holder's coefficient: another's would leave the first without siblings.
        coefficient = coefficients[holds[last]].tolist()[0]
        gap = coefficients - coefficient
        matching = holds & (np.hypot(gap.real, gap.imag) <= DEFAULT_TOL)
        if not matching.any(axis=1).all():
            j = int(np.argmin(matching.any(axis=1)))
            sibling = tuple(siblings[j].tolist())
            if not holds[j].any():
                raise NotTensorImageError(f"missing sibling component for monomial {sibling}")
            raise NotTensorImageError(
                f"sibling components have unequal coefficients at {sibling} "
                f"({complex(coefficients[holds[j]][0])} vs {coefficient})")

        # A step fills a free slot with q and frees the n siblings; the
        # member scales the siblings by lambda = 1 - t and q by its ramp.
        scaled, free = matching.argmax(axis=1).tolist(), int(np.argmin(live))
        exponents[free], coefficients[free] = target - eye[last], coefficient
        start = _bm._Block.of(_monomial_map(n, exponents, coefficients))

        def members(ts: np.ndarray, start=start, scaled=scaled, free=free) -> list:
            lam = 1.0 - ts
            return _bm._apply_linear_run(_diagonals(
                *[lam if i in scaled else _root(lam) if i == free else 1.0
                  for i in range(dim)]), start)

        segments.append(_segment(n, members))
        coefficients[scaled] = 0.0

    if (exponents.sum(axis=1)[coefficients != 0] == 0).any():
        raise NotTensorImageError("a constant component obstructs reduction "
                                  "to the identity")

    # The reduced map is A z, row i of A the coefficient times e_j of slot
    # i; when A has orthonormal columns, [A, A_perp]^H takes it to identity.
    linear = exponents * coefficients[:, None]
    if not _linalg.has_orthonormal_columns(linear):
        raise NotTensorImageError("reduced linear map is not a unitary image of the identity")
    segments.append(unitary_bridge_family(_monomial_map(n, exponents, coefficients),
                                          _linalg.complete_unitary(linear).conj().T))
    family = concat_families(segments)
    return HomotopyFamily(n, dim, family.evaluator, f, RationalBallMap.identity(n))

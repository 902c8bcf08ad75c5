"""Plain numbers of the workbench, computed without numpy.

The default sampling seed, the table of every floating-point threshold the
workbench decides with, and the explicit bounds on the degree and the
coefficients of a proper map between balls.  The command line reads these
before it knows whether a command computes with a map, so this module
imports nothing beyond the standard library.
"""

from __future__ import annotations

import math

#: Fixed default seed for all pseudo-random sampling (reproducible runs).
DEFAULT_SEED = 7

#: Global comparison tolerance: coefficients within it count as equal/zero.
DEFAULT_TOL = 1e-9

#: ``--tol`` must lie below it: ``verify_family`` checks endpoints at
#: ENDPOINT_TOL_FACTOR times tol, which is 1 here, and at 1 norm equivalence
#: accepts every pair, since |G_ij| <= sqrt(H_ii H_jj).
MAX_TOL = 1e-3

#: Storage floor for sparse terms, well below the comparison tolerance so that
#: repeated products cannot accumulate dropped mass anywhere near it.
COEFFICIENT_FLOOR = 1e-14

#: Lower bound of |q| on the closed ball below which the denominator counts
#: as vanishing there.
DENOMINATOR_FLOOR = 1e-6

#: Relative singular-value threshold shared by rank and nullspace computations.
RANK_RTOL = 1e-10

#: A slice X, oriented so that it is r x c with r <= c (the conjugate
#: transpose has the same singular values) and scaled by the power of two
#: that puts its largest real or imaginary part in [1/2, 1), has full rank r
#: when its Gram matrix G = X X^H less GRAM_RTOL * trace(G) on the diagonal
#: has a Cholesky factor, that is lambda_min(G) > GRAM_RTOL * trace(G).  In
#: floating point, forming G moves it by at most 2 (c + 2) eps ||X||_F^2 in
#: norm, shifting its diagonal by eps trace(G), and a Cholesky factorization
#: that succeeds is exact for a matrix within 4 (r + 1) eps trace(G) of the
#: one factored.  The test is used only while delta = 2 (c + 2 r + 5) eps <=
#: GRAM_RTOL / 4, which covers these errors and the rounding of the trace
#: together; then, as trace(G) = ||X||_F^2 >= sigma_1^2, sigma_r^2 =
#: lambda_min >= (GRAM_RTOL - 2 delta) trace(G) >= GRAM_RTOL / 2 *
#: sigma_1^2, so sigma_r / sigma_1 >= sqrt(GRAM_RTOL / 2), about 7e-5: far
#: above RANK_RTOL plus the SVD's own rounding, so the SVD would count r
#: singular values as well.  The scaling is exact but for entries that
#: underflow, which lie far below sigma_1 >= 1/2, and no Gram entry can
#: overflow.
GRAM_RTOL = 1e-8

ORTHONORMAL_TOL = 1e-8  #: largest entry of B^H B - I of orthonormal columns B
SPAN_TOL = 1e-8  #: smallest Gram-Schmidt residual norm kept as a new direction
UNITARY_PATH_TOL = 1e-6  #: largest entry of U^H U - I that ``UnitaryPath`` accepts
JUNCTION_TOL = 1e-6  #: ``concat_families``' splice distance and its bridge's equivalence tol
ENDPOINT_TOL_FACTOR = 1e3  #: ``verify_family`` checks endpoints at this times its tol
AUTOMORPHISM_FIT_TOL = 1e-5  #: largest residual of a map's fit as an automorphism
SPHERE_TOL = 1e-6  #: largest | ||a|| - 1 | of a point taken to lie on the unit sphere
WINDING_TOL = 1e-3  #: largest distance of a winding quadrature from its integer
POLE_TOL = 1e-8  #: |q| at or below it makes a point a pole
PRINT_REAL_TOL = 1e-12  #: largest imaginary part that a printed coefficient drops


def degree_bound(n: int, N: int):
    """Upper bound N(N-1) / (2(2n-3)), a ``Fraction``, for the degree of a proper
    map from B_n to B_N.  Raises ValueError unless N >= n >= 2: no proper map
    lowers the dimension."""
    from fractions import Fraction
    if n < 2:
        raise ValueError("the degree bound requires domain dimension n >= 2")
    if N < n:
        raise ValueError(f"no proper map from B{n} to B{N}: the target dimension "
                         "must be at least the domain dimension")
    return Fraction(N * (N - 1), 2 * (2 * n - 3))


def largest_binomial_coefficient(d: int) -> int:
    """max_k binomial(d, k), the one-variable denominator coefficient bound."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return math.comb(d, d // 2)


def denominator_sup_bound(d: int) -> float:
    """Bound for |q| on the ball: (d+1) times the largest binomial coefficient."""
    return float((d + 1) * largest_binomial_coefficient(d))


def coefficient_bound(n: int, d: int) -> float:
    """Explicit coefficient bound for normalized degree-d proper maps on B_n.

    Chain: one-variable factorization bounds the coefficients of q by the
    largest binomial coefficient; the homogeneous expansion gives
    |q| <= (d+1) B(1,d) on the ball, and ||p|| = |q| on the sphere; Cauchy
    estimates on the polydisc of radius 1/(2 sqrt(n)) inside the ball then
    bound every coefficient by the sup times (2 sqrt(n))^d.
    """
    if n < 1:
        raise ValueError("domain dimension must be positive")
    if d < 0:
        raise ValueError("degree must be non-negative")
    return denominator_sup_bound(d) * (2.0 * math.sqrt(n)) ** d

"""Plain numbers of the workbench, computed without numpy.

The default comparison tolerance and sampling seed, and the explicit bounds
on the degree and the coefficients of a proper map between balls.  The
command line reads these before it knows whether a command computes with a
map, so this module imports nothing beyond the standard library.
"""

from __future__ import annotations

import math

#: Global comparison tolerance: coefficients within it count as equal/zero.
DEFAULT_TOL = 1e-9

#: Fixed default seed for all pseudo-random sampling (reproducible runs).
DEFAULT_SEED = 7


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

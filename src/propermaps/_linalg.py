"""Dense linear-algebra helpers shared across modules (numpy backed)."""

from __future__ import annotations

import numpy as np

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


def _gram_ranks(stack: np.ndarray) -> np.ndarray:
    """For each slice of a (T, r, c) stack, min(r, c) when the Cholesky test
    on its smaller Gram matrix shows full rank (see GRAM_RTOL), and -1 when
    it cannot decide: a slice that is zero or not finite, and every slice of
    a stack in which one fails the test, since one failure fails the stack's
    factorization."""
    ranks = np.full(len(stack), -1)
    small, large = sorted(stack.shape[1:])
    if 2 * (large + 2 * small + 5) * np.finfo(float).eps > GRAM_RTOL / 4:
        return ranks
    # Each complex entry as two floats; the largest of them is within a
    # factor sqrt(2) of the largest |entry|, with no modulus to overflow.
    parts = np.ascontiguousarray(stack).view(float)
    peak = np.abs(parts).max(axis=(1, 2))
    live = np.flatnonzero(np.isfinite(peak) & (peak > 0.0))
    if not len(live):
        return ranks
    x = np.ldexp(parts[live], -np.frexp(peak[live])[1][:, None, None]).view(complex)
    xh = x.conj().swapaxes(1, 2)
    gram = x @ xh if stack.shape[1] <= stack.shape[2] else xh @ x
    diagonal = np.arange(small)
    gram[:, diagonal, diagonal] -= GRAM_RTOL * np.trace(gram.real, axis1=1, axis2=2)[:, None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return ranks
    ranks[live] = small
    return ranks


def numerical_rank(matrix: np.ndarray):
    """Number of singular values above ``RANK_RTOL`` times the largest; for a
    (T, m, n) stack, the array of the T ranks.

    A slice whose smaller Gram matrix keeps a Cholesky factor after
    GRAM_RTOL times its trace is taken off its diagonal has full rank, which
    is what its SVD would count (see GRAM_RTOL); one stacked factorization
    decides a stack of such slices.  The others, zero, non-finite (which
    raise LinAlgError) and rank-deficient slices and the stacks that hold
    one, get one stacked SVD of their unscaled entries."""
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return 0 if m.ndim == 2 else np.zeros(m.shape[0], dtype=int)
    stack = m.reshape((-1,) + m.shape[-2:])
    ranks = _gram_ranks(stack)
    open_ = ranks < 0
    if open_.any():
        s = np.linalg.svd(stack[open_], compute_uv=False)
        ranks[open_] = np.count_nonzero(s > s[..., :1] * RANK_RTOL, axis=-1)
    return int(ranks[0]) if m.ndim == 2 else ranks


def orthogonal_rows(stack: np.ndarray) -> np.ndarray:
    """For each (R, M) slice of a (T, R, M) stack, whether no two of its rows
    have an entry in one column, which makes them orthogonal.  A slice with
    more entries than columns has two rows sharing a column, so one count
    turns a single dense slice away before any work per column."""
    entries = stack.astype(bool)
    if len(stack) == 1 and np.count_nonzero(entries) > stack.shape[2]:
        return np.zeros(1, dtype=bool)
    return entries.sum(axis=1, dtype=np.int32).max(axis=1, initial=0) <= 1


def nullspace_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel, as columns of an (n, dim) array."""
    m = np.asarray(matrix, dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > s[0] * RANK_RTOL))
    return vh[rank:].conj().T


def is_unitary(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol)


def has_orthonormal_columns(matrix: np.ndarray) -> bool:
    b = np.asarray(matrix, dtype=complex)
    if b.ndim != 2 or b.shape[1] > b.shape[0]:
        return False
    return bool(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) <= 1e-8)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def gram_schmidt_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span.

    Canonical basis vectors are orthogonalized in index order, so when the
    input is spanned by canonical vectors the complement is the remaining
    canonical vectors in ascending order.  Deterministic.
    """
    b = np.asarray(basis, dtype=complex)
    n, d = b.shape
    found: list[np.ndarray] = []
    for j in range(n):
        if len(found) == n - d:
            break
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        v = v - b @ (b.conj().T @ v)
        for w in found:
            v = v - w * (w.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            found.append(v / norm)
    if len(found) != n - d:
        raise ValueError("could not complete the orthogonal complement")
    return np.column_stack(found) if found else np.zeros((n, 0), dtype=complex)


def complete_unitary(isometry: np.ndarray) -> np.ndarray:
    """[B, B_perp]: an isometry B and its ``gram_schmidt_complement``."""
    return np.hstack([isometry, gram_schmidt_complement(isometry)])


def procrustes_unitary(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Unitary W minimizing ||W @ source - target||_F (least squares over unitaries)."""
    a = np.asarray(source, dtype=complex)
    b = np.asarray(target, dtype=complex)
    m = b @ a.conj().T
    u, _, vh = np.linalg.svd(m)
    return u @ vh


class UnitaryPath:
    """Continuous path s -> U(s) with U(0) = I and U(1) = U.

    The QR factor of the eigenvector matrix is a Schur frame, and for a
    normal matrix the Schur form is diagonal, so U = Q diag(e^{i angles}) Q^H.
    Scaling the principal angles linearly keeps every U(s) unitary.
    U(0) = Q Q^H is the identity only to rounding, so a path that must end
    on a given map is run back to reach it at s = 0.
    """

    def __init__(self, unitary: np.ndarray):
        u = np.asarray(unitary, dtype=complex)
        if not is_unitary(u, tol=1e-6):
            raise ValueError("matrix is not unitary")
        q, _ = np.linalg.qr(np.linalg.eig(u)[1])
        self.angles = np.angle(np.diag(q.conj().T @ u @ q))
        self.frame = q
        self.dim = u.shape[0]

    def __call__(self, s) -> np.ndarray:
        """U(s); for a 1-D array of s, the (T, n, n) stack of the U(s), from one
        stacked product whose matrices are the ones of the calls one s at a time."""
        s = np.asarray(s, dtype=float)
        phases = np.exp(1j * s[..., None] * self.angles)
        return (self.frame * phases[..., None, :]) @ self.frame.conj().T

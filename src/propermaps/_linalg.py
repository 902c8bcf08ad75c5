"""Dense linear-algebra helpers shared across modules (numpy backed)."""

from __future__ import annotations

import numpy as np

#: Relative singular-value threshold shared by rank and nullspace computations.
RANK_RTOL = 1e-10


def numerical_rank(matrix: np.ndarray):
    """Number of singular values above ``RANK_RTOL`` times the largest; for a
    (T, m, n) stack, the array of the T ranks, from one stacked SVD."""
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return 0 if m.ndim == 2 else np.zeros(m.shape[0], dtype=int)
    s = np.linalg.svd(m, compute_uv=False)
    ranks = np.count_nonzero(s > s[..., :1] * RANK_RTOL, axis=-1)
    return int(ranks) if m.ndim == 2 else ranks


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

    @property
    def is_constant(self) -> bool:
        return bool(np.max(np.abs(self.angles)) <= 1e-14)

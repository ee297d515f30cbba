"""Dense symmetric eigensolver, Gram-route truncated left SVD and the
GEMM-form squared distance kernel.

``sym_eigh`` wraps LAPACK's symmetric eigensolver (``np.linalg.eigh``):
it validates and symmetrizes the input and returns the eigenpairs in
descending order of eigenvalue.

``trunc_svd_left`` never touches the n-by-n product of a tall matrix: it
eigendecomposes the small d-by-d Gram matrix and maps eigenvectors back
through the data (U = Z v / sigma), so cost stays linear in the number of
rows. Columns belonging to near-zero singular values are completed with a
seeded random orthonormal basis, and every column is sign-canonicalized
(first non-negligible entry non-negative) for reproducibility.

``squared_distances`` is the one pairwise squared-distance kernel that
k-means and the anchor graphs share: ||x||^2 - 2 x.c + ||c||^2 from one
matrix product, with the row norms of ``points`` passed in so that callers
that reuse them compute them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

RANK_TOL = 1e-10       # relative to the largest singular value


@dataclass
class SymEig:
    values: np.ndarray   # descending
    vectors: np.ndarray  # orthonormal columns, vectors[:, j] pairs values[j]


@dataclass
class TruncatedSVD:
    left_vectors: np.ndarray      # (n, k), orthonormal columns
    singular_values: np.ndarray   # (k,) descending, non-negative


def squared_distances(points: np.ndarray, sq_norms: np.ndarray, others: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances from each row of ``points`` to
    each row of ``others``, clipped at zero.

    ``sq_norms`` must be ``(points * points).sum(axis=1)``. The updates run
    in place on the product, so the only n-by-m array is the result; the
    values equal ``sq_norms[:, None] - 2 * points @ others.T + ||others||^2``
    bit for bit.
    """
    d2 = points @ others.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += (others * others).sum(axis=1)
    np.maximum(d2, 0.0, out=d2)
    return d2


def sym_eigh(matrix: np.ndarray) -> SymEig:
    """Eigenpairs of a symmetric matrix, sorted by descending eigenvalue.

    The input is symmetrized internally; asymmetry beyond a small relative
    tolerance is rejected. An all-zero matrix gets the identity as its
    eigenvectors.
    """
    S = np.asarray(matrix, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix contains non-finite values")
    d = S.shape[0]
    scale = max(1.0, float(np.abs(S).max())) if S.size else 1.0
    if float(np.abs(S - S.T).max()) > 1e-9 * scale:
        raise ValueError("matrix is not symmetric")

    A = (S + S.T) / 2.0
    if not A.any():
        # eigh's ascending identity, reversed, would be anti-diagonal
        return SymEig(values=np.zeros(d), vectors=np.eye(d))
    values, vectors = np.linalg.eigh(A)
    return SymEig(values=values[::-1].copy(), vectors=vectors[:, ::-1].copy())


def _fill_orthonormal_column(U: np.ndarray, col: int, filled: np.ndarray, rng) -> None:
    """Seeded random unit vector orthogonal to all currently filled columns."""
    n = U.shape[0]
    basis = U[:, filled]
    for _ in range(64):
        v = rng.standard_normal(n)
        for _ in range(2):  # two projection passes for numerical safety
            if basis.shape[1]:
                v -= basis @ (basis.T @ v)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-6:
            U[:, col] = v / nrm
            return
    raise RuntimeError("failed to draw an orthonormal completion vector")


def _canonicalize_signs(U: np.ndarray) -> None:
    for j in range(U.shape[1]):
        col = U[:, j]
        peak = float(np.abs(col).max())
        if peak == 0.0:
            continue
        lead = int(np.flatnonzero(np.abs(col) > 1e-12 * peak)[0])
        if col[lead] < 0:
            U[:, j] = -col


def trunc_svd_left(matrix: np.ndarray, k: int, seed: int = 0) -> TruncatedSVD:
    """Top-k left singular vectors and singular values via the Gram matrix.

    For an all-zero input the singular values are zero and the left vectors
    are a seeded arbitrary orthonormal set (not an error).
    """
    Z = np.asarray(matrix, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(Z)):
        raise ValueError("matrix contains non-finite values")
    n, d = Z.shape
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}, got k={k}")
    if k > n:
        raise ValueError(f"cannot produce {k} orthonormal columns from {n} rows")

    eig = sym_eigh(Z.T @ Z)
    sigma = np.sqrt(np.maximum(eig.values, 0.0))
    cutoff = RANK_TOL * sigma[0]

    U = np.zeros((n, k))
    good = sigma[:k] > cutoff
    if good.any():
        Vg = eig.vectors[:, :k][:, good]
        U[:, good] = Z @ (Vg / sigma[:k][good])

    filled = good.copy()
    if not filled.all():
        rng = make_rng(seed)
        for j in np.flatnonzero(~good):
            _fill_orthonormal_column(U, j, filled, rng)
            filled[j] = True

    # the Gram route can lose orthogonality near the rank cutoff; polish if so
    gram_err = float(np.abs(U.T @ U - np.eye(k)).max())
    if gram_err > 1e-9:
        _reorthonormalize(U, make_rng(seed, 1))

    _canonicalize_signs(U)
    return TruncatedSVD(left_vectors=U, singular_values=sigma[:k].copy())


def _reorthonormalize(U: np.ndarray, rng) -> None:
    """In-place modified Gram-Schmidt; spans of leading columns are preserved."""
    k = U.shape[1]
    filled = np.zeros(k, dtype=bool)
    for j in range(k):
        v = U[:, j]
        for i in range(j):
            v -= (U[:, i] @ v) * U[:, i]
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-10:
            U[:, j] = v / nrm
        else:
            _fill_orthonormal_column(U, j, filled, rng)
        filled[j] = True

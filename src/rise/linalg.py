"""Dense symmetric eigensolver, Gram-route truncated left SVD and the
GEMM-form squared distance kernel.

``sym_eigh`` wraps LAPACK's symmetric eigensolver (``np.linalg.eigh``):
it validates and symmetrizes the input and returns the eigenpairs in
descending order of eigenvalue.

``trunc_svd_left`` never touches the n-by-n product of a tall matrix: it
eigendecomposes the small d-by-d Gram matrix and maps eigenvectors back
through the data (U = Z v / sigma), so cost stays linear in the number of
rows. Rank-deficient columns are completed from a seeded Gaussian draw,
one Householder QR orthonormalizes that fill and a lossy Gram route, and
every column is sign-canonicalized (first non-negligible entry
non-negative) for reproducibility.

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

    Columns whose singular value is at most ``RANK_TOL`` times the largest
    (all of them for an all-zero input) are completed from a Gaussian draw
    seeded by ``seed``; the result always has orthonormal columns.
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

    # sigma descends, so the columns above the cutoff form a leading block
    r = int(np.count_nonzero(sigma[:k] > cutoff))
    U = Z @ (eig.vectors[:, :r] / sigma[:r])
    if r < k:
        U = np.hstack((U, make_rng(seed).standard_normal((n, k - r))))
    # Householder QR keeps the span of every leading block of columns: the mapped
    # columns keep span and order, the drawn ones become orthonormal to them
    if r < k or float(np.abs(U.T @ U - np.eye(k)).max()) > 1e-9:
        U = np.linalg.qr(U)[0]
    _canonicalize_signs(U)
    return TruncatedSVD(left_vectors=U, singular_values=sigma[:k].copy())

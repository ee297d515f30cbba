"""Shared test utilities: random fixtures and dense oracle assemblies."""

from __future__ import annotations

import numpy as np

from rise.graph import BipartiteGraph, build_bipartite, normalize
from rise.masking import generate_mask, mask_to_index_vectors, scatter


def rand_orthonormal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


def random_normalized_graph(
    rng: np.random.Generator, n: int, n_anchors: int, knn: int, dim: int = 3
) -> BipartiteGraph:
    samples = rng.standard_normal((n, dim))
    anchors = rng.standard_normal((n_anchors, dim))
    return normalize(build_bipartite(samples, anchors, knn))


def random_index_vectors(rng: np.random.Generator, n: int, n_views: int, missing_rate: float):
    mask = generate_mask(n, n_views, missing_rate, int(rng.integers(2**31)))
    return mask_to_index_vectors(mask)


def dense_graph(g: BipartiteGraph) -> np.ndarray:
    """Dense (rows, n_anchors) graph assembled from its (indices, weights) pairs."""
    dense = np.zeros((g.rows, g.n_anchors))
    np.add.at(dense, (np.arange(g.rows)[:, None], g.indices), g.weights)
    return dense


def dense_scatter_outer(embeddings, index_vectors, n: int) -> np.ndarray:
    """Sum over views of the zero-padded embedding outer products (n x n)."""
    total = np.zeros((n, n))
    for emb, idx in zip(embeddings, index_vectors):
        placed = scatter(emb, idx, n)
        total += placed @ placed.T
    return total


def dense_objective(consensus, embeddings, graphs, index_vectors, beta: float) -> float:
    """Model objective evaluated literally with n x n products."""
    n = consensus.shape[0]
    yyt = consensus @ consensus.T
    total = 0.0
    for emb, g, idx in zip(embeddings, graphs, index_vectors):
        placed = scatter(emb, idx, n)
        diff = yyt - placed @ placed.T
        total += float((diff * diff).sum())
        dense_b = dense_graph(g)
        total -= beta * float(np.trace(emb.T @ dense_b @ dense_b.T @ emb))
    return total


def _top_eigenvectors(matrix: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.eigh(matrix)[1][:, ::-1][:, :k]


def dense_rise_reference(embeddings, graphs, index_vectors, n: int, beta: float, iters: int):
    """The RISE alternation on dense matrices, for differential tests.

    The consensus is the top-k eigenvectors of the n x n scatter-outer sum,
    and each view embedding the top-k eigenvectors of
    2 Y_v Y_v^T + beta B_v B_v^T, with B_v assembled from the graph's
    (indices, weights). Starting from ``embeddings``, it runs ``iters``
    iterations and returns the literal objective after each one and the
    final consensus.
    """
    k = embeddings[0].shape[1]
    dense_b = [dense_graph(g) for g in graphs]
    trace = []
    for _ in range(iters):
        y = _top_eigenvectors(dense_scatter_outer(embeddings, index_vectors, n), k)
        embeddings = [
            _top_eigenvectors(2.0 * y[h] @ y[h].T + beta * b @ b.T, k)
            for b, h in zip(dense_b, index_vectors)
        ]
        trace.append(dense_objective(y, embeddings, graphs, index_vectors, beta))
    return trace, y

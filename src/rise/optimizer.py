"""Alternating optimization fusing per-view spectral embeddings into a
complete consensus embedding.

Each iteration solves two closed-form subproblems: the consensus embedding
is the top-k left singular basis of the scatter-stacked view embeddings,
and each view embedding is the top-k left singular basis of its consensus
rows and normalized graph stacked side by side (weighted sqrt(2) and
sqrt(beta)). Both matches are made through the embeddings' outer products,
so the model is unaffected by any orthogonal rotation or sign flip of an
individual embedding. Every subproblem reduces to a small Gram
eigenproblem; an iteration costs O(n) for fixed anchor count and embedding
dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset_io import MultiViewDataset
from .graph import BipartiteGraph
from .kmeans import kmeans
from .linalg import trunc_svd_left
from .masking import gather, scatter

COMPLETION_STRATEGIES = ("second_order", "first_order")


@dataclass(frozen=True)
class RiseConfig:
    embed_dim: int
    beta: float = 1.0
    max_iters: int = 50
    rel_tol: float = 1e-6
    seed: int = 0
    completion: str = "second_order"
    row_normalize: bool = False

    def __post_init__(self) -> None:
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if not self.beta >= 0:
            raise ValueError("beta must be non-negative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.completion not in COMPLETION_STRATEGIES:
            raise ValueError(f"completion must be one of {COMPLETION_STRATEGIES}")


@dataclass
class RiseResult:
    consensus: np.ndarray
    labels: np.ndarray
    objective_trace: list[float]
    iterations: int
    iteration_ms: list[float]
    timings: dict[str, float]
    config: RiseConfig = field(repr=False)


def _require_normalized(graphs: list[BipartiteGraph]) -> None:
    for i, g in enumerate(graphs):
        if not g.normalized:
            raise ValueError(f"graph {i} must be normalized")


def init_embeddings(graphs: list[BipartiteGraph], embed_dim: int, seed: int = 0) -> list[np.ndarray]:
    """Per-view spectral embeddings: top-k left singular vectors of each graph."""
    _require_normalized(graphs)
    for i, g in enumerate(graphs):
        if embed_dim > g.n_anchors:
            raise ValueError(
                f"embed_dim={embed_dim} exceeds anchor count {g.n_anchors} of view {i}"
            )
    return [trunc_svd_left(g.toarray(), embed_dim, seed=seed).left_vectors for g in graphs]


def update_consensus(
    embeddings: list[np.ndarray],
    index_vectors: list[np.ndarray],
    n_total: int,
    embed_dim: int,
    seed: int = 0,
) -> np.ndarray:
    """Optimal orthonormal consensus given fixed view embeddings.

    Stacks the zero-padded view embeddings side by side (n x v*k, built
    from thin blocks) and takes the top-k left singular vectors.
    """
    if len(embeddings) != len(index_vectors) or not embeddings:
        raise ValueError("need one index vector per embedding")
    blocks = [scatter(F, h, n_total) for F, h in zip(embeddings, index_vectors)]
    return trunc_svd_left(np.hstack(blocks), embed_dim, seed=seed).left_vectors


def update_embedding(
    graph: BipartiteGraph,
    consensus_rows: np.ndarray,
    beta: float,
    embed_dim: int,
    seed: int = 0,
) -> np.ndarray:
    """Optimal view embedding given the consensus rows this view covers."""
    if not graph.normalized:
        raise ValueError("graph must be normalized")
    consensus_rows = np.asarray(consensus_rows, dtype=np.float64)
    if consensus_rows.shape[0] != graph.rows:
        raise ValueError("consensus rows do not match graph rows")
    if consensus_rows.shape[1] != embed_dim:
        raise ValueError("consensus width does not match embed_dim")
    if not beta >= 0:
        raise ValueError("beta must be non-negative")
    stacked = np.hstack([np.sqrt(2.0) * consensus_rows, np.sqrt(beta) * graph.toarray()])
    return trunc_svd_left(stacked, embed_dim, seed=seed).left_vectors


def objective(
    consensus: np.ndarray,
    embeddings: list[np.ndarray],
    graphs: list[BipartiteGraph],
    index_vectors: list[np.ndarray],
    beta: float,
) -> float:
    """Model objective, evaluated without any n-by-n product.

    With orthonormal consensus and embeddings, each view's consensus-match
    term collapses to 2k - 2*||F^T Y_rows||_F^2, and the graph term is
    -beta*||B^T F||_F^2.
    """
    k = consensus.shape[1]
    total = 0.0
    for F, g, h in zip(embeddings, graphs, index_vectors):
        cross = F.T @ gather(consensus, h)
        total += 2.0 * k - 2.0 * float((cross * cross).sum())
        graph_term = g.toarray().T @ F
        total -= beta * float((graph_term * graph_term).sum())
    return total


def first_order_consensus(
    embeddings: list[np.ndarray],
    index_vectors: list[np.ndarray],
    n_total: int,
) -> np.ndarray:
    """Completion baseline that averages embeddings entry-wise.

    Each covered row of the output is the mean of that row across the views
    containing it; uncovered rows are zero. Columns are then orthonormalized
    by Gram-Schmidt so downstream k-means comparisons are scale-fair.
    Columns cancelled to zero by the averaging (e.g. sign-flipped duplicate
    embeddings) stay zero, which is exactly the failure mode this baseline
    exhibits and the rotation-invariant update avoids.
    """
    k = embeddings[0].shape[1]
    sums = np.zeros((n_total, k))
    counts = np.zeros(n_total)
    for F, h in zip(embeddings, index_vectors):
        sums[h] += F
        counts[h] += 1
    out = np.zeros_like(sums)
    covered = counts > 0
    out[covered] = sums[covered] / counts[covered, None]
    for j in range(k):
        col = out[:, j]
        for i in range(j):
            col -= (out[:, i] @ col) * out[:, i]
        nrm = float(np.linalg.norm(col))
        out[:, j] = col / nrm if nrm > 1e-12 else 0.0
    return out


def run_rise(
    dataset: MultiViewDataset,
    graphs: list[BipartiteGraph],
    cfg: RiseConfig,
    n_clusters: int,
) -> RiseResult:
    """Full pipeline on prebuilt graphs: init, alternate updates, cluster.

    Stops when the relative objective change drops below ``cfg.rel_tol`` or
    after ``cfg.max_iters`` iterations. With ``max_iters == 0`` the labels
    come from a single consensus update over the initial embeddings. The
    ``first_order`` completion strategy skips the alternation entirely and
    recovers the consensus by averaging the initial embeddings.
    """
    if len(graphs) != dataset.n_views:
        raise ValueError("need one graph per view")
    _require_normalized(graphs)
    for i, (g, view) in enumerate(zip(graphs, dataset.views)):
        if g.rows != view.shape[0]:
            raise ValueError(f"graph {i} rows do not match view {i}")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")

    h_list = dataset.index_vectors
    n = dataset.n_total
    k = cfg.embed_dim

    t_start = time.perf_counter()
    embeddings = init_embeddings(graphs, k, seed=cfg.seed)
    t_init = time.perf_counter()

    trace: list[float] = []
    iteration_ms: list[float] = []
    consensus = None
    if cfg.completion == "second_order":
        for it in range(cfg.max_iters):
            t0 = time.perf_counter()
            consensus = update_consensus(embeddings, h_list, n, k, seed=cfg.seed)
            embeddings = [
                update_embedding(g, gather(consensus, h), cfg.beta, k, seed=cfg.seed)
                for g, h in zip(graphs, h_list)
            ]
            trace.append(objective(consensus, embeddings, graphs, h_list, cfg.beta))
            iteration_ms.append((time.perf_counter() - t0) * 1e3)
            if it >= 1 and abs(trace[-1] - trace[-2]) <= cfg.rel_tol * (abs(trace[-2]) + 1.0):
                break
        if consensus is None:  # max_iters == 0
            consensus = update_consensus(embeddings, h_list, n, k, seed=cfg.seed)
    else:
        consensus = first_order_consensus(embeddings, h_list, n)
    t_opt = time.perf_counter()

    points = consensus
    if cfg.row_normalize:
        norms = np.linalg.norm(consensus, axis=1, keepdims=True)
        points = np.divide(consensus, norms, out=np.zeros_like(consensus), where=norms > 0)
    labels = kmeans(points, n_clusters, seed=cfg.seed).assignments
    t_end = time.perf_counter()

    timings = {
        "init_embeddings_s": t_init - t_start,
        "optimize_s": t_opt - t_init,
        "kmeans_s": t_end - t_opt,
        "total_s": t_end - t_start,
    }
    return RiseResult(
        consensus=consensus,
        labels=labels,
        objective_trace=trace,
        iterations=len(trace),
        iteration_ms=iteration_ms,
        timings=timings,
        config=cfg,
    )

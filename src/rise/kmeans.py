"""Lloyd's k-means with seeded greedy k-means++ initialization.

Used to pick per-view anchor points and to turn the final consensus
embedding into discrete cluster labels. Distance ties break toward the
lowest center index, and empty clusters are repaired by reseeding them
with the point farthest from its current center, so results are
deterministic for a fixed seed.

The row norms ||x||^2 are computed once per ``kmeans`` call and shared by
every restart, the seeding and every Lloyd step. All point-to-center
distances come from the GEMM-form kernel ``linalg.squared_distances``
(||x||^2 - 2 x.c + ||c||^2, updated in place). The seeding scores all
candidates of a step with one distance call, and each Lloyd step sums the
members of every center with one ``bincount`` over all coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import squared_distances
from .seeding import make_rng


@dataclass
class KMeansResult:
    centers: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int
    inertia_history: list[float] = field(default_factory=list)


def _kmeanspp(points: np.ndarray, sq_norms: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: sample several candidates per step, keep the one
    that lowers the potential most (the first such candidate on ties)."""
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    if n_clusters == 1:
        return centers
    trials = 2 + int(np.log(n_clusters))
    d2 = squared_distances(points, sq_norms, centers[:1])[:, 0]
    for j in range(1, n_clusters):
        total = float(d2.sum())
        if total > 0.0:
            cum = np.cumsum(d2)
            cand = np.minimum(np.searchsorted(cum, rng.random(trials) * total), n - 1)
        else:
            cand = rng.integers(n, size=trials)
        trial_d2 = squared_distances(points, sq_norms, points[cand])
        np.minimum(trial_d2, d2[:, None], out=trial_d2)
        best = int(trial_d2.sum(axis=0).argmin())
        centers[j] = points[cand[best]]
        d2 = trial_d2[:, best].copy()
    return centers


def _repair_empty(points, labels, centers, d2):
    """Reseed each empty cluster with the farthest point of a non-singleton cluster."""
    n_clusters = centers.shape[0]
    counts = np.bincount(labels, minlength=n_clusters)
    if not (counts == 0).any():
        return
    own = d2[np.arange(points.shape[0]), labels].copy()
    while True:
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return
        cid = int(empty[0])
        movable = counts[labels] >= 2
        candidates = np.where(movable, own, -1.0)
        far = int(candidates.argmax())
        counts[labels[far]] -= 1
        labels[far] = cid
        counts[cid] = 1
        centers[cid] = points[far]
        own[far] = 0.0


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    max_iters: int = 100,
    tol: float = 1e-6,
    n_restarts: int = 10,
) -> KMeansResult:
    """Cluster rows of ``points`` into ``n_clusters`` groups.

    Runs ``n_restarts`` seeded k-means++ initializations and keeps the run
    with the lowest inertia, which escapes the local optima a single
    unlucky seeding can settle into. Each run stops when the largest
    center displacement falls below ``tol`` or after ``max_iters`` Lloyd
    iterations. The recorded inertia history is non-increasing.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite values")
    n = points.shape[0]
    if not n >= n_clusters >= 1:
        raise ValueError(f"need n >= n_clusters >= 1, got n={n}, n_clusters={n_clusters}")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")

    sq_norms = (points * points).sum(axis=1)
    rng = make_rng(seed)
    best: KMeansResult | None = None
    for _ in range(n_restarts):
        result = _lloyd_once(points, sq_norms, n_clusters, rng, max_iters, tol)
        if best is None or result.inertia < best.inertia:
            best = result
        if best.inertia == 0.0:
            break
    return best


def _lloyd_once(points, sq_norms, n_clusters, rng, max_iters, tol) -> KMeansResult:
    n, dim = points.shape
    centers = _kmeanspp(points, sq_norms, n_clusters, rng)
    coords = np.arange(dim)
    history: list[float] = []
    labels = None
    iterations = 0
    for it in range(max_iters):
        d2 = squared_distances(points, sq_norms, centers)
        labels = d2.argmin(axis=1)
        _repair_empty(points, labels, centers, d2)
        counts = np.bincount(labels, minlength=n_clusters)
        # one bin per (cluster, coordinate); each bin adds its rows in order
        bins = (labels[:, None] * dim + coords).ravel()
        sums = np.bincount(bins, weights=points.ravel(), minlength=n_clusters * dim)
        new_centers = sums.reshape(n_clusters, dim) / counts[:, None]
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        history.append(float(((points - centers[labels]) ** 2).sum()))
        iterations = it + 1
        if shift < tol:
            break

    if labels is None:  # max_iters == 0: assign once against the seeding
        d2 = squared_distances(points, sq_norms, centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
    else:
        inertia = history[-1]
    return KMeansResult(centers, labels.astype(np.int64), inertia, iterations, history)


def select_anchors(view: np.ndarray, strategy: str, n_anchors: int, seed: int = 0) -> np.ndarray:
    """Representative points for one view: k-means centers or random rows."""
    view = np.asarray(view, dtype=np.float64)
    if view.ndim != 2:
        raise ValueError("view must be a 2-D matrix")
    if n_anchors < 1 or view.shape[0] < n_anchors:
        raise ValueError(
            f"need 1 <= n_anchors <= {view.shape[0]}, got {n_anchors}"
        )
    if strategy == "kmeans":
        return kmeans(view, n_anchors, seed=seed).centers
    if strategy == "random":
        rng = make_rng(seed)
        idx = rng.permutation(view.shape[0])[:n_anchors]
        return view[idx].copy()
    raise ValueError(f"unknown anchor strategy: {strategy!r}")

"""Sample-to-anchor bipartite graphs with closed-form neighbor weights.

Each sample connects to its ``knn`` nearest anchors under squared Euclidean
distance. Weights decay linearly from the (knn+1)-th nearest distance and
are scaled so every raw row sums to one; when all selected distances tie
with the (knn+1)-th (degenerate denominator) the row falls back to uniform
1/knn weights. Column normalization divides each anchor column by the
square root of its total incoming weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import squared_distances

_TIE_EPS = 1e-12


@dataclass
class BipartiteGraph:
    """Row-sparse n-by-m graph: ``knn`` (anchor, weight) pairs per sample."""

    indices: np.ndarray  # (n, knn) anchor ids, nearest first
    weights: np.ndarray  # (n, knn) non-negative weights
    degrees: np.ndarray  # (m,) column sums of the raw graph
    n_anchors: int
    normalized: bool = False
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def rows(self) -> int:
        return self.indices.shape[0]

    @property
    def knn(self) -> int:
        return self.indices.shape[1]

    def toarray(self) -> np.ndarray:
        """Dense (rows, n_anchors) form; cached after the first call."""
        if self._dense is None:
            dense = np.zeros((self.rows, self.n_anchors), dtype=np.float64)
            dense[np.arange(self.rows)[:, None], self.indices] = self.weights
            self._dense = dense
        return self._dense


def build_bipartite(samples: np.ndarray, anchors: np.ndarray, knn: int) -> BipartiteGraph:
    """Connect each sample row to its ``knn`` nearest anchor rows."""
    samples = np.asarray(samples, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    if samples.ndim != 2 or anchors.ndim != 2:
        raise ValueError("samples and anchors must be 2-D matrices")
    if samples.shape[1] != anchors.shape[1]:
        raise ValueError("samples and anchors have different feature dimensions")
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(anchors))):
        raise ValueError("non-finite values in samples or anchors")
    m = anchors.shape[0]
    if not 1 <= knn <= m - 1:
        raise ValueError(f"need 1 <= knn <= n_anchors-1, got knn={knn}, n_anchors={m}")

    d2 = squared_distances(samples, (samples * samples).sum(axis=1), anchors)

    nearest = np.argpartition(d2, knn, axis=1)[:, : knn + 1]
    near_d = np.take_along_axis(d2, nearest, axis=1)
    order = np.argsort(near_d, axis=1, kind="stable")
    nearest = np.take_along_axis(nearest, order, axis=1)
    near_d = np.take_along_axis(near_d, order, axis=1)

    selected = nearest[:, :knn]
    sel_d = near_d[:, :knn]
    next_d = near_d[:, knn]

    numer = next_d[:, None] - sel_d
    denom = knn * next_d - sel_d.sum(axis=1)
    weights = np.full_like(sel_d, 1.0 / knn)
    ok = denom > _TIE_EPS
    weights[ok] = numer[ok] / denom[ok, None]

    degrees = np.bincount(selected.ravel(), weights=weights.ravel(), minlength=m)
    return BipartiteGraph(
        indices=selected.astype(np.int64),
        weights=weights,
        degrees=degrees,
        n_anchors=m,
    )


def normalize(graph: BipartiteGraph) -> BipartiteGraph:
    """Scale each anchor column by degree^(-1/2); zero-degree columns stay zero."""
    if graph.normalized:
        raise ValueError("graph is already normalized")
    scale = np.zeros(graph.n_anchors, dtype=np.float64)
    positive = graph.degrees > _TIE_EPS
    scale[positive] = 1.0 / np.sqrt(graph.degrees[positive])
    return BipartiteGraph(
        indices=graph.indices.copy(),
        weights=graph.weights * scale[graph.indices],
        degrees=graph.degrees.copy(),
        n_anchors=graph.n_anchors,
        normalized=True,
    )


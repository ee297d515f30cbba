"""Scalable incomplete multi-view clustering via rotation-invariant
spectral embedding fusion."""

__version__ = "0.1.0"

from .datagen import BlobConfig, generate_blobs
from .dataset_io import (
    MultiViewDataset,
    canonicalize_labels,
    read_labels,
    read_matrix,
    write_labels,
    write_matrix,
)
from .graph import BipartiteGraph, build_bipartite, normalize
from .kmeans import KMeansResult, kmeans, select_anchors
from .linalg import TruncatedSVD, trunc_svd_left
from .masking import (
    Mask,
    apply_mask,
    gather,
    generate_mask,
    mask_from_index_vectors,
    mask_to_index_vectors,
    read_mask,
    scatter,
    write_mask,
)
from .metrics import clustering_accuracy, nmi, purity
from .optimizer import (
    RiseConfig,
    RiseResult,
    first_order_consensus,
    init_embeddings,
    objective,
    run_rise,
    update_consensus,
    update_embedding,
)

__all__ = [
    "BipartiteGraph",
    "BlobConfig",
    "KMeansResult",
    "Mask",
    "MultiViewDataset",
    "RiseConfig",
    "RiseResult",
    "TruncatedSVD",
    "apply_mask",
    "build_bipartite",
    "canonicalize_labels",
    "clustering_accuracy",
    "first_order_consensus",
    "gather",
    "generate_blobs",
    "generate_mask",
    "init_embeddings",
    "kmeans",
    "mask_from_index_vectors",
    "mask_to_index_vectors",
    "nmi",
    "normalize",
    "objective",
    "purity",
    "read_labels",
    "read_mask",
    "read_matrix",
    "run_rise",
    "scatter",
    "select_anchors",
    "trunc_svd_left",
    "update_consensus",
    "update_embedding",
    "write_labels",
    "write_mask",
    "write_matrix",
]

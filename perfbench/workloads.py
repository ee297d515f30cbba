"""Workload definitions shared by the benchmark runner and its child process.

Every workload uses 3 views with dims (16, 12, 10), latent_dim 8, 40%
missing samples, knn 5, k = 10 clusters and embedding dimensions, beta 10
in the pipeline workloads, and row-normalization before the final k-means.
BLAS runs single-threaded in the child process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    anchors: int
    anchor_strategy: str
    center_scale: float = 8.0
    noise_sigma: float = 0.1
    # a sweep workload runs ``rise sweep`` over these beta values, SWEEP_REPEATS
    # cells each, instead of one in-memory pipeline run
    sweep_betas: tuple[float, ...] = ()
    env: dict[str, str] = field(default_factory=dict)

    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep_betas)

    @property
    def operations(self) -> int:
        """Operations in one repetition: sweep cells, or one pipeline run."""
        return len(self.sweep_betas) * SWEEP_REPEATS if self.is_sweep else 1


VIEW_DIMS = (16, 12, 10)
LATENT_DIM = 8
MISSING_RATE = 0.4
KNN = 5
CLUSTERS = 10
EMBED_DIM = 10
BETA = 10.0
SWEEP_REPEATS = 1
ACC_FLOOR = 0.95  # every pipeline run and sweep cell must cluster at least this well

WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-anchors-10k", n=10000, anchors=100, anchor_strategy="random",
                 center_scale=3.0, noise_sigma=0.5),
        Workload("beta-sweep-2k", n=2000, anchors=20, anchor_strategy="kmeans",
                 sweep_betas=(10.0, 100.0, 1000.0), env={"RISE_THREADS": "2"}),
    )
}

# Thread settings every child process gets; a workload's own env adds to them.
CHILD_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def scaled(workload: Workload, n: int) -> Workload:
    """The same workload at another sample count (used by the self-test)."""
    return replace(workload, n=n, name=f"{workload.name}@{n}")

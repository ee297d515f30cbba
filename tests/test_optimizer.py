import numpy as np
import pytest

from helpers import (
    dense_objective,
    dense_scatter_outer,
    rand_orthonormal,
    random_index_vectors,
    random_normalized_graph,
)
from rise.datagen import BlobConfig, generate_blobs
from rise.graph import BipartiteGraph, build_bipartite, normalize
from rise.kmeans import kmeans, select_anchors
from rise.masking import apply_mask, gather, generate_mask
from rise.metrics import clustering_accuracy
from rise.optimizer import (
    RiseConfig,
    first_order_consensus,
    init_embeddings,
    objective,
    run_rise,
    update_consensus,
    update_embedding,
)


def _graph_from_dense(dense: np.ndarray, normalized: bool = True) -> BipartiteGraph:
    """Fabricate a graph object holding an arbitrary dense matrix."""
    n, m = dense.shape
    return BipartiteGraph(
        indices=np.tile(np.arange(m), (n, 1)),
        weights=dense.astype(np.float64).copy(),
        degrees=dense.sum(axis=0),
        n_anchors=m,
        normalized=normalized,
    )


def _identity_graph(n: int) -> BipartiteGraph:
    return _graph_from_dense(np.eye(n))


def test_init_embeddings_identity_graph():
    emb = init_embeddings([_identity_graph(2)], 2)[0]
    assert np.abs(emb.T @ emb - np.eye(2)).max() < 1e-10
    assert np.isclose(np.trace(emb.T @ np.eye(2) @ emb), 2.0)


def test_init_embeddings_thin_diagonal_graph():
    g = _graph_from_dense(np.diag([3.0, 2.0, 1.0]))
    emb = init_embeddings([g], 2)[0]
    dense = g.toarray()
    assert np.isclose(np.trace(emb.T @ dense @ dense.T @ emb), 13.0)


def test_init_embeddings_orthonormal_contract():
    rng = np.random.default_rng(0)
    graphs = [random_normalized_graph(rng, 25, 6, 3) for _ in range(3)]
    for emb in init_embeddings(graphs, 4):
        assert np.abs(emb.T @ emb - np.eye(4)).max() < 1e-8


def test_init_embeddings_requires_normalized_and_small_k():
    raw = build_bipartite(np.zeros((3, 1)), np.array([[0.0], [1.0]]), knn=1)
    with pytest.raises(ValueError):
        init_embeddings([raw], 1)
    with pytest.raises(ValueError):
        init_embeddings([_identity_graph(3)], 4)


def test_update_consensus_single_complete_view_spans_embedding():
    rng = np.random.default_rng(1)
    f = rand_orthonormal(rng, 8, 3)
    y = update_consensus([f], [np.arange(8)], 8, 3)
    assert np.abs(y @ y.T - f @ f.T).max() < 1e-8


def test_update_consensus_duplicated_views():
    rng = np.random.default_rng(2)
    f = rand_orthonormal(rng, 10, 2)
    y = update_consensus([f, f], [np.arange(10), np.arange(10)], 10, 2)
    assert np.abs(y @ y.T - f @ f.T).max() < 1e-8


def test_update_consensus_matches_dense_eigen_oracle():
    rng = np.random.default_rng(3)
    for trial in range(15):
        n = int(rng.integers(4, 30))
        v = int(rng.integers(1, 4))
        k = 1 if n < 4 else int(rng.integers(1, 4))
        if v == 1:
            index_vectors = [np.arange(n)]
        else:
            index_vectors = random_index_vectors(rng, n, v, 0.5)
        embeddings = [rand_orthonormal(rng, len(h), k) for h in index_vectors]
        y = update_consensus(embeddings, index_vectors, n, k)
        dense = dense_scatter_outer(embeddings, index_vectors, n)
        achieved = np.trace(y.T @ dense @ y)
        expected = np.linalg.eigvalsh(dense)[::-1][:k].sum()
        assert abs(achieved - expected) < 1e-8


def test_update_embedding_beta_zero_tracks_consensus():
    rng = np.random.default_rng(4)
    g = random_normalized_graph(rng, 12, 5, 2)
    y_rows = rand_orthonormal(rng, 12, 3)
    f = update_embedding(g, y_rows, beta=0.0, embed_dim=3)
    assert np.abs(f @ f.T - y_rows @ y_rows.T).max() < 1e-8


@pytest.mark.parametrize("beta", [-1.0, float("nan")])
def test_update_embedding_rejects_negative_or_nan_beta(beta):
    rng = np.random.default_rng(4)
    g = random_normalized_graph(rng, 12, 5, 2)
    with pytest.raises(ValueError, match="beta"):
        update_embedding(g, rand_orthonormal(rng, 12, 3), beta=beta, embed_dim=3)


def test_update_embedding_void_consensus_reduces_to_init():
    rng = np.random.default_rng(5)
    g = random_normalized_graph(rng, 15, 6, 3)
    f_init = init_embeddings([g], 3)[0]
    f = update_embedding(g, np.zeros((15, 3)), beta=2.0, embed_dim=3)
    assert np.abs(f - f_init).max() < 1e-10


def test_update_embedding_matches_dense_eigen_oracle():
    rng = np.random.default_rng(6)
    for _ in range(15):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.1, 5.0))
        g = random_normalized_graph(rng, n, 6, 3)
        y_rows = rand_orthonormal(rng, n, k)
        f = update_embedding(g, y_rows, beta, k)
        dense_b = g.toarray()
        s = 2.0 * y_rows @ y_rows.T + beta * dense_b @ dense_b.T
        achieved = np.trace(f.T @ s @ f)
        expected = np.linalg.eigvalsh(s)[::-1][:k].sum()
        assert abs(achieved - expected) < 1e-8


def test_objective_perfect_consensus_is_zero():
    rng = np.random.default_rng(7)
    g = random_normalized_graph(rng, 10, 4, 2)
    f = rand_orthonormal(rng, 10, 3)
    val = objective(f, [f], [g], [np.arange(10)], beta=0.0)
    assert abs(val) < 1e-10


def test_objective_orthogonal_consensus_is_two_k():
    rng = np.random.default_rng(8)
    basis = rand_orthonormal(rng, 12, 6)
    f, y = basis[:, :3], basis[:, 3:]
    g = random_normalized_graph(rng, 12, 4, 2)
    val = objective(y, [f], [g], [np.arange(12)], beta=0.0)
    assert abs(val - 6.0) < 1e-10


def test_objective_matches_dense_formula():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(6, 50))
        v = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.0, 3.0))
        if v == 1:
            index_vectors = [np.arange(n)]
        else:
            index_vectors = random_index_vectors(rng, n, v, 0.4)
        embeddings = [rand_orthonormal(rng, len(h), k) for h in index_vectors]
        graphs = [random_normalized_graph(rng, len(h), 5, 2) for h in index_vectors]
        y = rand_orthonormal(rng, n, k)
        fast = objective(y, embeddings, graphs, index_vectors, beta)
        dense = dense_objective(y, embeddings, graphs, index_vectors, beta)
        assert abs(fast - dense) < 1e-8


def test_objective_rotation_invariance():
    rng = np.random.default_rng(10)
    n, k = 20, 3
    index_vectors = random_index_vectors(rng, n, 2, 0.5)
    embeddings = [rand_orthonormal(rng, len(h), k) for h in index_vectors]
    graphs = [random_normalized_graph(rng, len(h), 5, 2) for h in index_vectors]
    y = rand_orthonormal(rng, n, k)
    base = objective(y, embeddings, graphs, index_vectors, 1.5)
    for _ in range(10):
        rot = np.linalg.qr(rng.standard_normal((k, k)))[0]
        rotated = [emb @ rot for emb in embeddings]
        assert abs(objective(y, rotated, graphs, index_vectors, 1.5) - base) < 1e-10
        assert abs(objective(y @ rot, embeddings, graphs, index_vectors, 1.5) - base) < 1e-10


def _small_pipeline(seed, missing_rate, completion="second_order", max_iters=50):
    cfg_data = BlobConfig(
        n=120, clusters=3, views=3, latent_dim=4, view_dims=(6, 5, 4),
        cluster_spread=0.5, center_scale=10.0, noise_sigma=0.1, seed=seed,
    )
    dataset, labels = generate_blobs(cfg_data)
    if missing_rate > 0:
        dataset = apply_mask(dataset, generate_mask(120, 3, missing_rate, seed))
    graphs = []
    for i, view in enumerate(dataset.views):
        anchors = select_anchors(view, "kmeans", 9, seed + i)
        graphs.append(normalize(build_bipartite(view, anchors, 3)))
    cfg = RiseConfig(
        embed_dim=3, beta=10.0, max_iters=max_iters, rel_tol=1e-6, seed=seed,
        completion=completion, row_normalize=True,
    )
    return run_rise(dataset, graphs, cfg, 3), labels, dataset, graphs, cfg


def test_run_rise_separable_blobs_perfect_accuracy():
    for p in (0.0, 0.3, 0.5):
        result, labels, *_ = _small_pipeline(seed=0, missing_rate=p)
        assert clustering_accuracy(result.labels, labels) == 1.0


def test_run_rise_trace_monotone_and_converges():
    for seed in range(5):
        result, *_ = _small_pipeline(seed=seed, missing_rate=0.4)
        trace = np.array(result.objective_trace)
        assert (np.diff(trace) <= 1e-9).all()
        assert result.iterations < 50


def test_run_rise_max_iters_zero_uses_single_consensus_update():
    result, labels, dataset, graphs, cfg = _small_pipeline(seed=1, missing_rate=0.2, max_iters=0)
    assert result.iterations == 0
    assert result.objective_trace == []
    embeddings = init_embeddings(graphs, cfg.embed_dim, seed=cfg.seed)
    expected_y = update_consensus(
        embeddings, dataset.index_vectors, dataset.n_total, cfg.embed_dim, seed=cfg.seed
    )
    assert np.abs(result.consensus - expected_y).max() < 1e-12
    norms = np.linalg.norm(expected_y, axis=1, keepdims=True)
    points = np.divide(expected_y, norms, out=np.zeros_like(expected_y), where=norms > 0)
    expected_labels = kmeans(points, 3, seed=cfg.seed).assignments
    assert np.array_equal(result.labels, expected_labels)


def test_run_rise_deterministic():
    a, *_ = _small_pipeline(seed=3, missing_rate=0.3)
    b, *_ = _small_pipeline(seed=3, missing_rate=0.3)
    assert a.objective_trace == b.objective_trace
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.consensus, b.consensus)


def test_state_invariants_across_manual_iterations():
    rng = np.random.default_rng(11)
    n, v, k = 40, 3, 3
    index_vectors = random_index_vectors(rng, n, v, 0.5)
    graphs = [random_normalized_graph(rng, len(h), 8, 3) for h in index_vectors]
    embeddings = init_embeddings(graphs, k)
    prev = None
    for _ in range(6):
        y = update_consensus(embeddings, index_vectors, n, k)
        embeddings = [
            update_embedding(g, gather(y, h), 1.0, k)
            for g, h in zip(graphs, index_vectors)
        ]
        assert np.abs(y.T @ y - np.eye(k)).max() < 1e-8
        for emb in embeddings:
            assert np.abs(emb.T @ emb - np.eye(k)).max() < 1e-8
        val = objective(y, embeddings, graphs, index_vectors, 1.0)
        if prev is not None:
            assert val <= prev + 1e-9
        prev = val


def test_subproblem_updates_beat_random_bases():
    rng = np.random.default_rng(12)
    n, k, beta = 25, 2, 1.0
    g = random_normalized_graph(rng, n, 6, 3)
    y_rows = rand_orthonormal(rng, n, k)
    f = update_embedding(g, y_rows, beta, k)
    dense_b = g.toarray()
    s = 2.0 * y_rows @ y_rows.T + beta * dense_b @ dense_b.T
    achieved = np.trace(f.T @ s @ f)
    for _ in range(50):
        w = rand_orthonormal(rng, n, k)
        assert achieved >= np.trace(w.T @ s @ w) - 1e-8


def test_first_order_single_view_is_identity():
    rng = np.random.default_rng(13)
    f = rand_orthonormal(rng, 9, 3)
    y = first_order_consensus([f], [np.arange(9)], 9)
    assert np.abs(y - f).max() < 1e-10


def test_first_order_sign_flip_cancels_to_zero():
    rng = np.random.default_rng(14)
    f = rand_orthonormal(rng, 10, 2)
    y = first_order_consensus([f, -f], [np.arange(10), np.arange(10)], 10)
    assert np.abs(y).max() == 0.0


def test_first_order_disjoint_coverage_averages_rows():
    f1 = np.array([[1.0]])
    f2 = np.array([[1.0]])
    y = first_order_consensus([f1, f2], [np.array([0]), np.array([1])], 2)
    # pre-orthonormalization rows are [1, 1]; Gram-Schmidt rescales the column
    assert np.allclose(y[:, 0], [2**-0.5, 2**-0.5])


def test_first_order_pipeline_runs_without_alternation():
    result, labels, *_ = _small_pipeline(seed=2, missing_rate=0.2, completion="first_order")
    assert result.iterations == 0
    assert result.objective_trace == []
    assert result.labels.shape == labels.shape


def test_config_validation():
    with pytest.raises(ValueError):
        RiseConfig(embed_dim=0)
    with pytest.raises(ValueError):
        RiseConfig(embed_dim=2, beta=-1.0)
    with pytest.raises(ValueError):
        RiseConfig(embed_dim=2, beta=float("nan"))
    with pytest.raises(ValueError):
        RiseConfig(embed_dim=2, rel_tol=0.0)
    with pytest.raises(ValueError):
        RiseConfig(embed_dim=2, rel_tol=float("nan"))
    with pytest.raises(ValueError):
        RiseConfig(embed_dim=2, completion="third_order")

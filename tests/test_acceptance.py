"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Expected values come from independent oracles: dense
eigendecompositions assembled without the Gram shortcut, literal objective
evaluation with n-by-n products, and exhaustive enumeration for the metric
checks.
"""

import time
from itertools import product

import numpy as np

from helpers import (
    dense_objective,
    dense_scatter_outer,
    rand_orthonormal,
    random_index_vectors,
    random_normalized_graph,
)
from rise.datagen import BlobConfig, generate_blobs
from rise.graph import build_bipartite, normalize
from rise.kmeans import kmeans, select_anchors
from rise.linalg import trunc_svd_left
from rise.masking import apply_mask, gather, generate_mask
from rise.metrics import clustering_accuracy, nmi, purity
from rise.optimizer import (
    RiseConfig,
    first_order_consensus,
    init_embeddings,
    objective,
    run_rise,
    update_consensus,
    update_embedding,
)
from test_metrics import brute_force_accuracy


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] {text}: PASS")


def _blob_pipeline(seed, missing_rate, *, n, clusters, anchors, embed_dim, beta,
                   knn=5, view_dims=(16, 12, 10), latent_dim=8, spread=1.0,
                   scale=8.0, noise=0.2, anchor_strategy="kmeans",
                   max_iters=50, rel_tol=1e-6, row_normalize=True):
    cfg_data = BlobConfig(
        n=n, clusters=clusters, views=len(view_dims), latent_dim=latent_dim,
        view_dims=view_dims, cluster_spread=spread, center_scale=scale,
        noise_sigma=noise, seed=seed,
    )
    dataset, labels = generate_blobs(cfg_data)
    if missing_rate > 0:
        dataset = apply_mask(dataset, generate_mask(n, len(view_dims), missing_rate, seed))
    graphs = [
        normalize(build_bipartite(view, select_anchors(view, anchor_strategy, anchors, seed + i), knn))
        for i, view in enumerate(dataset.views)
    ]
    cfg = RiseConfig(
        embed_dim=embed_dim, beta=beta, max_iters=max_iters, rel_tol=rel_tol,
        seed=seed, row_normalize=row_normalize,
    )
    return run_rise(dataset, graphs, cfg, clusters), labels


def test_criterion_01_gram_route_matches_dense_eigensum():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 51))
        n_blocks = int(rng.integers(2, 5))
        widths = [int(rng.integers(1, 5)) for _ in range(n_blocks)]
        while sum(widths) > 12:
            widths.pop()
        blocks = [rng.standard_normal((n, w)) for w in widths]
        z_cat = np.hstack(blocks)
        k = int(rng.integers(1, min(5, z_cat.shape[1]) + 1))
        u = trunc_svd_left(z_cat, k).left_vectors
        achieved = float(np.linalg.norm(z_cat.T @ u) ** 2)
        dense = np.zeros((n, n))
        for b in blocks:
            dense += b @ b.T
        expected = float(np.linalg.eigvalsh(dense)[::-1][:k].sum())
        worst = max(worst, abs(achieved - expected))
        assert abs(achieved - expected) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"Gram-route trace equals dense eigensum on 100 instances "
               f"(max gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_subproblem_solvers_match_dense_oracles():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(6, 51))
        k = int(rng.integers(1, 5))
        beta = float(rng.uniform(0.05, 10.0))
        g = random_normalized_graph(rng, n, 6, 3)
        y_rows = rand_orthonormal(rng, n, k)
        f = update_embedding(g, y_rows, beta, k)
        dense_b = g.toarray()
        s = 2.0 * y_rows @ y_rows.T + beta * dense_b @ dense_b.T
        gap = abs(np.trace(f.T @ s @ f) - np.linalg.eigvalsh(s)[::-1][:k].sum())
        worst = max(worst, gap)
        assert gap < 1e-8
    for _ in range(30):
        n = int(rng.integers(6, 51))
        v = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        index_vectors = random_index_vectors(rng, n, v, 0.5)
        embeddings = [rand_orthonormal(rng, len(h), k) for h in index_vectors]
        y = update_consensus(embeddings, index_vectors, n, k)
        dense = dense_scatter_outer(embeddings, index_vectors, n)
        gap = abs(np.trace(y.T @ dense @ y) - np.linalg.eigvalsh(dense)[::-1][:k].sum())
        worst = max(worst, gap)
        assert gap < 1e-8
    _report(2, f"embedding and consensus updates match dense eigensolves (max gap {worst:.2e})")


def test_criterion_03_objective_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(8, 61))
        v = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        beta = float(rng.uniform(0.0, 5.0))
        if v == 1:
            index_vectors = [np.arange(n)]
        else:
            index_vectors = random_index_vectors(rng, n, v, 0.4)
        embeddings = [rand_orthonormal(rng, len(h), k) for h in index_vectors]
        graphs = [random_normalized_graph(rng, len(h), 5, 2) for h in index_vectors]
        y = rand_orthonormal(rng, n, k)
        fast = objective(y, embeddings, graphs, index_vectors, beta)
        literal = dense_objective(y, embeddings, graphs, index_vectors, beta)
        worst = max(worst, abs(fast - literal))
        assert abs(fast - literal) < 1e-8
    _report(3, f"efficient objective equals literal dense evaluation (max gap {worst:.2e})")


def test_criterion_04_monotone_convergence():
    betas = [0.1, 1.0, 10.0]
    worst_iters = 0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        result, _ = _blob_pipeline(
            seed=i,
            missing_rate=float(rng.uniform(0.2, 0.5)),
            n=500, clusters=5, anchors=20, embed_dim=5, beta=betas[i % 3],
            view_dims=(10, 8, 7), latent_dim=6,
            spread=float(rng.uniform(0.5, 1.5)),
            scale=float(rng.uniform(5.0, 10.0)),
            noise=float(rng.uniform(0.05, 0.3)),
            max_iters=50, rel_tol=1e-6,
        )
        trace = np.array(result.objective_trace)
        assert (np.diff(trace) <= 1e-9).all(), f"instance {i}: trace not monotone"
        reached_tol = result.iterations < 50 or (
            abs(trace[-1] - trace[-2]) <= 1e-6 * (abs(trace[-2]) + 1.0)
        )
        assert reached_tol, f"instance {i}: no convergence within 50 iterations"
        worst_iters = max(worst_iters, result.iterations)
    _report(4, f"objective non-increasing and converged on 20 instances "
               f"(worst {worst_iters} iterations)")


def test_criterion_05_rotation_invariance():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 40))
        v = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.0, 5.0))
        index_vectors = random_index_vectors(rng, n, v, 0.4)
        embeddings = [rand_orthonormal(rng, len(h), k) for h in index_vectors]
        graphs = [random_normalized_graph(rng, len(h), 6, 2) for h in index_vectors]
        y = rand_orthonormal(rng, n, k)
        base = objective(y, embeddings, graphs, index_vectors, beta)
        rot = np.linalg.qr(rng.standard_normal((k, k)))[0]
        which = int(rng.integers(v))
        rotated = [emb @ rot if i == which else emb for i, emb in enumerate(embeddings)]
        gap_f = abs(objective(y, rotated, graphs, index_vectors, beta) - base)
        gap_y = abs(objective(y @ rot, embeddings, graphs, index_vectors, beta) - base)
        worst = max(worst, gap_f, gap_y)
        assert gap_f < 1e-10 and gap_y < 1e-10
    _report(5, f"objective invariant under orthogonal rotations (max drift {worst:.2e})")


def test_criterion_06_end_to_end_synthetic_clustering():
    start = time.perf_counter()
    repeats = range(10)
    complete_accs = []
    for seed in repeats:
        result, labels = _blob_pipeline(
            seed=seed, missing_rate=0.0,
            n=1000, clusters=5, anchors=20, embed_dim=5, beta=10.0,
        )
        complete_accs.append(clustering_accuracy(result.labels, labels))
    complete_mean = float(np.mean(complete_accs))

    # calibration guard: the blobs must already be solvable by one view alone
    dataset, labels = generate_blobs(BlobConfig(
        n=1000, clusters=5, views=3, latent_dim=8, view_dims=(16, 12, 10),
        cluster_spread=1.0, center_scale=8.0, noise_sigma=0.2, seed=0,
    ))
    pilot = clustering_accuracy(kmeans(dataset.views[0], 5, seed=0).assignments, labels)
    assert pilot >= 0.99

    means = {}
    for p in (0.1, 0.2, 0.3, 0.4, 0.5):
        accs = []
        for seed in repeats:
            result, labels = _blob_pipeline(
                seed=seed, missing_rate=p,
                n=1000, clusters=5, anchors=20, embed_dim=5, beta=10.0,
            )
            accs.append(clustering_accuracy(result.labels, labels))
        means[p] = float(np.mean(accs))
        assert means[p] >= 0.95, f"p={p}: mean ACC {means[p]:.4f} < 0.95"
        assert means[p] >= complete_mean - 0.03, f"p={p}: fell more than 3 points below complete"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"mean ACC {min(means.values()):.3f}..{max(means.values()):.3f} across "
               f"p=0.1..0.5 vs complete {complete_mean:.3f} ({elapsed:.1f}s)")


def test_criterion_07_second_order_beats_first_order_on_sign_flip():
    # separable embedding from a real graph, duplicated with negated sign
    dataset, labels = generate_blobs(BlobConfig(
        n=200, clusters=4, views=1, latent_dim=4, view_dims=(8,),
        cluster_spread=0.5, center_scale=10.0, noise_sigma=0.1, seed=7,
    ))
    view = dataset.views[0]
    graph = normalize(build_bipartite(view, select_anchors(view, "kmeans", 12, seed=7), 4))
    f = init_embeddings([graph], 4)[0]
    embeddings = [f, -f]
    index_vectors = [np.arange(200), np.arange(200)]

    y_second = update_consensus(embeddings, index_vectors, 200, 4)
    acc_second = clustering_accuracy(kmeans(y_second, 4, seed=0).assignments, labels)

    y_first = first_order_consensus(embeddings, index_vectors, 200)
    assert np.abs(y_first).max() == 0.0  # entrywise averaging cancels exactly
    acc_first = clustering_accuracy(kmeans(y_first, 4, seed=0).assignments, labels)

    assert acc_second > acc_first
    _report(7, f"sign-flipped duplicate view: second-order ACC {acc_second:.3f} > "
               f"first-order ACC {acc_first:.3f}")


def test_criterion_08_linear_scaling():
    start = time.perf_counter()

    def per_iteration_ms(n, seed=0):
        cfg_data = BlobConfig(
            n=n, clusters=10, views=3, latent_dim=8, view_dims=(16, 12, 10),
            cluster_spread=1.0, center_scale=8.0, noise_sigma=0.2, seed=seed,
        )
        dataset, _ = generate_blobs(cfg_data)
        graphs = [
            normalize(build_bipartite(v, select_anchors(v, "random", 50, seed + i), 5))
            for i, v in enumerate(dataset.views)
        ]
        cfg = RiseConfig(embed_dim=10, beta=1.0, max_iters=6, rel_tol=1e-300, seed=seed)
        result = run_rise(dataset, graphs, cfg, 10)
        return float(np.median(result.iteration_ms[1:]))

    t_small = per_iteration_ms(10_000)
    t_large = per_iteration_ms(20_000)
    ratio = t_large / t_small
    elapsed = time.perf_counter() - start
    assert ratio <= 2.5, f"doubling n scaled per-iteration time by {ratio:.2f}"
    assert elapsed < 120.0
    _report(8, f"per-iteration time {t_small:.0f} ms -> {t_large:.0f} ms "
               f"(ratio {ratio:.2f} <= 2.5, {elapsed:.1f}s)")


def test_criterion_09_metric_oracles():
    # exhaustive: every pair of label vectors with n <= 4 over 3 ids
    for n in range(1, 5):
        for pred in product(range(3), repeat=n):
            for truth in product(range(3), repeat=n):
                assert clustering_accuracy(pred, truth) == brute_force_accuracy(pred, truth)
    rng = np.random.default_rng(109)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        assert clustering_accuracy(pred, truth) == brute_force_accuracy(pred, truth)
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        pred = rng.integers(0, 5, size=n)
        truth = rng.integers(0, 5, size=n)
        assert clustering_accuracy(pred, truth) <= purity(pred, truth) + 1e-12
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 5, size=n)
        assert abs(nmi(a, b) - nmi(b, a)) < 1e-12
        perm_a = rng.permutation(6)[a]
        perm_b = rng.permutation(6)[b]
        assert abs(nmi(perm_a, perm_b) - nmi(a, b)) < 1e-12
    _report(9, "ACC equals exhaustive bijection maximum; ACC <= Purity; "
               "NMI symmetric and relabel-invariant")


def test_criterion_10_graph_invariants():
    rng = np.random.default_rng(110)
    tie_rows = 0
    for trial in range(100):
        n = int(rng.integers(2, 50))
        m = int(rng.integers(2, 15))
        knn = int(rng.integers(1, m))
        if trial % 4 == 0:
            # engineered ties: anchors at equal distances from lattice samples
            samples = rng.integers(0, 2, size=(n, 3)).astype(float)
            anchors = rng.integers(0, 2, size=(m, 3)).astype(float)
        else:
            samples = rng.standard_normal((n, 3))
            anchors = rng.standard_normal((m, 3))
        g = build_bipartite(samples, anchors, knn)
        dense = g.toarray()
        assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-12
        assert ((dense != 0).sum(axis=1) <= knn).all()
        assert (g.weights >= 0).all()
        tie_rows += int((np.abs(g.weights - 1.0 / knn) < 1e-15).all(axis=1).sum())
    assert tie_rows > 0, "tie fallback never exercised"
    # explicit degenerate instance: all anchors equidistant from the sample
    anchors = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    g = build_bipartite(np.zeros((1, 2)), anchors, knn=3)
    assert np.allclose(g.weights[0], 1.0 / 3.0)
    _report(10, f"rows stochastic within 1e-12, <= knn nonzeros, uniform fallback "
                f"hit on {tie_rows} rows")

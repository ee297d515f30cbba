from itertools import product

import numpy as np
import pytest

from rise.datagen import BlobConfig, generate_blobs
from rise.kmeans import _kmeanspp, _repair_empty, kmeans, select_anchors
from rise.seeding import make_rng


def brute_force_best_inertia(points: np.ndarray, n_clusters: int) -> float:
    """Enumerate every assignment of points to clusters; return best inertia."""
    n = points.shape[0]
    best = np.inf
    for assign in product(range(n_clusters), repeat=n):
        assign = np.array(assign)
        if len(set(assign)) < n_clusters:
            continue
        cost = 0.0
        for c in range(n_clusters):
            members = points[assign == c]
            cost += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, cost)
    return best


def test_separable_pair():
    points = np.array([[0.0], [10.0]])
    res = kmeans(points, 2, seed=0)
    assert sorted(res.centers.ravel()) == [0.0, 10.0]
    assert res.inertia == 0.0


def test_single_cluster_closed_form():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((20, 3))
    res = kmeans(points, 1, seed=0)
    assert np.allclose(res.centers[0], points.mean(axis=0))
    expected = float(((points - points.mean(axis=0)) ** 2).sum())
    assert np.isclose(res.inertia, expected)


def test_unit_square_inertia_matches_enumeration():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert np.isclose(brute_force_best_inertia(points, 2), 1.0)
    for seed in range(8):
        res = kmeans(points, 2, seed=seed)
        assert np.isclose(res.inertia, 1.0)


def test_inertia_history_non_increasing():
    rng = np.random.default_rng(7)
    for trial in range(10):
        points = rng.standard_normal((60, 4))
        res = kmeans(points, 5, seed=trial)
        diffs = np.diff(res.inertia_history)
        assert (diffs <= 1e-9).all()


def test_result_beats_initialization():
    rng = np.random.default_rng(2)
    for trial in range(5):
        points = rng.standard_normal((50, 3))
        res = kmeans(points, 4, seed=trial)
        init_centers = _kmeanspp(points, (points * points).sum(axis=1), 4, make_rng(trial))
        d2 = ((points[:, None] - init_centers[None]) ** 2).sum(2)
        init_inertia = float(d2.min(axis=1).sum())
        assert res.inertia <= init_inertia + 1e-9


def _reference_kmeans(points, n_clusters, seed, max_iters=100, tol=1e-6, n_restarts=10):
    """k-means without the shared kernels: one distance pass per k-means++
    candidate and one ``bincount`` per coordinate for the centers."""

    def dist(centers):
        d2 = (
            (points * points).sum(axis=1)[:, None]
            - 2.0 * points @ centers.T
            + (centers * centers).sum(axis=1)[None, :]
        )
        return np.maximum(d2, 0.0)

    def seeding(rng):
        n = points.shape[0]
        centers = np.empty((n_clusters, points.shape[1]))
        centers[0] = points[int(rng.integers(n))]
        if n_clusters == 1:
            return centers
        trials = 2 + int(np.log(n_clusters))
        d2 = ((points - centers[0]) ** 2).sum(axis=1)
        for j in range(1, n_clusters):
            total = float(d2.sum())
            if total > 0.0:
                cand = np.minimum(np.searchsorted(np.cumsum(d2), rng.random(trials) * total), n - 1)
            else:
                cand = rng.integers(n, size=trials)
            best_idx, best_d2, best_pot = -1, None, np.inf
            for idx in cand:
                trial_d2 = np.minimum(d2, ((points - points[int(idx)]) ** 2).sum(axis=1))
                pot = float(trial_d2.sum())
                if pot < best_pot:
                    best_idx, best_d2, best_pot = int(idx), trial_d2, pot
            centers[j] = points[best_idx]
            d2 = best_d2
        return centers

    rng = make_rng(seed)
    best = None
    for _ in range(n_restarts):
        centers = seeding(rng)
        for _ in range(max_iters):
            d2 = dist(centers)
            labels = d2.argmin(axis=1)
            _repair_empty(points, labels, centers, d2)
            counts = np.bincount(labels, minlength=n_clusters)
            new_centers = np.column_stack(
                [np.bincount(labels, weights=points[:, j], minlength=n_clusters) for j in range(points.shape[1])]
            ) / counts[:, None]
            shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
            centers = new_centers
            inertia = float(((points - centers[labels]) ** 2).sum())
            if shift < tol:
                break
        if best is None or inertia < best[0]:
            best = (inertia, labels, centers)
        if best[0] == 0.0:
            break
    return best[1], best[2]


def _equivalence_inputs():
    rng = np.random.default_rng(11)
    blobs = np.concatenate([rng.normal(c, 0.3, (40, 5)) for c in rng.normal(0.0, 5.0, (6, 5))])
    near = np.repeat(rng.standard_normal((8, 3)), 5, axis=0)
    near += 1e-9 * rng.standard_normal(near.shape)
    # k stays at most the number of distinct (or near-distinct) points: splitting
    # a group of 1e-9 near-duplicates, or choosing among exact duplicates once
    # every distinct point is a center, rests on distances below the rounding
    # error of the GEMM form, where the two seedings may pick different rows
    return {
        "blobs": (blobs, 6),
        "duplicates": (np.repeat(rng.standard_normal((7, 4)), 6, axis=0), 5),
        "constant": (np.full((30, 3), 2.5), 4),
        "near-duplicates": (near, 8),
        "offset": (blobs + 1e4, 6),
    }


EQUIVALENCE_INPUTS = _equivalence_inputs()


@pytest.mark.parametrize("name", list(EQUIVALENCE_INPUTS))
def test_matches_reference_kmeans(name):
    points, n_clusters = EQUIVALENCE_INPUTS[name]
    for seed in range(4):
        res = kmeans(points, n_clusters, seed=seed)
        labels, centers = _reference_kmeans(points, n_clusters, seed)
        assert np.array_equal(res.assignments, labels), (name, seed)
        assert np.allclose(res.centers, centers, rtol=0.0, atol=1e-12), (name, seed)


def test_deterministic_per_seed():
    rng = np.random.default_rng(3)
    points = rng.standard_normal((40, 2))
    a = kmeans(points, 3, seed=5)
    b = kmeans(points, 3, seed=5)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centers, b.centers)


def test_duplicate_points_keep_all_clusters_nonempty():
    points = np.zeros((5, 2))
    res = kmeans(points, 3, seed=0)
    assert set(res.assignments) == {0, 1, 2}
    assert res.inertia == 0.0


def test_argument_and_data_errors():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3)
    with pytest.raises(ValueError):
        kmeans(np.array([[np.nan, 0.0]]), 1)


def test_max_iters_zero_still_assigns():
    points = np.array([[0.0], [1.0], [10.0]])
    res = kmeans(points, 2, max_iters=0, seed=0)
    assert res.iterations == 0
    assert res.assignments.shape == (3,)


def test_random_anchor_selection_is_permutation():
    rng = np.random.default_rng(4)
    view = rng.standard_normal((6, 3))
    anchors = select_anchors(view, "random", 6, seed=0)
    assert sorted(map(tuple, anchors)) == sorted(map(tuple, view))


def test_kmeans_anchors_recover_zero_spread_blob_centers():
    cfg = BlobConfig(
        n=60, clusters=3, views=1, latent_dim=2, view_dims=(4,),
        cluster_spread=0.0, noise_sigma=0.0, center_scale=10.0, seed=2,
    )
    dataset, labels = generate_blobs(cfg)
    anchors = select_anchors(dataset.views[0], "kmeans", 3, seed=0)
    true_centers = np.array([dataset.views[0][labels == c][0] for c in range(3)])
    match = sorted(map(tuple, np.round(anchors, 9))) == sorted(map(tuple, np.round(true_centers, 9)))
    assert match


def test_anchor_determinism_and_errors():
    rng = np.random.default_rng(5)
    view = rng.standard_normal((10, 2))
    a = select_anchors(view, "random", 4, seed=3)
    b = select_anchors(view, "random", 4, seed=3)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        select_anchors(view, "random", 11, seed=0)
    with pytest.raises(ValueError):
        select_anchors(view, "grid", 2, seed=0)

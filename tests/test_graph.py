import numpy as np
import pytest

from helpers import random_normalized_graph
from rise.graph import build_bipartite, normalize


def test_hand_evaluated_weights():
    # sample at 0 with anchors 1, 2, 3: squared distances (1, 4, 9), knn=2
    g = build_bipartite(np.array([[0.0]]), np.array([[1.0], [2.0], [3.0]]), knn=2)
    assert np.array_equal(g.indices[0], [0, 1])
    assert np.allclose(g.weights[0], [8 / 13, 5 / 13])
    dense = g.toarray()
    assert np.allclose(dense[0], [8 / 13, 5 / 13, 0.0])


def test_coincident_anchor_dominates_and_row_sums_to_one():
    samples = np.array([[0.0, 0.0]])
    anchors = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 7.0], [9.0, 9.0]])
    g = build_bipartite(samples, anchors, knn=3)
    dense = g.toarray()
    assert dense[0].argmax() == 0
    assert np.isclose(dense[0].sum(), 1.0)


def test_equidistant_anchors_fall_back_to_uniform():
    # all four anchors on a unit circle around the sample: every distance ties
    anchors = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    g = build_bipartite(np.array([[0.0, 0.0]]), anchors, knn=2)
    assert np.allclose(g.weights[0], [0.5, 0.5])


def test_row_stochastic_and_sparse_on_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(2, 12))
        knn = int(rng.integers(1, m))
        if trial % 5 == 0:
            # engineered ties: anchors drawn from a tiny integer lattice
            samples = rng.integers(0, 2, size=(n, 2)).astype(float)
            anchors = rng.integers(0, 2, size=(m, 2)).astype(float)
        else:
            samples = rng.standard_normal((n, 3))
            anchors = rng.standard_normal((m, 3))
        g = build_bipartite(samples, anchors, knn)
        assert np.allclose(g.toarray().sum(axis=1), 1.0, atol=1e-12)
        assert ((g.toarray() != 0).sum(axis=1) <= knn).all()
        assert (g.weights >= 0).all()


def test_degrees_are_raw_column_sums():
    rng = np.random.default_rng(1)
    g = build_bipartite(rng.standard_normal((20, 2)), rng.standard_normal((6, 2)), knn=3)
    assert np.allclose(g.degrees, g.toarray().sum(axis=0))


def test_normalize_identity_degree():
    g = build_bipartite(np.array([[0.0]]), np.array([[0.0], [10.0]]), knn=1)
    assert np.isclose(g.toarray()[0, 0], 1.0)
    ng = normalize(g)
    assert np.isclose(ng.toarray()[0, 0], 1.0)


def test_normalize_degree_two():
    # two samples, each giving weight 1 to the same anchor
    samples = np.array([[0.0], [0.0]])
    anchors = np.array([[0.0], [100.0]])
    g = build_bipartite(samples, anchors, knn=1)
    assert np.allclose(g.toarray()[:, 0], 1.0)
    ng = normalize(g)
    assert np.allclose(ng.toarray()[:, 0], 1 / np.sqrt(2))
    assert np.allclose(ng.degrees, g.degrees)


def test_unused_anchor_column_stays_zero():
    samples = np.array([[0.0], [0.1]])
    anchors = np.array([[0.0], [0.2], [50.0]])
    g = build_bipartite(samples, anchors, knn=2)
    assert np.allclose(g.toarray()[:, 2], 0.0)
    ng = normalize(g)
    assert np.allclose(ng.toarray()[:, 2], 0.0)


def test_double_normalization_rejected():
    g = build_bipartite(np.zeros((2, 1)), np.array([[0.0], [1.0]]), knn=1)
    with pytest.raises(ValueError):
        normalize(normalize(g))


def test_singular_values_bounded_by_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_normalized_graph(rng, n=int(rng.integers(5, 40)), n_anchors=6, knn=3)
        smax = np.linalg.svd(g.toarray(), compute_uv=False)[0]
        assert smax <= 1 + 1e-8


def test_argument_errors():
    samples = np.zeros((3, 2))
    anchors = np.zeros((4, 2))
    with pytest.raises(ValueError):
        build_bipartite(samples, anchors, knn=4)
    with pytest.raises(ValueError):
        build_bipartite(samples, anchors, knn=0)
    with pytest.raises(ValueError):
        build_bipartite(np.array([[np.nan, 0.0]]), anchors, knn=1)


import numpy as np
import pytest

from helpers import rand_orthonormal
from rise.linalg import trunc_svd_left


def test_axis_aligned_truncation():
    z = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    got = trunc_svd_left(z, 1)
    assert np.allclose(got.singular_values, [3.0])
    assert np.allclose(got.left_vectors[:, 0], [1.0, 0.0, 0.0])


def test_identity_truncation():
    got = trunc_svd_left(np.eye(2), 2)
    assert np.allclose(got.singular_values, [1.0, 1.0])
    u = got.left_vectors
    assert np.abs(u.T @ u - np.eye(2)).max() < 1e-12
    assert np.isclose(np.trace(u.T @ np.eye(2) @ u), 2.0)


def test_rank_one_with_completion():
    z = np.ones((2, 2))
    got = trunc_svd_left(z, 2)
    assert np.allclose(got.singular_values, [2.0, 0.0], atol=1e-12)
    assert np.allclose(got.left_vectors[:, 0], [2**-0.5, 2**-0.5])
    u = got.left_vectors
    assert np.abs(u.T @ u - np.eye(2)).max() < 1e-10
    assert np.isclose(np.trace(u.T @ z @ z.T @ u), 4.0)


def test_against_numpy_svd():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        d = int(rng.integers(1, min(n, 12) + 1))
        k = int(rng.integers(1, d + 1))
        z = rng.standard_normal((n, d))
        got = trunc_svd_left(z, k)
        s_ref = np.linalg.svd(z, compute_uv=False)
        assert np.allclose(got.singular_values, s_ref[:k], atol=1e-9)
        u = got.left_vectors
        assert np.abs(u.T @ u - np.eye(k)).max() < 1e-8
        achieved = float(np.linalg.norm(z.T @ u) ** 2)
        assert abs(achieved - float((s_ref[:k] ** 2).sum())) < 1e-8


def test_subspace_optimality_against_random_bases():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((30, 8))
    k = 3
    u = trunc_svd_left(z, k).left_vectors
    best = float(np.linalg.norm(z - u @ (u.T @ z)) ** 2)
    for _ in range(100):
        w = np.linalg.qr(rng.standard_normal((30, k)))[0]
        other = float(np.linalg.norm(z - w @ (w.T @ z)) ** 2)
        assert best <= other + 1e-8


def test_sign_canonicalization():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.standard_normal((10, 4))
        u = trunc_svd_left(z, 3).left_vectors
        for j in range(3):
            col = u[:, j]
            lead = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[lead] > 0


def test_zero_matrix_completion_is_seeded():
    a = trunc_svd_left(np.zeros((6, 3)), 2, seed=11)
    b = trunc_svd_left(np.zeros((6, 3)), 2, seed=11)
    c = trunc_svd_left(np.zeros((6, 3)), 2, seed=12)
    assert np.array_equal(a.left_vectors, b.left_vectors)
    assert not np.array_equal(a.left_vectors, c.left_vectors)
    assert np.allclose(a.singular_values, 0.0)
    u = a.left_vectors
    assert np.abs(u.T @ u - np.eye(2)).max() < 1e-10


_X = np.random.default_rng(5).standard_normal((12, 2))


# n > k in every case, so the completion is not fixed up to sign and the
# seed must show in the output; the zero blocks give the Gram matrix exact
# zero eigenvalues, so completion always runs
@pytest.mark.parametrize(
    "z, k, rank",
    [
        (np.zeros((6, 3)), 2, 0),
        (np.hstack([_X, np.zeros((12, 3))]), 4, 2),
        (np.hstack([_X, _X, np.zeros((12, 2))]), 5, 2),  # duplicate blocks
        (np.hstack([1e6 * _X[:, :1], np.zeros((12, 3))]), 3, 1),
    ],
)
def test_rank_deficient_completion(z, k, rank):
    _assert_seeded_fill(z, k, rank)


def _assert_seeded_fill(z, k, rank):
    u = trunc_svd_left(z, k, seed=3).left_vectors
    scale = float(np.linalg.norm(z))
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
    assert np.linalg.norm(z - u @ (u.T @ z)) <= 1e-10 * scale
    # the columns past the rank are orthogonal to everything the data spans
    assert np.abs(z.T @ u[:, rank:]).max() <= 1e-10 * scale
    again = trunc_svd_left(z, k, seed=3).left_vectors
    other = trunc_svd_left(z, k, seed=4).left_vectors
    assert again.tobytes() == u.tobytes()
    assert other.tobytes() != u.tobytes()


# A(n x r) B(r x d) diag(scales) has rank r < k by construction; its null
# directions sit at the Gram route's rounding floor, so only a cutoff set at
# that floor sends every one of them to the seeded fill
@pytest.mark.parametrize("n, d, r, k", [(30, 8, 3, 6), (12, 6, 1, 4), (50, 12, 2, 5), (200, 40, 9, 10)])
def test_rank_deficient_products_always_fill(n, d, r, k):
    for case in range(20):
        rng = np.random.default_rng(case)
        z = rng.standard_normal((n, r)) @ rng.standard_normal((r, d)) * 10 ** rng.uniform(-3, 3, d)
        s_ref = np.linalg.svd(z, compute_uv=False)
        assert s_ref[r] <= 1e-12 * s_ref[0]
        _assert_seeded_fill(z, k, r)


@pytest.mark.parametrize("n, d, k", [(30, 8, 6), (12, 6, 6), (200, 40, 10)])
def test_full_rank_output_does_not_depend_on_seed(n, d, k):
    # sigma_k / sigma_1 >= 1e-6 stays above the cutoff: no column is drawn
    for case in range(20):
        rng = np.random.default_rng(case)
        s = 10 ** rng.uniform(-3, 3) * np.logspace(0, -6, d)
        z = (rand_orthonormal(rng, n, d) * s) @ rand_orthonormal(rng, d, d).T
        got = trunc_svd_left(z, k, seed=3)
        assert np.allclose(got.singular_values, np.linalg.svd(z, compute_uv=False)[:k], rtol=1e-3, atol=0)
        assert trunc_svd_left(z, k, seed=4).left_vectors.tobytes() == got.left_vectors.tobytes()


def test_near_cutoff_spectrum_stays_orthonormal():
    # singular values straddling the 2*sqrt(d*eps) cutoff: the Gram route loses
    # orthogonality in the third and fourth columns, or drops them below it
    for seed in range(50):
        rng = np.random.default_rng(seed)
        s = [1.0, 1e-3, 10 ** rng.uniform(-9.5, -6), 10 ** rng.uniform(-9.9, -8), 0.0, 0.0]
        z = rng.standard_normal((40, 6)) @ np.diag(s) @ rng.standard_normal((6, 6)).T
        u = trunc_svd_left(z, 4).left_vectors
        assert np.abs(u.T @ u - np.eye(4)).max() <= 1e-10
        ref = np.linalg.svd(z)[0][:, 0]
        assert min(np.abs(u[:, 0] - ref).max(), np.abs(u[:, 0] + ref).max()) <= 1e-10


def test_argument_errors():
    with pytest.raises(ValueError):
        trunc_svd_left(np.ones((3, 2)), 3)
    with pytest.raises(ValueError):
        trunc_svd_left(np.ones((2, 3)), 3)  # k exceeds row count
    with pytest.raises(ValueError):
        trunc_svd_left(np.array([[np.inf, 0.0]]), 1)
    # finite entries whose Gram matrix overflows: numpy warns, then the check raises
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError):
        trunc_svd_left(np.full((4, 2), 1e200), 1)


def test_concatenated_block_equivalence_small():
    # Gram-route trace on stacked blocks equals dense eigensum of the block sum
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        blocks = [rng.standard_normal((n, int(rng.integers(1, 4)))) for _ in range(3)]
        z_cat = np.hstack(blocks)
        k = int(rng.integers(1, min(n, z_cat.shape[1]) + 1))
        u = trunc_svd_left(z_cat, k).left_vectors
        achieved = float(np.linalg.norm(z_cat.T @ u) ** 2)
        dense = sum(b @ b.T for b in blocks)
        expected = float(np.linalg.eigvalsh(dense)[::-1][:k].sum())
        assert abs(achieved - expected) < 1e-8

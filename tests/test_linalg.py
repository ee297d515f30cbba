import numpy as np
import pytest

from rise.linalg import sym_eigh, trunc_svd_left


def test_diagonal_matrix():
    got = sym_eigh(np.diag([2.0, 1.0]))
    assert np.allclose(got.values, [2.0, 1.0])
    assert np.allclose(np.abs(got.vectors), np.eye(2))


def test_two_by_two_exchange():
    got = sym_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(got.values, [1.0, -1.0])
    assert np.allclose(np.abs(got.vectors), np.full((2, 2), 2**-0.5))


def test_identity_degenerate_spectrum():
    got = sym_eigh(np.eye(4))
    assert np.allclose(got.values, 1.0)
    rec = got.vectors @ np.diag(got.values) @ got.vectors.T
    assert np.allclose(rec, np.eye(4))


def test_one_by_one_and_zero():
    got = sym_eigh(np.array([[3.5]]))
    assert got.values[0] == 3.5
    got = sym_eigh(np.zeros((3, 3)))
    assert np.allclose(got.values, 0.0)
    assert np.allclose(got.vectors, np.eye(3))


def test_against_numpy_on_random_matrices():
    rng = np.random.default_rng(0)
    for trial in range(30):
        d = int(rng.integers(2, 50))
        base = rng.standard_normal((d, d))
        s = (base + base.T) / 2
        if trial % 3 == 0:
            # clustered spectrum: harder case for rotation ordering
            vals = np.repeat(rng.standard_normal((d + 2) // 3), 3)[:d]
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            s = q @ np.diag(vals) @ q.T
            s = (s + s.T) / 2
        got = sym_eigh(s)
        ref = np.linalg.eigvalsh(s)[::-1]
        assert np.allclose(got.values, ref, atol=1e-9 * max(1, np.abs(s).max()))
        assert np.abs(got.vectors.T @ got.vectors - np.eye(d)).max() < 1e-10
        rec = got.vectors @ np.diag(got.values) @ got.vectors.T
        assert np.abs(rec - s).max() < 1e-8 * max(1, np.abs(s).max())


def test_input_validation():
    with pytest.raises(ValueError):
        sym_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        sym_eigh(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        sym_eigh(np.zeros((2, 3)))


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
    got = trunc_svd_left(z, k, seed=3)
    u = got.left_vectors
    scale = float(np.linalg.norm(z))
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
    assert np.linalg.norm(z - u @ (u.T @ z)) <= 1e-10 * scale
    # the columns past the rank are orthogonal to everything the data spans
    assert np.abs(z.T @ u[:, rank:]).max() <= 1e-10 * scale
    again = trunc_svd_left(z, k, seed=3).left_vectors
    other = trunc_svd_left(z, k, seed=4).left_vectors
    assert again.tobytes() == u.tobytes()
    assert other.tobytes() != u.tobytes()


def test_near_cutoff_spectrum_stays_orthonormal():
    # singular values straddling RANK_TOL: the Gram route loses orthogonality
    # in the third and fourth columns, or drops them below the cutoff
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

import numpy as np
import pytest

from hyperadapt.errors import NumericalError, ShapeError
from hyperadapt.linalg import lstsq_gram, svd


class TestSvd:
    def test_identity_singular_values(self):
        _, s, _ = svd(np.eye(3))
        assert np.allclose(s, 1.0)

    def test_rank_one_outer(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4)
        b = rng.standard_normal(6)
        _, s, _ = svd(np.outer(a, b))
        assert s[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)
        assert np.all(s[1:] <= 1e-12 * s[0])

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 49))
        u, s, v = svd(m)
        assert np.abs(m - u @ np.diag(s) @ v.T).max() <= 1e-10 * np.linalg.norm(m)
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1e-10
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_eckart_young_truncation(self):
        # Truncating to rank r must cost exactly the discarded singular energy,
        # measured against a direct residual computation.
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 49))
        u, s, v = svd(m)
        for r in range(1, 4):
            approx = u[:, :r] @ np.diag(s[:r]) @ v[:, :r].T
            direct = np.linalg.norm(m - approx)
            assert direct == pytest.approx(np.sqrt((s[r:] ** 2).sum()), rel=1e-9, abs=1e-12)


    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, value):
        m = np.ones((3, 4))
        m[1, 2] = value
        with pytest.raises(NumericalError, match="non-finite"):
            svd(m)


class TestLstsqGram:
    def test_identity_gram(self):
        rhs = np.arange(6.0).reshape(2, 3)
        assert np.allclose(lstsq_gram(np.eye(2), rhs), rhs)

    def test_diagonal_gram(self):
        out = lstsq_gram(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        assert np.allclose(out, [[1.0], [2.0]])

    def test_singular_gram_minimum_norm(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        rhs = np.array([[2.0], [2.0]])
        out = lstsq_gram(gram, rhs)
        assert np.allclose(out, [[1.0], [1.0]], atol=1e-12)
        # independent oracle: numpy's pseudo-inverse
        assert np.allclose(out, np.linalg.pinv(gram) @ rhs, atol=1e-12)

    def test_random_psd_matches_pinv(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((5, 3))
        gram = f.T @ f
        rhs = rng.standard_normal((3, 4))
        assert np.allclose(lstsq_gram(gram, rhs), np.linalg.pinv(gram) @ rhs, atol=1e-10)

    def test_zero_gram_gives_zero(self):
        out = lstsq_gram(np.zeros((2, 2)), np.ones((2, 1)))
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_stack_matches_each_gram(self):
        # Each gram keeps its own cutoff: a singular gram, a zero gram and
        # one far below the others' scale share the stack.
        rng = np.random.default_rng(4)
        f = rng.standard_normal((4, 5, 3))
        f[1, :, 2] = f[1, :, 0]
        f[2] = 0.0
        f[3] *= 1e-8
        grams = f.swapaxes(1, 2) @ f
        rhs = rng.standard_normal((4, 3, 4))
        out = lstsq_gram(grams, rhs)
        for k in range(4):
            assert np.array_equal(out[k], lstsq_gram(grams[k], rhs[k]))

    @pytest.mark.parametrize("gram_shape,rhs_shape", [
        ((2, 3), (2, 1)), ((2, 2), (3, 1)), ((2, 2), (2,)), ((2, 2, 2), (3, 2, 1)),
    ])
    def test_shape_mismatch_rejected(self, gram_shape, rhs_shape):
        with pytest.raises(ShapeError):
            lstsq_gram(np.ones(gram_shape), np.ones(rhs_shape))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_gram_rejected(self, value):
        grams = np.stack([np.eye(2), np.eye(2)])
        grams[1, 0, 1] = value
        with pytest.raises(NumericalError, match="non-finite"):
            lstsq_gram(grams, np.ones((2, 2, 1)))

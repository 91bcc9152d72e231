import numpy as np
import pytest

from hyperadapt.errors import ShapeError
from hyperadapt.nn.conv import (
    adaptive_avg_pool,
    adaptive_avg_pool_backward,
    conv2d,
    conv2d_backward,
    conv_output_size,
)


def conv_bruteforce(x, w, bias=None, stride=1, padding=0, groups=1):
    """Direct six-loop cross-correlation, the independent oracle."""
    sh = sw = stride
    ph = pw = padding
    c, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    og = c_out // groups
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ho = conv_output_size(h, kh, sh, ph)
    wo = conv_output_size(wd, kw, sw, pw)
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        g = o // og
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for cc in range(c_in_g):
                    for u in range(kh):
                        for v in range(kw):
                            acc += w[o, cc, u, v] * xp[g * c_in_g + cc, i * sh + u, j * sw + v]
                out[o, i, j] = acc
        if bias is not None:
            out[o] += bias[o]
    return out


class TestConvForward:
    def test_pointwise_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        assert np.allclose(conv2d(x, w), x)

    def test_ones_kernel_on_constant_input(self):
        out = conv2d(np.ones((1, 5, 5)), np.ones((1, 1, 3, 3)))
        assert out.shape == (1, 3, 3)
        assert np.allclose(out, 9.0)

    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 2, 1), (1, 0, 2), (2, 1, 2),
    ])
    def test_matches_bruteforce(self, stride, padding, groups):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 7, 6))
        w = rng.standard_normal((6, 4 // groups, 3, 3))
        bias = rng.standard_normal(6)
        got = conv2d(x, w, bias, stride, padding, groups)
        want = conv_bruteforce(x, w, bias, stride, padding, groups)
        assert np.abs(got - want).max() <= 1e-12

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 2, 6, 6))
        w = rng.standard_normal((4, 2, 3, 3))
        batched = conv2d(x, w)
        for n in range(3):
            assert np.allclose(batched[n], conv2d(x[n], w))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.ones((3, 5, 5)), np.ones((2, 4, 3, 3)))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            conv2d(np.ones((1, 2, 2)), np.ones((1, 1, 3, 3)))


class TestConvBackward:
    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 1, 2),
    ])
    def test_gradients_match_finite_differences(self, stride, padding, groups):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 6, 6))
        w = rng.standard_normal((4, 4 // groups, 3, 3))
        b = rng.standard_normal(4)
        dout = rng.standard_normal(conv2d(x, w, b, stride, padding, groups).shape)

        def loss(xv, wv, bv):
            return float((conv2d(xv, wv, bv, stride, padding, groups) * dout).sum())

        dx, dw, db = conv2d_backward(x, w, dout, stride, padding, groups, need_db=True)
        eps = 1e-6
        for arr, grad in ((x, dx), (w, dw), (b, db)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi = loss(x, w, b)
                flat[idx] = orig - eps
                lo = loss(x, w, b)
                flat[idx] = orig
                assert gflat[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-5, abs=1e-7)


    @pytest.mark.parametrize("x_shape,w_shape,groups", [
        ((1, 3, 6, 6), (4, 2, 3, 3), 1),
        ((1, 4, 6, 6), (3, 2, 3, 3), 2),
    ])
    def test_channel_and_group_mismatch(self, x_shape, w_shape, groups):
        x, w = np.ones(x_shape), np.ones(w_shape)
        with pytest.raises(ShapeError):
            conv2d_backward(x, w, np.ones((1, w_shape[0], 4, 4)), groups=groups)

    @pytest.mark.parametrize("dout_shape", [
        (1, 3, 4, 4), (1, 4, 3, 4), (1, 4, 4, 1), (2, 4, 4, 4), (4, 4),
    ])
    def test_dout_shape_mismatch(self, dout_shape):
        # (1, 4, 6, 6) input, 3x3 kernel, no padding: the output is (1, 4, 4, 4).
        x, w = np.ones((1, 4, 6, 6)), np.ones((4, 4, 3, 3))
        with pytest.raises(ShapeError):
            conv2d_backward(x, w, np.ones(dout_shape))

    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 1, 2), (2, 0, 4),
    ])
    def test_skipping_dx_keeps_dw_and_db_bits(self, stride, padding, groups):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 7, 6))
        w = rng.standard_normal((8, 4 // groups, 3, 2))
        dout = rng.standard_normal(conv2d(x, w, None, stride, padding, groups).shape)
        dx, dw, db = conv2d_backward(x, w, dout, stride, padding, groups, need_db=True)
        skip_dx, skip_dw, skip_db = conv2d_backward(x, w, dout, stride, padding, groups,
                                                    need_dx=False, need_db=True)
        assert dx is not None and skip_dx is None
        assert np.array_equal(dw, skip_dw) and np.array_equal(db, skip_db)


class TestAdaptivePool:
    def test_identity_when_target_equals_input(self):
        x = np.random.default_rng(4).standard_normal((2, 4, 4))
        assert np.allclose(adaptive_avg_pool(x, (4, 4)), x)

    def test_constant_input(self):
        assert np.allclose(adaptive_avg_pool(np.full((1, 5, 7), 3.0), (2, 2)), 3.0)

    def test_global_mean(self):
        x = np.random.default_rng(5).standard_normal((3, 6, 6))
        out = adaptive_avg_pool(x, (1, 1))
        assert np.allclose(out[:, 0, 0], x.mean(axis=(1, 2)))

    def test_overlapping_windows(self):
        # H=5 -> windows [0,3) and [2,5): row 2 belongs to both
        x = np.arange(5.0).reshape(1, 5, 1)
        out = adaptive_avg_pool(x, (2, 1))
        assert np.allclose(out.ravel(), [1.0, 3.0])

    def test_target_too_large(self):
        with pytest.raises(ShapeError):
            adaptive_avg_pool(np.ones((1, 2, 2)), (3, 3))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 5, 7))
        dout = rng.standard_normal((1, 2, 2, 3))
        dx = adaptive_avg_pool_backward(dout, x.shape, (2, 3))
        eps = 1e-6
        flat = x.reshape(-1)
        for idx in rng.choice(flat.size, size=10, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = float((adaptive_avg_pool(x, (2, 3)) * dout).sum())
            flat[idx] = orig - eps
            lo = float((adaptive_avg_pool(x, (2, 3)) * dout).sum())
            flat[idx] = orig
            assert dx.reshape(-1)[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-6, abs=1e-9)

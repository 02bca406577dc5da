import numpy as np
import pytest

from lidarscene import nn


def _conv_reference(x, w, b, dy):
    """Direct nested-loop same-padded convolution in float64: the output and
    the gradients of sum(y * dy) with respect to x, w and b."""
    x, w, b, dy = (np.asarray(a, dtype=np.float64) for a in (x, w, b, dy))
    nb, _, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros((nb, cout, h, wd))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for n in range(nb):
        for o in range(cout):
            for r in range(h):
                for c in range(wd):
                    patch = xp[n, :, r : r + k, c : c + k]
                    y[n, o, r, c] = np.sum(w[o] * patch) + b[o]
                    dw[o] += dy[n, o, r, c] * patch
                    dxp[n, :, r : r + k, c : c + k] += dy[n, o, r, c] * w[o]
    return y, dxp[:, :, p : p + h, p : p + wd], dw, dy.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-4)])
@pytest.mark.parametrize("ksize", [1, 3])
@pytest.mark.parametrize("hw", [(5, 7), (1, 6), (4, 1), (1, 1)])
def test_conv2d_matches_nested_loop_convolution(dtype, tol, ksize, hw):
    rng = np.random.default_rng(ksize * 100 + hw[0] * 10 + hw[1])
    conv = nn.Conv2d(3, 4, ksize, rng, dtype)
    x = rng.standard_normal((2, 3) + hw).astype(dtype)
    dy = rng.standard_normal((2, 4) + hw).astype(dtype)
    y = conv.forward(x)
    dx = conv.backward(dy)
    y_ref, dx_ref, dw_ref, db_ref = _conv_reference(x, conv.w.value, conv.b.value, dy)
    assert y.dtype == dtype and dx.dtype == dtype and dx.shape == x.shape
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=tol)
    np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=tol)
    np.testing.assert_allclose(conv.w.grad, dw_ref, rtol=0, atol=tol)
    np.testing.assert_allclose(conv.b.grad, db_ref, rtol=0, atol=tol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resampling_backward_is_adjoint_of_forward(dtype):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4, 6)).astype(dtype)
    y = rng.standard_normal((2, 3, 2, 3)).astype(dtype)
    # <avgpool2(x), y> == <x, avgpool2_backward(y)>, and likewise for upsampling
    np.testing.assert_allclose(np.sum(nn.avgpool2(x) * y), np.sum(x * nn.avgpool2_backward(y)), rtol=1e-5)
    np.testing.assert_allclose(np.sum(nn.upnearest2(y) * x), np.sum(y * nn.upnearest2_backward(x)), rtol=1e-5)
    assert nn.avgpool2_backward(y).dtype == dtype and nn.upnearest2_backward(x).dtype == dtype


def test_adam_masked_parameter_starts_like_a_fresh_adam():
    rng = np.random.default_rng(9)
    start = rng.standard_normal((3, 4))
    held = nn.Param(start.copy())
    params = {"trained": nn.Param(rng.standard_normal(5)), "held": held}
    adam = nn.Adam(params, lr=1.0)
    for _ in range(100):
        for p in params.values():
            p.grad[...] = rng.standard_normal(p.grad.shape)
        adam.step(allowed={"trained"})
    np.testing.assert_array_equal(held.value, start)

    fresh = nn.Param(start.copy())
    fresh_adam = nn.Adam({"held": fresh}, lr=1.0)
    for _ in range(10):
        g = rng.standard_normal(start.shape)
        params["trained"].grad[...] = 0.0
        held.grad[...] = g
        fresh.grad[...] = g
        adam.step(allowed=set(params))
        fresh_adam.step(allowed={"held"})
        np.testing.assert_array_equal(held.value, fresh.value)

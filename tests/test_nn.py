import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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
    """Each case runs on a contiguous input and on a channels-last view of the
    same values, which is not contiguous: a 1x1 convolution reshapes its input
    instead of copying it, so it must still read such a view correctly and
    never write into it."""
    rng = np.random.default_rng(ksize * 100 + hw[0] * 10 + hw[1])
    conv = nn.Conv2d(3, 4, ksize, rng, dtype)
    x = rng.standard_normal((2, 3) + hw).astype(dtype)
    dy = rng.standard_normal((2, 4) + hw).astype(dtype)
    y_ref, dx_ref, dw_ref, db_ref = _conv_reference(x, conv.w.value, conv.b.value, dy)
    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert not channels_last.flags.c_contiguous or hw == (1, 1)
    for xin in (x, channels_last):
        conv.w.grad[...] = 0.0
        conv.b.grad[...] = 0.0
        y = conv.forward(xin)
        dx = conv.backward(dy)
        np.testing.assert_array_equal(xin, x)
        assert y.dtype == dtype and dx.dtype == dtype and dx.shape == x.shape
        np.testing.assert_allclose(y, y_ref, rtol=0, atol=tol)
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=tol)
        np.testing.assert_allclose(conv.w.grad, dw_ref, rtol=0, atol=tol)
        np.testing.assert_allclose(conv.b.grad, db_ref, rtol=0, atol=tol)


def _conv_backward_from_cached_columns(conv, x, dy):
    """dW, db and dx as formed when the layer cached its input's columns in
    forward: dW = sum over the batch of dy @ cols^T."""
    b, c, h, w = x.shape
    cols = _im2col_reference(x, conv.ksize)
    dyf = dy.reshape(b, conv.cout, h * w)
    dw = (dyf @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(conv.w.value.shape)
    wt = conv.w.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    return dw, dyf.sum(axis=(0, 2)), (wt @ _im2col_reference(dy, conv.ksize)).reshape(x.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ksize", [1, 3])
@pytest.mark.parametrize(
    "batch, column_bytes",
    [(1, nn.COLUMN_BYTES), (8, nn.COLUMN_BYTES), (16, nn.COLUMN_BYTES), (8, 1), (16, 1)],
    ids=["1", "8", "16", "8-one-sample-slabs", "16-one-sample-slabs"],
)
def test_conv2d_backward_equals_cached_column_formulas(monkeypatch, dtype, ksize, batch, column_bytes):
    """Rebuilding the columns in backward and forming dW as
    (cols @ dy^T)^T gives the same bits as the cached-column formulas, at the
    model's image sizes and channel counts; the pinned training digests
    rest on this. A 3x3 layer builds its columns per slab of samples: with a
    1-byte budget every slab is one sample, and at the default a batch of 8
    with f32 width-16 8x64 columns runs slabs of 3, 3 and 2."""
    monkeypatch.setattr(nn, "COLUMN_BYTES", column_bytes)
    for (h, w), cin, cout in itertools.product([(16, 128), (8, 64), (4, 32)], [1, 2, 8, 16], [1, 16]):
        rng = np.random.default_rng(batch * 1000 + h + cin * 10 + cout)
        conv = nn.Conv2d(cin, cout, ksize, rng, dtype)
        # magnitudes spread over 7 decades, so a change of summation order would show
        x = (rng.standard_normal((batch, cin, h, w)) * np.exp(rng.uniform(-8.0, 8.0, (batch, cin, h, w)))).astype(dtype)
        dy = rng.standard_normal((batch, cout, h, w)).astype(dtype)
        y = conv.forward(x)
        y_ref = conv.w.value.reshape(cout, -1) @ _im2col_reference(x, ksize) + conv.b.value[:, None]
        np.testing.assert_array_equal(y, y_ref.reshape(y.shape))
        dx = conv.backward(dy)
        dw_ref, db_ref, dx_ref = _conv_backward_from_cached_columns(conv, x, dy)
        np.testing.assert_array_equal(conv.w.grad, dw_ref)
        np.testing.assert_array_equal(conv.b.grad, db_ref)
        np.testing.assert_array_equal(dx, dx_ref)


def test_conv2d_forward_keeps_no_column_copy():
    """A 3x3 layer holds its input by reference and no k*k-times copy of it,
    so a forward that keeps its input for ``backward`` (any training forward,
    a frozen layer's too) leaves only its output allocated; with cached
    columns it left 10x that. A sampler's forward runs inside
    ``nn.forward_only()`` and keeps not even the reference."""
    rng = np.random.default_rng(3)
    conv = nn.Conv2d(16, 16, 3, rng, np.float32)
    x = rng.standard_normal((8, 16, 16, 128)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = conv.forward(x)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * y.nbytes


def test_conv2d_column_transients_stay_within_two_slab_budgets():
    """A 3x3 forward, and a backward forming both gradients, at the sampler's
    batch of 16 peak at their output plus two slabs' worth of columns, not
    the whole batch's 9x copy (10.6 MB for this forward)."""
    rng = np.random.default_rng(8)
    conv = nn.Conv2d(8, 8, 3, rng, np.float32)
    x = rng.standard_normal((16, 8, 16, 128)).astype(np.float32)
    dy = rng.standard_normal(x.shape).astype(np.float32)
    tracemalloc.start()
    try:
        peaks = []
        for step in (lambda: conv.forward(x), lambda: conv.backward(dy)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = step()
            peaks.append((tracemalloc.get_traced_memory()[1] - before, out.nbytes))
            del out
    finally:
        tracemalloc.stop()
    for peak, out_bytes in peaks:
        assert peak <= out_bytes + 2 * nn.COLUMN_BYTES


def test_forward_only_keeps_no_inputs_and_restores_the_mode_on_exit_and_on_error():
    rng = np.random.default_rng(6)
    conv, dense, silu, film = nn.Conv2d(2, 3, 3, rng, np.float64), nn.Dense(4, 3, rng, np.float64), nn.SiLU(), nn.FiLM()
    x, v, scale = rng.standard_normal((2, 2, 4, 8)), rng.standard_normal((2, 4)), rng.standard_normal((2, 2))

    def kept():
        conv.forward(x)
        dense.forward(v)
        silu.forward(x)
        film.forward(x, scale, scale)
        return [conv._x, dense._x, silu._cache, film._cache]

    assert all(k is not None for k in kept())
    with nn.forward_only():
        assert all(k is None for k in kept())  # and the inputs kept above are dropped
        with nn.forward_only():
            pass
        assert all(k is None for k in kept())  # a nested block's exit keeps the outer mode
    assert all(k is not None for k in kept())
    with pytest.raises(RuntimeError, match="^inside$"):
        with nn.forward_only():
            raise RuntimeError("inside")
    assert all(k is not None for k in kept())


@pytest.mark.parametrize(
    "flags, calls", [({}, 2), ({"params": False}, 1), ({"inputs": False}, 1)], ids=["both", "dx-only", "dw-only"]
)
def test_conv2d_backward_builds_columns_only_for_the_gradients_it_forms(monkeypatch, flags, calls):
    rng = np.random.default_rng(4)
    conv = nn.Conv2d(2, 4, 3, rng, np.float64)
    x = rng.standard_normal((2, 2, 4, 8))
    conv.forward(x)
    built = []
    im2col = nn._im2col
    monkeypatch.setattr(nn, "_im2col", lambda a, k: built.append(a) or im2col(a, k))
    conv.backward(rng.standard_normal((2, 4, 4, 8)), **flags)
    assert len(built) == calls
    if flags.get("inputs", True) is False:
        assert built[0] is x  # the weight gradient's columns, rebuilt from the kept input


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resampling_backward_is_adjoint_of_forward(dtype):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4, 6)).astype(dtype)
    y = rng.standard_normal((2, 3, 2, 3)).astype(dtype)
    # <avgpool2(x), y> == <x, avgpool2_backward(y)>, and likewise for upsampling
    np.testing.assert_allclose(np.sum(nn.avgpool2(x) * y), np.sum(x * nn.avgpool2_backward(y)), rtol=1e-5)
    np.testing.assert_allclose(np.sum(nn.upnearest2(y) * x), np.sum(y * nn.upnearest2_backward(x)), rtol=1e-5)
    assert nn.avgpool2_backward(y).dtype == dtype and nn.upnearest2_backward(x).dtype == dtype


def _avgpool2_reference(x):
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def _upnearest2_reference(x):
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def _im2col_reference(x, k):
    b, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, h * w)


#: (B, C, H, W) inputs the model's pooling, upsampling and convolutions see:
#: 16x128 frames with widths 8/16/16, as in criterion 10 and the benchmark's
#: score workload, at every level, in training batches of 8 and the sampler's
#: batch of 16; and the default model's 64x1024 sample, one at a time.
_MODEL_SHAPES = [
    (8, 8, 16, 128), (8, 16, 16, 128), (8, 8, 8, 64), (8, 16, 8, 64), (8, 16, 4, 32),
    (16, 8, 16, 128), (16, 16, 8, 64), (16, 16, 4, 32),
    (1, 16, 64, 1024), (1, 32, 32, 512),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _MODEL_SHAPES)
def test_resampling_and_im2col_equal_their_reference_formulas(dtype, shape):
    """Strided pooling and upsampling, the ``np.zeros`` padding and the
    copy-free 1x1 ``_im2col`` give the same bits as the numpy formulas they
    replaced (kept above as references), at the shapes the model uses.

    Pooling is the only one that does arithmetic. It sums a window as
    (x00 + x01) + (x10 + x11), which is the order of numpy's reduction in the
    reference, with three exceptions: a window of four -0.0 pools to -0.0
    where the reference gives +0.0; a window whose partial sums overflow can
    give a different inf or nan; and on an input only 2 pixels wide numpy
    merges the window's axes and sums it in sequence, ((x00 + x01) + x10) +
    x11. The model pools an input that narrow only for an image exactly
    2 ** (levels - 1) pixels wide; no shape here is one."""
    rng = np.random.default_rng(sum(shape))
    # magnitudes spread over 7 decades, so a change of summation order would show
    x = (rng.standard_normal(shape) * np.exp(rng.uniform(-8.0, 8.0, shape))).astype(dtype)
    np.testing.assert_array_equal(nn.avgpool2(x), _avgpool2_reference(x))
    np.testing.assert_array_equal(nn.upnearest2(x), _upnearest2_reference(x))
    np.testing.assert_array_equal(nn.avgpool2_backward(x), _upnearest2_reference(x) / 4.0)
    np.testing.assert_array_equal(nn.upnearest2_backward(x), 4.0 * _avgpool2_reference(x))
    for out in (nn.avgpool2(x), nn.upnearest2(x), nn.avgpool2_backward(x), nn.upnearest2_backward(x)):
        assert out.dtype == dtype and out.flags.c_contiguous
    if shape[0] * shape[2] * shape[3] <= 16 * 16 * 128:  # keep the 9x column copies small
        for k in (1, 3):
            np.testing.assert_array_equal(nn._im2col(x, k), _im2col_reference(x, k))
        conv = nn.Conv2d(shape[1], 8, 3, rng, dtype)
        y_ref = conv.w.value.reshape(8, -1) @ _im2col_reference(x, 3) + conv.b.value[:, None]
        np.testing.assert_array_equal(conv.forward(x), y_ref.reshape((shape[0], 8) + shape[2:]))


@pytest.mark.parametrize("hw", [(1, 4), (3, 4), (4, 1), (4, 5), (1, 1)])
def test_avgpool2_rejects_odd_height_or_width(hw):
    with pytest.raises(ValueError, match="even"):
        nn.avgpool2(np.zeros((2, 3) + hw, dtype=np.float32))


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

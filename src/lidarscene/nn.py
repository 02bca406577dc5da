"""Minimal numpy neural-network layers with hand-written reverse-mode
gradients. Only what the score network needs: 3x3/1x1 convolutions, dense
layers, SiLU, per-sample feature modulation, and 2x pooling/upsampling.

A layer's forward keeps its input, by reference, for ``backward``, which
accumulates parameter gradients and returns the input gradient; so a caller
must not modify an input in place between a layer's forward and backward
(nothing in the package does). Inside ``forward_only()`` (sampling, which
never differentiates) a layer keeps ``None`` instead, which also drops what
its previous forward kept: only the activations the running forward still
uses stay alive (as in Chen et al., 2016, with nothing to recompute).
A convolution's backward computes only the gradients its caller needs:
``params=False`` skips a frozen layer's weight gradient, and
``inputs=False`` the input gradient of a network's input, which nothing
reads (``FiLM.backward`` likewise skips the modulation's gradients). The
base model of a conditional phase is locked, as in ControlNet (Zhang, Rao &
Agrawala, 2023), so its layers only carry gradients through to the adapter.
Gradient correctness is enforced by central finite differences in the test
suite.

``Conv2d`` is one im2col + GEMM (Chellapilla et al., 2006): ``_im2col``
turns the zero-padded input into one column per pixel holding its k x k
patch, so the forward pass and the weight gradient are matrix products with
those columns. A 1x1 patch is the pixel itself, so a 1x1 convolution's
columns are its input, reshaped without a copy. A 3x3 layer's columns are
9x its input, so they are a temporary of each product, not a cache: forward
keeps only its input, and backward rebuilds the columns when it forms a
weight gradient (rematerialisation, Chen et al., 2016). A forward-only call
(sampling) or a frozen layer never holds them. Nor is the whole batch's
column matrix ever built: each product runs over slabs of whole samples
whose columns fit in ``COLUMN_BYTES``, and writes its slab of the output.
That keeps the bits: numpy's stacked matmul already runs one GEMM per
sample, a slab runs the same GEMMs on the same column bytes, and the weight
gradient sums the same per-sample products in one reduction. A batch of one
is never split, however large its columns. The input gradient needs no
scatter back (col2im):
dx[c, y, x] = sum_{o,i,j} w[o, c, i, j] dy[o, y+p-i, x+p-j] with p = k // 2
is itself a same-padded convolution, of dy with the kernel flipped in both
spatial axes and its channel axes swapped, so it runs through ``_im2col``.

Pooling and upsampling work on the four strided 2x2 phases of an image.
``avgpool2`` sums a window as (x00 + x01) + (x10 + x11); the training
digests pinned in the tests depend on that order.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


_KEEP_INPUTS = ContextVar("keep_inputs", default=True)


@contextmanager
def forward_only():
    """Forwards run in this block keep no input for a backward pass; the
    previous mode comes back on exit, also when the block raises."""
    token = _KEEP_INPUTS.set(False)
    try:
        yield
    finally:
        _KEEP_INPUTS.reset(token)


def _kept(value):
    """What a layer keeps of its forward for ``backward``: ``value``, or None
    inside ``forward_only()``."""
    return value if _KEEP_INPUTS.get() else None


class Param:
    """A trainable tensor with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)


def named_params(layer, prefix):
    """Every Param reachable through ``layer``'s attributes, in attribute
    order, named ``prefix.path`` by its attribute path. A list's items are
    numbered after the list's name (``dec0``) and a ``None`` item is skipped.
    Only Params and layers (objects with a ``forward``) are followed, never
    a private attribute such as a forward cache."""
    out = {}
    for attr, value in vars(layer).items():
        if attr.startswith("_"):
            continue
        items = [(f"{attr}{i}", v) for i, v in enumerate(value)] if isinstance(value, list) else [(attr, value)]
        for path, v in items:
            if isinstance(v, Param):
                out[f"{prefix}.{path}"] = v
            elif hasattr(v, "forward"):
                out.update(named_params(v, f"{prefix}.{path}"))
    return out


def _uniform(rng, scale, shape, dtype):
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


def _im2col(x, k):
    """(B, C, H, W) -> (B, C*k*k, H*W): the k x k patch around every pixel of
    the zero-padded input, rows ordered (c, i, j) like a (cout, cin, k, k)
    kernel flattened per output channel. For k == 1 that is ``x`` itself,
    reshaped: a view of ``x`` whenever ``x`` is contiguous."""
    b, c, h, w = x.shape
    if k == 1:
        return x.reshape(b, c, h * w)
    p = k // 2
    xp = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, :, p:-p, p:-p] = x
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (B, C, H, W, k, k) view
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, h * w)


#: Bytes of k x k columns one slab of samples may hold: half of a 2 MB L2.
COLUMN_BYTES = 1 << 20


def _slabs(x, k):
    """(batch slice, samples) for each slab of whole samples of ``x`` whose
    k x k columns fit in COLUMN_BYTES, at least one sample a slab. A batch
    that fits in one slab, or a 1x1 layer's (whose columns are a view), is
    one slab of ``x`` itself."""
    b, col = len(x), x[:1].nbytes * k * k  # one sample's columns
    n = b if k == 1 or b * col <= COLUMN_BYTES else max(1, COLUMN_BYTES // col)
    if n >= b:
        return [(slice(None), x)]
    return [(slice(s, s + n), x[s:s + n]) for s in range(0, b, n)]


def _conv_gemm(wf, x, k):
    """(B, rows, H*W) = wf @ _im2col(x, k) for a (rows, C*k*k) kernel matrix,
    one slab of samples at a time: the convolution without its bias."""
    b, _, h, w = x.shape
    y = np.empty((b, len(wf), h * w), dtype=np.result_type(wf, x))
    for sl, xs in _slabs(x, k):
        np.matmul(wf, _im2col(xs, k), out=y[sl])
    return y


class Conv2d:
    """Same-padded 2D convolution (odd kernel size, stride 1). Forward keeps
    its input by reference for backward, not the input's columns."""

    def __init__(self, cin, cout, ksize, rng, dtype=np.float32):
        self.cin, self.cout, self.ksize = cin, cout, ksize
        scale = 1.0 / np.sqrt(cin * ksize * ksize)
        self.w = Param(_uniform(rng, scale, (cout, cin, ksize, ksize), dtype))
        self.b = Param(_uniform(rng, scale, (cout,), dtype))
        self._x = None

    def forward(self, x):
        b, _, h, w = x.shape
        y = _conv_gemm(self.w.value.reshape(self.cout, -1), x, self.ksize)
        y += self.b.value[:, None]
        self._x = _kept(x)
        return y.reshape(b, self.cout, h, w)

    def backward(self, dy, params=True, inputs=True):
        """Accumulates dW and db unless ``params`` is False; returns dx, or
        None when ``inputs`` is False. Only the weight gradient rebuilds the
        input's columns."""
        x = self._x
        b, c, h, w = x.shape
        if params:
            dyf = dy.reshape(b, self.cout, h * w)
            per_sample = np.empty((b, c * self.ksize ** 2, self.cout), dtype=np.result_type(x, dyf))
            for sl, xs in _slabs(x, self.ksize):
                np.matmul(_im2col(xs, self.ksize), dyf[sl].transpose(0, 2, 1), out=per_sample[sl])
            self.w.grad += per_sample.sum(axis=0).T.reshape(self.w.value.shape)
            self.b.grad += dyf.sum(axis=(0, 2))
        if not inputs:
            return None
        wt = self.w.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        return _conv_gemm(wt, dy, self.ksize).reshape(x.shape)


class Dense:
    def __init__(self, cin, cout, rng, dtype):
        scale = 1.0 / np.sqrt(cin)
        self.w = Param(_uniform(rng, scale, (cin, cout), dtype))
        self.b = Param(_uniform(rng, scale, (cout,), dtype))
        self._x = None

    def forward(self, x):
        self._x = _kept(x)
        return x @ self.w.value + self.b.value

    def backward(self, dy):
        self.w.grad += self._x.T @ dy
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value.T


class SiLU:
    def __init__(self):
        self._cache = None

    def forward(self, x):
        # exp overflow for very negative x still yields the correct 0 limit
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x))
        self._cache = _kept((x, sig))
        return x * sig

    def backward(self, dy):
        x, sig = self._cache
        return dy * (sig * (1.0 + x * (1.0 - sig)))


class FiLM:
    """Per-sample, per-channel (1 + scale) * x + shift modulation."""

    def __init__(self):
        self._cache = None

    def forward(self, x, scale, shift):
        self._cache = _kept((x, scale))
        return x * (1.0 + scale[:, :, None, None]) + shift[:, :, None, None]

    def backward(self, dy, modulation):
        """(dx, dscale, dshift); the last two are None unless ``modulation``."""
        x, scale = self._cache
        dx = dy * (1.0 + scale[:, :, None, None])
        if not modulation:
            return dx, None, None
        dscale = (dy * x).sum(axis=(2, 3))
        dshift = dy.sum(axis=(2, 3))
        return dx, dscale, dshift


def avgpool2(x):
    """2x2 mean pooling of a (B, C, H, W) array with even H and W."""
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"avgpool2 needs an even height and width, got {h}x{w}")
    return ((x[..., 0::2, 0::2] + x[..., 0::2, 1::2]) + (x[..., 1::2, 0::2] + x[..., 1::2, 1::2])) / 4.0


def avgpool2_backward(dy):
    return upnearest2(dy / 4.0)


def upnearest2(x):
    """2x nearest-neighbour upsampling: each pixel fills a 2x2 block."""
    b, c, h, w = x.shape
    y = np.empty((b, c, 2 * h, 2 * w), dtype=x.dtype)
    y[..., 0::2, 0::2] = x
    y[..., 0::2, 1::2] = x
    y[..., 1::2, 0::2] = x
    y[..., 1::2, 1::2] = x
    return y


def upnearest2_backward(dy):
    return 4.0 * avgpool2(dy)


def sinusoidal_embedding(log_sigma, dim, dtype):
    """Sin/cos features of log sigma over geometrically spaced frequencies."""
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, np.log(100.0), half)).astype(dtype)
    ang = np.asarray(log_sigma, dtype=dtype)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


#: Adam's moment decay rates and denominator guard (Kingma & Ba, 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a dict of Params; ``step`` updates only the names it is
    given, and each parameter's bias correction counts only its own updates."""

    def __init__(self, params: dict, lr):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.t = dict.fromkeys(params, 0)

    def step(self, allowed):
        for name in allowed:
            p = self.params[name]
            self.t[name] += 1
            b1t = 1.0 - ADAM_BETA1 ** self.t[name]
            b2t = 1.0 - ADAM_BETA2 ** self.t[name]
            g = p.grad
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            mhat = self.m[name] / b1t
            vhat = self.v[name] / b2t
            p.value -= (self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.value.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad[...] = 0.0

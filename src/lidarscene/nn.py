"""Minimal numpy neural-network layers with hand-written reverse-mode
gradients. Only what the score network needs: 3x3/1x1 convolutions, dense
layers, SiLU, per-sample feature modulation, and 2x pooling/upsampling.

Every layer caches its forward inputs and consumes them in ``backward``,
which accumulates parameter gradients and returns the input gradient.
Gradient correctness is enforced by central finite differences in the
test suite.

``Conv2d`` is one im2col + GEMM (Chellapilla et al., 2006): ``_im2col``
turns the zero-padded input into one column per pixel holding its k x k
patch, so the forward pass and the weight gradient are matrix products with
those columns. The input gradient needs no scatter back (col2im):
dx[c, y, x] = sum_{o,i,j} w[o, c, i, j] dy[o, y+p-i, x+p-j] with p = k // 2
is itself a same-padded convolution, of dy with the kernel flipped in both
spatial axes and its channel axes swapped, so it runs through ``_im2col``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Param:
    """A trainable tensor with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)


def _uniform(rng, scale, shape, dtype):
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


def _im2col(x, k):
    """(B, C, H, W) -> (B, C*k*k, H*W): the k x k patch around every pixel of
    the zero-padded input, rows ordered (c, i, j) like a (cout, cin, k, k)
    kernel flattened per output channel."""
    b, c, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (B, C, H, W, k, k) view
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, h * w)


class Conv2d:
    """Same-padded 2D convolution (odd kernel size, stride 1)."""

    def __init__(self, cin, cout, ksize, rng, dtype=np.float32, zero_init=False):
        self.cin, self.cout, self.ksize = cin, cout, ksize
        scale = 1.0 / np.sqrt(cin * ksize * ksize)
        if zero_init:
            self.w = Param(np.zeros((cout, cin, ksize, ksize), dtype=dtype))
            self.b = Param(np.zeros(cout, dtype=dtype))
        else:
            self.w = Param(_uniform(rng, scale, (cout, cin, ksize, ksize), dtype))
            self.b = Param(_uniform(rng, scale, (cout,), dtype))
        self._cache = None

    def named_params(self, prefix):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}

    def forward(self, x):
        b, _, h, w = x.shape
        cols = _im2col(x, self.ksize)
        y = self.w.value.reshape(self.cout, -1) @ cols + self.b.value[:, None]
        self._cache = (cols, x.shape)
        return y.reshape(b, self.cout, h, w)

    def backward(self, dy):
        cols, xshape = self._cache
        b, c, h, w = xshape
        dyf = dy.reshape(b, self.cout, h * w)
        self.w.grad += (dyf @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.w.value.shape)
        self.b.grad += dyf.sum(axis=(0, 2))
        wt = self.w.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        return (wt @ _im2col(dy, self.ksize)).reshape(xshape)


class Dense:
    def __init__(self, cin, cout, rng, dtype):
        scale = 1.0 / np.sqrt(cin)
        self.w = Param(_uniform(rng, scale, (cin, cout), dtype))
        self.b = Param(_uniform(rng, scale, (cout,), dtype))
        self._x = None

    def named_params(self, prefix):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}

    def forward(self, x):
        self._x = x
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
        self._cache = (x, sig)
        return x * sig

    def backward(self, dy):
        x, sig = self._cache
        return dy * (sig * (1.0 + x * (1.0 - sig)))


class FiLM:
    """Per-sample, per-channel (1 + scale) * x + shift modulation."""

    def __init__(self):
        self._cache = None

    def forward(self, x, scale, shift):
        self._cache = (x, scale)
        return x * (1.0 + scale[:, :, None, None]) + shift[:, :, None, None]

    def backward(self, dy):
        x, scale = self._cache
        dx = dy * (1.0 + scale[:, :, None, None])
        dscale = (dy * x).sum(axis=(2, 3))
        dshift = dy.sum(axis=(2, 3))
        return dx, dscale, dshift


def avgpool2(x):
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avgpool2_backward(dy):
    return upnearest2(dy) / 4.0


def upnearest2(x):
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


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
        for name, p in self.params.items():
            if name not in allowed:
                continue
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

"""Noise-conditioned score model over range images.

A small convolutional encoder/decoder S(x, sigma) predicts the score of
sigma-noised normalized range images, trained with the multi-scale
denoising objective (per-level weight sigma_i^2 on the squared residual
against -(x_noisy - x)/sigma_i^2). Conditioning follows the
adapter-with-zero-fusion recipe: a trainable copy of the encoder reads the
2-channel conditional image and feeds the frozen decoder through
zero-initialized 1x1 convolutions, so the conditional forward starts out
bit-identical to the unconditional one.

Everything is plain numpy with hand-written backward passes (see ``nn``);
training math runs in f32; an f64 model serves finite-difference gradient checks.
A training step's backward computes only the gradients the step updates:
the base is locked while the adapter trains, as in ControlNet (Zhang, Rao &
Agrawala, 2023), so its encoder is not differentiated at all and its
decoder only passes gradients through to the fusion convolutions.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .layout import naming
from .nn import (
    Adam,
    Conv2d,
    Dense,
    FiLM,
    SiLU,
    avgpool2,
    avgpool2_backward,
    forward_only,
    named_params,
    sinusoidal_embedding,
    upnearest2,
    upnearest2_backward,
)


class ScoreNetError(ValueError):
    pass


#: Channels of the generated image (depth) and of the adapter's conditional image (depth, semantic id).
IN_CHANNELS, COND_CHANNELS = 1, 2


@dataclass(frozen=True)
class NoiseSchedule:
    """Geometric noise ladder sigma_max = sigma_1 > ... > sigma_L = sigma_min."""

    sigma_max: float = 1.0
    sigma_min: float = 0.01
    levels: int = 10

    def __post_init__(self):
        if not math.isfinite(self.sigma_max):
            raise ScoreNetError(f"schedule sigma_max must be finite, got {self.sigma_max}")
        if not (self.sigma_max > self.sigma_min > 0) or self.levels < 2:
            raise ScoreNetError("need sigma_max > sigma_min > 0 and levels >= 2")

    @property
    def sigmas(self) -> np.ndarray:
        ratio = (self.sigma_min / self.sigma_max) ** (1.0 / (self.levels - 1))
        return self.sigma_max * ratio ** np.arange(self.levels)


@dataclass(frozen=True)
class ModelConfig:
    widths: tuple = (16, 16, 32, 32)
    emb_dim: int = 32
    blocks_per_level: int = 2
    dtype: object = np.float32

    def __post_init__(self):
        if self.blocks_per_level < 1:
            raise ScoreNetError(f"model blocks_per_level must be >= 1, got {self.blocks_per_level}")
        if not self.widths or min(self.widths) < 1:
            raise ScoreNetError(f"model widths must be a non-empty list of widths >= 1, got {self.widths}")
        # The sinusoidal embedding has 2 * (emb_dim // 2) features.
        if self.emb_dim < 2 or self.emb_dim % 2:
            raise ScoreNetError(f"model emb_dim must be even and >= 2, got {self.emb_dim}")


class ResBlock:
    """conv3x3 -> sigma-FiLM -> SiLU -> conv3x3, plus a (projected) skip."""

    def __init__(self, cin, cout, emb_dim, rng, dtype):
        self.conv1 = Conv2d(cin, cout, 3, rng, dtype)
        self.emb = Dense(emb_dim, 2 * cout, rng, dtype)
        self.film = FiLM()
        self.act = SiLU()
        self.conv2 = Conv2d(cout, cout, 3, rng, dtype)
        self.proj = Conv2d(cin, cout, 1, rng, dtype) if cin != cout else None
        self.cout = cout

    def forward(self, x, emb):
        h = self.conv1.forward(x)
        st = self.emb.forward(emb)
        scale, shift = st[:, : self.cout], st[:, self.cout :]
        h = self.act.forward(self.film.forward(h, scale, shift))
        h = self.conv2.forward(h)
        skip = self.proj.forward(x) if self.proj is not None else x
        return h + skip

    def backward(self, dy, params):
        """(dx, demb); ``params=False`` skips this block's parameter
        gradients and the embedding's (demb is then 0.0)."""
        dh = self.conv2.backward(dy, params)
        dh = self.act.backward(dh)
        dh, dscale, dshift = self.film.backward(dh, params)
        demb = self.emb.backward(np.concatenate([dscale, dshift], axis=1)) if params else 0.0
        dx = self.conv1.backward(dh, params)
        dx = dx + (self.proj.backward(dy, params) if self.proj is not None else dy)
        return dx, demb


class _Level:
    """A stack of residual blocks at one resolution."""

    def __init__(self, cin, cout, emb_dim, count, rng, dtype):
        self.b = [ResBlock(cin if i == 0 else cout, cout, emb_dim, rng, dtype) for i in range(count)]

    def forward(self, x, emb):
        for blk in self.b:
            x = blk.forward(x, emb)
        return x

    def backward(self, dy, params):
        demb_total = 0.0
        for blk in reversed(self.b):
            dy, demb = blk.backward(dy, params)
            demb_total = demb_total + demb
        return dy, demb_total


class _Encoder:
    """Input conv plus per-level residual stacks and a bottleneck stack
    (shared layout between the base model and the conditioning adapter).
    Levels below the first halve resolution with average pooling. Its skips
    are each level's output and, last, the bottleneck's."""

    def __init__(self, cfg: ModelConfig, rng):
        w = cfg.widths
        self.in_conv = Conv2d(IN_CHANNELS, w[0], 3, rng, cfg.dtype)
        self.enc = []
        for i, width in enumerate(w):
            cin = w[0] if i == 0 else w[i - 1]
            self.enc.append(_Level(cin, width, cfg.emb_dim, cfg.blocks_per_level, rng, cfg.dtype))
        self.mid = _Level(w[-1], w[-1], cfg.emb_dim, 1, rng, cfg.dtype)

    def forward(self, x, emb, hint=None):
        h = self.in_conv.forward(x)
        if hint is not None:
            h = h + hint
        skips = []
        for i, lvl in enumerate(self.enc):
            if i > 0:
                h = avgpool2(h)
            h = lvl.forward(h, emb)
            skips.append(h)
        return skips + [self.mid.forward(h, emb)]

    def backward(self, dskips):
        demb = 0.0
        dh, de = self.mid.backward(dskips[-1], True)
        demb = demb + de
        for i in reversed(range(len(self.enc))):
            dh, de = self.enc[i].backward(dh + dskips[i], True)
            demb = demb + de
            if i > 0:
                dh = avgpool2_backward(dh)
        self.in_conv.backward(dh, inputs=False)  # the network's input needs no gradient
        return dh, demb  # dh is the gradient where a hint joins, right after in_conv


#: Name prefixes of the adapter's zero-initialized fusion convolutions.
_FUSION = ("adapter.zero", "adapter.zmid")


class ControlAdapter:
    """Trainable encoder copy + conditional-image hint projection +
    zero-initialized 1x1 fusion convs into the decoder, one per encoder skip:
    ``zero[i]`` for level i's, ``zmid`` for the bottleneck's."""

    def __init__(self, base: "ScoreModel", seed: int = 0):
        cfg = base.config
        rng = np.random.default_rng(seed)
        self.enc = _Encoder(cfg, rng)
        # Start from the (pre)trained base encoder weights.
        for p, q in zip(named_params(self.enc, "").values(), named_params(base.enc, "").values(), strict=True):
            p.value = q.value.copy()
        self.hint = Conv2d(COND_CHANNELS, cfg.widths[0], 3, rng, cfg.dtype)
        self.zero = [Conv2d(w, w, 1, rng, cfg.dtype) for w in cfg.widths]
        self.zmid = Conv2d(cfg.widths[-1], cfg.widths[-1], 1, rng, cfg.dtype)
        for z in (*self.zero, self.zmid):
            z.w.value[...] = z.b.value[...] = 0

    def named_params(self):
        return named_params(self, "adapter")


class ScoreModel:
    """Score network S(x, sigma[, cond]) with manual backprop.

    The decoder starts from the encoder's last skip, the bottleneck, and
    mirrors the encoder levels in reverse width order; each stage consumes
    the matching encoder level's skip additively. When conditioning, the
    adapter's zero-fused control signal for each skip is added after it.
    """

    def __init__(self, config: ModelConfig = ModelConfig(), seed: int = 0):
        self.config = config
        cfg = config
        rng = np.random.default_rng(seed)
        w = cfg.widths
        self.enc = _Encoder(cfg, rng)
        self.embed1 = Dense(cfg.emb_dim, cfg.emb_dim, rng, cfg.dtype)
        self.emb_act = SiLU()
        self.embed2 = Dense(cfg.emb_dim, cfg.emb_dim, rng, cfg.dtype)
        self.dec = []
        self.upproj = []  # upproj[k] maps widths after upsampling at stage k+1
        for k, i in enumerate(reversed(range(len(w)))):
            self.dec.append(_Level(w[i], w[i], cfg.emb_dim, cfg.blocks_per_level, rng, cfg.dtype))
            if i > 0 and w[i] != w[i - 1]:
                self.upproj.append(Conv2d(w[i], w[i - 1], 1, rng, cfg.dtype))
            else:
                self.upproj.append(None)
        self.out_conv = Conv2d(w[0], IN_CHANNELS, 3, rng, cfg.dtype)
        self._adapter = None

    # -- parameters ---------------------------------------------------

    def named_params(self):
        return named_params(self, "base")

    def param_checksum(self) -> str:
        params = self.named_params()
        digest = hashlib.sha256()
        for name in sorted(params):
            digest.update(params[name].value.tobytes())
        return digest.hexdigest()

    # -- forward / backward -------------------------------------------

    def _embed(self, sigma, batch):
        sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (batch,))
        emb = sinusoidal_embedding(np.log(sigma), self.config.emb_dim, self.config.dtype)
        return self.embed2.forward(self.emb_act.forward(self.embed1.forward(emb)))

    def forward(self, x, sigma, cond=None, adapter: ControlAdapter | None = None):
        """Score estimate, same shape as x. With `adapter` and `cond`, runs
        the conditional pathway (identical to the unconditional forward
        while the fusion convolutions are all zero); `cond` without `adapter`
        raises. An ``x`` of the model's dtype is not copied: the layers keep
        it until ``backward``, unless run inside ``nn.forward_only()``."""
        if cond is not None and adapter is None:
            raise ScoreNetError("a conditional image requires an adapter")
        x = np.asarray(x, dtype=self.config.dtype)
        if x.ndim != 4 or x.shape[1] != IN_CHANNELS:
            raise ScoreNetError(f"expected (B, {IN_CHANNELS}, H, W), got {x.shape}")
        depth_div = 2 ** (len(self.config.widths) - 1)
        if x.shape[2] % depth_div or x.shape[3] % depth_div:
            raise ScoreNetError(f"H and W must be divisible by {depth_div}")
        if adapter is not None:
            if cond is None:
                raise ScoreNetError("adapter requires a conditional image")
            cond = np.asarray(cond, dtype=self.config.dtype)
            want = (x.shape[0], COND_CHANNELS) + x.shape[2:]
            if cond.shape != want:
                raise ScoreNetError(f"expected cond of shape {want}, got {cond.shape}")
        emb = self._embed(sigma, x.shape[0])
        skips = self.enc.forward(x, emb)
        controls = None
        if adapter is not None:
            hint = adapter.hint.forward(cond)
            a_skips = adapter.enc.forward(x, emb, hint=hint)
            controls = [z.forward(s) for z, s in zip((*adapter.zero, adapter.zmid), a_skips)]
        n = len(self.config.widths)
        h = skips[n]
        if controls is not None:
            h = h + controls[n]
        for k, lvl in enumerate(self.dec):
            i = n - 1 - k
            if k > 0:
                h = upnearest2(h)
                if self.upproj[k - 1] is not None:
                    h = self.upproj[k - 1].forward(h)
            h = h + skips[i]
            if controls is not None:
                h = h + controls[i]
            h = lvl.forward(h, emb)
        self._adapter = adapter
        return self.out_conv.forward(h)

    def backward(self, dout, allowed=None):
        """Backprop from d(loss)/d(output); call right after a forward that
        kept its inputs (not one inside ``nn.forward_only()``).

        Accumulates the gradients of every parameter group that holds a name
        in ``allowed`` (all of them when None): the base model, the adapter's
        fusion convs, and the adapter's encoder with its hint conv. Other
        groups' gradients are left as they are. A frozen base computes no
        weight gradient and runs no encoder backward: its decoder only
        carries the gradient to the fusion convs."""
        x = self.out_conv._x  # the last layer of every forward
        if x is None:
            raise ScoreNetError("backward needs a forward that kept its inputs")
        dout = np.asarray(dout, dtype=self.config.dtype)
        want = (x.shape[0], IN_CHANNELS) + x.shape[2:]
        if dout.shape != want:
            raise ScoreNetError(f"expected dout of shape {want}, got {dout.shape}")
        adapter = self._adapter
        base = _trains(allowed, "base.")
        fusion = adapter is not None and _trains(allowed, _FUSION)
        control = adapter is not None and _trains(allowed, ("adapter.enc", "adapter.hint"))
        n = len(self.config.widths)
        demb = 0.0
        dh = self.out_conv.backward(dout, base)
        # Skips and controls add to the same decoder inputs: dskips serves both.
        dskips = [0.0] * (n + 1)
        for k in reversed(range(len(self.dec))):
            i = n - 1 - k
            dh, de = self.dec[k].backward(dh, base)
            demb = demb + de
            dskips[i] = dskips[i] + dh
            if k > 0:
                if self.upproj[k - 1] is not None:
                    dh = self.upproj[k - 1].backward(dh, base)
                dh = upnearest2_backward(dh)
        dskips[n] = dh  # gradient w.r.t. the decoder's initial state (bottleneck + control)
        if base:
            _, de = self.enc.backward(dskips)
            demb = demb + de
        if fusion or control:
            da_skips = [z.backward(ds, fusion, control) for z, ds in zip((*adapter.zero, adapter.zmid), dskips)]
            if control:
                dhint, de = adapter.enc.backward(da_skips)
                demb = demb + de
                adapter.hint.backward(dhint, inputs=False)  # the condition needs no gradient
        if base:  # the embedding MLP belongs to the base
            self.embed1.backward(self.emb_act.backward(self.embed2.backward(demb)))


def _trains(allowed, prefixes):
    """Whether ``allowed`` (None: every name) holds a name starting with ``prefixes``
    (a string or a tuple of them, as for ``str.startswith``)."""
    return allowed is None or any(name.startswith(prefixes) for name in allowed)


# ---------------------------------------------------------------------------
# Losses


def loss_uncond(model: ScoreModel, batch, schedule: NoiseSchedule, rng):
    """Denoising score-matching loss (level drawn uniformly per sample,
    per-term weight sigma^2/2). Accumulates parameter gradients."""
    return loss_cond(model, None, batch, None, schedule, rng)


def loss_cond(model: ScoreModel, adapter: ControlAdapter | None, batch, cond_batch, schedule, rng, allowed=None):
    """Score-matching loss through the conditional pathway (the
    unconditional one when ``adapter`` is None). Accumulates the gradients
    of the parameters named in ``allowed`` (see ``ScoreModel.backward``;
    every parameter's when None)."""
    batch = np.asarray(batch, dtype=model.config.dtype)
    if batch.shape[0] == 0:
        raise ScoreNetError("empty batch")
    levels = rng.integers(0, schedule.levels, size=batch.shape[0])
    sigma = schedule.sigmas[levels].astype(batch.dtype)
    noise = rng.standard_normal(batch.shape).astype(batch.dtype)
    noisy = batch + sigma[:, None, None, None] * noise
    score = model.forward(noisy, sigma, cond=cond_batch, adapter=adapter)
    resid = score + noise / sigma[:, None, None, None]
    per_sample = 0.5 * sigma**2 * (resid.astype(np.float64) ** 2).sum(axis=(1, 2, 3))
    loss = float(per_sample.mean())
    if not math.isfinite(loss):
        raise ScoreNetError("non-finite loss")
    dscore = (sigma**2)[:, None, None, None] * resid / batch.shape[0]
    model.backward(dscore, allowed)
    return loss


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    lr: float = 1e-3
    batch_size: int = 8
    seed: int = 0
    phase: str = "uncond"  # uncond | a | b | ab
    log_every: int = 100

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ScoreNetError(f"need steps >= 0 and batch_size >= 1, got {self.steps} and {self.batch_size}")
        if not 0 < self.lr < math.inf:  # False for NaN too
            raise ScoreNetError(f"train lr must be finite and > 0, got {self.lr}")
        if self.phase not in ("uncond", "a", "b", "ab"):
            raise ScoreNetError(f"unknown phase {self.phase!r}")
        if self.log_every < 0:
            raise ScoreNetError(f"train log_every must be >= 0, got {self.log_every}")


@dataclass
class TrainState:
    model: ScoreModel
    schedule: NoiseSchedule
    adapter: ControlAdapter | None = None
    step: int = 0

    def params(self):
        """Every parameter by name: the base model's, then the adapter's."""
        out = self.model.named_params()
        if self.adapter is not None:
            out.update(self.adapter.named_params())
        return out


#: phase -> name prefixes of the parameters it trains.
_TRAINED = {"uncond": ("base.",), "a": _FUSION, "b": ("adapter.",)}


def _allowed_params(state: TrainState, phase: str):
    if phase != "uncond" and state.adapter is None:
        raise ScoreNetError("conditional phase requires an adapter")
    return {name for name in state.params() if name.startswith(_TRAINED[phase])}


def train(state: TrainState, dataset, config: TrainConfig, log=None):
    """Adam training loop, deterministic given the seed. `dataset` is an
    (N, C, H, W) array for phase 'uncond', or a tuple (images, conds) for
    conditional phases. Phase 'ab' splits the steps evenly between
    zero-conv-only and full-adapter fine-tuning. Adam's moments start afresh
    on each call. ``log`` gets the loss of every ``log_every``-th step (of none
    when log_every is 0). A non-finite loss raises ScoreNetError naming the
    step and phase; parameters keep the values of the last good step."""
    conditional = config.phase != "uncond"
    images, conds = map(np.asarray, dataset) if conditional else (np.asarray(dataset), None)
    adapter = state.adapter if conditional else None
    if len(images) == 0:
        raise ScoreNetError("empty dataset")
    if conditional and len(conds) != len(images):
        raise ScoreNetError(f"dataset has {len(images)} images but {len(conds)} conditions")

    optimizer = Adam(state.params(), lr=config.lr)
    rng = np.random.default_rng(np.random.Philox(config.seed))
    phases = ["a", "b"] if config.phase == "ab" else [config.phase]
    steps_per_phase = [config.steps // 2, config.steps - config.steps // 2] if config.phase == "ab" else [config.steps]

    losses = []
    for phase, steps in zip(phases, steps_per_phase):
        allowed = _allowed_params(state, phase)
        for _ in range(steps):
            idx = rng.integers(0, len(images), size=config.batch_size)
            optimizer.zero_grad()
            with naming(f"training failed at step {state.step + 1} (phase {phase})", ScoreNetError):
                cond = conds[idx] if conditional else None
                loss = loss_cond(state.model, adapter, images[idx], cond, state.schedule, rng, allowed)
            optimizer.step(allowed)
            state.step += 1
            losses.append(loss)
            if log is not None and config.log_every > 0 and state.step % config.log_every == 0:
                log(f"step {state.step} phase {phase} loss {loss:.4f}")
    return losses


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SamplerConfig:
    eps0: float = 2e-5
    steps_per_level: int = 5

    def __post_init__(self):
        if not 0 < self.eps0 < math.inf:  # False for NaN too
            raise ScoreNetError(f"sampler eps0 must be finite and > 0, got {self.eps0}")
        if self.steps_per_level < 1:
            raise ScoreNetError(f"sampler steps_per_level must be >= 1, got {self.steps_per_level}")


def sample_annealed_langevin(score_fn, schedule: NoiseSchedule, config: SamplerConfig, shape, seed=0):
    """Annealed Langevin dynamics: x starts uniform in [0,1]; at each level
    alpha = eps0 * sigma_i^2 / sigma_L^2 and x takes `steps_per_level`
    Langevin steps; a final denoising step x += sigma_L^2 * S(x, sigma_L)
    finishes. `score_fn(x, sigma)` supplies the score."""
    rng = np.random.default_rng(np.random.Philox(seed))
    x = rng.random(shape)
    sigmas = schedule.sigmas
    sig_last2 = sigmas[-1] ** 2
    for sigma in sigmas:
        alpha = config.eps0 * sigma**2 / sig_last2
        for _ in range(config.steps_per_level):
            z = rng.standard_normal(shape)
            x = x + (alpha / 2.0) * score_fn(x, sigma) + math.sqrt(alpha) * z
        if not np.all(np.isfinite(x)):
            raise ScoreNetError("non-finite sampler state")
    x = x + sig_last2 * score_fn(x, sigmas[-1])
    if not np.all(np.isfinite(x)):
        raise ScoreNetError("non-finite sampler state")
    return x


def model_score_fn(model: ScoreModel, adapter: ControlAdapter | None = None, cond=None):
    """Adapt a ScoreModel (optionally conditioned) to the sampler's
    score_fn(x, sigma) interface for a (B, C, H, W) batch x; ``cond`` holds
    one condition per row of x, as ``ScoreModel.forward`` requires. Each call
    runs inside ``nn.forward_only()``, since no sampler differentiates the
    score: it keeps no activation and drops those a training forward left
    in the layers it runs, so ``model.backward`` raises until the next
    ``ScoreModel.forward``."""

    def fn(x, sigma):
        with forward_only():
            return model.forward(x, sigma, cond=cond, adapter=adapter).astype(np.float64)

    return fn


# ---------------------------------------------------------------------------
# Checkpoints: LDCK binary format


_CKPT_MAGIC = b"LDCK"
_CKPT_VERSION = 1


def _block_fields(cls):
    """Fields of ``ModelConfig`` or ``NoiseSchedule`` kept in the config
    block; a tuple field is written comma-separated."""
    return [f for f in fields(cls) if f.name != "dtype"]


def _config_block(state: TrainState):
    lines = []
    for obj in (state.model.config, state.schedule):
        for f in _block_fields(type(obj)):
            value = getattr(obj, f.name)
            text = ",".join(str(v) for v in value) if isinstance(f.default, tuple) else str(value)
            lines.append(f"{f.name}={text}")
    lines += [f"step={state.step}", f"has_adapter={int(state.adapter is not None)}"]
    return ("\n".join(lines) + "\n").encode()


def _from_block(cls, meta):
    """``cls`` built from its fields in the config block."""
    kwargs = {}
    for f in _block_fields(cls):
        text = meta[f.name]
        kwargs[f.name] = tuple(int(v) for v in text.split(",")) if isinstance(f.default, tuple) else type(f.default)(text)
    return cls(**kwargs)


def save_checkpoint(path, state: TrainState):
    """LDCK: magic, u32 version, u32 tensor count; per tensor u16 name
    length, name, u8 ndim, u32 dims, f32 data; then a key=value block.
    Written to `path`.tmp and renamed over `path`, so a failed save keeps the
    previous file. Resume is not exact: the Adam moments and step counts and
    the data RNG are not saved, so a resumed run starts them afresh."""
    tensors = {name: p.value for name, p in state.params().items()}
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC)
            f.write(struct.pack("<II", _CKPT_VERSION, len(tensors)))
            for name in sorted(tensors):
                value = np.asarray(tensors[name], dtype=np.float32)
                nb = name.encode()
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<B", value.ndim))
                f.write(struct.pack(f"<{value.ndim}I", *value.shape))
                f.write(value.astype("<f4").tobytes())
            f.write(_config_block(state))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):  # absent when open() itself failed
            os.remove(tmp)
        raise


def load_checkpoint(path) -> TrainState:
    """Read an LDCK file; a truncated or corrupt file raises ScoreNetError."""
    try:
        with naming(path, ScoreNetError):
            return _read_checkpoint(path)
    except ScoreNetError:
        raise
    except (struct.error, KeyError, ValueError) as exc:
        raise ScoreNetError(f"{path}: truncated or corrupt checkpoint ({exc!r})") from exc


def _read_checkpoint(path) -> TrainState:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _CKPT_MAGIC:
            raise ScoreNetError(f"bad magic {magic!r}, expected LDCK")
        header = f.read(8)
        if len(header) < 8:
            raise ScoreNetError("truncated header")
        version, count = struct.unpack("<II", header)
        if version != _CKPT_VERSION:
            raise ScoreNetError(f"unsupported version {version}")
        tensors = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", f.read(2))
            name = f.read(nlen).decode()
            (ndim,) = struct.unpack("<B", f.read(1))
            dims = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
            nbytes = 4 * math.prod(dims)
            if nbytes > os.fstat(f.fileno()).st_size - f.tell():
                raise ScoreNetError(f"truncated tensor {name} for its {dims} header")
            tensors[name] = np.frombuffer(f.read(nbytes), dtype="<f4").reshape(dims)
        block = f.read().decode()
    # The block is newline-terminated, so a cut inside it shows.
    if not block.endswith("\n"):
        raise ScoreNetError("truncated config block")
    meta = dict(line.split("=", 1) for line in block.splitlines() if "=" in line)

    schedule = _from_block(NoiseSchedule, meta)
    model = ScoreModel(_from_block(ModelConfig, meta))
    adapter = ControlAdapter(model) if meta["has_adapter"] == "1" else None
    state = TrainState(model, schedule, adapter, step=int(meta["step"]))
    params = state.params()
    if set(params) != set(tensors):
        unknown = set(tensors) - set(params)
        missing = set(params) - set(tensors)
        raise ScoreNetError(f"tensor name mismatch (unknown={sorted(unknown)[:3]}, missing={sorted(missing)[:3]})")
    for name, p in params.items():
        if tensors[name].shape != p.value.shape:
            raise ScoreNetError(f"tensor {name} has shape {tensors[name].shape}, expected {p.value.shape}")
        p.value = tensors[name].astype(np.float32).copy()
    return state

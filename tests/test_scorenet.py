import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lidarscene import scorenet
from lidarscene.scorenet import (
    ControlAdapter,
    ModelConfig,
    NoiseSchedule,
    SamplerConfig,
    ScoreModel,
    ScoreNetError,
    TrainConfig,
    TrainState,
    load_checkpoint,
    loss_cond,
    loss_uncond,
    model_score_fn,
    sample_annealed_langevin,
    save_checkpoint,
    train,
)

from gradcheck import finite_diff_check
from workloads import C10_SPEC, Score

TINY64 = ModelConfig(widths=(4, 4), emb_dim=8, blocks_per_level=1, dtype=np.float64)
SMALL32 = ModelConfig(widths=(8, 8, 16), emb_dim=16, blocks_per_level=1)


def test_schedule_geometric():
    s = NoiseSchedule(1.0, 0.01, 10)
    sig = s.sigmas
    assert sig[0] == pytest.approx(1.0)
    assert sig[-1] == pytest.approx(0.01)
    ratios = sig[1:] / sig[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    assert np.all(np.diff(sig) < 0)


def test_schedule_validation():
    with pytest.raises(ScoreNetError):
        NoiseSchedule(0.01, 1.0, 10)
    with pytest.raises(ScoreNetError):
        NoiseSchedule(1.0, 0.01, 1)
    for sigma_max in (math.inf, math.nan):
        with pytest.raises(ScoreNetError, match="schedule sigma_max must be finite"):
            NoiseSchedule(sigma_max, 0.01, 10)


def test_forward_shape_and_validation():
    model = ScoreModel(SMALL32, seed=0)
    x = np.random.default_rng(0).standard_normal((2, 1, 8, 16)).astype(np.float32)
    out = model.forward(x, 0.5)
    assert out.shape == x.shape
    with pytest.raises(ScoreNetError):
        model.forward(x[:, :, :6], 0.5)  # height not divisible
    with pytest.raises(ScoreNetError):
        model.forward(x[:, 0], 0.5)  # missing channel axis


def count_params(model, adapter=None):
    params = dict(model.named_params())
    if adapter is not None:
        params.update(adapter.named_params())
    return sum(p.value.size for p in params.values())


def test_gradient_check_unconditional():
    model = ScoreModel(TINY64, seed=1)
    assert count_params(model) <= 5000
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 1, 4, 8))
    target = rng.standard_normal((2, 1, 4, 8))
    err = finite_diff_check(model, x, 0.3, target)
    assert err < 1e-4, f"max relative gradient error {err}"


def test_gradient_check_conditional():
    model = ScoreModel(TINY64, seed=3)
    adapter = ControlAdapter(model, seed=4)
    # move fusion convs off zero so their gradients are exercised
    rng = np.random.default_rng(5)
    for name, p in adapter.named_params().items():
        if ".zero" in name or ".zmid" in name:
            p.value = rng.standard_normal(p.value.shape) * 0.1
    x = rng.standard_normal((2, 1, 4, 8))
    cond = rng.standard_normal((2, 2, 4, 8))
    target = rng.standard_normal((2, 1, 4, 8))
    err = finite_diff_check(model, x, 0.7, target, cond=cond, adapter=adapter)
    assert err < 1e-4, f"max relative gradient error {err}"


def test_zero_init_adapter_identity():
    model = ScoreModel(SMALL32, seed=6)
    adapter = ControlAdapter(model, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal((1, 1, 8, 16)).astype(np.float32)
        cond = rng.standard_normal((1, 2, 8, 16)).astype(np.float32)
        sigma = float(rng.uniform(0.01, 1.0))
        base = model.forward(x, sigma)
        conditional = model.forward(x, sigma, cond=cond, adapter=adapter)
        np.testing.assert_array_equal(base, conditional)


def make_dataset(n=16, shape=(1, 8, 16), seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n,) + shape).astype(np.float32)


def test_train_unconditional_loss_decreases():
    model = ScoreModel(SMALL32, seed=9)
    schedule = NoiseSchedule()
    state = TrainState(model=model, schedule=schedule)
    data = make_dataset()
    losses = train(state, data, TrainConfig(steps=80, lr=2e-3, batch_size=4, seed=1))
    assert len(losses) == 80
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_train_deterministic():
    def run():
        model = ScoreModel(SMALL32, seed=10)
        state = TrainState(model=model, schedule=NoiseSchedule())
        losses = train(state, make_dataset(), TrainConfig(steps=10, batch_size=4, seed=2))
        return losses, model.param_checksum()

    la, ca = run()
    lb, cb = run()
    assert la == lb
    assert ca == cb


def test_conditional_training_freezes_base():
    model = ScoreModel(SMALL32, seed=11)
    adapter = ControlAdapter(model, seed=12)
    schedule = NoiseSchedule()
    state = TrainState(model=model, schedule=schedule, adapter=adapter)
    images = make_dataset(seed=3)
    conds = make_dataset(shape=(2, 8, 16), seed=4)
    before = model.param_checksum()
    adapter_before = {k: p.value.copy() for k, p in adapter.named_params().items()}
    train(state, (images, conds), TrainConfig(steps=10, batch_size=4, seed=5, phase="b"))
    assert model.param_checksum() == before
    changed = [
        k for k, p in adapter.named_params().items() if not np.array_equal(p.value, adapter_before[k])
    ]
    assert changed  # the adapter actually moved


def test_phase_a_updates_only_fusion():
    model = ScoreModel(SMALL32, seed=13)
    adapter = ControlAdapter(model, seed=14)
    state = TrainState(model=model, schedule=NoiseSchedule(), adapter=adapter)
    images = make_dataset(seed=6)
    conds = make_dataset(shape=(2, 8, 16), seed=7)
    before = {k: p.value.copy() for k, p in adapter.named_params().items()}
    base_before = model.param_checksum()
    train(state, (images, conds), TrainConfig(steps=5, batch_size=4, seed=8, phase="a"))
    fusion = scorenet._allowed_params(state, "a")
    for k, p in adapter.named_params().items():
        if k in fusion:
            continue
        np.testing.assert_array_equal(p.value, before[k])
    assert model.param_checksum() == base_before


def test_loss_rejects_empty_batch():
    model = ScoreModel(SMALL32, seed=15)
    with pytest.raises(ScoreNetError):
        loss_uncond(model, np.empty((0, 1, 8, 16)), NoiseSchedule(), np.random.default_rng(0))


def test_loss_scale_matches_definition():
    """For any model output S, loss = mean_b 0.5 sigma^2 ||S + n/sigma||^2;
    verify against a manual recomputation with a stubbed forward."""
    model = ScoreModel(SMALL32, seed=16)
    schedule = NoiseSchedule()

    captured = {}
    orig_forward = model.forward

    def capture_forward(x, sigma, **kw):
        out = orig_forward(x, sigma, **kw)
        captured["x"] = np.array(x)
        captured["sigma"] = np.broadcast_to(np.asarray(sigma), (x.shape[0],)).astype(np.float64)
        captured["score"] = out.astype(np.float64)
        return out

    model.forward = capture_forward
    rng = np.random.default_rng(np.random.Philox(9))
    batch = make_dataset(n=4, seed=10)
    loss = loss_uncond(model, batch, schedule, rng)
    sig = captured["sigma"]
    noise = (captured["x"] - batch) / sig[:, None, None, None]
    resid = captured["score"] + noise / sig[:, None, None, None]
    expect = float(np.mean(0.5 * sig**2 * (resid**2).sum(axis=(1, 2, 3))))
    assert loss == pytest.approx(expect, rel=1e-5)


def test_langevin_analytic_gaussian_oracle():
    mu, s = 0.5, 0.25

    def score(x, sigma):
        return (mu - x) / (s * s)

    schedule = NoiseSchedule(1.0, 0.01, 10)
    config = SamplerConfig(eps0=5e-5, steps_per_level=100)
    x = sample_annealed_langevin(score, schedule, config, shape=(4000, 4), seed=0)
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    assert np.abs(means - mu).max() < 0.05 * s
    assert np.abs(stds**2 - s * s).max() < 0.1 * s * s


def test_langevin_deterministic_per_seed():
    def score(x, sigma):
        return -x

    schedule = NoiseSchedule(1.0, 0.1, 3)
    cfg = SamplerConfig(eps0=1e-4, steps_per_level=3)
    a = sample_annealed_langevin(score, schedule, cfg, (5, 2), seed=3)
    b = sample_annealed_langevin(score, schedule, cfg, (5, 2), seed=3)
    c = sample_annealed_langevin(score, schedule, cfg, (5, 2), seed=4)
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()


def test_model_score_fn_shapes():
    model = ScoreModel(SMALL32, seed=17)
    fn = model_score_fn(model)
    batch = np.random.default_rng(0).random((3, 1, 8, 16))
    assert fn(batch, 0.5).shape == batch.shape


@pytest.mark.parametrize("conds", [0, 1, 3])
def test_model_score_fn_rejects_a_condition_batch_unlike_x(conds):
    model = ScoreModel(TINY64, seed=17)
    fn = model_score_fn(model, ControlAdapter(model, seed=18), np.zeros((conds, 2, 8, 16)))
    message = re.escape(f"expected cond of shape (2, 2, 8, 16), got ({conds}, 2, 8, 16)")
    with pytest.raises(ScoreNetError, match=f"^{message}$"):
        fn(np.zeros((2, 1, 8, 16)), 0.5)


def test_checkpoint_roundtrip(tmp_path):
    model = ScoreModel(SMALL32, seed=18)
    adapter = ControlAdapter(model, seed=19)
    state = TrainState(model=model, schedule=NoiseSchedule(0.8, 0.02, 7), adapter=adapter, step=42)
    path = tmp_path / "model.ldck"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.step == 42
    assert loaded.schedule == NoiseSchedule(0.8, 0.02, 7)
    assert loaded.adapter is not None
    orig = dict(model.named_params())
    orig.update(adapter.named_params())
    new = dict(loaded.model.named_params())
    new.update(loaded.adapter.named_params())
    assert set(orig) == set(new)
    for name in orig:
        np.testing.assert_array_equal(orig[name].value, new[name].value)


def test_checkpoint_tensor_names_are_pinned():
    # Tensor names are part of the LDCK file format: a renamed parameter
    # would make every existing checkpoint unreadable.
    model = ScoreModel(ModelConfig(widths=(8, 16, 16), emb_dim=16, blocks_per_level=1))
    state = TrainState(model, NoiseSchedule(), ControlAdapter(model))
    names = sorted(state.params())
    assert len(names) == 92
    assert [n for n in names if n.startswith(("adapter.zero", "adapter.zmid"))] == [
        f"adapter.{z}.{p}" for z in ("zero0", "zero1", "zero2", "zmid") for p in ("b", "w")
    ]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == "55fe861c2c0180321d3e2a520b56d1637780355098d3bf34f4b3568ab4f842a3"


def test_default_model_tensor_names_are_pinned():
    # The default model (16/16/32/32, two blocks per level) with its adapter:
    # the names in file order, and in the order ``TrainState.params`` lists them.
    model = ScoreModel(ModelConfig())
    params = TrainState(model, NoiseSchedule(), ControlAdapter(model)).params()
    assert len(params) == 184
    sha = hashlib.sha256
    assert sha("\n".join(sorted(params)).encode()).hexdigest() == (
        "dcb3d2b87e2ffe68f549ec70f1bb2a37a9754636b35564625ba9a756a175af90"
    )
    assert sha("\n".join(params).encode()).hexdigest() == (
        "deefb9c8d9fcb3f56ebc668729fd46f759838910e3f8affc26adabc6f0c9c8a1"
    )


def test_checkpoint_no_adapter(tmp_path):
    model = ScoreModel(SMALL32, seed=20)
    state = TrainState(model=model, schedule=NoiseSchedule())
    path = tmp_path / "base.ldck"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.adapter is None
    assert loaded.model.param_checksum() == model.param_checksum()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ldck"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ScoreNetError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model = ScoreModel(SMALL32, seed=21)
    state = TrainState(model=model, schedule=NoiseSchedule())
    path = tmp_path / "full.ldck"
    save_checkpoint(path, state)
    clipped = tmp_path / "clipped.ldck"
    clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(ScoreNetError):
        load_checkpoint(clipped)


def test_checkpoint_truncated_at_every_offset_raises_scorenet_error(tmp_path):
    model = ScoreModel(ModelConfig(widths=(2, 2), emb_dim=4, blocks_per_level=1), seed=24)
    state = TrainState(model=model, schedule=NoiseSchedule(), adapter=ControlAdapter(model, seed=25), step=12)
    path = tmp_path / "full.ldck"
    save_checkpoint(path, state)
    full = path.read_bytes()
    clipped = tmp_path / "clipped.ldck"
    for size in range(len(full)):
        clipped.write_bytes(full[:size])
        with pytest.raises(ScoreNetError):
            load_checkpoint(clipped)
    clipped.write_bytes(full)
    back = load_checkpoint(clipped)
    assert back.step == 12 and back.model.param_checksum() == model.param_checksum()


def _block_keys(raw):
    """Keys of the config block that ends an LDCK file, in order."""
    return [line.split(b"=")[0].decode() for line in raw[raw.rindex(b"widths="):].splitlines()]


@settings(max_examples=25, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    emb_half=st.integers(1, 4),
    blocks=st.integers(1, 2),
    sigmas=st.tuples(st.floats(1e-4, 10.0), st.floats(1e-4, 10.0)),
    levels=st.integers(2, 12),
    step=st.integers(0, 2**40),
    with_adapter=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_checkpoint_round_trip_keeps_every_bit_and_block_key(
    tmp_path_factory, widths, emb_half, blocks, sigmas, levels, step, with_adapter, seed
):
    assume(sigmas[0] > sigmas[1])
    cfg = ModelConfig(widths=tuple(widths), emb_dim=2 * emb_half, blocks_per_level=blocks)
    schedule = NoiseSchedule(sigmas[0], sigmas[1], levels)
    model = ScoreModel(cfg, seed=seed)
    state = TrainState(model, schedule, ControlAdapter(model, seed=seed + 1) if with_adapter else None, step)
    # Every finite f32 bit pattern may occur, -0.0 and subnormals included.
    rng = np.random.default_rng(seed)
    for p in state.params().values():
        bits = rng.integers(0, 2**32, size=p.value.shape, dtype=np.uint32).view(np.float32)
        p.value = np.where(np.isfinite(bits), bits, np.float32(0.0))
    path = tmp_path_factory.mktemp("ldck") / "model.ldck"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert _block_keys(path.read_bytes()) == [
        "widths", "emb_dim", "blocks_per_level", "sigma_max", "sigma_min", "levels", "step", "has_adapter"
    ]
    assert back.model.config == cfg and back.schedule == schedule and back.step == step
    assert (back.adapter is not None) == with_adapter
    params, loaded = state.params(), back.params()
    assert set(loaded) == set(params)
    for name, p in params.items():
        assert loaded[name].value.dtype == np.float32
        np.testing.assert_array_equal(loaded[name].value.view(np.uint32), p.value.view(np.uint32))


def test_checkpoint_with_parent_channel_keys_loads(tmp_path):
    # Checkpoints written before the channel counts became constants carry
    # them in the config block; the reader ignores them.
    model = ScoreModel(ModelConfig(widths=(4, 8), emb_dim=8, blocks_per_level=1), seed=31)
    state = TrainState(model, NoiseSchedule(), ControlAdapter(model, seed=32), step=7)
    path = tmp_path / "old.ldck"
    save_checkpoint(path, state)
    raw = path.read_bytes()
    path.write_bytes(
        raw[: raw.index(b"widths=")]
        + b"in_channels=1\ncond_channels=2\nwidths=4,8\nemb_dim=8\nblocks_per_level=1\n"
        + b"sigma_max=1.0\nsigma_min=0.01\nlevels=10\nstep=7\nhas_adapter=1\n"
    )
    back = load_checkpoint(path)
    assert back.model.config == model.config and back.schedule == NoiseSchedule() and back.step == 7
    assert back.adapter is not None
    for name, p in state.params().items():
        np.testing.assert_array_equal(back.params()[name].value, p.value)


def test_train_config_rejects_unknown_phase():
    with pytest.raises(ScoreNetError, match="unknown phase 'c'"):
        TrainConfig(phase="c")


def test_checkpoint_config_block_keeps_every_field(tmp_path):
    cfg = ModelConfig(widths=(4, 8), emb_dim=12, blocks_per_level=2)
    state = TrainState(model=ScoreModel(cfg, seed=0), schedule=NoiseSchedule(0.7, 0.03, 4), step=5)
    path = tmp_path / "model.ldck"
    save_checkpoint(path, state)
    raw = path.read_bytes()
    assert raw[raw.index(b"widths="):] == (
        b"widths=4,8\nemb_dim=12\nblocks_per_level=2\n"
        b"sigma_max=0.7\nsigma_min=0.03\nlevels=4\nstep=5\nhas_adapter=0\n"
    )
    back = load_checkpoint(path)
    assert back.model.config == cfg and back.schedule == state.schedule and back.step == 5


def test_checkpoint_huge_tensor_header_raises_before_reading(tmp_path):
    # 2^31 x 2^30 f32 is 2^63 bytes: more than any read can ask for
    header = b"LDCK" + struct.pack("<IIH", 1, 1, 1) + b"w" + struct.pack("<BII", 2, 2**31, 2**30)
    path = tmp_path / "huge.ldck"
    path.write_bytes(header.ljust(64, b"\0"))
    with pytest.raises(ScoreNetError, match="truncated tensor w"):
        load_checkpoint(path)


def test_checkpoint_wrong_tensor_shape(tmp_path):
    small = ScoreModel(ModelConfig(widths=(2, 2), emb_dim=4, blocks_per_level=1), seed=26)
    wide = ScoreModel(ModelConfig(widths=(2, 2), emb_dim=8, blocks_per_level=1), seed=26)
    a, b = tmp_path / "a.ldck", tmp_path / "b.ldck"
    save_checkpoint(a, TrainState(model=small, schedule=NoiseSchedule()))
    save_checkpoint(b, TrainState(model=wide, schedule=NoiseSchedule()))
    # a's tensors under b's config block: same names, other shapes
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    a.write_bytes(raw_a[: raw_a.index(b"widths=")] + raw_b[raw_b.index(b"widths="):])
    with pytest.raises(ScoreNetError, match="shape"):
        load_checkpoint(a)


def test_loss_uncond_equals_cond_without_adapter():
    model = ScoreModel(SMALL32, seed=27)
    images = make_dataset(n=4, seed=14)
    a = loss_uncond(model, images, NoiseSchedule(), np.random.default_rng(np.random.Philox(3)))
    grads = {k: p.grad.copy() for k, p in model.named_params().items()}
    for p in model.named_params().values():
        p.grad[...] = 0.0
    b = loss_cond(model, None, images, None, NoiseSchedule(), np.random.default_rng(np.random.Philox(3)))
    assert a == b
    for k, p in model.named_params().items():
        np.testing.assert_array_equal(p.grad, grads[k])


@pytest.mark.parametrize("phase", ["uncond", "ab"])
def test_train_divergence_raises_with_step_and_phase(phase):
    model = ScoreModel(SMALL32, seed=28)
    images = make_dataset(n=4, seed=15)
    images[2, 0, 3, 5] = np.nan
    state = TrainState(model=model, schedule=NoiseSchedule())
    dataset = images
    if phase != "uncond":
        state.adapter = ControlAdapter(model, seed=29)
        dataset = (images, make_dataset(n=4, shape=(2, 8, 16), seed=16))
    with pytest.raises(ScoreNetError, match=r"non-finite loss") as err:
        train(state, dataset, TrainConfig(steps=6, batch_size=2, seed=1, phase=phase))
    step, named = re.search(r"at step (\d+) \(phase (\w+)\)", str(err.value)).groups()
    # the failing step is the one after the last completed step
    assert int(step) == state.step + 1
    assert named == phase if phase == "uncond" else named in ("a", "b")


def test_conditional_loss_pathway_runs():
    model = ScoreModel(SMALL32, seed=22)
    adapter = ControlAdapter(model, seed=23)
    rng = np.random.default_rng(np.random.Philox(11))
    images = make_dataset(n=4, seed=12)
    conds = make_dataset(n=4, shape=(2, 8, 16), seed=13)
    loss = loss_cond(model, adapter, images, conds, NoiseSchedule(), rng)
    assert math.isfinite(loss) and loss > 0


def test_failed_checkpoint_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = ScoreModel(SMALL32, seed=30)
    state = TrainState(model=model, schedule=NoiseSchedule(), step=3)
    path = tmp_path / "ckpt.ldck"
    save_checkpoint(path, state)
    before = path.read_bytes()

    for p in model.named_params().values():
        p.value = p.value + 1.0
    state.step = 4

    def fail(_state):  # raises after every tensor is written
        raise OSError("disk full")

    monkeypatch.setattr(scorenet, "_config_block", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, state)
    assert path.read_bytes() == before
    assert load_checkpoint(path).step == 3
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.ldck"]


def _moved_adapter(model, seed):
    """An adapter whose fusion convs are off zero, so every gradient is nonzero."""
    adapter = ControlAdapter(model, seed=seed)
    rng = np.random.default_rng(seed)
    for p in (p for name, p in adapter.named_params().items() if name.startswith(scorenet._FUSION)):
        p.value = (rng.standard_normal(p.value.shape) * 0.1).astype(p.value.dtype)
    return adapter


def _kept_inputs(obj, path):
    """(path, value) of every forward cache (``_x``, ``_cache``) in ``obj`` and
    the layers reachable through its public attributes."""
    out = []
    for attr, value in vars(obj).items():
        if attr in ("_x", "_cache"):
            out.append((path, value))
        elif not attr.startswith("_"):
            for i, v in enumerate(value if isinstance(value, list) else [value]):
                if hasattr(v, "forward"):
                    out += _kept_inputs(v, f"{path}.{attr}{i}")
    return out


@pytest.mark.parametrize("when", ["fresh", "after a forward-only call"])
def test_backward_without_a_kept_forward_raises(when):
    model = ScoreModel(TINY64, seed=50)
    x = np.zeros((1, 1, 8, 16))
    if when != "fresh":
        model.forward(x, 0.5)
        model_score_fn(model)(x, 0.5)
    with pytest.raises(ScoreNetError, match="^backward needs a forward that kept its inputs$"):
        model.backward(np.ones_like(x))


@pytest.mark.parametrize("shape", [(2, 1, 8, 16), (1, 2, 8, 16), (1, 1, 4, 16), (1, 8, 16)], ids=["batch", "channels", "height", "3d"])
def test_backward_rejects_a_dout_not_shaped_like_the_forward_output(shape):
    model = ScoreModel(TINY64, seed=50)
    model.forward(np.zeros((1, 1, 8, 16)), 0.5)
    message = re.escape(f"expected dout of shape (1, 1, 8, 16), got {shape}")
    with pytest.raises(ScoreNetError, match=f"^{message}$"):
        model.backward(np.ones(shape))
    assert not any(p.grad.any() for p in model.named_params().values())


def test_a_refused_forward_leaves_the_last_forward_to_backward():
    # The refused call's cond has 2 frames for its 1: no layer may run
    # (and overwrite what the first forward kept) before it is refused.
    x = np.random.default_rng(54).standard_normal((2, 1, 8, 16))
    grads = []
    for refuse in (False, True):
        model = ScoreModel(TINY64, seed=55)
        model.forward(x, 0.5)
        if refuse:
            with pytest.raises(ScoreNetError, match="^expected cond of shape"):
                model.forward(x[:1], 0.5, cond=np.zeros((2, 2, 8, 16)), adapter=ControlAdapter(model, seed=56))
        model.backward(np.ones((2, 1, 8, 16)))
        grads.append({name: p.grad for name, p in model.named_params().items()})
    assert grads[0].keys() == grads[1].keys()
    for name in grads[0]:
        np.testing.assert_array_equal(grads[1][name], grads[0][name], err_msg=name)


@pytest.mark.parametrize(
    "sigma, message",
    [
        (0.0, r"^sigma must be finite and > 0, got \[0\.\]$"),
        (-1.0, r"^sigma must be finite and > 0, got \[-1\.\]$"),
        (math.nan, r"^sigma must be finite and > 0, got \[nan\]$"),
        (math.inf, r"^sigma must be finite and > 0, got \[inf\]$"),
        ([0.5, 0.0], r"^sigma must be finite and > 0, got \[0\.5 0\. \]$"),
        ([0.5, 0.5, 0.5], "^expected 1 or 2 sigmas, got 3$"),
    ],
    ids=["zero", "negative", "nan", "inf", "one-zero-of-two", "three-for-two"],
)
def test_forward_refuses_a_bad_sigma_before_any_layer_runs(sigma, message):
    x = np.random.default_rng(57).standard_normal((2, 1, 8, 16))
    grads = []
    for refuse in (False, True):
        model = ScoreModel(TINY64, seed=58)
        model.forward(x, [0.5, 0.25])
        if refuse:
            with pytest.raises(ScoreNetError, match=message):
                model.forward(x, sigma)
        model.backward(np.ones((2, 1, 8, 16)))
        grads.append({name: p.grad for name, p in model.named_params().items()})
    for name in grads[0]:
        np.testing.assert_array_equal(grads[1][name], grads[0][name], err_msg=name)


@pytest.mark.parametrize("path", ["uncond", "adapter"])
def test_model_score_fn_keeps_no_activation_at_the_score_workload_size(path):
    """After a training step, one sampler call at the ``score`` workload's
    size leaves only its output allocated, drops every input the step kept,
    and returns ``ScoreModel.forward``'s output bit for bit."""
    rng = np.random.default_rng(51)
    model = ScoreModel(Score.model, seed=52)
    adapter = ControlAdapter(model, seed=53) if path == "adapter" else None
    state = TrainState(model=model, schedule=Score.schedule, adapter=adapter)
    shape = (Score.held_frames, 1, C10_SPEC.rows, C10_SPEC.cols)
    images = rng.random(shape).astype(np.float32)
    conds = None if adapter is None else rng.random((shape[0], 2) + shape[2:]).astype(np.float32)
    phase = "uncond" if adapter is None else "ab"
    train(state, images if conds is None else (images, conds), TrainConfig(steps=1, batch_size=Score.batch_size, phase=phase))

    def kept():
        return _kept_inputs(model, "base") + ([] if adapter is None else _kept_inputs(adapter, "adapter"))

    assert len(kept()) > 30 and all(value is not None for _, value in kept())  # the step kept every input

    x = rng.random(shape)
    tracemalloc.start()  # the training step's caches are untraced, so dropping them counts nothing
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = model_score_fn(model, adapter, conds)(x, 0.5)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * out.nbytes
    assert [name for name, value in kept() if value is not None] == []
    np.testing.assert_array_equal(out, model.forward(x, 0.5, cond=conds, adapter=adapter).astype(np.float64))


@pytest.mark.parametrize("phase", ["uncond", "ab"])
def test_training_after_sampling_equals_training_without_it(phase):
    def run(sample_first):
        model = ScoreModel(SMALL32, seed=54)
        state = TrainState(model=model, schedule=NoiseSchedule(levels=4), adapter=_moved_adapter(model, 55))
        images, conds = make_dataset(seed=56), make_dataset(shape=(2, 8, 16), seed=57)
        adapter = None if phase == "uncond" else state.adapter
        data = images if adapter is None else (images, conds)
        train(state, data, TrainConfig(steps=2, batch_size=4, seed=58, phase=phase))
        if sample_first:
            model_score_fn(model, adapter, None if adapter is None else conds[:2])(images[:2], 0.3)
        losses = train(state, data, TrainConfig(steps=2, batch_size=4, seed=59, phase=phase))
        return losses, model.param_checksum(), {k: p.value.copy() for k, p in state.params().items()}

    losses, checksum, values = run(True)
    ref_losses, ref_checksum, ref_values = run(False)
    assert losses == ref_losses
    assert checksum == ref_checksum
    for name, value in values.items():
        np.testing.assert_array_equal(value, ref_values[name], err_msg=name)


def test_forward_only_peak_is_at_most_half_a_kept_forward_at_default_size():
    """The memory a default-size ``lidarscene sample`` saves per forward: the
    default model on one 64x1024 image peaks at about 35% of a forward that
    keeps its inputs."""
    model = ScoreModel(seed=60)
    x = np.random.default_rng(61).random((1, 1, 64, 1024)).astype(np.float32)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sampled = peak(lambda: model_score_fn(model)(x, 0.5))
    kept = peak(lambda: model.forward(x, 0.5))
    assert sampled <= 0.5 * kept


def _grads_of(loss_fn, params):
    for p in params.values():
        p.grad[...] = 0.0
    loss = loss_fn()
    return loss, {k: p.grad.copy() for k, p in params.items()}


@pytest.mark.parametrize("phase", ["uncond", "a", "b"])
def test_restricted_backward_keeps_every_allowed_gradient(phase):
    model = ScoreModel(SMALL32, seed=31)
    state = TrainState(model=model, schedule=NoiseSchedule(), adapter=_moved_adapter(model, 32))
    allowed = scorenet._allowed_params(state, phase)
    adapter = None if phase == "uncond" else state.adapter
    images = make_dataset(n=4, seed=17)
    conds = None if adapter is None else make_dataset(n=4, shape=(2, 8, 16), seed=18)
    params = state.params()

    def run(names):
        rng = np.random.default_rng(np.random.Philox(4))
        return _grads_of(lambda: loss_cond(model, adapter, images, conds, state.schedule, rng, names), params)

    full_loss, full = run(None)
    loss, grads = run(allowed)
    assert loss == full_loss
    for name, g in grads.items():
        if name in allowed:
            assert np.any(full[name]), name  # the pin compares real gradients
            np.testing.assert_array_equal(g, full[name], err_msg=name)
        else:
            assert not np.any(g), name


def test_train_with_restricted_backward_equals_full_backward(monkeypatch):
    def run():
        model = ScoreModel(SMALL32, seed=33)
        state = TrainState(model=model, schedule=NoiseSchedule(), adapter=ControlAdapter(model, seed=34))
        data = (make_dataset(seed=19), make_dataset(shape=(2, 8, 16), seed=20))
        losses = train(state, data, TrainConfig(steps=6, batch_size=4, seed=9, phase="ab"))
        return losses, model.param_checksum(), {k: p.value.copy() for k, p in state.params().items()}

    losses, checksum, values = run()
    full = scorenet.loss_cond
    monkeypatch.setattr(scorenet, "loss_cond", lambda *args: full(*args[:6]))  # drops ``allowed``
    ref_losses, ref_checksum, ref_values = run()
    assert losses == ref_losses
    assert checksum == ref_checksum
    for name, value in values.items():
        np.testing.assert_array_equal(value, ref_values[name], err_msg=name)


def _seeded_run_digests(dtype):
    """sha256 digests after a short seeded run: uncond training, then phase
    ``ab`` with an adapter, then a conditional Langevin sample. Returns the
    base model's ``param_checksum``, a digest of every adapter tensor in name
    order and a digest of the sample's bytes."""
    model = ScoreModel(ModelConfig(widths=(8, 8, 16), emb_dim=16, blocks_per_level=1, dtype=dtype), seed=41)
    adapter = ControlAdapter(model, seed=42)
    state = TrainState(model=model, schedule=NoiseSchedule(levels=4), adapter=adapter)
    images = make_dataset(seed=23)
    conds = make_dataset(shape=(2, 8, 16), seed=24)
    train(state, images, TrainConfig(steps=6, batch_size=8, seed=25))
    train(state, (images, conds), TrainConfig(steps=6, batch_size=8, seed=26, phase="ab"))
    params = adapter.named_params()
    adapter_digest = hashlib.sha256()
    for name in sorted(params):
        adapter_digest.update(params[name].value.tobytes())
    fn = model_score_fn(model, adapter, conds[[0, 0]])
    sample = sample_annealed_langevin(fn, state.schedule, SamplerConfig(steps_per_level=2), (2, 1, 8, 16), seed=27)
    return model.param_checksum(), adapter_digest.hexdigest(), hashlib.sha256(sample.tobytes()).hexdigest()


#: ``_seeded_run_digests`` per dtype: (param_checksum, adapter, sample), taken
#: before the strided pooling/upsampling and copy-free 1x1 im2col rewrite of
#: ``nn``, which must leave every one of them unchanged.
PINNED_DIGESTS = {
    "float32": (
        "5221990b6fa52b04c46cef38b599d7bb8c772cae3e6d230932876f4e80f2c3c2",
        "82d67efa939972336dd7cdb8de5a11d7d0ebbe861456c441d183e1d5562cd3df",
        "e4a051871a37ec4d25cdc99c6b4fc83176b8794ac31d48c5816a69fbcff15fb1",
    ),
    "float64": (
        "7850ff1b083d8131aab094be9a6464735468b62652be6d09c6b521ff127305a8",
        "ec353104d4f9370d5b9956c3ed3c8cf637c11c6656fa8fa265397c5047b4c1aa",
        "ffd6c55390bb8e00a4ea1f45151732787acf3dd1d90875143de77d4dbd808bed",
    ),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_seeded_training_and_sampling_keep_pinned_digests(dtype):
    """Literal digests of a seeded uncond + ``ab`` run and a sample, so a change
    to the layers that moves a single bit of training or sampling fails here.
    The values depend on the BLAS kernels' summation order, so another BLAS
    build may need new ones; take those at a commit before the change under
    test, never from the change itself."""
    assert _seeded_run_digests(dtype) == PINNED_DIGESTS[np.dtype(dtype).name]


def test_forward_adapter_requires_a_condition():
    model = ScoreModel(TINY64, seed=30)
    x = np.zeros((1, 1, 8, 16))
    with pytest.raises(ScoreNetError, match="^adapter requires a conditional image$"):
        model.forward(x, 0.5, adapter=ControlAdapter(model, seed=31))


def test_forward_rejects_a_condition_without_an_adapter():
    model = ScoreModel(TINY64, seed=30)
    x = np.zeros((1, 1, 8, 16))
    with pytest.raises(ScoreNetError, match="^a conditional image requires an adapter$"):
        model.forward(x, 0.5, cond=np.ones((1, 2, 8, 16)))


@pytest.mark.parametrize(
    "shape", [(2, 8, 16), (1, 1, 8, 16), (1, 3, 8, 16), (2, 2, 8, 16), (1, 2, 4, 16), (1, 2, 8, 32)],
    ids=["3d", "one-channel", "three-channels", "batch", "height", "width"],
)
def test_forward_rejects_a_cond_not_shaped_like_x(shape):
    model = ScoreModel(TINY64, seed=30)
    x = np.zeros((1, 1, 8, 16))
    message = re.escape(f"expected cond of shape (1, 2, 8, 16), got {shape}")
    with pytest.raises(ScoreNetError, match=f"^{message}$"):
        model.forward(x, 0.5, cond=np.zeros(shape), adapter=ControlAdapter(model, seed=31))


@pytest.mark.parametrize("conds", [1, 3], ids=["fewer-conds", "more-conds"])
def test_train_rejects_a_conditional_dataset_of_unequal_counts(conds):
    state = TrainState(model=ScoreModel(TINY64, seed=32), schedule=NoiseSchedule())
    state.adapter = ControlAdapter(state.model, seed=33)
    dataset = (make_dataset(n=2), make_dataset(n=conds, shape=(2, 8, 16)))
    with pytest.raises(ScoreNetError, match=f"^dataset has 2 images but {conds} conditions$"):
        train(state, dataset, TrainConfig(steps=2, batch_size=2, phase="b"))
    assert state.step == 0


@pytest.mark.parametrize(
    "phase, dataset, message",
    [
        ("a", (make_dataset(n=2), make_dataset(n=2, shape=(2, 8, 16))), "conditional phase requires an adapter"),
        ("uncond", make_dataset(n=0), "empty dataset"),
        ("b", (make_dataset(n=0), make_dataset(n=0, shape=(2, 8, 16))), "empty dataset"),
    ],
    ids=["no-adapter", "empty-uncond", "empty-cond"],
)
def test_train_rejects_missing_adapter_and_empty_dataset(phase, dataset, message):
    state = TrainState(model=ScoreModel(TINY64, seed=32), schedule=NoiseSchedule())
    with pytest.raises(ScoreNetError, match=f"^{message}$"):
        train(state, dataset, TrainConfig(steps=2, batch_size=2, phase=phase))
    assert state.step == 0


def test_train_logs_every_log_every_th_step():
    state = TrainState(model=ScoreModel(TINY64, seed=33), schedule=NoiseSchedule())
    lines = []
    losses = train(state, make_dataset(n=4), TrainConfig(steps=5, batch_size=2, log_every=2), log=lines.append)
    assert lines == [f"step {k} phase uncond loss {losses[k - 1]:.4f}" for k in (2, 4)]


def test_sampler_rejects_a_non_finite_state():
    with pytest.raises(ScoreNetError, match="^non-finite sampler state$"):
        sample_annealed_langevin(lambda x, sigma: np.full(x.shape, np.nan), NoiseSchedule(), SamplerConfig(), (1, 1, 2, 2))


def test_sampler_checks_the_final_denoising_step():
    # The score turns NaN only on the last call, the denoising step at sigma_L.
    schedule, config = NoiseSchedule(), SamplerConfig(steps_per_level=2)
    calls = []

    def score(x, sigma):
        calls.append(sigma)
        return np.full(x.shape, np.nan if len(calls) > schedule.levels * config.steps_per_level else 0.0)

    with pytest.raises(ScoreNetError, match="^non-finite sampler state$"):
        sample_annealed_langevin(score, schedule, config, (1, 1, 2, 2))
    assert len(calls) == schedule.levels * config.steps_per_level + 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported version 2"),
        (
            lambda raw: raw.replace(b"base.out_conv.w", b"base.out_conv.v", 1),
            "tensor name mismatch (unknown=['base.out_conv.v'], missing=['base.out_conv.w'])",
        ),
    ],
    ids=["version", "tensor-name"],
)
def test_checkpoint_rejects_another_version_or_tensor_name(tmp_path, edit, message):
    path = tmp_path / "base.ldck"
    save_checkpoint(path, TrainState(ScoreModel(ModelConfig(widths=(2, 2), emb_dim=4, blocks_per_level=1)), NoiseSchedule()))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ScoreNetError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}"

import math

import numpy as np
import pytest

from lidarscene import cli, config, layout as layout_mod, raycast, scorenet, sensor
from lidarscene.cli import main
from lidarscene.layout import Pose, SceneParams, SemanticPrimitive

SMALL_SENSOR = """
sensor.rows = 16
sensor.cols = 64
render.tessellation = 8
"""

TRAIN_CFG = (
    SMALL_SENSOR
    + """
model.widths = 8,8
model.emb_dim = 8
model.blocks_per_level = 1
train.batch_size = 2
sampler.steps_per_level = 2
schedule.levels = 3
"""
)


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "sensor.cfg"
    path.write_text(SMALL_SENSOR)
    return str(path)


@pytest.fixture
def scene_file(tmp_path):
    scene = layout_mod.Layout()
    scene = layout_mod.add_primitive(
        scene, SemanticPrimitive(3, "cuboid", (6.0, 0.0, 0.75), (4.0, 1.8, 1.5), 0.0)  # car
    )
    path = tmp_path / "scene.layout"
    layout_mod.save_layout(path, scene)
    return str(path)


def test_gen_scenes(tmp_path, capsys):
    out = tmp_path / "scenes"
    assert main(["gen-scenes", "--num", "3", "--seed", "7", "--out", str(out)]) == 0
    files = sorted(out.glob("*.layout"))
    assert len(files) == 3
    # files are valid layouts, deterministic in the seed
    first = layout_mod.load_layout(files[0])
    again = layout_mod.generate_random_scene(7, SceneParams())
    assert len(first.primitives) == len(again.primitives)


def test_render_single_pose(tmp_path, scene_file, small_cfg):
    out = tmp_path / "frame.lri"
    rc = main(
        ["render", "--layout", scene_file, "--sensor", small_cfg, "--pose", "0,0,0,0",
         "--out", str(out), "--cloud"]
    )
    assert rc == 0
    img = sensor.read_lri(out)
    assert img.depth.shape == (16, 64)
    assert (img.depth > 0).any()
    cloud = sensor.read_point_cloud(str(out) + ".xyz")
    assert len(cloud) == int((img.depth > 0).sum())


def test_render_deterministic(tmp_path, scene_file, small_cfg):
    a, b = tmp_path / "a.lri", tmp_path / "b.lri"
    main(["render", "--layout", scene_file, "--sensor", small_cfg, "--out", str(a)])
    main(["render", "--layout", scene_file, "--sensor", small_cfg, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_render_trajectory(tmp_path, scene_file, small_cfg):
    traj = tmp_path / "traj.txt"
    traj.write_text("0 0 0 0\n1 0 0 15\n# comment\n2 0 0 30\n")
    out = tmp_path / "frames"
    rc = main(
        ["render", "--layout", scene_file, "--sensor", small_cfg,
         "--trajectory", str(traj), "--out", str(out)]
    )
    assert rc == 0
    assert len(sorted(out.glob("*.lri"))) == 3


def test_render_trajectory_cloud_is_each_frame_in_world(tmp_path, scene_file, small_cfg):
    traj = tmp_path / "traj.txt"
    traj.write_text("0 0 0 0\n2 -1 0.5 30\n-3 1 0 -60\n")
    out = tmp_path / "frames"
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg, "--trajectory", str(traj),
               "--cloud", "--out", str(out)])
    assert rc == 0
    cfg = config.load_config(small_cfg)
    spec, scene = cfg.sensor_spec(), layout_mod.load_layout(scene_file)
    poses = [Pose((0.0, 0.0, 0.0), 0.0), Pose((2.0, -1.0, 0.5), math.radians(30)),
             Pose((-3.0, 1.0, 0.0), math.radians(-60))]
    for i, pose in enumerate(poses):
        img = raycast.render_conditional(scene, spec, pose, tessellation=cfg["render.tessellation"])
        expected = raycast.sensor_to_world(sensor.range_image_to_point_cloud(img), spec, pose)
        written = sensor.read_point_cloud(out / f"frame_{i:05d}.xyz")
        assert len(expected) > 0
        np.testing.assert_array_equal(written.labels, expected.labels)
        np.testing.assert_allclose(written.points, expected.points, rtol=0, atol=5.01e-7)


def test_render_raydrop_drops_pixels(tmp_path, scene_file, small_cfg):
    plain, dropped = tmp_path / "p.lri", tmp_path / "d.lri"
    main(["render", "--layout", scene_file, "--sensor", small_cfg, "--out", str(plain)])
    main(["render", "--layout", scene_file, "--sensor", small_cfg, "--raydrop",
          "--seed", "1", "--out", str(dropped)])
    a = sensor.read_lri(plain).depth
    b = sensor.read_lri(dropped).depth
    assert int((b > 0).sum()) <= int((a > 0).sum())


def test_render_trajectory_raydrop_seeds_each_frame(tmp_path, scene_file, small_cfg):
    traj = tmp_path / "traj.txt"
    traj.write_text("0 0 0 0\n0 0 0 0\n")
    out = tmp_path / "frames"
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg, "--trajectory", str(traj),
               "--raydrop", "--seed", "3", "--out", str(out)])
    assert rc == 0
    a, b = (sensor.read_lri(out / f"frame_{i:05d}.lri") for i in range(2))
    np.testing.assert_array_equal(a.semantic, b.semantic)
    assert ((a.depth > 0) != (b.depth > 0)).any()
    # frame 0 keeps the single-frame render's drop mask
    single = tmp_path / "single.lri"
    main(["render", "--layout", scene_file, "--sensor", small_cfg, "--raydrop", "--seed", "3",
          "--out", str(single)])
    assert single.read_bytes() == (out / "frame_00000.lri").read_bytes()


def test_render_surface_sample(tmp_path, scene_file, small_cfg):
    out = tmp_path / "surf.xyz"
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg,
               "--surface-sample", "50", "--out", str(out)])
    assert rc == 0
    cloud = sensor.read_point_cloud(out)
    assert len(cloud) > 0


def test_extract_roundtrip(tmp_path, scene_file, small_cfg):
    # elevated side view gives a clean single-car cloud
    lri = tmp_path / "view.lri"
    main(["render", "--layout", scene_file, "--sensor", small_cfg,
          "--pose", "6,-10,3,90", "--out", str(lri), "--cloud"])
    out = tmp_path / "found.layout"
    rc = main(["extract", "--cloud", str(lri) + ".xyz", "--out", str(out)])
    assert rc == 0
    found = layout_mod.load_layout(out)
    assert isinstance(found, layout_mod.Layout)


def test_unproject(tmp_path, capsys):
    spec = sensor.SensorSpec(rows=8, cols=8)
    depth = sensor.RangeImage(spec, np.full((8, 8), 5.0))
    sem = sensor.RangeImage(spec, np.full((8, 8), 1.0))
    dpath, spath, out = tmp_path / "d.lri", tmp_path / "s.lri", tmp_path / "cloud.xyz"
    sensor.write_lri(dpath, depth)
    sensor.write_lri(spath, sem)
    rc = main(["unproject", "--depth", str(dpath), "--semantic", str(spath),
               "--intrinsics", "10,10,4,4", "--out", str(out)])
    assert rc == 0
    cloud = sensor.read_point_cloud(out)
    assert len(cloud) == 64
    assert (cloud.labels == 1).all()


def _write_training_data(tmp_path, n=4, with_cond=False):
    spec = sensor.SensorSpec(rows=16, cols=64)
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    for i in range(n):
        depth = rng.uniform(1.0, 60.0, size=(16, 64))
        sensor.write_lri(data / f"img_{i:03d}.lri", sensor.RangeImage(spec, depth))
        if with_cond:
            cond = np.stack([rng.uniform(1.0, 60.0, size=(16, 64)), np.ones((16, 64))])
            sensor.write_lri(data / f"img_{i:03d}.cond.lri", sensor.RangeImage(spec, cond))
    return str(data)


@pytest.fixture
def train_cfg(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(TRAIN_CFG)
    return str(path)


def test_train_sample_eval_pipeline(tmp_path, train_cfg, scene_file):
    data = _write_training_data(tmp_path, with_cond=True)
    base = tmp_path / "base.ldck"
    rc = main(["train", "--data", data, "--config", train_cfg, "--steps", "4",
               "--out", str(base)])
    assert rc == 0
    state = scorenet.load_checkpoint(base)
    assert state.step == 4 and state.adapter is None

    ctrl = tmp_path / "ctrl.ldck"
    rc = main(["train", "--data", data, "--config", train_cfg, "--steps", "4",
               "--controlnet", "--base", str(base), "--out", str(ctrl)])
    assert rc == 0
    cstate = scorenet.load_checkpoint(ctrl)
    assert cstate.adapter is not None
    assert cstate.model.param_checksum() == state.model.param_checksum()

    samples = tmp_path / "samples"
    rc = main(["sample", "--ckpt", str(ctrl), "--config", train_cfg,
               "--layout", scene_file, "--pose", "0,0,0,0",
               "--num", "2", "--out", str(samples)])
    assert rc == 0
    files = sorted(samples.glob("*.lri"))
    assert len(files) == 2

    csv = tmp_path / "report.csv"
    rc = main(["eval", "--gen", str(samples), "--ref", data,
               "--metrics", "jsd,mmd,frechet", "--layout", scene_file,
               "--csv", str(csv)])
    assert rc == 0
    text = csv.read_text().splitlines()
    names = {ln.split(",")[0] for ln in text[1:]}
    assert {"jsd", "mmd", "frechet", "box_recall", "bev_iou"} <= names


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow this test provokes
def test_train_divergence_exits_nonzero_without_checkpoint(tmp_path, capsys):
    data = _write_training_data(tmp_path)
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(TRAIN_CFG + "train.lr = 1e30\n")  # finite data, a step size that overflows
    out = tmp_path / "base.ldck"
    rc = main(["train", "--data", data, "--config", str(cfg), "--steps", "4", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "step" in err[0] and "phase uncond" in err[0] and "non-finite loss" in err[0]
    assert not out.exists()


def test_train_rejects_nan_depths_at_load(tmp_path, train_cfg, capsys):
    data = tmp_path / "data"
    data.mkdir()
    nan = sensor.RangeImage(sensor.SensorSpec(rows=16, cols=64), np.full((16, 64), np.nan))
    sensor.write_lri(data / "img_nan.lri", nan)
    out = tmp_path / "base.ldck"
    rc = main(["train", "--data", str(data), "--config", train_cfg, "--steps", "4", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "not finite" in err[0] and "step" not in err[0]
    assert "img_nan.lri" in err[0]
    assert not out.exists()


def test_sample_cond_uses_training_semantic_scale(tmp_path, train_cfg, monkeypatch):
    # a layout with its own, shorter palette: "car" is id 2 here, not 3
    palette = (
        layout_mod.SemanticLabel(0, "ground", (81, 0, 81)),
        layout_mod.SemanticLabel(1, "road", (128, 64, 128)),
        layout_mod.SemanticLabel(2, "car", (0, 0, 142)),
    )
    scene = layout_mod.Layout(palette, (SemanticPrimitive(2, "cuboid", (6.0, 0.0, 0.75), (4.0, 1.8, 1.5)),))
    scene_path = tmp_path / "short.layout"
    layout_mod.save_layout(scene_path, scene)
    cfg = cli.load_config(train_cfg)
    model = scorenet.ScoreModel(cfg.model_config(), seed=0)
    state = scorenet.TrainState(model, cfg.noise_schedule(), adapter=scorenet.ControlAdapter(model))
    ckpt = tmp_path / "ctrl.ldck"
    scorenet.save_checkpoint(ckpt, state)

    seen = []
    real = scorenet.model_score_fn

    def spy(model, adapter=None, cond=None):
        seen.append(cond)
        return real(model, adapter=adapter, cond=cond)

    monkeypatch.setattr(scorenet, "model_score_fn", spy)
    rc = main(["sample", "--ckpt", str(ckpt), "--config", train_cfg, "--layout", str(scene_path),
               "--num", "1", "--out", str(tmp_path / "s")])
    assert rc == 0

    # the same render, stored as a training pair, goes through the loader
    spec = cfg.sensor_spec()
    img = raycast.render_conditional(layout_mod.load_layout(scene_path), spec, tessellation=cfg["render.tessellation"])
    data = tmp_path / "pairs"
    data.mkdir()
    sensor.write_lri(data / "x.lri", sensor.RangeImage(spec, img.depth))
    sensor.write_lri(data / "x.cond.lri", img)
    _, conds = cli._load_training_images(data)
    assert (seen[0][1] > 0).any()
    np.testing.assert_allclose(seen[0][1], conds[0, 1], rtol=1e-6)
    np.testing.assert_allclose(seen[0][1].max(), 2 / (len(layout_mod.DEFAULT_PALETTE) - 1), rtol=1e-6)


def test_train_controlnet_requires_base(tmp_path, train_cfg):
    data = _write_training_data(tmp_path, with_cond=True)
    rc = main(["train", "--data", data, "--config", train_cfg, "--steps", "1",
               "--controlnet", "--out", str(tmp_path / "x.ldck")])
    assert rc == 1


def test_sample_cond_without_adapter_fails(tmp_path, train_cfg, scene_file, capsys):
    data = _write_training_data(tmp_path)
    base = tmp_path / "base.ldck"
    main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--out", str(base)])
    rc = main(["sample", "--ckpt", str(base), "--config", train_cfg,
               "--layout", scene_file, "--num", "1", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_layout_exits_nonzero(tmp_path, capsys):
    rc = main(["render", "--layout", str(tmp_path / "none.layout"),
               "--out", str(tmp_path / "o.lri")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_pose_exits_nonzero(tmp_path, scene_file, small_cfg, capsys):
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg,
               "--pose", "1,2,3", "--out", str(tmp_path / "o.lri")])
    assert rc == 1
    assert "pose" in capsys.readouterr().err


def test_eval_empty_dir_exits_nonzero(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    rc = main(["eval", "--gen", str(tmp_path / "empty"), "--ref", str(tmp_path / "empty")])
    assert rc == 1


def test_render_bad_trajectory_line_names_file_and_line(tmp_path, scene_file, small_cfg, capsys):
    traj = tmp_path / "poses.txt"
    traj.write_text("0 0 0 0\n1 x 0 0\n")
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg,
               "--trajectory", str(traj), "--out", str(tmp_path / "frames")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {traj}:2: ")


@pytest.mark.parametrize(
    "read, error",
    [
        (layout_mod.load_layout, layout_mod.LayoutError),
        (sensor.read_point_cloud, sensor.SensorError),
        (config.load_config, config.ConfigError),
        (cli._read_trajectory, ValueError),
    ],
    ids=["layout", "point_cloud", "config", "trajectory"],
)
def test_text_readers_name_a_non_utf8_file(tmp_path, read, error):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe\x00binary")
    with pytest.raises(ValueError) as excinfo:
        read(path)
    assert excinfo.type is error
    assert str(excinfo.value).startswith(f"{path}: not UTF-8 text")


def test_render_non_utf8_layout_exits_with_one_error_line(tmp_path, capsys):
    layout = tmp_path / "scene.layout"
    layout.write_bytes(b"\xff\xfe\x00binary")
    rc = main(["render", "--layout", str(layout), "--out", str(tmp_path / "o.lri")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {layout}: not UTF-8 text")


def test_train_rejects_frames_of_different_sizes(tmp_path, train_cfg, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name, rows in (("a.lri", 16), ("b.lri", 8)):
        sensor.write_lri(data / name, sensor.RangeImage(sensor.SensorSpec(rows=rows, cols=64), np.full((rows, 64), 5.0)))
    out = tmp_path / "base.ldck"
    rc = main(["train", "--data", str(data), "--config", train_cfg, "--steps", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {data / 'b.lri'}: ")
    assert "8x64" in err[0] and "16x64" in err[0]
    assert not out.exists()


def test_train_rejects_cond_frame_of_another_size(tmp_path, train_cfg, capsys):
    data = tmp_path / "data"
    data.mkdir()
    sensor.write_lri(data / "x.lri", sensor.RangeImage(sensor.SensorSpec(rows=16, cols=64), np.full((16, 64), 5.0)))
    small = sensor.SensorSpec(rows=8, cols=64)
    sensor.write_lri(data / "x.cond.lri", sensor.RangeImage(small, np.stack([np.full((8, 64), 5.0), np.ones((8, 64))])))
    out = tmp_path / "base.ldck"
    rc = main(["train", "--data", str(data), "--config", train_cfg, "--steps", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {data / 'x.cond.lri'}: ")
    assert "8x64" in err[0] and "16x64" in err[0]
    assert not out.exists()


def test_render_bad_layout_directive_names_file(tmp_path, capsys):
    bad = tmp_path / "bad.layout"
    bad.write_text("palette ground 81 0 81\nfoo 1 2\n")
    rc = main(["render", "--layout", str(bad), "--out", str(tmp_path / "o.lri")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}: line 2: unknown directive 'foo'"]
    with pytest.raises(layout_mod.LayoutError) as excinfo:
        layout_mod.load_layout(bad)
    assert excinfo.value.line == 2


def test_render_bad_config_value_names_file(tmp_path, scene_file, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.lr = abc\n")
    rc = main(["render", "--layout", scene_file, "--sensor", str(bad), "--out", str(tmp_path / "o.lri")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}: line 1: bad value 'abc' for train.lr"]


def _train_fails_with_one_error_line(tmp_path, capsys, settings, argv=("--steps", "2")):
    """Runs ``train`` with ``settings`` appended to TRAIN_CFG; returns its one error line."""
    data = _write_training_data(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TRAIN_CFG + settings)
    out = tmp_path / "base.ldck"
    rc = main(["train", "--data", data, "--config", str(cfg), *argv, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize(
    "setting, field",
    [
        ("model.widths = 0", "widths"),
        ("model.widths = 4,-4", "widths"),
        ("model.emb_dim = 0", "emb_dim"),
        ("model.emb_dim = 3", "emb_dim"),
        ("model.blocks_per_level = 0", "blocks_per_level"),
        ("model.in_channels = 0", "in_channels"),
        ("model.cond_channels = 0", "cond_channels"),
    ],
)
def test_train_rejects_model_shapes_the_network_cannot_build(tmp_path, capsys, setting, field):
    err = _train_fails_with_one_error_line(tmp_path, capsys, setting + "\n")
    # The channel counts are fixed by the data (scorenet.IN_CHANNELS, COND_CHANNELS), not keys.
    expected = f"unknown config key 'model.{field}'" if field.endswith("channels") else f"model {field} must be"
    assert expected in err


def test_checkpoint_with_unbuildable_model_block_names_file_and_field(tmp_path, train_cfg, capsys):
    data = _write_training_data(tmp_path)
    base = tmp_path / "base.ldck"
    assert main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--out", str(base)]) == 0
    raw = base.read_bytes()
    assert raw.count(b"\nemb_dim=8\n") == 1
    base.write_bytes(raw.replace(b"\nemb_dim=8\n", b"\nemb_dim=3\n"))
    capsys.readouterr()
    out = tmp_path / "s"
    rc = main(["sample", "--ckpt", str(base), "--config", train_cfg, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {base}: model emb_dim must be")
    assert not any(out.glob("*.lri"))


@pytest.mark.parametrize(
    "settings, argv",
    [("train.steps = -3\n", ()), ("", ("--steps", "-3")), ("train.batch_size = 0\n", ("--steps", "2"))],
    ids=["steps-config", "steps-flag", "batch-size"],
)
def test_train_rejects_negative_steps_and_empty_batches(tmp_path, capsys, settings, argv):
    err = _train_fails_with_one_error_line(tmp_path, capsys, settings, argv)
    assert "steps >= 0 and batch_size >= 1" in err


@pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
def test_train_rejects_learning_rates_outside_zero_to_inf(tmp_path, capsys, lr):
    assert "train lr must be finite and > 0" in _train_fails_with_one_error_line(tmp_path, capsys, f"train.lr = {lr}\n")


@pytest.mark.parametrize(
    "setting, field",
    [
        ("sampler.steps_per_level = 0", "steps_per_level"),
        ("sampler.steps_per_level = -2", "steps_per_level"),
        ("sampler.eps0 = 0", "eps0"),
        ("sampler.eps0 = -1", "eps0"),
        ("sampler.eps0 = nan", "eps0"),
        ("sampler.eps0 = inf", "eps0"),
    ],
)
def test_sample_rejects_sampler_settings(tmp_path, train_cfg, capsys, setting, field):
    data = _write_training_data(tmp_path)
    base = tmp_path / "base.ldck"
    assert main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--out", str(base)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(TRAIN_CFG + setting + "\n")
    capsys.readouterr()
    out = tmp_path / "samples"
    rc = main(["sample", "--ckpt", str(base), "--config", str(bad), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: sampler {field} must be")
    assert not out.exists()


def test_train_log_every_zero_logs_no_steps(tmp_path, capsys):
    data = _write_training_data(tmp_path)
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text(TRAIN_CFG + "train.log_every = 0\n")
    out = tmp_path / "base.ldck"
    rc = main(["train", "--data", data, "--config", str(cfg), "--steps", "3", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"saved checkpoint to {out} at step 3"]


def test_eval_rejects_unknown_metric(tmp_path, capsys):
    data = _write_training_data(tmp_path)
    rc = main(["eval", "--gen", data, "--ref", data, "--metrics", "jsd,foo"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown metric 'foo'")
    assert all(name in err[0] for name in ("jsd", "mmd", "frechet"))

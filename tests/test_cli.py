import math
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lidarscene import cli, config, layout as layout_mod, raycast, scorenet, sensor
from lidarscene.cli import main
from lidarscene.layout import Pose, SceneParams, SemanticPrimitive

import workloads

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


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only extract's DBSCAN and eval's Chamfer, each importing
    # it on first use; render, generate, train and sample never load it.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, lidarscene.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "sensor.cfg"
    path.write_text(SMALL_SENSOR)
    return str(path)


@pytest.fixture
def scene_file(tmp_path):
    scene = layout_mod.Layout(primitives=(SemanticPrimitive(3, "cuboid", (6.0, 0.0, 0.75), (4.0, 1.8, 1.5), 0.0),))  # car
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


def test_render_trajectory_meshes_and_builds_the_scene_once(tmp_path, scene_file, small_cfg, monkeypatch):
    built, build = [], raycast.build_bvh
    raycast._scene.cache_clear()
    monkeypatch.setattr(raycast, "build_bvh", lambda mesh: built.append(mesh) or build(mesh))
    traj = tmp_path / "traj.txt"
    traj.write_text("0 0 0 0\n1 0 0 15\n2 0 0 30\n")
    out = tmp_path / "frames"
    assert main(["render", "--layout", scene_file, "--sensor", small_cfg, "--trajectory", str(traj),
                 "--out", str(out)]) == 0
    assert len(sorted(out.glob("*.lri"))) == 3 and len(built) == 1


def test_render_trajectory_cloud_is_each_frame_in_world(tmp_path, scene_file, small_cfg):
    traj = tmp_path / "traj.txt"
    traj.write_text("0 0 0 0\n2 -1 0.5 30\n-3 1 0 -60\n")
    out = tmp_path / "frames"
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg, "--trajectory", str(traj),
               "--cloud", "--out", str(out)])
    assert rc == 0
    cfg = config.load_config(small_cfg)
    spec, scene = cfg.build("sensor"), layout_mod.load_layout(scene_file)
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


def test_render_raydrop_rejects_non_finite_setting(tmp_path, scene_file, capsys):
    # A NaN p0 would make every drop comparison False and keep every return.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_SENSOR + "raydrop.p0 = nan\n")
    out = tmp_path / "d.lri"
    rc = main(["render", "--layout", scene_file, "--sensor", str(cfg), "--raydrop", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: raydrop p0, p1 and p2 must be finite")
    assert not out.exists()


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


@pytest.mark.parametrize("density", ["1e12", "1e300"])
def test_render_surface_sample_over_the_point_budget_is_one_error_line(tmp_path, scene_file, small_cfg, capsys, density):
    out = tmp_path / "surf.xyz"
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg, "--surface-sample", density, "--out", str(out)])
    assert rc == 1 and not out.exists()
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: surface sample density {float(density)} points/m2 on ")
    assert err.endswith(" points, over the budget of 1e7")


def test_render_surface_sample_of_a_far_primitive_is_one_error_line(tmp_path, small_cfg, capsys):
    scene = tmp_path / "far.layout"
    car = SemanticPrimitive(3, "cuboid", (5e9, 0.0, 0.75), (4.0, 1.8, 1.5))
    layout_mod.save_layout(scene, layout_mod.Layout(primitives=(car,)))
    out = tmp_path / "surf.xyz"
    rc = main(["render", "--layout", str(scene), "--sensor", small_cfg, "--surface-sample", "5", "--out", str(out)])
    assert rc == 1 and not out.exists()
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {out}: point 0 has a |coordinate| of {2.0**52 / 1e6} or more: (")


@pytest.mark.parametrize(
    "first, second",
    [
        (("--surface-sample", "50"), ("--trajectory", "traj.txt")),
        (("--surface-sample", "50"), ("--pose", "1,2,0,30")),
        (("--surface-sample", "50"), ("--raydrop",)),
        (("--surface-sample", "50"), ("--cloud",)),
        (("--trajectory", "traj.txt"), ("--pose", "1,2,0,30")),
    ],
    ids=["surface-trajectory", "surface-pose", "surface-raydrop", "surface-cloud", "trajectory-pose"],
)
def test_render_rejects_a_flag_its_mode_would_ignore(tmp_path, scene_file, small_cfg, capsys, first, second):
    (tmp_path / "traj.txt").write_text("0 0 0 0\n")
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a == "traj.txt" else a for a in (*first, *second)]
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg, *argv, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {first[0]} cannot be combined with {second[0]}"]
    assert not out.exists()


def test_render_default_pose_is_the_origin(tmp_path, scene_file, small_cfg):
    default, origin = tmp_path / "default.lri", tmp_path / "origin.lri"
    assert main(["render", "--layout", scene_file, "--sensor", small_cfg, "--out", str(default)]) == 0
    assert main(["render", "--layout", scene_file, "--sensor", small_cfg, "--pose", "0,0,0,0", "--out", str(origin)]) == 0
    assert default.read_bytes() == origin.read_bytes()


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


@pytest.mark.parametrize(
    "config_line, cloud_line, message",
    [
        ("cluster.car.eps = nan", "0 0 0 3", "eps must be finite and > 0"),
        ("", "nan 0 0 3", "cloud.xyz:2: coordinates must be finite"),
    ],
    ids=["eps", "point"],
)
def test_extract_rejects_non_finite_input(tmp_path, capsys, config_line, cloud_line, message):
    cfg, cloud, out = tmp_path / "extract.cfg", tmp_path / "cloud.xyz", tmp_path / "found.layout"
    cfg.write_text(config_line + "\n")
    cloud.write_text(f"1 1 0 3\n{cloud_line}\n")
    rc = main(["extract", "--cloud", str(cloud), "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


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


def test_unproject_refuses_a_non_finite_semantic_id_naming_the_file(tmp_path, capsys):
    spec = sensor.SensorSpec(rows=8, cols=8)
    sem = np.full((8, 8), 1.0)
    sem[2, 5] = np.nan
    dpath, spath, out = tmp_path / "d.lri", tmp_path / "s.lri", tmp_path / "cloud.xyz"
    sensor.write_lri(dpath, sensor.RangeImage(spec, np.full((8, 8), 5.0)))
    sensor.write_lri(spath, sensor.RangeImage(spec, sem))
    rc = main(["unproject", "--depth", str(dpath), "--semantic", str(spath),
               "--intrinsics", "10,10,4,4", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {spath}: semantic id nan at row 2, column 5 is not an integer in int64's range"]
    assert not out.exists()


def test_eval_refuses_a_fractional_semantic_id_naming_the_frame(tmp_path, capsys):
    spec = sensor.SensorSpec(rows=8, cols=8)
    data = np.stack([np.full((8, 8), 5.0), np.ones((8, 8))])
    (tmp_path / "gen").mkdir()
    sensor.write_lri(tmp_path / "gen" / "a.lri", sensor.RangeImage(spec, data))
    data[1, 0, 3] = 2.5
    sensor.write_lri(tmp_path / "gen" / "b.lri", sensor.RangeImage(spec, data))
    rc = main(["eval", "--gen", str(tmp_path / "gen"), "--ref", str(tmp_path / "gen"), "--metrics", "jsd"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {tmp_path / 'gen' / 'b.lri'}: semantic id 2.5 at row 0, column 3 is not an integer in int64's range"]


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
    model = scorenet.ScoreModel(cfg.build("model"), seed=0)
    state = scorenet.TrainState(model, cfg.build("schedule"), adapter=scorenet.ControlAdapter(model))
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
    spec = cfg.build("sensor")
    img = raycast.render_conditional(layout_mod.load_layout(scene_path), spec, tessellation=cfg["render.tessellation"])
    data = tmp_path / "pairs"
    data.mkdir()
    sensor.write_lri(data / "x.lri", sensor.RangeImage(spec, img.depth))
    sensor.write_lri(data / "x.cond.lri", img)
    _, conds = cli._load_training_images(data, conditional=True)
    assert (seen[0][0, 1] > 0).any()
    np.testing.assert_allclose(seen[0][0, 1], conds[0, 1], rtol=1e-6)
    np.testing.assert_allclose(seen[0][0, 1].max(), 2 / (len(layout_mod.DEFAULT_PALETTE) - 1), rtol=1e-6)


def _assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


def test_benchmark_encodes_frames_as_train_and_sample_do(tmp_path, monkeypatch):
    # perfbench/workloads.py restates the condition encoding, the training
    # depth and the sample decoding; each copy must stay the library's, bit for bit.
    assert workloads.SEM_DENOM == sensor.SEMANTIC_DENOM
    for seed in range(30):
        scene, depth_n, cond = workloads._c10_example(seed)
        render = raycast.render_conditional(
            scene, workloads.C10_SPEC, workloads.C10_POSE, tessellation=workloads.C10_TESSELLATION
        )
        _assert_same(cond, sensor.control_image(render))
        _assert_same(depth_n, sensor.normalize_depth(render.depth, render.spec).astype(np.float32))
    for seed in range(10):
        *_, x_back, c_back, image, cond = workloads.Dataset()._frame(seed, tmp_path / "f.lri")
        _assert_same(cond, sensor.control_image(c_back))
        _assert_same(image, sensor.normalize_depth(x_back.depth, x_back.spec)[None].astype(np.float32))

    spec = workloads.C10_SPEC
    cfg_path = tmp_path / "c10.cfg"
    cfg_path.write_text(TRAIN_CFG.replace("sensor.cols = 64", f"sensor.cols = {spec.cols}"))
    cfg = cli.load_config(cfg_path)
    assert cfg.build("sensor") == spec
    ckpt = tmp_path / "base.ldck"
    scorenet.save_checkpoint(ckpt, scorenet.TrainState(scorenet.ScoreModel(cfg.build("model")), cfg.build("schedule")))
    x = np.random.default_rng(0).uniform(-0.25, 1.25, (1, scorenet.IN_CHANNELS, spec.rows, spec.cols))
    x = x.astype(np.float32)
    assert (x < 0).any() and (x > 1).any()
    monkeypatch.setattr(scorenet, "sample_annealed_langevin", lambda score_fn, schedule, config, shape, seed: x)
    assert main(["sample", "--ckpt", str(ckpt), "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
    written = sensor.read_lri(tmp_path / "s" / "sample_00000.lri")
    assert written.spec == spec
    np.testing.assert_array_equal(written.data, workloads._range_image(x[0, 0]).data.astype(np.float32))


def test_train_rejects_a_cond_frame_without_semantic_channel(tmp_path, train_cfg, capsys):
    data = tmp_path / "data"
    data.mkdir()
    spec = sensor.SensorSpec(rows=16, cols=64)
    sensor.write_lri(data / "x.lri", sensor.RangeImage(spec, np.full((16, 64), 5.0)))
    sensor.write_lri(data / "x.cond.lri", sensor.RangeImage(spec, np.full((16, 64), 5.0)))
    out = tmp_path / "base.ldck"
    rc = main(["train", "--data", str(data), "--config", train_cfg, "--steps", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {data / 'x.cond.lri'}: condition frame has no semantic channel (channel 1)"]
    assert not out.exists()


def test_train_controlnet_requires_base(tmp_path, train_cfg, capsys):
    # The frames have no .cond.lri partners: the missing --base is named before they are read.
    data = _write_training_data(tmp_path)
    out = tmp_path / "x.ldck"
    rc = main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--controlnet", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: --controlnet requires --base CKPT"]
    assert not out.exists()


def test_sample_cond_without_adapter_fails(tmp_path, train_cfg, scene_file, capsys, monkeypatch):
    data = _write_training_data(tmp_path)
    base = tmp_path / "base.ldck"
    main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--out", str(base)])
    capsys.readouterr()
    renders = []
    monkeypatch.setattr(raycast, "render_conditional", lambda *args, **kwargs: renders.append(args))
    out = tmp_path / "s"
    rc = main(["sample", "--ckpt", str(base), "--config", train_cfg,
               "--layout", scene_file, "--num", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: checkpoint has no conditioning adapter; train with --controlnet"]
    assert renders == [] and not out.exists()


def test_missing_layout_exits_nonzero(tmp_path, capsys):
    rc = main(["render", "--layout", str(tmp_path / "none.layout"),
               "--out", str(tmp_path / "o.lri")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_pose_exits_nonzero(tmp_path, scene_file, small_cfg, capsys):
    # A field that is not a number, or not finite, is named by its flag too.
    out = tmp_path / "o.lri"
    for pose in ["1,2,3", "1,2,x,4", "1,2,nan,4"]:
        rc = main(["render", "--layout", scene_file, "--sensor", small_cfg, "--pose", pose, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: --pose must be 'x,y,z,yaw_deg', got {pose!r}"]
        assert not out.exists()


@pytest.mark.parametrize("pose", ["0,,0,0,90", "0,0,0,90,", ",0,0,0,90", "0, ,0,0,90", "0 , ,0,0,90"],
                         ids=["inner", "trailing", "leading", "comma-space-comma", "spaced-commas"])
def test_empty_pose_field_exits_nonzero(tmp_path, scene_file, small_cfg, capsys, pose):
    # An empty field is not a zero: four numbers around it still read as a pose.
    out = tmp_path / "o.lri"
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg, "--pose", pose, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --pose must be 'x,y,z,yaw_deg', got {pose!r}"]
    assert not out.exists()


def test_empty_fields_are_refused_in_intrinsics_and_trajectory_lines(tmp_path, scene_file, small_cfg, capsys):
    dpath, traj = tmp_path / "d.lri", tmp_path / "poses.txt"
    sensor.write_lri(dpath, sensor.RangeImage(sensor.SensorSpec(rows=8, cols=8), np.full((8, 8), 5.0)))
    rc = main(["unproject", "--depth", str(dpath), "--semantic", str(dpath),
               "--intrinsics", "10,10,4,4,", "--out", str(tmp_path / "cloud.xyz")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: --intrinsics must be 'fx,fy,cx,cy', got '10,10,4,4,'"]
    traj.write_text("0 0 0 0\n1,,0,0,0\n")
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg,
               "--trajectory", str(traj), "--out", str(tmp_path / "frames")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {traj}:2: --trajectory line must be 'x,y,z,yaw_deg', got '1,,0,0,0'"]
    assert not (tmp_path / "cloud.xyz").exists() and not (tmp_path / "frames").exists()


@pytest.mark.parametrize("text", ["1,2,3,4", "1 2 3 4", "1, 2, 3, 4", "1 ,2 , 3\t4", " 1  2 3 4 "])
def test_number_fields_split_at_commas_and_spaces(text):
    assert cli._numbers(text, "--pose", "x,y,z,yaw_deg") == [1.0, 2.0, 3.0, 4.0]


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
    traj.write_text("0 0 0 0\n\n1 inf 0 0\n")
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg,
               "--trajectory", str(traj), "--out", str(tmp_path / "frames")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {traj}:3: --trajectory line must be 'x,y,z,yaw_deg', got '1 inf 0 0'"
    ]


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
    "settings, argv, message",
    [
        ("train.steps = -3\n", (), "steps >= 0 and batch_size >= 1"),
        ("", ("--steps", "-3"), "steps >= 0 and batch_size >= 1"),
        ("train.batch_size = 0\n", ("--steps", "2"), "steps >= 0 and batch_size >= 1"),
        ("train.log_every = -3\n", ("--steps", "2"), "train log_every must be >= 0, got -3"),
    ],
    ids=["steps-config", "steps-flag", "batch-size", "log-every"],
)
def test_train_rejects_negative_steps_and_empty_batches(tmp_path, capsys, settings, argv, message):
    assert message in _train_fails_with_one_error_line(tmp_path, capsys, settings, argv)


@pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
def test_train_rejects_learning_rates_outside_zero_to_inf(tmp_path, capsys, lr):
    assert "train lr must be finite and > 0" in _train_fails_with_one_error_line(tmp_path, capsys, f"train.lr = {lr}\n")


def test_train_rejects_infinite_sigma_max(tmp_path, capsys):
    err = _train_fails_with_one_error_line(tmp_path, capsys, "schedule.sigma_max = inf\n")
    assert "schedule sigma_max must be finite" in err


@pytest.mark.parametrize(
    "setting, field",
    [
        ("sensor.max_range = inf", "max_range"),
        ("sensor.pitch_max_deg = inf", "pitch_max"),
        ("sensor.pitch_min_deg = -inf", "pitch_min"),
        ("sensor.origin_height = nan", "origin_height"),
    ],
)
def test_render_rejects_non_finite_sensor_settings(tmp_path, scene_file, capsys, setting, field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_SENSOR + setting + "\n")
    out = tmp_path / "o.lri"
    rc = main(["render", "--layout", scene_file, "--sensor", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: sensor {field} must be finite")
    assert not out.exists()


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


@pytest.mark.parametrize("flags", [("--phase", "a"), ("--base", "/nonexistent.ldck")])
def test_train_rejects_adapter_flags_without_controlnet(tmp_path, capsys, flags):
    err = _train_fails_with_one_error_line(tmp_path, capsys, "", argv=("--steps", "2", *flags))
    assert f"{flags[0]} requires --controlnet" in err


def test_train_controlnet_alone_trains_phase_ab(tmp_path, train_cfg, monkeypatch):
    data = _write_training_data(tmp_path, with_cond=True)
    base = tmp_path / "base.ldck"
    assert main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--out", str(base)]) == 0
    phases = []
    real = scorenet.train

    def spy(state, dataset, config, log=None):
        phases.append(config.phase)
        return real(state, dataset, config, log)

    monkeypatch.setattr(scorenet, "train", spy)
    rc = main(["train", "--data", data, "--config", train_cfg, "--steps", "2",
               "--controlnet", "--base", str(base), "--out", str(tmp_path / "ctrl.ldck")])
    assert rc == 0 and phases == ["ab"]


def test_train_rejects_a_changed_base(tmp_path, train_cfg, monkeypatch, capsys):
    data = _write_training_data(tmp_path, with_cond=True)
    base = tmp_path / "base.ldck"
    assert main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--out", str(base)]) == 0
    real = scorenet.train

    def nudging(state, dataset, config, log=None):
        losses = real(state, dataset, config, log)
        state.model.out_conv.b.value[0] += 1e-3
        return losses

    monkeypatch.setattr(scorenet, "train", nudging)
    capsys.readouterr()
    out = tmp_path / "ctrl.ldck"
    rc = main(["train", "--data", data, "--config", train_cfg, "--steps", "2",
               "--controlnet", "--base", str(base), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: base parameters changed during conditional training"]
    assert not out.exists()


def test_sample_rejects_pose_without_layout(tmp_path, train_cfg, capsys):
    data = _write_training_data(tmp_path)
    base = tmp_path / "base.ldck"
    assert main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--out", str(base)]) == 0
    capsys.readouterr()
    out = tmp_path / "s"
    rc = main(["sample", "--ckpt", str(base), "--config", train_cfg, "--pose", "0,-12,4,90",
               "--num", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--pose requires --layout" in err[0]
    assert not out.exists()


def test_sample_rejects_an_empty_pose(tmp_path, train_cfg, scene_file, capsys):
    cfg = cli.load_config(train_cfg)
    model = scorenet.ScoreModel(cfg.build("model"), seed=0)
    ckpt = tmp_path / "ctrl.ldck"
    scorenet.save_checkpoint(ckpt, scorenet.TrainState(model, cfg.build("schedule"), adapter=scorenet.ControlAdapter(model)))
    out = tmp_path / "s"
    rc = main(["sample", "--ckpt", str(ckpt), "--config", train_cfg, "--layout", scene_file, "--pose", "",
               "--num", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: --pose must be 'x,y,z,yaw_deg', got ''"]
    assert not list(out.glob("*.lri"))


def test_sample_exits_nonzero_on_a_non_finite_final_step(tmp_path, train_cfg, capsys, monkeypatch):
    # Only the final denoising step, after the last level's check, turns NaN.
    cfg = cli.load_config(train_cfg)
    ckpt = tmp_path / "base.ldck"
    scorenet.save_checkpoint(ckpt, scorenet.TrainState(scorenet.ScoreModel(cfg.build("model")), cfg.build("schedule")))
    calls = []

    def score_fn(x, sigma):
        calls.append(sigma)
        return np.full(x.shape, np.nan if len(calls) > 6 else 0.0)  # 3 levels x 2 steps pass

    monkeypatch.setattr(scorenet, "model_score_fn", lambda *args, **kwargs: score_fn)
    out = tmp_path / "s"
    rc = main(["sample", "--ckpt", str(ckpt), "--config", train_cfg, "--num", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: non-finite sampler state"]
    assert len(calls) == 7 and not out.exists()


@pytest.mark.parametrize("pose", [[], ["--pose", "1,2,3,4"]], ids=["no-pose", "pose"])
def test_sample_reads_an_empty_layout_path_as_a_path(tmp_path, train_cfg, capsys, pose):
    # --layout '' is given, so it is read like any path: no unconditional
    # sample is drawn in its place, and --pose is not refused for want of it.
    cfg = cli.load_config(train_cfg)
    model = scorenet.ScoreModel(cfg.build("model"), seed=0)
    ckpt = tmp_path / "ctrl.ldck"
    scorenet.save_checkpoint(ckpt, scorenet.TrainState(model, cfg.build("schedule"), adapter=scorenet.ControlAdapter(model)))
    out = tmp_path / "s"
    rc = main(["sample", "--ckpt", str(ckpt), "--config", train_cfg, "--layout", "", *pose,
               "--num", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: [Errno 2] No such file or directory: ''"]
    assert not out.exists()


@pytest.mark.parametrize(
    "given", [["render", "--trajectory", ""], ["eval", "--layout", ""], ["eval", "--csv", ""]],
    ids=["render-trajectory", "eval-layout", "eval-csv"],
)
def test_empty_path_arguments_are_read_as_paths(tmp_path, scene_file, small_cfg, capsys, given):
    # An empty path is given, so it is read like any path: no single frame at
    # the default pose, no report without its layout scores or its CSV.
    data, out = _write_training_data(tmp_path), tmp_path / "frames"
    rest = {"render": ["--layout", scene_file, "--sensor", small_cfg, "--out", str(out)],
            "eval": ["--gen", data, "--ref", data, "--metrics", "jsd"]}
    rc = main([*given, *rest[given[0]]])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: [Errno 2] No such file or directory: ''"]
    assert not out.exists()


@pytest.mark.parametrize("num", ["0", "-2"])
def test_gen_scenes_rejects_num_below_one(tmp_path, capsys, num):
    out = tmp_path / "scenes"
    assert main(["gen-scenes", "--num", num, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --num must be >= 1, got {num}"]
    assert captured.out == "" and not out.exists()


def test_sample_rejects_num_below_one(tmp_path, capsys):
    out = tmp_path / "s"
    # checked before the checkpoint is read, so a missing one never shows
    rc = main(["sample", "--ckpt", str(tmp_path / "missing.ldck"), "--num", "-2", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --num must be >= 1, got -2"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("intrinsics", ["1,2,3", "1,2,3,4,5", "10,10,4,x", "nan,10,4,4"])
def test_unproject_bad_intrinsics_names_the_flag(tmp_path, capsys, intrinsics):
    spec = sensor.SensorSpec(rows=8, cols=8)
    dpath, out = tmp_path / "d.lri", tmp_path / "cloud.xyz"
    sensor.write_lri(dpath, sensor.RangeImage(spec, np.full((8, 8), 5.0)))
    rc = main(["unproject", "--depth", str(dpath), "--semantic", str(dpath),
               "--intrinsics", intrinsics, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --intrinsics must be 'fx,fy,cx,cy', got {intrinsics!r}"]
    assert not out.exists()


def test_train_controlnet_needs_a_partner_for_every_frame(tmp_path, train_cfg, capsys):
    data = Path(_write_training_data(tmp_path, with_cond=True))
    for name in ("img_001.cond.lri", "img_003.cond.lri"):
        (data / name).unlink()
    base = tmp_path / "base.ldck"
    # plain training reads the partners it finds and needs none
    assert main(["train", "--data", str(data), "--config", train_cfg, "--steps", "1", "--out", str(base)]) == 0
    capsys.readouterr()
    out = tmp_path / "ctrl.ldck"
    rc = main(["train", "--data", str(data), "--config", train_cfg, "--steps", "6",
               "--controlnet", "--base", str(base), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {data / 'img_001.lri'} has no img_001.cond.lri: --controlnet needs a partner for every frame"
    ]
    assert captured.out == "" and not out.exists()


def test_eval_reads_no_cond_partners(tmp_path, capsys):
    spec = sensor.SensorSpec(rows=16, cols=64)
    rng = np.random.default_rng(3)
    gen, ref, paired = (tmp_path / name for name in ("gen", "ref", "paired"))
    for d in (gen, ref, paired):
        d.mkdir()
    for i in range(2):
        sensor.write_lri(gen / f"s_{i}.lri", sensor.RangeImage(spec, rng.uniform(1.0, 60.0, (16, 64))))
        frame = sensor.RangeImage(spec, rng.uniform(1.0, 60.0, (16, 64)))
        sensor.write_lri(ref / f"x_{i}.lri", frame)
        sensor.write_lri(paired / f"x_{i}.lri", frame)
        cond = np.stack([np.full((16, 64), 5.0), np.ones((16, 64))])
        sensor.write_lri(paired / f"x_{i}.cond.lri", sensor.RangeImage(spec, cond))
    reports = []
    for d in (ref, paired):
        csv = tmp_path / f"{d.name}.csv"
        assert main(["eval", "--gen", str(gen), "--ref", str(d), "--metrics", "mmd,frechet", "--csv", str(csv)]) == 0
        reports.append((capsys.readouterr().out, csv.read_text()))
    assert reports[0] == reports[1]


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("lidarscene ")]
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        try:
            commands.add(parser.parse_args(shlex.split(line)[1:]).command)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    assert commands == {"gen-scenes", "render", "extract", "unproject", "train", "sample", "eval"}


def test_eval_layout_scores_each_frame_in_its_own_sensor(tmp_path, capsys):
    # Two renders of one car, from the default sensor height and from 6 m:
    # each frame, unprojected with its own sensor, matches the layout exactly.
    scene = layout_mod.Layout(primitives=(SemanticPrimitive(3, "cuboid", (20.3, 0.4, 0.75), (4.0, 1.8, 1.5)),))
    layout_path, gen = tmp_path / "scene.layout", tmp_path / "gen"
    layout_mod.save_layout(layout_path, scene)
    gen.mkdir()
    for i, height in enumerate((1.73, 6.0)):
        spec = sensor.SensorSpec(rows=32, cols=512, origin_height=height)
        sensor.write_lri(gen / f"f_{i}.lri", raycast.render_conditional(scene, spec))
    rc = main(["eval", "--gen", str(gen), "--ref", str(gen), "--metrics", "jsd", "--layout", str(layout_path)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["jsd=0", "box_recall=1", "bev_iou=1"]


def test_eval_layout_scores_a_palette_without_cars(tmp_path, capsys):
    # No "car" label at all: scored like any layout without cars.
    palette = (layout_mod.SemanticLabel(0, "ground", (81, 0, 81)), layout_mod.SemanticLabel(1, "building", (70, 70, 70)))
    scene = layout_mod.Layout(palette, (SemanticPrimitive(1, "cuboid", (15.0, 2.0, 3.0), (6.0, 4.0, 6.0)),))
    layout_path, gen = tmp_path / "nocar.layout", tmp_path / "gen"
    layout_mod.save_layout(layout_path, scene)
    gen.mkdir()
    sensor.write_lri(gen / "f.lri", raycast.render_conditional(scene, sensor.SensorSpec(rows=16, cols=128)))
    rc = main(["eval", "--gen", str(gen), "--ref", str(gen), "--metrics", "jsd", "--layout", str(layout_path)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["jsd=0", "box_recall=1", "bev_iou=1"]


@pytest.mark.parametrize("text", ["", "# no poses here\n\n"], ids=["empty", "comments-only"])
def test_render_trajectory_without_poses_exits_nonzero(tmp_path, scene_file, small_cfg, capsys, text):
    traj, out = tmp_path / "poses.txt", tmp_path / "frames"
    traj.write_text(text)
    rc = main(["render", "--layout", scene_file, "--sensor", small_cfg, "--trajectory", str(traj), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [f"error: --trajectory {traj} holds no poses"]


@pytest.mark.parametrize("names", [",", "", " , "])
def test_eval_rejects_metrics_naming_no_metric(tmp_path, capsys, names):
    data = _write_training_data(tmp_path)
    rc = main(["eval", "--gen", data, "--ref", data, "--metrics", names])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --metrics names no metric; choose from jsd, mmd, frechet"]


def _cloud_bytes(path):
    cloud = sensor.read_point_cloud(path)
    return cloud.points.tobytes(), cloud.labels.tobytes()


@pytest.mark.parametrize(
    "read, text",
    [
        (layout_mod.load_layout, "palette ground 81 0 81\npalette car 0 0 142\nprim car cuboid 6 0 0.75 4 1.8 1.5 0\n"),
        (lambda path: config.load_config(path).values, "sensor.rows = 16\n"),
        (cli._read_trajectory, "0 0 0 0\n4 0 0 90\n"),
        (_cloud_bytes, "1 2 3 4\n5.5 6 7 8\n"),
        (_cloud_bytes, "# x y z label_id\n1 2 3 4\n5.5 6 7 8\n"),
    ],
    ids=["layout", "config", "trajectory", "xyz", "xyz-header"],
)
def test_text_readers_skip_a_byte_order_mark(tmp_path, monkeypatch, read, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    monkeypatch.setattr(sensor, "text_lines", None)  # an .xyz file stays on the np.loadtxt path
    assert read(marked) == read(plain)


def test_eval_opens_csv_before_reading_any_frame(tmp_path, capsys, monkeypatch):
    data, csv = _write_training_data(tmp_path), tmp_path / "nodir" / "out.csv"
    read = []
    monkeypatch.setattr(sensor, "read_lri", lambda path: read.append(path))
    assert main(["eval", "--gen", data, "--ref", data, "--metrics", "jsd", "--csv", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: [Errno 2] No such file or directory: '{csv}'"]
    assert captured.out == "" and read == []


def test_eval_csv_is_replaced_only_by_a_finished_report(tmp_path, capsys):
    data, csv = _write_training_data(tmp_path), tmp_path / "out.csv"
    (tmp_path / "empty").mkdir()
    csv.write_text("metric,value\nold,1\nolder,2\n")
    assert main(["eval", "--gen", str(tmp_path / "empty"), "--ref", data, "--csv", str(csv)]) == 1
    assert csv.read_text() == "metric,value\nold,1\nolder,2\n"
    assert main(["eval", "--gen", data, "--ref", data, "--metrics", "jsd", "--csv", str(csv)]) == 0
    assert csv.read_text() == "metric,value\njsd,0\n"


@pytest.mark.parametrize("where", ["file", "file/sub"], ids=["out-is-a-file", "parent-is-a-file"])
def test_sample_out_blocked_by_a_file_fails_before_the_first_sample(tmp_path, train_cfg, capsys, monkeypatch, where):
    cfg = cli.load_config(train_cfg)
    ckpt = tmp_path / "base.ldck"
    scorenet.save_checkpoint(ckpt, scorenet.TrainState(scorenet.ScoreModel(cfg.build("model")), cfg.build("schedule")))
    (tmp_path / "file").write_text("")
    calls = []
    monkeypatch.setattr(scorenet, "sample_annealed_langevin", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / where
    assert main(["sample", "--ckpt", str(ckpt), "--config", train_cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --out {out}: {tmp_path / 'file'} is not a directory"]
    assert calls == []


@pytest.mark.parametrize("where", ["nodir/b.ldck", "file/b.ldck", "dir"], ids=["no-directory", "parent-is-a-file", "out-is-a-directory"])
def test_train_out_is_checked_before_data_is_read(tmp_path, train_cfg, capsys, monkeypatch, where):
    data = _write_training_data(tmp_path)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    read, trained = [], []
    monkeypatch.setattr(sensor, "read_lri", lambda path: read.append(path))
    monkeypatch.setattr(scorenet, "train", lambda *args, **kwargs: trained.append(args))
    out = tmp_path / where
    assert main(["train", "--data", data, "--config", train_cfg, "--steps", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --out {out} must name a file in an existing directory"]
    assert read == [] and trained == []


def _refusal(call, *args):
    with pytest.raises(ValueError) as excinfo:
        call(*args)
    return str(excinfo.value)


def _bad_layout(tmp_path, capsys):
    path = tmp_path / "bad.layout"
    path.write_text("palette ground 81 0 81\nprim ground cuboid 0 0 0 1 1 1\n")
    return path, _refusal(layout_mod.load_layout, path)


def _bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("sensor.rows = 16\nsensor.rows = x\n")
    return path, _refusal(config.load_config, path)


def _lri_bad_magic(tmp_path, capsys):
    path = tmp_path / "bad.lri"
    path.write_bytes(b"NOPE" + bytes(64))
    return path, _refusal(sensor.read_lri, path)


def _lri_refused_geometry(tmp_path, capsys):
    path = tmp_path / "flipped.lri"
    header = struct.pack("<IIIdddd", 2, 2, 1, 0.0, 0.1, 80.0, 1.7)  # pitch_max below pitch_min
    path.write_bytes(b"LRI2" + header + bytes(16))
    return path, _refusal(sensor.read_lri, path)


def _ldck_bad_magic(tmp_path, capsys):
    path = tmp_path / "bad.ldck"
    path.write_bytes(b"NOPE" + bytes(64))
    return path, _refusal(scorenet.load_checkpoint, path)


def _ldck_refused_settings(tmp_path, capsys):
    cfg = config.parse_config(TRAIN_CFG)
    path = tmp_path / "odd.ldck"
    scorenet.save_checkpoint(path, scorenet.TrainState(scorenet.ScoreModel(cfg.build("model")), cfg.build("schedule")))
    path.write_bytes(path.read_bytes().replace(b"\nemb_dim=8\n", b"\nemb_dim=3\n"))
    return path, _refusal(scorenet.load_checkpoint, path)


def _cond_without_semantic(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    spec = sensor.SensorSpec(rows=16, cols=64)
    for name in ("x.lri", "x.cond.lri"):
        sensor.write_lri(data / name, sensor.RangeImage(spec, np.full((16, 64), 5.0)))
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    assert main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "b.ldck")]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    return data / "x.cond.lri", err.removeprefix("error: ")


@pytest.mark.parametrize("refuse", [_bad_layout, _bad_config, _lri_bad_magic, _lri_refused_geometry,
                                    _ldck_bad_magic, _ldck_refused_settings, _cond_without_semantic],
                         ids=["layout", "config", "lri-magic", "lri-geometry", "ldck-magic", "ldck-settings",
                              "cond-lri-semantic"])
def test_each_refusal_names_its_file_exactly_once(tmp_path, capsys, refuse):
    path, message = refuse(tmp_path, capsys)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1, message

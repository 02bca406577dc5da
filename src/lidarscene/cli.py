"""Command-line surface: scene generation, rendering, extraction,
training, sampling and evaluation.

Every command is deterministic given its flags; errors exit nonzero with
a single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import extraction, layout as layout_mod, meshing, metrics, raycast, scorenet, sensor
from .config import load_config
from .layout import Pose, SceneParams


def _numbers(text, flag, form):
    """The finite numbers in ``text`` (spaces, or one comma with any spaces
    around it, between fields), one per field of ``form``; anything else, an
    empty field included, raises a ValueError naming ``flag``."""
    try:
        values = [float(tok) for tok in re.split(r"\s*,\s*|\s+", text.strip())]
    except ValueError:  # a field that is not a number
        values = []
    if len(values) != len(form.split(",")) or not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} must be '{form}', got {text!r}")
    return values


def _parse_pose(text, flag):
    x, y, z, yaw_deg = _numbers(text, flag, "x,y,z,yaw_deg")
    return Pose(translation=(x, y, z), yaw=math.radians(yaw_deg))


def _read_trajectory(path):
    lines = layout_mod.text_lines(layout_mod.read_text(path))
    poses = [_parse_pose(line, f"{path}:{ln}: --trajectory line") for ln, line in lines]
    if not poses:
        raise ValueError(f"--trajectory {path} holds no poses")
    return poses


def _directory(text):
    """``text`` as a directory Path; an empty one is refused as the path ''
    it names, not read as ``Path('')``, the working directory."""
    if not text:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), text)
    return Path(text)


def _check_num(num):
    if num < 1:
        raise ValueError(f"--num must be >= 1, got {num}")


def cmd_gen_scenes(args):
    _check_num(args.num)
    out = _directory(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = SceneParams()
    for i in range(args.num):
        scene = layout_mod.generate_random_scene(args.seed + i, params)
        layout_mod.save_layout(out / f"scene_{i:05d}.layout", scene)
    print(f"wrote {args.num} layouts to {out}")


#: render flag -> the flags its mode would ignore.
_RENDER_EXCLUDES = {"surface_sample": ("trajectory", "pose", "raydrop", "cloud"), "trajectory": ("pose",)}


def cmd_render(args):
    for flag, ignored in _RENDER_EXCLUDES.items():
        for other in ignored:
            if getattr(args, flag) is not None and getattr(args, other) not in (None, False):
                raise ValueError(f"--{flag.replace('_', '-')} cannot be combined with --{other}")
    cfg = load_config(args.sensor)
    spec = cfg.build("sensor")
    scene = layout_mod.load_layout(args.layout)
    if args.surface_sample is not None:
        mesh = meshing.mesh_layout(scene, cfg["render.tessellation"])
        cloud = raycast.surface_sample(mesh, args.surface_sample, seed=args.seed)
        sensor.write_point_cloud(args.out, cloud)
        print(f"wrote {len(cloud)} surface-sampled points to {args.out}")
        return
    # (pose, range-image path, point-cloud path) per frame; a single pose is one frame.
    if args.trajectory is not None:
        out = _directory(args.out)
        frames = [(pose, out / f"frame_{i:05d}.lri", out / f"frame_{i:05d}.xyz")
                  for i, pose in enumerate(_read_trajectory(args.trajectory))]
        out.mkdir(parents=True, exist_ok=True)
        done = f"wrote {len(frames)} frames to {out}"
    else:
        pose = _parse_pose(args.pose, "--pose") if args.pose is not None else Pose()
        frames = [(pose, args.out, str(args.out) + ".xyz")]
        done = f"wrote {args.out}"
    for i, (pose, lri_path, xyz_path) in enumerate(frames):
        img, cos = raycast.render_conditional(scene, spec, pose, cfg["render.tessellation"], return_incidence=True)
        if args.raydrop:
            img = raycast.apply_raydrop(img, cfg.build("raydrop"), cos, seed=args.seed + i)
        sensor.write_lri(lri_path, img)
        if args.cloud:
            cloud = raycast.sensor_to_world(sensor.range_image_to_point_cloud(img), spec, pose)
            sensor.write_point_cloud(xyz_path, cloud)
    print(done)


def cmd_extract(args):
    cfg = load_config(args.config)
    cloud = sensor.read_point_cloud(args.cloud)
    result = extraction.extract_layout(cloud, params_by_label=cfg.cluster_params())
    layout_mod.save_layout(args.out, result)
    print(f"extracted {len(result.primitives)} primitives to {args.out}")


def cmd_unproject(args):
    intr = extraction.CameraIntrinsics(*_numbers(args.intrinsics, "--intrinsics", "fx,fy,cx,cy"))
    depth = sensor.read_lri(args.depth).depth
    # Channel 0 of the semantic file holds the ids; a refused id names that file.
    cloud = _encode_lri(args.semantic, lambda img: extraction.unproject_depth_semantic(depth, img.depth, intr))
    sensor.write_point_cloud(args.out, cloud)
    print(f"wrote {len(cloud)} pseudo points to {args.out}")


def _encode_lri(path, encode):
    """``encode`` of the range image in ``path``; a rejection names the file."""
    img = sensor.read_lri(path)
    with layout_mod.naming(path, sensor.SensorError):
        return encode(img)


def _check_size(path, frame, ref_path, ref):
    """Training frames stack into one batch, so they must share one size."""
    if frame.shape[1:] != ref.shape[1:]:
        (h, w), (rh, rw) = frame.shape[1:], ref.shape[1:]
        raise ValueError(f"{path}: frame is {h}x{w}, but {ref_path} is {rh}x{rw}")


def _frame_paths(data_dir):
    """The sorted *.lri frames in a directory, not their *.cond.lri partners."""
    paths = sorted(p for p in _directory(data_dir).glob("*.lri") if not p.name.endswith(".cond.lri"))
    if not paths:
        raise ValueError(f"no .lri files in {data_dir}")
    return paths


def _load_training_images(data_dir, conditional):
    """Normalized depth channels of the frames and the control images of the
    *.cond.lri partners they have; ``conditional`` requires one for every frame."""
    targets = _frame_paths(data_dir)
    images, conds = [], []
    for path in targets:
        images.append(_encode_lri(path, lambda img: sensor.normalize_depth(img.depth, img.spec)[None]))
        _check_size(path, images[-1], targets[0], images[0])
        cond_path = path.with_name(path.stem + ".cond.lri")
        if cond_path.exists():
            conds.append(_encode_lri(cond_path, sensor.control_image))
            _check_size(cond_path, conds[-1], path, images[-1])
        elif conditional:
            raise ValueError(f"{path} has no {cond_path.name}: --controlnet needs a partner for every frame")
    return np.array(images, dtype=np.float32), np.array(conds, dtype=np.float32)


def cmd_train(args):
    for flag in ("base", "phase"):
        if getattr(args, flag) is not None and not args.controlnet:
            raise ValueError(f"--{flag} requires --controlnet")
    if args.controlnet and not args.base:
        raise ValueError("--controlnet requires --base CKPT")
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ValueError(f"--out {args.out} must name a file in an existing directory")
    cfg = load_config(args.config)
    overrides = {k: v for k, v in (("steps", args.steps), ("seed", args.seed)) if v is not None}
    train_cfg = cfg.build("train", phase=(args.phase or "ab") if args.controlnet else "uncond", **overrides)
    images, conds = _load_training_images(args.data, conditional=args.controlnet)
    if args.controlnet:
        state = scorenet.load_checkpoint(args.base)
        if state.adapter is None:
            state.adapter = scorenet.ControlAdapter(state.model, seed=train_cfg.seed)
        before = state.model.param_checksum()
        scorenet.train(state, (images, conds), train_cfg, log=print)
        if state.model.param_checksum() != before:
            raise scorenet.ScoreNetError("base parameters changed during conditional training")
    else:
        model = scorenet.ScoreModel(cfg.build("model"), seed=train_cfg.seed)
        state = scorenet.TrainState(model=model, schedule=cfg.build("schedule"))
        scorenet.train(state, images, train_cfg, log=print)
    scorenet.save_checkpoint(args.out, state)
    print(f"saved checkpoint to {args.out} at step {state.step}")


def cmd_sample(args):
    _check_num(args.num)
    if args.pose is not None and args.layout is None:
        raise ValueError("--pose requires --layout: it places the conditioning render")
    cfg = load_config(args.config)
    spec = cfg.build("sensor")
    state = scorenet.load_checkpoint(args.ckpt)
    if args.layout is not None and state.adapter is None:
        raise ValueError("checkpoint has no conditioning adapter; train with --controlnet")
    sampler_cfg = cfg.build("sampler")
    out = _directory(args.out)
    nearest = next(p for p in (out, *out.parents) if p.exists())  # made a directory only once a sample is drawn
    if not nearest.is_dir():
        raise ValueError(f"--out {args.out}: {nearest} is not a directory")
    cond = None
    if args.layout is not None:
        scene = layout_mod.load_layout(args.layout)
        pose = _parse_pose(args.pose, "--pose") if args.pose is not None else Pose()
        cond = sensor.control_image(raycast.render_conditional(scene, spec, pose, tessellation=cfg["render.tessellation"]))[None]
    score_fn = scorenet.model_score_fn(state.model, adapter=state.adapter if cond is not None else None, cond=cond)
    shape = (1, scorenet.IN_CHANNELS, spec.rows, spec.cols)
    for i in range(args.num):
        x = scorenet.sample_annealed_langevin(score_fn, state.schedule, sampler_cfg, shape, seed=args.seed + i)
        depth = sensor.denormalize_depth(np.clip(x[0, 0], 0.0, 1.0), spec)
        img = sensor.RangeImage(spec, depth[None])
        out.mkdir(parents=True, exist_ok=True)
        sensor.write_lri(out / f"sample_{i:05d}.lri", img)
    print(f"wrote {args.num} samples to {out}")


def _load_cloud_dir(path):
    return [_encode_lri(p, lambda img: (img, sensor.range_image_to_point_cloud(img))) for p in _frame_paths(path)]


_EVAL_METRICS = ("jsd", "mmd", "frechet")


def cmd_eval(args):
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in _EVAL_METRICS]
    if not wanted:
        raise ValueError(f"--metrics names no metric; choose from {', '.join(_EVAL_METRICS)}")
    if unknown:
        raise ValueError(f"unknown metric {unknown[0]!r}; choose from {', '.join(_EVAL_METRICS)}")
    # Opened before any frame is read; appending keeps an existing file until
    # the report is ready, and a file this run created goes if the report fails.
    created = args.csv is not None and not os.path.lexists(args.csv)
    with open(args.csv, "a") if args.csv is not None else contextlib.nullcontext() as csv:
        try:
            report = _eval_report(args, wanted)
        except Exception:
            if created:
                os.remove(args.csv)
            raise
        for key, val in report.items():
            print(f"{key}={val:.6g}")
        if csv is not None:
            csv.truncate(0)
            csv.write("metric,value\n" + "".join(f"{key},{val:.9g}\n" for key, val in report.items()))


def _eval_report(args, wanted):
    """Metric name -> score of the ``wanted`` metrics, plus the layout scores when ``--layout`` is given."""
    gen = _load_cloud_dir(args.gen)
    ref = _load_cloud_dir(args.ref)
    report = {}
    if "jsd" in wanted:
        merged_gen = sensor.LabeledPointCloud(np.vstack([c.points for _, c in gen]))
        merged_ref = sensor.LabeledPointCloud(np.vstack([c.points for _, c in ref]))
        report["jsd"] = metrics.jsd(metrics.bev_histogram(merged_gen), metrics.bev_histogram(merged_ref))
    if "mmd" in wanted:
        report["mmd"] = metrics.mmd([c.points for _, c in gen], [c.points for _, c in ref])
    if "frechet" in wanted:
        feats_gen = np.array([metrics.log_depth_features(img) for img, _ in gen])
        feats_ref = np.array([metrics.log_depth_features(img) for img, _ in ref])
        report["frechet"] = metrics.frechet(feats_gen, feats_ref)
    if args.layout is not None:
        scene = layout_mod.load_layout(args.layout)
        # Each frame in its own sensor; every frame is scored at the default pose.
        scores = [metrics.layout_consistency(scene, raycast.sensor_to_world(cloud, img.spec, Pose()), img.spec)
                  for img, cloud in gen]
        report["box_recall"], report["bev_iou"] = (float(np.mean(s)) for s in zip(*scores))
    return report


def build_parser():
    parser = argparse.ArgumentParser(prog="lidarscene", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenes", help="generate random layout files")
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_scenes)

    p = sub.add_parser("render", help="raycast a layout into range images")
    p.add_argument("--layout", required=True)
    p.add_argument("--sensor", default=None, help="config file of the sensor.*, render.tessellation and raydrop.* keys")
    p.add_argument("--pose", default=None, help="x,y,z,yaw_deg (default 0,0,0,0)")
    p.add_argument("--trajectory", default=None, help="file of 'x y z yaw_deg' lines")
    p.add_argument("--out", required=True)
    p.add_argument("--raydrop", action="store_true")
    p.add_argument("--surface-sample", type=float, default=None, metavar="DENSITY")
    p.add_argument("--cloud", action="store_true", help="also write point-cloud text")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("extract", help="layout from a labeled point cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("unproject", help="pseudo point cloud from depth+semantic maps")
    p.add_argument("--depth", required=True)
    p.add_argument("--semantic", required=True)
    p.add_argument("--intrinsics", required=True, help="fx,fy,cx,cy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unproject)

    p = sub.add_parser("train", help="train the score model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--controlnet", action="store_true")
    p.add_argument("--base", default=None)
    p.add_argument("--phase", choices=["a", "b", "ab"], default=None, help="adapter phase (default ab)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="annealed Langevin sampling")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--layout", default=None)
    p.add_argument("--pose", default=None)
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="metric report over sample directories")
    p.add_argument("--gen", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metrics", default=",".join(_EVAL_METRICS))
    p.add_argument("--layout", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # single-line machine-parseable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

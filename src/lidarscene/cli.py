"""Command-line surface: scene generation, rendering, extraction,
training, sampling and evaluation.

Every command is deterministic given its flags; errors exit nonzero with
a single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import extraction, layout as layout_mod, meshing, metrics, raycast, scorenet, sensor
from .config import load_config
from .layout import Pose, SceneParams

#: Semantic ids are divided by this to form the conditioning channel, in
#: training and in sampling alike, whatever palette a layout file declares.
SEMANTIC_DENOM = max(len(layout_mod.DEFAULT_PALETTE) - 1, 1)


def _parse_pose(text: str) -> Pose:
    """Pose from 'x,y,z,yaw_deg' (commas or spaces between fields)."""
    parts = [float(tok) for tok in text.replace(",", " ").split()]
    if len(parts) != 4:
        raise ValueError(f"pose must be 'x,y,z,yaw_deg', got {text!r}")
    return Pose(translation=tuple(parts[:3]), yaw=math.radians(parts[3]))


def _read_trajectory(path):
    poses = []
    for ln, line in layout_mod.text_lines(layout_mod.read_text(path)):
        try:
            poses.append(_parse_pose(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
    return poses


def cmd_gen_scenes(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = SceneParams()
    for i in range(args.num):
        scene = layout_mod.generate_random_scene(args.seed + i, params)
        layout_mod.save_layout(out / f"scene_{i:05d}.layout", scene)
    print(f"wrote {args.num} layouts to {out}")


def cmd_render(args):
    cfg = load_config(args.sensor)
    spec = cfg.sensor_spec()
    scene = layout_mod.load_layout(args.layout)
    if args.surface_sample is not None:
        mesh = meshing.mesh_layout(scene, cfg["render.tessellation"])
        cloud = raycast.surface_sample(mesh, args.surface_sample, seed=args.seed)
        sensor.write_point_cloud(args.out, cloud)
        print(f"wrote {len(cloud)} surface-sampled points to {args.out}")
        return
    # (pose, range-image path, point-cloud path) per frame; a single pose is one frame.
    if args.trajectory:
        out = Path(args.out)
        frames = [(pose, out / f"frame_{i:05d}.lri", out / f"frame_{i:05d}.xyz")
                  for i, pose in enumerate(_read_trajectory(args.trajectory))]
        out.mkdir(parents=True, exist_ok=True)
        done = f"wrote {len(frames)} frames to {out}"
    else:
        frames = [(_parse_pose(args.pose), args.out, str(args.out) + ".xyz")]
        done = f"wrote {args.out}"
    for i, (pose, lri_path, xyz_path) in enumerate(frames):
        img, cos = raycast.render_conditional(scene, spec, pose, cfg["render.tessellation"], return_incidence=True)
        if args.raydrop:
            img = raycast.apply_raydrop(img, cfg.raydrop_params(), cos, seed=args.seed + i)
        sensor.write_lri(lri_path, img)
        if args.cloud:
            cloud = raycast.sensor_to_world(sensor.range_image_to_point_cloud(img), spec, pose)
            sensor.write_point_cloud(xyz_path, cloud)
    print(done)


def cmd_extract(args):
    cfg = load_config(args.config)
    cloud = sensor.read_point_cloud(args.cloud)
    result = extraction.extract_layout(cloud, params_by_label=cfg.cluster_params(layout_mod.DEFAULT_PALETTE))
    layout_mod.save_layout(args.out, result)
    print(f"extracted {len(result.primitives)} primitives to {args.out}")


def cmd_unproject(args):
    fx, fy, cx, cy = (float(tok) for tok in args.intrinsics.replace(",", " ").split())
    depth_img = sensor.read_lri(args.depth)
    sem_img = sensor.read_lri(args.semantic)
    intr = extraction.CameraIntrinsics(
        fx, fy, cx, cy, width=depth_img.spec.cols, height=depth_img.spec.rows
    )
    cloud = extraction.unproject_depth_semantic(depth_img.data[0], sem_img.data[0], intr)
    sensor.write_point_cloud(args.out, cloud)
    print(f"wrote {len(cloud)} pseudo points to {args.out}")


def _control_image(img):
    """The 2-channel condition of a rendered frame, as f32: normalized
    depth, then semantic id / SEMANTIC_DENOM (0 without a semantic channel)."""
    depth_n = sensor.normalize_depth(img.depth, img.spec)
    sem = img.semantic if img.semantic is not None else np.zeros_like(depth_n)
    return np.stack([depth_n, sem / SEMANTIC_DENOM]).astype(np.float32)


def _encode_lri(path, encode):
    """``encode`` of the range image in ``path``; a rejection names the file."""
    img = sensor.read_lri(path)
    try:
        return encode(img)
    except sensor.SensorError as exc:
        raise sensor.SensorError(f"{path}: {exc}") from None


def _check_size(path, frame, ref_path, ref):
    """Training frames stack into one batch, so they must share one size."""
    if frame.shape[1:] != ref.shape[1:]:
        (h, w), (rh, rw) = frame.shape[1:], ref.shape[1:]
        raise ValueError(f"{path}: frame is {h}x{w}, but {ref_path} is {rh}x{rw}")


def _load_training_images(data_dir):
    """Normalized depth channels of all *.lri files (conditioning frames
    named *.cond.lri are paired separately)."""
    targets = sorted(p for p in Path(data_dir).glob("*.lri") if not p.name.endswith(".cond.lri"))
    if not targets:
        raise ValueError(f"no .lri files in {data_dir}")
    images, conds = [], []
    for path in targets:
        images.append(_encode_lri(path, lambda img: sensor.normalize_depth(img.depth, img.spec)[None]))
        _check_size(path, images[-1], targets[0], images[0])
        cond_path = path.with_name(path.stem + ".cond.lri")
        if cond_path.exists():
            conds.append(_encode_lri(cond_path, _control_image))
            _check_size(cond_path, conds[-1], path, images[-1])
    return np.array(images, dtype=np.float32), (np.array(conds, dtype=np.float32) if conds else None)


def cmd_train(args):
    cfg = load_config(args.config)
    overrides = {k: v for k, v in (("steps", args.steps), ("seed", args.seed)) if v is not None}
    train_cfg = cfg.train_config(phase=args.phase if args.controlnet else "uncond", **overrides)
    images, conds = _load_training_images(args.data)
    if args.controlnet:
        if not args.base:
            raise ValueError("--controlnet requires --base CKPT")
        if conds is None:
            raise ValueError("conditional training requires *.cond.lri pairs")
        state = scorenet.load_checkpoint(args.base)
        if state.adapter is None:
            state.adapter = scorenet.ControlAdapter(state.model, seed=train_cfg.seed)
        before = state.model.param_checksum()
        scorenet.train(state, (images, conds), train_cfg, log=print)
        assert state.model.param_checksum() == before, "base parameters changed during conditional training"
    else:
        model = scorenet.ScoreModel(cfg.model_config(), seed=train_cfg.seed)
        state = scorenet.TrainState(model=model, schedule=cfg.noise_schedule())
        scorenet.train(state, images, train_cfg, log=print)
    scorenet.save_checkpoint(args.out, state)
    print(f"saved checkpoint to {args.out} at step {state.step}")


def cmd_sample(args):
    cfg = load_config(args.config)
    spec = cfg.sensor_spec()
    state = scorenet.load_checkpoint(args.ckpt)
    sampler_cfg = cfg.sampler_config()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cond = None
    if args.layout:
        scene = layout_mod.load_layout(args.layout)
        pose = _parse_pose(args.pose) if args.pose else Pose()
        cond = _control_image(raycast.render_conditional(scene, spec, pose, tessellation=cfg["render.tessellation"]))
        if state.adapter is None:
            raise ValueError("checkpoint has no conditioning adapter; train with --controlnet")
    score_fn = scorenet.model_score_fn(state.model, adapter=state.adapter if cond is not None else None, cond=cond)
    shape = (1, scorenet.IN_CHANNELS, spec.rows, spec.cols)
    for i in range(args.num):
        x = scorenet.sample_annealed_langevin(score_fn, state.schedule, sampler_cfg, shape, seed=args.seed + i)
        depth = sensor.denormalize_depth(np.clip(x[0, 0], 0.0, 1.0), spec)
        img = sensor.RangeImage(spec, depth[None])
        sensor.write_lri(out / f"sample_{i:05d}.lri", img)
    print(f"wrote {args.num} samples to {out}")


def _load_cloud_dir(path):
    clouds = []
    for f in sorted(Path(path).glob("*.lri")):
        img = sensor.read_lri(f)
        clouds.append((img, sensor.range_image_to_point_cloud(img)))
    if not clouds:
        raise ValueError(f"no .lri files in {path}")
    return clouds


_EVAL_METRICS = ("jsd", "mmd", "frechet")


def cmd_eval(args):
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in _EVAL_METRICS]
    if unknown:
        raise ValueError(f"unknown metric {unknown[0]!r}; choose from {', '.join(_EVAL_METRICS)}")
    gen = _load_cloud_dir(args.gen)
    ref = _load_cloud_dir(args.ref)
    report = {}
    if "jsd" in wanted:
        grid = metrics.BevGrid()
        merged_gen = sensor.LabeledPointCloud(np.vstack([c.points for _, c in gen]))
        merged_ref = sensor.LabeledPointCloud(np.vstack([c.points for _, c in ref]))
        report["jsd"] = metrics.jsd(metrics.bev_histogram(merged_gen, grid), metrics.bev_histogram(merged_ref, grid))
    if "mmd" in wanted:
        report["mmd"] = metrics.mmd([c.points for _, c in gen], [c.points for _, c in ref])
    if "frechet" in wanted:
        feats_gen = np.array([metrics.log_depth_features(img) for img, _ in gen])
        feats_ref = np.array([metrics.log_depth_features(img) for img, _ in ref])
        report["frechet"] = metrics.frechet(feats_gen, feats_ref)
    if args.layout:
        scene = layout_mod.load_layout(args.layout)
        spec = gen[0][0].spec
        recalls, ious = [], []
        for img, cloud in gen:
            world = raycast.sensor_to_world(cloud, spec, Pose())
            recall, iou = metrics.layout_consistency(scene, world, spec)
            recalls.append(recall)
            ious.append(iou)
        report["box_recall"] = float(np.mean(recalls))
        report["bev_iou"] = float(np.mean(ious))
    for key, val in report.items():
        print(f"{key}={val:.6g}")
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("metric,value\n")
            for key, val in report.items():
                f.write(f"{key},{val:.9g}\n")


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
    p.add_argument("--sensor", default=None, help="config file for the sensor")
    p.add_argument("--pose", default="0,0,0,0")
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
    p.add_argument("--phase", choices=["a", "b", "ab"], default="ab")
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

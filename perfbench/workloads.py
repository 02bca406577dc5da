"""The benchmark's three workloads: ``dataset``, ``trajectory`` and ``score``.

Each is a closed loop with one client. ``setup(seed, workdir)`` makes the
inputs from the workload seed and runs one untimed warm-up operation.
``round(inputs, k, rec, tracer)`` runs round ``k`` of timed operations,
recording their latencies in ``rec``, and returns the correctness checks
for the caller to run after the round, outside the timed interval. The
library is driven only through the public functions the CLI and
acceptance criterion 10 use.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from lidarscene import extraction, layout, meshing, metrics, raycast, scorenet, sensor
from lidarscene.layout import DEFAULT_PALETTE, Pose, SceneParams

import layers

# Acceptance criterion 10: a close side view of 2-4 cars on the ground, so
# every frame is a fresh scene of 40-52 triangles.
C10_SPEC = sensor.SensorSpec(rows=16, cols=128)
C10_POSE = Pose((0.0, -8.0, 2.0), math.pi / 2.0)
C10_PARAMS = SceneParams(
    area_x=(-12.0, 12.0), car_count=(2, 4), vegetation_count=(0, 0), building_count=(0, 0)
)
C10_TESSELLATION = 12
SEM_DENOM = max(len(DEFAULT_PALETTE) - 1, 1)  # as the CLI scales semantic ids

# The default SceneParams with the counts of scene 0 pinned (6 cars, 3
# buildings, 7 trees: 18 primitives). Every seed then meshes to the same
# 1,680 triangles at tessellation 16, so brute-force traversal costs the
# same whatever the workload seed.
STREET_PARAMS = SceneParams(car_count=(6, 6), vegetation_count=(7, 7), building_count=(3, 3))
STREET_SPEC = sensor.SensorSpec(rows=32, cols=256)
STREET_TESSELLATION = 16
# Along the road centre line, which cars (in lanes at y = +-1.75) never cover.
STREET_POSES = tuple(Pose((float(x), 0.0, 0.0), 0.0) for x in range(-36, 37, 8))

ORACLE_PIXELS = 64  # pixels per frame checked against the brute-force oracle
DEPTH_TOL = 1e-9


PROBE_EVERY_S = 0.2
# About the probe's time on a quiet 2-core 2.0 GHz Xeon VM: timings are
# reported as seconds at the host speed where the probe takes this long.
PROBE_REF_S = 0.0035


class Record:
    """What a run measured: latencies per operation kind, operations
    attempted and failed, information values reported but not gated, and
    host-speed probes.

    A host whose cores are shared with other tenants drifts in speed, by
    20% or more within seconds. ``boundary()``, called between operations,
    times a fixed numpy and interpreter kernel that does not touch the
    library (at most every ``PROBE_EVERY_S``); the run's timings are then
    scaled by the median probe time, which removes much of that drift."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.info = {}
        self.excluded = 0.0  # untimed seconds inside the current round
        self.probes = []
        rng = np.random.default_rng(0)
        self._probe_data = (rng.random(1 << 17), np.empty(1 << 17), rng.random((2048, 1, 3)), rng.random((52, 3)))
        self._last_probe = -math.inf

    def time(self, kind, seconds):
        self.samples.setdefault(kind, []).append(seconds)

    def boundary(self, force=False):
        """Between two operations: time the probe if it is due. Its time is
        taken out of the current round's."""
        start = time.perf_counter()
        if not force and start - self._last_probe < PROBE_EVERY_S:
            return
        data, buf, rows, cols = self._probe_data
        for _ in range(2):
            np.multiply(data, 1.5, out=buf)
            np.add(buf, 2.0, out=buf)
            np.sqrt(buf, out=buf)
            buf.sum()
        # Broadcast products with fresh temporaries, shaped like a brute-force
        # ray-triangle test of 2,048 rays against 52 triangles.
        x = rows[..., 0] * cols[:, 1] - rows[..., 1] * cols[:, 0]
        y = rows[..., 2] * cols[:, 2] + x * x
        np.where(y > 0.5, x, np.inf).min(axis=1)
        acc = 0
        for i in range(2000):
            acc += i * i
        self._last_probe = time.perf_counter()
        self.probes.append(self._last_probe - start)
        self.excluded += self._last_probe - start

    def op(self, ok, what=""):
        """Count one operation; it failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def note(self, name, value):
        self.info.setdefault(name, []).append(float(value))

    @contextmanager
    def untimed(self):
        """A gate inside a round: its time is taken out of the round's."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - start


def render_mismatches(scene, spec, pose, tessellation, img, incidence, rng):
    """Sampled pixels where the render disagrees with ``intersect_brute``:
    hit or miss, label, depth within 1e-9 and incidence within 1e-9. The
    rays are rebuilt from the public sensor geometry."""
    mesh = meshing.mesh_layout(scene, tessellation)
    flat = rng.choice(spec.rows * spec.cols, size=min(ORACLE_PIXELS, spec.rows * spec.cols), replace=False)
    v, u = np.divmod(flat, spec.cols)
    yaw, pitch = sensor.pixel_to_angles(u, v, spec)
    dirs = sensor.angles_to_direction(yaw - pose.yaw, pitch)
    origin = np.asarray(pose.translation, dtype=np.float64) + [0.0, 0.0, spec.origin_height]
    t, tri = raycast.intersect_brute(mesh, np.broadcast_to(origin, dirs.shape), dirs, float(spec.max_range))
    hit = tri >= 0
    label = np.where(hit, mesh.triangle_labels[np.maximum(tri, 0)], 0)
    cos = np.zeros(len(tri))
    if hit.any():
        v0 = mesh.vertices[mesh.triangles[tri[hit], 0]]
        n = np.cross(mesh.vertices[mesh.triangles[tri[hit], 1]] - v0, mesh.vertices[mesh.triangles[tri[hit], 2]] - v0)
        cos[hit] = np.abs(np.sum(dirs[hit] * n, axis=1) / np.linalg.norm(n, axis=1))
    depth = img.depth[v, u]
    ok = (
        (hit == (depth > 0))
        & (img.semantic[v, u] == label)
        & (np.abs(np.where(hit, t, 0.0) - depth) <= DEPTH_TOL)
        & (np.abs(cos - incidence[v, u]) <= DEPTH_TOL)
    )
    return int((~ok).sum())


def lri_mismatch(read_back, written):
    """Why an LRI file did not read back exactly as written, or ''."""
    if read_back.data.shape != written.data.shape:
        return "lri shape"
    if not np.array_equal(read_back.data, written.data.astype("<f4").astype(np.float64)):
        return "lri payload"
    a, b = read_back.spec, written.spec
    if (a.rows, a.cols, a.pitch_max, a.pitch_min, a.max_range) != (b.rows, b.cols, b.pitch_max, b.pitch_min, b.max_range):
        return "lri header"
    return ""


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Builds a criterion-10 training set: each frame is a fresh scene,
    rendered with incidence, raydropped with a seed per frame, written as
    ``x.lri`` plus a clean ``x.cond.lri``, read back and depth-normalised
    as ``cli._load_training_images`` does."""

    frames_per_round: int = 100
    setup_reps: int = 5
    op_kind = "frame"

    def setup(self, seed, workdir):
        inputs = SimpleNamespace(seed=seed, dir=workdir)
        self._frame(seed * 1_000_000, workdir / "warmup.lri")
        return inputs

    def _frame(self, scene_seed, path):
        scene = layout.generate_random_scene(scene_seed, C10_PARAMS)
        img, cos = raycast.render_conditional(
            scene, C10_SPEC, C10_POSE, tessellation=C10_TESSELLATION, return_incidence=True
        )
        dropped = raycast.apply_raydrop(img, raycast.RaydropParams(), cos, seed=scene_seed)
        cond_path = path.with_name(path.stem + ".cond.lri")
        sensor.write_lri(path, dropped)
        sensor.write_lri(cond_path, img)
        x_back = sensor.read_lri(path)
        c_back = sensor.read_lri(cond_path)
        image = sensor.normalize_depth(x_back.depth, x_back.spec)[None].astype(np.float32)
        cond = np.stack(
            [sensor.normalize_depth(c_back.data[0], c_back.spec), c_back.data[1] / SEM_DENOM]
        ).astype(np.float32)
        return scene, img, cos, dropped, x_back, c_back, image, cond

    def round(self, inputs, k, rec, tracer):
        frames = []
        for i in range(self.frames_per_round):
            scene_seed = inputs.seed * 1_000_000 + 1 + k * self.frames_per_round + i
            start = time.perf_counter()
            try:
                out = self._frame(scene_seed, inputs.dir / f"frame_{i:05d}.lri")
            except Exception as exc:  # a failed operation; the loop goes on
                rec.op(False, f"frame {scene_seed}: {exc!r}")
                continue
            rec.time("frame", time.perf_counter() - start)
            frames.append((scene_seed, out))
            rec.boundary()

        def check():
            for scene_seed, (scene, img, cos, dropped, x_back, c_back, image, cond) in frames:
                rng = np.random.default_rng(scene_seed)
                problems = [lri_mismatch(x_back, dropped), lri_mismatch(c_back, img)]
                if render_mismatches(scene, C10_SPEC, C10_POSE, C10_TESSELLATION, img, cos, rng):
                    problems.append("render differs from intersect_brute")
                kept = dropped.depth > 0
                if not (
                    np.all(img.depth[kept] == dropped.depth[kept])
                    and not np.any(kept & (img.depth == 0))
                    and np.array_equal(img.semantic, dropped.semantic)
                ):
                    problems.append("raydrop changed more than dropping returns")
                if not (np.all(np.isfinite(image)) and np.all(np.isfinite(cond))):
                    problems.append("non-finite training arrays")
                rec.op(not any(problems), f"frame {scene_seed}: {[p for p in problems if p]}")

        return check


@dataclass(frozen=True)
class Trajectory:
    """One static street scene rendered along fixed poses as
    ``render --trajectory --cloud`` does, then each frame's world-frame
    cloud inverted by ``extract_layout``."""

    poses: tuple = STREET_POSES
    spec: sensor.SensorSpec = STREET_SPEC
    tessellation: int = STREET_TESSELLATION
    setup_reps: int = 3
    op_kind = "frame"

    def setup(self, seed, workdir):
        scene = layout.generate_random_scene(seed, STREET_PARAMS)
        inputs = SimpleNamespace(seed=seed, dir=workdir, scene=scene)
        cloud = self._frame(inputs, self.poses[0], workdir / "warmup")[2]
        extraction.extract_layout(cloud)
        return inputs

    def _frame(self, inputs, pose, stem):
        img, cos = raycast.render_conditional(
            inputs.scene, self.spec, pose, tessellation=self.tessellation, return_incidence=True
        )
        sensor.write_lri(stem.with_suffix(".lri"), img)
        cloud = raycast.sensor_to_world(sensor.range_image_to_point_cloud(img), self.spec, pose)
        sensor.write_point_cloud(stem.with_suffix(".xyz"), cloud)
        return img, cos, cloud

    def round(self, inputs, k, rec, tracer):
        frames = []
        for i, pose in enumerate(self.poses):
            stem = inputs.dir / f"frame_{i:05d}"
            start = time.perf_counter()
            try:
                out = self._frame(inputs, pose, stem)
            except Exception as exc:  # a failed operation; the loop goes on
                rec.op(False, f"frame {i}: {exc!r}")
                continue
            rec.time("frame", time.perf_counter() - start)
            frames.append((i, pose, stem, out))
            rec.boundary()
        extracted = []
        for i, _pose, _stem, (_img, _cos, cloud) in frames:
            start = time.perf_counter()
            try:
                result = extraction.extract_layout(cloud)
            except Exception as exc:  # a failed operation; the loop goes on
                rec.op(False, f"extract {i}: {exc!r}")
                continue
            rec.time("extract", time.perf_counter() - start)
            extracted.append(result)
            rec.boundary()

        def check():
            for i, pose, stem, (img, cos, _cloud) in frames:
                rng = np.random.default_rng([inputs.seed, k, i])
                problems = [lri_mismatch(sensor.read_lri(stem.with_suffix(".lri")), img)]
                if render_mismatches(inputs.scene, self.spec, pose, self.tessellation, img, cos, rng):
                    problems.append("render differs from intersect_brute")
                rec.op(not any(problems), f"frame {i}: {[p for p in problems if p]}")
            for result in extracted:
                rec.op(True)
                rec.note("extracted_primitives", len(result.primitives))

        return check


@dataclass(frozen=True)
class Score:
    """Criterion 10's score-model half at a reduced size: train the
    unconditional model, train the adapter in phase ``ab``, draw one batched
    conditional Langevin sample over the held-out conditions, and score it."""

    train_frames: int = 64
    held_frames: int = 16
    uncond_steps: int = 100
    cond_steps: int = 100
    model: scorenet.ModelConfig = scorenet.ModelConfig(widths=(8, 16, 16), emb_dim=16, blocks_per_level=1)
    sampler: scorenet.SamplerConfig = scorenet.SamplerConfig()
    setup_reps: int = 3
    op_kind = "cond_step"

    schedule = scorenet.NoiseSchedule(1.0, 0.01, 10)
    batch_size = 8

    def setup(self, seed, workdir):
        examples = [_c10_example(seed * 1_000_000 + i) for i in range(self.train_frames + self.held_frames)]
        train, held = examples[: self.train_frames], examples[self.train_frames :]
        held_clouds = [_world_cloud(depth_n) for _, depth_n, _ in held]
        grid = _bev_grid()
        inputs = SimpleNamespace(
            seed=seed,
            images=np.stack([depth_n[None] for _, depth_n, _ in train]),
            conds=np.stack([cond for _, _, cond in train]),
            held_scenes=[scene for scene, _, _ in held],
            held_conds=np.stack([cond for _, _, cond in held]),
            held_clouds=held_clouds,
            held_hists=[metrics.bev_histogram(c, grid) for c in held_clouds],
            held_feats=np.array([metrics.log_depth_features(_range_image(d)) for _, d, _ in held]),
        )
        # Warm-up: one step of each stage and one forward at the sampling batch.
        model = scorenet.ScoreModel(self.model, seed=seed)
        state = scorenet.TrainState(model=model, schedule=self.schedule)
        scorenet.train(state, inputs.images, scorenet.TrainConfig(steps=1, batch_size=self.batch_size, log_every=0))
        state.adapter = scorenet.ControlAdapter(model, seed=seed)
        scorenet.train(
            state, (inputs.images, inputs.conds),
            scorenet.TrainConfig(steps=1, batch_size=self.batch_size, phase="b", log_every=0),
        )
        noise = np.random.default_rng(seed).random((self.held_frames, 1, C10_SPEC.rows, C10_SPEC.cols))
        model.forward(noise, self.schedule.sigma_max, cond=inputs.held_conds, adapter=state.adapter)
        return inputs

    def round(self, inputs, k, rec, tracer):
        steps = self.uncond_steps + self.cond_steps
        try:
            done = self._round(inputs, rec, tracer)
        except Exception as exc:  # the stages depend on each other: the round fails
            for _ in range(steps + self.held_frames + 1):
                rec.op(False, f"score round {k}: {exc!r}")
            return lambda: None
        losses1, losses2, base_kept, x, scores = done

        def check():
            for stage, losses, n in (("uncond", losses1, self.uncond_steps), ("cond", losses2, self.cond_steps)):
                # train() stops early on divergence, so a short list is a failure.
                for j in range(n):
                    ok = j < len(losses) and math.isfinite(losses[j]) and (stage == "uncond" or base_kept)
                    rec.op(ok, f"{stage} step {j}: {len(losses)} losses, base kept {base_kept}")
                if losses:
                    rec.note(f"{stage}_loss_first", losses[0])
                    rec.note(f"{stage}_loss_final", losses[-1])
            for i in range(len(x)):
                rec.op(bool(np.all(np.isfinite(x[i]))), f"sample {i} not finite")
            ln2 = math.log(2.0)
            in_range = (
                all(math.isfinite(v) for v in scores.values())
                and 0.0 <= scores["box_recall"] <= 1.0
                and 0.0 <= scores["bev_iou"] <= 1.0
                and 0.0 <= scores["jsd_matched"] <= ln2
                and 0.0 <= scores["jsd_mismatched"] <= ln2
                and scores["mmd"] >= 0.0
                and scores["frechet"] >= 0.0
            )
            rec.op(in_range, f"eval scores out of range: {scores}")
            for name, value in scores.items():
                rec.note(name, value)

        return check

    def _round(self, inputs, rec, tracer):
        seed = inputs.seed
        model = scorenet.ScoreModel(self.model, seed=seed)
        state = scorenet.TrainState(model=model, schedule=self.schedule)
        losses1 = _timed_train(
            rec, "uncond_step", state, inputs.images,
            scorenet.TrainConfig(steps=self.uncond_steps, lr=3e-3, batch_size=self.batch_size, seed=seed + 1, log_every=1),
        )
        state.adapter = adapter = scorenet.ControlAdapter(model, seed=seed + 2)
        if tracer is not None:
            layers.install_adapter(tracer, adapter)
        with rec.untimed():
            base_sum = model.param_checksum()
        losses2 = _timed_train(
            rec, "cond_step", state, (inputs.images, inputs.conds),
            scorenet.TrainConfig(steps=self.cond_steps, lr=1e-3, batch_size=self.batch_size, seed=seed + 3, phase="ab", log_every=1),
        )
        with rec.untimed():
            base_kept = model.param_checksum() == base_sum

        start, excluded = time.perf_counter(), rec.excluded
        model_fn = scorenet.model_score_fn(model, adapter=adapter, cond=inputs.held_conds)

        def score_fn(x, sigma):
            rec.boundary()
            return model_fn(x, sigma)

        shape = (self.held_frames, 1, C10_SPEC.rows, C10_SPEC.cols)
        x = scorenet.sample_annealed_langevin(score_fn, self.schedule, self.sampler, shape, seed=seed + 4)
        rec.time("sample", time.perf_counter() - start - (rec.excluded - excluded))
        rec.boundary(force=True)

        start = time.perf_counter()
        scores = _evaluate(inputs, x)
        rec.time("eval", time.perf_counter() - start)
        return losses1, losses2, base_kept, x, scores


def _timed_train(rec, kind, state, data, config):
    """``scorenet.train`` with one latency sample per step, taken from its
    log callback (``config.log_every`` must be 1)."""
    last = time.perf_counter()

    def on_step(_line):
        nonlocal last
        rec.time(kind, time.perf_counter() - last)
        rec.boundary()
        last = time.perf_counter()

    return scorenet.train(state, data, config, log=on_step)


def _c10_example(scene_seed):
    """(scene, normalised depth, 2-channel condition) as criterion 10 renders them."""
    scene = layout.generate_random_scene(scene_seed, C10_PARAMS)
    img = raycast.render_conditional(scene, C10_SPEC, C10_POSE, tessellation=C10_TESSELLATION)
    depth_n = sensor.normalize_depth(img.depth, C10_SPEC)
    return scene, depth_n.astype(np.float32), np.stack([depth_n, img.data[1] / SEM_DENOM]).astype(np.float32)


def _range_image(depth_n):
    depth = sensor.denormalize_depth(np.clip(depth_n.astype(np.float64), 0.0, 1.0), C10_SPEC)
    return sensor.RangeImage(C10_SPEC, depth[None])


def _world_cloud(depth_n):
    return raycast.sensor_to_world(sensor.range_image_to_point_cloud(_range_image(depth_n)), C10_SPEC, C10_POSE)


def _bev_grid():
    return metrics.BevGrid((-80.0, 80.0), (-80.0, 80.0), 160)


def _evaluate(inputs, x):
    """Criterion 10's scores of the samples, plus MMD and Frechet."""
    grid = _bev_grid()
    images = [_range_image(s[0]) for s in x]
    clouds = [raycast.sensor_to_world(sensor.range_image_to_point_cloud(img), C10_SPEC, C10_POSE) for img in images]
    consistency = [
        metrics.layout_consistency(scene, cloud, C10_SPEC, C10_POSE)
        for scene, cloud in zip(inputs.held_scenes, clouds)
    ]
    hists = [metrics.bev_histogram(c, grid) for c in clouds]
    n = len(hists)
    return {
        "box_recall": statistics.fmean(r for r, _ in consistency),
        "bev_iou": statistics.fmean(iou for _, iou in consistency),
        "jsd_matched": statistics.fmean(metrics.jsd(hists[i], inputs.held_hists[i]) for i in range(n)),
        "jsd_mismatched": statistics.fmean(metrics.jsd(hists[i], inputs.held_hists[(i + 1) % n]) for i in range(n)),
        "mmd": metrics.mmd([c.points for c in clouds], [c.points for c in inputs.held_clouds]),
        "frechet": metrics.frechet(np.array([metrics.log_depth_features(img) for img in images]), inputs.held_feats),
    }


WORKLOADS = {"dataset": Dataset, "trajectory": Trajectory, "score": Score}

"""End-to-end acceptance gate. Each test prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines;
every criterion also asserts, so a plain pytest run enforces them.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from lidarscene import _kernels, raycast
from lidarscene.extraction import ClusterParams, dbscan, extract_layout
from lidarscene.layout import (
    Layout,
    Pose,
    SceneParams,
    SemanticPrimitive,
    generate_random_scene,
)
from lidarscene.meshing import mesh_layout
from lidarscene.metrics import (
    BevGrid,
    Histogram,
    bev_histogram,
    frechet,
    jsd,
    log_depth_features,
    mmd,
)
from lidarscene.raycast import intersect_brute, render_conditional, surface_sample
from lidarscene.scorenet import (
    ControlAdapter,
    ModelConfig,
    NoiseSchedule,
    SamplerConfig,
    ScoreModel,
    TrainConfig,
    TrainState,
    model_score_fn,
    sample_annealed_langevin,
    train,
)
from lidarscene.sensor import (
    SensorSpec,
    pixel_to_angles,
    project_points,
    range_image_to_point_cloud,
    unproject,
)

from gradcheck import finite_diff_check
from test_extraction import dbscan_reference, same_partition
from workloads import C10_SPEC, _bev_grid, _c10_example, _evaluate, _range_image, _world_cloud


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_projection_roundtrip():
    t0 = time.time()
    spec = SensorSpec(rows=64, cols=1024)
    v, u = np.meshgrid(np.arange(spec.rows), np.arange(spec.cols), indexing="ij")
    u = u.ravel()
    v = v.ravel()
    yaw, pitch = pixel_to_angles(u, v, spec)
    worst_depth = 0.0
    ok = True
    for depth in (1.0, 10.0, 79.0):
        pts = unproject(yaw, pitch, np.full(u.shape, depth))
        uu, vv, dd, valid = project_points(pts, spec)
        ok = ok and bool(valid.all())
        ok = ok and bool(np.array_equal(uu, u) and np.array_equal(vv, v))
        worst_depth = max(worst_depth, float(np.abs(dd - depth).max()))
    ok = ok and worst_depth < 1e-4
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(1, "projection round-trip", ok, f"max depth err {worst_depth:.2e}, {elapsed:.2f}s")


def _random_scene_50():
    rng = np.random.default_rng(42)
    prims = [SemanticPrimitive(0, "plane", (0.0, 0.0, 0.0), (120.0, 120.0, 0.0))]
    shapes = ("cuboid", "ellipsoid")
    while len(prims) < 50:
        ext = tuple(rng.uniform(0.5, 6.0, size=3))
        center = (rng.uniform(-40, 40), rng.uniform(-40, 40), ext[2] / 2.0)
        prims.append(
            SemanticPrimitive(
                int(rng.integers(2, 5)),
                shapes[int(rng.integers(2))],
                center,
                ext,
                float(rng.uniform(-math.pi, math.pi)),
            )
        )
    return Layout(primitives=tuple(prims))


def test_criterion_02_raycast_oracle():
    t0 = time.time()
    mesh = mesh_layout(_random_scene_50(), tessellation=12)
    bvh = raycast.build_bvh(mesh)
    rng = np.random.default_rng(7)
    n = 10_000
    origins = rng.uniform(-45, 45, size=(n, 3))
    origins[:, 2] = rng.uniform(0.2, 8.0, size=n)
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    bt, bi = intersect_brute(mesh, origins, dirs, 200.0)
    kt, ki = _kernels.render_rays(origins, dirs, 200.0, bvh)
    idx_ok = bool(np.array_equal(ki, bi))
    hit = bi >= 0
    t_err = float(np.abs(kt[hit] - bt[hit]).max()) if hit.any() else 0.0
    elapsed = time.time() - t0
    ok = idx_ok and t_err < 1e-9 and elapsed < 30.0
    _report(2, "raycast BVH vs brute force", ok,
            f"{int(hit.sum())} hits, max t err {t_err:.2e}, {elapsed:.2f}s")


def test_criterion_03_occlusion():
    # car fully hidden behind a wide tall building; sensor at the origin
    lay = Layout(
        primitives=(
            SemanticPrimitive(0, "plane", (0.0, 0.0, 0.0), (200.0, 200.0, 0.0)),
            SemanticPrimitive(2, "cuboid", (10.0, 0.0, 5.0), (2.0, 30.0, 10.0)),
            SemanticPrimitive(3, "cuboid", (15.0, 0.0, 0.75), (4.0, 1.8, 1.5)),
        )
    )
    spec = SensorSpec(rows=64, cols=1024)
    img = render_conditional(lay, spec, Pose())
    car_pixels = int((img.data[1] == 3).sum())
    cloud = surface_sample(mesh_layout(lay, 12), points_per_m2=20.0, seed=0)
    car_samples = int((cloud.labels == 3).sum())
    ok = car_pixels == 0 and car_samples > 0
    _report(3, "occlusion vs surface-sample ablation", ok,
            f"{car_pixels} car pixels rendered, {car_samples} car surface samples")


def test_criterion_04_dbscan_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(100)
    failures = 0
    for trial in range(200):
        n = int(rng.integers(5, 501))
        scale = rng.uniform(0.5, 5.0)
        pts = rng.uniform(0, scale, size=(n, 3))
        params = ClusterParams(eps=float(rng.uniform(0.05, 1.0)), min_pts=int(rng.integers(2, 15)))
        got = dbscan(pts, params)
        want = dbscan_reference(pts, params.eps, params.min_pts)
        if not same_partition(got, want):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(4, "DBSCAN vs quadratic reference", ok, f"{failures}/200 disagree, {elapsed:.2f}s")


def test_criterion_05_layout_inversion():
    t0 = time.time()
    spec = SensorSpec(rows=64, cols=1024)
    pose = Pose((0.0, -12.0, 4.0), math.pi / 2.0)
    params = SceneParams(
        area_x=(-20.0, 20.0), car_count=(2, 5), vegetation_count=(0, 0), building_count=(0, 0)
    )
    mismatches = 0
    center_errs = []
    for seed in range(50):
        scene = generate_random_scene(seed, params)
        img = render_conditional(scene, spec, pose, tessellation=12)
        cloud = raycast.sensor_to_world(range_image_to_point_cloud(img), spec, pose)
        found = extract_layout(cloud)
        car_id = next(i for i, lab in enumerate(scene.palette) if lab.name == "car")
        true_cars = [p for p in scene.primitives if p.label == car_id]
        # a car counts as visible when enough labeled returns come back
        # to seed a cluster at all
        visible = 0
        for prim in true_cars:
            pts = cloud.points[cloud.labels == car_id]
            d = np.hypot(pts[:, 0] - prim.center[0], pts[:, 1] - prim.center[1])
            if (d < max(prim.extents[0], prim.extents[1])).sum() >= 10:
                visible += 1
        boxes = [p for p in found.primitives if p.label == car_id]
        if len(boxes) != visible:
            mismatches += 1
            continue
        for box in boxes:
            errs = [
                math.dist(box.center, prim.center)
                for prim in true_cars
            ]
            center_errs.append(min(errs))
    median_err = float(np.median(center_errs)) if center_errs else math.inf
    elapsed = time.time() - t0
    ok = mismatches == 0 and median_err < 0.5 and elapsed < 120.0
    _report(5, "layout inversion on 50 scenes", ok,
            f"{mismatches}/50 count mismatches, median center err {median_err:.3f} m, {elapsed:.1f}s")


def test_criterion_06_gradient_check():
    t0 = time.time()
    model = ScoreModel(ModelConfig(widths=(4, 4), emb_dim=8, blocks_per_level=1, dtype=np.float64), seed=1)
    n_params = sum(p.value.size for p in model.named_params().values())
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 1, 4, 8))
    target = rng.standard_normal((2, 1, 4, 8))
    err = finite_diff_check(model, x, 0.3, target)
    elapsed = time.time() - t0
    ok = n_params <= 5000 and err < 1e-4 and elapsed < 60.0
    _report(6, "reverse-mode gradient check", ok,
            f"{n_params} params, max rel err {err:.2e}, {elapsed:.1f}s")


def test_criterion_07_zero_init_identity():
    model = ScoreModel(ModelConfig(widths=(8, 8, 16), emb_dim=16, blocks_per_level=1), seed=3)
    adapter = ControlAdapter(model, seed=4)
    rng = np.random.default_rng(5)
    exact = 0
    for _ in range(100):
        x = rng.standard_normal((1, 1, 8, 16)).astype(np.float32)
        cond = rng.standard_normal((1, 2, 8, 16)).astype(np.float32)
        sigma = float(rng.uniform(0.01, 1.0))
        if np.array_equal(model.forward(x, sigma), model.forward(x, sigma, cond=cond, adapter=adapter)):
            exact += 1
    ok = exact == 100
    _report(7, "zero-init conditional identity", ok, f"{exact}/100 bit-exact")


def test_criterion_08_langevin_oracle():
    t0 = time.time()
    mu, s = 0.5, 0.25

    def score(x, sigma):
        return (mu - x) / (s * s)

    schedule = NoiseSchedule(1.0, 0.01, 10)
    config = SamplerConfig(eps0=5e-5, steps_per_level=100)
    x = sample_annealed_langevin(score, schedule, config, shape=(10_000, 4), seed=0)
    mean_err = float(np.abs(x.mean(axis=0) - mu).max())
    var_err = float(np.abs(x.var(axis=0) - s * s).max())
    elapsed = time.time() - t0
    ok = mean_err < 0.05 * s and var_err < 0.1 * s * s and elapsed < 120.0
    _report(8, "annealed Langevin vs analytic Gaussian", ok,
            f"mean err {mean_err:.4f} (tol {0.05 * s:.4f}), var err {var_err:.5f} "
            f"(tol {0.1 * s * s:.5f}), {elapsed:.1f}s")


def test_criterion_09_metric_identities():
    t0 = time.time()
    rng = np.random.default_rng(9)
    grid = BevGrid((-80.0, 80.0), (-80.0, 80.0), 8)
    max_jsd = 0.0
    self_jsd = 0.0
    for _ in range(1000):
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        # random sparsity so disjoint supports (jsd = ln 2) occur
        a[rng.random((8, 8)) < 0.5] = 0.0
        b[rng.random((8, 8)) < 0.5] = 0.0
        if a.sum() == 0 or b.sum() == 0:
            continue
        p = Histogram(grid, a / a.sum())
        q = Histogram(grid, b / b.sum())
        self_jsd = max(self_jsd, jsd(p, p))
        max_jsd = max(max_jsd, jsd(p, q))
    clouds = [rng.standard_normal((50, 3)) for _ in range(4)]
    mmd_self = mmd(clouds, clouds)
    feats = rng.standard_normal((20, 6))
    fre_self = frechet(feats, feats)
    # one-dimensional gaussians: distance is (mu1-mu2)^2 + (s1-s2)^2
    mu1, s1, mu2, s2 = 0.3, 1.2, -0.7, 0.4
    g = np.random.default_rng(1)
    a1 = mu1 + s1 * g.standard_normal((200_000, 1))
    a2 = mu2 + s2 * g.standard_normal((200_000, 1))
    # use exact moments via constructed sets: frechet works from empirical
    # moments, so feed data whose mean/cov are exact by affine correction
    a1 = (a1 - a1.mean()) / a1.std(ddof=1) * s1 + mu1
    a2 = (a2 - a2.mean()) / a2.std(ddof=1) * s2 + mu2
    analytic = (mu1 - mu2) ** 2 + (s1 - s2) ** 2
    fre_err = abs(frechet(a1, a2) - analytic)
    elapsed = time.time() - t0
    ok = (
        self_jsd == 0.0
        and max_jsd <= math.log(2.0) + 1e-12
        and mmd_self == 0.0
        and fre_self < 1e-6
        and fre_err < 1e-9
        and elapsed < 30.0
    )
    _report(9, "metric identities", ok,
            f"jsd(P,P)={self_jsd}, max jsd={max_jsd:.4f} (ln2={math.log(2):.4f}), "
            f"mmd(S,S)={mmd_self}, frechet(A,A)={fre_self:.2e}, 1D err {fre_err:.2e}, {elapsed:.1f}s")


# --- criterion 10: desk-scale two-stage training with conditional control ---
# The scenes, renders and scoring are the benchmark's ``score`` workload's:
# a close side view of 2-4 cars, so that at 16x128 every car subtends enough
# pixels for the consistency scores to have headroom (clean renders score
# ~0.97 recall).


@pytest.mark.slow
def test_criterion_10_end_to_end():
    t0 = time.time()
    train_n, held_n = 500, 32
    examples = [_c10_example(s) for s in range(train_n + held_n)]
    images = np.stack([d[None] for _, d, _ in examples[:train_n]])
    conds = np.stack([c for _, _, c in examples[:train_n]])
    held = examples[train_n:]
    held_clouds = [_world_cloud(depth_n) for _, depth_n, _ in held]
    grid = _bev_grid()
    held_set = SimpleNamespace(
        held_scenes=[scene for scene, _, _ in held],
        held_clouds=held_clouds,
        held_hists=[bev_histogram(c, grid) for c in held_clouds],
        held_feats=np.array([log_depth_features(_range_image(d)) for _, d, _ in held]),
    )

    schedule = NoiseSchedule(1.0, 0.01, 10)
    model = ScoreModel(ModelConfig(widths=(8, 16, 16), emb_dim=16, blocks_per_level=1), seed=0)
    state = TrainState(model=model, schedule=schedule)
    losses1 = train(state, images, TrainConfig(steps=2000, lr=3e-3, batch_size=8, seed=1, log_every=0))
    stage1_ok = losses1[-1] < 0.25 * losses1[0]

    adapter = ControlAdapter(model, seed=2)
    state.adapter = adapter
    base_sum = model.param_checksum()
    losses2 = train(
        state, (images, conds), TrainConfig(steps=2000, lr=1e-3, batch_size=8, seed=3, phase="ab", log_every=0)
    )
    stage2_ok = losses2[-1] < 0.25 * losses2[0]
    assert model.param_checksum() == base_sum

    score_fn = model_score_fn(model, adapter=adapter, cond=np.stack([c for _, _, c in held]))
    x = sample_annealed_langevin(
        score_fn, schedule, SamplerConfig(eps0=2e-5, steps_per_level=20),
        shape=(held_n, 1, C10_SPEC.rows, C10_SPEC.cols), seed=4,
    )
    scores = _evaluate(held_set, x)

    elapsed = time.time() - t0
    ok = (
        stage1_ok
        and stage2_ok
        and scores["box_recall"] >= 0.6
        and scores["bev_iou"] >= 0.4
        and scores["jsd_matched"] < scores["jsd_mismatched"]
        and elapsed <= 3600.0
    )
    _report(10, "desk-scale end-to-end", ok,
            f"stage1 {losses1[0]:.1f}->{losses1[-1]:.1f}, stage2 {losses2[0]:.1f}->{losses2[-1]:.1f}, "
            f"box_recall {scores['box_recall']:.2f}, bev_iou {scores['bev_iou']:.2f}, "
            f"jsd matched {scores['jsd_matched']:.3f} vs mismatched {scores['jsd_mismatched']:.3f}, {elapsed:.0f}s")

import math

import numpy as np
import pytest

from lidarscene.layout import Layout, Pose, SemanticPrimitive, generate_random_scene
from lidarscene.metrics import (
    BevGrid,
    MetricError,
    bev_histogram,
    chamfer,
    frechet,
    jsd,
    layout_consistency,
    log_depth_features,
    mmd,
)
from lidarscene.raycast import render_conditional, sensor_to_world
from lidarscene.sensor import LabeledPointCloud, SensorSpec, range_image_to_point_cloud, read_lri, write_lri


def cloud_of(points):
    points = np.asarray(points, dtype=np.float64)
    return LabeledPointCloud(points, np.zeros(len(points), dtype=np.int64))


def test_bev_histogram_normalized_and_bounded():
    rng = np.random.default_rng(0)
    c = cloud_of(rng.uniform(-70, 70, (1000, 3)))
    h = bev_histogram(c)
    assert h.probs.shape == (100, 100)
    assert h.probs.sum() == pytest.approx(1.0)


def test_bev_histogram_ignores_out_of_bounds():
    c = cloud_of([[0.0, 0.0, 0.0], [500.0, 0.0, 0.0]])
    h = bev_histogram(c)
    assert h.probs.max() == pytest.approx(1.0)  # only the in-bounds point counted


def test_bev_histogram_empty():
    h = bev_histogram(cloud_of(np.empty((0, 3))))
    assert h.probs.shape == (100, 100) and h.probs.sum() == 0


def test_jsd_identical_zero():
    rng = np.random.default_rng(1)
    c = cloud_of(rng.uniform(-70, 70, (500, 3)))
    h = bev_histogram(c)
    assert jsd(h, h) == pytest.approx(0.0, abs=1e-12)


def test_jsd_disjoint_ln2():
    a = bev_histogram(cloud_of([[-50.0, -50.0, 0.0]]))
    b = bev_histogram(cloud_of([[50.0, 50.0, 0.0]]))
    assert jsd(a, b) == pytest.approx(math.log(2.0))


def test_jsd_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    a = bev_histogram(cloud_of(rng.uniform(-70, 70, (400, 3))))
    b = bev_histogram(cloud_of(rng.normal(scale=20.0, size=(400, 3))))
    va = jsd(a, b)
    assert va == pytest.approx(jsd(b, a), abs=1e-12)
    assert 0.0 <= va <= math.log(2.0) + 1e-12


def test_jsd_grid_mismatch():
    a = bev_histogram(cloud_of([[0.0, 0.0, 0.0]]), BevGrid(resolution=50))
    b = bev_histogram(cloud_of([[0.0, 0.0, 0.0]]), BevGrid(resolution=100))
    with pytest.raises(MetricError):
        jsd(a, b)


def chamfer_brute(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


def test_chamfer_identity_and_definition():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 3))
    assert chamfer(x, x) == pytest.approx(0.0, abs=1e-12)
    assert chamfer([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]) == pytest.approx(2.0)


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(4)
    for n, m in [(5, 7), (100, 80), (1500, 2000)]:
        x = rng.normal(size=(n, 3)) * 10
        y = rng.normal(size=(m, 3)) * 10
        assert chamfer(x, y) == pytest.approx(chamfer_brute(x, y), rel=1e-10)


def test_chamfer_symmetric():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=(70, 3))
    assert chamfer(x, y) == pytest.approx(chamfer(y, x), rel=1e-12)


def test_chamfer_empty():
    with pytest.raises(MetricError):
        chamfer(np.empty((0, 3)), [[0.0, 0.0, 0.0]])


def test_mmd_identity_and_brute():
    rng = np.random.default_rng(6)
    refs = [rng.normal(size=(40, 3)) for _ in range(5)]
    gens = [r + rng.normal(scale=0.1, size=r.shape) for r in refs]
    assert mmd(refs, refs) == pytest.approx(0.0, abs=1e-12)
    # matches an explicit double loop
    expect = np.mean([min(chamfer(g, r) for g in gens) for r in refs])
    assert mmd(gens, refs) == pytest.approx(expect, rel=1e-12)


def test_mmd_superset_zero():
    rng = np.random.default_rng(7)
    refs = [rng.normal(size=(30, 3)) for _ in range(3)]
    gens = refs + [rng.normal(size=(30, 3))]
    assert mmd(gens, refs) == pytest.approx(0.0, abs=1e-12)


def test_mmd_single_generated():
    rng = np.random.default_rng(8)
    g = rng.normal(size=(30, 3))
    refs = [rng.normal(size=(30, 3)) for _ in range(4)]
    expect = np.mean([chamfer(g, r) for r in refs])
    assert mmd([g], refs) == pytest.approx(expect, rel=1e-12)


def test_mmd_builds_each_tree_once_and_equals_its_definition_exactly(monkeypatch):
    import scipy.spatial

    rng = np.random.default_rng(10)
    gens = [rng.normal(size=(int(rng.integers(5, 60)), 3)) for _ in range(16)]
    refs = [rng.normal(size=(int(rng.integers(5, 60)), 3)) for _ in range(16)]
    expect = sum(min(chamfer(g, r) for g in gens) for r in refs) / len(refs)
    builds = []

    def counted(points, *args, **kwargs):
        builds.append(len(points))
        return tree(points, *args, **kwargs)

    tree = scipy.spatial.cKDTree
    monkeypatch.setattr(scipy.spatial, "cKDTree", counted)
    assert mmd(gens, refs) == expect
    assert len(builds) == len(gens) + len(refs)  # not two per (gen, ref) pair
    with pytest.raises(MetricError, match="^chamfer requires nonempty sets$"):
        mmd(gens, refs + [np.empty((0, 3))])


def test_frechet_self_and_symmetry():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(300, 8))
    b = rng.normal(loc=0.5, size=(300, 8))
    assert frechet(a, a) <= 1e-6
    assert abs(frechet(a, b) - frechet(b, a)) <= 1e-6
    assert frechet(a, b) >= 0.0


def test_frechet_analytic_gaussians():
    # For diagonal covariances the trace term has the closed form
    # sum (sqrt(s_a) - sqrt(s_b))^2; check against sampled estimates.
    rng = np.random.default_rng(10)
    n = 200000
    sa, sb = 2.0, 0.5
    mu = 3.0
    a = rng.normal(scale=math.sqrt(sa), size=(n, 2))
    b = mu + rng.normal(scale=math.sqrt(sb), size=(n, 2))
    expect = 2 * mu**2 + 2 * (math.sqrt(sa) - math.sqrt(sb)) ** 2
    assert frechet(a, b) == pytest.approx(expect, rel=0.02)


def test_frechet_validation():
    with pytest.raises(MetricError):
        frechet(np.zeros((5, 3)), np.zeros((5, 4)))
    with pytest.raises(MetricError):
        frechet(np.zeros((1, 3)), np.zeros((5, 3)))


def test_log_depth_features_normalized():
    rng = np.random.default_rng(11)
    from lidarscene.sensor import RangeImage

    data = np.stack([rng.uniform(0, 79, (64, 128)), np.zeros((64, 128))])
    spec = SensorSpec(rows=64, cols=128)
    feats = log_depth_features(RangeImage(spec, data))
    assert feats.shape == (64,)
    assert feats.sum() == pytest.approx(1.0)
    empty = log_depth_features(RangeImage(spec, np.zeros((2, 64, 128))))
    assert not empty.any()


def test_layout_consistency_self_is_perfect():
    lay = generate_random_scene(0)
    spec = SensorSpec(rows=32, cols=512)
    pose = Pose((0.0, -12.0, 4.0), math.pi / 2)
    cloud = sensor_to_world(range_image_to_point_cloud(render_conditional(lay, spec, pose)), spec, pose)
    recall, iou = layout_consistency(lay, cloud, spec, pose)
    assert recall == pytest.approx(1.0)
    assert iou == pytest.approx(1.0)


def test_layout_consistency_of_a_frame_read_back_from_lri(tmp_path):
    # The car's near face at x = 18 lies on a BEV cell edge; f32 depth moves its
    # 4 points to 17.9999992, so the reference must be rounded the same way.
    lay = Layout(primitives=(SemanticPrimitive(3, "cuboid", (20.0, 0.0, 0.75), (4.0, 1.8, 1.5)),))
    spec = SensorSpec(rows=16, cols=128)
    write_lri(tmp_path / "frame.lri", render_conditional(lay, spec))
    cloud = range_image_to_point_cloud(read_lri(tmp_path / "frame.lri"))
    recall, iou = layout_consistency(lay, sensor_to_world(cloud, spec, Pose()), spec)
    assert len(cloud) == 4 and iou == 1.0
    assert recall == 0.0  # 4 points, under CAR_MIN_POINTS


def test_layout_consistency_missing_car_lowers_recall():
    ground = SemanticPrimitive(0, "plane", (0, 0, 0), (200.0, 200.0, 0.0))
    cars = tuple(
        SemanticPrimitive(3, "cuboid", (8.0 + 6.0 * i, 0.0, 0.75), (4.0, 2.0, 1.5))
        for i in range(3)
    )
    full = Layout(primitives=(ground,) + cars)
    partial = Layout(primitives=(ground,) + cars[:2])
    spec = SensorSpec(rows=64, cols=1024)
    pose = Pose((14.0, -12.0, 4.0), math.pi / 2)
    cloud_partial = sensor_to_world(range_image_to_point_cloud(render_conditional(partial, spec, pose)), spec, pose)
    recall, _ = layout_consistency(full, cloud_partial, spec, pose)
    assert recall == pytest.approx(2.0 / 3.0)


def test_layout_consistency_empty_cloud():
    lay = generate_random_scene(1)
    recall, iou = layout_consistency(lay, cloud_of(np.empty((0, 3))))
    assert (recall, iou) == (0.0, 0.0)


def test_layout_consistency_empty_cloud_without_cars():
    # no car to miss: recall is 1.0, and no cell of the ground render is covered
    lay = Layout(primitives=(SemanticPrimitive(0, "plane", (0, 0, 0), (100.0, 100.0, 0.0)),))
    recall, iou = layout_consistency(lay, cloud_of(np.empty((0, 3))), SensorSpec(rows=16, cols=128))
    assert (recall, iou) == (1.0, 0.0)


def test_layout_consistency_no_cars_recall_one():
    lay = Layout(primitives=(SemanticPrimitive(0, "plane", (0, 0, 0), (100.0, 100.0, 0.0)),))
    spec = SensorSpec(rows=16, cols=128)
    cloud = sensor_to_world(range_image_to_point_cloud(render_conditional(lay, spec)), spec)
    recall, iou = layout_consistency(lay, cloud, spec)
    assert recall == 1.0
    assert iou == pytest.approx(1.0)


def test_bev_iou_sensitive_to_distribution_shift():
    lay = generate_random_scene(2)
    spec = SensorSpec(rows=32, cols=512)
    pose = Pose((0.0, -12.0, 4.0), math.pi / 2)
    cloud = sensor_to_world(range_image_to_point_cloud(render_conditional(lay, spec, pose)), spec, pose)
    shifted = LabeledPointCloud(cloud.points + [30.0, 0.0, 0.0], cloud.labels)
    _, iou_match = layout_consistency(lay, cloud, spec, pose)
    _, iou_shift = layout_consistency(lay, shifted, spec, pose)
    assert iou_shift < iou_match


def test_bev_histogram_rejects_resolution_below_one():
    with pytest.raises(MetricError, match="^resolution must be >= 1$"):
        bev_histogram(cloud_of([[0.0, 0.0, 0.0]]), BevGrid(resolution=0))


@pytest.mark.parametrize("gen, ref", [([], [np.zeros((1, 3))]), ([np.zeros((1, 3))], [])], ids=["no-gen", "no-ref"])
def test_mmd_rejects_an_empty_set(gen, ref):
    with pytest.raises(MetricError, match="^mmd requires nonempty cloud sets$"):
        mmd(gen, ref)


def test_layout_consistency_with_no_occupied_cell_in_either_cloud():
    # No car, so recall is 1; the empty layout renders nothing and the one
    # point lies outside the BEV grid, so no cell is occupied on either side.
    assert layout_consistency(Layout(), cloud_of([[500.0, 500.0, 0.0]])) == (1.0, 0.0)

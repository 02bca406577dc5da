import hashlib
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from lidarscene.extraction import (
    NOISE,
    CameraIntrinsics,
    ClusterParams,
    ExtractionError,
    dbscan,
    extract_layout,
    fit_box,
    unproject_depth_semantic,
)
from lidarscene.layout import Layout, Pose, SemanticPrimitive, generate_random_scene
from lidarscene.raycast import render_conditional, sensor_to_world
from lidarscene.sensor import LabeledPointCloud, SensorSpec, range_image_to_point_cloud

from workloads import STREET_PARAMS, STREET_POSES, STREET_SPEC, STREET_TESSELLATION


def dbscan_reference(points, eps, min_pts):
    """Textbook O(n^2) DBSCAN used as an independent oracle."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    nb = [np.nonzero(d2[i] <= eps * eps)[0].tolist() for i in range(n)]
    core = [len(nb[i]) >= min_pts for i in range(n)]
    labels = [None] * n
    cluster = -1
    for i in range(n):
        if labels[i] is not None or not core[i]:
            continue
        cluster += 1
        labels[i] = cluster
        seeds = list(nb[i])
        while seeds:
            j = seeds.pop()
            if labels[j] is None:
                labels[j] = cluster
                if core[j]:
                    seeds.extend(nb[j])
        # border points claimed above; anything left is noise at the end
    return np.array([NOISE if l is None else l for l in labels])


def same_partition(a, b):
    """Cluster equality up to relabeling, identical noise sets."""
    a = np.asarray(a)
    b = np.asarray(b)
    if not np.array_equal(a == NOISE, b == NOISE):
        return False
    mapping = {}
    for x, y in zip(a, b):
        if x == NOISE:
            continue
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


def blob(rng, center, n, scale=0.05):
    return center + rng.normal(scale=scale, size=(n, 3))


def test_two_well_separated_blobs():
    rng = np.random.default_rng(0)
    pts = np.vstack([blob(rng, [0, 0, 0], 20), blob(rng, [10, 0, 0], 20)])
    labels = dbscan(pts, ClusterParams(0.5, 3))
    assert set(labels) == {0, 1}
    assert (labels[:20] == labels[0]).all()
    assert (labels[20:] == labels[20]).all()
    assert labels[0] != labels[20]


def test_single_point_is_noise():
    assert dbscan([[0.0, 0.0, 0.0]], ClusterParams(1.0, 2))[0] == NOISE


def test_tight_group_one_cluster():
    rng = np.random.default_rng(1)
    pts = blob(rng, [0, 0, 0], 15, scale=0.01)
    labels = dbscan(pts, ClusterParams(0.5, 15))
    assert (labels == 0).all()


def test_self_inclusive_neighborhood():
    # min_pts = 1: every point is core, isolated points become singletons
    pts = [[0, 0, 0], [100, 0, 0]]
    labels = dbscan(pts, ClusterParams(0.1, 1))
    assert set(labels) == {0, 1}


def test_empty_input():
    labels = dbscan(np.empty((0, 3)), ClusterParams(1.0, 3))
    assert labels.shape == (0,) and labels.dtype == np.int64


def test_params_validation():
    with pytest.raises(ExtractionError):
        ClusterParams(0.0, 3)
    with pytest.raises(ExtractionError):
        ClusterParams(1.0, 0)
    for eps in (math.nan, math.inf):  # `eps <= 0` alone is False for NaN
        with pytest.raises(ExtractionError, match="eps must be finite"):
            ClusterParams(eps, 3)


def test_dbscan_matches_reference_randomized():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(5, 300))
        k = int(rng.integers(1, 6))
        centers = rng.uniform(-20, 20, (k, 3))
        pts = np.vstack(
            [blob(rng, centers[i % k], n // k + 1, scale=rng.uniform(0.05, 1.0)) for i in range(k)]
        )
        eps = float(rng.uniform(0.2, 2.5))
        min_pts = int(rng.integers(2, 12))
        ours = dbscan(pts, ClusterParams(eps, min_pts))
        ref = dbscan_reference(pts, eps, min_pts)
        np.testing.assert_array_equal(ours, ref, err_msg=f"trial {trial}")


def test_dbscan_ids_equal_the_reference_on_criterion_4_sets():
    # The 200 sets of criterion 4, which compares partitions: here the ids.
    rng = np.random.default_rng(100)
    for trial in range(200):
        n = int(rng.integers(5, 501))
        pts = rng.uniform(0, rng.uniform(0.5, 5.0), size=(n, 3))
        params = ClusterParams(eps=float(rng.uniform(0.05, 1.0)), min_pts=int(rng.integers(2, 15)))
        np.testing.assert_array_equal(
            dbscan(pts, params), dbscan_reference(pts, params.eps, params.min_pts), err_msg=f"trial {trial}"
        )


@pytest.mark.parametrize("n", [0, 1, 4])
def test_fewer_points_than_min_pts_are_noise(n):
    labels = dbscan(np.zeros((n, 3)), ClusterParams(1.0, 5))
    assert labels.dtype == np.int64 and labels.tolist() == [NOISE] * n


def _stacked_line(x0, step, stacks):
    """Three points 1 mm apart at each of ``stacks`` x positions."""
    return np.array([[x0 + step * i, 0.001 * k, 0.0] for i in range(stacks) for k in range(3)])


@pytest.mark.parametrize("b_first", [False, True])
def test_dense_blobs_joined_by_one_pair_outside_each_knn_graph(b_first):
    # Each blob ends in one point; the two ends are 0.29 apart, within eps,
    # but each end's 4 nearest points lie in its own blob, so no k-NN pair
    # joins the blobs and only the frontier step can.
    a = np.vstack([_stacked_line(0.0, 0.05, 7), [[0.35, 0.0, 0.0]]])
    b = np.vstack([_stacked_line(0.99, -0.05, 7), [[0.64, 0.0, 0.0]]])
    pts = np.vstack([b, a] if b_first else [a, b])
    params = ClusterParams(0.3, 4)
    _, nbr = cKDTree(pts).query(pts, k=params.min_pts)
    side = np.arange(len(pts)) < len(a)
    assert (side[nbr] == side[:, None]).all()
    labels = dbscan(pts, params)
    assert labels.tolist() == [0] * len(pts)
    np.testing.assert_array_equal(labels, dbscan_reference(pts, params.eps, params.min_pts))


@pytest.mark.parametrize("order", ["pqb", "qpb", "bqp"])
def test_border_point_of_two_clusters_takes_the_lower_id(order):
    # b lies within eps of one core of p and one of q and is not core itself.
    groups = {
        "p": np.array([[-0.1 * i, 0.0, 0.0] for i in range(6)]),
        "q": np.array([[1.0 + 0.1 * i, 0.0, 0.0] for i in range(6)]),
        "b": np.array([[0.5, 0.0, 0.0]]),
    }
    pts = np.vstack([groups[g] for g in order])
    params = ClusterParams(0.55, 5)
    labels = dbscan(pts, params)
    by_group = dict(zip(order, np.split(labels, np.cumsum([len(groups[g]) for g in order])[:-1])))
    assert sorted({int(by_group["p"][0]), int(by_group["q"][0])}) == [0, 1]
    assert by_group["b"].tolist() == [0]
    np.testing.assert_array_equal(labels, dbscan_reference(pts, params.eps, params.min_pts))


def test_street_frame_layouts_are_pinned():
    # extract_layout over the 10 street poses of seed 0's street scene: the
    # primitive counts and a sha256 of each layout's primitives' repr.
    scene, spec = generate_random_scene(0, STREET_PARAMS), STREET_SPEC
    counts, digest = [], hashlib.sha256()
    for pose in STREET_POSES:
        img = render_conditional(scene, spec, pose, STREET_TESSELLATION)
        out = extract_layout(sensor_to_world(range_image_to_point_cloud(img), spec, pose))
        counts.append(len(out.primitives))
        digest.update(repr(out.primitives).encode())
    assert counts == [8, 7, 12, 13, 14, 12, 16, 17, 13, 10]
    assert digest.hexdigest() == "a0e32e9cfc567a6414e23c4e1779ad0b46a04b0cdcfff2a8ba8fe52d5aa55137"


def test_fit_box_axis_aligned_rectangle():
    rng = np.random.default_rng(3)
    pts = rng.uniform([-2, -0.5, 0], [2, 0.5, 1.5], (500, 3))
    center, extents, yaw = fit_box(pts)
    assert yaw == pytest.approx(0.0, abs=0.05)
    np.testing.assert_allclose(center, [0, 0, 0.75], atol=0.05)
    np.testing.assert_allclose(extents, [4.0, 1.0, 1.5], atol=0.1)


def test_fit_box_translation_equivariant():
    rng = np.random.default_rng(4)
    pts = rng.uniform([-2, -0.5, 0], [2, 0.5, 1.5], (200, 3))
    c0, e0, y0 = fit_box(pts)
    shift = np.array([13.0, -7.0, 2.0])
    c1, e1, y1 = fit_box(pts + shift)
    np.testing.assert_allclose(np.asarray(c1) - np.asarray(c0), shift, atol=1e-6)
    np.testing.assert_allclose(e1, e0, atol=1e-6)
    assert y1 == pytest.approx(y0, abs=1e-9)


@pytest.mark.parametrize("deg", [10, 30, 60, -40, 85])
def test_fit_box_yaw_equivariant_rectangles(deg):
    rng = np.random.default_rng(5)
    pts = rng.uniform([-2, -0.5, 0], [2, 0.5, 1.5], (2000, 3))
    theta = math.radians(deg)
    c, s = math.cos(theta), math.sin(theta)
    rot = pts.copy()
    rot[:, 0] = c * pts[:, 0] - s * pts[:, 1]
    rot[:, 1] = s * pts[:, 0] + c * pts[:, 1]
    _, e0, _ = fit_box(pts)
    _, e1, yaw = fit_box(rot)
    # modulo the pi axis ambiguity
    dyaw = (yaw - theta + math.pi / 2) % math.pi - math.pi / 2
    assert dyaw == pytest.approx(0.0, abs=0.02)
    np.testing.assert_allclose(sorted(e1[:2]), sorted(e0[:2]), atol=0.05)


def test_fit_box_degenerate_spectrum_falls_back():
    # an isotropic square has a tied covariance spectrum: yaw must be 0
    corners = np.array(
        [[1, 1, 0.5], [1, -1, 0.5], [-1, 1, 0.5], [-1, -1, 0.5]], dtype=np.float64
    )
    center, extents, yaw = fit_box(corners)
    assert yaw == 0.0
    np.testing.assert_allclose(center, [0, 0, 0.5], atol=1e-12)
    np.testing.assert_allclose(extents, [2.0, 2.0, 0.1], atol=1e-12)


def test_fit_box_min_extent_floor():
    pts = np.zeros((10, 3))
    _, extents, _ = fit_box(pts)
    assert all(e == pytest.approx(0.1) for e in extents)


def test_fit_box_empty():
    with pytest.raises(ExtractionError):
        fit_box(np.empty((0, 3)))


def test_unproject_depth_semantic_center_pixel():
    intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=8.0)
    depth = np.zeros((16, 32))
    sem = np.zeros((16, 32))
    depth[8, 16] = 5.0
    sem[8, 16] = 3
    cloud = unproject_depth_semantic(depth, sem, intr)
    assert len(cloud) == 1
    np.testing.assert_allclose(cloud.points[0], [5.0, 0.0, 0.0], atol=1e-12)
    assert cloud.labels[0] == 3


def test_unproject_depth_semantic_axes():
    intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=8.0)
    depth = np.zeros((16, 32))
    depth[8, 26] = 10.0  # right of center -> -y in sensor frame
    depth[3, 16] = 10.0  # above center -> +z in sensor frame
    cloud = unproject_depth_semantic(depth, np.zeros((16, 32)), intr)
    by_x = {tuple(np.round(p, 6)) for p in cloud.points}
    assert (10.0, -1.0, 0.0) in by_x
    assert (10.0, 0.0, 0.5) in by_x


def test_unproject_takes_the_image_size_from_two_dimensional_maps():
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    with pytest.raises(ExtractionError, match=r"^depth and semantic maps must share one 2-D shape, got \(4,\) and \(4,\)$"):
        unproject_depth_semantic(np.ones(4), np.zeros(4), intr)


def test_unproject_shape_mismatch():
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0)
    with pytest.raises(ExtractionError):
        unproject_depth_semantic(np.zeros((4, 4)), np.zeros((5, 4)), intr)


def test_extract_layout_single_car_scene():
    lay = Layout(
        primitives=(
            SemanticPrimitive(0, "plane", (0, 0, 0), (200.0, 200.0, 0.0)),
            SemanticPrimitive(3, "cuboid", (8.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.2),
        )
    )
    # viewed broadside from a small elevation so the roof and sides connect
    pose = Pose((8.0, -10.0, 3.0), math.pi / 2)
    spec = SensorSpec(rows=64, cols=1024)
    cloud = sensor_to_world(range_image_to_point_cloud(render_conditional(lay, spec, pose)), spec, pose)
    out = extract_layout(cloud)
    cars = [p for p in out.primitives if p.label == 3]
    assert len(cars) == 1
    car = cars[0]
    assert np.hypot(car.center[0] - 8.0, car.center[1]) < 0.5
    dyaw = (car.yaw - 0.2 + math.pi / 2) % math.pi - math.pi / 2
    assert abs(dyaw) < 0.2
    # ground became a single plane
    grounds = [p for p in out.primitives if p.label == 0]
    assert len(grounds) == 1 and grounds[0].shape == "plane"
    assert abs(grounds[0].center[2]) < 0.05


def test_extract_layout_all_noise_empty():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-50, 50, (30, 3))
    cloud = LabeledPointCloud(pts, np.full(30, 3))
    out = extract_layout(cloud, params_by_label={"car": ClusterParams(0.3, 10)})
    assert out.primitives == ()


@pytest.mark.parametrize("name", ["cars", "ground"])
def test_extract_layout_rejects_unknown_cluster_label(name):
    cloud = LabeledPointCloud(np.zeros((1, 3)), np.full(1, 3))
    with pytest.raises(ExtractionError, match=rf"'{name}'.*'building', 'car', 'vegetation'"):
        extract_layout(cloud, params_by_label={name: ClusterParams(0.3, 10)})


def test_extract_layout_min_pts_respected():
    # 5 car points close together: below min_pts 10, no primitive
    pts = np.random.default_rng(9).normal(scale=0.1, size=(5, 3)) + [5, 0, 0.5]
    out = extract_layout(LabeledPointCloud(pts, np.full(5, 3)))
    assert out.primitives == ()


def test_extract_layout_two_cars():
    rng = np.random.default_rng(10)
    a = rng.uniform([-2, -1, 0], [2, 1, 1.5], (200, 3)) + [10, 3, 0]
    b = rng.uniform([-2, -1, 0], [2, 1, 1.5], (200, 3)) + [10, -3, 0]
    cloud = LabeledPointCloud(np.vstack([a, b]), np.full(400, 3))
    out = extract_layout(cloud)
    cars = [p for p in out.primitives if p.label == 3]
    assert len(cars) == 2
    ys = sorted(p.center[1] for p in cars)
    assert ys[0] == pytest.approx(-3.0, abs=0.2) and ys[1] == pytest.approx(3.0, abs=0.2)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("fx", 0.0, "focal lengths must be finite and positive, got fx=0.0, fy=10.0"),
        ("fy", -1.0, "focal lengths must be finite and positive, got fx=10.0, fy=-1.0"),
        ("fx", math.nan, "focal lengths must be finite and positive, got fx=nan, fy=10.0"),
        ("fy", math.inf, "focal lengths must be finite and positive, got fx=10.0, fy=inf"),
        ("cx", 8.0, "principal point (8.0, 3.0) outside the 8x6 image"),
        ("cy", -0.5, "principal point (4.0, -0.5) outside the 8x6 image"),
        ("cx", math.nan, "principal point (nan, 3.0) outside the 8x6 image"),
        ("cy", math.inf, "principal point (4.0, inf) outside the 8x6 image"),
    ],
    ids=["fx-zero", "fy-negative", "fx-nan", "fy-inf", "cx-at-width", "cy-negative", "cx-nan", "cy-inf"],
)
def test_camera_intrinsics_reject_bad_values(field, value, message):
    # The image size is the maps' shape: 8 wide, 6 high.
    intrinsics = dict(fx=10.0, fy=10.0, cx=4.0, cy=3.0)
    with pytest.raises(ExtractionError) as exc:
        unproject_depth_semantic(np.zeros((6, 8)), np.zeros((6, 8)), CameraIntrinsics(**{**intrinsics, field: value}))
    assert str(exc.value) == message

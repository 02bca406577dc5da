import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarscene import sensor
from lidarscene.sensor import (
    LabeledPointCloud,
    RangeImage,
    SensorSpec,
    denormalize_depth,
    normalize_depth,
    pixel_to_angles,
    project_points,
    range_image_to_point_cloud,
    unproject,
)


@pytest.fixture
def small_spec():
    return SensorSpec(rows=2, cols=4, pitch_max=math.pi / 6, pitch_min=-math.pi / 6)


def test_spec_validation():
    with pytest.raises(sensor.SensorError):
        SensorSpec(rows=0)
    with pytest.raises(sensor.SensorError):
        SensorSpec(pitch_max=-1.0, pitch_min=1.0)
    with pytest.raises(sensor.SensorError):
        SensorSpec(max_range=0.0)


def test_pixel_to_angles_corner(small_spec):
    yaw, pitch = pixel_to_angles(0, 0, small_spec)
    assert yaw == pytest.approx(3 * math.pi / 4)
    assert pitch == pytest.approx(math.pi / 12)


def test_pixel_to_angles_center_column(small_spec):
    yaw, _ = pixel_to_angles(1, 0, small_spec)
    assert yaw == pytest.approx(math.pi / 4)


def test_pixel_to_angles_bounds(small_spec):
    with pytest.raises(sensor.SensorError):
        pixel_to_angles(4, 0, small_spec)
    with pytest.raises(sensor.SensorError):
        pixel_to_angles(0, -1, small_spec)


def test_pixel_to_angles_bijective_full_grid():
    spec = SensorSpec()
    u, v = np.meshgrid(np.arange(spec.cols), np.arange(spec.rows))
    yaw, pitch = pixel_to_angles(u.ravel(), v.ravel(), spec)
    pairs = set(zip(yaw.tolist(), pitch.tolist()))
    assert len(pairs) == spec.rows * spec.cols


def test_unproject_axis_cases():
    np.testing.assert_allclose(unproject(0.0, 0.0, 5.0), [5.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(unproject(math.pi / 2, 0.0, 2.0), [0.0, -2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(unproject(0.0, math.pi / 6, 2.0), [math.sqrt(3), 0.0, 1.0], atol=1e-12)


def test_unproject_norm_property():
    rng = np.random.default_rng(0)
    yaw = rng.uniform(-math.pi, math.pi, 500)
    pitch = rng.uniform(-math.pi / 2, math.pi / 2, 500)
    depth = rng.uniform(0.1, 100.0, 500)
    pts = unproject(yaw, pitch, depth)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), depth, rtol=1e-9)


def test_unproject_rejects_nonpositive_depth():
    with pytest.raises(sensor.SensorError):
        unproject(0.0, 0.0, 0.0)


def test_project_axis_aligned():
    spec = SensorSpec()
    u, v, depth, valid = project_points([5.0, 0.0, 0.0], spec)
    assert valid.tolist() == [True]
    # yaw = 0 column; pitch = 0 row band.
    yaw, pitch = pixel_to_angles(u[0], v[0], spec)
    assert abs(yaw) < 2 * math.pi / spec.cols
    assert depth[0] == pytest.approx(5.0)
    assert spec.pitch_min <= pitch <= spec.pitch_max


def test_project_out_of_view():
    spec = SensorSpec()
    # pitch above pitch_max, then too far
    *_, valid = project_points([[1.0, 0.0, 10.0], [spec.max_range + 5.0, 0.0, 0.0]], spec)
    assert valid.tolist() == [False, False]


def test_project_zero_point_raises():
    with pytest.raises(sensor.SensorError):
        project_points([0.0, 0.0, 0.0], SensorSpec())


def test_project_unproject_roundtrip_exhaustive():
    spec = SensorSpec()
    u, v = np.meshgrid(np.arange(spec.cols), np.arange(spec.rows))
    u = u.ravel()
    v = v.ravel()
    yaw, pitch = pixel_to_angles(u, v, spec)
    for d in (1.0, 10.0, 79.0):
        pts = unproject(yaw, pitch, d)
        pu, pv, pd, valid = project_points(pts, spec)
        assert valid.all()
        np.testing.assert_array_equal(pu, u)
        np.testing.assert_array_equal(pv, v)
        np.testing.assert_allclose(pd, d, atol=1e-4)


def test_range_image_roundtrip_grid_aligned():
    spec = SensorSpec(rows=16, cols=64)
    rng = np.random.default_rng(1)
    depth = np.where(rng.random((16, 64)) < 0.5, rng.uniform(1.0, 70.0, (16, 64)), 0.0)
    labels = rng.integers(0, 5, (16, 64)).astype(float)
    labels[depth == 0] = 0
    img = RangeImage(spec, np.stack([depth, labels]))
    cloud = range_image_to_point_cloud(img)
    assert len(cloud) == int((depth > 0).sum())
    # projecting the cloud back puts each point in its own pixel
    u, v, d, valid = project_points(cloud.points, spec)
    assert valid.all() and len(set(zip(u.tolist(), v.tolist()))) == len(cloud)
    back = np.zeros((2, 16, 64))
    back[0, v, u] = d
    back[1, v, u] = cloud.labels
    np.testing.assert_allclose(back[0], depth, atol=1e-4)
    np.testing.assert_array_equal(back[1], labels)


def test_empty_image_and_cloud():
    spec = SensorSpec(rows=4, cols=8)
    img = RangeImage(spec, np.zeros((2, 4, 8)))
    assert len(range_image_to_point_cloud(img)) == 0
    u, v, depth, valid = project_points(LabeledPointCloud(np.empty((0, 3))).points, spec)
    assert len(u) == len(v) == len(depth) == len(valid) == 0


def test_single_pixel_roundtrip():
    spec = SensorSpec(rows=8, cols=16)
    data = np.zeros((2, 8, 16))
    data[0, 3, 7] = 12.5
    data[1, 3, 7] = 3
    cloud = range_image_to_point_cloud(RangeImage(spec, data))
    assert len(cloud) == 1
    yaw, pitch = pixel_to_angles(7, 3, spec)
    np.testing.assert_allclose(cloud.points[0], unproject(yaw, pitch, 12.5))
    assert cloud.labels[0] == 3


def test_normalize_depth_endpoints_and_midpoint():
    spec = SensorSpec(max_range=63.0)
    assert normalize_depth(0.0, spec) == 0.0
    assert normalize_depth(63.0, spec) == pytest.approx(1.0)
    assert normalize_depth(7.0, spec) == pytest.approx(0.5)


def test_normalize_denormalize_roundtrip():
    spec = SensorSpec()
    rng = np.random.default_rng(2)
    d = rng.uniform(0.0, spec.max_range, 1000)
    np.testing.assert_allclose(denormalize_depth(normalize_depth(d, spec), spec), d, rtol=1e-6)
    # strictly monotone
    grid = np.linspace(0.0, spec.max_range, 500)
    assert np.all(np.diff(normalize_depth(grid, spec)) > 0)


def test_normalize_depth_out_of_range():
    spec = SensorSpec()
    with pytest.raises(sensor.SensorError):
        normalize_depth(-0.1, spec)
    with pytest.raises(sensor.SensorError):
        normalize_depth(spec.max_range + 1.0, spec)
    for bad in (np.nan, np.inf, -np.inf):
        d = np.full((2, 3), 5.0)
        d[1, 2] = bad
        with pytest.raises(sensor.SensorError, match="not finite"):
            normalize_depth(d, spec)


def test_lri_roundtrip(tmp_path):
    spec = SensorSpec(rows=8, cols=16, max_range=50.0)
    rng = np.random.default_rng(3)
    data = rng.uniform(0.0, 50.0, (2, 8, 16)).astype(np.float32).astype(np.float64)
    img = RangeImage(spec, data)
    path = tmp_path / "img.lri"
    sensor.write_lri(path, img)
    back = sensor.read_lri(path)
    assert back.spec.rows == 8 and back.spec.cols == 16
    assert back.spec.max_range == pytest.approx(50.0)
    np.testing.assert_array_equal(back.data, data)


def test_lri_bad_magic(tmp_path):
    path = tmp_path / "bad.lri"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(sensor.SensorError, match="magic"):
        sensor.read_lri(path)


def test_lri_truncated_at_every_offset_raises_sensor_error(tmp_path):
    img = RangeImage(SensorSpec(rows=2, cols=4), np.ones((2, 2, 4)))
    path = tmp_path / "full.lri"
    sensor.write_lri(path, img)
    full = path.read_bytes()
    clipped = tmp_path / "clipped.lri"
    for size in range(len(full)):
        clipped.write_bytes(full[:size])
        with pytest.raises(sensor.SensorError):
            sensor.read_lri(clipped)
    clipped.write_bytes(full)
    np.testing.assert_array_equal(sensor.read_lri(clipped).data, img.data)


@pytest.mark.parametrize("dims, match", [((2, 4, 0), "0 channels"), ((2**31, 2**31, 1), "truncated payload")])
def test_lri_bad_header_dims_raise_sensor_error(tmp_path, dims, match):
    path = tmp_path / "bad.lri"
    for magic, geometry in ((b"LRI1", (0.03, -0.4, 80.0)), (b"LRI2", (0.03, -0.4, 80.0, 1.73))):
        header = struct.pack(sensor._LRI_HEADERS[magic], *dims, *geometry)
        path.write_bytes(magic + header + b"\x00" * 64)
        with pytest.raises(sensor.SensorError, match=match):
            sensor.read_lri(path)


def test_lri_keeps_origin_height(tmp_path):
    img = RangeImage(SensorSpec(rows=2, cols=3, origin_height=2.5), np.ones((1, 2, 3)))
    path = tmp_path / "tall.lri"
    sensor.write_lri(path, img)
    assert sensor.read_lri(path).spec.origin_height == 2.5


def test_lri_v1_reads_with_default_height(tmp_path):
    data = np.arange(6, dtype="<f4").reshape(1, 2, 3)
    path = tmp_path / "v1.lri"
    path.write_bytes(b"LRI1" + struct.pack("<IIIddd", 2, 3, 1, 0.03, -0.4, 50.0) + data.tobytes())
    back = sensor.read_lri(path)
    assert back.spec == SensorSpec(rows=2, cols=3, pitch_max=0.03, pitch_min=-0.4, max_range=50.0)
    assert back.spec.origin_height == SensorSpec().origin_height
    np.testing.assert_array_equal(back.data, data)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 6)),
    pitch_max=st.floats(-1.5, 1.5),
    fov=st.floats(1e-6, 3.0),
    max_range=st.floats(1e-3, 1e4),
    origin_height=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lri_roundtrip_keeps_every_header_field(tmp_path_factory, shape, pitch_max, fov, max_range, origin_height, seed):
    c, h, w = shape
    spec = SensorSpec(h, w, pitch_max, pitch_max - fov, max_range, origin_height)
    data = np.random.default_rng(seed).uniform(0.0, max_range, shape).astype(np.float32)
    path = tmp_path_factory.mktemp("lri") / "img.lri"
    sensor.write_lri(path, RangeImage(spec, data))
    back = sensor.read_lri(path)
    assert back.spec == spec
    np.testing.assert_array_equal(back.data, data)


def test_read_point_cloud_names_file_and_line(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# x y z label_id\n1 2 3 0\n4 x 6 1\n")
    with pytest.raises(sensor.SensorError, match=re.escape(f"{path}:3: could not convert")):
        sensor.read_point_cloud(path)


def test_point_cloud_text_is_pinned(tmp_path):
    path = tmp_path / "cloud.xyz"
    sensor.write_point_cloud(path, LabeledPointCloud(np.array([[-0.0, 1e6, 1.25], [0.5, -2.0, 1e-7]]), [0, 12]))
    assert path.read_text() == (
        "# x y z label_id\n"
        "-0.000000 1000000.000000 1.250000 0\n"
        "0.500000 -2.000000 0.000000 12\n"
    )
    sensor.write_point_cloud(path, LabeledPointCloud(np.empty((0, 3)), np.empty(0, dtype=np.int64)))
    assert path.read_text() == "# x y z label_id\n"


def test_point_cloud_text_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    cloud = LabeledPointCloud(rng.normal(size=(50, 3)), rng.integers(0, 5, 50))
    path = tmp_path / "cloud.xyz"
    sensor.write_point_cloud(path, cloud)
    back = sensor.read_point_cloud(path)
    np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)
    np.testing.assert_array_equal(back.labels, cloud.labels)

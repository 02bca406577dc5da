import math
import struct

import numpy as np
import pytest

from lidarscene import sensor
from lidarscene.sensor import (
    LabeledPointCloud,
    RangeImage,
    SensorSpec,
    denormalize_depth,
    normalize_depth,
    pixel_to_angles,
    point_cloud_to_range_image,
    project,
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
    u, v, depth = project([5.0, 0.0, 0.0], spec)
    # yaw = 0 column; pitch = 0 row band.
    yaw, pitch = pixel_to_angles(u, v, spec)
    assert abs(yaw) < 2 * math.pi / spec.cols
    assert depth == pytest.approx(5.0)
    assert spec.pitch_min <= pitch <= spec.pitch_max


def test_project_out_of_view():
    spec = SensorSpec()
    assert project([1.0, 0.0, 10.0], spec) is None  # pitch above pitch_max
    assert project([spec.max_range + 5.0, 0.0, 0.0], spec) is None  # too far


def test_project_zero_point_raises():
    with pytest.raises(sensor.SensorError):
        project([0.0, 0.0, 0.0], SensorSpec())


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
    back = point_cloud_to_range_image(cloud, spec)
    np.testing.assert_allclose(back.depth, depth, atol=1e-4)
    np.testing.assert_array_equal(back.semantic, labels)


def test_empty_image_and_cloud():
    spec = SensorSpec(rows=4, cols=8)
    img = RangeImage(spec, np.zeros((2, 4, 8)))
    assert len(range_image_to_point_cloud(img)) == 0
    back = point_cloud_to_range_image(LabeledPointCloud(np.empty((0, 3))), spec)
    assert not back.data.any()


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


def test_zbuffer_minimum_rule():
    spec = SensorSpec(rows=8, cols=16)
    yaw, pitch = pixel_to_angles(5, 4, spec)
    pts = np.stack([unproject(yaw, pitch, 7.0), unproject(yaw, pitch, 4.0)])
    img = point_cloud_to_range_image(LabeledPointCloud(pts, [1, 2]), spec)
    assert img.depth[4, 5] == pytest.approx(4.0, abs=1e-9)
    assert img.semantic[4, 5] == 2


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
    path.write_bytes(sensor._LRI_MAGIC + struct.pack("<IIIddd", *dims, 0.03, -0.4, 80.0) + b"\x00" * 64)
    with pytest.raises(sensor.SensorError, match=match):
        sensor.read_lri(path)


def test_pgm_export(tmp_path):
    spec = SensorSpec(rows=4, cols=8)
    img = RangeImage(spec, np.full((1, 4, 8), 40.0))
    path = tmp_path / "img.pgm"
    sensor.write_pgm(path, img)
    header = path.read_bytes()
    assert header.startswith(b"P5\n8 4\n65535\n")


def test_point_cloud_text_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    cloud = LabeledPointCloud(rng.normal(size=(50, 3)), rng.integers(0, 5, 50))
    path = tmp_path / "cloud.xyz"
    sensor.write_point_cloud(path, cloud)
    back = sensor.read_point_cloud(path)
    np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)
    np.testing.assert_array_equal(back.labels, cloud.labels)

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidarscene import sensor
from lidarscene.extraction import CameraIntrinsics, unproject_depth_semantic
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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["max_range", "pitch_max", "pitch_min"])
def test_spec_rejects_non_finite_range_and_pitch(field, value):
    # An infinite max_range would normalise every depth to 0.0.
    with pytest.raises(sensor.SensorError, match=f"sensor {field} must be finite"):
        SensorSpec(**{field: value})


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_spec_rejects_non_finite_origin_height(tmp_path, value):
    with pytest.raises(sensor.SensorError, match="sensor origin_height must be finite"):
        SensorSpec(origin_height=value)
    # read_lri builds its SensorSpec from the header, so a file's height is checked too.
    path = tmp_path / "nan_height.lri"
    header = struct.pack(sensor._LRI_HEADERS[b"LRI2"], 2, 3, 1, 0.03, -0.4, 80.0, value)
    path.write_bytes(b"LRI2" + header + np.ones(6, dtype="<f4").tobytes())
    with pytest.raises(sensor.SensorError, match="sensor origin_height must be finite"):
        sensor.read_lri(path)


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


@pytest.mark.parametrize("magic", [b"LRI1", b"LRI2"])
def test_lri_rejects_bytes_after_the_payload(tmp_path, magic):
    geometry = (0.03, -0.4, 80.0, 1.73)[: 3 if magic == b"LRI1" else 4]
    path = tmp_path / "long.lri"
    path.write_bytes(magic + struct.pack(sensor._LRI_HEADERS[magic], 4, 8, 1, *geometry) + b"\x00" * (4 * 32 + 128))
    with pytest.raises(sensor.SensorError, match=f"^{re.escape(str(path))}: 128 bytes after the payload of a 4x8x1 header$"):
        sensor.read_lri(path)


@pytest.mark.parametrize(
    "rows, cols, geometry, match",
    [
        (0, 3, (0.03, -0.4, 80.0, 1.73), "rows and cols must be >= 1"),
        (2, 0, (0.03, -0.4, 80.0, 1.73), "rows and cols must be >= 1"),
        (2, 3, (math.nan, -0.4, 80.0, 1.73), "sensor pitch_max must be finite"),
        (2, 3, (0.03, -math.inf, 80.0, 1.73), "sensor pitch_min must be finite"),
        (2, 3, (0.03, -0.4, math.nan, 1.73), "sensor max_range must be finite"),
        (2, 3, (0.03, -0.4, 80.0, math.inf), "sensor origin_height must be finite"),
        (2, 3, (-0.4, -0.4, 80.0, 1.73), "pitch_max must exceed pitch_min"),
        (2, 3, (0.03, -0.4, 0.0, 1.73), "max_range must be positive"),
    ],
)
def test_lri_refused_header_geometry_names_the_file(tmp_path, rows, cols, geometry, match):
    path = tmp_path / "bad_geometry.lri"
    header = struct.pack(sensor._LRI_HEADERS[b"LRI2"], rows, cols, 1, *geometry)
    path.write_bytes(b"LRI2" + header + np.ones(rows * cols, dtype="<f4").tobytes())
    with pytest.raises(sensor.SensorError, match=match) as info:
        sensor.read_lri(path)
    assert str(info.value).startswith(f"{path}: ")


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


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_read_point_cloud_rejects_non_finite_coordinates(tmp_path, field):
    path = tmp_path / "cloud.xyz"
    path.write_text(f"1 2 3 0\n0 {field} 0 3\n")
    with pytest.raises(sensor.SensorError, match=re.escape(f"{path}:2: coordinates must be finite")):
        sensor.read_point_cloud(path)


@pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809", "9223372036854775808"])
def test_read_point_cloud_rejects_labels_outside_int64(tmp_path, label):
    path = tmp_path / "cloud.xyz"
    path.write_text(f"1 2 3 {2**63 - 1}\n4 5 6 {-2**63}\n7 8 9 {label}\n")
    with pytest.raises(sensor.SensorError, match=re.escape(f"{path}:3: label {label} does not fit in int64")):
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


@pytest.mark.parametrize("target", [str, lambda p: p], ids=["str", "Path"])
@pytest.mark.parametrize(
    "points, labels",
    [
        ([[-0.0, 1e6, -1e-9], [0.5, -2.0, 1e-7]], [2**40, 0]),
        (np.empty((0, 3)), np.empty(0, dtype=np.int64)),
        (np.random.default_rng(5).normal(scale=50.0, size=(200, 3)), np.random.default_rng(6).integers(0, 9, 200)),
    ],
    ids=["edge-values", "empty", "random"],
)
def test_point_cloud_text_equals_savetxt(tmp_path, target, points, labels):
    cloud = LabeledPointCloud(np.asarray(points, dtype=np.float64), labels)
    path = tmp_path / "cloud.xyz"
    sensor.write_point_cloud(target(path), cloud)
    ref = tmp_path / "ref.xyz"
    np.savetxt(ref, np.column_stack([cloud.points, cloud.labels]), fmt="%.6f %.6f %.6f %d", header="x y z label_id")
    assert path.read_bytes() == ref.read_bytes()


def test_point_cloud_text_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    cloud = LabeledPointCloud(rng.normal(size=(50, 3)), rng.integers(0, 5, 50))
    path = tmp_path / "cloud.xyz"
    sensor.write_point_cloud(path, cloud)
    back = sensor.read_point_cloud(path)
    np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)
    np.testing.assert_array_equal(back.labels, cloud.labels)


#: Coordinates whose float product |x| * 1e6 is exactly k + 1/2: exact ties
#: k / 2**7, which round to even, and values that the float product rounds
#: onto a half (1000.0000005 prints 1000.000001, rint gives 1000.000000).
TIES = [0.0078125, -0.0234375, 1000.0000005, 2.5e-06, -123456.0000025, 5e-07]
FIXED_LIMIT = 2.0**52 / 1e6
coordinate = st.builds(lambda mag, neg: -mag if neg else mag, st.floats(1e-9, 4e9), st.booleans())


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(coordinate, coordinate, coordinate, st.integers(-2**31, 2**31)), max_size=30))
@example(rows=[(t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf), 7) for t in TIES])
@example(rows=[(0.0, -0.0, -1e-9, 0), (5e-324, -5e-324, -2.2250738585072014e-308, -3)])
@example(rows=[(np.nextafter(FIXED_LIMIT, 0.0), -np.nextafter(FIXED_LIMIT, 0.0), 1.0, 1)])
def test_point_cloud_text_rounds_as_printf(tmp_path_factory, rows):
    points = np.array([r[:3] for r in rows], dtype=np.float64).reshape(-1, 3)
    labels = np.array([r[3] for r in rows], dtype=np.int64)
    cloud = LabeledPointCloud(points, labels)
    path = tmp_path_factory.mktemp("xyz") / "cloud.xyz"
    sensor.write_point_cloud(path, cloud)
    ref = path.with_name("ref.xyz")
    np.savetxt(ref, np.column_stack([points, labels]), fmt="%.6f %.6f %.6f %d", header="x y z label_id")
    assert path.read_bytes() == ref.read_bytes()


def _refuse(*args, **kwargs):
    raise ValueError("refused")


#: Well-formed ``.xyz`` text: point lines with coordinates in %.Nf, repr and
#: exponent forms, int64 labels of up to 19 digits, runs of spaces and tabs,
#: comments, blank lines, and "\n", "\r\n" and "\r" line ends.
_BLANK = st.text(" \t", max_size=2)
_GAP = st.text(" \t", min_size=1, max_size=3)
_COMMENT = st.text("#ab \t", max_size=5).map("#{}".format)
_COORDINATE = st.builds(
    lambda form, x: form % x,
    st.integers(0, 17).map("%.{}f".format) | st.just("%r") | st.integers(0, 17).map("%.{}e".format),
    st.floats(-1e10, 1e10) | st.floats(-1e300, 1e300),  # no form rounds these to inf
)
_POINT_LINE = st.builds(
    lambda *parts: "".join(parts),
    _BLANK, _COORDINATE, _GAP, _COORDINATE, _GAP, _COORDINATE, _GAP,
    st.integers(-(2**63), 2**63 - 1).map(str), _BLANK, st.just("") | _COMMENT,
)
_XYZ_LINE = st.tuples(_POINT_LINE | _BLANK | _COMMENT, st.sampled_from(["\n", "\r\n", "\r"]))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_XYZ_LINE, max_size=20), last_end=st.booleans())
@example(lines=[("# x y z label_id", "\n"), ("-0.000000 9999999999.5 -1e-9 -9223372036854775808", "\n")], last_end=True)
@example(lines=[("\t1e308  -5e-324\t0.1 9223372036854775807 # c", "\r\n"), ("", "\r")], last_end=False)
def test_whole_array_read_equals_the_line_read(tmp_path_factory, lines, last_end):
    # np.loadtxt reads well-formed text in one call; the line loop must give
    # the same bits, -0.0 and int64 labels included.
    text = "".join(line + end for line, end in lines)
    if lines and not last_end:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("xyz") / "cloud.xyz"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensor, "text_lines", None)  # the line loop cannot run
        whole = sensor.read_point_cloud(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", _refuse)
        by_line = sensor.read_point_cloud(path)
    assert whole.points.tobytes() == by_line.points.tobytes()
    assert whole.labels.tobytes() == by_line.labels.tobytes()


@pytest.mark.parametrize("text", ["", "# x y z label_id\n"], ids=["empty", "header-only"])
def test_read_point_cloud_of_no_points_warns_nothing(tmp_path, text):
    path = tmp_path / "cloud.xyz"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cloud = sensor.read_point_cloud(path)
    assert cloud.points.shape == (0, 3) and cloud.labels.shape == (0,)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_read_point_cloud_reads_text_under_a_compressed_suffix(tmp_path, suffix):
    path = tmp_path / f"cloud.xyz{suffix}"
    path.write_text("# x y z label_id\n1.5 -2 3 4\n")
    cloud = sensor.read_point_cloud(path)
    assert np.column_stack([cloud.points, cloud.labels]).tolist() == [[1.5, -2.0, 3.0, 4]]


ROW = [1.0, 2.0, 3.0, 4]


@pytest.mark.parametrize(
    "body, want",
    [
        ("1.000000 2.000000 3.000000 4", [ROW]),
        (" 1.000000 2.000000 3.000000 4\n", [ROW]),
        ("1.000000  2.000000 3.000000 4\n", [ROW]),
        ("1.000000 2.000000 3.000000 4 \n", [ROW]),
        ("\n1.000000 2.000000 3.000000 4 # a comment\n", [ROW]),
        ("1.0 2.000000 3.000000 4\n", [ROW]),
        ("1.00000000 22.00000 3.000000 4\n", [[1.0, 22.0, 3.0, 4]]),  # three points, two misplaced
        ("1.000000 2.000000 3.000000 \u0664\n", [ROW]),  # int() reads an Arabic-Indic 4
        ("-.500000 1_0.000000 3.000000 4\n", [[-0.5, 10.0, 3.0, 4]]),
        ("1.000000 2.000000 3.000000 4.0\n", ":2: invalid literal for int()"),
        ("1.000000 2-.000000 3.000000 4\n", ":2: could not convert string to float"),
        ("1.000000 2.000000 3.000000 4\n1.000000 2.000000 3.000000\n", ":3: expected 'x y z label_id'"),
        ("1.000000 2.000000 3.000000 \n", ":2: expected 'x y z label_id'"),
        ("1.000000 2.000000\n3.000000 4\n", ":2: expected 'x y z label_id'"),
        *[(f"1 2{c}3 4", ":2: expected 'x y z label_id'") for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"],
    ],
)
def test_text_outside_the_writer_form_is_read_line_by_line(tmp_path, body, want):
    text = "# x y z label_id\n" + body
    path = tmp_path / "cloud.xyz"
    path.write_text(text, encoding="utf-8")
    if isinstance(want, str):
        with pytest.raises(sensor.SensorError, match=re.escape(f"{path}{want}")):
            sensor.read_point_cloud(path)
    else:
        cloud = sensor.read_point_cloud(path)
        assert np.column_stack([cloud.points, cloud.labels]).tolist() == want


def test_point_cloud_labels_keep_every_bit(tmp_path):
    labels = [2**53 + 1, 2**63 - 1, -2**63, -1, 0]
    path = tmp_path / "cloud.xyz"
    sensor.write_point_cloud(path, LabeledPointCloud(np.full((5, 3), 1.5), labels))
    assert [line.split()[3] for line in path.read_text().splitlines()[1:]] == [str(v) for v in labels]
    assert sensor.read_point_cloud(path).labels.tolist() == labels


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_write_point_cloud_rejects_non_finite_points(tmp_path, value):
    points = np.zeros((4, 3))
    points[2, 1] = points[3, 0] = value
    path = tmp_path / "cloud.xyz"
    with pytest.raises(sensor.SensorError, match=re.escape(f"{path}: point 2 is not finite: (0.0, {value}, 0.0)")):
        sensor.write_point_cloud(path, LabeledPointCloud(points))
    assert not path.exists()


# 9732503960.16005 would print ...160049, while rint(x * 1e6) gives ...160050.
@pytest.mark.parametrize("value", [FIXED_LIMIT, 5e9, -9732503960.16005])
def test_write_point_cloud_rejects_coordinates_at_or_over_the_limit(tmp_path, value):
    points = np.zeros((4, 3))
    points[2, 1] = points[3, 0] = value
    path = tmp_path / "cloud.xyz"
    message = f"{path}: point 2 has a |coordinate| of {FIXED_LIMIT} or more: (0.0, {value}, 0.0)"
    with pytest.raises(sensor.SensorError, match=re.escape(message)):
        sensor.write_point_cloud(path, LabeledPointCloud(points))
    assert not path.exists()


def test_range_image_rejects_data_of_another_shape():
    with pytest.raises(sensor.SensorError, match=re.escape("data shape (1, 4, 9) does not match spec (4x8)")):
        RangeImage(SensorSpec(rows=4, cols=8), np.zeros((4, 9)))


def test_point_cloud_rejects_points_and_labels_of_different_lengths():
    with pytest.raises(sensor.SensorError, match="^points and labels length mismatch$"):
        LabeledPointCloud(np.zeros((3, 3)), [0, 1])


def test_range_image_without_semantics_gives_zero_labels():
    cloud = range_image_to_point_cloud(RangeImage(SensorSpec(rows=2, cols=4), np.full((2, 4), 5.0)))
    assert len(cloud) == 8 and cloud.labels.dtype == np.int64 and not cloud.labels.any()


@pytest.mark.parametrize("line", ["1 2 3", "1 2 3 0 5"], ids=["3-fields", "5-fields"])
def test_read_point_cloud_needs_four_fields(tmp_path, line):
    path = tmp_path / "cloud.xyz"
    path.write_text(f"# x y z label_id\n1 2 3 0\n{line}\n")
    with pytest.raises(sensor.SensorError, match=re.escape(f"{path}:3: expected 'x y z label_id'")):
        sensor.read_point_cloud(path)


@pytest.mark.parametrize("value", [2.5, -0.5, math.nan, math.inf, -math.inf, 1e30], ids=["half", "negative-half", "nan", "inf", "-inf", "1e30"])
def test_semantic_ids_must_be_integers_in_int64(value):
    # Each reader of a semantic channel refuses the id and names its pixel;
    # rounding it, or casting NaN to int64's minimum, would invent a label.
    sem = np.ones((2, 4))
    sem[1, 2] = value
    img = RangeImage(SensorSpec(rows=2, cols=4), np.stack([np.full((2, 4), 5.0), sem]))
    intr = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=1.0)
    message = f"semantic id {value} at row 1, column 2 is not an integer in int64's range"
    for convert in (lambda: sensor.label_ids(sem), lambda: range_image_to_point_cloud(img),
                    lambda: sensor.control_image(img), lambda: unproject_depth_semantic(img.depth, sem, intr)):
        with pytest.raises(sensor.SensorError, match=f"^{re.escape(message)}$"):
            convert()


def test_semantic_ids_keep_every_integer_in_int64():
    sem = np.array([[0.0, -1.0, 2.0**62, -(2.0**63)]])
    assert sensor.label_ids(sem).tolist() == [[0, -1, 2**62, -(2**63)]]
    assert sensor.label_ids(sem.astype(np.float32)).dtype == np.int64

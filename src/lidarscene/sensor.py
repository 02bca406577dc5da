"""Virtual LiDAR sensor model: angular grid, range images, point
projection and the range-image -> point-cloud conversion.

Conventions (fixed, documented, round-trip tested):
  * columns sweep yaw from +pi (left edge) toward -pi, pixel centers at
    yaw = pi - 2*pi*(u + 0.5)/W
  * row 0 is the topmost scan line, pixel centers at
    pitch = pitch_max - (v + 0.5)*(pitch_max - pitch_min)/H
  * a point p = (x, y, z) projects with depth = |p|, yaw = atan2(-y, x),
    pitch = asin(z / depth)
  * no-return pixels store depth 0 (never NaN)
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .layout import read_text, text_lines

# HDL-64E-style vertical field of view (datasheet values).
DEFAULT_PITCH_MAX = math.radians(2.0)
DEFAULT_PITCH_MIN = math.radians(-24.8)


class SensorError(ValueError):
    pass


@dataclass(frozen=True)
class SensorSpec:
    """Angular layout of the virtual LiDAR.

    rows/cols define the range-image resolution; yaw always spans the full
    [-pi, pi) circle. ``origin_height`` is the sensor z above the ground
    plane when rendering scenes.
    """

    rows: int = 64
    cols: int = 1024
    pitch_max: float = DEFAULT_PITCH_MAX
    pitch_min: float = DEFAULT_PITCH_MIN
    max_range: float = 80.0
    origin_height: float = 1.73

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise SensorError("rows and cols must be >= 1")
        if not self.pitch_max > self.pitch_min:
            raise SensorError("pitch_max must exceed pitch_min")
        if not self.max_range > 0:
            raise SensorError("max_range must be positive")


@dataclass(frozen=True)
class RangeImage:
    """C x H x W grid: channel 0 is depth in meters (0 = no return),
    optional channel 1 stores integer semantic label ids as floats."""

    spec: SensorSpec
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim == 2:
            data = data[None]
        if data.ndim != 3 or data.shape[1] != self.spec.rows or data.shape[2] != self.spec.cols:
            raise SensorError(
                f"data shape {data.shape} does not match spec "
                f"({self.spec.rows}x{self.spec.cols})"
            )
        object.__setattr__(self, "data", data)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def depth(self) -> np.ndarray:
        return self.data[0]

    @property
    def semantic(self) -> np.ndarray | None:
        return self.data[1] if self.channels > 1 else None


@dataclass(frozen=True)
class LabeledPointCloud:
    """3D points (N x 3, sensor frame, meters) with per-point label ids."""

    points: np.ndarray
    labels: np.ndarray = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.labels is None:
            labels = np.zeros(len(pts), dtype=np.int64)
        else:
            labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if len(labels) != len(pts):
            raise SensorError("points and labels length mismatch")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.points)


def pixel_to_angles(u, v, spec: SensorSpec):
    """Pixel-center (yaw, pitch) of column u, row v. Accepts arrays."""
    u = np.asarray(u)
    v = np.asarray(v)
    if np.any(u < 0) or np.any(u >= spec.cols) or np.any(v < 0) or np.any(v >= spec.rows):
        raise SensorError("pixel index out of bounds")
    yaw = math.pi - 2.0 * math.pi * (u + 0.5) / spec.cols
    pitch = spec.pitch_max - (v + 0.5) * (spec.pitch_max - spec.pitch_min) / spec.rows
    return yaw, pitch


def angles_to_direction(yaw, pitch):
    """Unit ray direction for (yaw, pitch); accepts arrays."""
    cp = np.cos(pitch)
    return np.stack(
        [np.cos(yaw) * cp, -np.sin(yaw) * cp, np.sin(pitch) * np.ones_like(np.asarray(yaw, dtype=float))],
        axis=-1,
    )


def unproject(yaw, pitch, depth):
    """3D point at the given angles and range; accepts arrays."""
    depth = np.asarray(depth, dtype=np.float64)
    if np.any(depth <= 0):
        raise SensorError("depth must be positive")
    return angles_to_direction(yaw, pitch) * depth[..., None]


def project_points(points, spec: SensorSpec):
    """Vectorized projection: arrays (u, v, depth, valid) for N x 3 input."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    depth = np.linalg.norm(points, axis=1)
    if np.any(depth == 0):
        raise SensorError("cannot project a zero-length point")
    yaw = np.arctan2(-points[:, 1], points[:, 0])
    pitch = np.arcsin(np.clip(points[:, 2] / depth, -1.0, 1.0))

    u = np.floor((math.pi - yaw) * spec.cols / (2.0 * math.pi)).astype(np.int64) % spec.cols
    v_f = (spec.pitch_max - pitch) * spec.rows / (spec.pitch_max - spec.pitch_min)
    v = np.clip(np.floor(v_f).astype(np.int64), 0, spec.rows - 1)

    valid = (
        (pitch >= spec.pitch_min)
        & (pitch <= spec.pitch_max)
        & (depth <= spec.max_range)
    )
    return u, v, depth, valid


def range_image_to_point_cloud(img: RangeImage) -> LabeledPointCloud:
    """One point per returned pixel (depth > 0), labels copied when present."""
    spec = img.spec
    v, u = np.nonzero(img.depth > 0)
    yaw, pitch = pixel_to_angles(u, v, spec)
    pts = unproject(yaw, pitch, img.depth[v, u])
    if img.semantic is not None:
        labels = np.rint(img.semantic[v, u]).astype(np.int64)
    else:
        labels = np.zeros(len(u), dtype=np.int64)
    return LabeledPointCloud(pts, labels)


def normalize_depth(d, spec: SensorSpec):
    """Log-scale depth to [0, 1]; 0 maps to 0 and max_range to 1."""
    d = np.asarray(d, dtype=np.float64)
    if not np.all((d >= 0) & (d <= spec.max_range)):  # False for NaN too
        raise SensorError("depth not finite or outside [0, max_range]")
    return np.log1p(d) / math.log(spec.max_range + 1.0)


def denormalize_depth(n, spec: SensorSpec):
    n = np.asarray(n, dtype=np.float64)
    return np.expm1(n * math.log(spec.max_range + 1.0))


# ---------------------------------------------------------------------------
# File formats


_LRI_MAGIC = b"LRI2"
#: Header after the magic, per version. LRI1 files predate the stored sensor
#: height and read back with SensorSpec's default.
_LRI_HEADERS = {b"LRI1": "<IIIddd", _LRI_MAGIC: "<IIIdddd"}


def write_lri(path, img: RangeImage):
    """Binary range-image file: magic LRI2, u32 H W C, f64 pitch_max
    pitch_min max_range origin_height, then C*H*W little-endian f32
    (channel-major)."""
    spec = img.spec
    with open(path, "wb") as f:
        f.write(_LRI_MAGIC)
        f.write(struct.pack(_LRI_HEADERS[_LRI_MAGIC], spec.rows, spec.cols, img.channels,
                            spec.pitch_max, spec.pitch_min, spec.max_range, spec.origin_height))
        f.write(img.data.astype("<f4").tobytes())


def read_lri(path) -> RangeImage:
    """Read an LRI2 or LRI1 file."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic not in _LRI_HEADERS:
            raise SensorError(f"{path}: bad magic {magic!r}, expected LRI1 or LRI2")
        size = struct.calcsize(_LRI_HEADERS[magic])
        header = f.read(size)
        if len(header) != size:
            raise SensorError(f"{path}: truncated header")
        h, w, c, *geometry = struct.unpack(_LRI_HEADERS[magic], header)
        if c == 0:
            raise SensorError(f"{path}: header has 0 channels")
        if 4 * c * h * w > os.fstat(f.fileno()).st_size - f.tell():
            raise SensorError(f"{path}: truncated payload for a {h}x{w}x{c} header")
        data = np.frombuffer(f.read(4 * c * h * w), dtype="<f4").astype(np.float64).reshape(c, h, w)
    return RangeImage(SensorSpec(h, w, *geometry), data)


def write_point_cloud(path, cloud: LabeledPointCloud):
    """Text format: a ``# x y z label_id`` header, then one such line per point."""
    rows = np.column_stack([cloud.points, cloud.labels])  # labels as f64: exact below 2**53
    np.savetxt(path, rows, fmt="%.6f %.6f %.6f %d", header="x y z label_id")


def read_point_cloud(path) -> LabeledPointCloud:
    pts, labels = [], []
    for ln, line in text_lines(read_text(path, SensorError)):
        parts = line.split()
        if len(parts) != 4:
            raise SensorError(f"{path}:{ln}: expected 'x y z label_id'")
        try:
            pts.append([float(parts[0]), float(parts[1]), float(parts[2])])
            labels.append(int(parts[3]))
        except ValueError as exc:
            raise SensorError(f"{path}:{ln}: {exc}") from None
    return LabeledPointCloud(np.array(pts).reshape(-1, 3), np.array(labels, dtype=np.int64))

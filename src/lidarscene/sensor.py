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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .layout import DEFAULT_PALETTE, naming, read_text, text_lines

# HDL-64E-style vertical field of view (datasheet values).
DEFAULT_PITCH_MAX = math.radians(2.0)
DEFAULT_PITCH_MIN = math.radians(-24.8)
#: Semantic ids are divided by this to form the conditioning channel, in
#: training and in sampling alike, whatever palette a layout file declares.
SEMANTIC_DENOM = max(len(DEFAULT_PALETTE) - 1, 1)


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
        for name in ("max_range", "pitch_max", "pitch_min", "origin_height"):
            if not math.isfinite(getattr(self, name)):
                raise SensorError(f"sensor {name} must be finite, got {getattr(self, name)}")
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


def label_ids(sem) -> np.ndarray:
    """The H x W semantic map ``sem`` as int64 label ids. An id that is not
    an integer in int64's range (NaN and inf included) raises SensorError
    naming its pixel."""
    sem = np.asarray(sem)
    bad = ~((sem == np.rint(sem)) & (sem >= -(2.0**63)) & (sem < 2.0**63))  # NaN compares False
    if bad.any():
        row, col = np.unravel_index(np.argmax(bad), bad.shape)
        raise SensorError(f"semantic id {sem[row, col]} at row {row}, column {col} is not an integer in int64's range")
    return sem.astype(np.int64)


def range_image_to_point_cloud(img: RangeImage) -> LabeledPointCloud:
    """One point per returned pixel (depth > 0), with the ``label_ids`` of
    the semantic channel when present."""
    spec = img.spec
    v, u = np.nonzero(img.depth > 0)
    yaw, pitch = pixel_to_angles(u, v, spec)
    pts = unproject(yaw, pitch, img.depth[v, u])
    labels = None if img.semantic is None else label_ids(img.semantic)[v, u]
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


def control_image(img: RangeImage) -> np.ndarray:
    """The 2-channel condition of a rendered frame, as f32: normalized
    depth, then semantic id / SEMANTIC_DENOM. A frame without a semantic
    channel, or with an id that ``label_ids`` refuses, raises SensorError."""
    if img.semantic is None:
        raise SensorError("condition frame has no semantic channel (channel 1)")
    return np.stack([normalize_depth(img.depth, img.spec), label_ids(img.semantic) / SEMANTIC_DENOM]).astype(np.float32)


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
    """Read an LRI2 or LRI1 file; its payload must fill the rest of the file."""
    with naming(path, SensorError), open(path, "rb") as f:
        magic = f.read(4)
        if magic not in _LRI_HEADERS:
            raise SensorError(f"bad magic {magic!r}, expected LRI1 or LRI2")
        size = struct.calcsize(_LRI_HEADERS[magic])
        header = f.read(size)
        if len(header) != size:
            raise SensorError("truncated header")
        h, w, c, *geometry = struct.unpack(_LRI_HEADERS[magic], header)
        if c == 0:
            raise SensorError("header has 0 channels")
        extra = os.fstat(f.fileno()).st_size - f.tell() - 4 * c * h * w
        if extra < 0:
            raise SensorError(f"truncated payload for a {h}x{w}x{c} header")
        if extra > 0:
            raise SensorError(f"{extra} bytes after the payload of a {h}x{w}x{c} header")
        data = np.frombuffer(f.read(4 * c * h * w), dtype="<f4").astype(np.float64).reshape(c, h, w)
        return RangeImage(SensorSpec(h, w, *geometry), data)


#: The first line of every ``.xyz`` file that ``write_point_cloud`` writes.
_XYZ_HEADER = "# x y z label_id\n"
#: Below this |coordinate|, |x| * 1e6 is under 2**52, where every k + 1/2 is
#: a float, so rounding the float product cannot cross a half.
_FIXED_LIMIT = 2.0**52 / 1e6


def write_point_cloud(path, cloud: LabeledPointCloud):
    """``np.savetxt``'s bytes with ``fmt="%.6f %.6f %.6f %d"``: a
    ``# x y z label_id`` header, then one such line per point, the label as
    its exact int64. Coordinates round as printf rounds: the float's exact
    value to 6 decimals, ties to even, and a ``-`` on every negative value
    and on -0.0. That is ``rint(|x| * 1e6)`` over whole arrays, except where
    the float product is exactly k + 1/2, which is decided from
    ``float.as_integer_ratio``. A non-finite point, or a |coordinate| of
    ``_FIXED_LIMIT`` (2**52 / 1e6, about 4.5e9 m) or more, raises
    ``SensorError`` and writes nothing."""
    points, labels = cloud.points, cloud.labels
    bad = ~(np.abs(points) < _FIXED_LIMIT).all(axis=1)  # NaN compares False too
    if bad.any():
        i = int(np.argmax(bad))
        why = "is not finite" if not np.isfinite(points[i]).all() else f"has a |coordinate| of {_FIXED_LIMIT} or more"
        raise SensorError(f"{path}: point {i} {why}: {tuple(points[i].tolist())}")
    with open(path, "wb") as f:
        f.write(_XYZ_HEADER.encode() + _xyz_lines(points, labels))


def _xyz_lines(points, labels) -> bytes:
    """The point lines of ``write_point_cloud`` for finite points under
    ``_FIXED_LIMIT``: one uint8 row per byte position, with 0 for an unused
    sign or leading-zero position, dropped at the end."""
    xyz = np.ascontiguousarray(points.T)  # component-major: each digit row reads contiguous values
    mag = np.abs(xyz)
    scaled = mag * 1e6
    q = np.rint(scaled)
    # A float product exactly k + 1/2: decide from the exact value, ties to even.
    for c, i in zip(*np.nonzero(np.abs(scaled - q) == 0.5)):
        num, den = float(mag[c, i]).as_integer_ratio()
        k = int(scaled[c, i])
        excess = 2 * num * 10**6 - (2 * k + 1) * den
        q[c, i] = k + (excess > 0 or (excess == 0 and k % 2 == 1))
    q = q.astype(np.int64)
    whole = q // 1_000_000
    label_mag = labels.astype(np.uint64)  # |-2**63| fits in uint64, not in int64
    label_mag = np.where(labels < 0, np.uint64(0) - label_mag, label_mag)
    n_whole, n_label = len(str(int(whole.max(initial=0)))), len(str(int(label_mag.max(initial=0))))
    width = n_whole + 9  # sign, whole digits, ".", 6 decimals, " "
    rows = np.zeros((3 * width + n_label + 2, len(points)), dtype=np.uint8)
    coords = rows[: 3 * width].reshape(3, width, -1)
    coords[:, 0] = np.signbit(xyz) * ord("-")
    _put_digits(coords[:, n_whole:0:-1], whole, strip=True)
    coords[:, n_whole + 1] = ord(".")
    _put_digits(coords[:, n_whole + 7 : n_whole + 1 : -1], q - 1_000_000 * whole, strip=False)
    coords[:, -1] = ord(" ")
    label = rows[3 * width :]
    label[0] = (labels < 0) * ord("-")
    _put_digits(label[n_label:0:-1], label_mag, strip=True)
    label[-1] = ord("\n")
    return rows.T.tobytes().translate(None, b"\0")


def _put_digits(out, values, strip):
    """Write the decimal digits of the non-negative ints ``values`` as ASCII
    along ``out``'s second-to-last axis, units first. With ``strip``, the
    positions above a value's leading digit get 0."""
    rest = values.astype(np.min_scalar_type(values.max(initial=0)))  # narrow ints divide faster
    for j in range(out.shape[-2]):
        tens = rest // 10
        digit = (rest - 10 * tens) + ord("0")
        out[..., j, :] = np.where(rest > 0, digit, 0) if strip and j else digit
        rest = tens


#: One ``.xyz`` point line as ``np.loadtxt`` reads it.
_XYZ_ROW = np.dtype([("xyz", "f8", 3), ("label", "i8")])
#: Line breaks of ``str.splitlines`` that ``np.loadtxt`` takes for spaces.
_LOADTXT_SPACES = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
#: Suffixes that ``np.loadtxt`` opens as compressed files, whatever they hold.
_LOADTXT_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def read_point_cloud(path) -> LabeledPointCloud:
    """Points and labels of an ``.xyz`` file: ``x y z label_id`` lines,
    fields split by whitespace, ``#`` comments and blank lines skipped.
    Coordinates read as ``float`` and labels as ``int`` read them, and must
    be finite and fit in int64.

    ``np.loadtxt`` reads the file in one call. Where it refuses the text
    (a bad line, or a form only Python reads, such as ``1_0.0`` or
    non-ASCII digits), returns a non-finite coordinate, would split the text
    into other lines than ``str.splitlines`` does, or would decompress the
    file (a name ending in ``_LOADTXT_COMPRESSED``), the text is read line
    by line, which names the ``path:line`` of the first bad line."""
    text = read_text(path, SensorError)
    if not any(c in text for c in _LOADTXT_SPACES) and os.path.splitext(path)[1] not in _LOADTXT_COMPRESSED:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(path, dtype=_XYZ_ROW, comments="#", ndmin=1, encoding="utf-8-sig")
        except (ValueError, OverflowError):
            pass
        else:
            if np.isfinite(rows["xyz"]).all():
                return LabeledPointCloud(rows["xyz"].copy(), rows["label"].copy())  # contiguous, not views of rows
    pts, labels = [], []
    for ln, line in text_lines(text):
        parts = line.split()
        if len(parts) != 4:
            raise SensorError(f"{path}:{ln}: expected 'x y z label_id'")
        try:
            pts.append([float(parts[0]), float(parts[1]), float(parts[2])])
            labels.append(int(parts[3]))
            if not -(2**63) <= labels[-1] < 2**63:
                raise ValueError(f"label {labels[-1]} does not fit in int64")
            if not all(map(math.isfinite, pts[-1])):
                raise ValueError(f"coordinates must be finite, got {line!r}")
        except ValueError as exc:
            raise SensorError(f"{path}:{ln}: {exc}") from None
    return LabeledPointCloud(np.array(pts).reshape(-1, 3), np.array(labels, dtype=np.int64))

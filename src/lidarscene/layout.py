"""Scene layouts: labeled semantic primitives, a line-oriented DSL and a
procedural desk-scale scene generator.

A layout is the unified conditional representation: an ordered list of
simple labeled solids (cuboid, ellipsoid, plane) that carries the coarse
semantic and geometric structure of a scene.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

SHAPES = ("cuboid", "ellipsoid", "plane")


class LayoutError(ValueError):
    """Parse or consistency error. ``parse_layout`` puts ``line N: `` in front
    of a line's message and ``load_layout`` puts the file's path in front of that."""


def _require_finite(obj, *fields):
    """Raise LayoutError naming the first of ``fields`` that holds a NaN or inf,
    which every later comparison would let through. ``yaw`` is one number,
    every other field three."""
    for name in fields:
        value = getattr(obj, name)
        if name != "yaw" and np.shape(value) != (3,):
            raise LayoutError(f"{type(obj).__name__} {name} must be three numbers, got {value}")
        if not all(map(math.isfinite, (value,) if name == "yaw" else value)):
            raise LayoutError(f"{type(obj).__name__} {name} must be finite, got {value}")


@dataclass(frozen=True)
class SemanticLabel:
    """A palette entry. Its id is its position in ``Layout.palette``; its
    name is one printable token without ``#`` and its color three integers
    0-255, as a layout file can hold them."""

    name: str
    color: tuple  # (r, g, b) bytes

    def __post_init__(self):
        name = self.name
        if not (isinstance(name, str) and name.split() == [name] and name.isprintable() and "#" not in name):
            raise LayoutError(f"label name must be one printable token without '#', got {name!r}")
        color = tuple(self.color)
        if len(color) != 3 or not all(isinstance(c, numbers.Integral) and 0 <= c <= 255 for c in color):
            raise LayoutError(f"label color must be three integers 0-255, got {self.color!r}")
        object.__setattr__(self, "color", tuple(map(int, color)))


@dataclass(frozen=True)
class SemanticPrimitive:
    """One labeled solid. Extents are full widths (ellipsoid semi-axes are
    extents/2; a plane is an sx by sy rectangle, sz ignored); yaw rotates
    about +z. Center and extents are stored as tuples of floats and yaw as a
    float, whatever sequences and numbers they were given as, so a layout
    hashes and no caller's list can change it."""

    label: int
    shape: str
    center: tuple  # (x, y, z) meters
    extents: tuple  # (sx, sy, sz) meters
    yaw: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise LayoutError(f"unknown shape {self.shape!r}")
        _require_finite(self, "center", "extents", "yaw")
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        object.__setattr__(self, "extents", tuple(map(float, self.extents)))
        object.__setattr__(self, "yaw", float(self.yaw))
        if not math.isfinite(math.degrees(self.yaw)):  # as a layout file holds it
            raise LayoutError(f"SemanticPrimitive yaw must be finite in degrees, got {self.yaw}")
        sx, sy, sz = self.extents
        used = (sx, sy) if self.shape == "plane" else (sx, sy, sz)
        if any(e <= 0 for e in used):
            raise LayoutError(f"non-positive extent in {self.extents}")


@dataclass(frozen=True)
class Pose:
    """Ego pose: translation plus heading yaw."""

    translation: tuple = (0.0, 0.0, 0.0)
    yaw: float = 0.0

    def __post_init__(self):
        _require_finite(self, "translation", "yaw")


# Label-RGB mapping of the default palette.
DEFAULT_PALETTE = [
    SemanticLabel("ground", (81, 0, 81)),
    SemanticLabel("road", (128, 64, 128)),
    SemanticLabel("building", (70, 70, 70)),
    SemanticLabel("car", (0, 0, 142)),
    SemanticLabel("vegetation", (107, 142, 35)),
]


@dataclass(frozen=True)
class Layout:
    palette: tuple = field(default_factory=lambda: tuple(DEFAULT_PALETTE))
    primitives: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "palette", tuple(self.palette))
        object.__setattr__(self, "primitives", tuple(self.primitives))
        for i, lab in enumerate(self.palette):
            if lab.name in (other.name for other in self.palette[:i]):
                raise LayoutError(f"duplicate label name {lab.name!r}")
        for prim in self.primitives:
            if not (isinstance(prim.label, numbers.Integral) and 0 <= prim.label < len(self.palette)):
                raise LayoutError(f"primitive label id {prim.label} not in palette")


# ---------------------------------------------------------------------------
# DSL
#
# Line-oriented UTF-8, '#' comments. Labels are declared in id order from 0:
#   palette <name> <r> <g> <b>     (color components: integers 0-255)
# Primitives reference labels by name, yaw in degrees:
#   prim <label-name> <cuboid|ellipsoid|plane> <cx> <cy> <cz> <sx> <sy> <sz> <yaw_deg>


def _parse_float(tok):
    try:
        val = float(tok)
    except ValueError:
        raise LayoutError(f"not a number: {tok!r}") from None
    if not math.isfinite(val):
        raise LayoutError(f"non-finite number: {tok!r}")
    return val


def read_text(path, error=ValueError) -> str:
    """Contents of a UTF-8 text file, less a leading byte-order mark; other
    bytes raise ``error`` naming it."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


@contextmanager
def naming(where, error):
    """Put ``where: `` (a path, or ``line N``) in front of the message of an
    ``error`` raised in the block, and raise that same exception on."""
    try:
        yield
    except error as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def text_lines(text):
    """(line number, stripped text) of each line not blank once its ``#`` comment is cut."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def parse_layout(text: str) -> Layout:
    palette = []
    prims = []
    names = {}
    for ln, line in text_lines(text):
        with naming(f"line {ln}", LayoutError):
            parts = line.split()
            kind = parts[0]
            if kind == "palette":
                if len(parts) != 5:
                    raise LayoutError(f"palette needs 4 fields, got {len(parts) - 1}")
                name = parts[1]
                if name in names:
                    raise LayoutError(f"duplicate label name {name!r}")
                for tok in parts[2:5]:
                    if not (tok.isdecimal() and int(tok) <= 255):
                        raise LayoutError(f"color component {tok!r} out of range: need an integer 0-255")
                names[name] = len(palette)
                palette.append(SemanticLabel(name, tuple(map(int, parts[2:5]))))
            elif kind == "prim":
                if len(parts) != 10:
                    raise LayoutError(f"prim needs 9 fields, got {len(parts) - 1}")
                if parts[1] not in names:
                    raise LayoutError(f"unknown label {parts[1]!r}")
                nums = [_parse_float(tok) for tok in parts[3:10]]
                prims.append(SemanticPrimitive(
                    label=names[parts[1]],
                    shape=parts[2],
                    center=tuple(nums[0:3]),
                    extents=tuple(nums[3:6]),
                    yaw=math.radians(nums[6]),
                ))
            else:
                raise LayoutError(f"unknown directive {kind!r}")
    return Layout(palette=tuple(palette), primitives=tuple(prims))


def serialize_layout(layout: Layout) -> str:
    """Canonical DSL text; parse(serialize(L)) recovers L (yaw to ~1 ulp,
    everything else exactly)."""
    lines = ["# layout: palette then primitives"]
    for lab in layout.palette:
        r, g, b = lab.color
        lines.append(f"palette {lab.name} {r} {g} {b}")
    for prim in layout.primitives:
        name = layout.palette[prim.label].name
        cx, cy, cz = prim.center
        sx, sy, sz = prim.extents
        # repr() is the shortest decimal that parses back to the same double;
        # centers/extents round-trip exactly, yaw only to ~1 ulp because it
        # passes through degrees.
        fields = [cx, cy, cz, sx, sy, sz, math.degrees(prim.yaw)]
        lines.append(f"prim {name} {prim.shape} " + " ".join(repr(float(x)) for x in fields))
    return "\n".join(lines) + "\n"


def load_layout(path) -> Layout:
    text = read_text(path, LayoutError)
    with naming(path, LayoutError):
        return parse_layout(text)


def save_layout(path, layout: Layout):
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_layout(layout))


# ---------------------------------------------------------------------------
# Geometry


def rotate_yaw(x, y, yaw):
    """(x, y) turned counterclockwise by ``yaw`` about +z; accepts arrays."""
    c, s = math.cos(yaw), math.sin(yaw)
    return c * x - s * y, s * x + c * y


# ---------------------------------------------------------------------------
# Procedural scene generation


#: Fixed scene geometry in meters: width of the road along +x, clearance between car footprints, y extent.
ROAD_WIDTH = 7.0
CAR_GAP = 1.0
AREA_Y = (-30.0, 30.0)
MAX_TRIES = 200  # placement attempts per primitive


@dataclass(frozen=True)
class SceneParams:
    """Knobs for the random desk-scale scene generator: (min, max) counts and the x extent."""

    car_count: tuple = (2, 6)
    vegetation_count: tuple = (2, 8)
    building_count: tuple = (1, 4)
    area_x: tuple = (-60.0, 60.0)


def _rect_corners(cx, cy, sx, sy, yaw):
    hx, hy = sx / 2.0, sy / 2.0
    dx, dy = rotate_yaw(np.array([hx, hx, -hx, -hx]), np.array([hy, -hy, -hy, hy]), yaw)
    return np.stack([cx + dx, cy + dy], axis=1)


def rects_overlap(a, b):
    """Separating-axis test between two oriented 2D rectangles given as
    4x2 corner arrays (touching edges do not count as overlap)."""
    for rect in (a, b):
        for k in range(4):
            edge = rect[(k + 1) % 4] - rect[k]
            axis = np.array([-edge[1], edge[0]])
            pa = a @ axis
            pb = b @ axis
            if pa.max() <= pb.min() or pb.max() <= pa.min():
                return False
    return True


def _footprint(prim: SemanticPrimitive, gap=0.0):
    return _rect_corners(
        prim.center[0], prim.center[1], prim.extents[0] + gap, prim.extents[1] + gap, prim.yaw
    )


def generate_random_scene(seed: int, params: SceneParams = SceneParams()) -> Layout:
    """Deterministic random scene: ground plane, one road along +x, cars on
    the road with disjoint footprints, vegetation and buildings beside it."""
    rng = np.random.default_rng(seed)
    prims = []
    ax, ay = params.area_x, AREA_Y
    ground = SemanticPrimitive(
        0, "plane", ((ax[0] + ax[1]) / 2, (ay[0] + ay[1]) / 2, 0.0), (ax[1] - ax[0], ay[1] - ay[0], 0.0)
    )
    road = SemanticPrimitive(
        1, "plane", ((ax[0] + ax[1]) / 2, 0.0, 0.01), (ax[1] - ax[0], ROAD_WIDTH, 0.0)
    )
    prims += [ground, road]
    half_road = ROAD_WIDTH / 2.0

    def place(count_range, make_prim, clear_of, gap):
        n = int(rng.integers(count_range[0], count_range[1] + 1))
        placed = []
        for _ in range(n):
            for attempt in range(MAX_TRIES):
                prim = make_prim()
                fp = _footprint(prim, gap)
                if any(rects_overlap(fp, _footprint(q, gap)) for q in placed) or any(
                    rects_overlap(fp, _footprint(q)) for q in clear_of
                ):
                    continue
                placed.append(prim)
                break
            else:
                raise LayoutError("placement retry budget exhausted")
        return placed

    def make_car():
        lane = rng.choice([-1.0, 1.0]) * half_road / 2.0
        x = rng.uniform(ax[0] + 5, ax[1] - 5)
        yaw = (0.0 if lane > 0 else math.pi) + rng.normal(0.0, 0.05)
        length = rng.uniform(4.0, 5.0)
        width = rng.uniform(1.7, 2.0)
        height = rng.uniform(1.4, 1.7)
        return SemanticPrimitive(3, "cuboid", (x, lane, height / 2.0), (length, width, height), yaw)

    def side_y(margin, spread):
        side = rng.choice([-1.0, 1.0])
        return side * rng.uniform(half_road + margin, min(-ay[0], ay[1]) - spread)

    def make_vegetation():
        dia = rng.uniform(2.0, 6.0)
        height = rng.uniform(3.0, 8.0)
        x = rng.uniform(ax[0] + 2, ax[1] - 2)
        return SemanticPrimitive(
            4, "ellipsoid", (x, side_y(1.5, dia / 2.0), height / 2.0), (dia, dia, height)
        )

    def make_building():
        sx = rng.uniform(8.0, 16.0)
        sy = rng.uniform(6.0, 12.0)
        height = rng.uniform(4.0, 10.0)
        x = rng.uniform(ax[0] + sx, ax[1] - sx)
        return SemanticPrimitive(
            2, "cuboid", (x, side_y(2.0, sy / 2.0 + 1.0), height / 2.0), (sx, sy, height)
        )

    cars = place(params.car_count, make_car, [], CAR_GAP)
    # Vegetation and buildings stay clear of the road (and each other).
    buildings = place(params.building_count, make_building, [road], 0.0)
    vegetation = place(params.vegetation_count, make_vegetation, [road] + buildings, 0.0)
    prims += cars + buildings + vegetation
    return Layout(primitives=tuple(prims))

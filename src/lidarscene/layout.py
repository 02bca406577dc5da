"""Scene layouts: labeled semantic primitives, a line-oriented DSL,
editing/cropping operations and a procedural desk-scale scene generator.

A layout is the unified conditional representation: an ordered list of
simple labeled solids (cuboid, ellipsoid, plane) that carries the coarse
semantic and geometric structure of a scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

SHAPES = ("cuboid", "ellipsoid", "plane")


class LayoutError(ValueError):
    """Parse or consistency error; carries a line number when parsing."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SemanticLabel:
    id: int
    name: str
    color: tuple  # (r, g, b) bytes


@dataclass(frozen=True)
class SemanticPrimitive:
    """One labeled solid. Extents are full widths (ellipsoid semi-axes are
    extents/2; a plane is an sx by sy rectangle, sz ignored); yaw rotates
    about +z."""

    label: int
    shape: str
    center: tuple  # (x, y, z) meters
    extents: tuple  # (sx, sy, sz) meters
    yaw: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise LayoutError(f"unknown shape {self.shape!r}")
        sx, sy, sz = self.extents
        used = (sx, sy) if self.shape == "plane" else (sx, sy, sz)
        if any(e <= 0 for e in used):
            raise LayoutError(f"non-positive extent in {self.extents}")


@dataclass(frozen=True)
class Pose:
    """Ego pose: translation plus heading yaw."""

    translation: tuple = (0.0, 0.0, 0.0)
    yaw: float = 0.0


# Label-RGB mapping of the default palette.
DEFAULT_PALETTE = [
    SemanticLabel(0, "ground", (81, 0, 81)),
    SemanticLabel(1, "road", (128, 64, 128)),
    SemanticLabel(2, "building", (70, 70, 70)),
    SemanticLabel(3, "car", (0, 0, 142)),
    SemanticLabel(4, "vegetation", (107, 142, 35)),
]


@dataclass(frozen=True)
class Layout:
    palette: tuple = field(default_factory=lambda: tuple(DEFAULT_PALETTE))
    primitives: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "palette", tuple(self.palette))
        object.__setattr__(self, "primitives", tuple(self.primitives))
        ids = [lab.id for lab in self.palette]
        if len(set(ids)) != len(ids):
            raise LayoutError("duplicate label ids in palette")
        known = set(ids)
        for prim in self.primitives:
            if prim.label not in known:
                raise LayoutError(f"primitive label id {prim.label} not in palette")

    def label_by_name(self, name: str) -> SemanticLabel:
        for lab in self.palette:
            if lab.name == name:
                return lab
        raise LayoutError(f"unknown label name {name!r}")

    def label_by_id(self, lid: int) -> SemanticLabel:
        for lab in self.palette:
            if lab.id == lid:
                return lab
        raise LayoutError(f"unknown label id {lid}")


# ---------------------------------------------------------------------------
# DSL
#
# Line-oriented UTF-8, '#' comments. Labels are declared in id order from 0:
#   palette <name> <r> <g> <b>
# Primitives reference labels by name, yaw in degrees:
#   prim <label-name> <cuboid|ellipsoid|plane> <cx> <cy> <cz> <sx> <sy> <sz> <yaw_deg>


def _parse_float(tok, ln):
    try:
        val = float(tok)
    except ValueError:
        raise LayoutError(f"not a number: {tok!r}", ln) from None
    if not math.isfinite(val):
        raise LayoutError(f"non-finite number: {tok!r}", ln)
    return val


def read_text(path, error=ValueError) -> str:
    """Contents of a UTF-8 text file; other bytes raise ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


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
        parts = line.split()
        kind = parts[0]
        if kind == "palette":
            if len(parts) != 5:
                raise LayoutError(f"palette needs 4 fields, got {len(parts) - 1}", ln)
            name = parts[1]
            if name in names:
                raise LayoutError(f"duplicate label name {name!r}", ln)
            rgb = []
            for tok in parts[2:5]:
                val = int(_parse_float(tok, ln))
                if not 0 <= val <= 255:
                    raise LayoutError(f"color component out of range: {tok}", ln)
                rgb.append(val)
            lab = SemanticLabel(len(palette), name, tuple(rgb))
            names[name] = lab
            palette.append(lab)
        elif kind == "prim":
            if len(parts) != 10:
                raise LayoutError(f"prim needs 9 fields, got {len(parts) - 1}", ln)
            if parts[1] not in names:
                raise LayoutError(f"unknown label {parts[1]!r}", ln)
            nums = [_parse_float(tok, ln) for tok in parts[3:10]]
            try:
                prim = SemanticPrimitive(
                    label=names[parts[1]].id,
                    shape=parts[2],
                    center=tuple(nums[0:3]),
                    extents=tuple(nums[3:6]),
                    yaw=math.radians(nums[6]),
                )
            except LayoutError as e:
                raise LayoutError(str(e), ln) from None
            prims.append(prim)
        else:
            raise LayoutError(f"unknown directive {kind!r}", ln)
    return Layout(palette=tuple(palette), primitives=tuple(prims))


def serialize_layout(layout: Layout) -> str:
    """Canonical DSL text; parse(serialize(L)) recovers L (yaw to ~1 ulp,
    everything else exactly)."""
    lines = ["# layout: palette then primitives"]
    for lab in sorted(layout.palette, key=lambda l: l.id):
        r, g, b = lab.color
        lines.append(f"palette {lab.name} {r} {g} {b}")
    for prim in layout.primitives:
        name = layout.label_by_id(prim.label).name
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
    try:
        return parse_layout(text)
    except LayoutError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def save_layout(path, layout: Layout):
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_layout(layout))


# ---------------------------------------------------------------------------
# Editing and cropping


def rotate_yaw(x, y, yaw):
    """(x, y) turned counterclockwise by ``yaw`` about +z; accepts arrays."""
    c, s = math.cos(yaw), math.sin(yaw)
    return c * x - s * y, s * x + c * y


def world_to_ego(point, pose: Pose):
    """Map a world point into the ego frame of `pose`."""
    px, py, pz = pose.translation
    dx, dy, dz = point[0] - px, point[1] - py, point[2] - pz
    return (*rotate_yaw(dx, dy, -pose.yaw), dz)


#: Half sizes of the ego-frame window ``crop_local`` keeps, in meters.
CROP_HALF_X, CROP_HALF_Y = 80.0, 20.0


def crop_local(layout: Layout, pose: Pose) -> Layout:
    """Transform primitives into the ego frame and keep those whose center
    lies inside the window |x| <= CROP_HALF_X, |y| <= CROP_HALF_Y."""
    kept = []
    for prim in layout.primitives:
        ex, ey, ez = world_to_ego(prim.center, pose)
        if abs(ex) <= CROP_HALF_X and abs(ey) <= CROP_HALF_Y:
            kept.append(replace(prim, center=(ex, ey, ez), yaw=prim.yaw - pose.yaw))
    return Layout(palette=layout.palette, primitives=tuple(kept))


def remove_label(layout: Layout, label_id: int) -> Layout:
    """Non-destructive filter: ``layout`` without the primitives of ``label_id``."""
    return Layout(layout.palette, tuple(p for p in layout.primitives if p.label != label_id))


def add_primitive(layout: Layout, prim: SemanticPrimitive) -> Layout:
    return Layout(palette=layout.palette, primitives=layout.primitives + (prim,))


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
    c, s = math.cos(yaw), math.sin(yaw)
    hx, hy = sx / 2.0, sy / 2.0
    return np.array(
        [
            (cx + c * dx - s * dy, cy + s * dx + c * dy)
            for dx, dy in ((hx, hy), (hx, -hy), (-hx, -hy), (-hx, hy))
        ]
    )


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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarscene import layout as lo
from lidarscene.layout import (
    DEFAULT_PALETTE,
    Layout,
    LayoutError,
    Pose,
    SceneParams,
    SemanticPrimitive,
    add_primitive,
    crop_local,
    generate_random_scene,
    parse_layout,
    rects_overlap,
    remove_label,
    serialize_layout,
    world_to_ego,
)

EXAMPLE = """
# a tiny scene
palette ground 81 0 81
palette road 128 64 128
palette car 0 0 142
prim ground plane 0 0 0 100 100 0 0
prim road plane 0 0 0.01 100 7 0 0
prim car cuboid 5 1.75 0.75 4.5 1.8 1.5 90
"""


def test_parse_example_counts_and_ids():
    lay = parse_layout(EXAMPLE)
    assert [lab.name for lab in lay.palette] == ["ground", "road", "car"]
    assert [lab.id for lab in lay.palette] == [0, 1, 2]
    assert len(lay.primitives) == 3
    car = lay.primitives[2]
    assert car.label == 2
    assert car.yaw == pytest.approx(math.pi / 2)
    assert car.extents == (4.5, 1.8, 1.5)


def test_default_palette_colors():
    by_name = {lab.name: lab.color for lab in DEFAULT_PALETTE}
    assert by_name == {
        "ground": (81, 0, 81),
        "road": (128, 64, 128),
        "building": (70, 70, 70),
        "car": (0, 0, 142),
        "vegetation": (107, 142, 35),
    }


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("palette ground 81 0", "palette needs 4 fields"),
        ("palette a 0 0 0\npalette a 0 0 0", "duplicate label name"),
        ("palette a 0 0 300", "out of range"),
        ("prim ghost cuboid 0 0 0 1 1 1 0", "unknown label"),
        ("palette a 0 0 0\nprim a torus 0 0 0 1 1 1 0", "unknown shape"),
        ("palette a 0 0 0\nprim a cuboid 0 0 0 1 1 1", "prim needs 9 fields"),
        ("palette a 0 0 0\nprim a cuboid 0 0 0 1 x 1 0", "not a number"),
        ("palette a 0 0 0\nprim a cuboid 0 0 0 1 -1 1 0", "non-positive extent"),
        ("frobnicate", "unknown directive"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(LayoutError, match=fragment) as exc:
        parse_layout(text)
    assert exc.value.line is not None


def assert_layouts_close(a, b):
    assert a.palette == b.palette
    assert len(a.primitives) == len(b.primitives)
    for pa, pb in zip(a.primitives, b.primitives):
        assert (pa.label, pa.shape) == (pb.label, pb.shape)
        assert pa.center == pb.center
        assert pa.extents == pb.extents
        # yaw passes through degrees in the DSL, exact only to ~1 ulp
        assert pa.yaw == pytest.approx(pb.yaw, rel=1e-15, abs=1e-15)


def test_serialize_parse_roundtrip_identity():
    lay = generate_random_scene(7)
    assert_layouts_close(parse_layout(serialize_layout(lay)), lay)


@settings(max_examples=50, deadline=None)
@given(
    cx=st.floats(-1e3, 1e3),
    sx=st.floats(0.01, 100.0),
    yaw_deg=st.floats(-720.0, 720.0),
    shape=st.sampled_from(["cuboid", "ellipsoid", "plane"]),
)
def test_roundtrip_property(cx, sx, yaw_deg, shape):
    prim = SemanticPrimitive(0, shape, (cx, 0.0, 1.0), (sx, 2.0, 3.0), math.radians(yaw_deg))
    lay = Layout(primitives=(prim,))
    again = parse_layout(serialize_layout(lay))
    back = again.primitives[0]
    assert back.shape == shape
    np.testing.assert_allclose(back.center, prim.center, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(back.extents, prim.extents, rtol=1e-8)
    np.testing.assert_allclose(back.yaw, prim.yaw, rtol=1e-8, atol=1e-12)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EXTENT = st.floats(1e-3, 1e4)


@st.composite
def _layouts(draw):
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True), min_size=1, max_size=6, unique=True))
    rgb = st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    palette = tuple(lo.SemanticLabel(i, name, draw(rgb)) for i, name in enumerate(names))
    prim = st.builds(
        SemanticPrimitive,
        label=st.integers(0, len(names) - 1),
        shape=st.sampled_from(sorted(lo.SHAPES)),
        center=st.tuples(_FINITE, _FINITE, _FINITE),
        extents=st.tuples(_EXTENT, _EXTENT, _EXTENT),
        yaw=st.floats(-10.0, 10.0),
    )
    return Layout(palette, tuple(draw(st.lists(prim, max_size=8))))


@settings(max_examples=60, deadline=None)
@given(lay=_layouts())
def test_parse_serialize_roundtrip_property(lay):
    assert_layouts_close(parse_layout(serialize_layout(lay)), lay)


def test_layout_rejects_unknown_label():
    with pytest.raises(LayoutError):
        Layout(primitives=(SemanticPrimitive(99, "cuboid", (0, 0, 0), (1, 1, 1)),))


def test_plane_ignores_sz():
    prim = SemanticPrimitive(0, "plane", (0, 0, 0), (1.0, 1.0, 0.0))
    assert prim.extents[2] == 0.0


def test_world_to_ego_pure_translation():
    pose = Pose((10.0, -5.0, 1.0), 0.0)
    np.testing.assert_allclose(world_to_ego((12.0, -5.0, 3.0), pose), (2.0, 0.0, 2.0), atol=1e-12)


def test_world_to_ego_rotation():
    pose = Pose((0.0, 0.0, 0.0), math.pi / 2)
    # A point ahead of a pose facing +y is on its +x axis.
    np.testing.assert_allclose(world_to_ego((0.0, 5.0, 0.0), pose), (5.0, 0.0, 0.0), atol=1e-12)


def test_crop_local_keeps_and_transforms():
    lay = Layout(
        primitives=(
            SemanticPrimitive(3, "cuboid", (10.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.3),
            SemanticPrimitive(3, "cuboid", (500.0, 0.0, 0.75), (4.0, 2.0, 1.5)),
        )
    )
    pose = Pose((5.0, 0.0, 0.0), 0.0)
    cropped = crop_local(lay, pose)
    assert len(cropped.primitives) == 1
    np.testing.assert_allclose(cropped.primitives[0].center, (5.0, 0.0, 0.75))


def test_crop_local_rotated_pose_adjusts_yaw():
    prim = SemanticPrimitive(3, "cuboid", (0.0, 10.0, 0.0), (4.0, 2.0, 1.5), math.pi / 2)
    cropped = crop_local(Layout(primitives=(prim,)), Pose((0.0, 0.0, 0.0), math.pi / 2))
    out = cropped.primitives[0]
    np.testing.assert_allclose(out.center, (10.0, 0.0, 0.0), atol=1e-12)
    assert out.yaw == pytest.approx(0.0)


def test_remove_and_add():
    lay = generate_random_scene(11)
    no_cars = remove_label(lay, 3)
    assert all(p.label != 3 for p in no_cars.primitives)
    assert len(lay.primitives) - len(no_cars.primitives) >= 2
    prim = SemanticPrimitive(3, "cuboid", (1, 2, 0.75), (4, 2, 1.5))
    grown = add_primitive(no_cars, prim)
    assert grown.primitives[-1] == prim
    # originals untouched (non-destructive editing)
    assert len(lay.primitives) != len(no_cars.primitives)


def test_rects_overlap_cases():
    a = lo._rect_corners(0, 0, 2, 2, 0.0)
    assert rects_overlap(a, lo._rect_corners(1.5, 0, 2, 2, 0.0))
    assert not rects_overlap(a, lo._rect_corners(5.0, 0, 2, 2, 0.0))
    # touching edges do not count
    assert not rects_overlap(a, lo._rect_corners(2.0, 0, 2, 2, 0.0))
    # rotated case that only a SAT test catches
    assert not rects_overlap(a, lo._rect_corners(2.2, 2.2, 2, 2, math.pi / 4))


def test_generate_random_scene_deterministic():
    assert generate_random_scene(42) == generate_random_scene(42)
    assert generate_random_scene(42) != generate_random_scene(43)


def test_generate_random_scene_structure():
    params = SceneParams()
    lay = generate_random_scene(3, params)
    by_label = {}
    for p in lay.primitives:
        by_label.setdefault(p.label, []).append(p)
    assert len(by_label[0]) == 1 and by_label[0][0].shape == "plane"
    road = by_label[1][0]
    assert road.extents[1] == pytest.approx(lo.ROAD_WIDTH)
    cars = by_label[3]
    assert params.car_count[0] <= len(cars) <= params.car_count[1]
    half_road = lo.ROAD_WIDTH / 2.0
    for car in cars:
        assert abs(car.center[1]) < half_road  # on the road
        # heading roughly along the road, either direction
        assert min(abs(car.yaw), abs(abs(car.yaw) - math.pi)) < 0.25
    # car footprints pairwise disjoint
    fps = [lo._footprint(c) for c in cars]
    for i in range(len(fps)):
        for j in range(i + 1, len(fps)):
            assert not rects_overlap(fps[i], fps[j])
    # off-road stuff is off the road
    for p in by_label.get(2, []) + by_label.get(4, []):
        assert not rects_overlap(lo._footprint(p), lo._footprint(road))


def test_save_load(tmp_path):
    lay = generate_random_scene(5)
    path = tmp_path / "scene.layout"
    lo.save_layout(path, lay)
    assert_layouts_close(lo.load_layout(path), lay)

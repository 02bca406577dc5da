import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lidarscene import layout as lo, raycast
from lidarscene.layout import (
    DEFAULT_PALETTE,
    Layout,
    LayoutError,
    Pose,
    SceneParams,
    SemanticLabel,
    SemanticPrimitive,
    generate_random_scene,
    parse_layout,
    rects_overlap,
    serialize_layout,
)
from lidarscene.sensor import SensorSpec

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
        ("palette a 0 0 0\npalette b 12.7 255.9 0", "^line 2: color component '12.7' out of range: need an integer 0-255$"),
        ("palette a 0 1e2 0", "color component '1e2' out of range"),
        ("palette a 0 0 -1", "color component '-1' out of range"),
        ("palette a 0 x 0", "color component 'x' out of range"),
        ("palette a 0 0 0\nprim a cuboid 0 0 nan 1 1 1 0", "non-finite number: 'nan'"),
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
    last = text.count("\n") + 1  # every case's bad line is its last
    assert str(exc.value).startswith(f"line {last}: ")


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
    palette = tuple(lo.SemanticLabel(name, draw(rgb)) for name in names)
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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Layout(palette=(SemanticLabel("a", (0, 0, 0)), SemanticLabel("a", (1, 1, 1)))), "duplicate label name 'a'"),
        (lambda: SemanticLabel("parked car", (0, 0, 142)), "label name must be one printable token without '#', got 'parked car'"),
        (lambda: SemanticLabel("car#2", (0, 0, 142)), "label name must be one printable token without '#', got 'car#2'"),
        (lambda: SemanticLabel("", (0, 0, 142)), "label name must be one printable token without '#', got ''"),
        (lambda: SemanticLabel("car\ud800", (0, 0, 142)), "label name must be one printable token"),
        (lambda: SemanticLabel("car", (0, 0, 300)), re.escape("label color must be three integers 0-255, got (0, 0, 300)")),
        (lambda: SemanticLabel("car", (0, 0, 1.5)), re.escape("label color must be three integers 0-255, got (0, 0, 1.5)")),
        (lambda: SemanticLabel("car", (0, 0)), re.escape("label color must be three integers 0-255, got (0, 0)")),
        (lambda: SemanticPrimitive(0, "cuboid", (0, 0, 0), (1, 1, 1), 1e307), "yaw must be finite in degrees, got 1e\\+307"),
    ],
    ids=["duplicate-name", "name-with-space", "name-with-hash", "empty-name", "lone-surrogate", "color-300", "color-1.5", "two-colors", "yaw-1e307"],
)
def test_what_a_layout_file_cannot_hold_is_refused_when_built(make, message):
    # Each of these used to be saved by save_layout and then refused by load_layout.
    with pytest.raises(LayoutError, match=message):
        make()


def test_palette_colors_are_stored_as_python_ints():
    lab = SemanticLabel("car", np.array([0, 0, 142], dtype=np.uint8))
    assert lab.color == (0, 0, 142) and all(type(c) is int for c in lab.color)


# Every code point, lone surrogates included: the label's own check decides.
_ANY_NAME = st.text(st.characters(blacklist_categories=()), min_size=1, max_size=8)


def _built(make, *args):
    """``make(*args)``, or None where the types refuse it."""
    try:
        return make(*args)
    except LayoutError:
        return None


@settings(max_examples=100, deadline=None)
@given(names=st.lists(_ANY_NAME, min_size=1, max_size=6, unique=True), yaws=st.lists(_FINITE, max_size=4))
def test_every_layout_the_types_accept_reloads_from_its_file(tmp_path_factory, names, yaws):
    palette = [lab for i, name in enumerate(names) if (lab := _built(SemanticLabel, name, (i, 7, 255)))]
    assume(palette)
    prims = [prim for k, yaw in enumerate(yaws)
             if (prim := _built(SemanticPrimitive, k % len(palette), "ellipsoid", (1.0, -2.5, 0.5), (1.0, 2.0, 3.0), yaw))]
    lay = Layout(palette, prims)
    path = tmp_path_factory.mktemp("layout") / "scene.layout"
    lo.save_layout(path, lay)
    assert_layouts_close(lo.load_layout(path), lay)


def test_layout_rejects_unknown_label():
    with pytest.raises(LayoutError):
        Layout(primitives=(SemanticPrimitive(99, "cuboid", (0, 0, 0), (1, 1, 1)),))


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "field, make",
    [
        ("center", lambda x: SemanticPrimitive(3, "cuboid", (10.0, x, 1.0), (4.0, 2.0, 1.5))),
        ("extents", lambda x: SemanticPrimitive(3, "cuboid", (10.0, 0.0, 1.0), (4.0, x, 1.5))),
        ("yaw", lambda x: SemanticPrimitive(3, "cuboid", (10.0, 0.0, 1.0), (4.0, 2.0, 1.5), x)),
        ("translation", lambda x: Pose((0.0, 0.0, x), 0.0)),
        ("yaw", lambda x: Pose((0.0, 0.0, 0.0), x)),
    ],
    ids=["primitive-center", "primitive-extents", "primitive-yaw", "pose-translation", "pose-yaw"],
)
def test_non_finite_primitive_or_pose_is_rejected(field, make, value):
    # One cuboid with an inf extent beside a ground plane rendered depth 0 on every pixel.
    with pytest.raises(LayoutError, match=f"{field} must be finite"):
        make(value)


@pytest.mark.parametrize("xyz", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)], ids=["2-numbers", "4-numbers"])
@pytest.mark.parametrize(
    "field, make",
    [
        ("center", lambda v: SemanticPrimitive(0, "cuboid", v, (1.0, 1.0, 1.0))),
        ("extents", lambda v: SemanticPrimitive(0, "cuboid", (0.0, 0.0, 1.0), v)),
        ("extents", lambda v: SemanticPrimitive(0, "plane", (0.0, 0.0, 0.0), v)),
        ("translation", lambda v: Pose(v)),
    ],
    ids=["primitive-center", "primitive-extents", "plane-extents", "pose-translation"],
)
def test_primitive_or_pose_vector_must_be_three_numbers(field, make, xyz):
    # A 2-number center used to construct and then fail in meshing with a
    # bare numpy broadcast error; a 2-number extents failed to unpack.
    with pytest.raises(LayoutError, match=re.escape(f"{field} must be three numbers, got {xyz}")):
        make(xyz)


def test_plane_ignores_sz():
    prim = SemanticPrimitive(0, "plane", (0, 0, 0), (1.0, 1.0, 0.0))
    assert prim.extents[2] == 0.0


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


def test_palette_color_keeps_integer_components():
    assert parse_layout("palette car 0 255 007").palette[0].color == (0, 255, 7)


def test_layout_rejects_duplicate_ids_and_unknown_lookups():
    with pytest.raises(LayoutError, match="^primitive label id 99 not in palette$"):
        Layout(primitives=(SemanticPrimitive(99, "cuboid", (0, 0, 0), (1, 1, 1)),))


def test_generate_random_scene_runs_out_of_placement_budget():
    # 20 cars do not fit on a 12 m stretch of road
    with pytest.raises(LayoutError, match="^placement retry budget exhausted$"):
        generate_random_scene(0, SceneParams(area_x=(-6.0, 6.0), car_count=(20, 20)))


@pytest.mark.parametrize("vector", [list, np.array], ids=["list", "ndarray"])
def test_layout_from_lists_or_arrays_hashes_and_equals_the_tuple_layout(vector):
    # Rendering memoizes the mesh by layout, so every layout must hash; a
    # list center used to make it unhashable.
    def scene(vec):
        palette = [SemanticLabel("ground", vec([81, 0, 81])), SemanticLabel("car", vec([0, 0, 142]))]
        prims = [
            SemanticPrimitive(0, "plane", vec([0, 0, 0]), vec([200.0, 200.0, 0.0])),
            SemanticPrimitive(1, "cuboid", vec([10.0, 2.0, 0.75]), vec([4.0, 1.8, 1.5]), np.float64(0.3)),
        ]
        return Layout(palette, prims)

    lay, ref = scene(vector), scene(tuple)
    assert hash(lay) == hash(ref) and lay == ref
    prim = lay.primitives[1]
    assert type(prim.center) is type(prim.extents) is type(lay.palette[0].color) is tuple
    assert all(type(x) is float for x in (*prim.center, *prim.extents, prim.yaw))
    assert serialize_layout(lay) == serialize_layout(ref)
    assert_layouts_close(parse_layout(serialize_layout(lay)), ref)
    spec = SensorSpec(rows=8, cols=32)
    raycast._scene.cache_clear()
    img, cos = raycast.render_conditional(lay, spec, return_incidence=True)
    raycast._scene.cache_clear()
    img_ref, cos_ref = raycast.render_conditional(ref, spec, return_incidence=True)
    np.testing.assert_array_equal(img.data, img_ref.data)
    np.testing.assert_array_equal(cos, cos_ref)


def test_changing_the_callers_list_leaves_the_primitive_as_built():
    center = [1.0, 2.0, 3.0]
    prim = SemanticPrimitive(0, "cuboid", center, (1.0, 1.0, 1.0))
    center[0] = 9.0
    assert prim.center == (1.0, 2.0, 3.0)

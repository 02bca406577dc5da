import math

import numpy as np
import pytest

from lidarscene import _kernels, raycast
from lidarscene.layout import Layout, Pose, SemanticPrimitive, generate_random_scene
from lidarscene.meshing import TriangleMesh, mesh_layout, mesh_primitive
from lidarscene.raycast import (
    BVH,
    RaydropParams,
    apply_raydrop,
    build_bvh,
    intersect_brute,
    render_conditional,
    render_point_cloud,
    surface_sample,
)
from lidarscene.sensor import SensorSpec, angles_to_direction


@pytest.fixture(scope="module")
def scene_mesh():
    return mesh_layout(generate_random_scene(1), tessellation=16)


@pytest.fixture(scope="module")
def scene_bvh(scene_mesh):
    return build_bvh(scene_mesh)


def random_rays(n, seed):
    rng = np.random.default_rng(seed)
    origins = rng.uniform([-60, -30, 0.2], [60, 30, 5.0], (n, 3))
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return origins, dirs


def cast(mesh, origin, yaw, t_max):
    """One horizontal ray through the BVH traversal: (t, triangle, label) of
    its nearest hit, or None on a miss."""
    t, tri = _kernels.render_rays([origin], [angles_to_direction(yaw, 0.0)], t_max, build_bvh(mesh))
    if tri[0] < 0:
        return None
    return float(t[0]), int(tri[0]), int(mesh.triangle_labels[tri[0]])


def test_single_triangle_hit():
    mesh = TriangleMesh([[0, -1, -1], [0, 1, -1], [0, 0, 1]], [[0, 1, 2]], [2])
    hit = cast(mesh, (-3.0, 0.0, 0.0), 0.0, 100.0)
    assert hit is not None
    t, triangle, label = hit
    assert t == pytest.approx(3.0)
    assert triangle == 0 and label == 2


def test_two_sided_intersection():
    mesh = TriangleMesh([[0, -1, -1], [0, 1, -1], [0, 0, 1]], [[0, 1, 2]], [0])
    # hit from both sides regardless of winding
    assert cast(mesh, (-3.0, 0.0, 0.0), 0.0, 10.0) is not None
    assert cast(mesh, (3.0, 0.0, 0.0), math.pi, 10.0) is not None


def test_miss_and_t_max():
    mesh = TriangleMesh([[5, -1, -1], [5, 1, -1], [5, 0, 1]], [[0, 1, 2]], [0])
    assert cast(mesh, (0.0, 0.0, 0.0), math.pi / 2, 100.0) is None
    assert cast(mesh, (0.0, 0.0, 0.0), 0.0, 4.0) is None
    assert cast(mesh, (0.0, 0.0, 0.0), 0.0, 6.0) is not None


def test_self_hit_epsilon():
    # origin exactly on the triangle: no zero-distance hit
    mesh = TriangleMesh([[0, -1, -1], [0, 1, -1], [0, 0, 1]], [[0, 1, 2]], [0])
    assert cast(mesh, (0.0, 0.0, 0.0), 0.0, 100.0) is None


def test_coincident_triangle_tie_prefers_lower_index():
    tri = np.array([[2.0, -1, -1], [2.0, 1, -1], [2.0, 0, 1]])
    verts = np.vstack([tri, tri])
    mesh = TriangleMesh(verts, [[3, 4, 5], [0, 1, 2]], [7, 8])
    depth, triangle, label = cast(mesh, (0.0, 0.0, 0.0), 0.0, 10.0)
    assert triangle == 0 and label == 7
    t, i = intersect_brute(mesh, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 10.0)
    assert i[0] == 0
    assert abs(t[0] - depth) < 1e-9


@pytest.mark.parametrize(
    "offsets, winner",
    [((0.5e-9, 0.0), 0), ((2e-9, 0.0), 1), ((1.5e-9, 0.8e-9, 0.0), 1)],
    ids=["inside_window", "outside_window", "window_not_chained"],
)
def test_tie_window_is_anchored_at_the_minimum(offsets, winner):
    # triangle k lies in the plane x = 2 + offsets[k]; of the hits within
    # TIE_EPS of the nearest one, the lowest index wins
    verts = [[2.0 + dx, y, z] for dx in offsets for y, z in ((-1.0, -1.0), (1.0, -1.0), (0.0, 1.0))]
    mesh = TriangleMesh(verts, np.arange(len(verts)).reshape(-1, 3), np.zeros(len(offsets)))
    origin, direction = [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]
    t, i = _kernels.render_rays(origin, direction, 10.0, build_bvh(mesh))
    t_brute, i_brute = intersect_brute(mesh, origin, direction, 10.0)
    assert i[0] == i_brute[0] == winner
    assert t[0] == t_brute[0] == pytest.approx(2.0 + offsets[winner], abs=1e-12)


def test_bvh_structure(scene_mesh, scene_bvh):
    bvh = scene_bvh
    n = scene_mesh.num_triangles
    assert sorted(bvh.perm.tolist()) == list(range(n))
    leaves = bvh.count > 0
    assert bvh.count[leaves].max() <= raycast.LEAF_SIZE
    assert bvh.count[leaves].sum() == n
    # children of internal nodes are valid and each triangle's AABB is
    # inside every leaf box containing it
    internal = ~leaves
    assert (bvh.left[internal] >= 0).all() and (bvh.right[internal] >= 0).all()
    tri_min = np.minimum(
        np.minimum(bvh.tri_v0, bvh.tri_v0 + bvh.tri_e1), bvh.tri_v0 + bvh.tri_e2
    )
    tri_max = np.maximum(
        np.maximum(bvh.tri_v0, bvh.tri_v0 + bvh.tri_e1), bvh.tri_v0 + bvh.tri_e2
    )
    for node in np.flatnonzero(leaves):
        idx = bvh.perm[bvh.start[node] : bvh.start[node] + bvh.count[node]]
        assert (tri_min[idx] >= bvh.nodes_min[node] - 1e-9).all()
        assert (tri_max[idx] <= bvh.nodes_max[node] + 1e-9).all()


def test_bvh_matches_brute_force(scene_mesh, scene_bvh):
    """The central oracle: BVH traversal must agree with the all-triangle
    scan on thousands of random rays, traced in one call: indices exactly,
    t within 1e-9."""
    origins, dirs = random_rays(4000, 2)
    bt, bi = intersect_brute(scene_mesh, origins, dirs, 200.0)
    kt, ki = _kernels.render_rays(origins, dirs, 200.0, scene_bvh)
    np.testing.assert_array_equal(ki, bi)
    hit = bi >= 0
    assert hit.sum() > 1000
    np.testing.assert_allclose(kt[hit], bt[hit], rtol=0, atol=1e-9)
    assert (kt[~hit] == -1.0).all()


def test_axis_parallel_ray_on_slab_plane_is_not_culled():
    # The ray runs in the plane y = 0, which is the box's min-y face: the
    # y slab is 0 * inf = NaN and must not cull the hit on the triangle edge.
    mesh = TriangleMesh([[0, 0, -1], [0, 1, -1], [0, 0, 1]], [[0, 1, 2]], [4])
    bvh = build_bvh(mesh)
    origins, dirs = [[-3.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]
    bt, bi = intersect_brute(mesh, origins, dirs, 10.0)
    kt, ki = _kernels.render_rays(origins, dirs, 10.0, bvh)
    assert bi[0] == 0 and ki[0] == 0
    assert kt[0] == bt[0] == pytest.approx(3.0)
    # parallel to a face of the box and outside it: culled, and a miss
    kt, ki = _kernels.render_rays([[-3.0, -0.5, 0.0]], dirs, 10.0, bvh)
    assert ki[0] == -1 and kt[0] == -1.0


def test_render_rays_empty_inputs():
    empty = build_bvh(TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), []))
    t, i = _kernels.render_rays([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 10.0, empty)
    assert t.tolist() == [-1.0] and i.tolist() == [-1]
    mesh = mesh_primitive(SemanticPrimitive(0, "cuboid", (5.0, 0, 0), (1, 1, 1)))
    t, i = _kernels.render_rays(np.empty((0, 3)), np.empty((0, 3)), 10.0, build_bvh(mesh))
    assert t.shape == i.shape == (0,)


def test_render_rays_kernel_matches_brute(scene_mesh, scene_bvh):
    spec = SensorSpec(rows=16, cols=64, max_range=80.0)
    origins, dirs = raycast._sensor_rays(spec, Pose())
    kt, ki = _kernels.render_rays(origins, dirs, spec.max_range, scene_bvh)
    bt, bi = intersect_brute(scene_mesh, origins, dirs, spec.max_range)
    np.testing.assert_array_equal(ki, bi)
    hit = ki >= 0
    np.testing.assert_allclose(kt[hit], bt[hit], rtol=0, atol=1e-9)


def test_render_conditional_basic():
    lay = Layout(
        primitives=(
            SemanticPrimitive(0, "plane", (0, 0, 0), (200.0, 200.0, 0.0)),
            SemanticPrimitive(3, "cuboid", (10.0, 0.0, 0.75), (4.0, 2.0, 1.5)),
        )
    )
    spec = SensorSpec(rows=32, cols=256)
    img = render_conditional(lay, spec)
    assert img.data.shape == (2, 32, 256)
    assert (img.depth >= 0).all()
    assert (img.depth <= spec.max_range).all()
    labels = np.unique(img.semantic[img.depth > 0])
    assert set(labels.astype(int)) == {0, 3}
    # the car sits dead ahead: center column at a row looking slightly down
    col = spec.cols // 2
    car_cols = np.unique(np.nonzero(img.semantic == 3)[1])
    assert col in car_cols or col - 1 in car_cols
    # miss pixels carry (0, 0)
    miss = img.depth == 0
    assert (img.semantic[miss] == 0).all()


def test_render_conditional_nearest_wins():
    # a near wall should completely hide a far wall at equal height
    lay = Layout(
        primitives=(
            SemanticPrimitive(2, "cuboid", (10.0, 0.0, 2.0), (0.5, 40.0, 4.0)),
            SemanticPrimitive(3, "cuboid", (20.0, 0.0, 2.0), (0.5, 40.0, 4.0)),
        )
    )
    spec = SensorSpec(rows=16, cols=128)
    img = render_conditional(lay, spec)
    forward = img.semantic[:, spec.cols // 2 - 4 : spec.cols // 2 + 4]
    fdepth = img.depth[:, spec.cols // 2 - 4 : spec.cols // 2 + 4]
    assert (forward[fdepth > 0] == 2).all()


def test_render_conditional_pose():
    lay = Layout(primitives=(SemanticPrimitive(3, "cuboid", (0.0, 10.0, 1.0), (4.0, 2.0, 2.0)),))
    spec = SensorSpec(rows=16, cols=128)
    # facing +y puts the box dead ahead; same image as a box ahead of an
    # identity pose (up to the box's own orientation, symmetric here)
    img_posed = render_conditional(lay, spec, Pose((0.0, 0.0, 0.0), math.pi / 2))
    lay2 = Layout(primitives=(SemanticPrimitive(3, "cuboid", (10.0, 0.0, 1.0), (2.0, 4.0, 2.0)),))
    img_ahead = render_conditional(lay2, spec)
    np.testing.assert_allclose(img_posed.depth, img_ahead.depth, atol=1e-9)


def test_render_translation_origin_height():
    # ground plane directly below: nadir-ish rays must measure origin height
    lay = Layout(primitives=(SemanticPrimitive(0, "plane", (0, 0, 0), (500.0, 500.0, 0.0)),))
    spec = SensorSpec(rows=64, cols=64)
    img = render_conditional(lay, spec)
    hit = img.depth > 0
    assert hit.any()
    # steepest row looks down 24.8 deg: expected slant range h / sin(24.8deg)
    h = spec.origin_height
    row = spec.rows - 1
    import lidarscene.sensor as sn

    _, pitch = sn.pixel_to_angles(0, row, spec)
    expect = h / math.sin(-pitch)
    assert img.depth[row].max() == pytest.approx(expect, rel=1e-6)


def test_render_conditional_matches_brute_force_render():
    """Depth, semantics and incidence of the rendered image equal an
    all-triangle render of the same sensor rays."""
    lay = generate_random_scene(1)
    spec = SensorSpec(rows=8, cols=64)
    pose = Pose((2.0, -3.0, 0.0), 0.4)
    img, cos = render_conditional(lay, spec, pose, tessellation=16, return_incidence=True)
    mesh = mesh_layout(lay, 16)
    origins, dirs = raycast._sensor_rays(spec, pose)
    bt, bi = intersect_brute(mesh, origins, dirs, spec.max_range)
    hit = bi >= 0
    assert hit.any() and not hit.all()
    labels = np.where(hit, mesh.triangle_labels[np.maximum(bi, 0)], 0)
    np.testing.assert_array_equal(img.semantic.ravel(), labels)
    np.testing.assert_array_equal(img.depth.ravel() > 0, hit)
    np.testing.assert_allclose(img.depth.ravel(), np.where(hit, bt, 0.0), rtol=0, atol=1e-9)
    v0 = mesh.vertices[mesh.triangles[bi[hit], 0]]
    n = np.cross(mesh.vertices[mesh.triangles[bi[hit], 1]] - v0, mesh.vertices[mesh.triangles[bi[hit], 2]] - v0)
    expect = np.zeros(len(bi))
    expect[hit] = np.abs(np.sum(dirs[hit] * n, axis=1) / np.linalg.norm(n, axis=1))
    np.testing.assert_allclose(cos.ravel(), expect, rtol=0, atol=1e-9)


def test_empty_scene_renders_empty():
    spec = SensorSpec(rows=4, cols=16)
    img = render_conditional(Layout(), spec)
    assert not img.data.any()


def test_incidence_cosine():
    lay = Layout(primitives=(SemanticPrimitive(2, "cuboid", (10.0, 0.0, 2.0), (0.5, 40.0, 4.0)),))
    spec = SensorSpec(rows=16, cols=256)
    img, cos = render_conditional(lay, spec, return_incidence=True)
    hit = img.depth > 0
    assert ((cos[hit] > 0) & (cos[hit] <= 1.0 + 1e-12)).all()
    assert (cos[~hit] == 0).all()
    # head-on pixel: |cos| near 1 for the wall's +-x faces
    r, c = np.argwhere(hit)[np.abs(np.argwhere(hit) - [8, 128]).sum(1).argmin()]
    assert cos[r, c] > 0.95


def test_surface_sample_density_and_labels():
    mesh = mesh_primitive(SemanticPrimitive(2, "cuboid", (0, 0, 5.0), (4.0, 4.0, 4.0)))
    cloud = surface_sample(mesh, 50.0, seed=3)
    area = mesh.triangle_areas().sum()
    assert len(cloud) == pytest.approx(50.0 * area, rel=0.1)
    assert set(np.unique(cloud.labels)) == {2}
    # all points on the cube surface
    local = cloud.points - [0, 0, 5.0]
    assert np.abs(np.abs(local).max(axis=1) - 2.0).max() < 1e-9


def test_surface_sample_deterministic_and_validated():
    mesh = mesh_primitive(SemanticPrimitive(0, "cuboid", (0, 0, 0), (1, 1, 1)))
    a = surface_sample(mesh, 10.0, seed=5)
    b = surface_sample(mesh, 10.0, seed=5)
    np.testing.assert_array_equal(a.points, b.points)
    with pytest.raises(ValueError):
        surface_sample(mesh, 0.0)


def test_surface_sample_ignores_occlusion():
    # an indoor point is impossible for raycasting but fine for sampling
    inner = SemanticPrimitive(3, "cuboid", (10.0, 0.0, 1.0), (1.0, 1.0, 1.0))
    outer = SemanticPrimitive(2, "cuboid", (10.0, 0.0, 2.0), (8.0, 8.0, 4.0))
    lay = Layout(primitives=(outer, inner))
    cloud = surface_sample(mesh_layout(lay), 20.0, seed=1)
    assert (cloud.labels == 3).any()
    img = render_conditional(lay, SensorSpec(rows=32, cols=256))
    assert not (img.semantic == 3).any()


def test_apply_raydrop_monotone_in_depth():
    spec = SensorSpec(rows=64, cols=512)
    near = np.full((64, 512), 2.0)
    far = np.full((64, 512), 78.0)
    params = RaydropParams()
    from lidarscene.sensor import RangeImage

    def drop_rate(depth):
        img = RangeImage(spec, np.stack([depth, np.ones_like(depth)]))
        out = apply_raydrop(img, params, np.ones_like(depth), seed=11)
        return float((out.depth == 0).mean())

    assert drop_rate(near) < drop_rate(far)
    assert drop_rate(near) == pytest.approx(params.p0 + params.p1 * 2.0 / 80.0, abs=0.01)


def test_apply_raydrop_semantics_kept_and_deterministic():
    spec = SensorSpec(rows=8, cols=32)
    rng = np.random.default_rng(0)
    data = np.stack([rng.uniform(1, 79, (8, 32)), rng.integers(0, 5, (8, 32)).astype(float)])
    from lidarscene.sensor import RangeImage

    img = RangeImage(spec, data)
    a = apply_raydrop(img, RaydropParams(p0=0.5), np.ones_like(img.depth), seed=7)
    b = apply_raydrop(img, RaydropParams(p0=0.5), np.ones_like(img.depth), seed=7)
    c = apply_raydrop(img, RaydropParams(p0=0.5), np.ones_like(img.depth), seed=8)
    np.testing.assert_array_equal(a.data, b.data)
    assert (a.depth != c.depth).any()
    np.testing.assert_array_equal(a.semantic, img.semantic)
    assert (a.depth == 0).any() and (a.depth > 0).any()


def test_apply_raydrop_untouched_misses():
    spec = SensorSpec(rows=4, cols=8)
    from lidarscene.sensor import RangeImage

    img = RangeImage(spec, np.zeros((2, 4, 8)))
    out = apply_raydrop(img, RaydropParams(p0=1.0), np.ones_like(img.depth), seed=0)
    np.testing.assert_array_equal(out.data, img.data)


def test_render_point_cloud_world_frame():
    lay = Layout(primitives=(SemanticPrimitive(0, "plane", (0, 0, 0), (500.0, 500.0, 0.0)),))
    spec = SensorSpec(rows=32, cols=64)
    pose = Pose((5.0, -3.0, 0.0), 0.7)
    cloud = render_point_cloud(lay, spec, pose)
    assert len(cloud) > 0
    # ground points land on z ~ 0 in world coordinates
    np.testing.assert_allclose(cloud.points[:, 2], 0.0, atol=1e-4)

import hashlib
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lidarscene import _kernels, raycast, sensor
from lidarscene.layout import Layout, Pose, SceneParams, SemanticPrimitive, generate_random_scene
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
from lidarscene.sensor import RangeImage, SensorSpec, angles_to_direction


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


#: Both callers of the one ray-triangle test, as (mesh, origins, dirs, t_max) -> (t, triangle).
QUERIES = {
    "render_rays": lambda mesh, origins, dirs, t_max: _kernels.render_rays(origins, dirs, t_max, build_bvh(mesh)),
    "intersect_brute": intersect_brute,
}


def cast(mesh, origin, yaw, t_max):
    """One horizontal ray through the BVH traversal and through the oracle:
    (t, triangle, label) of its nearest hit, or None on a miss. Both must
    give the same answer, bit for bit."""
    hits = {}
    for name, query in QUERIES.items():
        t, tri = query(mesh, [origin], [angles_to_direction(yaw, 0.0)], t_max)
        hits[name] = None if tri[0] < 0 else (float(t[0]), int(tri[0]), int(mesh.triangle_labels[tri[0]]))
    assert hits["render_rays"] == hits["intersect_brute"], hits
    return hits["render_rays"]


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


# Criterion 10's frames: a close side view of 2-4 cars, 28-52 triangles.
C10_PARAMS = SceneParams(area_x=(-12.0, 12.0), car_count=(2, 4), vegetation_count=(0, 0), building_count=(0, 0))
C10_SPEC = SensorSpec(rows=16, cols=128)
C10_POSE = Pose((0.0, -8.0, 2.0), math.pi / 2.0)
# The benchmark's street scene: 1,680 triangles at tessellation 16, seen
# from poses along the road centre line.
STREET_PARAMS = SceneParams(car_count=(6, 6), vegetation_count=(7, 7), building_count=(3, 3))
STREET_POSE_X = range(-36, 37, 8)


@pytest.fixture(scope="module")
def street_mesh():
    return mesh_layout(generate_random_scene(0, STREET_PARAMS), tessellation=16)


def leaf_depths(bvh):
    """Depth of every leaf below the root (node 0)."""
    depth = np.zeros(len(bvh.count), dtype=np.int64)
    for node in range(len(bvh.count)):  # children have higher ids than parents
        if bvh.count[node] == 0:
            depth[bvh.first[node] : bvh.first[node] + 2] = depth[node] + 1
    return depth[bvh.count > 0]


def first_triangles(mesh, k):
    return TriangleMesh(mesh.vertices, mesh.triangles[:k], mesh.triangle_labels[:k])


def recursive_build(mesh, partition_root=True, sah_min=64):
    """The depth-first build that the level-by-level one replaced: its
    triangle permutation and, in preorder, each node's (box, leaf start,
    leaf count), with 0, 0 for an internal node. A node sorts its triangles
    by centroid along its box's widest axis. With more than ``sah_min``
    triangles it splits where A(left) * n_left + A(right) * n_right is
    first least over every split position, A the half surface area of a
    part's box, and otherwise at the median. With ``partition_root`` the
    root's left child instead takes the scene-sized triangles, in index
    order, when some but not all are."""
    v0, e1, e2 = mesh.edges()
    tri_min = np.minimum(np.minimum(v0, v0 + e1), v0 + e2)
    tri_max = np.maximum(np.maximum(v0, v0 + e1), v0 + e2)
    centroids = (tri_min + tri_max) / 2.0
    perm = np.arange(mesh.num_triangles)
    nodes = []

    def half_area(part):
        dx, dy, dz = tri_max[part].max(axis=0) - tri_min[part].min(axis=0)
        return dx * dy + dy * dz + dz * dx

    def build(lo, hi, root=False):
        idx = perm[lo:hi]
        box_min, box_max = tri_min[idx].min(axis=0), tri_max[idx].max(axis=0)
        if hi - lo <= raycast.LEAF_SIZE:
            nodes.append((np.hstack([box_min, box_max]), lo, hi - lo))
            return
        nodes.append((np.hstack([box_min, box_max]), 0, 0))
        big = np.linalg.norm(tri_max[idx] - tri_min[idx], axis=1) > raycast.SCENE_SIZED * np.linalg.norm(box_max - box_min)
        if root and 0 < big.sum() < hi - lo:
            order, mid = np.argsort(~big, kind="stable"), lo + big.sum()
        else:
            order, mid = np.argsort(centroids[idx, np.argmax(box_max - box_min)], kind="stable"), (lo + hi) // 2
            if hi - lo > sah_min:
                part = idx[order]
                costs = [half_area(part[:k]) * k + half_area(part[k:]) * (hi - lo - k) for k in range(1, hi - lo)]
                mid = lo + 1 + int(np.argmin(costs))
        perm[lo:hi] = idx[order]
        build(lo, mid)
        build(mid, hi)

    build(0, mesh.num_triangles, root=partition_root)
    return perm, nodes


def preorder(bvh):
    """(box, leaf start, leaf count) of each node of ``bvh``, depth first."""
    nodes, stack = [], [0]
    while stack:
        node = stack.pop()
        if bvh.count[node] == 0:
            nodes.append((bvh.bounds[:, node], 0, 0))
            stack += [bvh.first[node] + 1, bvh.first[node]]
        else:
            nodes.append((bvh.bounds[:, node], bvh.first[node], bvh.count[node]))
    return nodes


def assert_same_as_recursive_build(mesh, bvh, partition_root=True, sah_min=64):
    perm, nodes = recursive_build(mesh, partition_root, sah_min)
    np.testing.assert_array_equal(bvh.perm, perm)
    assert len(bvh.count) == len(nodes)
    for (box, start, count), (ref_box, ref_start, ref_count) in zip(preorder(bvh), nodes):
        assert (start, count) == (ref_start, ref_count)
        np.testing.assert_array_equal(box, ref_box)


def test_bvh_structure(scene_mesh, street_mesh):
    five = TriangleMesh(np.random.default_rng(3).normal(size=(15, 3)), np.arange(15).reshape(5, 3), np.zeros(5))
    meshes = [
        first_triangles(five, 1),
        five,
        mesh_layout(generate_random_scene(0, C10_PARAMS), tessellation=12),
        first_triangles(street_mesh, 37),  # leaves at depths 1, 4 and 5
        scene_mesh,
        street_mesh,
    ]
    assert [m.num_triangles for m in meshes] == [1, 5, 52, 37, 1420, 1680]
    for mesh in meshes:
        bvh = build_bvh(mesh)
        assert_same_as_recursive_build(mesh, bvh)
        n = mesh.num_triangles
        assert bvh.bounds.shape == (6, len(bvh.count)) and bvh.tris.shape == (9, n)
        assert sorted(bvh.perm.tolist()) == list(range(n))
        leaves = bvh.count > 0
        assert bvh.count[leaves].max() <= raycast.LEAF_SIZE
        assert bvh.count[leaves].sum() == n
        # children of internal nodes are valid, each triangle's AABB is
        # inside every leaf box containing it and every internal box
        # encloses both of its children's boxes
        internal = np.flatnonzero(~leaves)
        assert (bvh.first[internal] > internal).all() and (bvh.first[internal] + 1 < len(bvh.count)).all()
        v0, e1, e2 = bvh.tris[:3], bvh.tris[3:6], bvh.tris[6:]
        tri_min = np.minimum(np.minimum(v0, v0 + e1), v0 + e2)
        tri_max = np.maximum(np.maximum(v0, v0 + e1), v0 + e2)
        for node in np.flatnonzero(leaves):
            idx = bvh.perm[bvh.first[node] : bvh.first[node] + bvh.count[node]]
            assert (tri_min[:, idx] >= bvh.bounds[:3, node, None] - 1e-9).all()
            assert (tri_max[:, idx] <= bvh.bounds[3:, node, None] + 1e-9).all()
        for child in (bvh.first[internal], bvh.first[internal] + 1):
            assert (bvh.bounds[:3, child] >= bvh.bounds[:3, internal]).all()
            assert (bvh.bounds[3:, child] <= bvh.bounds[3:, internal]).all()


def test_bvh_root_splits_off_scene_sized_triangles(street_mesh):
    # The ground and road planes (triangles 0-3) span the street scene; no
    # other triangle's box diagonal reaches a fifth of the scene box's.
    bvh = build_bvh(street_mesh)
    v0, e1, e2 = street_mesh.edges()
    tri_min = np.minimum(np.minimum(v0, v0 + e1), v0 + e2)
    tri_max = np.maximum(np.maximum(v0, v0 + e1), v0 + e2)
    share = np.linalg.norm(tri_max - tri_min, axis=1) / np.linalg.norm(tri_max.max(axis=0) - tri_min.min(axis=0))
    assert (share[:4] > 0.7).all() and (share[4:] < 0.2).all()
    left = bvh.first[0]  # the root's left child
    assert bvh.count[left] == 4
    assert bvh.perm[bvh.first[left] : bvh.first[left] + 4].tolist() == [0, 1, 2, 3]
    assert sorted(bvh.perm[4:].tolist()) == list(range(4, 1680))
    assert_same_as_recursive_build(street_mesh, bvh)
    # Without the planes, or with nothing but planes, the root splits like any other node.
    rest = TriangleMesh(street_mesh.vertices, street_mesh.triangles[4:], street_mesh.triangle_labels[4:])
    planes = first_triangles(street_mesh, 4)
    stacked_planes = TriangleMesh(
        np.vstack([planes.vertices + [0.0, 0.0, dz] for dz in (0.0, 0.5, 1.0)]),
        np.vstack([planes.triangles + k * len(planes.vertices) for k in range(3)]),
        np.tile(planes.triangle_labels, 3),
    )
    for mesh in (rest, planes, stacked_planes):
        assert_same_as_recursive_build(mesh, build_bvh(mesh), partition_root=False)
    assert stacked_planes.num_triangles == 12 and len(build_bvh(stacked_planes).count) == 7


def test_bvh_of_criterion_10_meshes_splits_every_node_at_the_median():
    # Their at most 52 triangles never reach SAH_MIN_TRIANGLES, so they build
    # the median tree, and the dataset frames do the same work as before.
    for seed in range(50):
        mesh = mesh_layout(generate_random_scene(seed, C10_PARAMS), tessellation=12)
        assert mesh.num_triangles <= 52 < raycast.SAH_MIN_TRIANGLES
        assert_same_as_recursive_build(mesh, build_bvh(mesh), sah_min=math.inf)


def test_street_frame_traversal_work(street_mesh, monkeypatch):
    # Per street frame, mean over the 10 poses: (ray, node) pairs slab-tested
    # and ray-triangle tests. Median splits alone give 233k and 79k.
    work = {"pairs": 0, "tests": 0}

    def counted(name, key):
        inner = getattr(_kernels, name)

        def count(o, *args):
            work[key] += o.shape[1]
            return inner(o, *args)

        monkeypatch.setattr(_kernels, name, count)

    counted("_slab_hits", "pairs")
    counted("_triangle_hits", "tests")
    bvh, spec = build_bvh(street_mesh), SensorSpec(rows=32, cols=256)
    for x in STREET_POSE_X:
        _kernels.render_rays(*raycast._sensor_rays(spec, Pose((float(x), 0.0, 0.0), 0.0)), spec.max_range, bvh)
    assert work["pairs"] <= 130_000 * len(STREET_POSE_X)
    assert work["tests"] <= 65_000 * len(STREET_POSE_X)


@pytest.fixture
def work(monkeypatch):
    """Running counts of the (ray, node) pairs slab-tested and the
    ray-triangle tests run, by every caller of the two tests."""
    counts = {"pairs": 0, "tests": 0}
    for name, key in (("_slab_hits", "pairs"), ("_triangle_hits", "tests")):

        def count(o, *args, inner=getattr(_kernels, name), key=key):
            counts[key] += o.shape[1]
            return inner(o, *args)

        monkeypatch.setattr(_kernels, name, count)
    return counts


def cull_frame(name):
    """(mesh, origins, dirs, t_max) of a street pose of seed 0, a
    criterion-10 scene or criterion 2's random rays."""
    kind, arg = name.split(":")
    if kind == "street":
        spec = SensorSpec(rows=32, cols=256)
        mesh = mesh_layout(generate_random_scene(0, STREET_PARAMS), tessellation=16)
        return mesh, *raycast._sensor_rays(spec, Pose((float(arg), 0.0, 0.0), 0.0)), spec.max_range
    if kind == "c10":
        mesh = mesh_layout(generate_random_scene(int(arg), C10_PARAMS), tessellation=12)
        return mesh, *raycast._sensor_rays(C10_SPEC, C10_POSE), C10_SPEC.max_range
    from test_acceptance import _random_scene_50  # imported late: test_acceptance imports this module

    rng = np.random.default_rng(7)  # criterion 2's rays
    origins = rng.uniform(-45, 45, size=(10_000, 3))
    origins[:, 2] = rng.uniform(0.2, 8.0, size=10_000)
    dirs = rng.standard_normal((10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return mesh_layout(_random_scene_50(), tessellation=12), origins, dirs, 200.0


@pytest.mark.parametrize(
    "name", [f"street:{x}" for x in STREET_POSE_X] + [f"c10:{seed}" for seed in range(5)] + ["criterion-2:rays"]
)
def test_float32_cull_keeps_every_pair_the_float64_test_keeps(name):
    # Walk the frontier that the float64 slab test leaves, level by level.
    mesh, origins, dirs, t_max = cull_frame(name)
    bvh = build_bvh(mesh)
    origins, dirs = origins.T, dirs.T
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs
    rays32, bounds32, reach32 = _kernels._float32_frame(origins, inv, t_max, bvh.bounds)
    ray, node, kept = np.arange(origins.shape[1]), np.zeros(origins.shape[1], dtype=np.int64), 0
    while len(ray):
        box = bvh.bounds[:, node]
        keep = _kernels._slab_hits(origins[:, ray], inv[:, ray], box[:3], box[3:], t_max + _kernels.TIE_EPS)
        box32, rays = bounds32[:, node], rays32[:, ray]
        assert not (keep & ~_kernels._slab_hits(rays[:3], rays[3:], box32[:3], box32[3:], reach32)).any()
        ray, node, kept = ray[keep], node[keep], kept + keep.sum()
        inner = bvh.count[node] == 0
        ray, node = np.tile(ray[inner], 2), np.concatenate([bvh.first[node[inner]], bvh.first[node[inner]] + 1])
    assert kept > origins.shape[1]


def test_float32_boxes_contain_the_float64_boxes(street_mesh):
    # About the root box's centre, which the float32 frame subtracts, the
    # edges x = -0.7 and 0.7 of this triangle round inward in float32.
    assert float(np.float32(0.7)) < 0.7
    triangle = TriangleMesh([[-0.7, -1.0, 0.0], [0.7, -1.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]], [1])
    for mesh in (triangle, street_mesh):
        bvh = build_bvh(mesh)
        centre = (bvh.bounds[:3, :1] + bvh.bounds[3:, :1]) / 2.0
        _, box, reach = _kernels._float32_frame(centre, np.ones((3, 1)), 80.0, bvh.bounds)
        assert (box[:3] <= bvh.bounds[:3] - centre).all() and (box[3:] >= bvh.bounds[3:] - centre).all()
        assert float(reach) >= 80.0 + _kernels.TIE_EPS > float(np.float32(80.0 + _kernels.TIE_EPS))


@pytest.mark.parametrize("block", [1, 5, 64])
def test_render_rays_is_the_same_in_any_triangle_block(street_mesh, block, monkeypatch):
    # Blocks of the triangle stage split leaves and rays anywhere.
    spec, bvh = SensorSpec(rows=8, cols=64), build_bvh(street_mesh)
    origins, dirs = raycast._sensor_rays(spec, Pose((4.0, 0.0, 0.0), 0.0))
    whole = _kernels.render_rays(origins, dirs, spec.max_range, bvh)
    monkeypatch.setattr(_kernels, "TRI_BLOCK", block)
    for a, b in zip(whole, _kernels.render_rays(origins, dirs, spec.max_range, bvh)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shift", [1e5, 1e6])
def test_far_street_poses_render_as_the_oracle_with_the_same_work(street_mesh, shift, work):
    # The float32 frame is relative to the scene, so a street far from the
    # world origin costs no more pairs than at the origin and still renders exactly.
    spec = SensorSpec(rows=32, cols=256)
    far = TriangleMesh(street_mesh.vertices + [shift, shift, 0.0], street_mesh.triangles, street_mesh.triangle_labels)
    bvh, far_bvh = build_bvh(street_mesh), build_bvh(far)
    for x in STREET_POSE_X:
        work.update(pairs=0, tests=0)
        _kernels.render_rays(*raycast._sensor_rays(spec, Pose((float(x), 0.0, 0.0), 0.0)), spec.max_range, bvh)
        near_work = dict(work)
        work.update(pairs=0, tests=0)
        origins, dirs = raycast._sensor_rays(spec, Pose((x + shift, shift, 0.0), 0.0))
        kt, ki = _kernels.render_rays(origins, dirs, spec.max_range, far_bvh)
        assert work["pairs"] == pytest.approx(near_work["pairs"], rel=0.01)
        assert work["tests"] == pytest.approx(near_work["tests"], rel=0.01)
        if x not in STREET_POSE_X[::3]:  # the oracle, for 4 of the poses
            continue
        bt, bi = intersect_brute(far, origins, dirs, spec.max_range)
        assert (bi >= 0).any()
        np.testing.assert_array_equal(ki, bi)
        np.testing.assert_array_equal(kt, bt)


@pytest.mark.parametrize("t_max", [80.0, 1e39], ids=["80", "1e39"])
def test_render_rays_past_float32_range_match_brute(scene_mesh, scene_bvh, t_max):
    # 1 / 1e-40 and 1e39 overflow float32: the cull takes them as +-inf, silently.
    assert 1e39 > float(np.finfo(np.float32).max)
    spec = SensorSpec(rows=16, cols=64, max_range=t_max)
    origins, dirs = raycast._sensor_rays(spec, Pose((1.0, -2.0, 0.0), 0.3))
    flat = angles_to_direction(np.linspace(-math.pi, math.pi, 64, endpoint=False), 0.0)
    flat[:, 2] = np.resize([1e-40, -1e-40, 0.0], 64)  # slopes with no float32 reciprocal, and rays in the ground's plane
    flat[::16, 0] = 1e-40
    origins, dirs = np.vstack([origins, origins[:64]]), np.vstack([dirs, flat])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kt, ki = _kernels.render_rays(origins, dirs, spec.max_range, scene_bvh)
        bt, bi = intersect_brute(scene_mesh, origins, dirs, spec.max_range)
    assert (bi[-64:] >= 0).sum() > 8
    np.testing.assert_array_equal(ki, bi)
    np.testing.assert_array_equal(kt, bt)


@pytest.mark.parametrize("seed", range(50))
def test_bvh_matches_recursive_build_on_soups_with_ties(seed):
    # Vertices on a coarse grid make centroids tie along the split axis,
    # which the stable sort must order as the recursive build did.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2205))
    verts = np.round(rng.normal(scale=3.0, size=(3 * n, 3)), seed % 2)
    mesh = TriangleMesh(verts, np.arange(3 * n).reshape(n, 3), np.zeros(n))
    assert_same_as_recursive_build(mesh, build_bvh(mesh))


def assert_render_rays_pinned(mesh, spec, pose):
    """Every pixel's traversal result equals the all-triangle scan: t bit
    for bit and the same triangle index."""
    origins, dirs = raycast._sensor_rays(spec, pose)
    kt, ki = _kernels.render_rays(origins, dirs, spec.max_range, build_bvh(mesh))
    bt, bi = intersect_brute(mesh, origins, dirs, spec.max_range)
    assert (bi >= 0).any()
    np.testing.assert_array_equal(ki, bi)
    np.testing.assert_array_equal(kt, bt)


@pytest.mark.parametrize("seed", range(5))
def test_render_rays_pins_criterion_10_frames(seed):
    mesh = mesh_layout(generate_random_scene(seed, C10_PARAMS), tessellation=12)
    assert 40 <= mesh.num_triangles <= 52
    assert_render_rays_pinned(mesh, C10_SPEC, C10_POSE)


@pytest.mark.parametrize("k, depths", [(9, {1, 2}), (37, {1, 4, 5}), (75, {1, 5, 6})], ids=["9", "37", "75"])
def test_render_rays_pins_leaves_at_mixed_depths(street_mesh, k, depths):
    # Criterion 10's meshes put their leaves at depth 1 (the ground and road
    # planes) and at depths 4-5; these put them at other depths.
    mesh = first_triangles(street_mesh, k)
    assert set(leaf_depths(build_bvh(mesh)).tolist()) == depths
    assert_render_rays_pinned(mesh, SensorSpec(rows=16, cols=128), Pose((0.0, 0.0, 0.0), 0.0))


@pytest.mark.parametrize("x", STREET_POSE_X)
def test_render_rays_pins_street_poses(street_mesh, x):
    assert street_mesh.num_triangles == 1680
    assert_render_rays_pinned(street_mesh, SensorSpec(rows=32, cols=256), Pose((float(x), 0.0, 0.0), 0.0))


def test_street_point_clouds_are_pinned(tmp_path):
    # The xyz files that render --trajectory --cloud writes over the 10 street poses.
    scene, spec = generate_random_scene(0, STREET_PARAMS), SensorSpec(rows=32, cols=256)
    path, digest = tmp_path / "frame.xyz", hashlib.sha256()
    for x in STREET_POSE_X:
        pose = Pose((float(x), 0.0, 0.0), 0.0)
        img = render_conditional(scene, spec, pose, tessellation=16)
        sensor.write_point_cloud(path, raycast.sensor_to_world(sensor.range_image_to_point_cloud(img), spec, pose))
        digest.update(path.read_bytes())
    assert digest.hexdigest() == "251a4ef02b9be0a433db3656831b66b97ea9c11ab306363df13bdf7712f875f5"


def test_street_poses_render_the_same_with_and_without_the_memo():
    scene, spec = generate_random_scene(0, STREET_PARAMS), SensorSpec(rows=32, cols=256)
    for x in STREET_POSE_X:
        pose = Pose((float(x), 0.0, 0.0), 0.0)
        img, cos = render_conditional(scene, spec, pose, 16, return_incidence=True)
        raycast._scene.cache_clear()
        fresh, fresh_cos = render_conditional(scene, spec, pose, 16, return_incidence=True)
        np.testing.assert_array_equal(img.data, fresh.data)
        np.testing.assert_array_equal(cos, fresh_cos)


CAR = SemanticPrimitive(3, "cuboid", (6.0, 0.0, 0.75), (4.0, 1.8, 1.5))


def test_render_builds_one_bvh_per_layout_and_tessellation(monkeypatch):
    spec, scene, other = SensorSpec(rows=4, cols=16), Layout(primitives=(CAR,)), Layout(primitives=(replace(CAR, yaw=0.3),))
    built = []
    raycast._scene.cache_clear()
    monkeypatch.setattr(raycast, "build_bvh", lambda mesh: built.append(mesh) or build_bvh(mesh))
    for x in (0.0, 1.0, 2.0):
        render_conditional(scene, spec, Pose((x, 0.0, 0.0), 0.0), tessellation=8)
    assert len(built) == 1
    render_conditional(Layout(primitives=[replace(CAR)]), spec, tessellation=8)  # equal, not the same object
    assert len(built) == 1
    render_conditional(scene, spec, tessellation=6)
    assert len(built) == 2
    render_conditional(other, spec, tessellation=6)
    assert len(built) == 3
    render_conditional(scene, spec, tessellation=6)  # one entry: the other layout displaced it
    assert len(built) == 4


def test_render_calls_a_replaced_build_bvh_for_a_memoized_layout(monkeypatch):
    # A tracer or a test that wraps raycast.build_bvh sees the next render build.
    scene, spec = Layout(primitives=(CAR,)), SensorSpec(rows=4, cols=16)
    render_conditional(scene, spec)
    built = []
    monkeypatch.setattr(raycast, "build_bvh", lambda mesh: built.append(mesh) or build_bvh(mesh))
    render_conditional(scene, spec)
    assert len(built) == 1


def test_render_digests_are_pinned():
    # sha256 of the depth, label and incidence channels of every frame, in
    # order: the 10 street poses, then criterion-10 scenes 0-49.
    street = generate_random_scene(0, STREET_PARAMS)
    frames = [(street, SensorSpec(rows=32, cols=256), Pose((float(x), 0.0, 0.0), 0.0), 16) for x in STREET_POSE_X]
    frames += [(generate_random_scene(seed, C10_PARAMS), C10_SPEC, C10_POSE, 12) for seed in range(50)]
    digests = [hashlib.sha256() for _ in range(3)]
    for scene, spec, pose, tessellation in frames:
        img, cos = render_conditional(scene, spec, pose, tessellation, return_incidence=True)
        for digest, channel in zip(digests, (img.depth, img.semantic, cos)):
            digest.update(channel.tobytes())
    assert [d.hexdigest() for d in digests] == [
        "1588f3212e0a8e9deff14c641ae9529cea9f7eebba445b2d87fd184953fea646",
        "57a91952105f5b3abc89dea64b2e8380d02655765b24379fb73734e3e3182978",
        "d17a98c78bd05bfa9667565dc8a6df86dac99071adc12bf05cad5abd7af30357",
    ]


def test_empty_mesh_has_no_hits_and_no_surface_points():
    empty = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64))
    t, tri = intersect_brute(empty, [[0.0, 0.0, 0.0]] * 2, [[1.0, 0.0, 0.0]] * 2, 10.0)
    assert t.tolist() == [-1.0, -1.0] and tri.tolist() == [-1, -1]
    cloud = surface_sample(empty, 5.0)
    assert cloud.points.shape == (0, 3) and cloud.labels.dtype == np.int64 and len(cloud.labels) == 0


# Checks that share no arithmetic with _kernels._triangle_hits, which the
# traversal and its oracle both call.


#: (layout, spec, pose, tessellation) of five criterion-10 frames and of the
#: street scene from three of its poses.
FRAMES = [(generate_random_scene(seed, C10_PARAMS), C10_SPEC, C10_POSE, 12) for seed in range(5)] + [
    (generate_random_scene(0, STREET_PARAMS), SensorSpec(rows=32, cols=256), Pose((float(x), 0.0, 0.0), 0.0), 16)
    for x in (-36, 4, 36)
]
FRAME_IDS = [f"c10-{seed}" for seed in range(5)] + [f"street{x}" for x in (-36, 4, 36)]


def assert_same_image(a, b):
    # Labels exactly; depth to rounding (the rays or vertices differ in their last bits).
    np.testing.assert_array_equal(a.semantic, b.semantic)
    np.testing.assert_allclose(a.depth, b.depth, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("frame", FRAMES, ids=FRAME_IDS)
def test_render_rotating_the_pose_rolls_the_image(frame):
    # Column u looks along yaw pi - 2 pi (u + 0.5) / cols minus the pose's
    # yaw, so turning the pose by k columns' worth shows column u + k.
    layout, spec, pose, tessellation = frame
    img = render_conditional(layout, spec, pose, tessellation)
    for k in (1, 5, -3):
        turned = Pose(pose.translation, pose.yaw + 2.0 * math.pi * k / spec.cols)
        rolled = RangeImage(spec, np.roll(img.data, -k, axis=2))
        assert_same_image(render_conditional(layout, spec, turned, tessellation), rolled)


@pytest.mark.parametrize("frame", FRAMES, ids=FRAME_IDS)
def test_render_moving_layout_and_pose_together_keeps_the_image(frame):
    layout, spec, pose, tessellation = frame
    img = render_conditional(layout, spec, pose, tessellation)
    x, y, z = pose.translation
    for dx, dy in ((3.0, -2.0), (-17.5, 40.25)):
        moved = Layout(
            layout.palette,
            [replace(p, center=(p.center[0] + dx, p.center[1] + dy, p.center[2])) for p in layout.primitives],
        )
        assert_same_image(render_conditional(moved, spec, Pose((x + dx, y + dy, z), pose.yaw), tessellation), img)


def plane_hits(mesh, origins, dirs, t_max, margin=1e-6):
    """Nearest hit by f64 plane intersection, then a barycentric inside test
    by sub-triangle areas: (t, triangle, clear) per ray, t = inf and
    triangle = -1 on a miss. ``clear`` marks the rays that keep a margin
    from every triangle's edges, its plane's direction and the ends of
    (T_MIN, t_max], and whose nearest hit is ahead of the next by a margin."""
    a, b, c = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    normal = np.cross(b - a, c - a)
    nn = np.sum(normal * normal, axis=1)
    out_t, out_tri, out_clear = [], [], []
    for lo in range(0, len(origins), 256):
        o, d = origins[lo : lo + 256, None], dirs[lo : lo + 256, None]
        facing = np.sum(d * normal, axis=2)  # (rays, triangles)
        with np.errstate(divide="ignore", invalid="ignore"):  # a ray along a plane: t = inf or NaN
            t = np.sum((a - o) * normal, axis=2) / facing
            p = o + t[..., None] * d
            bary = np.stack([np.sum(np.cross(q - p, r - p) * normal, axis=2) / nn for q, r in ((b, c), (c, a), (a, b))])
        inside = bary.min(axis=0) >= 0.0
        ahead = (t > _kernels.T_MIN) & (t <= t_max)
        hit_t = np.where(inside & ahead, t, np.inf)
        order = np.sort(hit_t, axis=1)
        nearest = order[:, 0]
        clear = (
            (np.abs(facing) > margin * np.sqrt(nn)).all(axis=1)
            & ~(ahead & (np.abs(bary).min(axis=0) < margin)).any(axis=1)
            & ~(np.abs(t - t_max) < margin * t_max).any(axis=1)
            & ~(np.abs(t - _kernels.T_MIN) < margin).any(axis=1)
        )
        if mesh.num_triangles > 1:
            clear &= ~np.isfinite(nearest) | (order[:, 1] > nearest * (1.0 + margin))
        out_t.append(nearest)
        out_tri.append(np.where(np.isfinite(nearest), np.argmin(hit_t, axis=1), -1))
        out_clear.append(clear)
    return tuple(map(np.concatenate, (out_t, out_tri, out_clear)))


@pytest.mark.parametrize("frame", FRAMES[:5] + FRAMES[-1:], ids=FRAME_IDS[:5] + FRAME_IDS[-1:])
def test_render_matches_plane_intersection_reference(frame):
    layout, spec, pose, tessellation = frame
    mesh = mesh_layout(layout, tessellation)
    img = render_conditional(layout, spec, pose, tessellation)
    origins, dirs = raycast._sensor_rays(spec, pose)
    pick = np.arange(0, len(origins), 1 + mesh.num_triangles // 500)  # every 4th ray of a street frame
    t, tri, clear = plane_hits(mesh, origins[pick], dirs[pick], spec.max_range)
    assert clear.mean() > 0.95 and np.isfinite(t[clear]).mean() > 0.3
    depth, label = img.depth.ravel()[pick][clear], img.semantic.ravel()[pick][clear]
    hit = np.isfinite(t[clear])
    np.testing.assert_array_equal(depth > 0, hit)
    np.testing.assert_allclose(depth[hit], t[clear][hit], rtol=1e-12, atol=0)
    np.testing.assert_array_equal(label, np.where(hit, mesh.triangle_labels[tri[clear]], 0))


def test_render_rays_match_plane_intersection_reference_on_random_rays(scene_mesh, scene_bvh):
    origins, dirs = random_rays(1000, 5)
    t, tri, clear = plane_hits(scene_mesh, origins, dirs, 200.0)
    assert clear.mean() > 0.95 and np.isfinite(t[clear]).mean() > 0.3
    kt, ki = _kernels.render_rays(origins, dirs, 200.0, scene_bvh)
    np.testing.assert_array_equal(ki[clear], tri[clear])
    hit = clear & (tri >= 0)
    np.testing.assert_allclose(kt[hit], t[hit], rtol=1e-12, atol=0)


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
    assert t.dtype == np.float64 and i.dtype == np.int64
    # Every ray misses a non-empty BVH: one looks away, one falls short, one passes beside it.
    origins, dirs = [[0.0, 0, 0], [0.0, 0, 0], [0.0, 5, 0]], [[-1.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]]
    t, i = _kernels.render_rays(origins, dirs, 4.0, build_bvh(mesh))
    assert t.tolist() == [-1.0] * 3 and i.tolist() == [-1] * 3
    assert t.dtype == np.float64 and i.dtype == np.int64


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


@pytest.mark.parametrize("density", [-1.0, math.nan, math.inf, -math.inf])
def test_surface_sample_rejects_a_density_that_is_not_finite_and_positive(density):
    mesh = mesh_primitive(SemanticPrimitive(0, "cuboid", (0, 0, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match=re.escape(f"surface sample density must be finite and > 0, got {density}")):
        surface_sample(mesh, density)


@pytest.mark.parametrize("density, expected", [(1e12, "6e+12"), (1e300, "6e+300")])
def test_surface_sample_rejects_a_density_over_the_point_budget(density, expected):
    # 1e12 points/m2 on a unit cube failed allocating 43.7 TiB, 1e300 in rng.poisson.
    mesh = mesh_primitive(SemanticPrimitive(0, "cuboid", (0, 0, 0), (1, 1, 1)))
    message = f"surface sample density {density} points/m2 on 6 m2 expects {expected} points, over the budget of 1e7"
    with pytest.raises(ValueError, match=re.escape(message)):
        surface_sample(mesh, density)


def test_surface_sample_ignores_occlusion():
    # an indoor point is impossible for raycasting but fine for sampling
    inner = SemanticPrimitive(3, "cuboid", (10.0, 0.0, 1.0), (1.0, 1.0, 1.0))
    outer = SemanticPrimitive(2, "cuboid", (10.0, 0.0, 2.0), (8.0, 8.0, 4.0))
    lay = Layout(primitives=(outer, inner))
    cloud = surface_sample(mesh_layout(lay), 20.0, seed=1)
    assert (cloud.labels == 3).any()
    img = render_conditional(lay, SensorSpec(rows=32, cols=256))
    assert not (img.semantic == 3).any()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["p0", "p1", "p2"])
def test_raydrop_params_reject_non_finite(field, value):
    # A NaN p0 would make every comparison with the drop probability False: nothing dropped.
    with pytest.raises(ValueError, match="raydrop p0, p1 and p2 must be finite"):
        RaydropParams(**{field: value})


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

"""Layout rendering by raycasting: BVH construction, ray-triangle queries (a
breadth-first BVH traversal in ``_kernels`` and an all-triangle scan, its
oracle, that shares only its triangle test), conditional range-image
rendering, surface-sampling ablation and the parametric raydrop model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .layout import Layout, Pose
from .meshing import DEFAULT_TESSELLATION, TriangleMesh, mesh_layout, transform
from .sensor import LabeledPointCloud, RangeImage, SensorSpec, angles_to_direction, pixel_to_angles, range_image_to_point_cloud

LEAF_SIZE = 4
#: Ray-triangle pairs per batch of ``intersect_brute``.
BRUTE_CHUNK = 2**22


@dataclass(frozen=True)
class RaydropParams:
    """Per-pixel drop probability p0 + p1*(d/max_range) + p2*(1-|cos theta|),
    clamped to [0, 1]."""

    p0: float = 0.02
    p1: float = 0.08
    p2: float = 0.15

    def __post_init__(self):
        if not np.isfinite([self.p0, self.p1, self.p2]).all():
            raise ValueError(f"raydrop p0, p1 and p2 must be finite, got {self}")


@dataclass(frozen=True)
class BVH:
    """Flat median-split BVH: one (min xyz, max xyz) ``bounds`` row per node and one
    (v0, e1, e2) ``tris`` row per triangle. Leaves hold ranges into the triangle
    permutation; internal nodes hold child indices."""

    bounds: np.ndarray
    left: np.ndarray
    right: np.ndarray
    start: np.ndarray
    count: np.ndarray
    perm: np.ndarray
    tris: np.ndarray


def build_bvh(mesh: TriangleMesh) -> BVH:
    """Median-split over triangle centroids along the widest axis."""
    v0, e1, e2 = mesh.edges()
    n = mesh.num_triangles
    if n == 0:
        zi = np.empty(0, dtype=np.int64)
        return BVH(np.empty((0, 6)), zi, zi, zi, zi, zi, np.empty((0, 9)))

    tri_min = np.minimum(np.minimum(v0, v0 + e1), v0 + e2)
    tri_max = np.maximum(np.maximum(v0, v0 + e1), v0 + e2)
    centroids = (tri_min + tri_max) / 2.0
    perm = np.arange(n, dtype=np.int64)

    nodes_min, nodes_max, left, right, start, count = [], [], [], [], [], []

    def new_node():
        nodes_min.append(None)
        nodes_max.append(None)
        left.append(-1)
        right.append(-1)
        start.append(0)
        count.append(0)
        return len(count) - 1

    def build(lo, hi):
        node = new_node()
        idx = perm[lo:hi]
        nodes_min[node] = tri_min[idx].min(axis=0)
        nodes_max[node] = tri_max[idx].max(axis=0)
        if hi - lo <= LEAF_SIZE:
            start[node] = lo
            count[node] = hi - lo
            return node
        axis = int(np.argmax(nodes_max[node] - nodes_min[node]))
        order = np.argsort(centroids[idx, axis], kind="stable")
        perm[lo:hi] = idx[order]
        mid = (lo + hi) // 2
        left[node] = build(lo, mid)
        right[node] = build(mid, hi)
        return node

    build(0, n)
    return BVH(
        np.hstack([nodes_min, nodes_max]),
        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
        np.array(start, dtype=np.int64), np.array(count, dtype=np.int64),
        perm, np.hstack([v0, e1, e2]),
    )


def intersect_brute(mesh: TriangleMesh, origins, dirs, t_max: float):
    """Vectorized all-triangle scan with the traversal's triangle test: the
    oracle for the BVH culling and the winner rule. Returns (t,
    triangle_index) arrays; miss is -1."""
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n_rays = len(origins)
    out_t = np.full(n_rays, -1.0)
    out_i = np.full(n_rays, -1, dtype=np.int64)
    if mesh.num_triangles == 0:
        return out_t, out_i
    v0, e1, e2 = mesh.edges()
    rows = max(1, BRUTE_CHUNK // mesh.num_triangles)
    for lo in range(0, n_rays, rows):
        t = _kernels._triangle_hits(origins[lo:lo + rows, None], dirs[lo:lo + rows, None], v0, e1, e2, t_max)
        tmin = t.min(axis=1)
        hit = np.isfinite(tmin)
        # Lowest triangle index within the tie window of the minimum.
        win = t <= (tmin[:, None] + _kernels.TIE_EPS)
        idx = np.argmax(win, axis=1)
        out_t[lo:lo + rows][hit] = t[np.arange(len(t)), idx][hit]
        out_i[lo:lo + rows][hit] = idx[hit]
    return out_t, out_i


def _sensor_rays(spec: SensorSpec, pose: Pose):
    """World-frame origins/directions for every pixel, row-major order."""
    u, v = np.meshgrid(np.arange(spec.cols), np.arange(spec.rows))
    yaw, pitch = pixel_to_angles(u.ravel(), v.ravel(), spec)
    # The projection yaw is clockwise (y component is -sin yaw), so rotating
    # the sensor counterclockwise by pose.yaw subtracts from the pixel yaw:
    # R(theta) @ direction(yaw) == direction(yaw - theta).
    dirs = angles_to_direction(yaw - pose.yaw, pitch)
    origin = np.asarray(pose.translation, dtype=np.float64) + [0.0, 0.0, spec.origin_height]
    return np.broadcast_to(origin, dirs.shape).copy(), dirs


def render_conditional(
    layout: Layout,
    spec: SensorSpec,
    pose: Pose = Pose(),
    tessellation: int = DEFAULT_TESSELLATION,
    return_incidence: bool = False,
):
    """Raycast the layout mesh into a 2-channel (depth, semantic) range
    image: one ray per pixel from the sensor origin; misses store (0, 0).

    With ``return_incidence`` also returns the |cos| of the angle between
    each ray and the hit triangle's normal (0 where no hit), which feeds
    the raydrop model.
    """
    mesh = mesh_layout(layout, tessellation)
    origins, dirs = _sensor_rays(spec, pose)
    bvh = build_bvh(mesh)
    ts, idxs = _kernels.render_rays(origins, dirs, float(spec.max_range), bvh)
    hit = idxs >= 0
    depth = np.where(hit, ts, 0.0).reshape(spec.rows, spec.cols)
    labels = np.zeros(len(idxs), dtype=np.int64)
    labels[hit] = mesh.triangle_labels[idxs[hit]]
    img = RangeImage(spec, np.stack([depth, labels.reshape(spec.rows, spec.cols).astype(np.float64)]))
    if not return_incidence:
        return img
    cos = np.zeros(len(ts))
    normals = np.cross(*np.hsplit(bvh.tris[idxs[hit], 3:], 2))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cos[hit] = np.abs(np.sum(dirs[hit] * normals, axis=1))
    return img, cos.reshape(spec.rows, spec.cols)


def surface_sample(mesh: TriangleMesh, points_per_m2: float, seed: int = 0) -> LabeledPointCloud:
    """Area-weighted uniform sampling of the mesh surface (the ablation
    baseline that ignores occlusion)."""
    if points_per_m2 <= 0:
        raise ValueError("density must be positive")
    if mesh.num_triangles == 0:
        return LabeledPointCloud(np.empty((0, 3)), np.empty(0, dtype=np.int64))
    rng = np.random.default_rng(seed)
    areas = mesh.triangle_areas()
    total = areas.sum()
    n = int(rng.poisson(total * points_per_m2))
    tri = rng.choice(mesh.num_triangles, size=n, p=areas / total)
    r1 = rng.random(n)
    r2 = rng.random(n)
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    v0, e1, e2 = mesh.edges()
    pts = v0[tri] + r1[:, None] * e1[tri] + r2[:, None] * e2[tri]
    return LabeledPointCloud(pts, mesh.triangle_labels[tri])


def apply_raydrop(
    img: RangeImage,
    params: RaydropParams,
    incidence_cos: np.ndarray,
    seed: int = 0,
) -> RangeImage:
    """Stochastic per-pixel dropout of returned pixels, given the incidence
    |cos| that ``render_conditional`` returns. Drops only the depth channel;
    the semantic channel is left untouched. Deterministic per seed (Philox)."""
    depth = img.depth.copy()
    returned = depth > 0
    frac = depth / img.spec.max_range
    grazing = 1.0 - np.abs(incidence_cos)
    prob = np.clip(params.p0 + params.p1 * frac + params.p2 * grazing, 0.0, 1.0)
    uni = np.random.Generator(np.random.Philox(seed)).random(depth.shape)
    depth[returned & (uni < prob)] = 0.0
    data = img.data.copy()
    data[0] = depth
    return RangeImage(img.spec, data)


def sensor_to_world(cloud: LabeledPointCloud, spec: SensorSpec, pose: Pose = Pose()) -> LabeledPointCloud:
    """Map sensor-frame points into the world frame of the given pose."""
    origin = np.asarray(pose.translation, dtype=np.float64) + [0.0, 0.0, spec.origin_height]
    return LabeledPointCloud(transform(cloud.points, origin, pose.yaw), cloud.labels)


def render_point_cloud(layout, spec, pose=Pose(), tessellation=DEFAULT_TESSELLATION) -> LabeledPointCloud:
    """Convenience: raycast then unproject, returning world-frame points."""
    cloud = range_image_to_point_cloud(render_conditional(layout, spec, pose, tessellation))
    return sensor_to_world(cloud, spec, pose)

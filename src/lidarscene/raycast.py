"""Layout rendering by raycasting: BVH construction, ray-triangle queries (a
breadth-first BVH traversal in ``_kernels`` and an all-triangle scan, its
oracle, that shares only its triangle test), conditional range-image
rendering, surface-sampling ablation and the parametric raydrop model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .layout import Layout, Pose
from .meshing import DEFAULT_TESSELLATION, TriangleMesh, mesh_layout, transform
from .sensor import LabeledPointCloud, RangeImage, SensorSpec, angles_to_direction, pixel_to_angles

LEAF_SIZE = 4
#: A node with more triangles than this splits at the surface-area-heuristic minimum.
SAH_MIN_TRIANGLES = 64
#: A triangle whose box diagonal exceeds this share of the scene box's is scene-sized.
SCENE_SIZED = 0.5
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
    """Flat BVH, component-major: ``bounds`` (6, N) holds each node's min xyz
    and max xyz, ``tris`` (9, T) each triangle's v0, e1 and e2. A leaf
    (``count > 0``) holds ``perm[first:first + count]``, an internal node the
    children ``first`` and ``first + 1``: nodes are numbered level by level,
    children after parents and siblings side by side. See ``build_bvh``."""

    bounds: np.ndarray
    first: np.ndarray
    count: np.ndarray
    perm: np.ndarray
    tris: np.ndarray


def build_bvh(mesh: TriangleMesh) -> BVH:
    """Splits over triangle centroids sorted along the widest axis of each
    node's box, built one level at a time: one reduceat gives every box of a
    level and one stable lexsort orders every node that splits. A node of at
    most SAH_MIN_TRIANGLES triangles splits at the median. A larger one
    splits where ``A(left) * n_left + A(right) * n_right`` is least over
    every position of that order, A being a box's surface area; the first
    minimum wins (the surface area heuristic: MacDonald & Booth, "Heuristics
    for ray tracing using space subdivision", Visual Computer 1990; Wald,
    "On fast Construction of SAH-based Bounding Volume Hierarchies", IEEE RT
    2007). It halves the (ray, node) pairs of a street frame; a lower
    threshold saves that frame little more and slows the build of small
    scenes. The root's left child instead takes the scene-sized triangles
    (the ground and road planes) if not all are, so they widen no box of the
    others (cf. Ernst & Greiner, "Early Split Clipping for Bounding Volume
    Hierarchies", 2007)."""
    v0, e1, e2 = mesh.edges()
    n = mesh.num_triangles
    tri_min = np.minimum(np.minimum(v0, v0 + e1), v0 + e2)
    tri_max = np.maximum(np.maximum(v0, v0 + e1), v0 + e2)
    centroids = (tri_min + tri_max) / 2.0
    perm = np.arange(n, dtype=np.int64)

    lo = np.zeros(min(n, 1), dtype=np.int64)  # one root [0, n), none if empty
    hi = lo + n
    levels = [(np.empty((6, 0)), *[np.empty(0, dtype=np.int64)] * 2)]  # (bounds, first, count)
    numbered = 0
    while len(lo):
        # Node boxes by reduceat over the interleaved [lo, hi) edges: the odd
        # results reduce the gaps and are dropped; an edge at n needs a padding row.
        edges, rows = np.stack([lo, hi], axis=1).ravel(), np.append(perm, 0)
        bmin = np.minimum.reduceat(tri_min[rows], edges)[::2]
        bmax = np.maximum.reduceat(tri_max[rows], edges)[::2]
        split = hi - lo > LEAF_SIZE
        numbered += len(lo)
        first = np.where(split, numbered + 2 * np.cumsum(split) - 2, lo)  # the k-th split's children: numbered + 2k, +1
        levels.append((np.vstack([bmin.T, bmax.T]), first, np.where(split, 0, hi - lo)))

        # Sort each splitting node's slice by centroid along its widest axis.
        axis = np.argmax(bmax[split] - bmin[split], axis=1)
        lo, hi = lo[split], hi[split]
        size = hi - lo
        node = np.repeat(np.arange(len(lo)), size)
        pos = np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)
        key = centroids[perm[pos], axis[node]]
        mid = (lo + hi) // 2
        wide = size > SAH_MIN_TRIANGLES
        if numbered == 1 and len(lo):  # the root: scene-sized triangles first, if some but not all are
            big = np.linalg.norm(tri_max - tri_min, axis=1) > SCENE_SIZED * np.linalg.norm(bmax[0] - bmin[0])
            if 0 < big.sum() < n:
                key, mid = ~big, big.sum(keepdims=True)
                wide[0] = False
        perm[pos] = perm[pos[np.lexsort((key, node))]]
        for j in np.flatnonzero(wide):  # a few nodes per level, all near the root
            idx = perm[lo[j]:hi[j]]
            mid[j] = lo[j] + _sah_split(tri_min[idx], tri_max[idx])
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()

    bounds, first, count = (np.concatenate(a, axis=-1) for a in zip(*levels))
    return BVH(bounds, first, count, perm, np.vstack([v0.T, e1.T, e2.T]))


def _sah_split(tri_min, tri_max):
    """The size of the left part at the surface-area-heuristic minimum over
    the splits of these triangle boxes, in their order, into a nonempty
    prefix and suffix. Half areas suffice: doubling is exact."""

    def prefix_areas(lo, hi):  # of the boxes of the first 1, 2, ..., m triangles
        d = np.maximum.accumulate(hi) - np.minimum.accumulate(lo)
        return d[:, 0] * d[:, 1] + d[:, 1] * d[:, 2] + d[:, 2] * d[:, 0]

    m = len(tri_min)
    k = np.arange(1, m)
    left = prefix_areas(tri_min, tri_max)[:-1]
    right = prefix_areas(tri_min[::-1], tri_max[::-1])[-2::-1]
    return 1 + int(np.argmin(left * k + right * (m - k)))


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
    v0, e1, e2 = (a.T[:, None] for a in mesh.edges())
    rows = max(1, BRUTE_CHUNK // mesh.num_triangles)
    for lo in range(0, n_rays, rows):
        t = _kernels._triangle_hits(origins[lo:lo + rows].T[:, :, None], dirs[lo:lo + rows].T[:, :, None], v0, e1, e2, t_max)
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
    return np.broadcast_to(origin, dirs.shape), dirs


@functools.lru_cache(maxsize=1)
def _scene(layout, tessellation, mesher, builder):
    """The mesh and BVH of the last layout rendered, so that the poses of a
    trajectory share one of each. Keyed also on the mesher and the builder,
    the module's ``mesh_layout`` and ``build_bvh`` at the call, so that a
    replacement of either (a tracer, a counting test) is called, not bypassed."""
    mesh = mesher(layout, tessellation)
    return mesh, builder(mesh)


def render_conditional(
    layout: Layout,
    spec: SensorSpec,
    pose: Pose = Pose(),
    tessellation: int = DEFAULT_TESSELLATION,
    return_incidence: bool = False,
):
    """Raycast the layout mesh into a 2-channel (depth, semantic) range
    image: one ray per pixel from the sensor origin; misses store (0, 0).
    Consecutive renders of one layout at one tessellation reuse its mesh and
    BVH.

    With ``return_incidence`` also returns the |cos| of the angle between
    each ray and the hit triangle's normal (0 where no hit), which feeds
    the raydrop model.
    """
    mesh, bvh = _scene(layout, tessellation, mesh_layout, build_bvh)
    origins, dirs = _sensor_rays(spec, pose)
    ts, idxs = _kernels.render_rays(origins, dirs, float(spec.max_range), bvh)
    hit = idxs >= 0
    depth = np.where(hit, ts, 0.0).reshape(spec.rows, spec.cols)
    labels = np.zeros(len(idxs), dtype=np.int64)
    labels[hit] = mesh.triangle_labels[idxs[hit]]
    img = RangeImage(spec, np.stack([depth, labels.reshape(spec.rows, spec.cols).astype(np.float64)]))
    if not return_incidence:
        return img
    normals = np.cross(bvh.tris[3:6].T, bvh.tris[6:9].T)
    with np.errstate(invalid="ignore"):  # a degenerate triangle, never hit, gets NaN
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cos = np.zeros(len(ts))
    cos[hit] = np.abs(np.sum(dirs[hit] * normals[idxs[hit]], axis=1))
    return img, cos.reshape(spec.rows, spec.cols)


def surface_sample(mesh: TriangleMesh, points_per_m2: float, seed: int = 0) -> LabeledPointCloud:
    """Area-weighted uniform sampling of the mesh surface (the ablation
    baseline that ignores occlusion). The expected point count, area times
    density, may be at most 1e7 (about 1 GB of working arrays)."""
    if not 0 < points_per_m2 < np.inf:  # False for NaN too
        raise ValueError(f"surface sample density must be finite and > 0, got {points_per_m2}")
    if mesh.num_triangles == 0:
        return LabeledPointCloud(np.empty((0, 3)), np.empty(0, dtype=np.int64))
    rng = np.random.default_rng(seed)
    areas = mesh.triangle_areas()
    total = areas.sum()
    if total * points_per_m2 > 1e7:
        raise ValueError(
            f"surface sample density {points_per_m2} points/m2 on {total:.6g} m2 expects "
            f"{total * points_per_m2:.3g} points, over the budget of 1e7"
        )
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
    seed: int,
) -> RangeImage:
    """Stochastic per-pixel dropout of returned pixels, given the incidence
    |cos| that ``render_conditional`` returns. Drops only the depth channel;
    the semantic channel is left untouched. Deterministic per seed (Philox)."""
    data = img.data.copy()
    depth = data[0]
    returned = depth > 0
    frac = depth / img.spec.max_range
    grazing = 1.0 - np.abs(incidence_cos)
    prob = np.clip(params.p0 + params.p1 * frac + params.p2 * grazing, 0.0, 1.0)
    uni = np.random.Generator(np.random.Philox(seed)).random(depth.shape)
    depth[returned & (uni < prob)] = 0.0
    return RangeImage(img.spec, data)


def sensor_to_world(cloud: LabeledPointCloud, spec: SensorSpec, pose: Pose = Pose()) -> LabeledPointCloud:
    """Map sensor-frame points into the world frame of the given pose."""
    origin = np.asarray(pose.translation, dtype=np.float64) + [0.0, 0.0, spec.origin_height]
    return LabeledPointCloud(transform(cloud.points, origin, pose.yaw), cloud.labels)


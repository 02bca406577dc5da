"""Breadth-first BVH traversal of many rays at once, in plain numpy.

``render_rays`` follows the wavefront scheme of Aila & Laine, "Understanding
the Efficiency of Ray Traversal on GPUs" (HPG 2009): it keeps a frontier of
live (ray, node) pairs, slab-tests all of them in one pass, replaces each
surviving internal node by its two children and sends each surviving leaf to
a Moller-Trumbore test against the leaf's triangles. The triangle test uses
the same component expressions, in the same order, as the all-triangle
oracle ``raycast.intersect_brute``, so both give bit-identical t and the same
winning triangle index.
"""

import numpy as np

T_MIN = 1e-4  # self-hit epsilon along the ray
TIE_EPS = 1e-9  # |dt| window inside which the lower triangle index wins
DET_EPS = 1e-12


def _slab_hits(o, inv, bmin, bmax, t_max):
    """Rows whose ray may meet the box in (0, t_max]. A zero direction
    component gives inv = +-inf, and 0 * inf = NaN where the origin lies on
    a slab plane: np.minimum/np.maximum carry the NaN and np.fmax/np.fmin
    then skip that axis, so it never culls a pair."""
    with np.errstate(invalid="ignore"):
        lo = (bmin - o) * inv
        hi = (bmax - o) * inv
        near = np.minimum(lo, hi)
        far = np.maximum(lo, hi)
    t_near = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
    t_far = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
    return (t_near <= t_far) & (t_far > 0.0) & (t_near <= t_max + TIE_EPS)


def _triangle_hits(o, d, v0, e1, e2, t_max):
    """Two-sided Moller-Trumbore per (ray, triangle) row: t of a hit in
    (T_MIN, t_max], inf elsewhere."""
    px = d[:, 1] * e2[:, 2] - d[:, 2] * e2[:, 1]
    py = d[:, 2] * e2[:, 0] - d[:, 0] * e2[:, 2]
    pz = d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]
    det = e1[:, 0] * px + e1[:, 1] * py + e1[:, 2] * pz
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        tx = o[:, 0] - v0[:, 0]
        ty = o[:, 1] - v0[:, 1]
        tz = o[:, 2] - v0[:, 2]
        u = (tx * px + ty * py + tz * pz) * inv
        qx = ty * e1[:, 2] - tz * e1[:, 1]
        qy = tz * e1[:, 0] - tx * e1[:, 2]
        qz = tx * e1[:, 1] - ty * e1[:, 0]
        v = (d[:, 0] * qx + d[:, 1] * qy + d[:, 2] * qz) * inv
        t = (e2[:, 0] * qx + e2[:, 1] * qy + e2[:, 2] * qz) * inv
    ok = (
        (np.abs(det) >= DET_EPS)
        & (u >= 0.0) & (u <= 1.0)
        & (v >= 0.0) & (u + v <= 1.0)
        & (t > T_MIN) & (t <= t_max)
    )
    return np.where(ok, t, np.inf)


def _segment_starts(key):
    """True at the first row of each run of equal values in sorted ``key``."""
    return np.concatenate([[True], key[1:] != key[:-1]])


def render_rays(origins, dirs, t_max, bvh):
    """Nearest hit of every ray against ``bvh`` (a ``raycast.BVH``):
    (t, triangle_index) arrays, -1 for a miss. Of the hits within TIE_EPS of
    a ray's minimum t, the lowest triangle index wins, as in the brute-force
    oracle."""
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    n = len(origins)
    out_t = np.full(n, -1.0)
    out_i = np.full(n, -1, dtype=np.int64)
    if n == 0 or len(bvh.count) == 0:
        return out_t, out_i
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs

    ray = np.arange(n)
    node = np.zeros(n, dtype=np.int64)
    hit_ray, hit_tri, hit_t = [], [], []
    while len(ray):
        keep = _slab_hits(origins[ray], inv[ray], bvh.nodes_min[node], bvh.nodes_max[node], t_max)
        ray, node = ray[keep], node[keep]
        count = bvh.count[node]
        leaf = count > 0
        if leaf.any():
            # One row per (ray, triangle) of the leaf: row k of a leaf pair
            # with first row f reads perm[start + k - f].
            count = count[leaf]
            first = np.cumsum(count) - count
            slot = np.arange(count.sum()) - np.repeat(first - bvh.start[node[leaf]], count)
            r = np.repeat(ray[leaf], count)
            tri = bvh.perm[slot]
            t = _triangle_hits(origins[r], dirs[r], bvh.tri_v0[tri], bvh.tri_e1[tri], bvh.tri_e2[tri], t_max)
            found = np.isfinite(t)
            hit_ray.append(r[found])
            hit_tri.append(tri[found])
            hit_t.append(t[found])
        inner = ~leaf
        ray = np.concatenate([ray[inner], ray[inner]])
        node = np.concatenate([bvh.left[node[inner]], bvh.right[node[inner]]])

    if not hit_ray:
        return out_t, out_i
    ray, tri, t = np.concatenate(hit_ray), np.concatenate(hit_tri), np.concatenate(hit_t)
    # Sorting by (ray, t) puts each ray's minimum t first in its run; keep
    # the hits within TIE_EPS of it, then sort those by (ray, triangle).
    order = np.lexsort((t, ray))
    ray, tri, t = ray[order], tri[order], t[order]
    starts = _segment_starts(ray)
    t_min = t[starts][np.cumsum(starts) - 1]
    win = t <= t_min + TIE_EPS
    ray, tri, t = ray[win], tri[win], t[win]
    order = np.lexsort((tri, ray))
    ray, tri, t = ray[order], tri[order], t[order]
    starts = _segment_starts(ray)
    out_t[ray[starts]] = t[starts]
    out_i[ray[starts]] = tri[starts]
    return out_t, out_i

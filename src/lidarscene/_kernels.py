"""Breadth-first BVH traversal of many rays at once, in plain numpy.

``render_rays`` follows the wavefront scheme of Aila & Laine, "Understanding
the Efficiency of Ray Traversal on GPUs" (HPG 2009): it keeps a frontier of
live (ray, node) pairs, slab-tests all of them in one pass, replaces each
surviving internal node by its two children and sends each surviving leaf to
a Moller-Trumbore test against the leaf's triangles. A node is the record
(``first``, ``count``): a leaf holds ``perm[first:first + count]``, an
internal node (``count == 0``) has children ``first`` and ``first + 1``. The
all-triangle oracle ``raycast.intersect_brute`` shares the triangle test, so
both give bit-identical t; it checks the traversal's culling and winner rule.

Every array is component-major (``BVH.bounds`` (6, N), ``BVH.tris`` (9, T),
rays (3, n)), so gathers are ``np.take(a, idx, axis=1)`` and the tests'
elementwise passes run over contiguous rows. A 32x256 street frame slab-tests
118k (ray, node) pairs and runs 59k triangle tests (means over 10 poses): 2.5-2.8
ms of slab tests and 3.0-3.4 ms of triangle tests in 10-12 ms of traversal (2-core
VM; median splits alone gave 233k pairs, 79k tests and 24 ms).
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
    t_near = np.fmax(np.fmax(near[0], near[1]), near[2])
    t_far = np.fmin(np.fmin(far[0], far[1]), far[2])
    return (t_near <= t_far) & (t_far > 0.0) & (t_near <= t_max + TIE_EPS)


def _triangle_hits(o, d, v0, e1, e2, t_max):
    """Two-sided Moller-Trumbore of rays (o, d) against triangles (v0, e1,
    e2), xyz on the first axis and the others broadcast: t of a hit in
    (T_MIN, t_max], inf elsewhere."""
    px = d[1] * e2[2] - d[2] * e2[1]
    py = d[2] * e2[0] - d[0] * e2[2]
    pz = d[0] * e2[1] - d[1] * e2[0]
    det = e1[0] * px + e1[1] * py + e1[2] * pz
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        tx = o[0] - v0[0]
        ty = o[1] - v0[1]
        tz = o[2] - v0[2]
        u = (tx * px + ty * py + tz * pz) * inv
        qx = ty * e1[2] - tz * e1[1]
        qy = tz * e1[0] - tx * e1[2]
        qz = tx * e1[1] - ty * e1[0]
        v = (d[0] * qx + d[1] * qy + d[2] * qz) * inv
        t = (e2[0] * qx + e2[1] * qy + e2[2] * qz) * inv
    ok = (
        (np.abs(det) >= DET_EPS)
        & (u >= 0.0) & (u <= 1.0)
        & (v >= 0.0) & (u + v <= 1.0)
        & (t > T_MIN) & (t <= t_max)
    )
    return np.where(ok, t, np.inf)


def render_rays(origins, dirs, t_max, bvh):
    """Nearest hit of every ray against ``bvh`` (a ``raycast.BVH``):
    (t, triangle_index) arrays, -1 for a miss. Of the hits within TIE_EPS of
    a ray's minimum t, the lowest triangle index wins, as in the brute-force
    oracle."""
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3).T.copy()
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3).T.copy()
    n = origins.shape[1]
    out_t = np.full(n, -1.0)
    out_i = np.full(n, -1, dtype=np.int64)
    if len(bvh.count) == 0:
        return out_t, out_i
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs

    ray = np.arange(n)
    node = np.zeros(n, dtype=np.int64)
    hits = [(ray[:0], ray[:0], np.empty(0))]  # (ray, triangle, t); a frame may hit nothing
    while len(ray):
        box = np.take(bvh.bounds, node, axis=1)
        keep = _slab_hits(np.take(origins, ray, axis=1), np.take(inv, ray, axis=1), *np.split(box, 2), t_max)
        ray, node = ray[keep], node[keep]
        count = bvh.count[node]
        leaf = count > 0
        if leaf.any():
            # One row per (ray, triangle) of the leaf: row k of a leaf pair
            # whose rows start at row r0 reads perm[first + k - r0].
            count = count[leaf]
            row0 = np.cumsum(count) - count
            slot = np.arange(count.sum()) - np.repeat(row0 - bvh.first[node[leaf]], count)
            r = np.repeat(ray[leaf], count)
            tri = bvh.perm[slot]
            rows = np.take(bvh.tris, tri, axis=1)
            t = _triangle_hits(np.take(origins, r, axis=1), np.take(dirs, r, axis=1), *np.split(rows, 3), t_max)
            found = np.isfinite(t)
            hits.append((r[found], tri[found], t[found]))
        inner = ~leaf
        child = bvh.first[node[inner]]
        ray = np.concatenate([ray[inner], ray[inner]])
        node = np.concatenate([child, child + 1])

    ray, tri, t = map(np.concatenate, zip(*hits))
    # Each ray's minimum t, then the lowest triangle index among its hits
    # within TIE_EPS of that minimum; a (ray, triangle) pair occurs once.
    t_min = np.full(n, np.inf)
    np.minimum.at(t_min, ray, t)
    win = t <= t_min[ray] + TIE_EPS
    ray, tri, t = ray[win], tri[win], t[win]
    best = np.full(n, len(bvh.perm))
    np.minimum.at(best, ray, tri)
    won = tri == best[ray]
    out_t[ray[won]] = t[won]
    out_i[ray[won]] = tri[won]
    return out_t, out_i

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

The slab test culls in float32 and every hit is decided in float64. Once per
call, ``_float32_frame`` subtracts a reference point (the root box's centre)
from the boxes and the ray origins in float64, grows every box outward by
``CULL_MARGIN * S``, S being the frame scale (the largest coordinate of the
root box and the origins about that point), rounds the reach t_max + TIE_EPS
up, and casts boxes, origins and reciprocal directions to float32. Rounding
a box face, an origin, their difference, 1/d and the product to float32 moves
a slab parameter (b - o) / d by at most about 4 eps S / |d| (eps = 2^-23);
the float64 test's own rounding is some 2^-50 S / |d|. A face grown by 64 eps S
moves by 64 eps S / |d|, so each float32 near parameter is at most its float64
value and each far parameter at least: the float32 test keeps every pair the
float64 test keeps, and the triangle tests see a superset of the same
candidates, so the winning triangle and t are as with a float64 cull (cf.
Ize, "Robust BVH Ray Traversal", JCGT 2013, which grows the slab interval
by the same kind of error bound). Overflow to +-inf keeps that order (a box
or reach that overflows grows, a product that overflows moves outward), with
one exception: a reciprocal beyond float32's range (|d| < 2.9e-39) becomes
inf, and so can cull a pair that the float64 test keeps at t >= 64 eps S *
3.4e38, which no ray with a direction component above 1e-33 reaches inside
a box. The bound also assumes coordinates within float32's range of the
reference point. A street 1e6 m from the world origin costs the same pairs
as at the origin, since the frame is relative to the scene.

Every array is component-major (``BVH.bounds`` (6, N), ``BVH.tris`` (9, T),
rays (3, n)), so gathers are ``np.take(a, idx, axis=1)`` and the tests'
elementwise passes run over contiguous rows. A 32x256 street frame slab-tests
118k (ray, node) pairs and runs 59k triangle tests (means over 10 poses; the
margin adds 0.02% and 0.03% to a float64 cull's). Medians of 6 runs over the
10 poses, 2-core VM: 1.6 ms of slab gathers, 0.9 ms of float32 slab tests
(float64: 2.2 ms), 1.3 ms of triangle gathers and 2.5 ms of triangle tests in
blocks of TRI_BLOCK (3.2 ms in one call per level) in 8.5 ms of traversal
(9.9 ms with the float64 cull and unblocked triangle tests; median splits
alone gave 233k pairs, 79k tests and 24 ms).
"""

import numpy as np

T_MIN = 1e-4  # self-hit epsilon along the ray
TIE_EPS = 1e-9  # |dt| window inside which the lower triangle index wins
DET_EPS = 1e-12
#: Ray-triangle tests per call of the triangle test in ``render_rays``: its
#: float64 temporaries are then 32 KB each, which glibc's allocator reuses,
#: where larger ones came back as fresh pages. In a loop of street frames and
#: their extraction, a frame's traversal took 2,600-2,800 page faults with one
#: call per level and 300-700 in blocks (12-15 ms against 9-11 ms).
TRI_BLOCK = 4096
#: Outward growth of every float32 box, in units of the frame scale: 16 times
#: the float32 rounding it must cover (module docstring).
CULL_MARGIN = 64 * float(np.finfo(np.float32).eps)


def _slab_hits(o, inv, bmin, bmax, reach):
    """Rows whose ray may meet the box in (0, reach], computed in the
    inputs' dtype and in place where it can (fewer fresh temporaries). A
    zero direction component gives inv = +-inf, and 0 * inf = NaN where the
    origin lies on a slab plane: np.minimum/np.maximum carry the NaN and
    np.fmax/np.fmin then skip that axis, so it never culls a pair."""
    with np.errstate(invalid="ignore", over="ignore"):
        lo = bmin - o
        lo *= inv
        hi = bmax - o
        hi *= inv
    near = np.minimum(lo, hi)
    far = np.maximum(lo, hi, out=hi)
    t_near = np.fmax(near[0], near[1])
    np.fmax(t_near, near[2], out=t_near)
    t_far = np.fmin(far[0], far[1])
    np.fmin(t_far, far[2], out=t_far)
    keep = t_near <= t_far
    keep &= t_far > 0.0
    keep &= t_near <= reach
    return keep


def _float32_frame(origins, inv, t_max, bounds):
    """The float32 slab test's inputs (see the module docstring): the rays
    as (6, n) rows of origin and reciprocal direction, the node boxes (6, N)
    grown by the margin, both about the root box's centre, and the reach
    t_max + TIE_EPS rounded up. What exceeds float32's range becomes +-inf."""
    ref = (bounds[:3, :1] + bounds[3:, :1]) / 2.0
    o = origins - ref
    box = bounds - np.vstack([ref, ref])
    margin = CULL_MARGIN * max(np.abs(box[:, 0]).max(), np.abs(o).max(initial=0.0))  # the root box holds every box
    box[:3] -= margin
    box[3:] += margin
    reach = t_max + TIE_EPS
    with np.errstate(over="ignore"):
        reach32 = np.float32(reach)
        rays32 = np.vstack([o, inv]).astype(np.float32)
        box32 = box.astype(np.float32)
    return rays32, box32, np.nextafter(reach32, np.float32(np.inf)) if float(reach32) < reach else reach32


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
        ok = (  # det = 0, a ray in the triangle's plane, makes u + v inf - inf
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
    rays32, bounds32, reach32 = _float32_frame(origins, inv, t_max, bvh.bounds)

    ray = np.arange(n)
    node = np.zeros(n, dtype=np.int64)
    hits = [(ray[:0], ray[:0], np.empty(0))]  # (ray, triangle, t); a frame may hit nothing
    while len(ray):
        box = np.take(bounds32, node, axis=1)
        slab = np.take(rays32, ray, axis=1)
        keep = _slab_hits(slab[:3], slab[3:], box[:3], box[3:], reach32)
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
            for a in range(0, len(r), TRI_BLOCK):
                rb, tb = r[a:a + TRI_BLOCK], tri[a:a + TRI_BLOCK]
                rows = np.take(bvh.tris, tb, axis=1)
                t = _triangle_hits(np.take(origins, rb, axis=1), np.take(dirs, rb, axis=1), rows[:3], rows[3:6], rows[6:], t_max)
                found = np.isfinite(t)
                hits.append((rb[found], tb[found], t[found]))
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

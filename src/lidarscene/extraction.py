"""Inverting observations into layouts: pseudo point clouds from
depth+semantic maps, DBSCAN clustering per label, oriented-box fitting
and layout assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import DEFAULT_PALETTE, Layout, SemanticPrimitive, rotate_yaw
from .sensor import LabeledPointCloud, label_ids

NOISE = -1

#: Default per-label clustering parameters (eps meters, min_pts) and the
#: shape each label's clusters are fit as. Ground/road are the "plane"
#: labels handled by the single-plane rule.
DEFAULT_CLUSTER_PARAMS = {
    "car": (0.8, 10),
    "vegetation": (1.5, 10),
    "building": (2.0, 20),
}
DEFAULT_SHAPE_MAP = {
    "ground": "plane",
    "road": "plane",
    "building": "cuboid",
    "car": "cuboid",
    "vegetation": "ellipsoid",
}
MIN_EXTENT = 0.1


class ExtractionError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterParams:
    eps: float
    min_pts: int

    def __post_init__(self):
        if not 0 < self.eps < math.inf or self.min_pts < 1:  # NaN fails too
            raise ExtractionError("eps must be finite and > 0, and min_pts >= 1")


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):  # NaN fails too
            raise ExtractionError(f"focal lengths must be finite and positive, got fx={self.fx}, fy={self.fy}")


def unproject_depth_semantic(depth_map, sem_map, intr: CameraIntrinsics) -> LabeledPointCloud:
    """Pinhole unprojection of a depth+semantic image pair into a sensor
    frame pseudo point cloud (camera +z -> sensor +x, camera +x -> -y,
    camera +y -> -z). The principal point must lie inside the maps' shape."""
    depth_map = np.asarray(depth_map, dtype=np.float64)
    sem_map = np.asarray(sem_map)
    if depth_map.ndim != 2 or depth_map.shape != sem_map.shape:
        raise ExtractionError(f"depth and semantic maps must share one 2-D shape, got {depth_map.shape} and {sem_map.shape}")
    height, width = depth_map.shape
    if not (0 <= intr.cx < width and 0 <= intr.cy < height):  # NaN and inf fail too
        raise ExtractionError(f"principal point ({intr.cx}, {intr.cy}) outside the {width}x{height} image")
    v, u = np.nonzero(depth_map > 0)
    d = depth_map[v, u]
    x_cam = (u - intr.cx) * d / intr.fx
    y_cam = (v - intr.cy) * d / intr.fy
    pts = np.stack([d, -x_cam, -y_cam], axis=1)
    return LabeledPointCloud(pts, label_ids(sem_map)[v, u])


def dbscan(points, params: ClusterParams) -> np.ndarray:
    """Per-point cluster ids (NOISE = -1) under standard DBSCAN with
    Euclidean closed-ball eps-neighborhoods (each point neighbors itself).
    Seeds are scanned in ascending index order; border points join the
    first cluster that claims them, which is the lowest cluster id.

    No neighborhood is enumerated. One k-d tree query for each point's
    ``min_pts`` nearest neighbors within eps decides the core points: a
    point is core iff its ``min_pts``-th distance, itself included, is at
    most eps. The core-to-core pairs that query returns split the core
    points into fragments, each inside a single cluster (labelled by
    min-label hooking and pointer jumping). A cluster then grows
    breadth-first from its seed's fragment: each level builds a k-d tree
    on the cores it added last, asks which unlabeled points inside its
    box lie within eps of them, and adds every fragment of a core point it
    reaches whole. Within a single cluster the reachable set does not
    depend on visit order, so the ids equal the textbook
    one-point-at-a-time expansion's.
    """
    from scipy.spatial import cKDTree

    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n, eps = len(points), params.eps
    reach = eps * (1.0 + 1e-12)  # a tree bound that drops no distance <= eps
    dist, nbr = cKDTree(points).query(points, k=params.min_pts, distance_upper_bound=reach)
    dist, nbr = dist.reshape(n, params.min_pts), nbr.reshape(n, params.min_pts)
    core = dist[:, -1] <= eps

    # Fragments: components of the core-to-core k-NN pairs within eps,
    # each named by its lowest index.
    rows, cols = np.nonzero(dist <= eps)
    u, v = rows, nbr[rows, cols]
    both = core[u] & core[v]
    u, v = u[both], v[both]
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            break
        # Hook the larger root under the smaller, then jump to the roots.
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while not np.array_equal(jumped := root[root], root):
            root = jumped

    labels = np.full(n, NOISE, dtype=np.int64)  # NOISE until a cluster claims the point
    unlabeled = np.arange(n, dtype=np.int64)
    cluster = 0
    for i in np.flatnonzero(core):
        if labels[i] != NOISE:
            continue
        frontier = np.flatnonzero(core & (root == root[i]))
        while len(frontier):
            labels[frontier] = cluster
            unlabeled = unlabeled[labels[unlabeled] == NOISE]
            fp = points[frontier]
            # One ulp past the rounded box edge keeps every point within reach.
            lo = np.nextafter(fp.min(axis=0) - reach, -np.inf)
            hi = np.nextafter(fp.max(axis=0) + reach, np.inf)
            up = points[unlabeled]
            cand = unlabeled[((up >= lo) & (up <= hi)).all(axis=1)]
            d, _ = cKDTree(fp).query(points[cand], distance_upper_bound=reach)
            new = cand[d <= eps]
            labels[new] = cluster
            frontier = np.flatnonzero(core & np.isin(root, root[new[core[new]]]))
        cluster += 1
    return labels


def fit_box(points):
    """Yaw-oriented bounding box of a point set: yaw from the principal
    XY-covariance eigenvector (degenerate/tied spectra fall back to 0),
    extents floored at 0.1 m. Returns (center, extents, yaw)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ExtractionError("cannot fit a box to an empty point set")
    xy = points[:, :2] - points[:, :2].mean(axis=0)
    cov = (xy.T @ xy) / len(points)
    evals, evecs = np.linalg.eigh(cov)
    # eigh sorts ascending; the principal axis is the last column.
    if evals[1] - evals[0] <= 1e-12 * max(evals[1], 1.0):
        yaw = 0.0
    else:
        vx, vy = evecs[:, 1]
        yaw = math.atan2(vy, vx)
        # Box orientation is axis-symmetric; canonicalize to [-pi/2, pi/2).
        yaw = (yaw + math.pi / 2.0) % math.pi - math.pi / 2.0
    bx, by = rotate_yaw(points[:, 0], points[:, 1], -yaw)
    lo = np.array([bx.min(), by.min(), points[:, 2].min()])
    hi = np.array([bx.max(), by.max(), points[:, 2].max()])
    extents = np.maximum(hi - lo, MIN_EXTENT)
    mid = (lo + hi) / 2.0
    return (*rotate_yaw(mid[0], mid[1], yaw), float(mid[2])), tuple(extents), yaw


def extract_layout(cloud: LabeledPointCloud, params_by_label: dict | None = None) -> Layout:
    """Cluster the points of each DEFAULT_PALETTE label and fit one primitive
    per cluster, with DEFAULT_CLUSTER_PARAMS unless ``params_by_label``
    (label name -> ClusterParams) overrides them. Plane-shaped labels (ground,
    road) instead get a single plane spanning their XY AABB at the median z.
    A key that names no clustered label raises ExtractionError."""
    params = {name: ClusterParams(*p) for name, p in DEFAULT_CLUSTER_PARAMS.items()}
    for name in params_by_label or {}:
        if name not in params:
            raise ExtractionError(f"no clustered label {name!r}; expected one of {sorted(params)}")
    params.update(params_by_label or {})

    prims = []
    for label, lab in enumerate(DEFAULT_PALETTE):
        mask = cloud.labels == label
        if not mask.any():
            continue
        pts = cloud.points[mask]
        shape = DEFAULT_SHAPE_MAP[lab.name]
        if shape == "plane":
            lo = pts[:, :2].min(axis=0)
            hi = pts[:, :2].max(axis=0)
            z = float(np.median(pts[:, 2]))
            extents = (max(hi[0] - lo[0], MIN_EXTENT), max(hi[1] - lo[1], MIN_EXTENT), 0.0)
            center = ((lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0, z)
            prims.append(SemanticPrimitive(label, "plane", center, extents))
            continue
        ids = dbscan(pts, params[lab.name])
        for cid in range(ids.max() + 1):
            cluster_pts = pts[ids == cid]
            center, extents, yaw = fit_box(cluster_pts)
            prims.append(SemanticPrimitive(label, shape, center, extents, yaw))
    return Layout(primitives=tuple(prims))

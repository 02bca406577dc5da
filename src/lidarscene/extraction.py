"""Inverting observations into layouts: pseudo point clouds from
depth+semantic maps, DBSCAN clustering per label, oriented-box fitting
and layout assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import DEFAULT_PALETTE, Layout, SemanticPrimitive, rotate_yaw
from .sensor import LabeledPointCloud

NOISE = -1
UNVISITED = -2

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
        if self.eps <= 0 or self.min_pts < 1:
            raise ExtractionError("eps must be > 0 and min_pts >= 1")


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ExtractionError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ExtractionError("principal point outside image")


def unproject_depth_semantic(depth_map, sem_map, intr: CameraIntrinsics) -> LabeledPointCloud:
    """Pinhole unprojection of a depth+semantic image pair into a sensor
    frame pseudo point cloud (camera +z -> sensor +x, camera +x -> -y,
    camera +y -> -z)."""
    depth_map = np.asarray(depth_map, dtype=np.float64)
    sem_map = np.asarray(sem_map)
    if depth_map.shape != sem_map.shape or depth_map.shape != (intr.height, intr.width):
        raise ExtractionError(
            f"map shape {depth_map.shape} does not match intrinsics "
            f"({intr.height}x{intr.width})"
        )
    v, u = np.nonzero(depth_map > 0)
    d = depth_map[v, u]
    x_cam = (u - intr.cx) * d / intr.fx
    y_cam = (v - intr.cy) * d / intr.fy
    pts = np.stack([d, -x_cam, -y_cam], axis=1)
    return LabeledPointCloud(pts, np.rint(sem_map[v, u]).astype(np.int64))


def dbscan(points, params: ClusterParams) -> np.ndarray:
    """Per-point cluster ids (NOISE = -1) under standard DBSCAN with
    Euclidean closed-ball eps-neighborhoods (each point neighbors itself).
    Seeds are scanned in ascending index order; border points join the
    first cluster that claims them.

    Clusters expand breadth-first in batches: each level gathers the
    neighborhoods of all unexpanded core points on the frontier in one
    k-d tree query, which keeps the heavy work vectorized. The resulting
    partition is identical to the textbook one-point-at-a-time expansion,
    because within a single cluster the reachable set does not depend on
    visit order.
    """
    from scipy.spatial import cKDTree

    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(points)
    labels = np.full(n, UNVISITED, dtype=np.int64)
    if n == 0:
        return labels
    tree = cKDTree(points)
    core = tree.query_ball_point(points, params.eps, return_length=True) >= params.min_pts
    # Inverted frontier query: instead of enumerating each core point's
    # (possibly huge) ball, each level asks which unlabeled points lie
    # within eps of the frontier set, so every point is touched once per
    # level rather than once per neighbor.
    unlabeled = np.arange(n, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != UNVISITED or not core[i]:
            continue
        labels[i] = cluster
        unlabeled = unlabeled[labels[unlabeled] == UNVISITED]
        frontier = np.array([i], dtype=np.int64)
        while len(frontier):
            ftree = cKDTree(points[frontier])
            dist, _ = ftree.query(
                points[unlabeled], k=1, distance_upper_bound=params.eps * (1.0 + 1e-12)
            )
            new = unlabeled[dist <= params.eps]
            labels[new] = cluster
            unlabeled = unlabeled[dist > params.eps]
            frontier = new[core[new]]
        cluster += 1
    labels[labels == UNVISITED] = NOISE
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
    (label id -> ClusterParams) overrides them. Plane-shaped labels (ground,
    road) instead get a single plane spanning their XY AABB at the median z."""
    palette = tuple(DEFAULT_PALETTE)
    params = {
        lab.id: ClusterParams(*DEFAULT_CLUSTER_PARAMS[lab.name])
        for lab in palette
        if lab.name in DEFAULT_CLUSTER_PARAMS
    }
    params.update(params_by_label or {})

    prims = []
    for lab in palette:
        mask = cloud.labels == lab.id
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
            prims.append(SemanticPrimitive(lab.id, "plane", center, extents))
            continue
        ids = dbscan(pts, params[lab.id])
        for cid in range(ids.max() + 1):
            cluster_pts = pts[ids == cid]
            center, extents, yaw = fit_box(cluster_pts)
            prims.append(SemanticPrimitive(lab.id, shape, center, extents, yaw))
    return Layout(palette=palette, primitives=tuple(prims))

"""Distribution metrics for generated point clouds: BEV-occupancy JSD,
Chamfer distance, minimum-matching distance over cloud sets, a pluggable
Gaussian Frechet distance, and a layout-consistency score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .layout import Layout, Pose
from .sensor import LabeledPointCloud, RangeImage, SensorSpec


#: Bins of the ``log_depth_features`` histogram.
DEPTH_FEATURE_BINS = 64
#: A car counts toward box recall when at least this many points fall in its
#: box, grown by CAR_DILATION meters in XY and upward.
CAR_MIN_POINTS = 20
CAR_DILATION = 0.5


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class BevGrid:
    x_bounds: tuple = (-80.0, 80.0)
    y_bounds: tuple = (-80.0, 80.0)
    resolution: int = 100  # bins per axis


@dataclass(frozen=True)
class Histogram:
    grid: BevGrid
    probs: np.ndarray  # resolution x resolution, sums to 1 unless empty
    empty: bool


def bev_histogram(cloud: LabeledPointCloud, grid: BevGrid = BevGrid()) -> Histogram:
    """Normalized 2D occupancy over XY; out-of-bounds points are ignored."""
    if grid.resolution < 1:
        raise MetricError("resolution must be >= 1")
    counts, _, _ = np.histogram2d(
        cloud.points[:, 0],
        cloud.points[:, 1],
        bins=grid.resolution,
        range=[grid.x_bounds, grid.y_bounds],
    )
    total = counts.sum()
    if total == 0:
        return Histogram(grid, counts, empty=True)
    return Histogram(grid, counts / total, empty=False)


def jsd(p: Histogram, q: Histogram) -> float:
    """Jensen-Shannon divergence in nats: JSD = KL(P||M)/2 + KL(Q||M)/2
    with M the equal mixture; bounded by ln 2."""
    if p.grid != q.grid:
        raise MetricError("histogram grids differ")
    pp = p.probs.ravel()
    qq = q.probs.ravel()
    m = (pp + qq) / 2.0

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    return 0.5 * kl(pp, m) + 0.5 * kl(qq, m)


def chamfer(x, y) -> float:
    """Symmetric mean squared nearest-neighbor distance between two point
    sets (kd-tree accelerated; equals the brute-force double loop)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) == 0 or len(y) == 0:
        raise MetricError("chamfer requires nonempty sets")
    d_xy, _ = cKDTree(y).query(x)
    d_yx, _ = cKDTree(x).query(y)
    return float(np.mean(d_xy**2) + np.mean(d_yx**2))


def mmd(gen_clouds, ref_clouds) -> float:
    """Minimum matching distance: mean over reference clouds of the
    minimum Chamfer distance to any generated cloud."""
    if not gen_clouds or not ref_clouds:
        raise MetricError("mmd requires nonempty cloud sets")
    total = 0.0
    for ref in ref_clouds:
        total += min(chamfer(gen, ref) for gen in gen_clouds)
    return total / len(ref_clouds)


def frechet(a, b) -> float:
    """Gaussian Frechet distance |mu_a - mu_b|^2 + Tr(Sa + Sb - 2(Sa Sb)^{1/2})
    between two N x D feature sets; clamped to >= 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise MetricError("feature sets must be N x D with matching D")
    if len(a) < 2 or len(b) < 2:
        raise MetricError("need N >= 2 per set for covariance estimation")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    ca = np.cov(a, rowvar=False).reshape(a.shape[1], a.shape[1])
    cb = np.cov(b, rowvar=False).reshape(b.shape[1], b.shape[1])
    # Tr((Sa Sb)^{1/2}) via the symmetrized product sqrt(Sa) Sb sqrt(Sa).
    evals_a, evecs_a = np.linalg.eigh(ca)
    sqrt_a = (evecs_a * np.sqrt(np.clip(evals_a, 0.0, None))) @ evecs_a.T
    sym = sqrt_a @ cb @ sqrt_a
    sym = (sym + sym.T) / 2.0
    evals = np.clip(np.linalg.eigvalsh(sym), 0.0, None)
    trace_sqrt = float(np.sum(np.sqrt(evals)))
    dist = float(mu_a @ mu_a - 2.0 * mu_a @ mu_b + mu_b @ mu_b) + float(
        np.trace(ca) + np.trace(cb) - 2.0 * trace_sqrt
    )
    return max(dist, 0.0)


def log_depth_features(img: RangeImage) -> np.ndarray:
    """Built-in feature extractor: DEPTH_FEATURE_BINS-bin histogram of
    normalized log depths over returned pixels. A stand-in so Frechet-style
    comparisons run without a pretrained backbone (not a perceptual
    feature)."""
    depth = img.depth[img.depth > 0]
    edges = np.linspace(0.0, 1.0, DEPTH_FEATURE_BINS + 1)
    if len(depth) == 0:
        return np.zeros(DEPTH_FEATURE_BINS)
    norm = np.log1p(depth) / math.log(img.spec.max_range + 1.0)
    counts, _ = np.histogram(np.clip(norm, 0.0, 1.0), bins=edges)
    return counts / counts.sum()


def _points_in_box(points, center, extents, yaw):
    c, s = math.cos(-yaw), math.sin(-yaw)
    dx = points[:, 0] - center[0]
    dy = points[:, 1] - center[1]
    lx = c * dx - s * dy
    ly = s * dx + c * dy
    lz = points[:, 2] - center[2]
    hx, hy, hz = extents[0] / 2.0, extents[1] / 2.0, extents[2] / 2.0
    return (np.abs(lx) <= hx) & (np.abs(ly) <= hy) & (np.abs(lz) <= hz)


def layout_consistency(
    layout: Layout,
    cloud: LabeledPointCloud,
    spec: SensorSpec = SensorSpec(),
    pose: Pose = Pose(),
):
    """(box_recall, bev_iou) of a cloud against its conditioning layout.

    box_recall: fraction of car primitives whose box, dilated by
    CAR_DILATION in XY and upward, contains at least CAR_MIN_POINTS cloud
    points. The box floor is lifted 0.1 m so ground returns under an absent
    car never count toward its recall. bev_iou: IoU of the occupied BEV
    cells (1 m resolution) of the cloud versus the layout's own raycast
    cloud. The cloud is taken in world frame.
    """
    from .raycast import render_point_cloud

    car_id = layout.label_by_name("car").id
    cars = [p for p in layout.primitives if p.label == car_id]
    if len(cloud) == 0:
        return 0.0, 0.0
    if cars:
        hits = 0
        for prim in cars:
            z_lo = prim.center[2] - prim.extents[2] / 2.0 + 0.1
            z_hi = prim.center[2] + prim.extents[2] / 2.0 + CAR_DILATION
            ext = (
                prim.extents[0] + 2.0 * CAR_DILATION,
                prim.extents[1] + 2.0 * CAR_DILATION,
                z_hi - z_lo,
            )
            center = (prim.center[0], prim.center[1], (z_lo + z_hi) / 2.0)
            if int(_points_in_box(cloud.points, center, ext, prim.yaw).sum()) >= CAR_MIN_POINTS:
                hits += 1
        box_recall = hits / len(cars)
    else:
        box_recall = 1.0

    ref_cloud = render_point_cloud(layout, spec, pose)
    grid = BevGrid((-80.0, 80.0), (-80.0, 80.0), 160)
    occ_a = bev_histogram(cloud, grid).probs > 0
    occ_b = bev_histogram(ref_cloud, grid).probs > 0
    union = np.logical_or(occ_a, occ_b).sum()
    if union == 0:
        return box_recall, 0.0
    inter = np.logical_and(occ_a, occ_b).sum()
    return box_recall, float(inter / union)

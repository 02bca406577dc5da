"""Layout -> labeled triangle mesh conversion (the raycasting substrate)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import Layout, SemanticPrimitive

DEFAULT_TESSELLATION = 32


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup with a semantic label id per triangle."""

    vertices: np.ndarray  # V x 3 float64
    triangles: np.ndarray  # T x 3 int64
    triangle_labels: np.ndarray  # T int64

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        tris = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        labels = np.asarray(self.triangle_labels, dtype=np.int64).reshape(-1)
        if len(labels) != len(tris):
            raise MeshError("triangle_labels length mismatch")
        if len(tris) and (tris.min() < 0 or tris.max() >= len(verts)):
            raise MeshError("triangle index out of range")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "triangle_labels", labels)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def empty_mesh() -> TriangleMesh:
    return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64))


def transform(verts, center, yaw):
    """N x 3 points turned by ``yaw`` about +z, then moved to ``center``."""
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return verts @ rot.T + np.asarray(center, dtype=np.float64)


def _cuboid_mesh(extents):
    hx, hy, hz = np.asarray(extents, dtype=np.float64) / 2.0
    verts = np.array(
        [[sx * hx, sy * hy, sz * hz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    # Two triangles per face, outward winding.
    faces = [
        (0, 1, 3), (0, 3, 2),  # -x
        (4, 6, 7), (4, 7, 5),  # +x
        (0, 4, 5), (0, 5, 1),  # -y
        (2, 3, 7), (2, 7, 6),  # +y
        (0, 2, 6), (0, 6, 4),  # -z
        (1, 5, 7), (1, 7, 3),  # +z
    ]
    return verts, np.array(faces, dtype=np.int64)


def _plane_mesh(extents):
    hx, hy = extents[0] / 2.0, extents[1] / 2.0
    verts = np.array([[-hx, -hy, 0.0], [hx, -hy, 0.0], [hx, hy, 0.0], [-hx, hy, 0.0]])
    return verts, np.array([(0, 1, 2), (0, 2, 3)], dtype=np.int64)


def _ellipsoid_mesh(extents, segments, rings):
    rx, ry, rz = np.asarray(extents, dtype=np.float64) / 2.0
    phi = (math.pi * np.arange(1, rings) / rings)[:, None]  # polar angle from +z, one row per inner ring
    theta = 2.0 * math.pi * np.arange(segments) / segments
    x = rx * np.sin(phi) * np.cos(theta)
    y = ry * np.sin(phi) * np.sin(theta)
    z = np.broadcast_to(rz * np.cos(phi), x.shape)
    verts = np.vstack([[[0.0, 0.0, rz], [0.0, 0.0, -rz]], np.stack([x, y, z], axis=-1).reshape(-1, 3)])
    # vid[r - 1, s]: vertex s of ring r, with s = segments wrapping to 0.
    vid = 2 + np.arange(rings - 1)[:, None] * segments + np.arange(segments + 1) % segments
    top = np.stack([np.zeros(segments, dtype=np.int64), vid[0, :-1], vid[0, 1:]], axis=-1)
    bottom = np.stack([np.ones(segments, dtype=np.int64), vid[-1, 1:], vid[-1, :-1]], axis=-1)
    a, b, c, d = vid[:-1, :-1], vid[:-1, 1:], vid[1:, :-1], vid[1:, 1:]  # quads between rings
    quads = np.stack([np.stack([a, c, d], axis=-1), np.stack([a, d, b], axis=-1)], axis=-2)
    return verts, np.vstack([np.stack([top, bottom], axis=1).reshape(-1, 3), quads.reshape(-1, 3)])


def mesh_primitive(prim: SemanticPrimitive, tessellation: int = DEFAULT_TESSELLATION) -> TriangleMesh:
    """Tessellate one primitive: cuboid -> 12 triangles, plane -> 2,
    ellipsoid -> UV sphere with `tessellation` segments (rings fixed at
    tessellation/2, minimum 2)."""
    if prim.shape == "cuboid":
        verts, faces = _cuboid_mesh(prim.extents)
    elif prim.shape == "plane":
        verts, faces = _plane_mesh(prim.extents)
    else:
        if tessellation < 3:
            raise MeshError("ellipsoid tessellation must be >= 3")
        verts, faces = _ellipsoid_mesh(prim.extents, tessellation, max(2, tessellation // 2))
    verts = transform(verts, prim.center, prim.yaw)
    labels = np.full(len(faces), prim.label, dtype=np.int64)
    return TriangleMesh(verts, faces, labels)


def mesh_layout(layout: Layout, tessellation: int = DEFAULT_TESSELLATION) -> TriangleMesh:
    """Concatenation of all primitive meshes, preserving primitive order."""
    if not layout.primitives:
        return empty_mesh()
    verts, faces, labels = [], [], []
    offset = 0
    for prim in layout.primitives:
        m = mesh_primitive(prim, tessellation)
        verts.append(m.vertices)
        faces.append(m.triangles + offset)
        labels.append(m.triangle_labels)
        offset += len(m.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(faces), np.concatenate(labels))


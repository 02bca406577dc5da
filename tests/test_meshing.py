import math

import numpy as np
import pytest

from lidarscene.layout import Layout, SemanticPrimitive, generate_random_scene
from lidarscene.meshing import MeshError, TriangleMesh, mesh_layout, mesh_primitive


def signed_volume(mesh):
    """Divergence-theorem volume; positive iff winding is outward."""
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    return float(np.einsum("ij,ij->", a, np.cross(b, c)) / 6.0)


def edge_counts(mesh):
    counts = {}
    for tri in mesh.triangles:
        for k in range(3):
            e = tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3]))))
            counts[e] = counts.get(e, 0) + 1
    return counts


def test_cuboid_counts_and_volume():
    prim = SemanticPrimitive(3, "cuboid", (1.0, 2.0, 3.0), (2.0, 3.0, 4.0), 0.4)
    mesh = mesh_primitive(prim)
    assert len(mesh.vertices) == 8
    assert mesh.num_triangles == 12
    assert signed_volume(mesh) == pytest.approx(2.0 * 3.0 * 4.0)
    assert mesh.triangle_areas().sum() == pytest.approx(2 * (2 * 3 + 3 * 4 + 2 * 4))
    assert (mesh.triangle_labels == 3).all()


def test_cuboid_watertight():
    mesh = mesh_primitive(SemanticPrimitive(0, "cuboid", (0, 0, 0), (1, 1, 1)))
    assert all(n == 2 for n in edge_counts(mesh).values())


def test_cuboid_yaw_rotates_vertices():
    base = mesh_primitive(SemanticPrimitive(0, "cuboid", (0, 0, 0), (2, 1, 1)))
    rot = mesh_primitive(SemanticPrimitive(0, "cuboid", (0, 0, 0), (2, 1, 1), math.pi / 2))
    c, s = 0.0, 1.0
    expect = base.vertices @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1.0]])
    np.testing.assert_allclose(rot.vertices, expect, atol=1e-12)


def test_plane_two_triangles():
    mesh = mesh_primitive(SemanticPrimitive(0, "plane", (0, 0, 0.5), (10.0, 4.0, 0.0)))
    assert mesh.num_triangles == 2
    assert mesh.triangle_areas().sum() == pytest.approx(40.0)
    np.testing.assert_allclose(mesh.vertices[:, 2], 0.5)
    # outward = +z winding
    a, b, c = (mesh.vertices[i] for i in mesh.triangles[0])
    assert np.cross(b - a, c - a)[2] > 0


@pytest.mark.parametrize("segments", [3, 4, 5, 16])
def test_ellipsoid_counts(segments):
    rings = max(2, segments // 2)
    mesh = mesh_primitive(SemanticPrimitive(4, "ellipsoid", (0, 0, 0), (2, 2, 2)), segments)
    assert len(mesh.vertices) == 2 + (rings - 1) * segments
    assert mesh.num_triangles == 2 * segments + 2 * segments * (rings - 2)
    assert all(n == 2 for n in edge_counts(mesh).values())


def test_ellipsoid_vertices_on_surface():
    ext = (2.0, 4.0, 6.0)
    mesh = mesh_primitive(SemanticPrimitive(4, "ellipsoid", (0, 0, 0), ext), 24)
    q = (mesh.vertices / (np.array(ext) / 2.0)) ** 2
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)


def test_ellipsoid_convergence_to_sphere():
    # volume of the tessellation approaches 4/3 pi r^3 from below
    target = 4.0 / 3.0 * math.pi
    prim = SemanticPrimitive(4, "ellipsoid", (0, 0, 0), (2, 2, 2))
    vols = [signed_volume(mesh_primitive(prim, t)) for t in (8, 16, 32, 64)]
    assert all(v < target for v in vols)
    assert vols == sorted(vols)
    assert vols[-1] == pytest.approx(target, rel=0.01)


def test_ellipsoid_min_tessellation():
    with pytest.raises(MeshError):
        mesh_primitive(SemanticPrimitive(4, "ellipsoid", (0, 0, 0), (1, 1, 1)), 2)


def test_mesh_layout_concatenates_in_order():
    lay = generate_random_scene(9)
    mesh = mesh_layout(lay, 16)
    parts = [mesh_primitive(p, 16) for p in lay.primitives]
    assert mesh.num_triangles == sum(p.num_triangles for p in parts)
    np.testing.assert_allclose(mesh.vertices, np.vstack([p.vertices for p in parts]))
    np.testing.assert_array_equal(
        mesh.triangle_labels, np.concatenate([p.triangle_labels for p in parts])
    )
    # per-triangle labels survive with correct offsets
    offset = 0
    for part in parts:
        np.testing.assert_array_equal(
            mesh.triangles[offset : offset + part.num_triangles],
            part.triangles + (mesh.triangles[offset].min() - part.triangles[0].min()),
        )
        offset += part.num_triangles


def test_empty_layout_empty_mesh():
    mesh = mesh_layout(Layout())
    assert mesh.num_triangles == 0 and len(mesh.vertices) == 0


def test_mesh_validation():
    with pytest.raises(MeshError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]), np.array([0]))
    with pytest.raises(MeshError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]), np.array([0, 1]))

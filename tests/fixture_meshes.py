"""Primitive meshes with known normals and sharp-edge counts, the
fixtures of the rasterizer and sharp-edge tests."""

import math

import numpy as np

from normalbridge.geom import TriMesh


def cube_mesh() -> TriMesh:
    """The unit cube centered on the origin: 12 faces, 12 sharp edges."""
    s = 0.5
    v = np.array(
        [[-s, -s, -s], [s, -s, -s], [s, s, -s], [-s, s, -s],
         [-s, -s, s], [s, -s, s], [s, s, s], [-s, s, s]]
    )
    quads = [
        (0, 3, 2, 1),  # bottom (-z)
        (4, 5, 6, 7),  # top (+z)
        (0, 1, 5, 4),  # -y
        (2, 3, 7, 6),  # +y
        (1, 2, 6, 5),  # +x
        (3, 0, 4, 7),  # -x
    ]
    faces = []
    for a, b, c, d in quads:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return TriMesh(v, np.array(faces))


def icosahedron_mesh() -> TriMesh:
    """The icosahedron of unit circumradius: 20 faces, 30 edges whose face
    normals meet at ~41.81 degrees."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array(
        [[-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
         [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
         [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1]],
        dtype=np.float64,
    )
    raw /= np.linalg.norm(raw[0])
    faces = np.array(
        [[0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
         [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
         [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
         [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]]
    )
    return TriMesh(raw, faces)

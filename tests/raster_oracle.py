"""Brute-force per-pixel nearest-triangle rasterization oracle.

Pixel-major: for every pixel center, test every triangle and keep the
nearest positive-depth hit. Written with scalar float arithmetic in the
same expression order as the production rasterizer so agreement must be
bit-exact, while the traversal/z-buffer logic is independent. A
perspective camera interpolates over 1/depth, in the production
rasterizer's q/qs order.
"""

import math

import numpy as np

from normalbridge.geom import TriMesh, Camera, vertex_normals
from normalbridge.maps import NormalMap


def rasterize_oracle(mesh: TriMesh, camera: Camera):
    h_px, w_px = camera.resolution
    zbuf = np.full((h_px, w_px), np.inf)
    nbuf = np.zeros((h_px, w_px, 3))
    nbuf[..., 2] = 1.0
    mask = np.zeros((h_px, w_px), dtype=bool)

    px, py, depth = camera.project(mesh.vertices)
    persp = camera.mode == "perspective"
    n_cam = camera.to_camera_normals(
        mesh.vertex_norms if mesh.vertex_norms is not None else vertex_normals(mesh)
    )

    tris = []
    for f in mesh.faces:
        i0, i1, i2 = int(f[0]), int(f[1]), int(f[2])
        if depth[i0] <= 0.0 and depth[i1] <= 0.0 and depth[i2] <= 0.0:
            continue
        tris.append((i0, i1, i2))

    for iy in range(h_px):
        gy = float(iy)
        for ix in range(w_px):
            gx = float(ix)
            best = math.inf
            best_n = None
            for i0, i1, i2 in tris:
                x0, y0 = float(px[i0]), float(py[i0])
                x1, y1 = float(px[i1]), float(py[i1])
                x2, y2 = float(px[i2]), float(py[i2])
                w0 = (x2 - x1) * (gy - y1) - (y2 - y1) * (gx - x1)
                w1 = (x0 - x2) * (gy - y2) - (y0 - y2) * (gx - x2)
                w2 = (x1 - x0) * (gy - y0) - (y1 - y0) * (gx - x0)
                if not ((w0 >= 0.0 and w1 >= 0.0 and w2 >= 0.0) or (w0 <= 0.0 and w1 <= 0.0 and w2 <= 0.0)):
                    continue
                wsum = w0 + w1 + w2
                if wsum == 0.0:
                    continue
                l0 = w0 / wsum
                l1 = w1 / wsum
                l2 = w2 / wsum
                frag_depth = l0 * depth[i0] + l1 * depth[i1] + l2 * depth[i2]
                if persp:
                    # numpy scalars: a zero depth gives inf or nan, not an exception
                    q0 = l0 / depth[i0]
                    q1 = l1 / depth[i1]
                    q2 = l2 / depth[i2]
                    qs = q0 + q1 + q2
                    if qs == 0.0:
                        continue  # infinite depth never passes the z-test
                    frag_depth = 1.0 / qs
                    l0, l1, l2 = q0 / qs, q1 / qs, q2 / qs  # normals take these weights
                if frag_depth <= 0.0 or not frag_depth < best:
                    continue
                nx = l0 * n_cam[i0, 0] + l1 * n_cam[i1, 0] + l2 * n_cam[i2, 0]
                ny = l0 * n_cam[i0, 1] + l1 * n_cam[i1, 1] + l2 * n_cam[i2, 1]
                nz = l0 * n_cam[i0, 2] + l1 * n_cam[i1, 2] + l2 * n_cam[i2, 2]
                nlen = math.sqrt(nx * nx + ny * ny + nz * nz)
                if nlen == 0.0:
                    nlen = 1.0
                best = frag_depth
                best_n = (nx / nlen, ny / nlen, nz / nlen)
            if best_n is not None:
                zbuf[iy, ix] = best
                nbuf[iy, ix] = best_n
                mask[iy, ix] = True

    return NormalMap(nbuf, mask), zbuf

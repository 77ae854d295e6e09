"""Triangle meshes: normals, multi-view rasterization, edge statistics.

The rasterizer is an orthographic z-buffer over pixel centers, evaluated
as one array pass per view. Every face in front of the camera plane
expands into (face, pixel) fragments over its clipped pixel box, one
segment per box row; the part of each edge function that depends only
on the row is taken once per segment. Coverage uses edge functions (all
three same-signed, boundaries inclusive); depth and normals interpolate
barycentrically.
Per pixel the nearest positive-depth fragment wins: ``np.minimum.at``
gives each pixel its nearest depth, and a second ``np.minimum.at`` over
the fragments at exactly that depth gives the pixel to the lowest
fragment index, i.e. the face submitted first, the same result as a
sequential strict less-than z-test. Faces go in submission order, in
chunks of at most ``_FRAGMENT_CAP`` fragments that each z-test against
the buffer the earlier chunks left. Tests hold it bit-equal to a
per-pixel nearest-triangle oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .maps import SENTINEL_NORMAL, NormalMap, _check_integer

__all__ = [
    "TriMesh",
    "Camera",
    "RenderView",
    "face_normals",
    "vertex_normals",
    "viewpoints",
    "rasterize_normals",
    "sharp_edge_report",
    "SharpEdgeReport",
    "dataset_stats",
    "DatasetStats",
    "uv_sphere_mesh",
    "heightfield_to_mesh",
]


@dataclass
class TriMesh:
    vertices: np.ndarray          # (V, 3) float64, world units
    faces: np.ndarray             # (F, 3) int64, CCW outward

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face indices out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def vertex_norms(self) -> np.ndarray:
        """(V, 3) unit normals: the area-weighted ``vertex_normals``, derived
        on first read and kept; assigning other normals makes the mesh
        render with those."""
        return vertex_normals(self)


# -- normals ---------------------------------------------------------------


def _area_normals(mesh: TriMesh) -> np.ndarray:
    """Face normals scaled by twice the face area."""
    v = mesh.vertices
    f = mesh.faces
    return np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])


def face_normals(mesh: TriMesh) -> np.ndarray:
    cross = _area_normals(mesh)
    norm = np.linalg.norm(cross, axis=1, keepdims=True)
    return cross / np.maximum(norm, 1e-300)


def vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Area-weighted average of incident face normals, unit length."""
    cross = _area_normals(mesh)  # |cross| = 2 * area, so summing is area weighting
    # corner-major: every face's first corner, then second, then third,
    # so each vertex sums its faces in the order three add.at passes would
    corners = mesh.faces.T.ravel()
    nv = len(mesh.vertices)
    acc = np.stack([np.bincount(corners, weights=np.tile(cross[:, d], 3), minlength=nv)
                    for d in range(3)], axis=1)
    norm = np.linalg.norm(acc, axis=1, keepdims=True)
    out = np.where(norm > 1e-300, acc / np.maximum(norm, 1e-300), [0.0, 0.0, 1.0])
    return out


# -- cameras -----------------------------------------------------------------


_X, _Z = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
_ORTHO_WIDTH = 2.5  # world units across the view's width


@dataclass
class Camera:
    """An orthographic camera at ``position``, a finite 3-vector, that looks
    at the origin with +z up (+x up when it looks within ~8 degrees of the
    z axis); the view is ``_ORTHO_WIDTH`` wide and ``resolution``, two
    positive integers, pixels high and wide. ``basis`` is derived on first
    use and kept, so ``position`` stays fixed from then on."""

    position: np.ndarray
    resolution: tuple[int, int] = (96, 96)  # (H, W)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        if self.position.shape != (3,) or not np.isfinite(self.position).all():
            raise ValueError(f"camera position must be a finite 3-vector, got {self.position!r}")
        if np.linalg.norm(self.position) < 1e-12:
            raise ValueError("camera position coincides with the origin it looks at")
        if np.shape(self.resolution) != (2,):
            raise ValueError(f"camera resolution must be two positive integers, got {self.resolution!r}")
        for axis, n in zip(("height", "width"), self.resolution):
            _check_integer(f"camera resolution {self.resolution!r}: {axis}", n, 1)

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right-handed (right, up, forward); forward points at the origin."""
        fwd = 0.0 - self.position  # not -position: a zero coordinate stays +0.0
        fwd = fwd / np.linalg.norm(fwd)
        right = np.cross(fwd, _X if abs(fwd[2]) > 0.99 else _Z)
        right /= np.linalg.norm(right)
        return right, np.cross(right, fwd), fwd

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """World points -> (px, py, depth). Pixel centers sit at integers."""
        right, up, fwd = self.basis
        d = points - self.position
        x = d @ right
        y = d @ up
        depth = d @ fwd
        h_px, w_px = self.resolution
        half_w = _ORTHO_WIDTH / 2.0
        half_h = half_w * h_px / w_px
        px = (x + half_w) / (2.0 * half_w) * w_px - 0.5
        py = (half_h - y) / (2.0 * half_h) * h_px - 0.5
        return px, py, depth

    def to_camera_normals(self, normals: np.ndarray) -> np.ndarray:
        """World normals -> camera space with +z toward the viewer."""
        right, up, fwd = self.basis
        return np.stack([normals @ right, normals @ up, -(normals @ fwd)], axis=-1)


@dataclass
class RenderView:
    normal_map: NormalMap
    depth: np.ndarray

    @property
    def mask(self) -> np.ndarray:
        return self.normal_map.mask


_VIEW_RADIUS = 3.0  # distance of every viewpoint from the origin


def viewpoints(n: int = 22, resolution: tuple[int, int] = (96, 96)) -> list[Camera]:
    """Deterministic near-uniform cameras on a Fibonacci sphere of radius
    ``_VIEW_RADIUS``, all looking at the origin."""
    _check_integer("viewpoints: n", n, 1)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    cams = []
    for i in range(n):
        z = 1.0 - (2.0 * i + 1.0) / n
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = golden * i
        pos = np.array([r * math.cos(phi), r * math.sin(phi), z]) * _VIEW_RADIUS
        cams.append(Camera(position=pos, resolution=resolution))
    return cams


# -- rasterizer ----------------------------------------------------------------


# Upper bound on the (face, pixel) fragments held at once. Temporaries
# take about 172 bytes per fragment (tracemalloc peak of a 1200 x 1200
# view of a 64 x 64 heightfield, 2.3M fragments in three chunks, less the
# per-pixel buffers), so a full chunk holds about 180 MB whatever the mesh
# size; only a single face whose box exceeds the cap makes a larger chunk.
_FRAGMENT_CAP = 1 << 20

# edge k of a face runs from corner _NEXT[k] to corner _PREV[k]
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]
_NO_FRAGMENT = np.iinfo(np.int64).max


def _covered_fragments(seg_terms: np.ndarray, seg_w: np.ndarray, base: int) -> np.ndarray:
    """Expand segments into their fragments and keep the covered ones.

    ``seg_terms`` has one column per segment and 12 rows: A_k * (gy - B_k),
    C_k and D_k for the three edges, the column offset, the pixel offset
    and the face. Fragments are numbered from ``base``; fragment k lies in
    column k - column offset and pixel k + pixel offset. Returns the rows
    w_0, w_1, w_2, their sum, the pixel and the face of the covered
    fragments, in fragment order.
    """
    t = np.repeat(seg_terms, seg_w, axis=1)
    k = np.arange(base, base + t.shape[1], dtype=np.float64)
    w = t[6:9]  # in place: gx - D_k, then C_k * (gx - D_k), then w_k
    np.subtract(k - t[9], w, out=w)
    np.multiply(t[3:6], w, out=w)
    np.subtract(t[:3], w, out=w)
    np.add(w[0], w[1], out=t[9])
    t[9] += w[2]
    t[10] += k
    # all three same-signed, boundaries inclusive; NaN is never inside
    inside = (w.min(axis=0) >= 0.0) | (w.max(axis=0) <= 0.0)
    return np.compress(inside & (t[9] != 0.0), t[6:], axis=1)


def _draw_fragments(frag, corner_depths, corner_normals, zbuf, nbuf, mask, first) -> None:
    """Z-test covered fragments (the rows of ``_covered_fragments``) and
    write the winners into the buffers.

    ``zbuf`` takes each pixel's nearest depth among the fragments that
    beat the depth already there. Of the fragments at exactly that depth,
    the lowest index wins: the face submitted first, as a sequential
    strict less-than z-test would keep. ``first`` is per-pixel scratch,
    all ``_NO_FRAGMENT`` on entry and on return.
    """
    lam = frag[:3] / frag[3]
    pix, fid = frag[4].astype(np.int64), frag[5].astype(np.int64)
    ld = lam * np.take(corner_depths, fid, axis=1)
    frag_depth = ld[0] + ld[1] + ld[2]

    cand = np.flatnonzero((frag_depth > 0.0) & (frag_depth < zbuf[pix]))
    pc = pix[cand]
    np.minimum.at(zbuf, pc, frag_depth[cand])
    tied = cand[frag_depth[cand] == zbuf[pc]]
    pt = pix[tied]
    np.minimum.at(first, pt, tied)
    win = tied[first[pt] == tied]
    first[pt] = _NO_FRAGMENT

    a = np.take(lam, win, axis=1)
    an = np.take(corner_normals, fid[win], axis=2) * a  # (xyz, corner, winner)
    n = an[:, 0] + an[:, 1] + an[:, 2]
    nn = n * n
    nlen = np.sqrt(nn[0] + nn[1] + nn[2])
    nlen[nlen == 0.0] = 1.0
    p = pix[win]
    nbuf[p] = (n / nlen).T
    mask[p] = True


def rasterize_normals(mesh: TriMesh, camera: Camera) -> RenderView:
    """Render camera-space normals of ``mesh`` with a z-buffer.

    Per-pixel normals are barycentric interpolations of vertex normals,
    renormalized; background pixels carry mask False and the sentinel
    normal. Fragments at depth <= 0 (behind the camera plane) are culled.
    Each pixel keeps its nearest fragment; of fragments at exactly that
    depth, the one whose face was submitted first. A mesh with a
    non-finite vertex raises ValueError. The normals are the mesh's
    ``vertex_norms``, derived once per mesh, not once per render.
    """
    h_px, w_px = camera.resolution
    n_pix = h_px * w_px
    zbuf = np.full(n_pix, np.inf)
    nbuf = np.tile(SENTINEL_NORMAL, (n_pix, 1))
    mask = np.zeros(n_pix, dtype=bool)
    if mesh.n_faces:
        if not np.isfinite(mesh.vertices).all():
            raise ValueError("mesh vertices must be finite")
        px, py, depth = camera.project(mesh.vertices)
        n_cam = camera.to_camera_normals(mesh.vertex_norms)

        # clipped pixel box of every face; drop faces wholly behind the
        # camera plane and faces whose box holds no pixel center
        corners = np.ascontiguousarray(mesh.faces.T)
        fx, fy, fd = px[corners], py[corners], depth[corners]  # (corner, face)
        lo_x = np.maximum(np.ceil(fx.min(axis=0)), 0.0)
        hi_x = np.minimum(np.floor(fx.max(axis=0)), w_px - 1.0)
        lo_y = np.maximum(np.ceil(fy.min(axis=0)), 0.0)
        hi_y = np.minimum(np.floor(fy.max(axis=0)), h_px - 1.0)
        live = (fd > 0.0).any(axis=0) & (lo_x <= hi_x) & (lo_y <= hi_y)
        corner_normals = np.take(n_cam.T, corners, axis=1)  # (xyz, corner, face)

        # Fragments run over segments, one per live face and box row: faces
        # in submission order, rows top to bottom, pixels left to right.
        # Edge function k is A_k * (gy - B_k) - C_k * (gx - D_k), in the
        # oracle's expression order; gy is fixed along a segment, so the
        # first product is taken once per segment. Rows of the face table:
        # A_k, C_k, D_k (0-8), -lo_x, -lo_y, the face (9-11), B_k (12-14),
        # box width and height (15-16). Per segment, rows 0-2 become the
        # first products and rows 9-10 the offsets of _covered_fragments.
        fx_next, fy_next = fx[_NEXT], fy[_NEXT]
        face_terms = np.compress(live, np.concatenate([
            fx[_PREV] - fx_next, fy[_PREV] - fy_next, fx_next,
            [-lo_x, -lo_y, np.arange(mesh.n_faces)], fy_next, [hi_x - lo_x + 1.0, hi_y - lo_y + 1.0],
        ]), axis=1)
        width, height = face_terms[15:].astype(np.int64)
        ends = np.cumsum(width * height)  # fragments of the faces up to each one
        face_terms[10] += np.cumsum(height) - height  # first segment - lo_y
        seg = np.repeat(face_terms[:15], height, axis=1)
        seg_w = np.repeat(width, height)
        seg_ends = np.cumsum(seg_w)
        seg_y = np.arange(len(seg_w), dtype=np.float64) - seg[10]
        seg[:3] *= seg_y - seg[12:15]  # A_k * (gy - B_k)
        seg[9] += seg_ends - seg_w  # column offset: first fragment - lo_x
        np.subtract(seg_y * w_px, seg[9], out=seg[10])  # pixel offset
        first = np.full(n_pix, _NO_FRAGMENT)

        # faces go in submission order, in chunks of at most _FRAGMENT_CAP
        # fragments (a larger face goes alone)
        start = seg_start = 0
        while start < len(ends):
            base = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, base + _FRAGMENT_CAP, side="right")))
            seg_stop = int(np.searchsorted(seg_ends, ends[stop - 1])) + 1
            frag = _covered_fragments(seg[:12, seg_start:seg_stop], seg_w[seg_start:seg_stop], base)
            _draw_fragments(frag, fd, corner_normals, zbuf, nbuf, mask, first)
            start, seg_start = stop, seg_stop

    return RenderView(
        NormalMap(nbuf.reshape(h_px, w_px, 3), mask.reshape(h_px, w_px)), zbuf.reshape(h_px, w_px)
    )


# -- sharp edges ----------------------------------------------------------------


@dataclass
class SharpEdgeReport:
    sharp_count: int
    interior_edges: int
    boundary_edges: int
    nonmanifold_edges: int


SHARP_EDGE_DEG = 30.0  # face-normal angle above which an edge is sharp, read at call time


def sharp_edge_report(mesh: TriMesh) -> SharpEdgeReport:
    """Classify mesh edges by adjacent-face-normal angle.

    Interior edges (2 faces) count as sharp above ``SHARP_EDGE_DEG``;
    boundary edges are excluded; non-manifold edges (>2 faces) count once
    if any adjacent face pair exceeds it; their count is reported
    separately.
    A zero-area face has no normal, so no pair with one is ever sharp.
    """
    fn = face_normals(mesh)
    has_normal = np.einsum("ij,ij->i", fn, fn) > 0.0  # face_normals gives zero-area faces 0

    def sharp(fa, fb):
        dot = np.clip(np.sum(fn[fa] * fn[fb], axis=-1), -1.0, 1.0)
        angle_exceeded = np.degrees(np.arccos(dot)) > SHARP_EDGE_DEG
        return angle_exceeded & has_normal[fa] & has_normal[fb]

    # one key per undirected edge, grouped by a stable sort: the faces of
    # an edge end up adjacent, in submission order
    u = mesh.faces.ravel()
    v = mesh.faces[:, [1, 2, 0]].ravel()
    keys = np.minimum(u, v) * mesh.n_vertices + np.maximum(u, v)
    order = np.argsort(keys, kind="stable")
    face_of = order // 3
    _, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)

    pairs = starts[counts == 2]
    sharp_count = int(np.count_nonzero(sharp(face_of[pairs], face_of[pairs + 1])))
    nonmanifold_sharp = 0
    for s, n in zip(starts[counts > 2], counts[counts > 2]):
        fa, fb = np.triu_indices(n, 1)
        nonmanifold_sharp += bool(sharp(face_of[s + fa], face_of[s + fb]).any())
    return SharpEdgeReport(
        sharp_count + nonmanifold_sharp,
        len(pairs),
        int(np.count_nonzero(counts == 1)),
        int(np.count_nonzero(counts > 2)),
    )


# -- dataset statistics -----------------------------------------------------------


@dataclass
class DatasetStats:
    counts: list[int]


def dataset_stats(meshes) -> DatasetStats:
    """Sharp-edge count of each mesh, in order."""
    counts = [sharp_edge_report(m).sharp_count for m in meshes]
    if not counts:
        raise ValueError("dataset_stats needs at least one mesh")
    return DatasetStats(counts)


# -- primitive meshes -----------------------------------------------------------


def uv_sphere_mesh(n_lat: int = 24, n_lon: int = 48) -> TriMesh:
    """The unit sphere: the poles and ``n_lat - 1`` rings of ``n_lon``
    vertices, a fan at each pole and two triangles per quad between rings."""
    for name, value, low in (("n_lat", n_lat, 2), ("n_lon", n_lon, 3)):
        _check_integer(f"uv_sphere_mesh, got {(n_lat, n_lon)!r}: {name}", value, low)
    theta = np.pi * np.arange(1, n_lat) / n_lat
    phi = 2.0 * np.pi * np.arange(n_lon) / n_lon
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    rings = np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), ct), axis=-1)
    v = np.concatenate([[[0.0, 0.0, 1.0]], rings.reshape(-1, 3), [[0.0, 0.0, -1.0]]])
    ring = 1 + n_lon * np.arange(n_lat - 1)[:, None] + np.arange(n_lon)  # vertex j of ring i
    nxt = np.roll(ring, -1, axis=1)  # vertex j + 1 of ring i
    a, b, c, d = ring[:-1], nxt[:-1], ring[1:], nxt[1:]  # quad (i, j): (a, c, d), then (a, d, b)
    faces = np.concatenate([
        np.stack([np.zeros(n_lon, np.int64), ring[0], nxt[0]], axis=-1),
        np.stack([a, c, d, a, d, b], axis=-1).reshape(-1, 3),
        np.stack([np.full(n_lon, len(v) - 1), nxt[-1], ring[-1]], axis=-1),
    ])
    return TriMesh(v, faces)


def heightfield_to_mesh(hf) -> TriMesh:
    """Triangulate a heightfield grid (x right, y up, z = height).

    The vertex normals are derived on first read of ``vertex_norms``:
    renders read them, the sharp-edge statistics never do.
    """
    h, w = hf.shape
    cell = hf.cell_size
    cols, rows = np.meshgrid(np.arange(w), np.arange(h))
    x = (cols - (w - 1) / 2.0) * cell
    y = ((h - 1) / 2.0 - rows) * cell
    v = np.stack([x.ravel(), y.ravel(), hf.heights.ravel()], axis=1)

    # cell (r, c) splits into (r, c)-(r+1, c)-(r, c+1) and
    # (r+1, c)-(r+1, c+1)-(r, c+1), row by row
    vid = np.arange(h * w).reshape(h, w)
    top_left, bottom_left = vid[:-1, :-1], vid[1:, :-1]
    top_right, bottom_right = vid[:-1, 1:], vid[1:, 1:]
    faces = np.stack(
        [np.stack([top_left, bottom_left, top_right], axis=-1),
         np.stack([bottom_left, bottom_right, top_right], axis=-1)],
        axis=2,
    )
    return TriMesh(v, faces.reshape(-1, 3))

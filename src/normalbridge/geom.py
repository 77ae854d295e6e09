"""Triangle meshes: I/O, normals, multi-view rasterization, edge statistics.

The rasterizer is a z-buffer over pixel centers, evaluated as one array
pass per view. Every face in front of the camera plane expands into
(face, pixel) fragments over its clipped pixel box. Coverage uses edge
functions (all three same-signed, boundaries inclusive); depth and
normals interpolate barycentrically (perspective-correct when the
camera is perspective). Per pixel the nearest positive-depth fragment
wins; a stable sort on (pixel, depth) gives exact depth ties to the
face submitted first, the same result as a sequential strict less-than
z-test. Faces go in submission order, in chunks of at most
``_FRAGMENT_CAP`` fragments that each z-test against the buffer the
earlier chunks left. Tests hold it bit-equal to a per-pixel
nearest-triangle oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .maps import NormalMap

__all__ = [
    "TriMesh",
    "Camera",
    "RenderView",
    "load_obj",
    "save_obj",
    "face_normals",
    "face_areas",
    "vertex_normals",
    "viewpoints",
    "rasterize_normals",
    "count_sharp_edges",
    "sharp_edge_report",
    "SharpEdgeReport",
    "dataset_stats",
    "DatasetStats",
    "stats_csv_row",
    "STATS_CSV_HEADER",
    "DETAILVERSE_REFERENCE_STATS",
    "cube_mesh",
    "icosahedron_mesh",
    "uv_sphere_mesh",
    "heightfield_to_mesh",
]


@dataclass
class TriMesh:
    vertices: np.ndarray          # (V, 3) float64, world units
    faces: np.ndarray             # (F, 3) int64, CCW outward
    vertex_norms: np.ndarray | None = None
    n_dropped_faces: int = 0

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


# -- OBJ -----------------------------------------------------------------


def load_obj(source) -> TriMesh:
    """Parse the ASCII OBJ subset v / vn / f; fans are triangulated.

    Degenerate faces (repeated vertices or zero area) are dropped and
    counted on the returned mesh. Malformed input raises with its line
    number.

    Each vertex takes the normal that its face corners name (``f v//vn``
    or ``f v/vt/vn``). When some face corner names no normal, or corners
    name two different normals for one vertex, ``vertex_norms`` is None
    and callers recompute area-weighted normals. Vertices that no face
    uses get +z.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, Path):
        text = source.read_text()
    else:
        text = str(source)
        if "\n" not in text and text.endswith(".obj"):
            text = Path(text).read_text()

    verts: list[list[float]] = []
    norms: list[list[float]] = []
    face_idx: list[tuple[int, int, int]] = []
    corner_normal: dict[int, int] = {}  # vertex -> the vn its corners name
    normals_bound = True
    dropped = 0

    def index(tok: str, n: int, what: str) -> int:
        idx = int(tok)
        if idx < 0:
            idx = n + 1 + idx
        if not 1 <= idx <= n:
            raise ValueError(f"{what} index {tok} out of range")
        return idx - 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "v":
                if len(parts) < 4:
                    raise ValueError("vertex needs 3 coordinates")
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            elif tag == "vn":
                if len(parts) < 4:
                    raise ValueError("normal needs 3 components")
                norms.append([float(parts[1]), float(parts[2]), float(parts[3])])
            elif tag == "f":
                if len(parts) < 4:
                    raise ValueError("face needs at least 3 vertices")
                ids = []
                for tok in parts[1:]:
                    fields = tok.split("/")
                    ids.append(index(fields[0], len(verts), "vertex"))
                    if len(fields) == 3 and fields[2]:
                        nid = index(fields[2], len(norms), "normal")
                        normals_bound &= corner_normal.setdefault(ids[-1], nid) == nid
                    else:
                        normals_bound = False
                for k in range(1, len(ids) - 1):  # fan split
                    face_idx.append((ids[0], ids[k], ids[k + 1]))
            # other tags ignored
        except ValueError as exc:
            raise ValueError(f"OBJ parse error at line {lineno}: {exc}") from None

    v = np.asarray(verts, dtype=np.float64).reshape(-1, 3)
    kept = []
    for f in face_idx:
        a, b, c = f
        if a == b or b == c or a == c:
            dropped += 1
            continue
        area2 = np.linalg.norm(np.cross(v[b] - v[a], v[c] - v[a]))
        if area2 == 0.0:
            dropped += 1
            continue
        kept.append(f)
    vertex_norms = None
    if normals_bound and corner_normal:
        vertex_norms = np.tile([0.0, 0.0, 1.0], (len(v), 1))
        vertex_norms[list(corner_normal)] = np.asarray(norms, dtype=np.float64)[list(corner_normal.values())]
    return TriMesh(
        v,
        np.asarray(kept, dtype=np.int64).reshape(-1, 3),
        vertex_norms=vertex_norms,
        n_dropped_faces=dropped,
    )


def save_obj(path, mesh: TriMesh) -> None:
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
    Path(path).write_text("\n".join(lines) + "\n")


# -- normals ---------------------------------------------------------------


def _face_cross(mesh: TriMesh) -> np.ndarray:
    v = mesh.vertices
    f = mesh.faces
    return np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])


def face_areas(mesh: TriMesh) -> np.ndarray:
    return 0.5 * np.linalg.norm(_face_cross(mesh), axis=1)


def face_normals(mesh: TriMesh) -> np.ndarray:
    cross = _face_cross(mesh)
    norm = np.linalg.norm(cross, axis=1, keepdims=True)
    return cross / np.maximum(norm, 1e-300)


def vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Area-weighted average of incident face normals, unit length."""
    cross = _face_cross(mesh)  # |cross| = 2 * area, so summing is area weighting
    acc = np.zeros_like(mesh.vertices)
    for k in range(3):
        np.add.at(acc, mesh.faces[:, k], cross)
    norm = np.linalg.norm(acc, axis=1, keepdims=True)
    out = np.where(norm > 1e-300, acc / np.maximum(norm, 1e-300), [0.0, 0.0, 1.0])
    return out


# -- cameras -----------------------------------------------------------------


@dataclass
class Camera:
    position: np.ndarray
    look_at: np.ndarray = field(default_factory=lambda: np.zeros(3))
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    mode: str = "orthographic"          # or "perspective"
    ortho_width: float = 2.5
    fov_y_deg: float = 40.0
    resolution: tuple[int, int] = (96, 96)  # (H, W)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        self.look_at = np.asarray(self.look_at, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        if self.mode not in ("orthographic", "perspective"):
            raise ValueError(f"unknown camera mode {self.mode!r}")
        fwd = self.look_at - self.position
        if np.linalg.norm(fwd) < 1e-12:
            raise ValueError("camera position coincides with look-at point")

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right-handed (right, up, forward); forward points at the target."""
        fwd = self.look_at - self.position
        fwd = fwd / np.linalg.norm(fwd)
        up = self.up
        if abs(float(np.dot(fwd, up)) / np.linalg.norm(up)) > 0.99:
            up = np.array([1.0, 0.0, 0.0])
        right = np.cross(fwd, up)
        right /= np.linalg.norm(right)
        true_up = np.cross(right, fwd)
        return right, true_up, fwd

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """World points -> (px, py, depth). Pixel centers sit at integers."""
        right, up, fwd = self.basis()
        d = points - self.position
        x = d @ right
        y = d @ up
        depth = d @ fwd
        h_px, w_px = self.resolution
        if self.mode == "orthographic":
            half_w = self.ortho_width / 2.0
            half_h = half_w * h_px / w_px
            px = (x + half_w) / (2.0 * half_w) * w_px - 0.5
            py = (half_h - y) / (2.0 * half_h) * h_px - 0.5
        else:
            tan_half = math.tan(math.radians(self.fov_y_deg) / 2.0)
            safe = np.where(np.abs(depth) > 1e-12, depth, 1e-12)
            xs = x / (safe * tan_half * (w_px / h_px))
            ys = y / (safe * tan_half)
            px = (xs * 0.5 + 0.5) * w_px - 0.5
            py = (0.5 - ys * 0.5) * h_px - 0.5
        return px, py, depth

    def to_camera_normals(self, normals: np.ndarray) -> np.ndarray:
        """World normals -> camera space with +z toward the viewer."""
        right, up, fwd = self.basis()
        return np.stack([normals @ right, normals @ up, -(normals @ fwd)], axis=-1)


@dataclass
class RenderView:
    normal_map: NormalMap
    depth: np.ndarray
    camera: Camera

    @property
    def mask(self) -> np.ndarray:
        return self.normal_map.mask


def viewpoints(
    n: int = 22,
    radius: float = 3.0,
    mode: str = "orthographic",
    resolution: tuple[int, int] = (96, 96),
    ortho_width: float = 2.5,
    fov_y_deg: float = 40.0,
) -> list[Camera]:
    """Deterministic near-uniform cameras on a Fibonacci sphere, all looking at the origin."""
    if n < 1:
        raise ValueError("need at least one viewpoint")
    golden = math.pi * (3.0 - math.sqrt(5.0))
    cams = []
    for i in range(n):
        z = 1.0 - (2.0 * i + 1.0) / n
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = golden * i
        pos = np.array([r * math.cos(phi), r * math.sin(phi), z]) * radius
        cams.append(
            Camera(
                position=pos,
                mode=mode,
                resolution=resolution,
                ortho_width=ortho_width,
                fov_y_deg=fov_y_deg,
            )
        )
    return cams


# -- rasterizer ----------------------------------------------------------------


# Upper bound on the (face, pixel) fragments held at once. Temporaries
# take about 170 bytes per fragment (measured peak growth of a 1200 x 1200
# view), so a full chunk holds about 170 MB whatever the mesh size; only
# a single face whose box exceeds the cap makes a larger chunk.
_FRAGMENT_CAP = 1 << 20


def rasterize_normals(mesh: TriMesh, camera: Camera) -> RenderView:
    """Render camera-space normals of ``mesh`` with a z-buffer.

    Per-pixel normals are barycentric interpolations of vertex normals,
    renormalized; background pixels carry mask False and the sentinel
    normal. Fragments at depth <= 0 (behind the camera plane) are culled.
    A mesh with a non-finite vertex raises ValueError.
    """
    h_px, w_px = camera.resolution
    zbuf = np.full(h_px * w_px, np.inf)
    nbuf = np.zeros((h_px * w_px, 3))
    mask = np.zeros(h_px * w_px, dtype=bool)
    if mesh.n_faces:
        if not np.isfinite(mesh.vertices).all():
            raise ValueError("mesh vertices must be finite")
        px, py, depth = camera.project(mesh.vertices)
        n_cam = camera.to_camera_normals(
            mesh.vertex_norms if mesh.vertex_norms is not None else vertex_normals(mesh)
        )
        persp = camera.mode == "perspective"

        # clipped pixel box of every face; drop faces wholly behind the
        # camera plane and faces whose box holds no pixel center
        fx, fy, fd = px[mesh.faces], py[mesh.faces], depth[mesh.faces]
        lo_x = np.maximum(np.ceil(fx.min(axis=1)), 0.0)
        hi_x = np.minimum(np.floor(fx.max(axis=1)), w_px - 1.0)
        lo_y = np.maximum(np.ceil(fy.min(axis=1)), 0.0)
        hi_y = np.minimum(np.floor(fy.max(axis=1)), h_px - 1.0)
        live = np.flatnonzero((fd > 0.0).any(axis=1) & (lo_x <= hi_x) & (lo_y <= hi_y))
        verts = mesh.faces[live]
        (x0, x1, x2), (y0, y1, y2), (d0, d1, d2) = fx[live].T, fy[live].T, fd[live].T
        lo_x, lo_y = lo_x[live].astype(np.int64), lo_y[live].astype(np.int64)
        width = hi_x[live].astype(np.int64) - lo_x + 1
        sizes = width * (hi_y[live].astype(np.int64) - lo_y + 1)
        ends = np.cumsum(sizes)

        # faces go in submission order, in chunks of at most _FRAGMENT_CAP
        # fragments (a larger face goes alone)
        start = 0
        while start < len(live):
            base = ends[start] - sizes[start]
            stop = max(start + 1, int(np.searchsorted(ends, base + _FRAGMENT_CAP, side="right")))
            n = sizes[start:stop]
            fid = np.repeat(np.arange(start, stop), n)
            off = np.arange(len(fid)) - np.repeat(np.cumsum(n) - n, n)  # row-major within the box
            gyi = lo_y[fid] + off // width[fid]
            gxi = lo_x[fid] + off % width[fid]
            gx, gy = gxi.astype(np.float64), gyi.astype(np.float64)

            # edge functions, in the expression order of the scalar form
            w0 = (x2 - x1)[fid] * (gy - y1[fid]) - (y2 - y1)[fid] * (gx - x1[fid])
            w1 = (x0 - x2)[fid] * (gy - y2[fid]) - (y0 - y2)[fid] * (gx - x2[fid])
            w2 = (x1 - x0)[fid] * (gy - y0[fid]) - (y1 - y0)[fid] * (gx - x0[fid])
            wsum = w0 + w1 + w2
            inside = ((w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)) | ((w0 <= 0.0) & (w1 <= 0.0) & (w2 <= 0.0))
            hit = np.flatnonzero(inside & (wsum != 0.0))
            fid, pix = fid[hit], gyi[hit] * w_px + gxi[hit]
            wsum = wsum[hit]
            l0, l1, l2 = w0[hit] / wsum, w1[hit] / wsum, w2[hit] / wsum
            if persp:
                # perspective-correct: interpolate attributes over 1/depth
                q0 = l0 / d0[fid]
                q1 = l1 / d1[fid]
                q2 = l2 / d2[fid]
                qs = q0 + q1 + q2
                qs_safe = np.where(qs == 0.0, 1.0, qs)
                frag_depth = np.where(qs != 0.0, 1.0 / qs_safe, np.inf)
            else:
                frag_depth = l0 * d0[fid] + l1 * d1[fid] + l2 * d2[fid]

            # z-test against earlier chunks, then the nearest fragment per
            # pixel; the sort is stable, so an exact tie goes to the face
            # submitted first, as a sequential strict less-than would
            cand = np.flatnonzero((frag_depth > 0.0) & (frag_depth < zbuf[pix]))
            order = cand[np.lexsort((frag_depth[cand], pix[cand]))]
            first = np.ones(len(order), dtype=bool)
            first[1:] = pix[order[1:]] != pix[order[:-1]]
            win = order[first]
            if persp:
                a0, a1, a2 = q0[win] / qs_safe[win], q1[win] / qs_safe[win], q2[win] / qs_safe[win]
            else:
                a0, a1, a2 = l0[win], l1[win], l2[win]
            nc = n_cam[verts[fid[win]]]  # (n, corner, xyz)
            nx = a0 * nc[:, 0, 0] + a1 * nc[:, 1, 0] + a2 * nc[:, 2, 0]
            ny = a0 * nc[:, 0, 1] + a1 * nc[:, 1, 1] + a2 * nc[:, 2, 1]
            nz = a0 * nc[:, 0, 2] + a1 * nc[:, 1, 2] + a2 * nc[:, 2, 2]
            nlen = np.sqrt(nx * nx + ny * ny + nz * nz)
            nlen = np.where(nlen == 0.0, 1.0, nlen)
            p = pix[win]
            zbuf[p] = frag_depth[win]
            nbuf[p] = np.stack([nx / nlen, ny / nlen, nz / nlen], axis=1)
            mask[p] = True
            start = stop

    nbuf[~mask] = [0.0, 0.0, 1.0]
    return RenderView(
        NormalMap(nbuf.reshape(h_px, w_px, 3), mask.reshape(h_px, w_px)), zbuf.reshape(h_px, w_px), camera
    )


# -- sharp edges ----------------------------------------------------------------


@dataclass
class SharpEdgeReport:
    sharp_count: int
    nonmanifold_sharp_count: int
    interior_edges: int
    boundary_edges: int
    nonmanifold_edges: int


def sharp_edge_report(mesh: TriMesh, dihedral_threshold_deg: float = 30.0) -> SharpEdgeReport:
    """Classify mesh edges by adjacent-face-normal angle.

    Interior edges (2 faces) count as sharp above the threshold; boundary
    edges are excluded; non-manifold edges (>2 faces) count once if any
    adjacent face pair exceeds the threshold and are reported separately.
    """
    if not 0.0 < dihedral_threshold_deg < 180.0:
        raise ValueError("threshold must be in (0, 180) degrees")
    fn = face_normals(mesh)

    def sharp(fa, fb):
        dot = np.clip(np.sum(fn[fa] * fn[fb], axis=-1), -1.0, 1.0)
        return np.degrees(np.arccos(dot)) > dihedral_threshold_deg

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
        nonmanifold_sharp,
        len(pairs),
        int(np.count_nonzero(counts == 1)),
        int(np.count_nonzero(counts > 2)),
    )


def count_sharp_edges(mesh: TriMesh, dihedral_threshold_deg: float = 30.0) -> int:
    return sharp_edge_report(mesh, dihedral_threshold_deg).sharp_count


# -- dataset statistics -----------------------------------------------------------


@dataclass
class DatasetStats:
    n_objects: int
    mean_sharp_edges: float
    median_sharp_edges: float
    counts: list[int] = field(default_factory=list)


def dataset_stats(meshes, dihedral_threshold_deg: float = 30.0) -> DatasetStats:
    """Mean/median sharp-edge counts; median is the lower middle for even n."""
    counts = [count_sharp_edges(m, dihedral_threshold_deg) for m in meshes]
    if not counts:
        raise ValueError("dataset_stats needs at least one mesh")
    ordered = sorted(counts)
    median = ordered[(len(ordered) - 1) // 2]
    return DatasetStats(len(counts), float(np.mean(counts)), float(median), counts)


STATS_CSV_HEADER = "Dataset,Obj #,Sharp Edge # (mean/median),Source"

# Published full-corpus reference row for the DetailVerse dataset; not
# reproducible at desk scale, kept for table formatting parity.
DETAILVERSE_REFERENCE_STATS = ("DetailVerse", 700_000, 45_773, 14_521, "Synthesis")


def stats_csv_row(name: str, stats_or_counts, source: str) -> str:
    if isinstance(stats_or_counts, DatasetStats):
        s = stats_or_counts
        mean, median, n = s.mean_sharp_edges, s.median_sharp_edges, s.n_objects
    else:
        name_, n, mean, median, source = stats_or_counts
        name = name or name_
    return f"{name},{n:,},{round(mean):,} / {round(median):,},{source}"


# -- primitive meshes -----------------------------------------------------------


def cube_mesh(size: float = 1.0) -> TriMesh:
    s = size / 2.0
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


def icosahedron_mesh(radius: float = 1.0) -> TriMesh:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array(
        [[-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
         [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
         [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1]],
        dtype=np.float64,
    )
    raw *= radius / np.linalg.norm(raw[0])
    faces = np.array(
        [[0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
         [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
         [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
         [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]]
    )
    return TriMesh(raw, faces)


def uv_sphere_mesh(n_lat: int = 24, n_lon: int = 48, radius: float = 1.0) -> TriMesh:
    verts = [np.array([0.0, 0.0, radius])]
    for i in range(1, n_lat):
        theta = math.pi * i / n_lat
        for j in range(n_lon):
            phi = 2.0 * math.pi * j / n_lon
            verts.append(
                radius
                * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
            )
    verts.append(np.array([0.0, 0.0, -radius]))
    v = np.array(verts)
    south = len(verts) - 1

    def ring(i, j):
        return 1 + (i - 1) * n_lon + (j % n_lon)

    faces = []
    for j in range(n_lon):
        faces.append((0, ring(1, j), ring(1, j + 1)))
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces.append((a, c, d))
            faces.append((a, d, b))
    for j in range(n_lon):
        faces.append((south, ring(n_lat - 1, j + 1), ring(n_lat - 1, j)))
    return TriMesh(v, np.array(faces))


def heightfield_to_mesh(hf) -> TriMesh:
    """Triangulate a heightfield grid (x right, y up, z = height)."""
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

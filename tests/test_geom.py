import hashlib
import math
import re

import numpy as np
import pytest

from normalbridge import geom
from normalbridge.geom import Camera, TriMesh
from normalbridge.maps import Heightfield
from normalbridge.tensorcore import SeededRng

from fixture_meshes import cube_mesh, icosahedron_mesh
from raster_oracle import rasterize_oracle


class TestNormals:
    def test_ccw_triangle_faces_up(self):
        mesh = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
        np.testing.assert_allclose(geom.face_normals(mesh), [[0, 0, 1]], atol=1e-15)

    def test_cube_vertex_normals_diagonal(self):
        mesh = cube_mesh()
        vn = geom.vertex_normals(mesh)
        expect = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        # area-weighted averaging on a symmetric cube points along the corner diagonals
        dots = np.sum(vn * expect, axis=1)
        assert np.all(dots > 0.9)
        np.testing.assert_allclose(np.abs(vn), 1 / np.sqrt(3), atol=0.25)

    def test_sphere_vertex_normals_near_radial(self):
        mesh = geom.uv_sphere_mesh(n_lat=50, n_lon=50)
        assert mesh.n_faces >= 4800
        vn = geom.vertex_normals(mesh)
        radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        ang = np.degrees(np.arccos(np.clip(np.sum(vn * radial, axis=1), -1, 1)))
        assert ang.max() < 2.0


def _vertex_normals_add_at(mesh):
    """The three-pass ``np.add.at`` form, the reference for ``vertex_normals``."""
    cross = geom._area_normals(mesh)
    acc = np.zeros_like(mesh.vertices)
    for k in range(3):
        np.add.at(acc, mesh.faces[:, k], cross)
    norm = np.linalg.norm(acc, axis=1, keepdims=True)
    return np.where(norm > 1e-300, acc / np.maximum(norm, 1e-300), [0.0, 0.0, 1.0])


# sha256 of the vertices, then the faces, of ``uv_sphere_mesh(n_lat, n_lon)``
SPHERE_DIGESTS = {
    (24, 48): "e43d45050b83f523868d1747e962aef3a2be5ea5e7ac9f482ef4a987aa1a8fcb",
    (12, 24): "b8d48a2a2689032e9a9b15aa605c71bd1d1692140f98e13ee42f9b6ae0b44161",
}


class TestUvSphere:
    @pytest.mark.parametrize("size", list(SPHERE_DIGESTS), ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_recorded_digest(self, size):
        mesh = geom.uv_sphere_mesh(*size)
        digest = hashlib.sha256(mesh.vertices.tobytes() + mesh.faces.tobytes()).hexdigest()
        assert digest == SPHERE_DIGESTS[size]

    @pytest.mark.parametrize("size", [(1, 4), (0, 4), (4, 2), (4, 0)])
    def test_too_few_rings_or_longitudes_rejected(self, size):
        with pytest.raises(ValueError, match=re.escape(f"got {size}")):
            geom.uv_sphere_mesh(*size)

    @pytest.mark.parametrize("size", [(2.5, 4), (4, 4.0), (True, 4), (4, np.float64(3))])
    def test_non_integer_counts_rejected(self, size):
        # int(2.5) rings would give a 16-face mesh without complaint
        with pytest.raises(ValueError, match=re.escape(f"got {size!r}")):
            geom.uv_sphere_mesh(*size)


class TestVertexNormalsReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_meshes(self, seed):
        rng = SeededRng(60 + seed)
        # repeated faces, unused vertices and zero-area faces included
        mesh = TriMesh(rng.normal(size=(40, 3)), rng.integers(0, 40, (150, 3)))
        assert geom.vertex_normals(mesh).tobytes() == _vertex_normals_add_at(mesh).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_heightfield_meshes(self, seed):
        rng = SeededRng(70 + seed)
        mesh = geom.heightfield_to_mesh(Heightfield(rng.normal(size=(24, 17)).cumsum(axis=0), 0.1))
        assert geom.vertex_normals(mesh).tobytes() == _vertex_normals_add_at(mesh).tobytes()

    def test_empty_mesh(self):
        mesh = TriMesh(np.zeros((4, 3)), np.zeros((0, 3), dtype=np.int64))
        np.testing.assert_array_equal(geom.vertex_normals(mesh), np.tile([0.0, 0.0, 1.0], (4, 1)))


class TestViewpoints:
    def test_count_and_radius(self):
        cams = geom.viewpoints(22)
        assert len(cams) == 22
        for c in cams:
            assert abs(np.linalg.norm(c.position) - 3.0) < 1e-9
            # every camera looks at the origin: it projects to the image
            # center, 3 units ahead
            px, py, depth = c.project(np.zeros((1, 3)))
            np.testing.assert_allclose([px[0], py[0], depth[0]], [47.5, 47.5, 3.0], atol=1e-12)

    def test_min_angular_separation(self):
        cams = geom.viewpoints(22)
        dirs = np.array([c.position / np.linalg.norm(c.position) for c in cams])
        worst = 180.0
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                ang = math.degrees(math.acos(float(np.clip(dirs[i] @ dirs[j], -1, 1))))
                worst = min(worst, ang)
        assert worst > 25.0

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "2", 0, -1])
    def test_bad_count_named(self, n):
        with pytest.raises(ValueError, match=re.escape(f"viewpoints: n must be an integer >= 1, got {n!r}")):
            geom.viewpoints(n)

    def test_numpy_integer_count_accepted(self):
        assert len(geom.viewpoints(np.int64(3))) == 3

    def test_deterministic(self):
        a = geom.viewpoints(22)
        b = geom.viewpoints(22)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.position, y.position)


def basis_by_np_cross(cam):
    """``Camera.basis`` written out here with ``np.cross``, as a reference."""
    fwd = 0.0 - cam.position
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.array([1.0, 0.0, 0.0]) if abs(fwd[2]) > 0.99 else np.array([0.0, 0.0, 1.0]))
    right /= np.linalg.norm(right)
    return right, np.cross(right, fwd), fwd


def cameras_at_the_up_switch():
    """Cameras whose |forward z| lies within 1e-9 of 0.99, on both sides
    and both hemispheres; the up hint switches from +z to +x above it."""
    cams = []
    for sign in (1.0, -1.0):
        for z in 0.99 + np.linspace(-1e-9, 1e-9, 21):
            for phi in (0.0, 1.0, 2.5, 4.0):
                r = math.sqrt(1.0 - z * z)
                cams.append(Camera(np.array([r * math.cos(phi), r * math.sin(phi), sign * z]) * 3.0))
    return cams


class TestCameraBasis:
    def test_viewpoints_match_np_cross(self):
        for cam in geom.viewpoints(200):
            for got, want in zip(cam.basis, basis_by_np_cross(cam)):
                assert got.tobytes() == want.tobytes()

    def test_cameras_on_the_z_axis_match_np_cross(self):
        for pos in ([0.0, 0.0, 3.0], [0.0, 0.0, -3.0], [-0.0, 0.0, 3.0], [0.0, -0.0, -0.5]):
            cam = Camera(np.array(pos))
            for got, want in zip(cam.basis, basis_by_np_cross(cam)):
                assert got.tobytes() == want.tobytes()  # signed zeros included

    def test_cameras_either_side_of_the_up_switch_match_np_cross(self):
        cams = cameras_at_the_up_switch()
        above = [abs(cam.basis[2][2]) > 0.99 for cam in cams]
        assert any(above) and not all(above)
        for cam in cams:
            for got, want in zip(cam.basis, basis_by_np_cross(cam)):
                assert got.tobytes() == want.tobytes()


class TestCameraArguments:
    @pytest.mark.parametrize("position", [[np.nan, 0.0, 3.0], [0.0, np.inf, 3.0], [0.0, 3.0]])
    def test_position_not_a_finite_3_vector_rejected(self, position):
        value = repr(np.asarray(position, dtype=np.float64))
        with pytest.raises(ValueError, match=re.escape(value)):
            Camera(np.array(position))

    @pytest.mark.parametrize("resolution", [(0, 96), (96, -1), (96,), (96.0, 96), (True, 96)])
    def test_resolution_not_two_positive_integers_rejected(self, resolution):
        with pytest.raises(ValueError, match=re.escape(repr(resolution))):
            Camera(np.array([0.0, 0.0, 3.0]), resolution)


# random scene coordinates are in units of a third of the view's width
FIT = geom._ORTHO_WIDTH / 3.0


def mesh_with_normals(vertices, faces, normals):
    """A mesh that renders with ``normals`` instead of derived ones."""
    mesh = TriMesh(vertices, faces)
    mesh.vertex_norms = normals
    return mesh


def facing_triangle(z=0.0):
    v = np.array([[-1.0, -1.0, z], [1.0, -1.0, z], [0.0, 1.0, z]])
    return mesh_with_normals(v, np.array([[0, 1, 2]]), np.tile([0.0, 0.0, 1.0], (3, 1)))


def camera_above():
    return Camera(position=np.array([0.0, 0.0, 3.0]), resolution=(32, 32))


def assert_matches_oracle(mesh, cam):
    view = geom.rasterize_normals(mesh, cam)
    o_nm, o_z = rasterize_oracle(mesh, cam)
    assert view.normal_map.vectors.tobytes() == o_nm.vectors.tobytes()
    assert view.depth.tobytes() == o_z.tobytes()
    assert np.array_equal(view.mask, o_nm.mask)
    return view


def random_triangles(r, n_tri, scale=1.0):
    v = r.uniform(-scale, scale, (3 * n_tri, 3))
    n = r.normal(size=(3 * n_tri, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return mesh_with_normals(v, np.arange(3 * n_tri).reshape(-1, 3), n)


def bumpy_heightfield_mesh(seed=5, size=8):
    r = SeededRng(seed)
    return geom.heightfield_to_mesh(Heightfield(r.normal(size=(size, size)) * 0.15, 2.0 / (size - 1)))


def submitted_copies(mesh, copies=2, seed=9):
    """``mesh`` followed by ``copies - 1`` copies at the same positions,
    each with other normals.

    Every pixel then holds exact depth ties between a face and its
    copies, and they differ in normal, so the render shows which one won.
    """
    r = SeededRng(seed)
    n = r.normal(size=(copies * mesh.n_vertices, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return mesh_with_normals(np.vstack([mesh.vertices] * copies),
                             np.vstack([mesh.faces + k * mesh.n_vertices for k in range(copies)]), n)


class TestRasterizer:
    def test_facing_triangle_encodes_up(self):
        view = geom.rasterize_normals(facing_triangle(), camera_above())
        assert view.mask.sum() > 50
        covered = view.normal_map.vectors[view.mask]
        np.testing.assert_allclose(covered, np.broadcast_to([0, 0, 1.0], covered.shape), atol=1e-12)

    def test_mesh_behind_camera_culled(self):
        # the camera at z=3 looks down at the origin; the triangle at z=6 is behind it
        view = geom.rasterize_normals(facing_triangle(z=6.0), camera_above())
        assert view.mask.sum() == 0

    def test_nearer_triangle_wins(self):
        near = facing_triangle(z=1.0)
        far = facing_triangle(z=0.0)
        mesh = mesh_with_normals(
            np.vstack([far.vertices, near.vertices]),
            np.array([[0, 1, 2], [3, 4, 5]]),
            np.vstack([far.vertex_norms, near.vertex_norms]),
        )
        view = geom.rasterize_normals(mesh, camera_above())
        # camera at z=3: near triangle depth 2, far depth 3; contested
        # pixels must all carry the nearer depth
        covered = view.depth[view.mask]
        assert np.all(np.abs(covered - 2.0) < 1e-9)

    def test_bit_exact_vs_oracle_random_scenes(self):
        for i in range(10):
            r = SeededRng(21, i)
            mesh = random_triangles(r, int(r.integers(4, 10)), scale=FIT)
            direction = r.normal(size=(3,))
            direction /= np.linalg.norm(direction)
            assert_matches_oracle(mesh, Camera(position=direction * 3.0, resolution=(32, 32)))

    def test_bit_exact_vs_oracle_heightfield_shared_edges(self):
        # neighbouring faces share edges, so pixel centers on an edge pass
        # the inclusive coverage test of both faces
        mesh = bumpy_heightfield_mesh()
        for cam in geom.viewpoints(4, resolution=(24, 24))[:3]:
            assert_matches_oracle(mesh, cam)

    def test_exact_ties_go_to_first_submitted_face(self):
        mesh = submitted_copies(icosahedron_mesh())
        first_only = mesh_with_normals(mesh.vertices, mesh.faces[: mesh.n_faces // 2], mesh.vertex_norms)
        copy_only = mesh_with_normals(mesh.vertices, mesh.faces[mesh.n_faces // 2:], mesh.vertex_norms)
        for cam in geom.viewpoints(3, resolution=(24, 24)):
            view = assert_matches_oracle(mesh, cam)
            assert view.mask.any()
            alone = geom.rasterize_normals(first_only, cam)
            assert view.normal_map.vectors.tobytes() == alone.normal_map.vectors.tobytes()
            # the copy renders other normals, so a win by it would show
            copy = geom.rasterize_normals(copy_only, cam)
            assert view.normal_map.vectors.tobytes() != copy.normal_map.vectors.tobytes()

    @pytest.mark.parametrize("faces", [[[0, 1, 2], [0, 2, 3]], [[0, 2, 1], [0, 3, 2]]], ids=["ccw", "cw"])
    def test_pixel_centers_on_edges_are_covered(self, faces):
        # a square split along its diagonal, corners on pixel centers: every
        # center on a side or on the shared diagonal passes the inclusive
        # coverage test, in either winding, so the 9 x 9 block has no hole
        cam = camera_above()
        half = geom._ORTHO_WIDTH / 2.0
        cell = geom._ORTHO_WIDTH / cam.resolution[1]

        def at(px, py):  # the world point that this camera projects to (px, py)
            return [(cam.resolution[0] - 0.5 - py) * cell - half, half - (px + 0.5) * cell, 0.0]

        v = np.array([at(4, 4), at(12, 4), at(12, 12), at(4, 12)])
        mesh = mesh_with_normals(v, np.array(faces), np.tile([0.0, 0.0, 1.0], (4, 1)))
        px, py, _ = cam.project(v)
        np.testing.assert_array_equal(np.stack([px, py], axis=1), [[4, 4], [12, 4], [12, 12], [4, 12]])
        view = assert_matches_oracle(mesh, cam)
        block = np.zeros((32, 32), dtype=bool)
        block[4:13, 4:13] = True
        np.testing.assert_array_equal(view.mask, block)

    @pytest.mark.parametrize("cap", [None, 1, 7])
    def test_exact_ties_among_three_copies_go_to_the_first(self, monkeypatch, cap):
        # every covered pixel holds three fragments at one depth
        if cap is not None:
            monkeypatch.setattr(geom, "_FRAGMENT_CAP", cap)
        mesh = submitted_copies(icosahedron_mesh(), 3)
        first_only = mesh_with_normals(mesh.vertices, mesh.faces[: mesh.n_faces // 3], mesh.vertex_norms)
        for cam in geom.viewpoints(3, resolution=(24, 24)):
            view = geom.rasterize_normals(mesh, cam)
            alone = geom.rasterize_normals(first_only, cam)
            assert view.mask.any()
            assert view.normal_map.vectors.tobytes() == alone.normal_map.vectors.tobytes()
            assert view.depth.tobytes() == alone.depth.tobytes()
            assert np.array_equal(view.mask, alone.mask)

    def test_bit_exact_vs_oracle_straddling_camera_plane(self):
        r = SeededRng(23)
        mesh = random_triangles(r, 12, scale=2.0 * FIT)
        cam = Camera(position=np.array([0.3, -0.2, 0.4]), resolution=(24, 24))
        _, _, depth = cam.project(mesh.vertices)
        straddling = (depth[mesh.faces] > 0).any(axis=1) & (depth[mesh.faces] <= 0).any(axis=1)
        assert straddling.any()
        assert assert_matches_oracle(mesh, cam).mask.any()

    def test_bit_exact_vs_oracle_non_square(self):
        mesh = bumpy_heightfield_mesh(seed=6)
        for cam in geom.viewpoints(2, resolution=(18, 40)):
            view = assert_matches_oracle(mesh, cam)
            assert view.depth.shape == (18, 40)

    @pytest.mark.parametrize("cap", [1, 7])
    def test_bit_exact_vs_oracle_across_chunks(self, monkeypatch, cap):
        # a cap of one fragment puts every face in a chunk of its own
        monkeypatch.setattr(geom, "_FRAGMENT_CAP", cap)
        cam = geom.viewpoints(2, resolution=(20, 20))[0]
        assert_matches_oracle(bumpy_heightfield_mesh(), cam)
        assert_matches_oracle(submitted_copies(cube_mesh()), cam)

    def test_non_finite_vertex_rejected(self):
        mesh = facing_triangle()
        mesh.vertices[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            geom.rasterize_normals(mesh, camera_above())

    def test_empty_mesh(self):
        mesh = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        view = geom.rasterize_normals(mesh, camera_above())
        assert view.mask.sum() == 0


def sharp_report_at(mesh, deg):
    """``geom.sharp_edge_report`` of ``mesh`` with its angle set to ``deg``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "SHARP_EDGE_DEG", deg)
        return geom.sharp_edge_report(mesh)


class TestSharpEdges:
    def test_cube_is_twelve(self):
        assert geom.sharp_edge_report(cube_mesh()).sharp_count == 12

    def test_coplanar_triangles_zero(self):
        mesh = TriMesh(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        assert geom.sharp_edge_report(mesh).sharp_count == 0

    def test_zero_area_face_is_never_sharp(self):
        # two coplanar triangles plus a sliver (0, 4, 2) on their shared diagonal
        v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]])
        mesh = TriMesh(v, np.array([[0, 1, 2], [0, 2, 3], [0, 4, 2]]))
        rep = geom.sharp_edge_report(mesh)
        assert rep.nonmanifold_edges == 1
        assert rep.sharp_count == 0

    def test_icosahedron_is_thirty(self):
        mesh = icosahedron_mesh()
        rep = geom.sharp_edge_report(mesh)
        assert rep.interior_edges == 30
        assert rep.sharp_count == 30
        # analytic: face-normal angle of the icosahedron is ~41.81 degrees
        assert sharp_report_at(mesh, 41.0).sharp_count == 30
        assert sharp_report_at(mesh, 42.0).sharp_count == 0

    def test_boundary_edges_excluded(self):
        mesh = TriMesh(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0]]),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        rep = geom.sharp_edge_report(mesh)
        assert rep.boundary_edges == 4
        assert rep.interior_edges == 1

    def test_nonmanifold_counted_once_and_reported(self):
        # three faces sharing the edge (0, 1), pairwise angles ~90 degrees
        v = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, 0, 1], [0.5, -1, 0]])
        mesh = TriMesh(v, np.array([[0, 1, 2], [0, 3, 1], [0, 4, 1]]))
        rep = geom.sharp_edge_report(mesh)
        assert rep.nonmanifold_edges == 1
        assert rep.sharp_count == 1

    def test_invariant_under_permutation_and_rotation(self):
        mesh = cube_mesh()
        for i in range(5):
            r = SeededRng(31, i)
            q, _ = np.linalg.qr(r.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            perm = np.argsort(r.uniform(size=mesh.n_vertices))
            inv = np.argsort(perm)
            rotated = TriMesh(mesh.vertices[perm] @ q.T, inv[mesh.faces])
            assert geom.sharp_edge_report(rotated).sharp_count == 12

    def test_matches_edge_dict_reference(self):
        def reference(mesh, thr):
            fn = geom.face_normals(mesh)
            edge_faces = {}
            for fi, (a, b, c) in enumerate(mesh.faces):
                for u, v in ((a, b), (b, c), (c, a)):
                    edge_faces.setdefault((min(u, v), max(u, v)), []).append(fi)
            sharp = interior = boundary = nm = 0
            for faces in edge_faces.values():
                angles = [math.degrees(math.acos(float(np.clip(np.sum(fn[i] * fn[j]), -1.0, 1.0))))
                          for k, i in enumerate(faces) for j in faces[k + 1:]]
                exceeded = any(a > thr for a in angles)
                boundary += len(faces) == 1
                interior += len(faces) == 2
                nm += len(faces) > 2
                sharp += exceeded
            return geom.SharpEdgeReport(sharp, interior, boundary, nm)

        for i in range(30):
            r = SeededRng(32, i)
            nv = int(r.integers(4, 10))
            f = r.integers(0, nv, (int(r.integers(1, 25)), 3))
            f = f[(f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])]
            mesh = TriMesh(r.normal(size=(nv, 3)), f)
            for thr in (20.0, 60.0):
                assert sharp_report_at(mesh, thr) == reference(mesh, thr)
        mesh = bumpy_heightfield_mesh(size=12)
        assert sharp_report_at(mesh, 10.0) == reference(mesh, 10.0)

    def test_empty_mesh(self):
        mesh = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        assert geom.sharp_edge_report(mesh) == geom.SharpEdgeReport(0, 0, 0, 0)


class TestDatasetStats:
    def test_single_mesh(self):
        assert geom.dataset_stats([cube_mesh()]).counts == [12]

    def test_counts_in_mesh_order(self):
        computed = geom.dataset_stats(
            [  # counts 0, 12, 30: coplanar pair, cube, icosahedron
                TriMesh(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                        np.array([[0, 1, 2], [0, 2, 3]])),
                cube_mesh(),
                icosahedron_mesh(),
            ]
        )
        assert computed.counts == [0, 12, 30]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geom.dataset_stats([])


class TestHeightfieldMesh:
    def test_flat_grid_faces_up(self):
        hf = Heightfield(np.zeros((8, 8)))
        mesh = geom.heightfield_to_mesh(hf)
        fn = geom.face_normals(mesh)
        np.testing.assert_allclose(fn, np.broadcast_to([0, 0, 1.0], fn.shape), atol=1e-12)

    def test_face_order_pinned(self):
        # Heightfield needs at least 8 x 8, so pin the faces of the top-left
        # 3 x 3 vertex block: cells (0, 0), (0, 1), then (1, 0), (1, 1)
        mesh = geom.heightfield_to_mesh(Heightfield(np.zeros((8, 8))))
        assert mesh.faces.shape == (2 * 7 * 7, 3)
        np.testing.assert_array_equal(mesh.faces[0:4], [[0, 8, 1], [8, 9, 1], [1, 9, 2], [9, 10, 2]])
        np.testing.assert_array_equal(mesh.faces[14:18], [[8, 16, 9], [16, 17, 9], [9, 17, 10], [17, 18, 10]])

    def test_faces_match_cell_loop(self):
        h, w = 9, 12
        mesh = geom.heightfield_to_mesh(Heightfield(np.zeros((h, w))))
        loop = []
        for r in range(h - 1):
            for c in range(w - 1):
                loop.append((r * w + c, (r + 1) * w + c, r * w + c + 1))
                loop.append(((r + 1) * w + c, (r + 1) * w + c + 1, r * w + c + 1))
        np.testing.assert_array_equal(mesh.faces, loop)

    def test_stored_vertex_normals_render_like_recomputed(self):
        mesh = bumpy_heightfield_mesh(seed=11, size=12)
        assert "vertex_norms" not in vars(mesh)  # derived on first read
        for cam in geom.viewpoints(3, resolution=(24, 28)):
            # from the second view on, mesh renders with the normals the
            # first render stored; a fresh copy derives its own each time
            bare = TriMesh(mesh.vertices, mesh.faces)
            a, b = geom.rasterize_normals(mesh, cam), geom.rasterize_normals(bare, cam)
            assert a.mask.any()
            np.testing.assert_array_equal(a.normal_map.vectors, b.normal_map.vectors)
            np.testing.assert_array_equal(a.mask, b.mask)
            np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(mesh.vertex_norms, geom.vertex_normals(mesh))

    @staticmethod
    def _count_vertex_normals(monkeypatch):
        calls = []
        original = geom.vertex_normals

        def counted(mesh):
            calls.append(mesh)
            return original(mesh)

        monkeypatch.setattr(geom, "vertex_normals", counted)
        return calls

    def test_renders_of_one_mesh_derive_normals_once(self, monkeypatch):
        calls = self._count_vertex_normals(monkeypatch)
        mesh = bumpy_heightfield_mesh(seed=11, size=12)
        for cam in geom.viewpoints(22, resolution=(16, 16)):
            geom.rasterize_normals(mesh, cam)
        assert calls == [mesh]

    def test_sharp_edge_statistics_derive_no_normals(self, monkeypatch):
        calls = self._count_vertex_normals(monkeypatch)
        meshes = [bumpy_heightfield_mesh(seed=s, size=12) for s in range(3)]
        assert len(geom.dataset_stats(meshes).counts) == 3
        assert calls == []
        assert all("vertex_norms" not in vars(m) for m in meshes)

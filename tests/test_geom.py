import math

import numpy as np
import pytest

from normalbridge import geom
from normalbridge.geom import Camera, TriMesh
from normalbridge.maps import Heightfield
from normalbridge.tensorcore import SeededRng

from raster_oracle import rasterize_oracle

CUBE_OBJ = """\
v -0.5 -0.5 -0.5
v 0.5 -0.5 -0.5
v 0.5 0.5 -0.5
v -0.5 0.5 -0.5
v -0.5 -0.5 0.5
v 0.5 -0.5 0.5
v 0.5 0.5 0.5
v -0.5 0.5 0.5
f 1 4 3 2
f 5 6 7 8
f 1 2 6 5
f 3 4 8 7
f 2 3 7 6
f 4 1 5 8
"""


class TestLoadObj:
    def test_cube_counts(self):
        mesh = geom.load_obj(CUBE_OBJ)
        assert mesh.n_vertices == 8
        assert mesh.n_faces == 12  # six quads fan into twelve triangles
        assert mesh.n_dropped_faces == 0

    def test_quad_becomes_two_triangles(self):
        obj = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        mesh = geom.load_obj(obj)
        assert mesh.n_faces == 2

    def test_out_of_range_index_reports_line(self):
        obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n"
        with pytest.raises(ValueError, match="line 4"):
            geom.load_obj(obj)

    def test_malformed_vertex_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            geom.load_obj("v 0 0\n")

    def test_degenerate_faces_dropped_and_counted(self):
        obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 1 2\nf 1 2 3\n"
        mesh = geom.load_obj(obj)
        assert mesh.n_faces == 1
        assert mesh.n_dropped_faces == 1

    def test_slash_indices_and_comments(self):
        obj = "# cube face\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 0 1\nvn 0 0 1\nf 1//1 2//2 3//3\n"
        mesh = geom.load_obj(obj)
        assert mesh.n_faces == 1
        assert mesh.vertex_norms is not None

    def test_normals_follow_face_indices(self):
        # every corner names vn 3 (+z); by position, vertices 1 and 2 would get -z
        obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 -1\nvn 0 0 -1\nvn 0 0 1\nf 1//3 2//3 3//3\n"
        mesh = geom.load_obj(obj)
        np.testing.assert_array_equal(mesh.vertex_norms, np.tile([0.0, 0.0, 1.0], (3, 1)))

    def test_vt_and_negative_normal_indices(self):
        obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 1 0 0\nvn 0 1 0\nf 1/1/1 2/1/-1 3/1/-2\n"
        mesh = geom.load_obj(obj)
        np.testing.assert_array_equal(mesh.vertex_norms, [[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 0]])

    def test_conflicting_or_missing_normals_recompute(self):
        quad = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nvn 0 0 1\nvn 0 0 -1\n"
        # vertices 2 and 3 are named with vn 1 by one face and vn 2 by the other
        assert geom.load_obj(quad + "f 1//1 2//1 3//1\nf 2//2 4//2 3//2\n").vertex_norms is None
        # the second face names no normals
        assert geom.load_obj(quad + "f 1//1 2//1 3//1\nf 2 4 3\n").vertex_norms is None
        # vn lines that no face names bind nothing, even when their count matches
        assert geom.load_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 0 1\nvn 0 0 1\nf 1 2 3\n").vertex_norms is None

    def test_normal_index_out_of_range_reports_line(self):
        with pytest.raises(ValueError, match="line 5.*normal index 2"):
            geom.load_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//2 3//1\n")


class TestNormals:
    def test_ccw_triangle_faces_up(self):
        mesh = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
        np.testing.assert_allclose(geom.face_normals(mesh), [[0, 0, 1]], atol=1e-15)

    def test_cube_vertex_normals_diagonal(self):
        mesh = geom.cube_mesh()
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


class TestViewpoints:
    def test_count_and_radius(self):
        cams = geom.viewpoints(22, radius=3.0)
        assert len(cams) == 22
        for c in cams:
            assert abs(np.linalg.norm(c.position) - 3.0) < 1e-9
            np.testing.assert_array_equal(c.look_at, np.zeros(3))

    def test_min_angular_separation(self):
        cams = geom.viewpoints(22)
        dirs = np.array([c.position / np.linalg.norm(c.position) for c in cams])
        worst = 180.0
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                ang = math.degrees(math.acos(float(np.clip(dirs[i] @ dirs[j], -1, 1))))
                worst = min(worst, ang)
        assert worst > 25.0

    def test_deterministic(self):
        a = geom.viewpoints(22)
        b = geom.viewpoints(22)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.position, y.position)


def facing_triangle(z=0.0, normal=(0.0, 0.0, 1.0)):
    v = np.array([[-1.0, -1.0, z], [1.0, -1.0, z], [0.0, 1.0, z]])
    n = np.tile(np.asarray(normal, dtype=np.float64), (3, 1))
    return TriMesh(v, np.array([[0, 1, 2]]), vertex_norms=n)


def camera_above(resolution=(32, 32)):
    return Camera(position=np.array([0.0, 0.0, 3.0]), resolution=resolution, ortho_width=3.0)


def assert_matches_oracle(mesh, cam):
    with np.errstate(divide="ignore", invalid="ignore"):  # vertices on the camera plane
        view = geom.rasterize_normals(mesh, cam)
        o_nm, o_z = rasterize_oracle(mesh, cam)
    assert view.normal_map.vectors.tobytes() == o_nm.vectors.tobytes()
    assert view.depth.tobytes() == o_z.tobytes()
    assert np.array_equal(view.mask, o_nm.mask)
    return view


def random_triangles(r, n_tri, scale=1.0):
    v = r.uniform(-scale, scale, (3 * n_tri, 3))
    n = r.normal((3 * n_tri, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return TriMesh(v, np.arange(3 * n_tri).reshape(-1, 3), vertex_norms=n)


def bumpy_heightfield_mesh(seed=5, size=8):
    r = SeededRng(seed).stream_rng(0)
    return geom.heightfield_to_mesh(Heightfield(r.normal((size, size)) * 0.15, 2.0 / (size - 1)))


def twice_submitted(mesh, seed=9):
    """``mesh`` followed by a copy at the same positions with other normals.

    Every pixel then holds exact depth ties between a face and its copy,
    and the two differ in normal, so the render shows which one won.
    """
    r = SeededRng(seed).stream_rng(0)
    n = r.normal((2 * mesh.n_vertices, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return TriMesh(np.vstack([mesh.vertices, mesh.vertices]),
                   np.vstack([mesh.faces, mesh.faces + mesh.n_vertices]), vertex_norms=n)


class TestRasterizer:
    def test_facing_triangle_encodes_up(self):
        view = geom.rasterize_normals(facing_triangle(), camera_above())
        assert view.mask.sum() > 50
        covered = view.normal_map.vectors[view.mask]
        np.testing.assert_allclose(covered, np.broadcast_to([0, 0, 1.0], covered.shape), atol=1e-12)

    def test_mesh_behind_camera_culled(self):
        cam = Camera(position=np.array([0.0, 0.0, -3.0]), look_at=np.array([0.0, 0.0, -6.0]),
                     resolution=(32, 32), ortho_width=3.0)
        view = geom.rasterize_normals(facing_triangle(), cam)
        assert view.mask.sum() == 0

    def test_nearer_triangle_wins(self):
        near = facing_triangle(z=1.0)
        far = facing_triangle(z=0.0)
        mesh = TriMesh(
            np.vstack([far.vertices, near.vertices]),
            np.array([[0, 1, 2], [3, 4, 5]]),
            vertex_norms=np.vstack([far.vertex_norms, near.vertex_norms]),
        )
        view = geom.rasterize_normals(mesh, camera_above())
        # camera at z=3: near triangle depth 2, far depth 3; contested
        # pixels must all carry the nearer depth
        covered = view.depth[view.mask]
        assert np.all(np.abs(covered - 2.0) < 1e-9)

    def test_bit_exact_vs_oracle_random_scenes(self):
        rng = SeededRng(21)
        for i in range(10):
            r = rng.stream_rng(i)
            n_tri = int(r.integers(4, 10))
            v = r.uniform(-1.0, 1.0, (3 * n_tri, 3))
            n = r.normal((3 * n_tri, 3))
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            mesh = TriMesh(v, np.arange(3 * n_tri).reshape(-1, 3), vertex_norms=n)
            direction = r.normal((3,))
            direction /= np.linalg.norm(direction)
            cam = Camera(position=direction * 3.0, resolution=(32, 32), ortho_width=3.0)
            view = geom.rasterize_normals(mesh, cam)
            o_nm, o_z = rasterize_oracle(mesh, cam)
            assert view.normal_map.vectors.tobytes() == o_nm.vectors.tobytes()
            assert view.depth.tobytes() == o_z.tobytes()
            assert np.array_equal(view.mask, o_nm.mask)

    def test_bit_exact_vs_oracle_perspective_random_scenes(self):
        rng = SeededRng(22)
        for i in range(8):
            r = rng.stream_rng(i)
            mesh = random_triangles(r, int(r.integers(4, 10)))
            direction = r.normal((3,))
            direction /= np.linalg.norm(direction)
            cam = Camera(position=direction * 3.0, mode="perspective", fov_y_deg=50.0, resolution=(32, 32))
            assert assert_matches_oracle(mesh, cam).mask.any()

    @pytest.mark.parametrize("mode", ["orthographic", "perspective"])
    def test_bit_exact_vs_oracle_heightfield_shared_edges(self, mode):
        # neighbouring faces share edges, so pixel centers on an edge pass
        # the inclusive coverage test of both faces
        mesh = bumpy_heightfield_mesh()
        for cam in geom.viewpoints(4, mode=mode, resolution=(24, 24))[:3]:
            assert_matches_oracle(mesh, cam)

    @pytest.mark.parametrize("mode", ["orthographic", "perspective"])
    def test_exact_ties_go_to_first_submitted_face(self, mode):
        mesh = twice_submitted(geom.icosahedron_mesh())
        first_only = TriMesh(mesh.vertices, mesh.faces[: mesh.n_faces // 2], vertex_norms=mesh.vertex_norms)
        for cam in geom.viewpoints(3, mode=mode, resolution=(24, 24)):
            view = assert_matches_oracle(mesh, cam)
            assert view.mask.any()
            alone = geom.rasterize_normals(first_only, cam)
            assert view.normal_map.vectors.tobytes() == alone.normal_map.vectors.tobytes()

    @pytest.mark.parametrize("mode", ["orthographic", "perspective"])
    def test_bit_exact_vs_oracle_straddling_camera_plane(self, mode):
        r = SeededRng(23).stream_rng(0)
        mesh = random_triangles(r, 12, scale=2.0)
        cam = Camera(position=np.array([0.3, -0.2, 0.4]), mode=mode, fov_y_deg=70.0,
                     resolution=(24, 24), ortho_width=3.0)
        _, _, depth = cam.project(mesh.vertices)
        straddling = (depth[mesh.faces] > 0).any(axis=1) & (depth[mesh.faces] <= 0).any(axis=1)
        assert straddling.any()
        assert assert_matches_oracle(mesh, cam).mask.any()

    @pytest.mark.parametrize("mode", ["orthographic", "perspective"])
    def test_bit_exact_vs_oracle_non_square(self, mode):
        mesh = bumpy_heightfield_mesh(seed=6)
        for cam in geom.viewpoints(2, mode=mode, resolution=(18, 40)):
            view = assert_matches_oracle(mesh, cam)
            assert view.depth.shape == (18, 40)

    @pytest.mark.parametrize("cap", [1, 7])
    def test_bit_exact_vs_oracle_across_chunks(self, monkeypatch, cap):
        # a cap of one fragment puts every face in a chunk of its own
        monkeypatch.setattr(geom, "_FRAGMENT_CAP", cap)
        for mode in ("orthographic", "perspective"):
            cam = geom.viewpoints(2, mode=mode, resolution=(20, 20))[0]
            assert_matches_oracle(bumpy_heightfield_mesh(), cam)
            assert_matches_oracle(twice_submitted(geom.cube_mesh()), cam)

    def test_non_finite_vertex_rejected(self):
        mesh = facing_triangle()
        mesh.vertices[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            geom.rasterize_normals(mesh, camera_above())

    def test_perspective_mode_runs(self):
        cam = Camera(position=np.array([0.0, 0.0, 3.0]), mode="perspective",
                     fov_y_deg=50.0, resolution=(32, 32))
        view = geom.rasterize_normals(facing_triangle(), cam)
        assert view.mask.sum() > 10
        covered = view.normal_map.vectors[view.mask]
        np.testing.assert_allclose(covered, np.broadcast_to([0, 0, 1.0], covered.shape), atol=1e-9)

    def test_empty_mesh(self):
        mesh = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        view = geom.rasterize_normals(mesh, camera_above())
        assert view.mask.sum() == 0


class TestSharpEdges:
    def test_cube_is_twelve(self):
        assert geom.count_sharp_edges(geom.cube_mesh(), 30.0) == 12

    def test_coplanar_triangles_zero(self):
        mesh = TriMesh(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        assert geom.count_sharp_edges(mesh) == 0

    def test_icosahedron_is_thirty(self):
        mesh = geom.icosahedron_mesh()
        rep = geom.sharp_edge_report(mesh, 30.0)
        assert rep.interior_edges == 30
        assert rep.sharp_count == 30
        # analytic: face-normal angle of the icosahedron is ~41.81 degrees
        assert geom.count_sharp_edges(mesh, 41.0) == 30
        assert geom.count_sharp_edges(mesh, 42.0) == 0

    def test_boundary_edges_excluded(self):
        mesh = TriMesh(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0]]),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        rep = geom.sharp_edge_report(mesh, 30.0)
        assert rep.boundary_edges == 4
        assert rep.interior_edges == 1

    def test_nonmanifold_counted_once_and_reported(self):
        # three faces sharing the edge (0, 1), pairwise angles ~90 degrees
        v = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, 0, 1], [0.5, -1, 0]])
        mesh = TriMesh(v, np.array([[0, 1, 2], [0, 3, 1], [0, 4, 1]]))
        rep = geom.sharp_edge_report(mesh, 30.0)
        assert rep.nonmanifold_edges == 1
        assert rep.nonmanifold_sharp_count == 1
        assert rep.sharp_count == 1

    def test_invariant_under_permutation_and_rotation(self):
        rng = SeededRng(31)
        mesh = geom.cube_mesh()
        for i in range(5):
            r = rng.stream_rng(i)
            q, _ = np.linalg.qr(r.normal((3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            perm = r.permutation(mesh.n_vertices)
            inv = np.argsort(perm)
            rotated = TriMesh(mesh.vertices[perm] @ q.T, inv[mesh.faces])
            assert geom.count_sharp_edges(rotated, 30.0) == 12

    def test_matches_edge_dict_reference(self):
        def reference(mesh, thr):
            fn = geom.face_normals(mesh)
            edge_faces = {}
            for fi, (a, b, c) in enumerate(mesh.faces):
                for u, v in ((a, b), (b, c), (c, a)):
                    edge_faces.setdefault((min(u, v), max(u, v)), []).append(fi)
            sharp = nm_sharp = interior = boundary = nm = 0
            for faces in edge_faces.values():
                angles = [math.degrees(math.acos(float(np.clip(np.sum(fn[i] * fn[j]), -1.0, 1.0))))
                          for k, i in enumerate(faces) for j in faces[k + 1:]]
                exceeded = any(a > thr for a in angles)
                boundary += len(faces) == 1
                interior += len(faces) == 2
                nm += len(faces) > 2
                sharp += exceeded
                nm_sharp += exceeded and len(faces) > 2
            return geom.SharpEdgeReport(sharp, nm_sharp, interior, boundary, nm)

        rng = SeededRng(32)
        for i in range(30):
            r = rng.stream_rng(i)
            nv = int(r.integers(4, 10))
            f = r.integers(0, nv, (int(r.integers(1, 25)), 3))
            f = f[(f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])]
            mesh = TriMesh(r.normal((nv, 3)), f)
            for thr in (20.0, 60.0):
                assert geom.sharp_edge_report(mesh, thr) == reference(mesh, thr)
        mesh = bumpy_heightfield_mesh(size=12)
        assert geom.sharp_edge_report(mesh, 10.0) == reference(mesh, 10.0)

    def test_empty_mesh(self):
        mesh = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        assert geom.sharp_edge_report(mesh) == geom.SharpEdgeReport(0, 0, 0, 0, 0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            geom.count_sharp_edges(geom.cube_mesh(), 0.0)


class TestDatasetStats:
    def test_single_mesh(self):
        stats = geom.dataset_stats([geom.cube_mesh()])
        assert stats.mean_sharp_edges == 12.0
        assert stats.median_sharp_edges == 12.0
        assert stats.n_objects == 1

    def test_mean_and_lower_median(self):
        stats = geom.DatasetStats(3, float(np.mean([0, 12, 30])), 12.0, [0, 12, 30])
        computed = geom.dataset_stats(
            [  # counts {0, 12, 30}: coplanar pair, cube, icosahedron
                TriMesh(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                        np.array([[0, 1, 2], [0, 2, 3]])),
                geom.cube_mesh(),
                geom.icosahedron_mesh(),
            ]
        )
        assert computed.mean_sharp_edges == stats.mean_sharp_edges == 14.0
        assert computed.median_sharp_edges == 12.0

    def test_even_count_lower_middle(self):
        # counts sorted: [0, 12, 12, 30] -> lower middle is index 1
        meshes = [geom.cube_mesh(), geom.cube_mesh(), geom.icosahedron_mesh(),
                  TriMesh(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                          np.array([[0, 1, 2], [0, 2, 3]]))]
        assert geom.dataset_stats(meshes).median_sharp_edges == 12.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geom.dataset_stats([])

    def test_csv_row_format(self):
        row = geom.stats_csv_row("toy", geom.dataset_stats([geom.cube_mesh()]), "Synthesis")
        assert row == "toy,1,12 / 12,Synthesis"
        ref = geom.stats_csv_row("", geom.DETAILVERSE_REFERENCE_STATS, "")
        assert ref == "DetailVerse,700,000,45,773 / 14,521,Synthesis"


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

    def test_obj_round_trip(self, tmp_path):
        mesh = geom.icosahedron_mesh()
        geom.save_obj(tmp_path / "ico.obj", mesh)
        back = geom.load_obj((tmp_path / "ico.obj").read_text())
        np.testing.assert_allclose(back.vertices, mesh.vertices, atol=1e-15)
        np.testing.assert_array_equal(back.faces, mesh.faces)

import hashlib
import re
from collections import deque

import numpy as np
import pytest

from normalbridge import geom, metrics, toydata
from normalbridge.maps import NormalMap
from normalbridge.tensorcore import SeededRng

from canny_oracle import canny_oracle, dilate_loop


def full_map(v):
    """A NormalMap whose every pixel is foreground."""
    return NormalMap(v, np.ones(v.shape[:2], dtype=bool))


def flat_map(h, w, vec=(0.0, 0.0, 1.0)):
    return full_map(np.broadcast_to(np.asarray(vec, dtype=np.float64), (h, w, 3)).copy())


def level_map(levels):
    """A full-foreground NormalMap whose encoded image is ``levels``, integers
    0..255, per channel (H x W x 3) or in all three channels (H x W). Canny
    reads only the encoded levels, so these vectors need not be unit length."""
    lv = np.asarray(levels, dtype=np.float64)
    if lv.ndim == 2:
        lv = np.repeat(lv[..., None], 3, axis=2)
    return full_map(lv / 255.0 * 2.0 - 1.0)


def random_levels(rng, shape):
    return rng.integers(0, 256, shape).astype(np.float64)


def random_masked_map(rng, h, w):
    """Random unit normals facing the viewer on a random foreground, (0, 0, 1) behind."""
    v = rng.normal(size=(h, w, 3))
    v[..., 2] = np.abs(v[..., 2])
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    mask = rng.uniform(0, 1, (h, w)) < 0.7
    v[~mask] = (0.0, 0.0, 1.0)
    return NormalMap(v, mask)


def blend_map(weight):
    """Unit normals that turn from (0, 0, 1) to (0.6, 0, 0.8) as ``weight`` goes from 0 to 1."""
    v = (1.0 - weight)[..., None] * np.array([0.0, 0.0, 1.0]) + weight[..., None] * np.array([0.6, 0.0, 0.8])
    return full_map(v / np.linalg.norm(v, axis=-1, keepdims=True))


def canny_at(nm, low, high):
    """``metrics.canny`` of ``nm`` with its thresholds set to (low, high)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "CANNY_LOW", low)
        mp.setattr(metrics, "CANNY_HIGH", high)
        return metrics.canny(nm)


def step_map(h, w, col, left=(0.0, 0.0, 1.0), right=(1.0, 0.0, 0.0)):
    v = np.empty((h, w, 3))
    v[:, :col] = left
    v[:, col:] = right
    return full_map(v)


class TestNormalError:
    def test_identical_is_exactly_zero(self):
        a = step_map(8, 8, 4)
        assert metrics.normal_error(a, a, a.mask) == 0.0

    def test_orthogonal_is_exactly_ninety(self):
        a = flat_map(4, 4, (0, 0, 1))
        b = flat_map(4, 4, (1, 0, 0))
        assert metrics.normal_error(a, b, a.mask) == 90.0

    def test_antiparallel_is_exactly_180(self):
        a = flat_map(4, 4, (0, 0, 1))
        b = flat_map(4, 4, (0, 0, -1))
        assert metrics.normal_error(a, b, a.mask) == 180.0

    @staticmethod
    def _random_unit_map(seed, side=16):
        v = SeededRng(seed).normal(size=(side, side, 3))
        return full_map(v / np.linalg.norm(v, axis=-1, keepdims=True))

    def test_random_map_against_itself_is_exactly_zero(self):
        # the rounded dot products are not all exactly 1, so their arccos is not 0
        a = self._random_unit_map(1)
        assert metrics.normal_error(a, a, a.mask) == 0.0

    def test_random_map_against_its_negation_is_exactly_180(self):
        a = self._random_unit_map(2)
        assert metrics.normal_error(a, full_map(-a.vectors), a.mask) == 180.0

    def test_tiny_rotation_is_resolved(self):
        # a 1e-8 rad rotation about z: cos(1e-8) rounds to 1.0, so the dot
        # product alone cannot resolve the angle
        t = 1e-8
        a = self._random_unit_map(3)
        rot = np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]])
        v = a.vectors.copy()
        v[..., 2] = 0.0  # in the xy plane, so the angle is exactly the rotation
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        b, c = full_map(v), full_map(v @ rot.T)
        assert metrics.normal_error(b, c, b.mask) == pytest.approx(np.degrees(t), rel=1e-6)

    def test_symmetric(self):
        rng = SeededRng(0)
        v = rng.normal(size=(6, 6, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        w = rng.normal(size=(6, 6, 3))
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
        a, b = full_map(v), full_map(w)
        assert metrics.normal_error(a, b, a.mask) == metrics.normal_error(b, a, a.mask)

    def test_empty_mask_rejected(self):
        a = flat_map(4, 4)
        with pytest.raises(ValueError, match="empty mask"):
            metrics.normal_error(a, a, np.zeros((4, 4), bool))

    def test_mask_restricts(self):
        a = flat_map(4, 4, (0, 0, 1))
        v = a.vectors.copy()
        v[0, 0] = (1.0, 0.0, 0.0)
        b = full_map(v)
        m = np.zeros((4, 4), bool)
        m[1:, 1:] = True
        assert metrics.normal_error(a, b, m) == 0.0


class TestCanny:
    def test_constant_map_empty(self):
        em = metrics.canny(flat_map(16, 16, (0, 0, 1)))
        assert em.count == 0

    def test_constant_images_have_no_edges(self):
        # a constant's blur and Sobel leave a rounding residue at every
        # pixel; scaled by its own peak it would read as a full-strength edge
        for level in range(256):
            r = SeededRng(12, level)
            h, w = (int(n) for n in r.integers(1, 40, 2))
            nm = level_map(np.full((h, w), level))
            assert metrics.canny(nm).count == 0, level
            np.testing.assert_array_equal(canny_oracle(nm, 0.1, 0.2), np.zeros((h, w), bool))
            vec = r.normal(size=3)
            vec[2] = abs(vec[2]) + 0.1
            assert metrics.canny(flat_map(h, w, vec / np.linalg.norm(vec))).count == 0, vec

    def test_one_level_step_is_an_edge(self):
        # the encoding's smallest step peaks near 7.9e-3, far above the
        # absolute floor, at every level and in every channel
        for level in range(255):
            lv = np.full((12, 16, 3), 128.0)
            lv[..., level % 3] = level
            lv[:, 8:, level % 3] = level + 1
            edges = metrics.canny(level_map(lv)).mask
            assert edges.any(axis=1).all(), level
            assert not edges[:, :6].any() and not edges[:, 10:].any(), level

    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (7, 3), (16, 16), (19, 23), (40, 9)])
    def test_constant_channel_same_as_without_it(self, shape):
        # the union over a channel and a copy of another is the union without it
        for c in range(3):
            r = SeededRng(30, 3 * shape[0] + c)
            lv = random_levels(r, shape + (3,))
            lv[..., c] = r.integers(0, 256)
            other, rest = (c + 1) % 3, (c + 2) % 3
            want = metrics.canny(level_map(lv[..., [other, other, rest]])).mask
            np.testing.assert_array_equal(metrics.canny(level_map(lv)).mask, want, err_msg=f"channel {c}")
            # with a second constant channel only the remaining one counts
            lv[..., other] = 255 - lv[0, 0, c]
            alone = metrics.canny(level_map(lv[..., rest])).mask
            np.testing.assert_array_equal(metrics.canny(level_map(lv)).mask, alone, err_msg=f"channels {c}, {other}")
            lv[..., rest] = 64
            assert metrics.canny(level_map(lv)).count == 0

    def test_vertical_step_single_column(self):
        col = 16
        em = metrics.canny(step_map(32, 32, col))
        rows_hit = em.mask.any(axis=1)
        assert rows_hit.all()
        cols = np.flatnonzero(em.mask.any(axis=0))
        # a thin vertical line within +-1 px of the discontinuity
        assert cols.min() >= col - 2 and cols.max() <= col + 1
        per_row = em.mask.sum(axis=1)
        assert per_row.max() <= 2

    def test_count_non_increasing_in_high(self):
        nm = level_map(random_levels(SeededRng(3), (32, 32, 3)))
        counts = [canny_at(nm, 0.05, h).count for h in (0.1, 0.2, 0.4, 0.6, 0.8)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


ORACLE_PAIRS = ((0.1, 0.2), (0.05, 0.5), (0.1, 1.0))


def assert_canny_matches_oracle(nm):
    for low, high in ORACLE_PAIRS:
        np.testing.assert_array_equal(
            canny_at(nm, low, high).mask, canny_oracle(nm, low, high), err_msg=f"({low}, {high})"
        )


def winding_chain(h=21, w=151, amp=2.0, period=40.0, level=0.3):
    """A step edge, with values in [0, 1], that winds along a sine across the
    whole width.

    At the defaults its slope stays under tan(22.5 deg), so every edge
    pixel survives non-maximum suppression and the edge is one
    8-connected chain. The contrast is ``level`` until it rises to 1
    over the last columns, so at ``high=1`` the one strong pixel sits at
    the far right end.
    """
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    contrast = level + (1.0 - level) * np.clip((xx - (w - 14)) / 10.0, 0.0, 1.0)
    return contrast * np.clip(h / 2 + amp * np.sin(2 * np.pi * xx / period) - yy, 0.0, 1.0)


def blur_pad_reference(img, sigma, mode):
    """Gaussian blur through ``np.pad``, taps summed left to right from zero."""
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k = k / k.sum()
    h, w = img.shape[:2]
    rest = ((0, 0),) * (img.ndim - 2)
    pad = np.pad(img, ((radius, radius), (0, 0)) + rest, mode=mode)
    out = np.zeros(img.shape)
    for i, kv in enumerate(k):
        out += kv * pad[i : i + h]
    pad = np.pad(out, ((0, 0), (radius, radius)) + rest, mode=mode)
    out = np.zeros(img.shape)
    for i, kv in enumerate(k):
        out += kv * pad[:, i : i + w]
    return out


class TestGaussianBlur:
    @pytest.mark.parametrize("side", range(1, 15))
    @pytest.mark.parametrize("mode", ["reflect", "edge"])
    @pytest.mark.parametrize("sigma", [1.4, 4.0])
    def test_matches_pad_reference_bitwise(self, side, mode, sigma):
        # sides at and below the radius (5 and 12) included, where np.pad
        # reflects more than once; negative zeros check the sign of zero sums
        rng = SeededRng(side)
        for shape in [(side, side), (side, 15 - side, 3), (7, side)]:
            img = rng.normal(size=shape)
            img[img > 0.8] = -0.0
            got = metrics.gaussian_blur(img, sigma, mode)
            want = blur_pad_reference(img, sigma, mode)
            assert got.shape == img.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=f"{shape}")

    @pytest.mark.parametrize("mode", ["constant", "wrap", "symmetric", "Reflect"])
    def test_other_modes_rejected(self, mode):
        with pytest.raises(ValueError, match=f"unsupported border mode '{mode}'"):
            metrics.gaussian_blur(np.zeros((8, 8)), 1.4, mode)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, float("nan"), float("inf"), -float("inf"),
                                       True, np.True_, "1", None])
    def test_sigma_not_finite_and_positive_rejected(self, sigma):
        # -1 would blur to zeros and 0 to NaN; True would blur as 1
        with pytest.raises(ValueError, match=re.escape(f"gaussian_blur: sigma must be finite and > 0, got {sigma!r}")):
            metrics.gaussian_blur(np.ones((8, 8)), sigma, "edge")


class TestCannyOracle:
    @pytest.mark.parametrize("h", range(1, 9))
    def test_small_random_images(self, h):
        rng = SeededRng(20 + h)
        for w in range(1, 9):
            assert_canny_matches_oracle(level_map(random_levels(rng, (h, w, 3))))
            assert_canny_matches_oracle(random_masked_map(rng, h, w))

    def test_rendered_mesh_views(self):
        hf = toydata.generate_scene(0, 6, size=16, cell_size=2.0 / 15)
        mesh = geom.heightfield_to_mesh(hf)
        for cam in geom.viewpoints(4, resolution=(96, 96)):
            assert_canny_matches_oracle(geom.rasterize_normals(mesh, cam).normal_map)

    def test_toydata_heightfield_normals(self):
        for seed in range(6):
            assert_canny_matches_oracle(toydata.heightfield_normals(toydata.generate_scene(seed, 2 + seed)))

    @pytest.mark.parametrize("shape", [(13, 29), (31, 17), (9, 45), (27, 11)])
    def test_random_images_odd_non_square(self, shape):
        rng = SeededRng(7)
        assert_canny_matches_oracle(level_map(random_levels(rng, shape + (3,))))
        assert_canny_matches_oracle(random_masked_map(rng, *shape))

    def test_constant_channel_adds_nothing(self):
        lv = random_levels(SeededRng(8), (19, 23, 3))
        lv[..., 1] = 128  # zero gradient, so its peak is 0
        nm = level_map(lv)
        assert_canny_matches_oracle(nm)
        for low, high in ORACLE_PAIRS:
            got = canny_at(nm, low, high).mask
            others = canny_at(level_map(lv[..., 0]), low, high).mask | canny_at(level_map(lv[..., 2]), low, high).mask
            assert got.any()
            np.testing.assert_array_equal(got, others)

    def test_plateau_ties(self):
        # a step along a diagonal: the blurred magnitude is bit-equal along
        # each anti-diagonal, so neighbours tie exactly
        yy, xx = np.mgrid[0:23, 0:31]
        down = np.where(xx + yy >= 26, 255, 0)
        up = np.where(xx - yy >= 5, 204, 26)
        for lv in (down, up, np.dstack([down, up, down])):
            assert_canny_matches_oracle(level_map(lv))

    def test_long_winding_chain_from_one_strong_pixel(self):
        nm = level_map(np.rint(255.0 * winding_chain()))
        assert_canny_matches_oracle(nm)
        assert canny_at(nm, 1.0 - 1e-9, 1.0).count == 1  # the one strong pixel
        edges = canny_at(nm, 0.1, 1.0).mask
        assert edges.sum() == nm.shape[1] and edges[:, 0].any()  # grown across the full width

    def test_weak_pixels_without_strong_pixel_dropped(self):
        lv = np.zeros((31, 37))
        lv[:10] = 255  # strong edge near row 10
        lv[20:] = 77  # a weak edge near row 20, not connected to it
        nm = level_map(lv)
        assert_canny_matches_oracle(nm)
        edges = canny_at(nm, 0.1, 0.5).mask
        assert edges[:15].any() and not edges[15:].any()
        assert canny_at(nm, 0.1, 0.2).mask[15:].any()


def mask_digest(masks):
    h = hashlib.sha256()
    for m in masks:
        h.update(m.tobytes())
    return h.hexdigest()


def components(mask):
    """The 8-connected components of a bool mask, as lists of (row, col)."""
    seen = np.zeros_like(mask)
    found = []
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        seen[start] = True
        queue, comp = deque([start]), []
        while queue:
            y, x = queue.popleft()
            comp.append((y, x))
            for ny in range(max(y - 1, 0), min(y + 2, mask.shape[0])):
                for nx in range(max(x - 1, 0), min(x + 2, mask.shape[1])):
                    if mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
        found.append(comp)
    return found


class TestCannyPins:
    """sha256 of the concatenated edge masks of the benchmark inputs; a
    rewrite of Canny must keep every bit of them."""

    def test_mesh_eval_ground_truth_views(self):
        # the mesh_eval benchmark's ground-truth mesh at seed 0: scene
        # complexity 6 on a 16 x 16 grid spanning [-1, 1]^2, 22 views of
        # 96 x 96 pixels, background included
        mesh = geom.heightfield_to_mesh(toydata.generate_scene(0, 6, size=16, cell_size=2.0 / 15))
        masks = [metrics.canny(geom.rasterize_normals(mesh, cam).normal_map).mask
                 for cam in geom.viewpoints(22, resolution=(96, 96))]
        assert sum(m.sum() for m in masks) == 13276
        assert mask_digest(masks) == "6b1f51806bfe8080fa64978e1ac23572a13d8afa53ad3fd0b1fa7315464d16f4"

    def test_synthetic_dataset_ground_truths(self):
        masks = [metrics.canny(s.normal_gt).mask for s in toydata.make_dataset(8, toydata.Domain.SYNTH, 0)]
        assert sum(m.sum() for m in masks) == 3824
        assert mask_digest(masks) == "f4689124f95b2d1cef59e5ea8d25fcc1c257be3464027ec34ee8d197f3721e91"


def _box_mask(h, w, rows, cols):
    m = np.zeros((h, w), dtype=bool)
    m[rows, cols] = True
    return m


# foreground masks of a 40 x 48 map: the number of borders a box touches,
# a box one pixel in from the borders, and masks whose box is not full
_CROP_MASKS = {
    "no_border": lambda r: _box_mask(40, 48, slice(10, 25), slice(12, 30)),
    "one_border": lambda r: _box_mask(40, 48, slice(0, 20), slice(10, 30)),
    "two_opposite_borders": lambda r: _box_mask(40, 48, slice(0, 40), slice(10, 30)),
    "two_borders_at_a_corner": lambda r: _box_mask(40, 48, slice(0, 20), slice(0, 30)),
    "three_borders": lambda r: _box_mask(40, 48, slice(0, 40), slice(0, 30)),
    "four_borders": lambda r: _box_mask(40, 48, slice(0, 40), slice(3, 48)) | _box_mask(40, 48, 20, slice(0, 3)),
    "one_px_from_every_border": lambda r: _box_mask(40, 48, slice(1, 39), slice(1, 47)),
    "one_px_from_one_border": lambda r: _box_mask(40, 48, slice(1, 20), slice(10, 30)),
    "single_pixel": lambda r: _box_mask(40, 48, 17, 29),
    "sparse": lambda r: r.uniform(0, 1, (40, 48)) < 0.05,
    "disk": lambda r: np.hypot(*(np.mgrid[0:40, 0:48] - np.array([25, 14])[:, None, None])) <= 9.5,
    "empty": lambda r: np.zeros((40, 48), dtype=bool),
    "full": lambda r: np.ones((40, 48), dtype=bool),
}


class TestCannyCrop:
    """Canny of a NormalMap runs on its foreground box widened by the
    blur radius + 2; an exact crop gives the mask of the whole encoded
    image, which the float oracle filters uncropped."""

    @pytest.mark.parametrize("case", list(_CROP_MASKS))
    def test_mask_equals_uncropped_float_path(self, case):
        for seed in range(4):
            r = SeededRng(40, seed)
            # 8 x 8-pixel blocks of random unit normals facing the viewer:
            # steps inside the foreground and at its outline
            v = r.normal(size=(5, 6, 3))
            v[..., 2] = np.abs(v[..., 2]) + 0.2
            v = np.repeat(np.repeat(v / np.linalg.norm(v, axis=-1, keepdims=True), 8, 0), 8, 1)
            mask = _CROP_MASKS[case](r)
            v[~mask] = (0.0, 0.0, 1.0)
            nm = NormalMap(v, mask)
            got = metrics.canny(nm).mask
            want = canny_oracle(nm, metrics.CANNY_LOW, metrics.CANNY_HIGH)
            np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
            assert got.any() == mask.any()


class TestCannyGeometry:
    """What an edge detector must find, independent of the oracle. Both
    fail because non-maximum suppression compares the diagonal sectors
    along the edge instead of across it (ROADMAP item 3)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="NMS compares diagonal sectors along the edge")
    def test_diagonal_step_is_one_thin_line(self):
        yy, xx = np.mgrid[0:48, 0:48]
        # the 2-px frame, where the reflected border crosses the edge, is left out
        edges = metrics.canny(blend_map((xx >= yy).astype(np.float64))).mask[2:-2, 2:-2]
        assert len(components(edges)) == 1
        assert edges[0].any() and edges[-1].any()
        assert edges.sum(axis=0).max() <= 2 and edges.sum(axis=1).max() <= 2

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="NMS compares diagonal sectors along the edge")
    def test_steep_sine_step_is_one_chain(self):
        # slope up to atan(4 * 2 pi / 40) = 32 degrees, past the 22.5 degree sector boundary
        edges = metrics.canny(blend_map(winding_chain(h=33, w=97, amp=4.0, level=1.0))).mask
        assert len(components(edges)) == 1
        assert edges[:, 0].any() and edges[:, -1].any()


class TestDilate:
    @pytest.mark.parametrize("radius", range(7))
    def test_matches_square_loop(self, radius):
        for k, shape in enumerate([(17, 29), (30, 9)]):
            m = SeededRng(9, k).uniform(0, 1, shape) > 0.9
            m[0, 3] = m[-1, -1] = m[5, 0] = m[2, -1] = True  # every border
            np.testing.assert_array_equal(metrics.dilate(metrics.EdgeMask(m), radius).mask, dilate_loop(m, radius))

    def test_single_pixel_radius_one(self):
        m = np.zeros((7, 7), bool)
        m[3, 3] = True
        out = metrics.dilate(metrics.EdgeMask(m), 1)
        want = np.zeros((7, 7), bool)
        want[2:5, 2:5] = True
        np.testing.assert_array_equal(out.mask, want)

    def test_radius_zero_identity(self):
        rng = SeededRng(4)
        m = rng.uniform(0, 1, (16, 16)) > 0.8
        out = metrics.dilate(metrics.EdgeMask(m), 0)
        np.testing.assert_array_equal(out.mask, m)

    def test_semigroup_property(self):
        for i in range(10):
            m = metrics.EdgeMask(SeededRng(5, i).uniform(0, 1, (32, 32)) > 0.92)
            for r1, r2 in [(1, 1), (1, 2), (2, 3), (0, 4)]:
                a = metrics.dilate(metrics.dilate(m, r1), r2)
                b = metrics.dilate(m, r1 + r2)
                np.testing.assert_array_equal(a.mask, b.mask)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            metrics.dilate(metrics.EdgeMask(np.zeros((4, 4), bool)), -1)

    @pytest.mark.parametrize("radius", [1.5, 2.0, True, "1", None, -1])
    def test_bad_radius_named(self, radius):
        with pytest.raises(ValueError, match=re.escape(f"dilate: radius must be an integer >= 0, got {radius!r}")):
            metrics.dilate(metrics.EdgeMask(np.zeros((4, 4), bool)), radius)

    def test_numpy_integer_radius_accepted(self):
        m = metrics.EdgeMask(SeededRng(4).uniform(0, 1, (16, 16)) > 0.8)
        np.testing.assert_array_equal(metrics.dilate(m, np.int64(2)).mask, metrics.dilate(m, 2).mask)


class TestSharpNormalError:
    def test_identical_zero(self):
        gt = step_map(32, 32, 16)
        assert metrics.sharp_normal_error(gt, gt, radius=2) == 0.0

    def test_edge_band_corruption_drives_sne_above_ne(self):
        gt = step_map(32, 32, 16)
        pred_v = gt.vectors.copy()
        # corrupt only a narrow band around the step
        band = slice(14, 18)
        pred_v[:, band] = np.array([0.0, 1.0, 0.0])
        pred = full_map(pred_v)
        ne = metrics.normal_error(pred, gt, gt.mask)
        assert metrics.sharp_normal_error(pred, gt, radius=2) > ne

    def test_flat_scene_no_sharp_regions(self):
        flat = flat_map(16, 16)
        for radius in (0, 2, metrics.DEFAULT_DILATION_RADIUS):
            assert metrics.sharp_normal_error(flat, flat, radius) is None

    def test_radius_monotone_when_band_clean(self):
        # errors concentrated exactly on the edge; growing the band adds
        # only error-free pixels, so SNE cannot increase
        gt = step_map(32, 32, 16)
        pred_v = gt.vectors.copy()
        pred_v[:, 15:17] = np.array([0.0, 1.0, 0.0])
        pred = full_map(pred_v)
        snes = [metrics.sharp_normal_error(pred, gt, radius=r) for r in (1, 2, 4, 6)]
        assert all(b <= a for a, b in zip(snes, snes[1:]))


class TestMultiview:
    def _views(self, k=4):
        out = []
        for i in range(k):
            v = SeededRng(6, i).normal(size=(16, 16, 3))
            v /= np.linalg.norm(v, axis=-1, keepdims=True)
            out.append(full_map(v))
        return out

    def test_identical_views_zero(self):
        views = [step_map(16, 16, 8) for _ in range(4)]
        rep = metrics.multiview_report(views, views, radius=1)
        assert rep.ne_deg == 0.0
        assert rep.sne_deg == 0.0

    def test_view_permutation_invariance(self):
        gt = self._views()
        pred = [step_map(16, 16, 8) for _ in range(4)]
        r1 = metrics.multiview_report(pred, gt, radius=1)
        perm = [2, 0, 3, 1]
        r2 = metrics.multiview_report([pred[i] for i in perm], [gt[i] for i in perm], radius=1)
        assert r1.ne_deg == pytest.approx(r2.ne_deg, abs=1e-12)

    def test_non_finite_prediction_rejected_before_the_report(self):
        gt = step_map(16, 16, 8)
        v = gt.vectors.copy()
        v[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            metrics.multiview_report([full_map(v)], [gt], radius=2)

    def test_negative_radius_names_dilate(self):
        views = [step_map(16, 16, 8)]
        with pytest.raises(ValueError, match=re.escape("dilate: radius must be an integer >= 0, got -1")):
            metrics.multiview_report(views, views, radius=-1)

    def test_mismatched_shapes_name_the_view(self):
        gt = self._views(2)
        pred = [gt[0], step_map(8, 8, 4)]
        with pytest.raises(ValueError, match=r"view 1: .*\(8, 8\).*\(16, 16\)"):
            metrics.multiview_report(pred, gt)

    def test_mismatched_counts_rejected(self):
        v = self._views()
        with pytest.raises(ValueError, match="mismatch"):
            metrics.multiview_report(v[:3], v)

    def test_reproducible(self):
        gt = self._views()
        pred = self._views()
        a = metrics.multiview_report(pred, gt, radius=1)
        b = metrics.multiview_report(pred, gt, radius=1)
        assert a.ne_deg == b.ne_deg and a.sne_deg == b.sne_deg

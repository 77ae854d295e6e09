import hashlib
import json
import re

import numpy as np
import pytest

from normalbridge import metrics, toydata
from normalbridge.maps import Heightfield, write_pgm, write_ppm
from normalbridge.tensorcore import SeededRng, save_checkpoint
from normalbridge.toydata import Domain

from canny_oracle import canny_oracle, dilate_loop


def _blur_edge_loop(img, sigma):
    """Separable Gaussian blur with edge padding, taps summed left to right."""
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    out = img.astype(np.float64)
    pad = np.pad(out, ((radius, radius), (0, 0)) + ((0, 0),) * (img.ndim - 2), mode="edge")
    out = sum(k[i] * pad[i : i + img.shape[0]] for i in range(len(k)))
    pad = np.pad(out, ((0, 0), (radius, radius)) + ((0, 0),) * (img.ndim - 2), mode="edge")
    return sum(k[i] * pad[:, i : i + img.shape[1]] for i in range(len(k)))


def _no_draw(*args):
    """Stands in for ``SeededRng`` where a call must fail before it draws."""
    raise AssertionError("a random stream was opened")


class TestGenerateScene:
    def test_single_box_is_piecewise_constant_with_four_step_edges(self):
        hf = toydata.generate_scene(3, 1, size=32, primitives=("box",))
        values = np.unique(hf.heights)
        assert len(values) == 2 and values[0] == 0.0
        dx = np.diff(hf.heights, axis=1)
        dy = np.diff(hf.heights, axis=0)
        step_cols = np.unique(np.nonzero(dx)[1])
        step_rows = np.unique(np.nonzero(dy)[0])
        assert len(step_cols) == 2  # left and right box sides
        assert len(step_rows) == 2  # top and bottom box sides

    def test_deterministic_per_seed(self):
        a = toydata.generate_scene(7, 5)
        b = toydata.generate_scene(7, 5)
        assert a.heights.tobytes() == b.heights.tobytes()
        c = toydata.generate_scene(8, 5)
        assert a.heights.tobytes() != c.heights.tobytes()

    def test_complexity_scales_edge_content(self):
        ratios = []
        lo = hi = 0.0
        for s in range(20):
            n1 = metrics.canny(toydata.heightfield_normals(toydata.generate_scene(s, 1))).count
            n10 = metrics.canny(toydata.heightfield_normals(toydata.generate_scene(s, 10))).count
            lo += n1
            hi += n10
        assert hi >= 5.0 * lo

    def test_complexity_validation(self):
        with pytest.raises(ValueError):
            toydata.generate_scene(0, 0)
        with pytest.raises(ValueError):
            toydata.generate_scene(0, 11)

    @pytest.mark.parametrize("complexity", [True, 2.5, 3.0, np.float64(4.0), "3", 0, 11])
    def test_bad_complexity_named_before_any_draw(self, complexity, monkeypatch):
        monkeypatch.setattr(toydata, "SeededRng", _no_draw)
        with pytest.raises(ValueError, match=re.escape(
                f"generate_scene: complexity must be an integer in 1..10, got {complexity!r}")):
            toydata.generate_scene(0, complexity)

    @pytest.mark.parametrize("primitives", [("box", "cone"), (), [], "box", None, ("box", 1)])
    def test_bad_primitives_named_before_any_draw(self, primitives, monkeypatch):
        monkeypatch.setattr(toydata, "SeededRng", _no_draw)
        with pytest.raises(ValueError, match=re.escape(
                f"generate_scene: primitives must be a non-empty tuple or list of names from "
                f"{toydata.DEFAULT_PRIMITIVES}, got {primitives!r}")):
            toydata.generate_scene(0, 1, primitives=primitives)

    def test_primitives_as_list_accepted(self):
        a = toydata.generate_scene(3, 4, primitives=["box", "ridge"])
        b = toydata.generate_scene(3, 4, primitives=("box", "ridge"))
        assert a.heights.tobytes() == b.heights.tobytes()

    @pytest.mark.parametrize("size", [0, 4, 7, 8.0, True])
    def test_bad_size_named(self, size):
        with pytest.raises(ValueError, match=re.escape(f"size must be an integer >= 8, got {size!r}")):
            toydata.generate_scene(0, 3, size=size)

    def test_smallest_size_places_every_primitive(self):
        for seed in range(20):
            assert toydata.generate_scene(seed, 10, size=8).shape == (8, 8)

    @pytest.mark.parametrize("cell_size", [0.0, -1.0, float("nan"), float("inf"), True, np.True_, "1", None])
    def test_bad_cell_size_named(self, cell_size):
        with pytest.raises(ValueError, match=re.escape(
                f"generate_scene: cell_size must be finite and > 0, got {cell_size!r}")):
            toydata.generate_scene(0, 3, cell_size=cell_size)


class TestHeightfieldNormals:
    def test_constant_field_points_up(self):
        nm = toydata.heightfield_normals(Heightfield(np.full((16, 16), 2.5)))
        np.testing.assert_allclose(nm.vectors, np.broadcast_to([0.0, 0.0, 1.0], (16, 16, 3)))
        assert nm.mask.all()

    def test_unit_ramp(self):
        x = np.arange(16, dtype=np.float64)
        hf = Heightfield(np.tile(x, (16, 1)), cell_size=1.0)
        nm = toydata.heightfield_normals(hf)
        want = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(nm.vectors, np.broadcast_to(want, (16, 16, 3)), atol=1e-12)

    def test_cell_size_scales_slope(self):
        x = np.arange(16, dtype=np.float64)
        hf = Heightfield(np.tile(x, (16, 1)), cell_size=2.0)  # slope 0.5 per world unit
        nm = toydata.heightfield_normals(hf)
        want = np.array([-0.5, 0.0, 1.0])
        want /= np.linalg.norm(want)
        np.testing.assert_allclose(nm.vectors[8, 8], want, atol=1e-12)


LIGHT = (0.35, -0.25, 0.9)
# no albedo pattern and no noise: the albedo is 0.7 everywhere
PLAIN_STYLE = {"albedo_contrast": 0.0, "albedo_max_freq": 3.0, "noise_std": 0.0}


class TestShadeImage:
    def test_flat_albedo_no_noise(self):
        nm = toydata.heightfield_normals(Heightfield(np.zeros((16, 16))))
        img = toydata.shade_image(nm, (0, 0, 1), 0, PLAIN_STYLE)
        np.testing.assert_array_equal(img, np.full((16, 16, 3), 0.7))

    def test_orthogonal_light_black(self):
        nm = toydata.heightfield_normals(Heightfield(np.zeros((16, 16))))
        img = toydata.shade_image(nm, (1, 0, 0), 0, PLAIN_STYLE)
        np.testing.assert_array_equal(img, np.zeros((16, 16, 3)))

    def test_seed_deterministic(self):
        nm = toydata.heightfield_normals(toydata.generate_scene(5, 4))
        style = toydata.DOMAIN_STYLES[Domain.REAL]
        a = toydata.shade_image(nm, LIGHT, 9, style)
        b = toydata.shade_image(nm, LIGHT, 9, style)
        assert a.tobytes() == b.tobytes()
        c = toydata.shade_image(nm, LIGHT, 10, style)
        assert a.tobytes() != c.tobytes()

    def test_zero_light_rejected(self):
        nm = toydata.heightfield_normals(Heightfield(np.zeros((16, 16))))
        with pytest.raises(ValueError, match="nonzero"):
            toydata.shade_image(nm, (0, 0, 0), 0, PLAIN_STYLE)

    @pytest.mark.parametrize("light", [(np.nan, 0, 1), (np.inf, 0, 1), (0, 0, -np.inf), (0.3, 0.9)])
    def test_light_not_a_finite_3_vector_named_before_any_draw(self, light, monkeypatch):
        nm = toydata.heightfield_normals(Heightfield(np.zeros((8, 8))))
        monkeypatch.setattr(toydata, "SeededRng", _no_draw)
        with pytest.raises(ValueError, match=re.escape(
                f"shade_image: light_dir must be a finite nonzero 3-vector, got {light!r}")):
            toydata.shade_image(nm, light, 0, PLAIN_STYLE)

    def test_range_clamped(self):
        nm = toydata.heightfield_normals(toydata.generate_scene(1, 6))
        img = toydata.shade_image(nm, LIGHT, 1, toydata.DOMAIN_STYLES[Domain.REAL])
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestDomainSample:
    @staticmethod
    def _sample(image):
        hf = Heightfield(np.zeros((8, 8)))
        return toydata.DomainSample(image, toydata.heightfield_normals(hf), hf, Domain.SYNTH, 4)

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
    def test_image_value_outside_unit_range_rejected(self, bad):
        img = np.full((8, 8, 3), 0.5)
        img[2, 3, 1] = bad
        with pytest.raises(ValueError, match=r"sample 4: .*\[0, 1\]"):
            self._sample(img)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 8, 4), (8, 8, 3, 1)])
    def test_image_not_h_by_w_by_3_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"sample 4: image of shape {re.escape(str(shape))}"):
            self._sample(np.full(shape, 0.5))


class TestCorruptLabels:
    @staticmethod
    def _synth_sample(seed=0, complexity=3):
        hf = toydata.generate_scene(seed, complexity, primitives=("box",))
        nm = toydata.heightfield_normals(hf)
        img = toydata.shade_image(nm, LIGHT, seed, toydata.DOMAIN_STYLES[Domain.SYNTH])
        return toydata.DomainSample(img, nm, hf, Domain.SYNTH)

    def test_flat_scene_unchanged(self):
        hf = Heightfield(np.zeros((32, 32)))
        nm = toydata.heightfield_normals(hf)
        sample = toydata.DomainSample(np.ones((32, 32, 3)) * 0.5, nm, hf, Domain.SYNTH)
        out = toydata.corrupt_labels_real_domain(sample, 0)
        assert out.domain is Domain.REAL
        # no edge, so an empty band: not one label moves
        assert out.normal_gt.vectors.tobytes() == nm.vectors.tobytes()

    def test_corruption_localized_to_edge_band(self):
        sample = self._synth_sample(4)
        clean = sample.normal_gt
        out = toydata.corrupt_labels_real_domain(sample, 123, band_radius=2)
        band = metrics.dilate(metrics.canny(clean), 2).mask
        dots = np.clip(np.sum(out.normal_gt.vectors * clean.vectors, axis=-1), -1, 1)
        dev = np.degrees(np.arccos(dots))
        assert dev[band].mean() > 5.0
        assert dev[~band].mean() < 0.5

    @pytest.mark.parametrize("sigma", [0.0, -4.0, float("nan")])
    def test_bad_blur_sigma_named(self, sigma):
        with pytest.raises(ValueError, match=re.escape(f"sigma must be finite and > 0, got {sigma!r}")):
            toydata.corrupt_labels_real_domain(self._synth_sample(5), 7, blur_sigma=sigma)

    @pytest.mark.parametrize("angle", [-5.0, float("nan"), float("inf"), True, "25"])
    def test_bad_angle_named_before_any_draw(self, angle, monkeypatch):
        sample = self._synth_sample(5)
        monkeypatch.setattr(toydata, "SeededRng", _no_draw)
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt_labels_real_domain: angle_noise_deg must be finite and >= 0, got {angle!r}")):
            toydata.corrupt_labels_real_domain(sample, 7, angle_noise_deg=angle)

    def test_zero_angle_leaves_the_blurred_labels(self):
        sample = self._synth_sample(4)
        band = metrics.dilate(metrics.canny(sample.normal_gt), 4).mask
        blurred = metrics.gaussian_blur(sample.normal_gt.vectors, 4.0, "edge")[band]
        got = toydata.corrupt_labels_real_domain(sample, 7, angle_noise_deg=0).normal_gt.vectors[band]
        np.testing.assert_allclose(got, blurred / np.linalg.norm(blurred, axis=-1, keepdims=True), atol=1e-15)

    @pytest.mark.parametrize("radius", [2.5, True, -1])
    def test_bad_band_radius_named_before_any_draw(self, radius, monkeypatch):
        sample = self._synth_sample(5)
        monkeypatch.setattr(toydata, "SeededRng", _no_draw)
        with pytest.raises(ValueError, match=re.escape(f"dilate: radius must be an integer >= 0, got {radius!r}")):
            toydata.corrupt_labels_real_domain(sample, 7, band_radius=radius)

    def test_unit_norm_preserved(self):
        out = toydata.corrupt_labels_real_domain(self._synth_sample(5), 7)
        norms = np.linalg.norm(out.normal_gt.vectors, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_labels_match_reference_pipeline(self, seed, monkeypatch):
        # sample digests hash only the image, so compare the labels directly
        sample = toydata.make_dataset(1, Domain.SYNTH, seed, size=48)[0]
        got = toydata.corrupt_labels_real_domain(sample, seed).normal_gt

        def blur(img, sigma, mode):
            assert mode == "edge"
            return _blur_edge_loop(img, sigma)

        monkeypatch.setattr(metrics, "canny", lambda nm: metrics.EdgeMask(
            canny_oracle(nm, metrics.CANNY_LOW, metrics.CANNY_HIGH)))
        monkeypatch.setattr(metrics, "dilate", lambda em, r: metrics.EdgeMask(dilate_loop(em.mask, r)))
        monkeypatch.setattr(metrics, "gaussian_blur", blur)
        want = toydata.corrupt_labels_real_domain(sample, seed).normal_gt
        np.testing.assert_array_equal(got.vectors, want.vectors)
        np.testing.assert_array_equal(got.mask, want.mask)
        assert not np.array_equal(got.vectors, sample.normal_gt.vectors)

    def test_requires_synth_domain(self):
        s = self._synth_sample(1)
        real = toydata.corrupt_labels_real_domain(s, 0)
        with pytest.raises(ValueError, match="synthetic"):
            toydata.corrupt_labels_real_domain(real, 0)


# sha256 of each 64x64 sample's normal vectors, then its mask, at seed 0:
# ``sample_digest`` hashes only the image, so these pin the labels, the
# REAL ones made by Canny, dilation and the blur among them
LABEL_DIGESTS = {
    Domain.REAL: ["b67b0a288937092ba6ad5c54858e88e33d0f4c9d6a1cecafba1aeb9b7df5eba7",
                  "99dcecfd01f2531d009847af310b658f6a1b61b2315780261df8867964047149",
                  "396155bdf64333a6a863e0197badbf4dc1fe067dbe8a7f3ae4c0cc60bbab6946",
                  "18fdc18e81dc2ab0755165696f11b756933e2968556fd1cc020ee2e8a53d86a7"],
    Domain.SYNTH: ["9481b051bfba603174050a60a19b6ba71db67620f54d88862567f1528708dfdd",
                   "4fa8215ced2bc5b5e7a3bb36ffeba6420bb0499eb9c7f882c3f997a3712f1ce4",
                   "d3d74249d9da1facec7f73f710e7b5923060d7d533fac4092b55c7d1b9a56081",
                   "d53e22a29634e3ec241a4c22a6d6e686491e35bb2d2ae26c75f3d10c4184cb3f"],
}

# sha256 of the four ``sample_digest`` hex strings, joined, of the same
# datasets: pins the shaded images, albedo and sensor noise among them
IMAGE_DIGESTS = {
    Domain.REAL: "d7593ba5f98faf897120bcfbd3de93eddac992c734c4a724429103d472591ef3",
    Domain.SYNTH: "8b5ac8110645c0a007daff9c42cb61e0d17ce35a428e476f66451d420716b9ea",
}


class TestMakeDataset:
    @pytest.mark.parametrize("domain", [Domain.REAL, Domain.SYNTH])
    def test_labels_match_recorded_digests(self, domain):
        got = [hashlib.sha256(s.normal_gt.vectors.tobytes() + s.normal_gt.mask.tobytes()).hexdigest()
               for s in toydata.make_dataset(4, domain, 0)]
        assert got == LABEL_DIGESTS[domain]

    @pytest.mark.parametrize("domain", [Domain.REAL, Domain.SYNTH])
    def test_images_match_recorded_digest(self, domain):
        digests = "".join(toydata.sample_digest(s) for s in toydata.make_dataset(4, domain, 0))
        assert hashlib.sha256(digests.encode()).hexdigest() == IMAGE_DIGESTS[domain]

    def test_non_integer_seed_rejected(self):
        # truncated, 0.5 would key the scenes as seed 0 and the albedo
        # as some other seed
        with pytest.raises(ValueError, match="seed must be an integer, got 0.5"):
            toydata.make_dataset(2, Domain.SYNTH, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            toydata.make_dataset(0, Domain.SYNTH, 0)

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "2", -1])
    def test_bad_count_named_before_any_draw(self, n, monkeypatch):
        monkeypatch.setattr(toydata, "SeededRng", _no_draw)
        with pytest.raises(ValueError, match=re.escape(f"make_dataset: n must be an integer >= 1, got {n!r}")):
            toydata.make_dataset(n, Domain.SYNTH, 0)

    @pytest.mark.parametrize("bounds", [(1, 3.7), (True, 3), (2.0, 5), (1, "3"), (0, 3), (5, 3), (4, 11)])
    def test_bad_complexity_range_named_before_any_draw(self, bounds, monkeypatch):
        monkeypatch.setattr(toydata, "SeededRng", _no_draw)
        with pytest.raises(ValueError, match=re.escape(f"make_dataset: complexity_range {bounds!r}")):
            toydata.make_dataset(2, Domain.SYNTH, 0, complexity_range=bounds)

    def test_numpy_integer_count_accepted(self):
        assert len(toydata.make_dataset(np.int64(2), Domain.SYNTH, 0, size=16)) == 2

    def test_disjoint_seeds_distinct_images(self):
        a = toydata.make_dataset(4, Domain.SYNTH, seed=1, size=32)
        b = toydata.make_dataset(4, Domain.SYNTH, seed=2, size=32)
        ha = {toydata.sample_digest(s) for s in a}
        hb = {toydata.sample_digest(s) for s in b}
        assert not (ha & hb)
        assert len(ha) == 4  # items within one set also distinct

    def test_real_domain_noisier_at_edges(self):
        synth = toydata.make_dataset(6, Domain.SYNTH, seed=3, size=32, complexity_range=(2, 5))
        real = toydata.make_dataset(6, Domain.REAL, seed=3, size=32, complexity_range=(2, 5))

        def edge_noise(samples):
            devs = []
            for s in samples:
                exact = toydata.heightfield_normals(s.height_gt)
                band = metrics.dilate(metrics.canny(exact), 2).mask
                if not band.any():
                    continue
                dots = np.clip(np.sum(s.normal_gt.vectors * exact.vectors, -1), -1, 1)
                devs.append(np.degrees(np.arccos(dots))[band].mean())
            return np.mean(devs)

        assert edge_noise(real) > edge_noise(synth) + 1.0

    @pytest.mark.parametrize("domain, n", [(Domain.SYNTH, 1), (Domain.SYNTH, 3), (Domain.REAL, 2)])
    def test_largest_seed_accepted_and_the_next_named_before_any_draw(self, domain, n, monkeypatch):
        # sample i keys its albedo by seed * 1_000_003 + i and a real
        # sample its label corruption by seed * 2_000_003 + i, in 64 bits
        stride = 2_000_003 if domain is Domain.REAL else 1_000_003
        largest = ((1 << 64) - n) // stride
        assert largest * stride + n - 1 < 1 << 64 <= (largest + 1) * stride + n - 1
        assert len(toydata.make_dataset(n, domain, largest, size=8)) == n
        monkeypatch.setattr(toydata, "SeededRng", _no_draw)
        for seed in (largest + 1, 2**62, np.uint64(2**63)):
            with pytest.raises(ValueError, match=re.escape(
                    f"make_dataset: seed must be <= {largest} for {n} {domain.value} samples, got {seed!r}")):
                toydata.make_dataset(n, domain, seed)

    @pytest.mark.parametrize("domain", [Domain.REAL, Domain.SYNTH])
    def test_numpy_integer_seed_keys_as_its_value(self, domain):
        # near the largest seed a numpy integer times a key stride would wrap
        seed = ((1 << 64) - 2) // 2_000_003
        want = toydata.make_dataset(2, domain, seed, size=8)
        for got in (toydata.make_dataset(2, domain, np.int64(seed), size=8),
                    toydata.make_dataset(2, domain, np.uint64(seed), size=8)):
            assert [x.image.tobytes() for x in got] == [x.image.tobytes() for x in want]
            assert [x.normal_gt.vectors.tobytes() for x in got] == [x.normal_gt.vectors.tobytes() for x in want]

    @pytest.mark.parametrize("domain", [Domain.REAL, Domain.SYNTH])
    def test_sample_depends_only_on_seed_and_index(self, domain):
        six = toydata.make_dataset(6, domain, seed=9, size=32)
        three = toydata.make_dataset(3, domain, seed=9, size=32)
        assert (len(six), len(three)) == (6, 3)
        for x, y in zip(six, three):
            assert x.index == y.index
            assert x.image.tobytes() == y.image.tobytes()
            assert x.normal_gt.vectors.tobytes() == y.normal_gt.vectors.tobytes()
            assert x.normal_gt.mask.tobytes() == y.normal_gt.mask.tobytes()
            assert x.height_gt.heights.tobytes() == y.height_gt.heights.tobytes()


def _edit_manifest(ds, edit):
    """Rewrite the manifest of the dataset at ``ds`` as ``edit`` returns its text."""
    path = ds / "manifest.json"
    path.write_text(edit(path.read_text()))


def _edit_manifest_object(ds, edit):
    """Rewrite the manifest of the dataset at ``ds`` after ``edit`` changes its object in place."""
    def rewrite(text):
        manifest = json.loads(text)
        edit(manifest)
        return json.dumps(manifest)
    _edit_manifest(ds, rewrite)


def _edit_second_entry(ds, edit):
    _edit_manifest_object(ds, lambda manifest: edit(manifest["items"][1]))


def _one_item_n_true(manifest):
    # True == 1, the item count once one item is gone
    manifest["items"].pop()
    manifest["n"] = True


# how sample 0001 or the manifest of a two-sample 32x32 dataset is broken,
# and what the error names besides the directory
_BROKEN_DATASETS = {
    "mask_of_another_size": (
        lambda ds: write_pgm(ds / "0001_mask.pgm", np.zeros((32, 31), np.uint8)),
        ["'0001'", "(32, 31)", "(32, 32)"]),
    "image_of_another_size": (
        lambda ds: write_ppm(ds / "0001_img.ppm", np.zeros((24, 32, 3), np.uint8)),
        ["'0001'", "dimensions disagree"]),
    "unknown_domain": (
        lambda ds: _edit_second_entry(ds, lambda item: item.update(domain="bogus")),
        ["'0001'", "'bogus'"]),
    "entry_without_stem": (
        lambda ds: _edit_second_entry(ds, lambda item: item.pop("stem")),
        ["manifest.json", "'stem'"]),
    "truncated_manifest": (
        lambda ds: _edit_manifest(ds, lambda text: text[: len(text) // 2]),
        ["manifest.json"]),
    "manifest_not_an_object": (
        lambda ds: _edit_manifest(ds, lambda text: "[]"),
        ["manifest.json", "TypeError"]),
    # a manifest cut after its first entry still parses
    "manifest_lists_fewer_items_than_n": (
        lambda ds: _edit_manifest_object(ds, lambda manifest: manifest["items"].pop()),
        ["manifest.json", "n is 2", "item count is 1"]),
    "manifest_n_is_a_bool": (
        lambda ds: _edit_manifest_object(ds, _one_item_n_true),
        ["manifest.json", "n must be an integer >= 0, got True"]),
    "manifest_without_n": (
        lambda ds: _edit_manifest_object(ds, lambda manifest: manifest.pop("n")),
        ["manifest.json", "KeyError", "'n'"]),
    "height_file_is_a_checkpoint": (
        lambda ds: save_checkpoint(ds / "0001_height.bin", {"weight": np.ones((2, 3))}),
        ["'0001'", "0001_height.bin", "a height file holds"]),
}


def _stem_in_a_sibling_directory(ds):
    # a second dataset beside ``ds``, so the escaping stem names real files
    toydata.write_dataset(ds.parent / "other", toydata.make_dataset(1, Domain.SYNTH, seed=6, size=32))
    _edit_second_entry(ds, lambda item: item.update(stem="../other/0000"))


def _set_second(**fields):
    return lambda ds: _edit_second_entry(ds, lambda item: item.update(fields))


_PLAIN_STEM = "stem must be one plain file-name component"
_INDEX = "items[1]: index must be an integer >= 0, got "

# how the second manifest entry of a two-sample 32x32 dataset is broken,
# and what the error names besides manifest.json
_BAD_MANIFEST_ENTRIES = {
    "stem_in_a_sibling_directory": (_stem_in_a_sibling_directory, [_PLAIN_STEM, "'../other/0000'"]),
    "absolute_stem": (lambda ds: _set_second(stem=str(ds / "0000"))(ds), [_PLAIN_STEM]),
    "stem_with_a_separator": (_set_second(stem="sub/0001"), [_PLAIN_STEM, "'sub/0001'"]),
    "dot_dot_stem": (_set_second(stem=".."), [_PLAIN_STEM, "'..'"]),
    "empty_stem": (_set_second(stem=""), [_PLAIN_STEM, "''"]),
    "stem_is_a_number": (_set_second(stem=1), [_PLAIN_STEM, "got 1"]),
    "index_is_a_string": (_set_second(index="abc"), [_INDEX + "'abc'"]),
    "index_is_a_bool": (_set_second(index=True), [_INDEX + "True"]),
    "index_is_negative": (_set_second(index=-1), [_INDEX + "-1"]),
    "index_is_a_float": (_set_second(index=1.0), [_INDEX + "1.0"]),
    "entry_without_index": (lambda ds: _edit_second_entry(ds, lambda item: item.pop("index")),
                            ["KeyError", "'index'"]),
}


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        # a slice, so each sample's index differs from its list position
        samples = toydata.make_dataset(4, Domain.SYNTH, seed=5, size=32)[1:]
        toydata.write_dataset(tmp_path / "ds", samples)
        back = toydata.read_dataset(tmp_path / "ds")
        assert [s.index for s in back] == [1, 2, 3]
        for orig, got in zip(samples, back):
            assert got.domain is Domain.SYNTH
            assert np.max(np.abs(orig.image - got.image)) <= 0.5 / 255 + 1e-12
            assert orig.height_gt.heights.tobytes() == got.height_gt.heights.tobytes()
            np.testing.assert_array_equal(orig.normal_gt.mask, got.normal_gt.mask)
            # 8-bit normal encoding: ~1/255 per channel before renormalization
            assert np.max(np.abs(orig.normal_gt.vectors - got.normal_gt.vectors)) < 0.02

    @pytest.mark.parametrize("case", list(_BROKEN_DATASETS))
    def test_bad_sample_names_directory_and_stem(self, tmp_path, case):
        ds = tmp_path / "ds"
        toydata.write_dataset(ds, toydata.make_dataset(2, Domain.SYNTH, seed=5, size=32))
        breaks, named = _BROKEN_DATASETS[case]
        breaks(ds)
        with pytest.raises(ValueError) as info:
            toydata.read_dataset(ds)
        message = str(info.value)
        for part in [str(ds)] + named:
            assert part in message, f"{part!r} not in {message!r}"

    @pytest.mark.parametrize("case", list(_BAD_MANIFEST_ENTRIES))
    def test_bad_manifest_entry_refused_before_any_read(self, tmp_path, monkeypatch, case):
        ds = tmp_path / "ds"
        toydata.write_dataset(ds, toydata.make_dataset(2, Domain.SYNTH, seed=5, size=32))
        breaks, named = _BAD_MANIFEST_ENTRIES[case]
        breaks(ds)

        def no_read(path):
            raise AssertionError(f"{path} read before the manifest was checked")

        for name in ("read_ppm", "read_pgm", "read_height_bin"):
            monkeypatch.setattr(toydata, name, no_read)
        with pytest.raises(ValueError) as info:
            toydata.read_dataset(ds)
        message = str(info.value)
        for part in [str(ds / "manifest.json")] + named:
            assert part in message, f"{part!r} not in {message!r}"

import math
import re

import numpy as np
import pytest

from normalbridge import freq
from normalbridge.tensorcore import SeededRng


def dft2_oracle(img):
    """Direct double-sum DFT; the independent reference for dft2."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=np.complex128)
    ys = np.arange(h)
    xs = np.arange(w)
    for u in range(h):
        for v in range(w):
            phase = -2j * np.pi * (u * ys[:, None] / h + v * xs[None, :] / w)
            out[u, v] = np.sum(img * np.exp(phase))
    return out


class TestDft2:
    def test_constant_image_dc_only(self):
        img = np.full((6, 9), 3.25)
        spec = freq.dft2(img)
        assert abs(spec[0, 0] - 3.25 * 6 * 9) < 1e-9
        rest = spec.copy()
        rest[0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-9

    def test_single_cosine_two_bins(self):
        w, h, k = 16, 8, 3
        x = np.arange(w)
        img = np.tile(np.cos(2 * np.pi * k * x / w), (h, 1))
        spec = freq.dft2(img)
        mag = np.abs(spec)
        nz = np.argwhere(mag > 1e-9)
        assert len(nz) == 2
        assert {tuple(p) for p in nz} == {(0, k), (0, w - k)}

    def test_matches_direct_summation(self):
        rng = SeededRng(1)
        img = rng.normal(size=(8, 12))
        got = freq.dft2(img)
        want = dft2_oracle(img)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_round_trip(self):
        for i, shape in enumerate([(8, 8), (15, 7), (64, 64)]):
            img = SeededRng(2, i).normal(size=shape)
            back = np.fft.ifft2(freq.dft2(img)).real
            assert np.max(np.abs(back - img)) < 1e-9

    def test_parseval(self):
        for i in range(5):
            img = SeededRng(3, i).normal(size=(24, 24))
            spec = freq.dft2(img)
            lhs = np.sum(img * img)
            rhs = np.sum(np.abs(spec) ** 2) / img.size
            assert abs(lhs - rhs) / abs(lhs) < 1e-9

    def test_hermitian_symmetry_for_real_input(self):
        rng = SeededRng(4)
        img = rng.normal(size=(10, 14))
        c = freq.dft2(img)
        mirrored = np.conj(np.roll(np.roll(c[::-1, ::-1], 1, axis=0), 1, axis=1))
        assert np.max(np.abs(c - mirrored)) < 1e-9

    def test_nonfinite_rejected(self):
        img = np.ones((4, 4))
        img[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            freq.dft2(img)


class TestRadialProfile:
    def test_white_noise_flat_profile(self):
        # Monte Carlo: average the profile over many seeds, then compare bins.
        acc = None
        n_seeds = 100
        for s in range(n_seeds):
            img = SeededRng(s, 5).normal(size=(128, 128))
            prof = freq.radial_power_spectrum(freq.dft2(img), n_bins=8)
            acc = prof.power if acc is None else acc + prof.power
        mean_power = acc / n_seeds
        assert mean_power.min() > 0
        assert mean_power.max() / mean_power.min() < 2.0

    def test_single_cosine_power_in_one_bin(self):
        w = 32
        x = np.arange(w)
        img = np.tile(np.cos(2 * np.pi * 5 * x / w), (w, 1))
        prof = freq.radial_power_spectrum(freq.dft2(img), n_bins=6)
        significant = prof.power > 1e-12 * prof.power.max()
        assert np.count_nonzero(significant) == 1

    def test_power_law_profile_decreasing(self):
        img = freq.power_law_image(64, 2.0, seed=0, random_amplitude=False)
        prof = freq.radial_power_spectrum(freq.dft2(img), n_bins=6)
        assert np.all(np.diff(prof.power) < 0)

    def test_empty_bins_reported_not_dropped(self):
        img = SeededRng(9).normal(size=(8, 8))
        prof = freq.radial_power_spectrum(freq.dft2(img), n_bins=16)
        assert len(prof.power) == 16
        assert np.any(prof.count == 0)
        assert np.all(prof.power[prof.count == 0] == 0.0)

    @pytest.mark.parametrize("n_bins", [5, 24])
    def test_matches_per_bin_means(self, n_bins):
        img = SeededRng(12).normal(size=(15, 22))
        spec = freq.dft2(img)
        prof = freq.radial_power_spectrum(spec, n_bins=n_bins)
        h, w = img.shape
        fy = np.fft.fftfreq(h) * h
        fx = np.fft.fftfreq(w) * w
        r = np.hypot(fy[:, None], fx[None, :])
        nz = r > 0
        edges = np.geomspace(r[nz].min(), r[nz].max(), n_bins + 1)
        edges[0] *= 0.999
        edges[-1] *= 1.001
        for b in range(n_bins):
            sel = nz & (r >= edges[b]) & (r < edges[b + 1])
            assert prof.count[b] == sel.sum()
            if sel.any():
                np.testing.assert_allclose(prof.power[b], np.mean(np.abs(spec[sel]) ** 2), rtol=1e-12)
                np.testing.assert_allclose(prof.mean_log_freq[b], np.mean(np.log(r[sel])), rtol=1e-12)
            else:
                assert prof.power[b] == prof.mean_log_freq[b] == 0.0
        assert prof.count.sum() == h * w - 1
        assert np.any(prof.count == 0) == (n_bins == 24)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 1)])
    def test_single_nonzero_frequency_rejected(self, shape):
        with pytest.raises(ValueError, match="distinct nonzero frequencies"):
            freq.radial_power_spectrum(freq.dft2(np.ones(shape)), n_bins=2)

    def test_min_bins(self):
        with pytest.raises(ValueError):
            freq.radial_power_spectrum(freq.dft2(np.ones((8, 8))), n_bins=1)


class TestFitAlpha:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_recovers_exponent(self, alpha):
        img = freq.power_law_image(128, alpha, seed=11, random_amplitude=False)
        prof = freq.radial_power_spectrum(freq.dft2(img), n_bins=8)
        got = freq.fit_alpha(prof)
        assert abs(got - alpha) <= 0.1

    def test_degenerate_profile_rejected(self):
        spec = freq.dft2(np.zeros((16, 16)))
        prof = freq.radial_power_spectrum(spec, n_bins=4)
        with pytest.raises(ValueError):
            freq.fit_alpha(prof)


class TestSnrCurve:
    def test_direct_value(self):
        curve = freq.snr_curves(4.0, [1.0, 2.0, 3.0])
        assert curve[1] == 2.0

    def test_power_scales_linearly(self):
        t = np.linspace(0.5, 5, 10)
        c1 = freq.snr_curves(3.0, t)
        c2 = freq.snr_curves(6.0, t)
        np.testing.assert_allclose(c2, 2.0 * c1, rtol=1e-12)

    def test_trapezoid_matches_closed_form(self):
        # g(s) = s has closed-form noise energy t^3 / 3
        t = np.linspace(1e-3, 2.0, 1000)
        curve = freq.snr_curves(1.0, t, g=lambda s: s)
        want = 1.0 / (t ** 3 / 3.0)
        rel = np.abs(curve - want) / want
        assert np.max(rel) < 1e-3

    def test_vector_of_powers_stacks_scalar_curves(self):
        t = np.geomspace(0.01, 20.0, 17)
        powers = np.array([0.5, 3.0, 7.25, 1e-3])
        for g in (None, 1.5, lambda s: 1.0 + s):
            want = np.stack([freq.snr_curves(p, t, g=g) for p in powers])
            got = freq.snr_curves(powers, t, g=g)
            assert got.shape == (4, 17)
            np.testing.assert_array_equal(got, want)

    def test_callable_energy_matches_per_segment_loop(self):
        t = np.geomspace(1e-3, 5.0, 40)
        g = lambda s: np.sin(3.0 * s) + 1.5 * s
        want, acc, start = [], 0.0, 0.0
        for end in t:
            s = np.linspace(start, end, 33)
            acc += np.trapezoid(g(s) ** 2, s)
            want.append(acc)
            start = end
        np.testing.assert_allclose(freq._noise_energy(g, t), want, rtol=1e-12)

    def test_spectrum_bin_lookup(self):
        img = np.full((8, 8), 2.0)
        spec = freq.dft2(img)
        curve = freq.snr_curves(abs(spec[0, 0]) ** 2, [1.0, 2.0])
        assert curve[0] == (2.0 * 64) ** 2

    def test_zero_t_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            freq.snr_curves(1.0, [0.0, 1.0])

    def test_monotone_decreasing(self):
        t = np.linspace(0.1, 10, 50)
        curve = freq.snr_curves(5.0, t, g=2.0)
        assert np.all(np.diff(curve) < 0)


class TestCrossingTime:
    def test_exact_crossing(self):
        t = [0.5, 1.0, 1.5, 2.0, 2.5]
        assert freq.snr_crossing_time(t, freq.snr_curves(4.0, t), 2.0) == 2.0

    def test_threshold_above_first_sample(self):
        t = [0.5, 1.0]
        # SNR(0.5) = 8 <= 10 -> clamp to grid start
        assert freq.snr_crossing_time(t, freq.snr_curves(4.0, t), 10.0) == 0.5

    def test_never_crossed(self):
        t = [0.5, 1.0]
        assert freq.snr_crossing_time(t, freq.snr_curves(4.0, t), 1e-6) == math.inf

    def test_interpolated_crossing(self):
        # SNR(t) = 4/t crosses 3 at t = 4/3; grid straddles it
        t = [1.0, 2.0]
        t_star = freq.snr_crossing_time(t, freq.snr_curves(4.0, t), 3.0)
        assert 1.0 < t_star < 2.0
        # linear interpolation between (1, 4) and (2, 2): t* = 1.5
        assert abs(t_star - 1.5) < 1e-12

    def test_one_curve_per_call(self):
        t = [1.0, 2.0]
        with pytest.raises(ValueError, match="one curve"):
            freq.snr_crossing_time(t, freq.snr_curves([4.0, 5.0], t), 3.0)
        with pytest.raises(ValueError, match="one curve"):
            freq.snr_crossing_time(t, [4.0, 2.0, 1.0], 3.0)
        with pytest.raises(ValueError, match="one curve"):
            freq.snr_crossing_time([], [], 3.0)

    def test_crossing_ordering_on_natural_images(self):
        # Core frequency claim: higher |w| crosses a fixed SNR threshold earlier.
        t = np.geomspace(1e-4, 1e4, 200)
        ok = 0
        n = 20
        for s in range(n):
            alpha = 1.0 + 2.0 * (s / (n - 1))
            img = freq.power_law_image(128, alpha, seed=s)
            prof = freq.radial_power_spectrum(freq.dft2(img), n_bins=6)
            curves = freq.snr_curves(prof.power[prof.count > 0], t)
            thr = np.median(curves[:, len(t) // 2])
            t_stars = [freq.snr_crossing_time(t, c, thr) for c in curves]
            if all(b <= a + 1e-12 for a, b in zip(t_stars, t_stars[1:])):
                ok += 1
        assert ok >= 0.95 * n


class TestNamedInputChecks:
    @pytest.mark.parametrize("size", [2.5, 0, -4, True, "16", None])
    def test_power_law_image_bad_size(self, size):
        with pytest.raises(ValueError, match=re.escape(f"power_law_image: size must be an integer >= 1, got {size!r}")):
            freq.power_law_image(size, 1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, True, np.True_, "1", None])
    def test_power_law_image_bad_alpha(self, alpha):
        # NaN would make an all-NaN image
        with pytest.raises(ValueError, match=re.escape(
                f"power_law_image: alpha must be a finite real number, got {alpha!r}")):
            freq.power_law_image(16, alpha)

    @pytest.mark.parametrize("alpha", [-1.5, 0, 2, np.float32(0.5), np.int64(3)])
    def test_power_law_image_any_finite_alpha(self, alpha):
        img = freq.power_law_image(16, alpha, seed=3)
        assert img.shape == (16, 16) and np.isfinite(img).all()

    @pytest.mark.parametrize("n_bins", [2.5, 1, True, "8", None])
    def test_radial_power_spectrum_bad_n_bins(self, n_bins):
        with pytest.raises(ValueError, match=re.escape(
                f"radial_power_spectrum: n_bins must be an integer >= 2, got {n_bins!r}")):
            freq.radial_power_spectrum(freq.dft2(np.ones((8, 8))), n_bins=n_bins)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0, True, "1", None])
    def test_snr_crossing_time_bad_threshold(self, threshold):
        # NaN would read as a curve that never crosses, inf
        t = [1.0, 2.0]
        with pytest.raises(ValueError, match=re.escape(
                f"snr_crossing_time: threshold must be finite and > 0, got {threshold!r}")):
            freq.snr_crossing_time(t, freq.snr_curves(4.0, t), threshold)

    @pytest.mark.parametrize("g", [math.nan, math.inf, 0.0, -2.0, True, np.True_, "1"])
    def test_snr_curves_bad_constant_g(self, g):
        # NaN gave an all-NaN curve and True was taken as 1
        with pytest.raises(ValueError, match=re.escape(f"snr_curves: g must be finite and > 0, got {g!r}")):
            freq.snr_curves(1.0, [1.0, 2.0], g=g)

    @pytest.mark.parametrize("t_grid", [[1.0, math.nan], [math.nan, 1.0], [1.0, math.inf]])
    def test_snr_curves_non_finite_t_grid(self, t_grid):
        # NaN passes both the positivity and the ascending check
        with pytest.raises(ValueError, match="^snr_curves: t_grid has a non-finite entry$"):
            freq.snr_curves(1.0, t_grid)

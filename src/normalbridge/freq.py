"""Frequency-domain analysis of noise injection.

Spectra are plain complex arrays in ``np.fft.fft2``'s layout, with DC at
index (0, 0). The chain implemented here: 2-D spectrum of a real image,
radially binned power profile, power-law decay fit, and per-frequency
SNR curves under progressive noise injection

    SNR(w, t) = |X(w)|^2 / int_0^t g(s)^2 ds,

whose crossing times quantify how much faster high-frequency content
drowns in noise than low-frequency content. The noise scale ``g`` is a
parameter (constant 1 by default); the crossing-time ordering does not
depend on it because the injected noise is white across frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .maps import _check_integer, _check_real
from .tensorcore import SeededRng

__all__ = [
    "RadialProfile",
    "dft2",
    "radial_freq",
    "radial_power_spectrum",
    "fit_alpha",
    "snr_curves",
    "snr_crossing_time",
    "power_law_image",
]


@dataclass
class RadialProfile:
    """Mean spectral power per radial frequency bin (DC excluded)."""

    power: np.ndarray          # mean |X|^2 per bin, 0.0 where empty
    count: np.ndarray          # modes per bin
    mean_log_freq: np.ndarray  # mean ln|w| of contributing modes (fit abscissa)


def dft2(image: np.ndarray) -> np.ndarray:
    """Exact, unnormalized 2-D DFT of a real image (FFT-backed)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise ValueError(f"dft2 expects a nonempty 2-d array, got {image.shape}")
    if not np.isfinite(image).all():
        raise ValueError("dft2 input contains non-finite values")
    return np.fft.fft2(image)


def radial_freq(shape: tuple[int, int]) -> np.ndarray:
    """|w| of each bin of a spectrum of ``shape``, in cycles/image."""
    h, w = shape
    fy = np.fft.fftfreq(h) * h
    fx = np.fft.fftfreq(w) * w
    return np.hypot(fy[:, None], fx[None, :])


def radial_power_spectrum(spec: np.ndarray, n_bins: int = 8) -> RadialProfile:
    """Bin |X(w)|^2 by |w| into log-spaced radial bins, DC excluded.

    Empty bins stay in the profile with count 0 so callers can see them;
    they are skipped by :func:`fit_alpha`.
    """
    _check_integer("radial_power_spectrum: n_bins", n_bins, 2)
    r = radial_freq(spec.shape)
    keep = r > 0  # exclude DC
    r = r[keep]
    p = np.abs(spec[keep]) ** 2
    if r.size == 0 or r.min() == r.max():
        raise ValueError(f"a {spec.shape} spectrum has fewer than two distinct nonzero frequencies")
    edges = np.geomspace(r.min(), r.max(), n_bins + 1)
    edges[0] *= 0.999  # include the lowest mode
    edges[-1] *= 1.001
    idx = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, n_bins - 1)
    count = np.bincount(idx, minlength=n_bins)
    per_mode = np.maximum(count, 1)  # empty bins keep their zero sums
    power = np.bincount(idx, weights=p, minlength=n_bins) / per_mode
    mean_log = np.bincount(idx, weights=np.log(r), minlength=n_bins) / per_mode
    return RadialProfile(power, count, mean_log)


def fit_alpha(profile: RadialProfile) -> float:
    """Power-law decay exponent: least-squares slope of log power vs log |w|, negated."""
    sel = (profile.count > 0) & (profile.power > 0)
    if sel.sum() < 3:
        raise ValueError("need at least 3 nonempty bins with positive power to fit alpha")
    x = profile.mean_log_freq[sel]
    y = np.log(profile.power[sel])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


GFunc = Union[None, float, Callable[[np.ndarray], np.ndarray]]


def _noise_energy(g: GFunc, t_grid: np.ndarray) -> np.ndarray:
    """int_0^t g(s)^2 ds per grid point; closed form for constant g.

    Callable ``g`` is integrated by composite trapezoid with each grid
    segment (including the initial [0, t_0]) subdivided 32x, which keeps
    the relative error well under 1e-3 even at the smallest t. It must be
    elementwise: one call gets the samples of every segment as a
    (len(t_grid), 33) array.
    """
    if not callable(g):
        g2 = 1.0 if g is None else float(g) ** 2
        return g2 * t_grid
    starts = np.concatenate(([0.0], t_grid[:-1]))
    s = np.linspace(starts, t_grid, 33, axis=1)
    vals = np.asarray(g(s), dtype=np.float64) ** 2
    return np.cumsum(np.trapezoid(vals, s, axis=1))


def snr_curves(power, t_grid, g: GFunc = None) -> np.ndarray:
    """SNR(t) = power / int_0^t g(s)^2 ds sampled on ``t_grid``.

    A scalar power gives a (T,) curve and k powers give a (k, T) array,
    one curve per power: a spectral bin's curve is
    ``snr_curves(abs(spec[w]) ** 2, t)``, the nonempty radial bins' curves
    are ``snr_curves(profile.power[profile.count > 0], t)``.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size == 0:
        raise ValueError("empty t grid")
    if not np.isfinite(t_grid).all():
        raise ValueError("snr_curves: t_grid has a non-finite entry")
    if g is not None and not callable(g):
        _check_real("snr_curves: g", g, positive=True)
    if np.any(t_grid <= 0):
        raise ValueError("t grid must be strictly positive (SNR diverges at t=0)")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t grid must be ascending")
    return np.asarray(power, dtype=np.float64)[..., None] / _noise_energy(g, t_grid)


def snr_crossing_time(t_grid, snr, threshold: float) -> float:
    """Smallest t with SNR(t) <= threshold; ``inf`` if never crossed.

    ``snr`` is one curve sampled on ``t_grid``. Linear interpolation
    between grid samples; if the curve is already at or below the
    threshold at its first sample, that sample's t is returned (the grid
    cannot see an earlier crossing).
    """
    _check_real("snr_crossing_time: threshold", threshold, positive=True)
    t = np.asarray(t_grid, dtype=np.float64)
    snr = np.asarray(snr, dtype=np.float64)
    if snr.ndim != 1 or snr.size == 0 or snr.shape != t.shape:
        raise ValueError(f"one curve per call: snr {snr.shape} against t grid {t.shape}")
    if snr[0] <= threshold:
        return float(t[0])
    below = np.flatnonzero(snr <= threshold)
    if below.size == 0:
        return math.inf
    i = int(below[0])
    t0, t1 = t[i - 1], t[i]
    s0, s1 = snr[i - 1], snr[i]
    return float(t0 + (s0 - threshold) * (t1 - t0) / (s0 - s1))


def power_law_image(
    size: int,
    alpha: float,
    seed: int | None = None,
    random_amplitude: bool = True,
) -> np.ndarray:
    """Synthesize a real image whose spectral power follows |w|^-alpha.

    Built directly in the frequency domain (amplitude |w|^(-alpha/2),
    random phases, Hermitian symmetry enforced by construction) and
    inverted. With ``random_amplitude`` False the radial power profile is
    exact; with True, complex Gaussian coefficients give natural-looking
    statistics around the same law. ``alpha`` may be any finite number.
    """
    _check_integer("power_law_image: size", size, 1)
    if (isinstance(alpha, bool) or not isinstance(alpha, (int, float, np.integer, np.floating))
            or not np.isfinite(alpha)):
        raise ValueError(f"power_law_image: alpha must be a finite real number, got {alpha!r}")
    rng = SeededRng(0 if seed is None else seed, 77)
    ghat = np.fft.fft2(rng.normal(size=(size, size)))  # Hermitian by construction
    r = radial_freq((size, size))
    amp = np.zeros((size, size))
    nz = r > 0
    amp[nz] = r[nz] ** (-alpha / 2.0)
    if random_amplitude:
        coef = ghat * amp
    else:
        mag = np.abs(ghat)
        coef = amp * ghat / np.where(mag > 1e-12, mag, 1.0)
    coef[0, 0] = 0.0
    return np.fft.ifft2(coef).real

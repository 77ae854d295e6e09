"""Normal-map error metrics.

NE is the mean per-pixel angular error in degrees over a mask, whose
pixels are gathered by flat index (``take`` on the (H*W, 3) view). SNE
is NE restricted to salient regions of the ground-truth normal map:
Canny edges of the encoded normal image (per channel, unioned), dilated
by a Chebyshev ball, intersected with the foreground.
``sharp_normal_error`` gives SNE as None, not 0, when that region is
empty; ``multiview_report`` averages NE and SNE over the views.

Each channel's Canny gradient magnitude is normalized to max 1 before
thresholding, so ``CANNY_LOW``/``CANNY_HIGH`` are relative thresholds on
unit-scaled gradients; a channel whose peak is at most the absolute
``CANNY_PEAK_FLOOR`` adds no edge.

Canny works on the three channels at once, as one (H, W, 3) image, in
the same per-pixel float expressions as a loop over channels. Each stage
takes its input, with the reflect or edge border of ``numpy.pad``,
through one index vector; flattened, every blur and Sobel tap is one
contiguous slice and every product goes through one scratch. Non-maximum
suppression looks only at the pixels that clear ``CANNY_LOW``.
Hysteresis lists the pairs of 8-neighbouring weak pixels within a
channel once, then grows the kept set from the strong pixels across
those pairs until no pair has one end kept and the other not: the fixed
point of growing the strong pixels through weak ones, without a
full-image dilation per step. The square dilation is separable: the OR
of 2r+1 row shifts, then of 2r+1 column shifts.

Canny reads only a NormalMap, and runs only on the foreground's bounding
box widened by ``_CANNY_MARGIN``, the blur radius + 2 (7 px); it pastes
the box's mask into an all-False one, and a map without foreground has
no edge. The crop gives the mask of the whole encoded image, bit for
bit. More than the blur radius out from the foreground, the blurred
image is the white constant, the same taps summed in the same order; one
pixel further, Sobel is exactly 0, so no pixel there is weak. At the
box's edge the reflect border mirrors only pixels that are white on both
sides, so no blur or Sobel value inside the box changes, nor does any
channel's gradient peak. NMS and hysteresis see only pixels within 6 px
of the foreground, all inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .maps import NormalMap, _check_integer, _check_real, _encoded_levels

__all__ = [
    "EdgeMask",
    "AngularErrorReport",
    "normal_error",
    "canny",
    "dilate",
    "gaussian_blur",
    "sharp_normal_error",
    "multiview_report",
    "scaled_dilation_radius",
]

REFERENCE_RESOLUTION = 768  # dilation radius 5 is calibrated at this height
DEFAULT_DILATION_RADIUS = 5
CANNY_LOW = 0.1  # relative Canny thresholds, read at call time
CANNY_HIGH = 0.2
# a channel whose gradient peak is at most this adds no edge: encoded values
# lie in [0, 1], where a constant channel's Sobel residue is at most ~2.2e-16
# and a one-level step's peak is ~7.9e-3
CANNY_PEAK_FLOOR = 1e-12


@dataclass
class EdgeMask:
    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValueError("edge mask must be 2-d")

    @property
    def count(self) -> int:
        return int(self.mask.sum())


@dataclass
class AngularErrorReport:
    """Mean NE/SNE over the views."""

    ne_deg: float
    sne_deg: Optional[float]


def scaled_dilation_radius(height: int) -> int:
    """Default dilation radius scaled from the 768-px calibration."""
    return max(1, round(DEFAULT_DILATION_RADIUS * height / REFERENCE_RESOLUTION))


def normal_error(pred: NormalMap, gt: NormalMap, mask: np.ndarray) -> float:
    """Mean angular deviation in degrees over ``mask``."""
    if pred.shape != gt.shape:
        raise ValueError(f"normal map shapes differ: {pred.shape} vs {gt.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != pred.shape:
        raise ValueError(f"mask shape {mask.shape} does not match the maps' {pred.shape}")
    idx = np.flatnonzero(mask)
    if not idx.size:
        raise ValueError("empty mask: normal error undefined")
    p, g = (nm.vectors.reshape(-1, 3).take(idx, axis=0) for nm in (pred, gt))
    # atan2(|a x b|, a . b) is exact at 0 and 180 degrees, where arccos of
    # a rounded dot product is not; einsum reduces the short rows fastest
    c = np.cross(p, g)
    ang = np.degrees(np.arctan2(np.sqrt(np.einsum("ij,ij->i", c, c)), np.einsum("ij,ij->i", p, g)))
    return float(ang.mean())


# -- Canny ----------------------------------------------------------------


def _gaussian_kernel1d(sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


_CANNY_SIGMA = 1.4
# the margin of a NormalMap's foreground box in canny: the blur radius, one
# pixel for Sobel and one for Sobel's reflected border (module docstring)
_CANNY_MARGIN = len(_gaussian_kernel1d(_CANNY_SIGMA)) // 2 + 2


@lru_cache(maxsize=64)
def _border_index(n: int, r: int, mode: str) -> np.ndarray:
    """``numpy.pad(numpy.arange(n), r, mode)``, read-only: it is shared."""
    j = np.pad(np.arange(n), r, mode)
    j.flags.writeable = False
    return j


def gaussian_blur(img: np.ndarray, sigma: float, mode: str) -> np.ndarray:
    """Separable Gaussian blur of the first two axes, taps ``ceil(3 sigma)`` each side.

    ``mode`` is the border in ``numpy.pad``'s meaning, ``reflect`` or ``edge``;
    another mode, or a ``sigma`` that is not finite and positive, raises.
    Trailing axes, such as channels, are blurred independently. Each pass
    sums its taps left to right from zero, so the result, signed zeros
    included, equals ``numpy.pad`` and that sum.
    """
    if mode not in ("reflect", "edge"):
        raise ValueError(f"gaussian_blur: unsupported border mode {mode!r}, use 'reflect' or 'edge'")
    _check_real("gaussian_blur: sigma", sigma, positive=True)
    k = _gaussian_kernel1d(sigma)
    out = np.asarray(img, dtype=np.float64)
    for axis in (0, 1):
        n = out.shape[axis]
        pad = out.take(_border_index(n, len(k) // 2, mode), axis=axis)
        step = pad.strides[axis] // pad.itemsize
        flat, span = pad.reshape(-1), pad.size - (len(k) - 1) * step
        acc, tmp = np.zeros(pad.size), np.empty(pad.size)
        for i, kv in enumerate(k):
            acc[:span] += np.multiply(kv, flat[i * step : i * step + span], out=tmp[:span])
        # drop the sums that run past the end of the axis
        out = acc.reshape(pad.shape)[(slice(None),) * axis + (slice(n),)]
    return np.ascontiguousarray(out)


# sector s of the quantized gradient direction compares a pixel with its
# neighbours at +-(dy, dx)
_NMS_OFFSETS = ((0, 1), (-1, 1), (-1, 0), (-1, -1))


def _sobel(p: np.ndarray) -> np.ndarray:
    """3x3 Sobel (gx, gy) of a bordered (H+2, W+2, C) image ``p``, with a zero
    border. Flattened, each tap is one contiguous slice over every interior
    pixel; the nonzero taps go in row-major order, their +-1 and +-2
    products exact."""
    col, row = p.shape[2], p.shape[1] * p.shape[2]
    flat, lo = p.reshape(-1), row + col
    n = flat.size - 2 * lo
    g, tmp = np.empty((2,) + p.shape), np.empty(n)
    gx, gy = g.reshape(2, -1)[:, lo : lo + n]

    def tap(i, j):
        return flat[lo + (i - 1) * row + (j - 1) * col :][:n]

    np.subtract(tap(0, 2), tap(0, 0), out=gx)
    gx -= np.multiply(2.0, tap(1, 0), out=tmp)
    gx += np.multiply(2.0, tap(1, 2), out=tmp)
    gx -= tap(2, 0)
    gx += tap(2, 2)
    np.negative(tap(0, 0), out=gy)
    gy -= np.multiply(2.0, tap(0, 1), out=tmp)
    gy -= tap(0, 2)
    gy += tap(2, 0)
    gy += np.multiply(2.0, tap(2, 1), out=tmp)
    gy += tap(2, 2)
    g[:, [0, -1]] = g[:, :, [0, -1]] = 0.0
    return g


def _hysteresis(weak: np.ndarray, mag: np.ndarray, forward: tuple[int, ...]) -> np.ndarray:
    """The weak pixels 8-connected, through weak pixels, to a strong one.

    ``mag`` is the flat, zero-bordered magnitude stack, ``forward`` the flat
    offsets of a pixel's right, lower-left, lower and lower-right
    neighbours in it, and ``weak`` the sorted flat indices of the weak
    pixels; a strong pixel is a weak one with magnitude ``>= CANNY_HIGH``.
    Each pair of 8-neighbouring weak pixels is listed once; every round
    keeps both ends of each pair that has exactly one end kept, starting
    from the strong pixels, until no pair grows. Returns the indices of
    the kept pixels.
    """
    is_weak = np.zeros(mag.size, dtype=bool)
    is_weak[weak] = True
    # the zero border keeps neighbour pairs inside one row and one channel;
    # the forward half of the 8-neighbourhood lists each pair once
    us, vs = [], []
    for off in forward:
        hit = is_weak[weak + off]
        us.append(np.flatnonzero(hit))
        vs.append(np.searchsorted(weak, weak[hit] + off))
    u, v = np.concatenate(us), np.concatenate(vs)

    keep = mag[weak] >= CANNY_HIGH
    while True:
        grow = keep[u] != keep[v]
        if not grow.any():
            break
        keep[u[grow]] = keep[v[grow]] = True
    return weak[keep]


def canny(nm: NormalMap) -> EdgeMask:
    """Edge mask of a NormalMap's encoded rgb image, the union of the
    per-channel masks, at the thresholds ``CANNY_LOW`` and ``CANNY_HIGH``.

    Only the foreground box is filtered (module docstring). The union
    registers pure-direction discontinuities of equal luminance. A channel
    whose gradient peak does not exceed ``CANNY_PEAK_FLOOR``, such as a
    constant one, adds nothing.
    """
    # the encoded image over 255, background white, on the foreground's
    # bounding box widened by _CANNY_MARGIN: no edge lies outside it
    out = np.zeros(nm.shape, dtype=bool)
    rows, cols = (np.flatnonzero(nm.mask.any(axis=a)) for a in (1, 0))
    if not rows.size:
        return EdgeMask(out)
    box = tuple(slice(max(i[0] - _CANNY_MARGIN, 0), i[-1] + _CANNY_MARGIN + 1) for i in (rows, cols))
    img = _encoded_levels(nm.vectors[box]) / 255.0
    img[~nm.mask[box]] = 1.0
    img = gaussian_blur(img, _CANNY_SIGMA, "reflect")
    h, w = img.shape[:2]

    # (H+2, W+2, C) arrays from here on, flattened where indexed
    gx, gy = _sobel(img.take(_border_index(h, 1, "reflect"), axis=0).take(_border_index(w, 1, "reflect"), axis=1))
    mag = np.hypot(gx, gy)
    # per-channel strided planes: reducing over the short last axis is slower
    peak = np.array([plane.max() for plane in mag.reshape(-1, mag.shape[2]).T])
    # a dead channel's magnitudes scale to 0, so none of its pixels is weak
    peak[peak <= CANNY_PEAK_FLOOR] = np.inf
    col, row = len(peak), (w + 2) * len(peak)
    for plane, top in zip(mag.reshape(-1, col).T, peak):
        plane /= top  # unit-scaled gradients

    # non-maximum suppression along the quantized gradient direction, at
    # the pixels that clear ``CANNY_LOW`` (no other can be weak); the asymmetric
    # (>, >=) pair keeps exactly one pixel on plateau ties
    padm = mag.reshape(-1)
    at = np.flatnonzero(padm >= CANNY_LOW)
    ang = np.mod(np.arctan2(gy.take(at), gx.take(at)), np.pi)
    sector = np.floor((ang + np.pi / 8) / (np.pi / 4)).astype(int) % 4
    step = np.array([dy * row + dx * col for dy, dx in _NMS_OFFSETS])[sector]
    m = padm[at]
    weak = at[(m > padm[at - step]) & (m >= padm[at + step])]

    edges = _hysteresis(weak, padm, (col, row - col, row, row + col))
    out[box][edges // row - 1, edges % row // col - 1] = True
    return EdgeMask(out)


def dilate(mask: EdgeMask, radius: int) -> EdgeMask:
    """Chebyshev-ball (square) dilation; radius 0 is the identity.

    The square is separable: the OR of the 2r+1 row shifts, then of the
    2r+1 column shifts of that, each shift ORed into the slice it overlaps.
    """
    _check_integer("dilate: radius", radius, 0)
    rows = mask.mask.copy()
    for d in range(1, radius + 1):
        rows[d:] |= mask.mask[:-d]
        rows[:-d] |= mask.mask[d:]
    out = rows.copy()
    for d in range(1, radius + 1):
        out[:, d:] |= rows[:, :-d]
        out[:, :-d] |= rows[:, d:]
    return EdgeMask(out)


def sharp_normal_error(pred: NormalMap, gt: NormalMap, radius: int) -> float | None:
    """NE restricted to the sharp region: the Canny edges of the ground-truth
    normals, dilated by ``radius``, within the joint foreground
    ``pred.mask & gt.mask``.

    An empty sharp mask yields None rather than 0.
    """
    edges = dilate(canny(gt), radius)
    sharp = edges.mask & pred.mask & gt.mask
    if not sharp.any():
        return None
    return normal_error(pred, gt, sharp)


def multiview_report(
    pred_views: Sequence[NormalMap],
    gt_views: Sequence[NormalMap],
    radius: int | None = None,
) -> AngularErrorReport:
    """NE/SNE averaged over paired views with nonempty masks; SNE dilates by
    ``radius``, or by each view's ``scaled_dilation_radius`` when it is None.
    A pair whose shapes differ raises, naming the view."""
    if len(pred_views) != len(gt_views):
        raise ValueError(f"view count mismatch: {len(pred_views)} vs {len(gt_views)}")
    if not pred_views:
        raise ValueError("no views given")
    nes, snes = [], []
    for i, (p, g) in enumerate(zip(pred_views, gt_views)):
        if p.shape != g.shape:
            raise ValueError(f"view {i}: prediction shape {p.shape} differs from ground truth {g.shape}")
        r = scaled_dilation_radius(g.shape[0]) if radius is None else radius
        fg = p.mask & g.mask
        if not fg.any():
            continue
        nes.append(normal_error(p, g, fg))
        sne = sharp_normal_error(p, g, r)
        if sne is not None:
            snes.append(sne)
    if not nes:
        raise ValueError("all views have empty masks")
    return AngularErrorReport(
        ne_deg=float(np.mean(nes)),
        sne_deg=float(np.mean(snes)) if snes else None,
    )

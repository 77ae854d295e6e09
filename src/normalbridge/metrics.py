"""Normal-map error metrics.

NE is the mean per-pixel angular error in degrees over a mask. SNE is
NE restricted to salient regions of the ground-truth normal map: Canny
edges of the encoded normal image (per channel, unioned), dilated by a
Chebyshev ball, intersected with the foreground. ``sharp_normal_error``
gives SNE as None, not 0, when that region is empty;
``multiview_report`` averages NE and SNE over the views.

The Canny gradient magnitude is normalized to max 1 before thresholding,
so ``low``/``high`` are relative thresholds on unit-scaled gradients.

Canny works on all channels at once, as one (C, H, W) stack: Gaussian
blur, Sobel, magnitude and the per-channel peak scaling are whole-stack
array passes, in the same per-pixel float expressions as a loop over
channels, so the mask does not depend on how many channels share the
pass. Non-maximum suppression looks only at the pixels that clear
``low``. Hysteresis lists the pairs of 8-neighbouring weak pixels within
a channel once, then grows the kept set from the strong pixels across
those pairs until no pair has one end kept and the other not: the fixed
point of growing the strong pixels through weak ones, without a
full-image dilation per step. The square dilation is separable: the OR of
2r+1 row shifts, then of 2r+1 column shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .maps import NormalMap, encode_normal_image

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
DEFAULT_CANNY_LOW = 0.1
DEFAULT_CANNY_HIGH = 0.2


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
    if not mask.any():
        raise ValueError("empty mask: normal error undefined")
    dots = np.sum(pred.vectors[mask] * gt.vectors[mask], axis=-1)
    ang = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))
    return float(ang.mean())


# -- Canny ----------------------------------------------------------------


def _gaussian_kernel1d(sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(img: np.ndarray, sigma: float, mode: str) -> np.ndarray:
    """Separable Gaussian blur of the first two axes, taps ``ceil(3 sigma)`` each side.

    ``mode`` is the ``np.pad`` mode of the borders. Trailing axes, such as
    channels, are blurred independently. Each pass sums its taps left to
    right, so the result does not depend on how many channels ride along.
    """
    k = _gaussian_kernel1d(sigma)
    r = len(k) // 2
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[:2]
    rest = ((0, 0),) * (img.ndim - 2)
    pad = np.pad(img, ((r, r), (0, 0)) + rest, mode=mode)
    out = np.zeros(img.shape)
    for i, kv in enumerate(k):
        out += kv * pad[i : i + h]
    pad = np.pad(out, ((0, 0), (r, r)) + rest, mode=mode)
    out = np.zeros(img.shape)
    for i, kv in enumerate(k):
        out += kv * pad[:, i : i + w]
    return out


# sector s of the quantized gradient direction compares a pixel with its
# neighbours at +-(dy, dx)
_NMS_OFFSETS = ((0, 1), (-1, 1), (-1, 0), (-1, -1))


def _sobel(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel (gx, gy) of a (C, H, W) stack, reflect-padded.

    The nonzero taps of the kernels are added in row-major order; the
    zero taps are skipped, and the +-1 and +-2 products are exact.
    """
    _, h, w = stack.shape
    p = np.pad(stack, ((0, 0), (1, 1), (1, 1)), mode="reflect")

    def tap(i, j):
        return p[:, i : i + h, j : j + w]

    gx = tap(0, 2) - tap(0, 0)
    gx -= 2.0 * tap(1, 0)
    gx += 2.0 * tap(1, 2)
    gx -= tap(2, 0)
    gx += tap(2, 2)
    gy = -tap(0, 0)
    gy -= 2.0 * tap(0, 1)
    gy -= tap(0, 2)
    gy += tap(2, 0)
    gy += 2.0 * tap(2, 1)
    gy += tap(2, 2)
    return gx, gy


def _hysteresis(weak: np.ndarray, mag: np.ndarray, row: int, high: float) -> np.ndarray:
    """The weak pixels 8-connected, through weak pixels, to a strong one.

    ``mag`` is the flat, zero-bordered magnitude stack with rows of
    ``row`` entries, and ``weak`` the sorted flat indices of the weak
    pixels in it; a strong pixel is a weak one with magnitude ``>= high``.
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
    for off in (1, row - 1, row, row + 1):
        hit = is_weak[weak + off]
        us.append(np.flatnonzero(hit))
        vs.append(np.searchsorted(weak, weak[hit] + off))
    u, v = np.concatenate(us), np.concatenate(vs)

    keep = mag[weak] >= high
    while True:
        grow = keep[u] != keep[v]
        if not grow.any():
            break
        keep[u[grow]] = keep[v[grow]] = True
    return weak[keep]


def canny(source, low: float = DEFAULT_CANNY_LOW, high: float = DEFAULT_CANNY_HIGH) -> EdgeMask:
    """Edge mask of a NormalMap (encoded rgb, per-channel union) or float image.

    Accepts a NormalMap, an HxWx3 float image in [0,1], or an HxW gray
    image; a non-finite pixel raises. Per-channel masks are unioned so
    pure-direction discontinuities with equal luminance still register. A
    channel whose gradient is zero everywhere adds nothing.
    """
    if not (0.0 < low < high):
        raise ValueError("need 0 < low < high")
    if isinstance(source, NormalMap):
        img = encode_normal_image(source).astype(np.float64) / 255.0
    else:
        img = np.asarray(source, dtype=np.float64)
        if not np.isfinite(img).all():
            raise ValueError("canny: image contains non-finite values")
    if img.ndim not in (2, 3):
        raise ValueError(f"unsupported image shape {img.shape}")
    out = np.zeros(img.shape[:2], dtype=bool)
    blur = gaussian_blur(img, 1.4, "reflect")
    gx, gy = _sobel(blur[None] if blur.ndim == 2 else np.moveaxis(blur, 2, 0))
    mag = np.hypot(gx, gy)
    peak = mag.max(axis=(1, 2))
    live = peak > 0
    if not live.any():
        return EdgeMask(out)
    mag = mag[live] / peak[live, None, None]  # unit-scaled gradients

    # non-maximum suppression along the quantized gradient direction, at
    # the pixels that clear ``low`` (no other can be weak); the asymmetric
    # (>, >=) pair keeps exactly one pixel on plateau ties
    _, h, w = mag.shape
    row = w + 2
    padm = np.pad(mag, ((0, 0), (1, 1), (1, 1)), mode="constant").ravel()
    cand = mag >= low
    at = np.flatnonzero(padm >= low)  # the same pixels, in the bordered stack
    ang = np.mod(np.arctan2(gy[live][cand], gx[live][cand]), np.pi)
    sector = np.floor((ang + np.pi / 8) / (np.pi / 4)).astype(int) % 4
    step = np.array([dy * row + dx for dy, dx in _NMS_OFFSETS])[sector]
    m = padm[at]
    weak = at[(m > padm[at - step]) & (m >= padm[at + step])]

    edges = _hysteresis(weak, padm, row, high)
    out[edges % ((h + 2) * row) // row - 1, edges % row - 1] = True
    return EdgeMask(out)


def dilate(mask: EdgeMask, radius: int = DEFAULT_DILATION_RADIUS) -> EdgeMask:
    """Chebyshev-ball (square) dilation; radius 0 is the identity.

    The square is separable: the OR of the 2r+1 row shifts, then of the
    2r+1 column shifts of that.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    m = mask.mask
    h, w = m.shape
    pad = np.pad(m, radius, mode="constant")
    rows = pad[:h].copy()
    for d in range(1, 2 * radius + 1):
        rows |= pad[d : d + h]
    out = rows[:, :w].copy()
    for d in range(1, 2 * radius + 1):
        out |= rows[:, d : d + w]
    return EdgeMask(out)


def sharp_normal_error(pred: NormalMap, gt: NormalMap, radius: int = DEFAULT_DILATION_RADIUS) -> float | None:
    """NE restricted to the sharp region: the Canny edges of the ground-truth
    normals at the default thresholds, dilated by ``radius``, within the
    joint foreground ``pred.mask & gt.mask``.

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
    ``radius``, or by each view's ``scaled_dilation_radius`` when it is None."""
    if len(pred_views) != len(gt_views):
        raise ValueError(f"view count mismatch: {len(pred_views)} vs {len(gt_views)}")
    if not pred_views:
        raise ValueError("no views given")
    nes, snes = [], []
    for p, g in zip(pred_views, gt_views):
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

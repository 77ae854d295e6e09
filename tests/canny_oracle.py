"""Per-channel Canny reference with dilation-loop hysteresis.

One channel of the encoded image at a time: separable Gaussian blur
with reflect padding, 3x3 Sobel with every tap (zeros included), no edge
where the gradient peak is at most 1e-12 times the largest absolute
blurred value (a relative floor, where ``metrics.canny`` has an absolute
one; on encoded values in [0, 1] both keep the same channels), gradient
magnitude scaled to its peak, non-maximum suppression along the
quantized direction, then hysteresis by growing the strong pixels one
full-image 3x3 dilation at a time, restricted to the weak pixels, until
nothing changes. The per-channel masks are unioned. Every float
expression is in the order ``metrics.canny`` uses, so agreement must be
exact, while the stacking and the connected-component hysteresis are
independent.
"""

import numpy as np

from normalbridge.maps import encode_normal_image


def _gaussian_kernel1d(sigma):
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _convolve_sep(img, k):
    """Separable 2-d convolution with reflect padding."""
    r = len(k) // 2
    pad = np.pad(img, ((r, r), (0, 0)), mode="reflect")
    out = np.zeros_like(img)
    for i, kv in enumerate(k):
        out += kv * pad[i : i + img.shape[0], :]
    pad = np.pad(out, ((0, 0), (r, r)), mode="reflect")
    out2 = np.zeros_like(img)
    for i, kv in enumerate(k):
        out2 += kv * pad[:, i : i + img.shape[1]]
    return out2


def _conv3(img, k3):
    pad = np.pad(img, 1, mode="reflect")
    out = np.zeros_like(img)
    h, w = img.shape
    for i in range(3):
        for j in range(3):
            out += k3[i, j] * pad[i : i + h, j : j + w]
    return out


_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T


def dilate_loop(mask, radius):
    """Square dilation as the OR of all (2r+1)^2 shifted copies."""
    if radius <= 0:
        return mask.copy()
    h, w = mask.shape
    pad = np.pad(mask, radius, mode="constant")
    out = np.zeros((h, w), dtype=bool)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out |= pad[dy : dy + h, dx : dx + w]
    return out


def _canny_channel(gray, low, high, sigma=1.4):
    blur = _convolve_sep(gray.astype(np.float64), _gaussian_kernel1d(sigma))
    gx = _conv3(blur, _SOBEL_X)
    gy = _conv3(blur, _SOBEL_Y)
    mag = np.hypot(gx, gy)
    peak = mag.max()
    # a constant channel's rounding residue is no gradient
    if peak <= 1e-12 * np.abs(blur).max():
        return np.zeros_like(gray, dtype=bool)
    mag = mag / peak

    ang = np.mod(np.arctan2(gy, gx), np.pi)
    sector = np.floor((ang + np.pi / 8) / (np.pi / 4)).astype(int) % 4
    offsets = {0: (0, 1), 1: (-1, 1), 2: (-1, 0), 3: (-1, -1)}
    padm = np.pad(mag, 1, mode="constant")
    h, w = gray.shape
    nms = np.zeros((h, w), dtype=bool)
    for s, (dy, dx) in offsets.items():
        ahead = padm[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        behind = padm[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        keep = (mag > behind) & (mag >= ahead)
        nms |= keep & (sector == s)

    strong = nms & (mag >= high)
    weak = nms & (mag >= low)
    result = strong.copy()
    while True:
        grown = dilate_loop(result, 1) & weak
        if np.array_equal(grown, result):
            return result
        result = grown


def canny_oracle(nm, low, high):
    """Union of the per-channel edge masks of a NormalMap's encoded image over 255."""
    img = encode_normal_image(nm).astype(np.float64) / 255.0
    mask = np.zeros(img.shape[:2], dtype=bool)
    for c in range(3):
        mask |= _canny_channel(img[..., c], low, high)
    return mask

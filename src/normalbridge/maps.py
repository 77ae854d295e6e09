"""Heightfields, normal maps and their on-disk encodings.

Normal maps are camera-space unit vectors with +z toward the viewer,
stored alongside a boolean foreground mask. Background pixels carry the
sentinel normal (0, 0, 1) and mask False. The 8-bit image encoding is
rgb = round((n + 1) / 2 * 255) with background forced to white. Images
and masks are netpbm files, heightfields NBLB1 (``tensorcore.checkpoint``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensorcore.checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Heightfield",
    "NormalMap",
    "encode_normal_image",
    "decode_normal_image",
    "write_ppm",
    "read_ppm",
    "write_pgm",
    "read_pgm",
    "write_height_bin",
    "read_height_bin",
]

SENTINEL_NORMAL = np.array([0.0, 0.0, 1.0])
# largest deviation from unit length that NormalMap.validate_unit accepts
_UNIT_TOL = 1e-6


def _check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise a ValueError naming ``name`` and ``value`` unless ``value`` is an
    integer (not a bool) in ``low..high``, or ``>= low`` when ``high`` is None."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low
            or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _check_real(name: str, value, positive: bool) -> None:
    """Raise a ValueError naming ``name`` and ``value`` unless ``value`` is a
    finite real number (not a bool), ``> 0`` when ``positive`` and ``>= 0``
    otherwise; NaN fails both comparisons."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (value > 0 if positive else value >= 0) or not value < np.inf):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


def _check_bool(name: str, value) -> None:
    """Raise a ValueError naming ``name`` and ``value`` unless ``value`` is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


@dataclass
class Heightfield:
    """H x W grid of heights in world units; ``cell_size`` is units/pixel."""

    heights: np.ndarray
    cell_size: float = 1.0

    def __post_init__(self):
        self.heights = np.asarray(self.heights, dtype=np.float64)
        if self.heights.ndim != 2:
            raise ValueError(f"heights must be 2-d, got shape {self.heights.shape}")
        h, w = self.heights.shape
        if h < 8 or w < 8:
            raise ValueError(f"heightfield must be at least 8x8, got {h}x{w}")
        if not np.isfinite(self.heights).all():
            raise ValueError("heightfield contains non-finite values")
        _check_real("Heightfield.cell_size", self.cell_size, positive=True)

    @property
    def shape(self) -> tuple[int, int]:
        return self.heights.shape


@dataclass
class NormalMap:
    """H x W field of finite unit 3-vectors plus a foreground mask."""

    vectors: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 3 or self.vectors.shape[2] != 3:
            raise ValueError(f"vectors must be HxWx3, got {self.vectors.shape}")
        if not np.isfinite(self.vectors).all():
            raise ValueError("normal map contains non-finite vectors")
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.vectors.shape[:2]:
            raise ValueError("mask shape does not match vectors")

    @property
    def shape(self) -> tuple[int, int]:
        return self.vectors.shape[:2]

    def validate_unit(self) -> None:
        """Raise unless the foreground vectors, gathered by flat index, are unit length."""
        norms = np.linalg.norm(self.vectors.reshape(-1, 3).take(np.flatnonzero(self.mask), axis=0), axis=-1)
        if norms.size and np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
            raise ValueError("foreground normals are not unit length")


def _encoded_levels(vectors: np.ndarray) -> np.ndarray:
    """The 8-bit encoding's levels of ``vectors``: integers 0..255 as floats."""
    return np.rint((vectors + 1.0) / 2.0 * 255.0).clip(0, 255)


def encode_normal_image(nm: NormalMap) -> np.ndarray:
    """uint8 H x W x 3 image; background pixels are white."""
    img = _encoded_levels(nm.vectors).astype(np.uint8)
    img[~nm.mask] = 255
    return img


def decode_normal_image(img: np.ndarray, mask: np.ndarray) -> NormalMap:
    """Invert :func:`encode_normal_image` under the foreground ``mask``;
    decoded vectors are re-normalized. A mask of another shape raises."""
    if mask.shape != img.shape[:2]:
        raise ValueError(f"mask shape {mask.shape} differs from the normal image's {img.shape[:2]}")
    v = img.astype(np.float64) / 255.0 * 2.0 - 1.0
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    v = np.where(n > 1e-12, v / np.maximum(n, 1e-12), SENTINEL_NORMAL)
    v[~mask] = SENTINEL_NORMAL
    return NormalMap(v, mask)


# -- netpbm -------------------------------------------------------------


def _write_netpbm(path, img: np.ndarray, magic: str, channels: int) -> None:
    """``magic``, width, height and maxval 255, then the bytes of a uint8
    H x W x ``channels`` image; another array raises, naming the writer."""
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != channels:
        name, shape = ("write_ppm", "HxWx3") if channels == 3 else ("write_pgm", "HxW")
        raise ValueError(f"{name} expects a uint8 {shape} array")
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    _write_netpbm(path, np.asarray(img), "P6", 3)


def write_pgm(path, img: np.ndarray) -> None:
    _write_netpbm(path, np.asarray(img)[..., None], "P5", 1)


# magic, width, height and maxval, whitespace-separated, then one
# whitespace byte; the writer above emits no comments
_NETPBM_HEADER = re.compile(rb"P[56]\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    blob = Path(path).read_bytes()
    if not blob.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} file")
    header = _NETPBM_HEADER.match(blob)
    if header is None:
        raise ValueError(f"{path}: truncated or malformed {magic.decode()} header")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    pos = header.end()
    need = h * w * channels
    if len(blob) - pos != need:
        raise ValueError(f"{path}: a {w}x{h} {magic.decode()} file has {need} payload bytes, "
                         f"this file {len(blob) - pos}")
    return np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(h, w, channels).copy()


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, b"P5", 1)[..., 0]


# -- height binaries -----------------------------------------------------


def write_height_bin(path, hf: Heightfield) -> None:
    """``hf`` as the NBLB1 records ``heights`` and a 0-d ``cell_size``."""
    save_checkpoint(path, {"heights": hf.heights, "cell_size": np.float64(hf.cell_size)})


def read_height_bin(path) -> Heightfield:
    """Invert :func:`write_height_bin`; any other file raises ValueError naming ``path``."""
    records = load_checkpoint(path)
    shapes = {name: arr.shape for name, arr in records.items()}
    if shapes.keys() != {"heights", "cell_size"} or shapes["cell_size"] != ():
        raise ValueError(f"{path}: a height file holds 'heights' and a 0-d 'cell_size', not {shapes}")
    try:
        return Heightfield(records["heights"], float(records["cell_size"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

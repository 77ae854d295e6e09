"""Procedural paired (image, normal map, heightfield) samples.

Two label domains mirror how training data behaves in the wild:
``SYNTH`` samples carry exact normals derived from the heightfield;
``REAL`` samples take the same geometry but corrupt the normal labels
inside edge bands (Gaussian blur plus angular noise), the failure mode
of scanned ground truth. Every sample is a function of (seed, index)
alone, through counter-based RNG streams, so a sample does not depend on
how many others are generated with it.

The toy world is an orthographic top-down view: axis 1 of the grid is
x (right), axis 0 is y, and normals live in that frame with +z toward
the viewer, n = normalize(-dh/dx, -dh/dy, 1). The slopes are
``np.gradient``'s: central differences inside, one-sided at the border,
divided by ``cell_size``.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .maps import (
    Heightfield,
    NormalMap,
    _check_integer,
    _check_real,
    decode_normal_image,
    encode_normal_image,
    read_height_bin,
    read_pgm,
    read_ppm,
    write_height_bin,
    write_pgm,
    write_ppm,
)
from .tensorcore import SeededRng, Tensor, concat, l2_normalize

__all__ = [
    "Domain",
    "DomainSample",
    "generate_scene",
    "heightfield_normals",
    "shade_image",
    "corrupt_labels_real_domain",
    "make_dataset",
    "write_dataset",
    "read_dataset",
]

# RNG stream bases; keeps per-purpose streams disjoint under one seed.
_STREAM_SCENE = 0
_STREAM_SHADE = 10_000_000
_STREAM_CORRUPT = 20_000_000
_STREAM_ITEM = 30_000_000
# sample i of a dataset keys its albedo and sensor noise by seed *
# _SHADE_KEY + i and, for a real sample, its label corruption by seed *
# _CORRUPT_KEY + i
_SHADE_KEY = 1_000_003
_CORRUPT_KEY = 2_000_003

DEFAULT_PRIMITIVES = ("box", "ramp", "sphere", "ridge")


class Domain(enum.Enum):
    REAL = "real"
    SYNTH = "synth"


@dataclass
class DomainSample:
    image: np.ndarray          # H x W x 3 floats in [0, 1]
    normal_gt: NormalMap
    height_gt: Heightfield
    domain: Domain
    index: int = 0

    def __post_init__(self):
        img = self.image
        # a NaN fails both comparisons
        if img.ndim != 3 or img.shape[2] != 3 or not (img.min() >= 0.0 and img.max() <= 1.0):
            raise ValueError(f"sample {self.index}: image of shape {img.shape} is not H x W x 3 "
                             f"with values in [0, 1]")
        if img.shape[:2] != self.normal_gt.shape or img.shape[:2] != self.height_gt.shape:
            raise ValueError(f"sample {self.index}: image/normal/height dimensions disagree")


# -- scenes ----------------------------------------------------------------


def _paint_primitive(h: np.ndarray, kind: str, rng: SeededRng, cell: float,
                     yy: np.ndarray, xx: np.ndarray) -> None:
    """Union ``h`` by max with one primitive; ``yy``, ``xx`` are ``h``'s pixel coordinates."""
    size_y, size_x = h.shape
    extent = rng.uniform(0.06, 0.12) * min(size_y, size_x)
    # narrow height spread: in dense scenes every primitive's edges must
    # clear canny's relative thresholds, not just the tallest one's
    height = rng.uniform(0.8, 1.3) * extent * cell * 0.5

    if kind == "box":
        # boxes stay fully interior so all 4 step edges are visible
        ey = extent * rng.uniform(0.6, 1.3)
        cy = rng.uniform(ey + 2.0, size_y - ey - 2.0)
        cx = rng.uniform(extent + 2.0, size_x - extent - 2.0)
        region = (np.abs(yy - cy) < ey) & (np.abs(xx - cx) < extent)
        np.maximum(h, np.where(region, height, 0.0), out=h)
        return

    cy = rng.uniform(0.12, 0.88) * size_y
    cx = rng.uniform(0.12, 0.88) * size_x
    if kind == "ramp":
        ey = extent * rng.uniform(0.8, 1.6)
        region = (np.abs(yy - cy) < ey) & (np.abs(xx - cx) < extent)
        axis = xx if rng.uniform() < 0.5 else yy
        c = cx if axis is xx else cy
        ramp = (axis - (c - extent)) / (2.0 * extent)
        np.maximum(h, np.where(region, height * np.clip(ramp, 0.0, 1.0), 0.0), out=h)
    elif kind == "sphere":
        r2 = (yy - cy) ** 2 + (xx - cx) ** 2
        cap = np.sqrt(np.maximum(extent ** 2 - r2, 0.0)) * cell
        np.maximum(h, cap * (height / (extent * cell)), out=h)
    else:  # "ridge": generate_scene has refused any other name
        ey = extent * rng.uniform(1.2, 2.2)
        along_x = rng.uniform() < 0.5
        dist = np.abs(xx - cx) if along_x else np.abs(yy - cy)
        other = np.abs(yy - cy) if along_x else np.abs(xx - cx)
        profile = np.clip(1.0 - dist / extent, 0.0, 1.0)
        region = other < ey
        np.maximum(h, np.where(region, height * profile, 0.0), out=h)


def generate_scene(
    seed: int,
    complexity: int,
    size: int = 64,
    cell_size: float = 1.0,
    primitives: tuple[str, ...] = DEFAULT_PRIMITIVES,
    stream: int = 0,
) -> Heightfield:
    """Union-by-max composite of ``complexity`` primitives on a ground plane,
    on a ``size`` x ``size`` grid (``size`` >= 8, which leaves room for
    every primitive's placement band)."""
    _check_integer("generate_scene: complexity", complexity, 1, 10)
    _check_integer("generate_scene: size", size, 8)
    _check_real("generate_scene: cell_size", cell_size, positive=True)
    if not (isinstance(primitives, (tuple, list)) and primitives
            and all(kind in DEFAULT_PRIMITIVES for kind in primitives)):
        raise ValueError(f"generate_scene: primitives must be a non-empty tuple or list of names "
                         f"from {DEFAULT_PRIMITIVES}, got {primitives!r}")
    rng = SeededRng(seed, _STREAM_SCENE + stream)
    h = np.zeros((size, size))
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    for _ in range(complexity):
        kind = primitives[int(rng.integers(0, len(primitives)))]
        _paint_primitive(h, kind, rng, cell_size, yy, xx)
    return Heightfield(h, cell_size)


# -- normals ----------------------------------------------------------------


def heightfield_normals(hf: Heightfield) -> NormalMap:
    """Exact normals of a heightfield (full-frame foreground)."""
    gy, gx = np.gradient(hf.heights, hf.cell_size)
    # tracing.py times these two calls here; z = 1, so eps=0 is safe and flat is (0, 0, 1)
    stacked = concat([Tensor(v[..., None]) for v in (-gx, -gy, np.ones_like(gx))], axis=2)
    vec = l2_normalize(stacked, axis=2, eps=0.0).data
    return NormalMap(vec, np.ones(hf.shape, dtype=bool))


# -- shading ----------------------------------------------------------------


def _procedural_albedo(shape, rng: SeededRng, style: dict) -> np.ndarray:
    size_y, size_x = shape
    yy, xx = np.mgrid[0:size_y, 0:size_x].astype(np.float64)
    # one (fy, fx, phase) row per channel, drawn in channel order
    draws = rng.uniform([0.5, 0.5, 0.0], [style["albedo_max_freq"]] * 2 + [2.0 * np.pi], (3, 3))
    fy, fx, phase = draws.T[:, :, None, None]
    # the waves channel-first, one contiguous (H, W) plane per channel: a
    # channel-last broadcast over (H, W, 3) is slower
    wave = np.sin(2.0 * np.pi * (fy * yy / size_y + fx * xx / size_x) + phase)
    return (0.7 + style["albedo_contrast"] * wave).transpose(1, 2, 0)


def shade_image(normals: NormalMap, light_dir, albedo_seed: int, style: dict) -> np.ndarray:
    """Lambertian shading of ``normals`` with procedural albedo and sensor noise.

    The albedo pattern and the additive noise deliberately inject the
    lighting/texture ambiguity a normal estimator has to see through.
    ``style``, a ``DOMAIN_STYLES`` entry, sets how strong that ambiguity
    is: the albedo's contrast and highest frequency and the noise level.
    """
    light = np.asarray(light_dir, dtype=np.float64)
    norm = np.linalg.norm(light)
    # a NaN or infinite component fails both comparisons
    if light.shape != (3,) or not 1e-12 <= norm < np.inf:
        raise ValueError(f"shade_image: light_dir must be a finite nonzero 3-vector, got {light_dir!r}")
    light = light / norm
    lam = np.maximum(normals.vectors @ light, 0.0)
    img = lam[..., None] * _procedural_albedo(normals.shape, SeededRng(albedo_seed, _STREAM_SHADE), style)
    img = img + style["noise_std"] * SeededRng(albedo_seed, _STREAM_SHADE + 1).normal(size=img.shape)
    return np.clip(img, 0.0, 1.0)


# -- real-domain label corruption -------------------------------------------


def corrupt_labels_real_domain(
    sample: DomainSample,
    seed: int,
    blur_sigma: float = 4.0,
    angle_noise_deg: float = 25.0,
    band_radius: int = 4,
) -> DomainSample:
    """Blur + angular noise on normals inside dilated edge bands.

    Mimics scanner label noise at depth discontinuities: the geometry and
    image stay exact, only the normal labels degrade, and only near edges.
    """
    if sample.domain is not Domain.SYNTH:
        raise ValueError("corruption expects a synthetic-domain sample")
    _check_real("corrupt_labels_real_domain: angle_noise_deg", angle_noise_deg, positive=False)
    nm = sample.normal_gt
    band = np.flatnonzero(metrics.dilate(metrics.canny(nm), band_radius).mask)
    n = metrics.gaussian_blur(nm.vectors, blur_sigma, "edge").reshape(-1, 3).take(band, axis=0)
    rng = SeededRng(seed, _STREAM_CORRUPT)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    # random unit tangents: project a random vector onto each tangent plane
    raw = rng.normal(size=n.shape)
    raw -= np.sum(raw * n, axis=-1, keepdims=True) * n
    tan = raw / np.maximum(np.linalg.norm(raw, axis=-1, keepdims=True), 1e-12)
    theta = np.radians(rng.normal(0.0, angle_noise_deg, n.shape[:1]))[:, None]
    vec = nm.vectors.copy()
    vec.reshape(-1, 3)[band] = np.cos(theta) * n + np.sin(theta) * tan
    corrupted = NormalMap(vec, nm.mask.copy())
    corrupted.validate_unit()
    return DomainSample(sample.image, corrupted, sample.height_gt, Domain.REAL, sample.index)


# -- datasets ----------------------------------------------------------------


# Image-style presets per domain. Real-world captures carry strong
# textures, varied lighting and sensor noise; synthetic renders are
# clean and canonically lit. The gap is what domain-specific training
# has to straddle.
DOMAIN_STYLES = {
    Domain.REAL: {"albedo_contrast": 0.3, "albedo_max_freq": 6.0, "noise_std": 0.03, "light_tilt": 0.25},
    Domain.SYNTH: {"albedo_contrast": 0.12, "albedo_max_freq": 2.8, "noise_std": 0.008, "light_tilt": 0.1},
}


def _make_sample(seed: int, index: int, domain: Domain, complexity_range, size) -> DomainSample:
    item = SeededRng(seed, _STREAM_ITEM + index)
    lo, hi = complexity_range
    complexity = int(item.integers(lo, hi + 1))
    hf = generate_scene(seed, complexity, size=size, stream=index + 1)
    nm = heightfield_normals(hf)
    style = DOMAIN_STYLES[domain]
    tilt = item.normal(0.0, style["light_tilt"], (2,))
    light = np.array([0.2 + tilt[0], -0.2 + tilt[1], 0.95])
    # SeededRng has refused a seed that is not an integer; a numpy one
    # would wrap in the products below
    seed = int(seed)
    img = shade_image(nm, light, seed * _SHADE_KEY + index, style)
    sample = DomainSample(img, nm, hf, Domain.SYNTH, index)
    if domain is Domain.REAL:
        sample = corrupt_labels_real_domain(sample, seed * _CORRUPT_KEY + index)
    return sample


def make_dataset(
    n: int,
    domain: Domain,
    seed: int,
    complexity_range: tuple[int, int] = (1, 10),
    size: int = 64,
) -> list[DomainSample]:
    """``n`` samples of ``domain``; sample i depends only on (seed, i), so
    the first k samples of a larger dataset are the k-sample dataset."""
    _check_integer("make_dataset: n", n, 1)
    lo, hi = complexity_range
    _check_integer(f"make_dataset: complexity_range {complexity_range!r}: low", lo, 1, 10)
    _check_integer(f"make_dataset: complexity_range {complexity_range!r}: high", hi, lo, 10)
    # every derived key must fit SeededRng's 64 bits; SeededRng refuses a
    # seed that is not an integer, or negative, itself
    largest = ((1 << 64) - int(n)) // (_CORRUPT_KEY if domain is Domain.REAL else _SHADE_KEY)
    if isinstance(seed, (int, np.integer)) and seed > largest:
        raise ValueError(f"make_dataset: seed must be <= {largest} for {n} {domain.value} samples, "
                         f"got {seed!r}")
    return [_make_sample(seed, i, domain, complexity_range, size) for i in range(n)]


def sample_digest(sample: DomainSample) -> str:
    return hashlib.sha256(sample.image.tobytes()).hexdigest()


def write_dataset(out_dir, samples: list[DomainSample]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, s in enumerate(samples):
        stem = f"{i:04d}"
        write_ppm(out / f"{stem}_img.ppm", np.round(s.image * 255.0).clip(0, 255).astype(np.uint8))
        write_ppm(out / f"{stem}_normal.ppm", encode_normal_image(s.normal_gt))
        write_pgm(out / f"{stem}_mask.pgm", np.where(s.normal_gt.mask, 255, 0).astype(np.uint8))
        write_height_bin(out / f"{stem}_height.bin", s.height_gt)
        entries.append({"index": s.index, "stem": stem, "domain": s.domain.value})
    manifest = {"n": len(samples), "items": entries}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def read_dataset(path) -> list[DomainSample]:
    """The samples ``write_dataset`` wrote to ``path``. A malformed
    manifest, one whose ``n`` is not its number of items, whose stem is not
    one plain file-name component or whose index is not an integer >= 0,
    or a malformed sample raises ``ValueError``, naming the directory and
    ``manifest.json`` or the sample's stem. The manifest is checked before
    any sample is read."""
    root = Path(path)
    try:
        manifest = json.loads((root / "manifest.json").read_text())
        items = manifest["items"]
        stems = [item["stem"] for item in items]
        _check_integer("n", manifest["n"], 0)
        if manifest["n"] != len(items):
            raise ValueError(f"n is {manifest['n']!r} but the item count is {len(items)}")
        for i, (item, stem) in enumerate(zip(items, stems)):
            # a stem with a separator or a dot entry would read another directory
            if not isinstance(stem, str) or stem in ("", ".", "..") or Path(stem).name != stem:
                raise ValueError(f"items[{i}]: stem must be one plain file-name component, got {stem!r}")
            _check_integer(f"items[{i}]: index", item["index"], 0)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{root / 'manifest.json'}: {type(exc).__name__}: {exc}") from exc
    samples = []
    for item, stem in zip(items, stems):
        try:
            img = read_ppm(root / f"{stem}_img.ppm").astype(np.float64) / 255.0
            mask = read_pgm(root / f"{stem}_mask.pgm") > 127
            nm = decode_normal_image(read_ppm(root / f"{stem}_normal.ppm"), mask)
            hf = read_height_bin(root / f"{stem}_height.bin")
            samples.append(DomainSample(img, nm, hf, Domain(item["domain"]), item["index"]))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{root}: sample {stem!r}: {type(exc).__name__}: {exc}") from exc
    return samples

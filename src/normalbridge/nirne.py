"""Noise-injected dual-stream normal regression.

Two encoders with identical architecture read the same image. Their
weights are meant to be independent, but both encoders draw their init
from the same random keys, so they start equal (see ``_Encoder``); the
decoder, fusion and head convs reuse those keys too. During training
the "noisy" stream's features receive scaled Gaussian noise (one sigma
per sample, log-uniform in [``NOISE_SIGMA_LO``, ``NOISE_SIGMA_HI``] and
shared by every feature level, times a fresh standard normal draw per
level), biasing it toward high-frequency structure that survives
corruption; the clean stream keeps low-frequency reliability. The decoder upsamples from the clean
stream's skips while the noisy stream enters through per-level 1x1
fusion projections added to each decoder block, so the noisy path is a
residual detail channel that can be fine-tuned alone.
Every activation is tensorcore's LeakyReLU (slope ``LEAKY_SLOPE``,
0.1); each encoder norm applies it in its own graph node. Parameters are
named after each layer's ``Tensor`` attributes (``noisy.stem_a.weight``).

Training is two-stage: stage 1 fits everything on real-domain data
(noisy edge labels, broad coverage); stage 2 freezes the clean stream
and decoder and fine-tunes only the noisy encoder and its fusion layers
on synthetic data with exact labels; both stages run one training
body. Inference never injects noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# called through the module, so a wrapper set on a module attribute sees the call
from . import metrics, toydata
from .maps import SENTINEL_NORMAL, NormalMap, _check_bool, _check_integer, _check_real
from .tensorcore import (
    AdamWState,
    Conv2d,
    GroupNorm,
    SeededRng,
    Tensor,
    adamw_step,
    backward,
    concat,
    l2_normalize,
    no_grad,
    upsample_nearest,
)
from .toydata import DomainSample, Domain

__all__ = [
    "TrainConfig",
    "DualStreamModel",
    "train_stage1",
    "train_stage2",
    "predict_batch",
    "evaluate_model",
]

# decoder levels, coarsest first: the order the decoder runs them in
_LEVELS = (3, 2, 1, 0)
# images per forward pass in predict_batch (the measured best at 64x64)
_PREDICT_CHUNK = 2
# SNE dilation radius of evaluate_model, in pixels
_SNE_RADIUS = 2


# injection noise band: training draws sigma log-uniformly from it, which
# keeps coarse shape while perturbing detail
NOISE_SIGMA_LO, NOISE_SIGMA_HI = 0.002, 1.0


class _Encoder:
    """Two-conv full-resolution stem plus three stride-2 downsamplings.

    Each level's output is group-normalized to roughly unit scale so the
    injection sigma range is calibrated the same way at every level (and
    run to run), like noise levels defined against unit-variance latents.
    """

    def __init__(self, channels, seed: int):
        # the layers are the instance's only attributes, in checkpoint order;
        # both encoders draw from the same keys, so they start equal (a
        # known defect, kept until the numbers it sets are re-recorded)
        c0, c1, c2, c3 = channels
        self.stem_a = Conv2d(3, c0, rng=SeededRng(seed, 1))
        self.stem_b = Conv2d(c0, c0, rng=SeededRng(seed, 5))
        self.down1 = Conv2d(c0, c1, stride=2, rng=SeededRng(seed, 2))
        self.down2 = Conv2d(c1, c2, stride=2, rng=SeededRng(seed, 3))
        self.down3 = Conv2d(c2, c3, stride=2, rng=SeededRng(seed, 4))
        self.norm0 = GroupNorm(c0)
        self.norm1 = GroupNorm(c1)
        self.norm2 = GroupNorm(c2)
        self.norm3 = GroupNorm(c3)

    def __call__(self, x: Tensor) -> list[Tensor]:
        # each norm applies its LeakyReLU in the same graph node
        s = self.stem_b(self.stem_a(x).leaky_relu())
        f0 = self.norm0(s)
        f1 = self.norm1(self.down1(f0))
        f2 = self.norm2(self.down2(f1))
        f3 = self.norm3(self.down3(f2))
        return [f0, f1, f2, f3]


class DualStreamModel:
    """Clean/noisy encoders + shared decoder with per-level fusion.

    ``dual_stream=False`` builds the single-stream ablation: one encoder
    (still noise-injected in training) feeds the decoder directly and no
    fusion layers exist. ``inject_noise=False`` builds the no-injection
    ablation: training draws no noise.
    """

    def __init__(self, channels=(8, 12, 16, 24), seed: int = 0, dual_stream: bool = True,
                 inject_noise: bool = True):
        if not isinstance(channels, (tuple, list)) or len(channels) != 4:
            raise ValueError(f"DualStreamModel: channels must be four integers >= 1, got {channels!r}")
        for c in channels:
            _check_integer(f"DualStreamModel: channels {channels!r}: each", c, 1)
        _check_bool("DualStreamModel: dual_stream", dual_stream)
        _check_bool("DualStreamModel: inject_noise", inject_noise)
        self.dual_stream = dual_stream
        self.inject_noise = inject_noise
        self.stage_trained = 0
        ch = tuple(channels)
        self.noisy_enc = _Encoder(ch, seed)
        self.clean_enc = _Encoder(ch, seed) if dual_stream else None
        # dec[k] is level k's decoder conv: it reads level k's skip, below
        # the coarsest level concatenated after level k+1's upsampled
        # output, and writes level k-1's width (c0 at level 0). Its key,
        # fuse[k]'s and the head's are encoder keys too: each of these
        # layers starts from a rescaled prefix of an encoder layer's draws
        self.dec = [Conv2d(ch[lvl] if lvl == 3 else 2 * ch[lvl], ch[max(lvl - 1, 0)],
                           rng=SeededRng(seed, 4 - lvl)) for lvl in range(4)]
        self.head = Conv2d(ch[0], 3, rng=SeededRng(seed, 5))
        # fuse[k] projects the noisy stream into level k's skip; small but
        # nonzero init: the residual detail path is live from the start and
        # grows during training
        self.fuse = [Conv2d(ch[lvl], ch[lvl], k=1, rng=SeededRng(seed, 4 - lvl), init_scale=0.3)
                     for lvl in range(4)] if dual_stream else []

    # -- parameter bookkeeping ------------------------------------------

    def _layer_map(self) -> dict:
        layers = {f"noisy.{name}": layer for name, layer in vars(self.noisy_enc).items()}
        if self.dual_stream:
            layers.update({f"clean.{name}": layer for name, layer in vars(self.clean_enc).items()})
            layers.update({f"fuse{k}": self.fuse[k] for k in _LEVELS})
        layers.update({f"dec{k}": self.dec[k] for k in _LEVELS})
        layers["head"] = self.head
        return layers

    def named_parameters(self) -> dict[str, Tensor]:
        """``{layer}.{attribute}`` -> parameter, for every ``Tensor``
        attribute of every layer, in checkpoint order."""
        return {f"{name}.{attr}": value for name, layer in self._layer_map().items()
                for attr, value in vars(layer).items() if isinstance(value, Tensor)}

    def stage2_trainable_names(self) -> set[str]:
        """Noisy encoder + fusion projections; everything when single-stream."""
        if not self.dual_stream:
            return set(self.named_parameters())
        return {
            name
            for name in self.named_parameters()
            if name.startswith("noisy.") or name.startswith("fuse")
        }

    # -- forward ----------------------------------------------------------

    def forward_t(self, images: Tensor, rng: SeededRng | None = None,
                  zero_noisy_stream: bool = False) -> Tensor:
        """(N,3,H,W) images -> (N,3,H,W) unit normals, or with ``rng`` a
        training pass's raw output.

        With ``rng`` the pass injects noise on the noisy stream's encoder
        output, unless ``inject_noise`` is False: it draws one sigma per
        sample, log-uniform in [``NOISE_SIGMA_LO``, ``NOISE_SIGMA_HI``] and
        shared by the levels, then adds sigma times one standard normal draw
        per level, levels in order 0 -> 3. It returns the raw 3-channel
        output, which the regression loss fits against unit targets;
        without ``rng`` nothing is drawn and the output is normalized per
        pixel. Whether a loss on the normalized output
        trains worse is open: a cosine loss on it trained 600 steps at
        64 x 64 without trouble, to a held-out NE of 7.1-7.5 degrees
        against 7.2-7.3 for this loss. The decoder runs levels 3 -> 0;
        level k's skip is ``clean_k + fuse_k(noisy_k)``, or ``noisy_k`` in
        the single-stream ablation, and below level 3 it is concatenated
        after the upsampled output of level k+1. ``zero_noisy_stream``
        ablates the residual path of the dual-stream model: the noisy
        encoder does not run, no noise is drawn and each fusion layer
        reads zeros (so adds only its bias).
        """
        _check_bool("forward_t: zero_noisy_stream", zero_noisy_stream)
        n, c, h, w = images.shape
        if h % 8 or w % 8:
            raise ValueError(f"image dims must be divisible by 8, got {h}x{w}")
        if zero_noisy_stream and not self.dual_stream:
            raise ValueError("zero_noisy_stream would zero the single-stream model's only stream")
        inject = rng is not None and self.inject_noise and not zero_noisy_stream

        clean_feats = self.clean_enc(images) if self.dual_stream else None
        if zero_noisy_stream:
            noisy_feats = [Tensor(np.zeros(f.shape)) for f in clean_feats]
        else:
            noisy_feats = self.noisy_enc(images)
        if inject:
            lo, hi = np.log(NOISE_SIGMA_LO), np.log(NOISE_SIGMA_HI)
            sigma = np.exp(rng.uniform(lo, hi, (n,)))[:, None, None, None]
            noisy_feats = [f + Tensor(sigma * rng.normal(size=f.shape)) for f in noisy_feats]
        x = None
        for k in _LEVELS:
            skip = noisy_feats[k]
            if clean_feats is not None:
                # fusion enters the skip before the decoder conv, so the
                # (later frozen) decoder processes noisy detail through the
                # same high-sensitivity channels as the clean skips
                skip = clean_feats[k] + self.fuse[k](skip)
            if x is not None:
                skip = concat([upsample_nearest(x), skip], axis=1)
            x = self.dec[k](skip).leaky_relu()
        raw = self.head(x)
        return raw if rng is not None else l2_normalize(raw, axis=1)


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """One training stage's settings; ``log_every`` picks the logged steps
    (every ``log_every``-th step and the last one)."""

    steps: int = 400
    batch_size: int = 4
    lr: float = 3e-4
    weight_decay: float = 1e-2
    log_every: int = 50

    def __post_init__(self):
        for name in ("steps", "batch_size", "log_every"):
            _check_integer(f"TrainConfig.{name}", getattr(self, name), 1)
        _check_real("TrainConfig.lr", self.lr, positive=True)
        _check_real("TrainConfig.weight_decay", self.weight_decay, positive=False)


def _batch_arrays(samples: list[DomainSample], idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    imgs = np.stack([samples[i].image.transpose(2, 0, 1) for i in idx])
    tgts = np.stack([samples[i].normal_gt.vectors.transpose(2, 0, 1) for i in idx])
    masks = np.stack([samples[i].normal_gt.mask for i in idx])
    return imgs, tgts, masks


def _masked_mse(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    m = mask[:, None, :, :].astype(np.float64)
    diff = pred - Tensor(target)
    total = (diff * diff * Tensor(m)).sum()
    denom = 3.0 * float(mask.sum())
    return total * (1.0 / denom)


def _train_loop(model, dataset, seed, trainable: dict[str, Tensor],
                config: TrainConfig, stream_base: int) -> list[dict]:
    steps = config.steps
    rng_batch = SeededRng(seed, stream_base)
    rng_noise = SeededRng(seed, stream_base + 1)
    opt = AdamWState(lr=config.lr, weight_decay=config.weight_decay)
    logs = []
    for step in range(steps):
        idx = rng_batch.integers(0, len(dataset), (config.batch_size,))
        imgs, tgts, masks = _batch_arrays(dataset, idx)
        pred = model.forward_t(Tensor(imgs), rng=rng_noise)
        loss = _masked_mse(pred, tgts, masks)
        val = loss.item()
        if not np.isfinite(val):
            raise FloatingPointError(f"non-finite training loss at step {step}")
        for p in trainable.values():
            p.zero_grad()
        backward(loss)
        adamw_step(trainable, opt)
        if step % config.log_every == 0 or step == steps - 1:
            logs.append({"step": step, "loss": val})
    return logs


def _train_stage(stage: int, model: DualStreamModel, dataset: list[DomainSample], steps: int,
                 seed: int, config: TrainConfig) -> list[dict]:
    """Stage 1 trains every parameter, stage 2 ``stage2_trainable_names``
    with the rest frozen for the call, from random streams ``100 * stage``
    and the next; every check runs before the first step."""
    if config.steps != steps:
        raise ValueError(f"steps={steps} disagrees with config.steps={config.steps}")
    if not dataset:
        raise ValueError("empty dataset")
    domain, label = (Domain.REAL, "real") if stage == 1 else (Domain.SYNTH, "synthetic")
    if any(s.domain is not domain for s in dataset):
        raise ValueError(f"stage {stage} expects {label}-domain samples")
    if stage == 2 and model.stage_trained < 1:
        warnings.warn("stage 2 called before stage 1; fine-tuning an untrained clean stream")
    params = model.named_parameters()
    trainable = params if stage == 1 else {k: params[k] for k in sorted(model.stage2_trainable_names())}
    frozen = sorted(set(params) - set(trainable))
    # dropping requires_grad takes the clean stream out of the graph and
    # skips weight-gradient work for the frozen decoder
    for name in frozen:
        params[name].requires_grad = False
    try:
        logs = _train_loop(model, dataset, seed, trainable, config, 100 * stage)
    finally:
        for name in frozen:
            params[name].requires_grad = True
    model.stage_trained = max(model.stage_trained, stage)
    return logs


def train_stage1(model: DualStreamModel, real_dataset: list[DomainSample], steps: int,
                 seed: int, config: TrainConfig) -> list[dict]:
    """Both streams and the decoder, on real-domain (noisy-label) data."""
    return _train_stage(1, model, real_dataset, steps, seed, config)


def train_stage2(model: DualStreamModel, synth_dataset: list[DomainSample], steps: int,
                 seed: int, config: TrainConfig) -> list[dict]:
    """Noisy stream + fusion only, on synthetic (exact-label) data."""
    return _train_stage(2, model, synth_dataset, steps, seed, config)


def predict_batch(model: DualStreamModel, samples: list[DomainSample]) -> list[NormalMap]:
    """Noise-free predictions for ``samples``, ``_PREDICT_CHUNK`` images per forward pass.

    Every op of the forward pass works per sample (conv2d runs one matrix
    product per sample and tap, group norm normalizes within a sample), so
    the predictions are bit-identical at any chunk size; it only sets
    speed. conv2d already blocks its tap loops by sample to stay in a
    2 MiB L2 cache, so the chunk matters for the whole-tensor ops (group
    norm, leaky ReLU, concat, upsampling). At 2 images an 8-channel
    float64 tensor at 64x64 is 512 KiB, so such an op's input and output
    fit in L2 together; at 4 they fill it, and at 1 every op's Python
    overhead is paid twice as often.
    """
    out = []
    with no_grad():
        for start in range(0, len(samples), _PREDICT_CHUNK):
            chunk = samples[start : start + _PREDICT_CHUNK]
            imgs = np.stack([s.image.transpose(2, 0, 1) for s in chunk])
            pred = model.forward_t(Tensor(imgs))
            for k, s in enumerate(chunk):
                vec = pred.data[k].transpose(1, 2, 0).copy()
                vec[~s.normal_gt.mask] = SENTINEL_NORMAL
                if not np.isfinite(vec).all():
                    raise ValueError(f"predict_batch: the model output for sample {start + k} is non-finite")
                out.append(NormalMap(vec, s.normal_gt.mask))
    return out


def evaluate_model(model: DualStreamModel, samples: list[DomainSample]) -> dict:
    """Mean NE / SNE of model predictions: ``metrics.multiview_report`` with
    one view per sample and SNE radius ``_SNE_RADIUS``; no samples raises.

    Ground truth is recomputed from each sample's heightfield, so the
    benchmark stays exact even for real-domain samples whose stored
    training labels are deliberately corrupted.
    """
    preds = predict_batch(model, samples)
    gts = [toydata.heightfield_normals(s.height_gt) for s in samples]
    report = metrics.multiview_report(preds, gts, radius=_SNE_RADIUS)
    return {"ne_deg": report.ne_deg, "sne_deg": report.sne_deg}

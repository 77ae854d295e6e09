"""Minimal reverse-mode autodiff, layers, optimizer and checkpointing."""

from .checkpoint import load_checkpoint, load_into, save_checkpoint
from .nn import Conv2d, GroupNorm, group_norm, l2_normalize
from .optim import AdamWState, adamw_step
from .rng import SeededRng
from .tensor import Tensor, backward, concat, conv2d, no_grad, upsample_nearest

__all__ = [
    "Tensor", "backward", "no_grad",
    "concat", "conv2d", "upsample_nearest",
    "Conv2d", "GroupNorm", "group_norm", "l2_normalize",
    "AdamWState", "adamw_step",
    "SeededRng",
    "save_checkpoint", "load_checkpoint", "load_into",
]

"""AdamW with decoupled weight decay.

The learning rate and the weight decay are required settings of
``AdamWState`` (training passes ``TrainConfig``'s); the betas and eps are
the module constants ``BETA1``, ``BETA2`` and ``EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = ["AdamWState", "adamw_step"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWState:
    lr: float
    weight_decay: float
    step_count: int = field(default=0, init=False)
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)


def adamw_step(params: dict[str, Tensor], state: AdamWState) -> AdamWState:
    """One in-place AdamW update over named parameters, from each one's ``.grad``.

    Weight decay is decoupled (applied directly to the weights, not the
    moment estimates). Every gradient is checked before anything is updated: a
    missing or non-finite one raises, naming the parameter, and leaves
    the parameters, the moments and ``step_count`` as they were.
    """
    checked = {}
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        g = np.asarray(g, dtype=np.float64)
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        checked[name] = g

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = checked[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        if state.weight_decay:
            p.data -= state.lr * state.weight_decay * p.data
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return state

"""Small layer zoo on top of the autodiff core.

Layers own named parameter tensors; models assemble them and expose a
flat ``named_parameters`` dict with stable, checkpoint-friendly names.
"""

from __future__ import annotations

import numpy as np

from .rng import SeededRng
from .tensor import Tensor, _check_slope, _leaky_relu_grad, conv2d

__all__ = ["Conv2d", "GroupNorm", "group_norm", "collect_params", "l2_normalize"]

GROUP_NORM_EPS = 1e-5


class Conv2d:
    """Convolution padded by ``k // 2``; He-normal init from ``rng``, scaled by ``init_scale``."""

    def __init__(self, c_in: int, c_out: int, k: int = 3, stride: int = 1, *,
                 rng: SeededRng, init_scale: float = 1.0):
        self.stride = stride
        self.padding = k // 2
        std = init_scale * np.sqrt(2.0 / (c_in * k * k))
        self.weight = Tensor(rng.normal((c_out, c_in, k, k), scale=std), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


def group_norm(x: Tensor, num_groups: int, gamma: Tensor, beta: Tensor,
               slope: float | None = None) -> Tensor:
    """Group normalization over [N,C,H,W], one graph node, with an
    optional LeakyReLU folded in.

    Each sample's channels split into ``num_groups`` groups of ``m``
    values; a group is normalized to ``x_hat = (x - mean) / std`` with
    ``std = sqrt(var + GROUP_NORM_EPS)`` (biased variance), then scaled
    and shifted per channel: ``y = x_hat * gamma + beta``.

    Backward is the closed form (Wu & He, "Group Normalization", ECCV
    2018). With ``dn = dy * gamma`` and means taken over each group,
    ``dx = (dn - mean(dn) - x_hat * mean(dn * x_hat)) / std``;
    ``dgamma = sum(dy * x_hat)`` and ``dbeta = sum(dy)`` over the batch
    and the pixels.

    With a ``slope`` the node also applies ``Tensor.leaky_relu(slope)``
    in place on ``y``, so a norm and its activation are one node.
    Backward then takes ``dy`` as the output gradient times the
    activation's derivative, ``fmax(sign(out), slope)``, read from the
    activated output. Output and gradients have the bits of
    ``group_norm(x, num_groups, gamma, beta).leaky_relu(slope)``.
    """
    n, c, h, w = x.shape
    if c % num_groups:
        raise ValueError(f"channels {c} not divisible by {num_groups} groups")
    if slope is not None:
        _check_slope(slope)
    m = (c // num_groups) * h * w
    g = x.data.reshape(n, num_groups, m)
    mu = g.sum(axis=2, keepdims=True) * (1.0 / m)
    xhat = g - mu
    var = (xhat * xhat).sum(axis=2, keepdims=True) * (1.0 / m)
    std = np.sqrt(var + GROUP_NORM_EPS)
    xhat /= std
    xhat4 = xhat.reshape(n, c, h, w)
    gamma4 = gamma.data.reshape(1, c, 1, 1)
    data = xhat4 * gamma4
    data += beta.data.reshape(1, c, 1, 1)
    if slope is not None:
        np.maximum(data, data * slope, out=data)
    out = Tensor._result(data, (x, gamma, beta), "group_norm")

    def bwd():
        dy = out.grad if slope is None else _leaky_relu_grad(out.grad, out.data, slope)
        if gamma.requires_grad or gamma._parents:
            gamma._accumulate(Tensor._unbroadcast(dy * xhat4, (1, c, 1, 1)).reshape(c))
        if beta.requires_grad or beta._parents:
            beta._accumulate(Tensor._unbroadcast(dy, (1, c, 1, 1)).reshape(c))
        if x.requires_grad or x._parents:
            dn = (dy * gamma4).reshape(n, num_groups, m)
            mean_dn = dn.sum(axis=2, keepdims=True) * (1.0 / m)
            mean_dnx = (dn * xhat).sum(axis=2, keepdims=True) * (1.0 / m)
            dn -= mean_dn
            dn -= xhat * mean_dnx
            dn /= std
            x._accumulate(dn.reshape(n, c, h, w))

    out._set_backward(bwd)
    return out


class GroupNorm:
    """Group normalization with one group (over a sample's whole [C,H,W]),
    followed by a LeakyReLU of ``slope`` in the same graph node."""

    def __init__(self, num_channels: int):
        self.gamma = Tensor(np.ones(num_channels), requires_grad=True)
        self.beta = Tensor(np.zeros(num_channels), requires_grad=True)

    def __call__(self, x: Tensor, slope: float) -> Tensor:
        return group_norm(x, 1, self.gamma, self.beta, slope)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


def collect_params(layers: dict[str, object]) -> dict[str, Tensor]:
    """Flatten ``{name: layer}`` into ``{dotted.name: Tensor}``, order-stable."""
    out: dict[str, Tensor] = {}
    for name, layer in layers.items():
        if isinstance(layer, Tensor):
            out[name] = layer
        else:
            out.update(layer.params(name))
    return out


def l2_normalize(x: Tensor, axis: int, eps: float = 1e-12) -> Tensor:
    """Unit-normalize along ``axis`` (safe at zero via ``eps``)."""
    sq = (x * x).sum(axis=axis, keepdims=True)
    return x / (sq + eps).sqrt()

"""Small layer zoo on top of the autodiff core.

A layer holds its parameters as ``Tensor`` attributes and nothing else
of that type; a model names each parameter ``{layer}.{attribute}``, in
the order the layer assigned them, for stable, checkpoint-friendly
names.
"""

from __future__ import annotations

import numpy as np

from .rng import SeededRng
from .tensor import LEAKY_SLOPE, Tensor, _leaky_relu_grad, conv2d

__all__ = ["Conv2d", "GroupNorm", "group_norm", "l2_normalize"]

GROUP_NORM_EPS = 1e-5


class Conv2d:
    """Convolution padded by ``k // 2``; He-normal init from ``rng``, scaled by ``init_scale``."""

    def __init__(self, c_in: int, c_out: int, k: int = 3, stride: int = 1, *,
                 rng: SeededRng, init_scale: float = 1.0):
        self.stride = stride
        self.padding = k // 2
        std = init_scale * np.sqrt(2.0 / (c_in * k * k))
        self.weight = Tensor(rng.normal(0.0, std, (c_out, c_in, k, k)), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Group normalization of [N,C,H,W] with one group, followed by
    ``Tensor.leaky_relu``, as one graph node.

    Each sample's ``m = C*H*W`` values are normalized to ``x_hat = (x -
    mean) / std`` with ``std = sqrt(var + GROUP_NORM_EPS)`` (biased
    variance), then scaled and shifted per channel, ``y = x_hat * gamma
    + beta``, and activated in place: ``out = max(y, LEAKY_SLOPE * y)``.

    Backward is the closed form (Wu & He, "Group Normalization", ECCV
    2018). With ``dy`` the output gradient times the activation's
    derivative, ``fmax(sign(out), LEAKY_SLOPE)`` read from the output,
    ``dn = dy * gamma`` and means taken over each sample, ``dx = (dn -
    mean(dn) - x_hat * mean(dn * x_hat)) / std``; ``dgamma = sum(dy *
    x_hat)`` and ``dbeta = sum(dy)`` over the batch and the pixels.
    """
    n, c, h, w = x.shape
    m = c * h * w
    g = x.data.reshape(n, m)
    mu = g.sum(axis=1, keepdims=True) * (1.0 / m)
    xhat = g - mu
    var = (xhat * xhat).sum(axis=1, keepdims=True) * (1.0 / m)
    std = np.sqrt(var + GROUP_NORM_EPS)
    xhat /= std
    xhat4 = xhat.reshape(n, c, h, w)
    gamma4 = gamma.data.reshape(1, c, 1, 1)
    data = xhat4 * gamma4
    data += beta.data.reshape(1, c, 1, 1)
    np.maximum(data, data * LEAKY_SLOPE, out=data)
    out = Tensor._result(data, (x, gamma, beta), "group_norm")

    def bwd():
        dy = _leaky_relu_grad(out.grad, out.data)
        if gamma.requires_grad or gamma._parents:
            gamma._accumulate(Tensor._unbroadcast(dy * xhat4, (1, c, 1, 1)).reshape(c))
        if beta.requires_grad or beta._parents:
            beta._accumulate(Tensor._unbroadcast(dy, (1, c, 1, 1)).reshape(c))
        if x.requires_grad or x._parents:
            dn = (dy * gamma4).reshape(n, m)
            mean_dn = dn.sum(axis=1, keepdims=True) * (1.0 / m)
            mean_dnx = (dn * xhat).sum(axis=1, keepdims=True) * (1.0 / m)
            dn -= mean_dn
            dn -= xhat * mean_dnx
            dn /= std
            x._accumulate(dn.reshape(n, c, h, w))

    out._set_backward(bwd)
    return out


class GroupNorm:
    """Group normalization with one group (over a sample's whole [C,H,W]),
    followed by a LeakyReLU in the same graph node."""

    def __init__(self, num_channels: int):
        self.gamma = Tensor(np.ones(num_channels), requires_grad=True)
        self.beta = Tensor(np.zeros(num_channels), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return group_norm(x, self.gamma, self.beta)


def l2_normalize(x: Tensor, axis: int, eps: float = 1e-12) -> Tensor:
    """Unit-normalize along ``axis`` (safe at zero via ``eps``)."""
    sq = (x * x).sum(axis=axis, keepdims=True)
    return x / (sq + eps).sqrt()

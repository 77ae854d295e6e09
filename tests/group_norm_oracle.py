"""Group normalization composed of autodiff primitives.

This is the composed form ``nn.group_norm`` had before it became one
graph node, kept verbatim: mean, centring, biased variance, division by
``sqrt(var + eps)``, then the per-channel affine, each a graph node.
A mean is written out as a sum times ``1 / m``, the two nodes the
removed ``Tensor.mean`` built, so the graph and its bits are unchanged.
Its forward expressions are the ones the single node evaluates, in the
same order, so outputs must agree bit for bit; its gradients come from
the primitives' backward closures, independent of the closed form.
"""


def group_norm_composed(x, num_groups, gamma, beta, eps=1e-5):
    """Group normalization over [N,C,H,W], composed from primitives."""
    n, c, h, w = x.shape
    if c % num_groups:
        raise ValueError(f"channels {c} not divisible by {num_groups} groups")
    m = (c // num_groups) * h * w
    g = x.reshape(n, num_groups, m)
    mu = g.sum(axis=2, keepdims=True) * (1.0 / m)
    centered = g - mu
    var = (centered * centered).sum(axis=2, keepdims=True) * (1.0 / m)
    normed = centered / (var + eps).sqrt()
    normed = normed.reshape(n, c, h, w)
    return normed * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)

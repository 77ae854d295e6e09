"""Randomized gradient-check cases shared by unit tests and acceptance.

Each case builder returns ``(fn, arrays)`` where ``fn`` maps Tensors to a
scalar Tensor loss. The same forward is differentiated analytically
(backward pass) and numerically (central differences); inputs are drawn
away from kinks (leaky relu) and domain edges (sqrt, div).
"""

import numpy as np

from normalbridge import tensorcore as tc
from fdcheck import central_fd_grads, max_rel_err
from group_norm_oracle import group_norm_composed


def _away_from(rng, shape, lo=-2.0, hi=2.0, keepout=0.05):
    x = rng.uniform(lo, hi, shape)
    x = np.where(np.abs(x) < keepout, x + np.sign(x + 1e-12) * 2 * keepout, x)
    return x


def _proj(rng, shape):
    w = rng.uniform(-1.0, 1.0, shape)
    return lambda t: (t * tc.Tensor(w)).sum()


def _rand_shape(rng, max_rank=4, max_extent=5):
    rank = int(rng.integers(1, max_rank + 1))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(rank))


def case_add(rng):
    shape = _rand_shape(rng)
    a = rng.normal(size=shape)
    b = rng.normal(size=shape)
    p = _proj(rng, shape)
    return lambda ta, tb: p(ta + tb), [a, b]


def case_mul_broadcast(rng):
    a = rng.normal(size=(3, 4, 2))
    b = rng.normal(size=(4, 1))
    p = _proj(rng, (3, 4, 2))
    return lambda ta, tb: p(ta * tb), [a, b]


def case_div(rng):
    a = rng.normal(size=(2, 5))
    b = _away_from(rng, (2, 5), keepout=0.5)
    p = _proj(rng, (2, 5))
    return lambda ta, tb: p(ta / tb), [a, b]


def case_sqrt(rng):
    a = rng.uniform(0.3, 3.0, (5,))
    p = _proj(rng, (5,))
    return lambda ta: p(ta.sqrt()), [a]


def case_leaky_relu(rng):
    a = _away_from(rng, (2, 3, 2))
    p = _proj(rng, (2, 3, 2))
    return lambda ta: p(ta.leaky_relu()), [a]


def case_sum_axis(rng):
    a = rng.normal(size=(3, 4, 2))
    axis = int(rng.integers(0, 3))
    keep = bool(rng.integers(0, 2))

    def fn(ta):
        # the drawn axis, a negative axis and a tuple of axes without keepdims
        s, t, u = ta.sum(axis=axis, keepdims=keep), ta.sum(axis=-2), ta.sum(axis=(2, -3))
        return (s * s).sum() + (t * t).sum() + (u * u).sum()

    return fn, [a]


def case_reshape(rng):
    a = rng.normal(size=(2, 3, 4))
    p = _proj(rng, (4, 6))
    return lambda ta: p(ta.reshape(4, 6)), [a]


def case_concat(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 1))
    p = _proj(rng, (2, 5))
    q = _proj(rng, (2, 6))
    # two inputs along axis 1, then three along axis -1
    return lambda x, y, z: p(tc.concat([x, y], axis=1)) + q(tc.concat([z, x, y], axis=-1)), [a, b, c]


def case_conv2d(rng):
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(2, 2, 3, 3)) * 0.5
    b = rng.normal(size=(2,))
    p = _proj(rng, (1, 2, 5, 5))
    return lambda tx, tw, tb: p(tc.conv2d(tx, tw, tb, stride=1, padding=1)), [x, w, b]


def case_conv2d_stride(rng):
    x = rng.normal(size=(2, 1, 6, 6))
    w = rng.normal(size=(3, 1, 3, 3)) * 0.5
    p = _proj(rng, (2, 3, 2, 2))
    b = tc.Tensor(np.zeros(3))  # a constant bias: the fd case checks x and w
    return lambda tx, tw: p(tc.conv2d(tx, tw, b, stride=2, padding=0)), [x, w]


def case_conv2d_stride2_pad1_odd(rng):
    x = rng.normal(size=(2, 2, 7, 5))
    w = rng.normal(size=(3, 2, 3, 3)) * 0.5
    b = rng.normal(size=(3,))
    p = _proj(rng, (2, 3, 4, 3))
    return lambda tx, tw, tb: p(tc.conv2d(tx, tw, tb, stride=2, padding=1)), [x, w, b]


def case_conv2d_nonsquare_kernel(rng):
    x = rng.normal(size=(2, 2, 5, 6))
    w = rng.normal(size=(3, 2, 2, 3)) * 0.5
    b = rng.normal(size=(3,))
    p = _proj(rng, (2, 3, 6, 6))
    return lambda tx, tw, tb: p(tc.conv2d(tx, tw, tb, stride=1, padding=1)), [x, w, b]


def case_upsample(rng):
    x = rng.normal(size=(1, 2, 3, 3))
    p = _proj(rng, (1, 2, 6, 6))
    return lambda tx: p(tc.upsample_nearest(tx)), [x]


def _group_norm_case(rng, shape):
    # redrawn until no normalized value sits within 0.01 of the kink of
    # the activation that the node applies
    while True:
        x = rng.normal(size=shape)
        gamma = rng.uniform(0.5, 1.5, (shape[1],))
        beta = rng.normal(size=(shape[1],))
        y = group_norm_composed(tc.Tensor(x), 1, tc.Tensor(gamma), tc.Tensor(beta)).data
        if np.abs(y).min() > 0.01:
            break
    p = _proj(rng, shape)
    return lambda tx, tg, tb: p(tc.group_norm(tx, tg, tb)), [x, gamma, beta]


def case_group_norm(rng):
    return _group_norm_case(rng, (2, 4, 3, 3))


def case_group_norm_leaky_relu(rng):
    # the same fused node on a smaller field: 16 values per sample, so the
    # mean and variance terms weigh more in its gradient
    return _group_norm_case(rng, (2, 4, 2, 2))


def case_l2_normalize(rng):
    x = _away_from(rng, (3, 3, 3), keepout=0.2)
    p = _proj(rng, (3, 3, 3))
    return lambda tx: p(tc.l2_normalize(tx, axis=2)), [x]


def case_composite_conv_relu_mse(rng):
    x = rng.normal(size=(1, 1, 6, 6))
    w = rng.normal(size=(2, 1, 3, 3)) * 0.5
    b = rng.normal(size=(2,))
    tgt = rng.normal(size=(1, 2, 6, 6))

    def fn(tx, tw, tb):
        diff = tc.conv2d(tx, tw, tb, padding=1).leaky_relu() - tc.Tensor(tgt)
        return (diff * diff).sum() * (1.0 / diff.size)

    return fn, [x, w, b]


CASES = [
    ("add", case_add),
    ("mul_broadcast", case_mul_broadcast),
    ("div", case_div),
    ("sqrt", case_sqrt),
    ("leaky_relu", case_leaky_relu),
    ("sum_axis", case_sum_axis),
    ("reshape", case_reshape),
    ("concat", case_concat),
    ("conv2d", case_conv2d),
    ("conv2d_stride", case_conv2d_stride),
    ("conv2d_stride2_pad1_odd", case_conv2d_stride2_pad1_odd),
    ("conv2d_nonsquare_kernel", case_conv2d_nonsquare_kernel),
    ("upsample_nearest", case_upsample),
    ("group_norm", case_group_norm),
    ("group_norm_leaky_relu", case_group_norm_leaky_relu),
    ("l2_normalize", case_l2_normalize),
    ("composite_conv_relu_mse", case_composite_conv_relu_mse),
]


def run_case(builder, rng, h=1e-5):
    """Return max relative error between analytic and FD gradients."""
    fn, arrays = builder(rng)
    tensors = [tc.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = fn(*tensors)
    tc.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def eval_np(*arrs):
        return fn(*[tc.Tensor(a) for a in arrs]).item()

    numeric = central_fd_grads(eval_np, [a.copy() for a in arrays], h=h)
    return max(max_rel_err(a, n) for a, n in zip(analytic, numeric))

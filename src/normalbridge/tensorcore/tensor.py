"""Reverse-mode automatic differentiation over dense float64 arrays.

Every op records its parents and a backward closure on the produced
tensor; ``backward()`` orders the graph topologically, parents first,
seeds the scalar loss with gradient 1 and walks that order in reverse,
running each node's closure exactly once.

Graph lifetime. A result gets a backward closure only when it is
tracked (it has parents, so gradients can flow through it); ``no_grad``
results and results of constants carry none. A closure reads its output
tensor's ``grad``, so a tracked node and its closure form a reference
cycle; ``backward()`` breaks it by dropping each interior node's closure
and ``grad`` as soon as the closure has run, and only leaves keep
``grad``. Graphs are therefore freed by reference counting, without
waiting for the cyclic garbage collector. A graph can be walked once: a
second ``backward`` through an already walked node raises.

Gradient ownership. A gradient handed to a tensor is stored as passed,
without a copy, and a stored gradient is never mutated in place: a
later one is combined out of place (``grad = grad + new``). Backward
closures may therefore hand one array, or views of their output's
gradient, to several parents. A leaf's ``grad`` may share its buffer
with another tensor's or be a read-only view; copy it before writing
into it.

Buffers shared with inputs. An op may keep a view of an input's
``data`` instead of a copy (``conv2d`` keeps a width-one kernel's input
as its phase image), and the output of ``nn.group_norm`` is activated in
place before it becomes a tensor. Op inputs are never written, so a
tensor's ``data`` must not be changed while a graph that reads it is
alive.

Conventions fixed here once and relied on by tests:
  * all buffers are float64,
  * ``conv2d`` computes cross-correlation (no kernel flip),
  * ``leaky_relu`` has the one slope ``LEAKY_SLOPE`` and is
    ``max(x, LEAKY_SLOPE * x)``, the bits of ``np.where(x > 0, x,
    LEAKY_SLOPE * x)``; its derivative is read back from the output, so
    no mask is stored,
  * broadcasting follows numpy; gradients are summed back to the
    un-broadcast shape.
"""

from __future__ import annotations

import contextvars
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "backward",
    "concat",
    "conv2d",
    "upsample_nearest",
]

# negative-side slope of every LeakyReLU. Only for 0 < slope < 1 does
# max(x, slope * x) have the bits of np.where(x > 0, x, slope * x) on every
# float64 (signed zeros, subnormals, infinities and NaN included), with
# out > 0 exactly where x > 0: a negative slope differs at -0.0 and makes
# out positive where x < 0, and a slope above 1 picks the other branch
LEAKY_SLOPE = 0.1

# per thread (and per asyncio task): a no_grad block in one does not stop
# graph recording in another
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


class no_grad:
    """Context manager that suspends graph recording (inference mode)."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)


class Tensor:
    """A float64 n-d array with an optional gradient slot.

    Parameters
    ----------
    data : array-like
        Converted to a float64 ndarray.
    requires_grad : bool
        Leaf tensors with True accumulate gradients during backward.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[], None]] = None
        self._op = "leaf"

    # -- construction of op results -------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"], op: str) -> "Tensor":
        track = _grad_enabled.get() and any(p.requires_grad or p._parents for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._parents = tuple(parents) if track else ()
        out._backward_fn = None
        out._op = op
        return out

    def _set_backward(self, fn: Callable[[], None]) -> None:
        """Attach ``fn`` to a tracked result; an untracked one never runs it."""
        if self._parents:
            self._backward_fn = fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"

    # -- gradient plumbing ----------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if not (self.requires_grad or self._parents):
            return  # constant leaf: gradient is never consumed
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    @staticmethod
    def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Sum a broadcast gradient back down to ``shape``."""
        while grad.ndim > len(shape):
            grad = grad.sum(axis=0)
        for axis, (g, s) in enumerate(zip(grad.shape, shape)):
            if s == 1 and g != 1:
                grad = grad.sum(axis=axis, keepdims=True)
        return grad.reshape(shape)

    # -- elementwise arithmetic -----------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = Tensor._coerce(other)
        out = Tensor._result(self.data + other.data, (self, other), "add")

        def bwd():
            self._accumulate(Tensor._unbroadcast(out.grad, self.shape))
            other._accumulate(Tensor._unbroadcast(out.grad, other.shape))

        out._set_backward(bwd)
        return out

    def __sub__(self, other):
        other = Tensor._coerce(other)
        out = Tensor._result(self.data - other.data, (self, other), "sub")

        def bwd():
            self._accumulate(Tensor._unbroadcast(out.grad, self.shape))
            other._accumulate(Tensor._unbroadcast(-out.grad, other.shape))

        out._set_backward(bwd)
        return out

    def __mul__(self, other):
        other = Tensor._coerce(other)
        out = Tensor._result(self.data * other.data, (self, other), "mul")

        def bwd():
            self._accumulate(Tensor._unbroadcast(out.grad * other.data, self.shape))
            other._accumulate(Tensor._unbroadcast(out.grad * self.data, other.shape))

        out._set_backward(bwd)
        return out

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        out = Tensor._result(self.data / other.data, (self, other), "div")

        def bwd():
            self._accumulate(Tensor._unbroadcast(out.grad / other.data, self.shape))
            other._accumulate(
                Tensor._unbroadcast(-out.grad * self.data / (other.data * other.data), other.shape)
            )

        out._set_backward(bwd)
        return out

    # -- elementwise functions ------------------------------------------

    def sqrt(self):
        out = Tensor._result(np.sqrt(self.data), (self,), "sqrt")
        out._set_backward(lambda: self._accumulate(out.grad * 0.5 / out.data))
        return out

    def leaky_relu(self):
        """``max(x, LEAKY_SLOPE * x)``, the bits of ``np.where(x > 0, x,
        LEAKY_SLOPE * x)`` on every float64 (signed zeros, subnormals,
        infinities and NaN included).

        Backward multiplies the gradient by ``fmax(sign(out),
        LEAKY_SLOPE)``, the bits of ``np.where(x > 0, 1, LEAKY_SLOPE)``,
        read from the output; nothing else is stored.
        """
        data = self.data * LEAKY_SLOPE
        np.maximum(self.data, data, out=data)
        out = Tensor._result(data, (self,), "leaky_relu")
        out._set_backward(lambda: self._accumulate(_leaky_relu_grad(out.grad, out.data)))
        return out

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")

        def bwd():
            g = out.grad if keepdims or axis is None else np.expand_dims(out.grad, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        out._set_backward(bwd)
        return out

    # -- shape manipulation ----------------------------------------------

    def reshape(self, *shape):
        out = Tensor._result(self.data.reshape(shape), (self,), "reshape")
        out._set_backward(lambda: self._accumulate(out.grad.reshape(self.shape)))
        return out


# -- LeakyReLU ------------------------------------------------------------


def _leaky_relu_grad(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``grad`` times the LeakyReLU derivative, read from the output ``out``.

    ``fmax(sign(out), LEAKY_SLOPE)`` is 1 where ``out > 0`` and
    ``LEAKY_SLOPE`` elsewhere, NaN and both zeros included, so no mask or
    factor is kept from the forward pass; ``out > 0`` exactly where the
    input was.
    """
    factor = np.sign(out)
    np.fmax(factor, LEAKY_SLOPE, out=factor)
    return np.multiply(grad, factor, out=factor)


# -- multi-input / structured ops ------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; the gradient splits back per input."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor._result(data, tensors, "concat")

    def bwd():
        ends = np.cumsum([t.shape[axis] for t in tensors])
        for t, g in zip(tensors, np.split(out.grad, ends[:-1], axis=axis)):
            t._accumulate(g)

    out._set_backward(bwd)
    return out


# conv2d runs its tap loops over blocks of whole samples whose phase
# images, accumulator and product fit in this many bytes: half of a 2 MiB
# per-core L2 cache, so a block stays cached across the kh * kw taps
_BLOCK_BYTES = 1 << 20


def _phase_blocks(h: int, w: int, stride: int, padding: int):
    """Where each input pixel sits in the phase grid of a strided, padded conv.

    Padded pixel ``(r, c)`` goes to phase ``(r % stride, c % stride)`` at
    ``(r // stride, c // stride)``. Yields, per phase, the index into a
    ``(N, stride, stride, C, HQ, WQ)`` grid and the index into the
    ``(N, C, H, W)`` input of the block of real (non-padding) pixels;
    every input pixel lands in exactly one block.
    """
    def span(a, extent):
        first = -((a - padding) // stride)  # ceil((padding - a) / stride), >= 0 as a < stride
        src = first * stride + a - padding
        count = len(range(src, extent, stride))
        return slice(first, first + count), slice(src, extent, stride)

    for a in range(stride):
        rows_q, rows_x = span(a, h)
        for b in range(stride):
            cols_q, cols_x = span(b, w)
            yield (slice(None), a, b, Ellipsis, rows_q, cols_q), (Ellipsis, rows_x, cols_x)


def conv2d(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation of ``x`` [N,C,H,W] with ``kernel`` [K,C,kh,kw],
    plus ``bias`` [K].

    Differentiable w.r.t. input, kernel and bias. The kernel is applied
    as stored (cross-correlation); tests pin that definition against a
    nested-loop oracle.

    Shifted-slice scheme, one path for every stride, padding and kernel
    size. The zero-padded input is split into ``stride x stride`` phase
    images (one when the stride is 1), each flattened per (sample,
    channel) into rows of width ``wq = ceil((W + 2*padding) / stride)``
    with a short zero tail. Kernel tap ``(i, j)`` then reads one
    contiguous slice of phase ``(i % stride, j % stride)`` starting at
    ``(i // stride) * wq + j // stride``, so the output is a sum of
    ``kh * kw`` matrix products ``kernel[:, :, i, j] @ slice`` over
    ``(N, K, OH * wq)``, of which the last ``wq - OW`` columns of each row
    are dropped. Backward runs the same slices the other way: the kernel
    gradient of a tap is ``grad @ slice.T`` summed over the batch, and
    ``kernel[:, :, i, j].T @ grad`` adds into the phase-image gradient,
    which is mapped back onto the input.

    Sample blocks. The tap loops (forward, kernel gradient and input
    gradient) run over blocks of whole samples, as many as keep one
    block's phase images, ``(K, OH * wq)`` accumulator and product within
    ``_BLOCK_BYTES``, so each block is read from cache by every tap
    instead of streaming the whole batch from memory ``kh * kw`` times.
    Every matrix product is still one per sample with the same shape,
    and the kernel gradient is still the per-sample products summed over
    the batch axis, so the results do not depend on the block size.

    In place. At stride 1 and padding 0 with a kernel one column wide
    (``kw == 1``, such as a 1x1 projection) the padded grid is the input
    and no tap runs past it, so a C-ordered input is read as the phase
    image without a copy and the input gradient is accumulated straight
    into ``dx``. Accumulator rows are then as wide as output rows
    (``wq == OW``), so the taps add into the output, and backward reads
    the output gradient as the tap operand without padding it (a view when
    each sample's gradient is one C-ordered block, else numpy's reshape
    copies it). None of this changes a bit: the matrix products and the
    order of the additions are the same.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(f"conv2d expects 4-d input/kernel, got {x.shape} and {kernel.shape}")
    n, c, h, w = x.shape
    k, ck, kh, kw = kernel.shape
    if ck != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, kernel expects {ck}")
    if bias.shape != (k,):
        raise ValueError(f"conv2d: bias must have shape ({k},), got {bias.shape}")
    # inline, as maps._check_integer is not importable here (maps imports tensorcore)
    for name, value, low in (("stride", stride, 1), ("padding", padding, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"conv2d: {name} must be an integer >= {low}, got {value!r}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError(
            f"conv2d spatial dims too small: input {h}x{w}, pad {padding}, kernel {kh}x{kw}"
        )
    s = stride
    oh = (h + 2 * padding - kh) // s + 1
    ow = (w + 2 * padding - kw) // s + 1
    hq = -(-(h + 2 * padding) // s)
    wq = -(-(w + 2 * padding) // s)
    span = oh * wq
    # the last tap's slice runs at most (kw - 1) // s columns past the grid
    lq = hq * wq + (kw - 1) // s
    # stride 1, no padding and one kernel column: the padded grid is the
    # input itself and no tap runs past it, so the input is the phase
    # image, and accumulator rows are output rows (wq == ow)
    in_place = s == 1 and padding == 0 and kw == 1
    if in_place:
        phases = np.ascontiguousarray(x.data).reshape(n, 1, 1, c, lq)
    else:
        blocks = list(_phase_blocks(h, w, s, padding))
        phases = np.zeros((n, s, s, c, lq))
        grid = phases[..., : hq * wq].reshape(n, s, s, c, hq, wq)
    taps = [(i, j, i % s, j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    wtaps = kernel.data.transpose(2, 3, 0, 1).copy()  # (kh, kw, K, C)
    nb = min(n, max(1, _BLOCK_BYTES // (8 * (s * s * c * lq + 2 * k * span))))
    samples = [slice(n0, min(n0 + nb, n)) for n0 in range(0, n, nb)]

    out_data = np.empty((n, k, oh, ow))
    tmp = np.empty((nb, k, span))
    acc = None if in_place else np.empty_like(tmp)
    for blk in samples:
        m = blk.stop - blk.start
        if not in_place:
            for at_q, at_x in blocks:
                grid[blk][at_q] = x.data[blk][at_x]
        acc_b = out_data[blk].reshape(m, k, span) if in_place else acc[:m]
        tmp_b = tmp[:m]
        for t, (i, j, a, b, off) in enumerate(taps):
            sl = phases[blk, a, b, :, off : off + span]
            if t == 0:
                np.matmul(wtaps[i, j], sl, out=acc_b)
            else:
                acc_b += np.matmul(wtaps[i, j], sl, out=tmp_b)
        if in_place:
            out_data[blk] += bias.data.reshape(1, k, 1, 1)
        else:
            res = acc_b.reshape(m, k, oh, wq)[..., :ow]
            np.add(res, bias.data.reshape(1, k, 1, 1), out=out_data[blk])

    out = Tensor._result(out_data, (x, kernel, bias), "conv2d")

    def bwd():
        want_w = kernel.requires_grad or kernel._parents
        want_x = x.requires_grad or x._parents
        gpad = None if in_place else np.zeros((nb, k, oh, wq))
        if want_w:
            prods = np.empty((len(taps), n, k, c))
        if want_x:
            wtaps_t = wtaps.transpose(0, 1, 3, 2).copy()  # (kh, kw, C, K)
            dx = np.empty((n, c, h, w))
            if in_place:
                dphases = dx.reshape(n, 1, 1, c, lq)
            else:
                dphases = np.empty((nb, s, s, c, lq))
                dgrid = dphases[..., : hq * wq].reshape(nb, s, s, c, hq, wq)
            dtmp = np.empty((nb, c, span))
        for blk in samples:
            m = blk.stop - blk.start
            if in_place:
                g = out.grad[blk].reshape(m, k, span)
            else:
                gpad[:m, ..., :ow] = out.grad[blk]
                g = gpad[:m].reshape(m, k, span)
            if want_w:
                for t, (i, j, a, b, off) in enumerate(taps):
                    sl = phases[blk, a, b, :, off : off + span]
                    np.matmul(g, sl.transpose(0, 2, 1), out=prods[t, blk])
            if want_x:
                dph = dphases[blk] if in_place else dphases[:m]
                # zero, then add every tap: 0.0 + p turns a -0.0 product into +0.0
                dph.fill(0.0)
                for i, j, a, b, off in taps:
                    dph[:, a, b, :, off : off + span] += np.matmul(wtaps_t[i, j], g, out=dtmp[:m])
                if not in_place:
                    for at_q, at_x in blocks:
                        dx[blk][at_x] = dgrid[:m][at_q]
        if want_w:
            dw = np.empty(kernel.shape)
            for t, (i, j, _, _, _) in enumerate(taps):
                dw[:, :, i, j] = prods[t].sum(axis=0)
            kernel._accumulate(dw)
        if want_x:
            x._accumulate(dx)
        if bias.requires_grad or bias._parents:
            bias._accumulate(out.grad.reshape(n, k, oh * ow).sum(axis=(0, 2)))

    out._set_backward(bwd)
    return out


def upsample_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of [N,C,H,W]."""
    if x.ndim != 4:
        raise ValueError(f"upsample_nearest expects 4-d input, got {x.shape}")
    data = x.data.repeat(2, axis=2).repeat(2, axis=3)
    out = Tensor._result(data, (x,), "upsample_nearest")

    def bwd():
        n, c, h, w = x.shape
        # the bits of sum(axis=(3, 5)) without numpy's slow multi-axis
        # reduction: pairwise slice sums, columns then rows, then + 0.0,
        # as the reduction starts from +0.0 (four -0.0 sum to +0.0)
        g = out.grad.reshape(n, c, h, 2, w, 2)
        g = g[..., 0] + g[..., 1]
        x._accumulate(g[:, :, :, 0] + g[:, :, :, 1] + 0.0)

    out._set_backward(bwd)
    return out


# -- backward --------------------------------------------------------------


def backward(loss: Tensor) -> list[str]:
    """Run reverse-mode differentiation from a scalar ``loss``.

    Populates ``grad`` on every reachable tensor with ``requires_grad``
    set and frees the graph as it goes: each interior node loses its
    closure and its ``grad`` once the closure has run. Returns the op
    name of every node reached, parents before children; it holds no
    tensors, so keeping it does not keep the graph alive.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss._parents and not loss.requires_grad:
        raise ValueError("loss is detached from any recorded graph")

    # Iterative post-order DFS: parents land before children.
    order: list[Tensor] = []
    seen: set[int] = set()  # id() of each node; all stay alive during the walk
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents and node._backward_fn is None:
            raise ValueError(
                f"backward reached a {node._op!r} node whose graph an earlier backward freed"
            )
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if not node._parents:
            continue  # a leaf: it keeps its grad
        if node.grad is not None:
            node._backward_fn()
        node._backward_fn = None
        node.grad = None
    return [node._op for node in order]

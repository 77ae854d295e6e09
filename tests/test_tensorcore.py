import functools
import gc
import re
import struct
import threading
import weakref

import numpy as np
import pytest

from normalbridge import tensorcore as tc
from normalbridge.tensorcore import tensor as tc_tensor
from normalbridge.tensorcore import (
    AdamWState,
    SeededRng,
    Tensor,
    adamw_step,
    backward,
    conv2d,
    load_checkpoint,
    save_checkpoint,
)

from grad_cases import CASES, run_case
from group_norm_oracle import group_norm_composed


def conv2d_oracle(x, w, b=None, stride=1, padding=0):
    """Nested-loop cross-correlation, the reference for conv2d."""
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, k, oh, ow))
    for ni in range(n):
        for ki in range(k):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, ci, oi * stride + i, oj * stride + j] * w[ki, ci, i, j]
                    out[ni, ki, oi, oj] = acc + (b[ki] if b is not None else 0.0)
    return out


class TestConv2d:
    def test_ones_input_single_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = conv2d(x, w, Tensor(np.zeros(1)))
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_identity_kernel(self):
        rng = SeededRng(1)
        x = rng.normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), padding=1)
        np.testing.assert_array_equal(out.data, x)

    def test_matches_nested_loop_oracle(self):
        rng = SeededRng(2)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=(3,))
        for stride, pad in [(1, 0), (1, 1), (2, 1)]:
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad).data
            want = conv2d_oracle(x, w, b, stride=stride, padding=pad)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_oracle_sweep_strides_pads_kernels(self):
        rng = SeededRng(4)
        for hw in [(7, 9), (8, 6), (5, 10)]:
            for kh, kw in [(3, 3), (2, 3), (3, 1), (1, 1)]:
                x = rng.normal(size=(2, 3) + hw)
                w = rng.normal(size=(4, 3, kh, kw))
                b = rng.normal(size=(4,))
                for stride in (1, 2, 3):
                    for pad in (0, 1, 2):
                        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad).data
                        want = conv2d_oracle(x, w, b, stride=stride, padding=pad)
                        assert got.shape == want.shape, (hw, kh, kw, stride, pad)
                        assert np.max(np.abs(got - want)) < 1e-12, (hw, kh, kw, stride, pad)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ValueError, match="too small"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("name,value,low", [
        ("stride", 0, 1), ("stride", -1, 1), ("stride", 2.0, 1), ("stride", True, 1),
        ("padding", -1, 0), ("padding", 1.5, 0), ("padding", False, 0),
    ])
    def test_bad_stride_or_padding_named(self, name, value, low):
        with pytest.raises(ValueError, match=re.escape(f"conv2d: {name} must be an integer >= {low}, got {value!r}")):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)),
                   **{name: value})

    @pytest.mark.parametrize("shape", [(2,), (), (1, 1)])
    def test_bad_bias_shape_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"conv2d: bias must have shape (1,), got {shape}")):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(shape)))


class TestConv2dSampleBlocks:
    """The tap loops run over blocks of whole samples; no block size may change a bit."""

    @staticmethod
    def _run(arrays, stride, padding, proj=None):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = conv2d(x, w, b, stride=stride, padding=padding)
        if proj is None:
            proj = SeededRng(99).normal(size=out.shape)
        backward((out * Tensor(proj)).sum())
        return (out.data, x.grad, w.grad, b.grad), proj

    def _assert_block_invariant(self, monkeypatch, arrays, stride, padding, block_bytes):
        monkeypatch.setattr(tc_tensor, "_BLOCK_BYTES", 1 << 62)  # the whole batch is one block
        want, proj = self._run(arrays, stride, padding)
        for value in block_bytes:
            monkeypatch.setattr(tc_tensor, "_BLOCK_BYTES", value)
            got, _ = self._run(arrays, stride, padding, proj)
            for name, g, w in zip(("out", "dx", "dW", "db"), got, want):
                np.testing.assert_array_equal(g, w, err_msg=f"{name} at {value} bytes")

    @pytest.mark.parametrize("ksize", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [1, 3, 5])
    def test_any_block_size_matches_whole_batch(self, monkeypatch, batch, stride, ksize):
        rng = SeededRng(30 + batch)
        arrays = (rng.normal(size=(batch, 3, 9, 11)), rng.normal(size=(4, 3, ksize, ksize)), rng.normal(size=(4,)))
        # from one sample per block up to the whole batch, through every
        # block count in between, short last blocks included
        sizes = [1] + list(range(1 << 11, 1 << 17, 1 << 11))
        self._assert_block_invariant(monkeypatch, arrays, stride, ksize // 2, sizes)
        # dW is the per-sample kernel gradients added in sample order
        (_, _, dw, _), proj = self._run(arrays, stride, ksize // 2)
        per_sample = [self._run((arrays[0][i : i + 1],) + arrays[1:], stride, ksize // 2, proj[i : i + 1])[0][2]
                      for i in range(batch)]
        np.testing.assert_array_equal(dw, functools.reduce(np.add, per_sample))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_default_blocks_on_a_full_resolution_layer(self, monkeypatch, stride):
        rng = SeededRng(41)
        arrays = (rng.normal(size=(3, 8, 64, 64)), rng.normal(size=(8, 8, 3, 3)), rng.normal(size=(8,)))
        self._assert_block_invariant(monkeypatch, arrays, stride, 1, [tc_tensor._BLOCK_BYTES])

    def test_one_column_kernel_matches_whole_batch(self, monkeypatch):
        # stride 1, no padding, one kernel column: the input is read as the
        # phase image and the taps add straight into the output (the 1x1
        # kernel is test_any_block_size_matches_whole_batch[*-1-1])
        rng = SeededRng(53)
        arrays = (rng.normal(size=(5, 3, 9, 11)), rng.normal(size=(4, 3, 3, 1)), rng.normal(size=(4,)))
        sizes = [1] + list(range(1 << 11, 1 << 17, 1 << 11))
        self._assert_block_invariant(monkeypatch, arrays, 1, 0, sizes)


class TestConv2dWidthOne:
    """Kernels one column wide at stride 1 and padding 0 read the input and
    write the output in place; no layout of either may change a bit."""

    @pytest.mark.parametrize("shape", [(1, 3, 4, 5), (3, 8, 16, 16), (4, 8, 64, 64)],
                             ids=["1x3x4x5", "3x8x16x16", "4x8x64x64"])
    def test_one_by_one_is_a_matrix_product_per_sample(self, shape):
        rng = SeededRng(60)
        n, c, h, w = shape
        x, kernel, bias = rng.normal(size=shape), rng.normal(size=(6, c, 1, 1)), rng.normal(size=(6,))
        out = conv2d(Tensor(x), Tensor(kernel), Tensor(bias)).data
        for i in range(n):
            want = kernel[:, :, 0, 0] @ x[i].reshape(c, h * w) + bias[:, None]
            np.testing.assert_array_equal(out[i], want.reshape(6, h, w))

    @pytest.mark.parametrize("kh, kw", [(3, 1), (1, 3)], ids=["3x1", "1x3"])
    def test_one_column_and_one_row_kernels_match_oracle(self, kh, kw):
        # only the one-column kernel reads its input in place; a wider
        # kernel's last taps run past the flattened grid into a zero tail
        rng = SeededRng(80)
        x, w, b = rng.normal(size=(2, 3, 6, 7)), rng.normal(size=(4, 3, kh, kw)), rng.normal(size=(4,))
        got = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.max(np.abs(got - conv2d_oracle(x, w, b))) < 1e-12

    @staticmethod
    def _grads(x0, w0, b0, head):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        out = conv2d(x, w, b)
        backward(head(out))
        return out.data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("kh", [1, 3], ids=["1x1", "3x1"])
    def test_input_and_gradient_layouts_give_the_same_bits(self, kh):
        rng = SeededRng(70 + kh)
        x0, w0, b0 = rng.normal(size=(3, 4, 7, 6)), rng.normal(size=(5, 4, kh, 1)), rng.normal(size=(5,))
        oh = 7 - kh + 1
        other = rng.normal(size=(3, 2, oh, 6))
        ones = np.ones((3, 5, oh, 6))
        proj = rng.normal(size=(3, 7, oh, 6))
        # a contiguous input and gradient, against a Fortran-ordered input
        # with a broadcast gradient (from sum), and against a gradient that
        # is a per-sample block of a concat's
        cases = [((x0, lambda o: (o * Tensor(ones)).sum()),
                  (np.asfortranarray(x0), lambda o: o.sum())),
                 ((x0, lambda o: (o * Tensor(proj[:, 2:])).sum()),
                  (x0, lambda o: (tc.concat([Tensor(other), o], axis=1) * Tensor(proj)).sum()))]
        for (x_want, head_want), (x_got, head_got) in cases:
            want = self._grads(x_want, w0, b0, head_want)
            got = self._grads(x_got, w0, b0, head_got)
            for name, g, ref in zip(("out", "dx", "dW", "db"), got, want):
                np.testing.assert_array_equal(g, ref, err_msg=name)


def _same_bits(a, b):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


class TestLeakyRelu:
    def test_matches_where_form_on_signed_zeros_and_nan(self):
        slope = tc_tensor.LEAKY_SLOPE
        x0 = np.array([-2.0, -0.0, 0.0, 3.0, np.nan, -np.inf, np.inf, -5e-324, 5e-324, -0.0, 1.0, 0.0])
        g0 = np.array([1.5, -0.0, 2.0, -0.0, 4.0, 1.0, -1.0, 7.0, np.nan, np.nan, 0.0, -0.0])
        x = Tensor(x0, requires_grad=True)
        out = x.leaky_relu()
        assert _same_bits(out.data, np.where(x0 > 0.0, x0, slope * x0))
        backward((out * Tensor(g0)).sum())
        assert _same_bits(x.grad, g0 * np.where(x0 > 0.0, 1.0, slope))


class TestUpsampleNearest:
    @staticmethod
    def _grad(g0):
        n, c, h, w = g0.shape
        x = Tensor(np.zeros((n, c, h // 2, w // 2)), requires_grad=True)
        backward((tc.upsample_nearest(x) * Tensor(g0)).sum())
        return x.grad

    @staticmethod
    def _reference(g0):
        n, c, h, w = g0.shape
        return g0.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))

    def test_backward_matches_multi_axis_sum_bit_for_bit(self):
        # magnitudes over 16 decades, so each summation order rounds differently
        rng = np.random.default_rng(7)
        g0 = rng.normal(size=(3, 4, 12, 10)) * 10.0 ** rng.integers(-8, 8, size=(3, 4, 12, 10))
        assert _same_bits(self._grad(g0), self._reference(g0))

    def test_backward_keeps_signed_zeros(self):
        # block b of the 16 2x2 blocks holds -0.0 where bit k of b is set
        signs = (np.arange(16)[:, None] >> np.arange(4)) & 1
        g0 = np.where(signs, -0.0, 0.0).reshape(4, 4, 2, 2).transpose(0, 2, 1, 3).reshape(1, 1, 8, 8)
        grad = self._grad(g0)
        assert _same_bits(grad, self._reference(g0))
        assert not np.signbit(grad).any()  # the reduction starts from +0.0, so four -0.0 give +0.0


class TestGroupNorm:
    @pytest.mark.parametrize("shape", [(3, 6, 5, 7), (1, 6, 9, 3)], ids=["3x6x5x7", "1x6x9x3"])
    def test_matches_composed_form(self, shape):
        # the reference is the composed one-group norm, activated by the
        # where-form: a product with np.where(y > 0, 1, slope) has its bits
        # and its derivative
        slope = tc_tensor.LEAKY_SLOPE
        rng = SeededRng(21)
        c = shape[1]
        x0 = rng.normal(size=shape) * 2.0 + 0.5
        gamma0 = rng.uniform(0.5, 1.5, (c,))
        beta0 = rng.normal(size=(c,))
        proj = rng.normal(size=shape)
        x, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in (x0, gamma0, beta0))
        out = tc.group_norm(x, gamma, beta)
        backward((out * Tensor(proj)).sum())
        rx, rgamma, rbeta = (Tensor(a.copy(), requires_grad=True) for a in (x0, gamma0, beta0))
        y = group_norm_composed(rx, 1, rgamma, rbeta)
        pos = y.data > 0.0
        assert pos.any() and not pos.all()
        want = y * Tensor(np.where(pos, 1.0, slope))
        backward((want * Tensor(proj)).sum())
        assert _same_bits(out.data, np.where(pos, y.data, slope * y.data))
        assert _same_bits(out.data, want.data)
        for name, g, w in zip(("dx", "dgamma", "dbeta"), (x.grad, gamma.grad, beta.grad),
                              (rx.grad, rgamma.grad, rbeta.grad)):
            rel = np.max(np.abs(g - w)) / np.max(np.abs(w))
            assert rel <= 1e-12, f"{name}: relative difference {rel:.2e}"

    def test_one_graph_node(self):
        # the activation adds no node
        x = Tensor(np.arange(24.0).reshape(1, 4, 2, 3), requires_grad=True)
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        out = tc.group_norm(x, gamma, beta)
        assert out._op == "group_norm" and out._parents == (x, gamma, beta)
        assert len(backward(out.sum())) == 5  # three leaves, the node and the sum


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_sum(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x * x)

    def test_detached_loss_rejected(self):
        with pytest.raises(ValueError, match="detached"):
            backward(Tensor(3.0))

    def test_closures_run_once_after_every_consumer(self):
        # a diamond: x feeds both a and b, which meet again in c
        w = Tensor(np.ones(3), requires_grad=True)
        x = w * 3.0
        a = x * 2.0
        b = x + 1.0
        c = a * b
        z = c.sum()
        nodes = {"x": x, "a": a, "b": b, "c": c, "z": z}
        consumers = {"x": ("a", "b"), "a": ("c",), "b": ("c",), "c": ("z",), "z": ()}
        ran = []

        def recorded(name, fn):
            def run():
                ran.append(name)
                fn()
            return run

        for name, node in nodes.items():
            node._backward_fn = recorded(name, node._backward_fn)
        ops = backward(z)
        assert sorted(ran) == sorted(nodes)
        for name, users in consumers.items():
            assert all(ran.index(user) < ran.index(name) for user in users)
        # every node reached, leaves and constants included, parents first
        assert ops == ["leaf", "leaf", "leaf", "mul", "add", "leaf", "mul", "mul", "sum"]
        np.testing.assert_array_equal(w.grad, np.full(3, 42.0))  # d/dw sum(6w * (3w + 1))

    def test_grad_accumulates_over_fanout(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
        backward(y.sum())
        np.testing.assert_allclose(x.grad, [8.0])


class TestGradientOwnership:
    @pytest.mark.parametrize("other_use_first", [False, True])
    def test_fanout_views_are_never_mutated(self, other_use_first):
        # an add hands the same out.grad to both parents; when a then gets a
        # second gradient, b's stored gradient must not change with it
        rng = SeededRng(12)
        w = rng.normal(size=(2, 3))
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        via_add = ((a + b) * Tensor(w)).sum()
        other = (a * 3.0).sum()
        backward(other + via_add if other_use_first else via_add + other)
        np.testing.assert_array_equal(b.grad, w)
        np.testing.assert_array_equal(a.grad, w + 3.0)

    def test_first_gradient_stored_without_copy(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        backward(((a + b) * Tensor(np.full((2, 3), 2.0))).sum())
        assert np.shares_memory(a.grad, b.grad)  # one buffer, shared read-only by contract
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))


@pytest.fixture
def no_cyclic_gc():
    """Run with the cyclic collector off, so only reference counting frees."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _small_net(x, w, gamma, beta):
    h = conv2d(x, w, Tensor(np.zeros(w.shape[0])), padding=1).leaky_relu()
    return tc.l2_normalize(tc.group_norm(h, gamma, beta), axis=1)


class TestGraphLifetime:
    @staticmethod
    def _params():
        rng = SeededRng(8)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        return x, w, gamma, beta

    def test_training_graph_freed_by_refcount(self, no_cyclic_gc):
        x, w, gamma, beta = self._params()
        out = _small_net(x, w, gamma, beta)
        buf = weakref.ref(out.data)
        loss = (out * out).sum()
        backward(loss)
        del out, loss
        assert buf() is None
        assert w.grad is not None and gamma.grad is not None

    def test_no_grad_graph_freed_by_refcount(self, no_cyclic_gc):
        x, w, gamma, beta = self._params()
        with tc.no_grad():
            out = _small_net(x, w, gamma, beta)
        assert out._backward_fn is None and out._parents == ()
        buf = weakref.ref(out.data)
        del out
        assert buf() is None

    def test_returned_tape_does_not_pin_graph(self, no_cyclic_gc):
        x, w, gamma, beta = self._params()
        out = _small_net(x, w, gamma, beta)
        buf = weakref.ref(out.data)
        tape = backward(out.sum())
        del out
        assert buf() is None
        assert tape and all(isinstance(op, str) for op in tape)

    def test_untracked_results_get_no_closure(self):
        a = Tensor(np.ones(3))
        b = (a * 2.0 + 1.0).leaky_relu()
        assert b._parents == () and b._backward_fn is None

    def test_interior_grads_dropped_leaf_grads_kept(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        s = y + x
        z = s.sum()
        backward(z)
        for node in (y, s, z):
            assert node.grad is None and node._backward_fn is None
        np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])

    def test_second_backward_through_freed_graph_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        backward(y.sum())
        before = x.grad.copy()
        with pytest.raises(ValueError, match="freed"):
            backward((y * y).sum())
        np.testing.assert_array_equal(x.grad, before)


def _records_graph() -> bool:
    """Whether an op run here records its parents."""
    return len((Tensor(np.ones(2), requires_grad=True) * 2.0)._parents) == 2


class TestNoGradThreads:
    def test_no_grad_in_one_thread_does_not_stop_recording_in_another(self):
        held = threading.Event()
        checked = threading.Event()
        seen = {}

        def inference():
            with tc.no_grad():
                seen["inference_before"] = _records_graph()
                held.set()
                checked.wait(timeout=10)
                seen["inference_after"] = _records_graph()

        def training():
            held.wait(timeout=10)
            seen["training"] = _records_graph()
            checked.set()

        threads = [threading.Thread(target=inference), threading.Thread(target=training)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert seen == {"inference_before": False, "inference_after": False, "training": True}
        assert _records_graph()

    def test_no_grad_restores_on_exit(self):
        with tc.no_grad():
            with tc.no_grad():
                assert not _records_graph()
            assert not _records_graph()
        assert _records_graph()


class TestGradChecks:
    @pytest.mark.parametrize("name,builder", CASES, ids=[c[0] for c in CASES])
    def test_analytic_matches_fd(self, name, builder):
        worst = max(run_case(builder, SeededRng(100, i)) for i in range(5))
        assert worst < 1e-4, f"{name}: max rel err {worst:.3e}"


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        st = AdamWState(lr=3e-4, weight_decay=0.0)
        adamw_step({"p": p}, st)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_single_step_descends_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = 2.0 * p.data  # d/dw w^2
        adamw_step({"p": p}, AdamWState(lr=3e-4, weight_decay=0.0))
        assert p.data[0] < 1.0

    def test_reaches_quadratic_minimum(self):
        # f(w) = (w0 - 0.3)^2 + 2 (w1 + 0.7)^2, minimum at (0.3, -0.7)
        target = np.array([0.3, -0.7])
        p = Tensor(np.zeros(2), requires_grad=True)
        st = AdamWState(lr=3e-2, weight_decay=0.0)
        for _ in range(200):
            p.grad = np.array([2.0 * (p.data[0] - 0.3), 4.0 * (p.data[1] + 0.7)])
            adamw_step({"p": p}, st)
        assert np.max(np.abs(p.data - target)) < 1e-3

    def test_nonfinite_grad_names_parameter(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([np.nan, 0.0])
        with pytest.raises(FloatingPointError, match="'p'"):
            adamw_step({"p": p}, AdamWState(lr=3e-4, weight_decay=1e-2))

    @staticmethod
    def _two_params_after_one_step():
        rng = SeededRng(9)
        params = {"a": Tensor(rng.normal(size=(3,)), requires_grad=True),
                  "b": Tensor(rng.normal(size=(2, 2)), requires_grad=True)}
        st = AdamWState(lr=3e-4, weight_decay=1e-2)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        adamw_step(params, st)
        return params, st

    @pytest.mark.parametrize("bad", [np.nan, np.inf, None])
    def test_failing_step_leaves_state_unchanged(self, bad):
        params, st = self._two_params_after_one_step()
        params["a"].grad = np.full(3, 0.5)
        params["b"].grad = None if bad is None else np.array([[0.1, bad], [0.2, 0.3]])
        before = {k: (p.data.tobytes(), st.m[k].tobytes(), st.v[k].tobytes()) for k, p in params.items()}
        with pytest.raises((FloatingPointError, ValueError), match="'b'"):
            adamw_step(params, st)
        assert st.step_count == 1
        for k, p in params.items():
            assert (p.data.tobytes(), st.m[k].tobytes(), st.v[k].tobytes()) == before[k]

    def test_decoupled_weight_decay(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        p.grad = np.zeros(1)
        st = AdamWState(lr=0.1, weight_decay=0.5)
        adamw_step({"p": p}, st)
        # zero grad: only the decay term moves the weight
        np.testing.assert_allclose(p.data, [10.0 * (1 - 0.1 * 0.5)])


class TestDeterminism:
    @staticmethod
    def _train_trajectory(seed):
        rng = SeededRng(seed)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.1, requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        st = AdamWState(lr=3e-4, weight_decay=1e-2)
        params = {"w": w, "b": b}
        for step in range(100):
            x = Tensor(rng.normal(size=(2, 2, 5, 5)))
            diff = conv2d(x, w, b, padding=1).leaky_relu() - Tensor(rng.normal(size=(2, 3, 5, 5)))
            loss = (diff * diff).sum()
            for p in params.values():
                p.zero_grad()
            backward(loss)
            adamw_step(params, st)
        return w.data.copy(), b.data.copy()

    def test_bit_identical_trajectories(self):
        w1, b1 = self._train_trajectory(42)
        w2, b2 = self._train_trajectory(42)
        assert w1.tobytes() == w2.tobytes()
        assert b1.tobytes() == b2.tobytes()

    def test_different_seed_differs(self):
        w1, _ = self._train_trajectory(42)
        w2, _ = self._train_trajectory(43)
        assert w1.tobytes() != w2.tobytes()


class TestNoNanProperty:
    def test_finite_inputs_stay_finite(self):
        for i in range(30):
            r = SeededRng(7, i)
            x = Tensor(r.normal(size=(2, 4, 4, 4)) * 10.0)
            w = Tensor(r.normal(size=(3, 4, 3, 3)))
            g = Tensor(r.uniform(0.5, 1.5, (3,)))
            be = Tensor(r.normal(size=(3,)))
            out = tc.group_norm(tc.conv2d(x, w, Tensor(np.zeros(3)), padding=1).leaky_relu(), g, be)
            out = tc.l2_normalize(out, axis=1)
            assert np.isfinite(out.data).all()


class TestSeededRng:
    def test_same_key_same_sequence(self):
        a = SeededRng(5, 9).normal(size=(100,))
        b = SeededRng(5, 9).normal(size=(100,))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed, stream, named", [
        (-1, 0, "seed -1"), (1 << 64, 0, f"seed {1 << 64}"), (0, -1, "stream -1"), (0, 1 << 64, f"stream {1 << 64}"),
    ])
    def test_key_outside_64_bits_rejected(self, seed, stream, named):
        with pytest.raises(ValueError, match=f"{named} is outside"):
            SeededRng(seed, stream)

    @pytest.mark.parametrize("seed, stream, named", [
        (1.5, 0, "seed"), (True, 0, "seed"), (np.float64(2.9), 0, "seed"), ("3", 0, "seed"),
        (0, 1.0, "stream"), (0, np.bool_(True), "stream"),
    ])
    def test_non_integer_key_rejected(self, seed, stream, named):
        value = seed if named == "seed" else stream
        with pytest.raises(ValueError, match=re.escape(f"{named} must be an integer, got {value!r}")):
            SeededRng(seed, stream)

    def test_numpy_integer_key_accepted(self):
        got = SeededRng(np.int64(5), np.uint64(9)).normal(size=(4,))
        assert got.tobytes() == SeededRng(5, 9).normal(size=(4,)).tobytes()

    def test_key_at_the_64_bit_ends_accepted(self):
        assert SeededRng((1 << 64) - 1, (1 << 64) - 1).normal(size=(3,)).shape == (3,)

    def test_streams_independent(self):
        a = SeededRng(5, 0).normal(size=(100,))
        b = SeededRng(5, 1).normal(size=(100,))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [1.0, 0.3, 25.0, 0.0, 5e-324])
    @pytest.mark.parametrize("shape", [(), (5,), (4, 8, 64, 64)], ids=["scalar", "vector", "feature_map"])
    def test_normal_matches_generator_normal_bitwise(self, shape, scale):
        # the reference is the form the recorded digests were drawn in: a
        # plain Generator on Philox keyed [seed, stream], standard normals
        # times scale, plus 0.0. Bytes include sign bits: at scale 0, and at
        # 5e-324 for |z| < 0.5, negative draws round to -0.0, which both
        # forms return as +0.0
        ours = SeededRng(3, 4)
        ref = np.random.Generator(np.random.Philox(key=np.array([3, 4], dtype=np.uint64)))
        got, want = ours.normal(0.0, scale, shape), ref.standard_normal(shape)
        want *= scale
        want += 0.0
        assert type(got) is type(want) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the stream stays in step with the reference after the draw
        assert ours.normal(size=(7,)).tobytes() == ref.standard_normal(7).tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = SeededRng(11)
        params = {
            "enc.w": Tensor(rng.normal(size=(3, 2, 3, 3))),
            "enc.b": Tensor(rng.normal(size=(3,))),
            "scalar": Tensor(np.array(0.1234567890123456789)),
        }
        path = tmp_path / "model.nblb"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name, p in params.items():
            assert loaded[name].tobytes() == p.data.tobytes()
            assert loaded[name].shape == p.data.shape

    @staticmethod
    def _two_param_file(tmp_path):
        params = {"enc.w": Tensor(np.arange(6.0).reshape(2, 3)), "enc.b": Tensor(np.arange(3.0))}
        path = tmp_path / "model.nblb"
        save_checkpoint(path, params)
        # second record: u32 name length, b"enc.b", u32 rank, u32 extent, 3 * f64
        second = path.stat().st_size - (4 + 5 + 4 + 4 + 24)
        return path, path.read_bytes(), second

    @pytest.mark.parametrize("cut,names", [
        (4 + 2, "parameter #1"),       # inside the name
        (4 + 5 + 4 + 2, "'enc.b'"),    # inside the shape
        (4 + 5 + 4 + 4 + 12, "'enc.b'"),  # inside the payload
    ])
    def test_truncated_file_names_path_and_parameter(self, tmp_path, cut, names):
        path, blob, second = self._two_param_file(tmp_path)
        path.write_bytes(blob[: second + cut])
        with pytest.raises(ValueError, match="truncated") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and names in str(err.value)

    def test_truncated_first_payload(self, tmp_path):
        path, blob, second = self._two_param_file(tmp_path)
        path.write_bytes(blob[: second - 1])
        with pytest.raises(ValueError, match="'enc.w'"):
            load_checkpoint(path)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "one.nblb"
        save_checkpoint(path, {"w": Tensor(np.ones(2))})
        record = path.read_bytes()[len(tc.checkpoint.MAGIC):]
        assert struct.unpack_from("<I", record)[0] == 1
        path.write_bytes(tc.checkpoint.MAGIC + record + record)
        with pytest.raises(ValueError, match="duplicate parameter 'w'"):
            load_checkpoint(path)

    def test_non_utf8_name_names_path(self, tmp_path):
        path = tmp_path / "bad_name.nblb"
        record = struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<I", 0) + struct.pack("<d", 1.0)
        path.write_bytes(tc.checkpoint.MAGIC + record)
        with pytest.raises(ValueError, match="parameter #0 is not UTF-8") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("bad", [{"b": Tensor(np.zeros(3))}, {}], ids=["wrong_shape", "missing"])
    def test_failed_load_into_leaves_parameters_unchanged(self, tmp_path, bad):
        path = tmp_path / "model.nblb"
        save_checkpoint(path, {"a": Tensor(np.full((2, 2), 7.0)), **bad})
        params = {"a": Tensor(np.arange(4.0).reshape(2, 2)), "b": Tensor(np.ones((2, 3)))}
        before = {k: p.data.tobytes() for k, p in params.items()}
        with pytest.raises(ValueError, match="'b'") as err:
            tc.load_into(path, params)
        assert str(path) in str(err.value)
        assert {k: p.data.tobytes() for k, p in params.items()} == before

    @pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
    def test_non_finite_value_names_path_and_parameter(self, tmp_path, bad):
        path = tmp_path / "model.nblb"
        save_checkpoint(path, {"a": Tensor(np.ones(2)), "b": Tensor(np.array([1.0, 2.0]))})
        # the saver refuses a non-finite value, so write it over b's last entry
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", bad))
        params = {"a": Tensor(np.zeros(2)), "b": Tensor(np.zeros(2))}
        with pytest.raises(ValueError, match="parameter 'b' has a non-finite value") as err:
            tc.load_into(path, params)
        assert str(path) in str(err.value)
        assert not any(p.data.any() for p in params.values())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_save_refuses_non_finite_value_and_keeps_file(self, tmp_path, bad):
        path = tmp_path / "model.nblb"
        save_checkpoint(path, {"a": Tensor(np.ones(2))})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="parameter 'b' has a non-finite value") as err:
            save_checkpoint(path, {"a": Tensor(np.zeros(2)), "b": np.array([1.0, bad])})
        assert str(path) in str(err.value)
        assert path.read_bytes() == before
        with pytest.raises(ValueError, match="'b'"):
            save_checkpoint(tmp_path / "new.nblb", {"b": np.array(bad)})
        assert not (tmp_path / "new.nblb").exists()

    def test_load_into_assigns_every_parameter(self, tmp_path):
        rng = SeededRng(13)
        stored = {"a": Tensor(rng.normal(size=(2, 2))), "b": Tensor(rng.normal(size=(3,)))}
        path = tmp_path / "model.nblb"
        save_checkpoint(path, stored)
        params = {"a": Tensor(np.zeros((2, 2))), "b": Tensor(np.zeros(3))}
        tc.load_into(path, params)
        for k, p in params.items():
            assert p.data.tobytes() == stored[k].data.tobytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"JUNK!" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

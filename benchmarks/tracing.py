"""Spans around the public functions of each normalbridge layer.

The traced run swaps selected functions for timing wrappers, looked up
where their callers find them (``normalbridge.tensorcore.nn.conv2d`` is
what ``Conv2d.__call__`` calls, ``normalbridge.nirne.backward`` is what
the training loop calls), runs one workload iteration and puts the
originals back. No file under ``src/`` is edited.

A span is ``[name, start, end, parent, attrs]``: ``start``/``end`` are
``time.perf_counter()`` seconds, ``parent`` is the index of the enclosing
span or -1, and ``attrs`` holds counts taken at the same boundary. Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import normalbridge.geom as geom
import normalbridge.metrics as metrics
import normalbridge.nirne as nirne
import normalbridge.tensorcore as tensorcore
import normalbridge.tensorcore.nn as tc_nn
import normalbridge.toydata as toydata

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same.
PER_LAYER = [
    ("tensorcore.conv2d.fwd_ms", "ms", "lower"),
    ("tensorcore.conv2d.bwd_ms", "ms", "lower"),
    ("tensorcore.conv2d.calls", "count", "lower"),
    ("tensorcore.conv2d.flops", "flop", "lower"),
    ("tensorcore.conv2d.im2col_bytes", "B", "lower"),
    ("tensorcore.group_norm.fwd_ms", "ms", "lower"),
    ("tensorcore.concat.fwd_ms", "ms", "lower"),
    ("tensorcore.upsample.fwd_ms", "ms", "lower"),
    ("tensorcore.l2_normalize.fwd_ms", "ms", "lower"),
    ("tensorcore.backward_ms", "ms", "lower"),
    ("tensorcore.tape_nodes", "count", "lower"),
    ("tensorcore.adamw_ms", "ms", "lower"),
    ("tensorcore.params_updated", "count", "lower"),
    ("tensorcore.checkpoint.save_ms", "ms", "lower"),
    ("tensorcore.checkpoint.load_ms", "ms", "lower"),
    ("tensorcore.checkpoint.bytes", "B", "lower"),
    ("nirne.forward_ms", "ms", "lower"),
    ("nirne.forward_self_ms", "ms", "lower"),
    ("nirne.conv2d_ms.noisy", "ms", "lower"),
    ("nirne.conv2d_ms.clean", "ms", "lower"),
    ("nirne.conv2d_ms.fuse", "ms", "lower"),
    ("nirne.conv2d_ms.dec", "ms", "lower"),
    ("nirne.stage1_step_ms", "ms", "lower"),
    ("nirne.stage2_step_ms", "ms", "lower"),
    ("nirne.stage1_conv_share", "ratio", "lower"),
    ("nirne.stage2_clean_share", "ratio", "lower"),
    ("nirne.step_other_ms", "ms", "lower"),
    ("nirne.stage1_accounted_share", "ratio", "higher"),
    ("nirne.predict_batch_ms", "ms", "lower"),
    ("toydata.generate_scene_ms", "ms", "lower"),
    ("toydata.heightfield_normals_ms", "ms", "lower"),
    ("toydata.shade_image_ms", "ms", "lower"),
    ("toydata.corrupt_labels_ms", "ms", "lower"),
    ("maps.write_ms", "ms", "lower"),
    ("maps.read_ms", "ms", "lower"),
    ("maps.bytes", "B", "lower"),
    ("metrics.canny_ms", "ms", "lower"),
    ("metrics.canny.calls", "count", "lower"),
    ("metrics.dilate_ms", "ms", "lower"),
    ("metrics.normal_error_ms", "ms", "lower"),
    ("metrics.edge_pixels", "count", "higher"),
    ("geom.rasterize_ms", "ms", "lower"),
    ("geom.project_ms", "ms", "lower"),
    ("geom.vertex_normals_ms", "ms", "lower"),
    ("geom.faces", "count", "lower"),
    ("geom.covered_pixels", "count", "higher"),
    ("geom.heightfield_to_mesh_ms", "ms", "lower"),
    ("geom.sharp_edge_ms", "ms", "lower"),
    ("geom.edges", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_TENSOR_OPS = ("tensorcore.conv2d", "tensorcore.group_norm", "tensorcore.concat",
               "tensorcore.upsample", "tensorcore.l2_normalize")
_STEP_PARTS = ("nirne.forward", "tensorcore.backward", "tensorcore.adamw", "nirne.batch", "nirne.loss")


def _param_group(name: str) -> str:
    """noisy / clean / fuse, and dec for the decoder and the head."""
    head = name.split(".", 1)[0]
    if head in ("noisy", "clean"):
        return head
    return "fuse" if head.startswith("fuse") else "dec"


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._kernel_groups: dict[int, str] = {}

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, count=None, before=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][4].update(count(args, out))
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- layer boundaries ----------------------------------------------------

    def _note_model(self, args) -> None:
        model = args[0]
        for pname, p in model.named_parameters().items():
            self._kernel_groups[id(p)] = _param_group(pname)

    def _conv_counts(self, args, out) -> dict:
        x, kernel = args[0], args[1]
        n, c = x.shape[:2]
        k, _, kh, kw = kernel.shape
        oh, ow = out.shape[2:]
        group = self._kernel_groups.get(id(kernel), "other")
        if out._parents:  # a graph was recorded, so backward may run this node
            bwd = out._backward_fn

            def timed_bwd():
                idx = self._open("tensorcore.conv2d.bwd")
                self.spans[idx][4]["group"] = group
                try:
                    bwd()
                finally:
                    self._close(idx)

            out._backward_fn = timed_bwd
        # computed from shapes: one multiply-add per kernel tap per output
        # element, and the float64 column buffer im2col fills
        return {
            "flops": 2 * n * k * oh * ow * c * kh * kw,
            "im2col_bytes": 8 * n * c * kh * kw * oh * ow,
            "group": group,
        }

    def install(self) -> None:
        """Wrap every traced boundary; :meth:`restore` undoes it."""
        w = self._wrap
        w(tc_nn, "conv2d", "tensorcore.conv2d", count=self._conv_counts)
        w(tc_nn, "group_norm", "tensorcore.group_norm")
        for mod in (nirne, toydata):
            w(mod, "concat", "tensorcore.concat")
            w(mod, "l2_normalize", "tensorcore.l2_normalize")
        w(nirne, "upsample_nearest", "tensorcore.upsample")
        w(nirne, "backward", "tensorcore.backward", count=lambda a, out: {"tape_nodes": len(out)})
        w(nirne, "adamw_step", "tensorcore.adamw",
          count=lambda a, out: {"params_updated": sum(p.data.size for p in a[0].values())})
        w(tensorcore, "save_checkpoint", "tensorcore.checkpoint.save", count=lambda a, out: _file_bytes(a[0]))
        w(tensorcore, "load_into", "tensorcore.checkpoint.load", count=lambda a, out: _file_bytes(a[0]))

        w(nirne.DualStreamModel, "forward_t", "nirne.forward", before=self._note_model)
        w(nirne, "_batch_arrays", "nirne.batch")
        w(nirne, "_masked_mse", "nirne.loss")
        steps = lambda a, out: {"steps": a[2]}  # noqa: E731
        w(nirne, "train_stage1", "nirne.train_stage1", count=steps)
        w(nirne, "train_stage2", "nirne.train_stage2", count=steps)
        w(nirne, "predict_batch", "nirne.predict_batch")
        w(nirne, "evaluate_model", "nirne.evaluate_model")

        w(toydata, "make_dataset", "toydata.make_dataset")
        w(toydata, "generate_scene", "toydata.generate_scene")
        w(toydata, "heightfield_normals", "toydata.heightfield_normals")
        w(toydata, "shade_image", "toydata.shade_image")
        w(toydata, "corrupt_labels_real_domain", "toydata.corrupt_labels")
        w(toydata, "write_dataset", "toydata.write_dataset")
        w(toydata, "read_dataset", "toydata.read_dataset")
        for fn in ("write_ppm", "write_pgm", "write_height_bin"):
            w(toydata, fn, "maps.write", count=lambda a, out: _file_bytes(a[0]))
        for fn in ("read_ppm", "read_pgm", "read_height_bin"):
            w(toydata, fn, "maps.read", count=lambda a, out: _file_bytes(a[0]))

        w(metrics, "canny", "metrics.canny", count=lambda a, out: {"edge_pixels": out.count})
        w(metrics, "dilate", "metrics.dilate")
        w(metrics, "normal_error", "metrics.normal_error")
        w(metrics, "multiview_report", "metrics.multiview_report")

        w(geom, "rasterize_normals", "geom.rasterize",
          count=lambda a, out: {"faces": a[0].n_faces, "covered_pixels": int(out.mask.sum())})
        w(geom.Camera, "project", "geom.project")
        w(geom, "vertex_normals", "geom.vertex_normals")
        w(geom, "heightfield_to_mesh", "geom.heightfield_to_mesh")
        w(geom, "sharp_edge_report", "geom.sharp_edge",
          count=lambda a, out: {"edges": out.interior_edges + out.boundary_edges + out.nonmanifold_edges})
        w(geom, "dataset_stats", "geom.dataset_stats")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._kernel_groups.clear()


def layer_metrics(spans: list[list], base: int) -> dict[str, float]:
    """Per-layer totals for one traced iteration (``spans[base:]``).

    ``parent`` indices are absolute, so ``base`` maps them into the slice.
    """
    ms = {}
    calls = {}
    attr = {}
    for name, start, end, _, attrs in spans[base:]:
        ms[name] = ms.get(name, 0.0) + (end - start) * 1e3
        calls[name] = calls.get(name, 0) + 1
        for k, v in attrs.items():
            if isinstance(v, (int, float)):
                attr[(name, k)] = attr.get((name, k), 0) + v

    def total(name):
        return ms.get(name, 0.0)

    def dur(i):
        s = spans[i]
        return (s[2] - s[1]) * 1e3

    def ancestor(i, name):
        p = spans[i][3]
        while p >= base:
            if spans[p][0] == name:
                return p
            p = spans[p][3]
        return None

    fwd_children = 0.0
    conv_group = {"noisy": 0.0, "clean": 0.0, "fuse": 0.0, "dec": 0.0}
    conv_in_stage1 = 0.0
    clean_in_stage2 = 0.0
    stage1_parts = 0.0
    stage1_other = 0.0
    for i in range(base, len(spans)):
        name, parent, attrs = spans[i][0], spans[i][3], spans[i][4]
        if name in _TENSOR_OPS and parent >= base and spans[parent][0] == "nirne.forward":
            fwd_children += dur(i)
        if name in ("tensorcore.conv2d", "tensorcore.conv2d.bwd"):
            group = attrs.get("group")
            if group in conv_group:
                conv_group[group] += dur(i)
            if ancestor(i, "nirne.train_stage1") is not None:
                conv_in_stage1 += dur(i)
            if group == "clean" and ancestor(i, "nirne.train_stage2") is not None:
                clean_in_stage2 += dur(i)
        if name in _STEP_PARTS and parent >= base and spans[parent][0] == "nirne.train_stage1":
            stage1_parts += dur(i)
            if name in ("nirne.batch", "nirne.loss"):
                stage1_other += dur(i)

    steps1 = attr.get(("nirne.train_stage1", "steps"), 0)
    steps2 = attr.get(("nirne.train_stage2", "steps"), 0)
    stage1 = total("nirne.train_stage1")
    stage2 = total("nirne.train_stage2")
    io_bytes = attr.get(("maps.write", "bytes"), 0) + attr.get(("maps.read", "bytes"), 0)
    out = {
        "tensorcore.conv2d.fwd_ms": total("tensorcore.conv2d"),
        "tensorcore.conv2d.bwd_ms": total("tensorcore.conv2d.bwd"),
        "tensorcore.conv2d.calls": calls.get("tensorcore.conv2d", 0),
        "tensorcore.conv2d.flops": attr.get(("tensorcore.conv2d", "flops"), 0),
        "tensorcore.conv2d.im2col_bytes": attr.get(("tensorcore.conv2d", "im2col_bytes"), 0),
        "tensorcore.group_norm.fwd_ms": total("tensorcore.group_norm"),
        "tensorcore.concat.fwd_ms": total("tensorcore.concat"),
        "tensorcore.upsample.fwd_ms": total("tensorcore.upsample"),
        "tensorcore.l2_normalize.fwd_ms": total("tensorcore.l2_normalize"),
        "tensorcore.backward_ms": total("tensorcore.backward"),
        "tensorcore.tape_nodes": attr.get(("tensorcore.backward", "tape_nodes"), 0),
        "tensorcore.adamw_ms": total("tensorcore.adamw"),
        "tensorcore.params_updated": attr.get(("tensorcore.adamw", "params_updated"), 0),
        "tensorcore.checkpoint.save_ms": total("tensorcore.checkpoint.save"),
        "tensorcore.checkpoint.load_ms": total("tensorcore.checkpoint.load"),
        "tensorcore.checkpoint.bytes": attr.get(("tensorcore.checkpoint.save", "bytes"), 0),
        "nirne.forward_ms": total("nirne.forward"),
        "nirne.forward_self_ms": total("nirne.forward") - fwd_children,
        "nirne.conv2d_ms.noisy": conv_group["noisy"],
        "nirne.conv2d_ms.clean": conv_group["clean"],
        "nirne.conv2d_ms.fuse": conv_group["fuse"],
        "nirne.conv2d_ms.dec": conv_group["dec"],
        "nirne.stage1_step_ms": stage1 / steps1 if steps1 else 0.0,
        "nirne.stage2_step_ms": stage2 / steps2 if steps2 else 0.0,
        "nirne.stage1_conv_share": conv_in_stage1 / stage1 if stage1 else 0.0,
        "nirne.stage2_clean_share": clean_in_stage2 / stage2 if stage2 else 0.0,
        "nirne.step_other_ms": stage1_other / steps1 if steps1 else 0.0,
        "nirne.stage1_accounted_share": stage1_parts / stage1 if stage1 else 0.0,
        "nirne.predict_batch_ms": total("nirne.predict_batch"),
        "toydata.generate_scene_ms": total("toydata.generate_scene"),
        "toydata.heightfield_normals_ms": total("toydata.heightfield_normals"),
        "toydata.shade_image_ms": total("toydata.shade_image"),
        "toydata.corrupt_labels_ms": total("toydata.corrupt_labels"),
        "maps.write_ms": total("maps.write"),
        "maps.read_ms": total("maps.read"),
        "maps.bytes": io_bytes,
        "metrics.canny_ms": total("metrics.canny"),
        "metrics.canny.calls": calls.get("metrics.canny", 0),
        "metrics.dilate_ms": total("metrics.dilate"),
        "metrics.normal_error_ms": total("metrics.normal_error"),
        "metrics.edge_pixels": attr.get(("metrics.canny", "edge_pixels"), 0),
        "geom.rasterize_ms": total("geom.rasterize"),
        "geom.project_ms": total("geom.project"),
        "geom.vertex_normals_ms": total("geom.vertex_normals"),
        "geom.faces": attr.get(("geom.rasterize", "faces"), 0),
        "geom.covered_pixels": attr.get(("geom.rasterize", "covered_pixels"), 0),
        "geom.heightfield_to_mesh_ms": total("geom.heightfield_to_mesh"),
        "geom.sharp_edge_ms": total("geom.sharp_edge"),
        "geom.edges": attr.get(("geom.sharp_edge", "edges"), 0),
        "trace.spans": len(spans) - base,
    }
    return out


def median_layers(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer value over traced iterations."""
    return {k: float(statistics.median(s[k] for s in samples)) for k in samples[0]}


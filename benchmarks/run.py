"""Benchmark of normalbridge's real workflows, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload train --seed 0 --seconds 25 --trace 0

``--workload`` is ``train``, ``data_eval`` or ``mesh_eval`` (see
``workloads.py``). The seed makes every input; the program only sees the
generated inputs. One process, one caller, closed loop: each operation
starts after the previous one returns, and BLAS is held to one thread so
the process stays within the sandbox's two cores.

Set-up runs ``SETUP_REPEATS`` times and reports the median as
``setup_s``. One warm-up iteration follows, untimed. Then whole workload
iterations run until ``--seconds`` have passed; ``wall_s`` is the median
iteration time and ``wall_p75_s`` its upper quartile. With ``--trace 1``
the iterations alternate between untraced and traced (see
``tracing.py``); the per-layer numbers are medians over the traced ones
and ``trace.overhead_s`` is the traced minus the untraced median wall
time.

Every metric is printed by name with its unit. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or the per-layer
ones with ``--trace 1``). A JSON run record, and with ``--trace 1`` the
spans, go to ``benchmarks/runs/``. A failed output check counts as a
failed operation and makes the exit code 1.

``--scale tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORK = HERE / "work"
EXPECTED = HERE / "expected.json"

# the first one or two set-ups pay first-call costs; with nine the median
# falls among the warm ones
SETUP_REPEATS = 9
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)

# (name, unit, better, bound): the end-to-end metrics of BENCHMARK.json,
# reported by every workload.
# Workload-specific timings (stage1_step_ms, render_views_per_s, ...),
# wall_s, peak_rss_mb and error_rate are printed and kept in the run
# record only: every workload must report every gated metric, error_rate
# is 0, and peak RSS hangs on when the cyclic garbage collector runs
# (data_eval's ranged from 1.7 to 2.4 GB over five seeds). Iteration time
# on a shared 2-core host switches between a fast and a slow mode for
# seconds to minutes at a time; over 30-second windows of one process
# the median iteration time spread by 10% (IQR over median) and the upper
# quartile by 3%, so the upper quartile is the gated wall time.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_p75_s", "s", "lower", 0.25),
    ("ne_deg", "deg", "lower", 0.2),
    ("sne_deg", "deg", "lower", 0.2),
]


def summarize(samples: list[float], unit: str, better: str) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"value": float(statistics.median(samples)), "unit": unit, "better": better, "n": len(samples)}
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(samples)
            worst = ordered if better == "lower" else ordered[::-1]
            out["tail"] = {"percentile": p, "value": worst[min(n - 1, int(p / 100.0 * n))]}
            break
    return out


def upper_quartile(samples: list[float]) -> float:
    if len(samples) < 2:
        return float(samples[0])
    return float(statistics.quantiles(samples, n=4, method="inclusive")[2])


def local_commit() -> str:
    """HEAD of the enclosing git checkout, read from disk; ``unknown`` outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "commit": local_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python_threads": threading.active_count(),
    }


def roadmap_baseline(workload: str, e2e: dict, layers: dict | None, inputs: dict) -> dict:
    """The ROADMAP baseline rows this workload measures, with their inputs.

    Rows whose full-size input the workload does not run are projected
    from its measured per-unit cost and say so.
    """
    import numpy as np

    import normalbridge.geom as geom
    from normalbridge.maps import Heightfield

    def val(name):
        return e2e[name]["value"] if name in e2e else None

    rows = {}
    if workload == "train":
        rows["stage1_step_ms"] = val("stage1_step_ms")
        rows["stage2_step_ms"] = val("stage2_step_ms")
        rows["evaluate_ms_per_image"] = 1e3 / val("eval_images_per_s")
        rows["params"] = inputs["params"]
        rows["first_step_ms"] = val("first_step_ms")
        if layers:
            rows["predict_batch_ms_per_image"] = layers["nirne.predict_batch_ms"] / inputs["eval_samples"]
            rows["stage1_conv2d_share"] = layers["nirne.stage1_conv_share"]
    elif workload == "data_eval":
        rows["make_dataset_64_real_s"] = {
            "projected": 64 / val("gen_samples_per_s"),
            "from": f"gen_samples_per_s at {inputs['image_pixels']} px per image"}
        rows["evaluate_ms_per_image"] = 1e3 / val("eval_images_per_s")
    elif workload == "mesh_eval":
        per_face_view_s = val("render_view_ms") / 1e3 / inputs["render_faces"]
        rows["rasterize_us_per_face_per_view"] = per_face_view_s * 1e6
        for args in ((48, 96), (24, 48)):
            faces = geom.uv_sphere_mesh(*args).n_faces
            rows[f"uv_sphere_mesh{args}"] = {
                "faces": faces, "views": 22,
                "projected_s": per_face_view_s * faces * 22,
                "from": "rasterize_us_per_face_per_view"}
        faces = geom.heightfield_to_mesh(Heightfield(np.zeros((128, 128)))).n_faces
        rows["sharp_edge_report_128x128"] = {
            "faces": faces, "projected_s": faces / val("edge_faces_per_s"), "from": "edge_faces_per_s"}
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> tuple[dict, int]:
    import workloads as wl
    from tracing import PER_LAYER, Tracer, layer_metrics, median_layers

    cls, sizes_cls = wl.WORKLOADS[workload]
    sizes = wl.TINY[workload] if scale == "tiny" else sizes_cls()
    expected = None
    if seed == wl.DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text()).get(scale)
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = cls(seed, sizes, workdir, expected)
    rec = wl.Recorder()
    tracer = Tracer() if trace else None
    untraced_wall: list[float] = []
    traced_wall: list[float] = []
    layer_samples: list[dict] = []
    error = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = bench.setup()
            setup_times.append(time.perf_counter() - t0)
        bench.check_setup(state, rec)
        # warm-up: the first iteration runs the checks against recorded
        # values and pays first-call costs (one mesh_eval warm-up took 5.1 s
        # against 3.3 s for the iterations after it)
        rec.begin_iteration()
        bench.iterate(state, rec, first=True)
        rec.samples.clear()
        start = time.perf_counter()
        i = 0
        # at least one iteration, and with tracing one of each kind
        while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
            traced = trace and i % 2 == 1
            rec.begin_iteration()
            if traced:
                base = len(tracer.spans)
                tracer.install()
            try:
                bench.iterate(state, rec, first=False)
            finally:
                if traced:
                    tracer.restore()
            if traced:
                layer_samples.append(layer_metrics(tracer.spans, base))
                traced_wall.append(rec.iteration_wall[-1])
            else:
                untraced_wall.append(rec.iteration_wall[-1])
            i += 1
    except Exception:  # the run's boundary: report the failure, do not hide it
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        if not rec.samples:
            shutil.rmtree(workdir, ignore_errors=True)
            return {}, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    e2e = {}
    if error is None:
        e2e = {name: summarize(xs, unit, better) for name, (xs, unit, better) in bench.metrics(rec).items()}
    e2e["setup_s"] = summarize(setup_times, "s", "lower")
    if untraced_wall:
        e2e["wall_s"] = summarize(untraced_wall, "s", "lower")
        e2e["wall_p75_s"] = {"value": upper_quartile(untraced_wall), "unit": "s", "better": "lower",
                             "n": len(untraced_wall)}
    e2e["peak_rss_mb"] = summarize([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB", "lower")
    e2e["error_rate"] = {"value": rec.failed / max(1, rec.attempted), "unit": "ratio", "better": "lower",
                         "n": rec.attempted}

    layers = None
    if trace and layer_samples and untraced_wall:
        layers = median_layers(layer_samples)
        layers["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(untraced_wall)
        if layers["nirne.stage1_step_ms"] > 0:
            share = layers["nirne.stage1_accounted_share"]
            rec.check("stage-1 step parts add up to its wall time within 10%", abs(share - 1.0) <= 0.10,
                      f"forward+backward+adamw+batch+loss = {share:.3f} of step wall time")

    for name, m in e2e.items():
        tail = f" p{m['tail']['percentile']:g}={m['tail']['value']:.6g}" if "tail" in m else ""
        print(f"{workload} {name} {m['value']:.6g} {m['unit']} (n={m['n']}{tail})")
    if layers:
        for name, unit, _ in PER_LAYER:
            print(f"{workload} {name} {layers[name]:.6g} {unit}")
    for failure in rec.failures:
        print(f"{workload} FAILED CHECK {failure}", file=sys.stderr)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "environment": environment(),
        "sizes": asdict(sizes),
        "inputs": bench.inputs(state),
        "iteration_wall_s": {"untraced": untraced_wall, "traced": traced_wall},
        "op_samples_s": rec.samples,
        "setup_repeats": SETUP_REPEATS,
        "attempted": rec.attempted, "failed": rec.failed, "failures": rec.failures, "error": error,
        "metrics": e2e,
        "per_layer": layers,
        "observed": rec.observed,
        "roadmap_baseline": roadmap_baseline(workload, e2e, layers, bench.inputs(state)) if error is None else None,
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (RUNS / f"{stem}.spans.json").write_text(json.dumps(tracer.spans))

    if trace:
        metrics = {name: {"value": layers[name] if layers else 0.0, "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit} for name, unit, _, _ in END_TO_END
                   if name in e2e}
    result = {"correct": rec.failed == 0 and error is None, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    return result, 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("train", "data_eval", "mesh_eval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "tiny"), default="default")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import normalbridge
    except ImportError as exc:
        print(f"cannot import normalbridge from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(normalbridge.__file__).resolve().parents:
        print(f"normalbridge was imported from {normalbridge.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    result, code = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    if result:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

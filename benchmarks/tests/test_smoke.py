"""Smoke test of the benchmark: tiny runs of every workload.

Run from the repository root: ``python -m pytest benchmarks/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_the_code():
    assert [m["name"] for m in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_run_schema_and_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # at seed 0 the recorded values were compared, not skipped
    recorded = json.loads(run.EXPECTED.read_text())["tiny"]
    assert any(k.startswith(workload + ".") for k in recorded)


@pytest.mark.parametrize("workload,key", [
    ("train", "train.real_digests"),
    ("data_eval", "data_eval.sample_digests"),
    ("mesh_eval", "mesh_eval.view_digests"),
    ("mesh_eval", "mesh_eval.sharp_edge_counts"),
])
def test_wrong_recorded_value_is_a_failure(tmp_path, workload, key):
    cls, _ = wl.WORKLOADS[workload]
    expected = dict(json.loads(run.EXPECTED.read_text())["tiny"])
    expected[key] = list(reversed(expected[key]))
    bench = cls(0, wl.TINY[workload], tmp_path, expected)
    rec = wl.Recorder()
    state = bench.setup()
    bench.check_setup(state, rec)
    rec.begin_iteration()
    bench.iterate(state, rec, first=True)
    assert rec.failed == 1 and rec.failures == [f"recorded {key}: differs from the recorded value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run("--workload", "mesh_eval", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""The ``mesh_eval`` benchmark workload at its default sizes, one iteration.

The rasterizer oracle tests render at 40 px or less; this runs the 44
renders of 96 x 96 views, the multi-view report and the sharp-edge
statistics once at seed 0 and compares them with the values recorded in
``benchmarks/expected.json``, and pins the report's NE/SNE bit for bit.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from normalbridge import geom, metrics  # noqa: E402


def test_default_size_iteration_matches_recorded_values(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text())["default"]
    bench = wl.MeshEval(wl.DEFAULT_SEED, wl.MeshEvalSizes(), tmp_path, expected)
    state = bench.setup()
    rec = wl.Recorder()
    rec.begin_iteration()
    bench.iterate(state, rec, first=True)
    assert rec.failed == 0, rec.failures
    for key in ("mesh_eval.view_digests", "mesh_eval.sharp_edge_counts"):
        assert rec.observed[key] == expected[key]
    assert len(rec.samples["render"]) == 44


def test_multiview_report_matches_recorded_scores(tmp_path):
    # the perturbed against the ground-truth views, the benchmark's report;
    # SNE is NE on the Canny edges of the ground truth, so a change to any
    # Canny mask moves it
    state = wl.MeshEval(wl.DEFAULT_SEED, wl.MeshEvalSizes(), tmp_path, None).setup()
    gt, pert = ([geom.rasterize_normals(geom.heightfield_to_mesh(state[key]), cam).normal_map
                 for cam in state["cams"]] for key in ("scene", "perturbed"))
    rep = metrics.multiview_report(pert, gt)
    assert (rep.ne_deg, rep.sne_deg) == (4.781917339403562, 4.940541524210898)

"""Tests of the benchmark's own helpers and a tiny run of each workload.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lidarscene import _kernels, nn, raycast, scorenet, sensor  # noqa: E402
from tracing import Tracer, aggregate, self_times, tail_percentile  # noqa: E402


def _span(name, start, end, parent):
    return (name, start, end, parent, "r", None)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("outer", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("inner", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0, -1), _span("c", 1.0, 5.0, 0), _span("c", 3.0, 7.0, 0), _span("c", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_aggregate_does_not_double_count_recursion():
    spans = [_span("f", 0.0, 4.0, -1), _span("f", 1.0, 2.0, 0), _span("g", 5.0, 6.0, -1)]
    totals = aggregate(spans)
    assert totals["f"]["s"] == pytest.approx(4.0)
    assert totals["f"]["self_s"] == pytest.approx(4.0)
    assert totals["f"]["calls"] == 2


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 900) is None
    values = list(range(1, 101))
    assert tail_percentile(values, 900) == 90
    assert sum(v > tail_percentile(values, 900) for v in values) == 10
    assert tail_percentile(list(range(20)), 500) == 9
    assert tail_percentile(list(range(19)), 500) is None


def _targets():
    return [
        (raycast, "intersect_brute"), (raycast, "mesh_layout"), (_kernels, "render_rays"),
        (sensor, "write_lri"), (scorenet, "avgpool2"), (scorenet, "train"),
        (nn.Conv2d, "forward"), (nn.Dense, "backward"), (nn.Adam, "step"), (scorenet.ScoreModel, "forward"),
    ]


def test_wrappers_record_spans_and_are_fully_restored():
    before = {(id(o), a): vars(o).get(a) for o, a in _targets()}
    conv = nn.Conv2d(2, 4, 3, rng=np.random.default_rng(0))
    tracer = Tracer()
    layers.install(tracer)
    layers.install_adapter(tracer, type("Adapter", (), {"hint": conv})())
    assert "forward" in vars(conv)
    conv.forward(np.zeros((1, 2, 4, 8), dtype="float32"))
    tracer.restore()
    assert [s[0] for s in tracer.spans] == ["scorenet.hint_conv", "nn.conv.fwd"]
    assert tracer.spans[1][3] == 0
    assert tracer.spans[1][5] == {"flop": 2 * 1 * 4 * 2 * 9 * 4 * 8}
    assert "forward" not in vars(conv)
    assert {(id(o), a): vars(o).get(a) for o, a in _targets()} == before
    assert all(not hasattr(vars(o).get(a), "__wrapped__") for o, a in _targets())


def test_wrappers_restored_after_failure():
    before = raycast.intersect_brute
    tracer = Tracer()
    layers.install(tracer)
    try:
        with pytest.raises(AttributeError):
            raycast.intersect_brute(None, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], 1.0)
    finally:
        tracer.restore()
    assert raycast.intersect_brute is before
    assert tracer.spans[0][5] == {"error": 1}


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _u, _b in layers.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


TINY = {
    "dataset": workloads.Dataset(frames_per_round=3, setup_reps=1),
    "trajectory": workloads.Trajectory(
        poses=workloads.STREET_POSES[:2], spec=sensor.SensorSpec(rows=8, cols=64), tessellation=6, setup_reps=1
    ),
    "score": workloads.Score(
        train_frames=8, held_frames=4, uncond_steps=2, cond_steps=2,
        model=scorenet.ModelConfig(widths=(4, 4), emb_dim=8, blocks_per_level=1),
        sampler=scorenet.SamplerConfig(steps_per_level=1), setup_reps=1,
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_has_no_failures(name, trace, tmp_path):
    workload = TINY[name]
    rec = workloads.Record()
    inputs = workload.setup(3, tmp_path)
    times, samples, tracer = run.run_rounds(workload, inputs, rec, 0.01, trace, f"tiny-{name}")
    assert rec.attempted > 0
    assert rec.failed == 0, rec.failures
    assert samples[False][workload.op_kind]
    if trace:
        per_layer = layers.layer_metrics(tracer.spans, len(times[True]), 0.0)
        assert set(per_layer) == {n for n, _u, _b in layers.PER_LAYER}
        reached = {
            "dataset": ["layout.generate.s", "raycast.traverse.s", "raycast.raydrop.s", "sensor.lri_read.s"],
            "trajectory": ["meshing.mesh.s", "sensor.xyz_write.s", "extraction.dbscan.s"],
            "score": ["nn.conv.bwd.s", "nn.adam.step.s", "scorenet.sampler.self_s", "metrics.mmd.s"],
        }[name]
        assert all(per_layer[m] > 0 for m in reached)
        if name == "score":
            assert per_layer["scorenet.forwards_per_sample"] == 11
            assert per_layer["scorenet.hint_conv.calls"] == 2 + 11


def test_render_check_catches_a_wrong_pixel():
    w = workloads
    scene = w.layout.generate_random_scene(5, w.C10_PARAMS)
    img, cos = raycast.render_conditional(scene, w.C10_SPEC, w.C10_POSE, tessellation=w.C10_TESSELLATION,
                                          return_incidence=True)
    rng = lambda: np.random.default_rng(0)  # noqa: E731
    assert w.render_mismatches(scene, w.C10_SPEC, w.C10_POSE, w.C10_TESSELLATION, img, cos, rng()) == 0
    flat = rng().choice(img.depth.size, size=w.ORACLE_PIXELS, replace=False)
    v, u = np.divmod(flat[:1], img.spec.cols)
    data = img.data.copy()
    data[0, v, u] += 1e-6
    bad = sensor.RangeImage(img.spec, data)
    assert w.render_mismatches(scene, w.C10_SPEC, w.C10_POSE, w.C10_TESSELLATION, bad, cos, rng()) == 1

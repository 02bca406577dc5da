"""Which library callables the traced run wraps, and how their spans turn
into the per-layer metrics.

Each wrap targets the name where the caller looks it up: ``raycast`` calls
``mesh_layout``, ``intersect_brute`` and ``_kernels.render_rays`` through its
own globals, ``scorenet`` calls the pooling helpers it imported by name, and
``metrics.layout_consistency`` imports ``raycast.render_point_cloud`` at call
time. Every per-layer metric is a total over the traced rounds divided by
their number, so it reads "per round".
"""

from __future__ import annotations

import os

from lidarscene import _kernels, extraction, layout, metrics, nn, raycast, scorenet, sensor

from tracing import aggregate

# (name, unit, better); the order is the order of the report.
PER_LAYER = [
    ("layout.generate.s", "s", "lower"),
    ("meshing.mesh.s", "s", "lower"),
    ("meshing.mesh.calls", "count", "lower"),
    ("meshing.triangles", "count", "lower"),
    ("raycast.bvh.s", "s", "lower"),
    ("raycast.bvh.calls", "count", "lower"),
    ("raycast.traverse.s", "s", "lower"),
    ("raycast.rays", "count", "lower"),
    ("raycast.hits", "count", "higher"),
    ("raycast.hit_ratio", "ratio", "higher"),
    ("raycast.mray_per_s", "Mray/s", "higher"),
    ("raycast.tri_tests_computed", "count", "lower"),
    ("raycast.render.self_s", "s", "lower"),
    ("raycast.raydrop.s", "s", "lower"),
    ("raycast.drop_ratio", "ratio", "lower"),
    ("raycast.to_world.s", "s", "lower"),
    ("sensor.to_cloud.s", "s", "lower"),
    ("sensor.xyz_write.s", "s", "lower"),
    ("sensor.xyz_bytes", "B", "lower"),
    ("sensor.lri_write.s", "s", "lower"),
    ("sensor.lri_read.s", "s", "lower"),
    ("sensor.lri_bytes", "B", "lower"),
    ("extraction.extract.self_s", "s", "lower"),
    ("extraction.dbscan.s", "s", "lower"),
    ("extraction.dbscan.calls", "count", "lower"),
    ("extraction.fit_box.s", "s", "lower"),
    ("extraction.points", "count", "lower"),
    ("extraction.primitives", "count", "higher"),
    ("nn.conv.fwd.s", "s", "lower"),
    ("nn.conv.bwd.s", "s", "lower"),
    ("nn.conv.fwd.calls", "count", "lower"),
    ("nn.conv.gflop_computed", "GFLOP", "lower"),
    ("nn.conv.fwd.gflop_per_s", "GFLOP/s", "higher"),
    ("nn.conv.bwd.gflop_per_s", "GFLOP/s", "higher"),
    ("nn.dense.s", "s", "lower"),
    ("nn.film.s", "s", "lower"),
    ("nn.silu.s", "s", "lower"),
    ("nn.resample.s", "s", "lower"),
    ("nn.adam.step.s", "s", "lower"),
    ("nn.adam.zero_grad.s", "s", "lower"),
    ("scorenet.forward.self_s", "s", "lower"),
    ("scorenet.backward.self_s", "s", "lower"),
    ("scorenet.forward.calls", "count", "lower"),
    ("scorenet.loss.self_s", "s", "lower"),
    ("scorenet.train.self_s", "s", "lower"),
    ("scorenet.sampler.self_s", "s", "lower"),
    ("scorenet.forwards_per_sample", "count", "lower"),
    ("scorenet.hint_conv.calls", "count", "lower"),
    ("metrics.layout_consistency.self_s", "s", "lower"),
    ("metrics.mmd.s", "s", "lower"),
    ("metrics.chamfer.calls", "count", "lower"),
    ("metrics.jsd.s", "s", "lower"),
    ("metrics.frechet.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _brute(args, kwargs, result):
    mesh, origins = args[0], args[1]
    rays = len(origins)
    return {"rays": rays, "hits": int((result[1] >= 0).sum()), "tri_tests": rays * mesh.num_triangles}


def _kernel(args, kwargs, result):
    return {"rays": len(args[0]), "hits": int((result[1] >= 0).sum())}


def _raydrop(args, kwargs, result):
    returned = int((args[0].depth > 0).sum())
    return {"returned": returned, "dropped": returned - int((result.depth > 0).sum())}


def _conv_flop(x_shape, conv):
    b, _, h, w = x_shape
    return 2 * b * conv.cout * conv.cin * conv.ksize * conv.ksize * h * w


def _conv_fwd(args, kwargs, result):
    return {"flop": _conv_flop(args[1].shape, args[0])}


def _conv_bwd(args, kwargs, result):
    return {"flop": 2 * _conv_flop(args[1].shape, args[0])}


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _samples(args, kwargs, result):
    return {"samples": len(result)}


def _extract(args, kwargs, result):
    return {"points": len(args[0]), "primitives": len(result.primitives)}


def install(tracer):
    """Wrap every traced callable of the library."""
    w = tracer.wrap
    w(layout, "generate_random_scene", "layout.generate")
    w(raycast, "mesh_layout", "meshing.mesh", lambda a, k, r: {"triangles": r.num_triangles})
    w(raycast, "build_bvh", "raycast.bvh")
    w(raycast, "intersect_brute", "raycast.traverse", _brute)
    w(_kernels, "render_rays", "raycast.traverse", _kernel)
    w(raycast, "render_conditional", "raycast.render")
    w(raycast, "apply_raydrop", "raycast.raydrop", _raydrop)
    w(raycast, "sensor_to_world", "raycast.to_world")
    w(sensor, "range_image_to_point_cloud", "sensor.to_cloud")
    w(sensor, "write_point_cloud", "sensor.xyz_write", _file_bytes)
    w(sensor, "write_lri", "sensor.lri_write", _file_bytes)
    w(sensor, "read_lri", "sensor.lri_read", _file_bytes)
    w(extraction, "extract_layout", "extraction.extract", _extract)
    w(extraction, "dbscan", "extraction.dbscan")
    w(extraction, "fit_box", "extraction.fit_box")
    w(nn.Conv2d, "forward", "nn.conv.fwd", _conv_fwd)
    w(nn.Conv2d, "backward", "nn.conv.bwd", _conv_bwd)
    for cls, name in ((nn.Dense, "nn.dense"), (nn.FiLM, "nn.film"), (nn.SiLU, "nn.silu")):
        w(cls, "forward", name)
        w(cls, "backward", name)
    for fn in ("avgpool2", "avgpool2_backward", "upnearest2", "upnearest2_backward"):
        w(scorenet, fn, "nn.resample")
    w(nn.Adam, "step", "nn.adam.step")
    w(nn.Adam, "zero_grad", "nn.adam.zero_grad")
    w(scorenet.ScoreModel, "forward", "scorenet.forward", _rows)
    w(scorenet.ScoreModel, "backward", "scorenet.backward")
    w(scorenet, "loss_uncond", "scorenet.loss")
    w(scorenet, "loss_cond", "scorenet.loss")
    w(scorenet, "train", "scorenet.train")
    w(scorenet, "sample_annealed_langevin", "scorenet.sampler", _samples)
    w(metrics, "layout_consistency", "metrics.layout_consistency")
    w(metrics, "mmd", "metrics.mmd")
    w(metrics, "chamfer", "metrics.chamfer")
    w(metrics, "jsd", "metrics.jsd")
    w(metrics, "frechet", "metrics.frechet")


def install_adapter(tracer, adapter):
    """The adapter's hint conv is wrapped per instance, once it exists."""
    tracer.wrap(adapter.hint, "forward", "scorenet.hint_conv")


def _sampler_rows(spans):
    """Rows of score-model forwards that ran inside a sampler span."""
    rows = 0
    for name, _s, _e, parent, _run, counters in spans:
        if name != "scorenet.forward":
            continue
        p = parent
        while p >= 0 and spans[p][0] != "scorenet.sampler":
            p = spans[p][3]
        if p >= 0:
            rows += (counters or {}).get("rows", 0)
    return rows


def layer_metrics(spans, rounds, overhead_ratio):
    """Per-layer metric values per traced round; layers a workload never
    reaches read 0."""
    t = aggregate(spans)

    def get(name, field="s"):
        agg = t.get(name)
        if agg is None:
            return 0.0
        if field in ("s", "self_s", "calls"):
            return agg[field]
        return agg["counters"].get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    rays, traverse_s = get("raycast.traverse", "rays"), get("raycast.traverse")
    fwd_flop, bwd_flop = get("nn.conv.fwd", "flop"), get("nn.conv.bwd", "flop")
    samples = get("scorenet.sampler", "samples")
    totals = {
        "layout.generate.s": get("layout.generate"),
        "meshing.mesh.s": get("meshing.mesh"),
        "meshing.mesh.calls": get("meshing.mesh", "calls"),
        "meshing.triangles": get("meshing.mesh", "triangles"),
        "raycast.bvh.s": get("raycast.bvh"),
        "raycast.bvh.calls": get("raycast.bvh", "calls"),
        "raycast.traverse.s": traverse_s,
        "raycast.rays": rays,
        "raycast.hits": get("raycast.traverse", "hits"),
        "raycast.tri_tests_computed": get("raycast.traverse", "tri_tests"),
        "raycast.render.self_s": get("raycast.render", "self_s"),
        "raycast.raydrop.s": get("raycast.raydrop"),
        "raycast.to_world.s": get("raycast.to_world"),
        "sensor.to_cloud.s": get("sensor.to_cloud"),
        "sensor.xyz_write.s": get("sensor.xyz_write"),
        "sensor.xyz_bytes": get("sensor.xyz_write", "bytes"),
        "sensor.lri_write.s": get("sensor.lri_write"),
        "sensor.lri_read.s": get("sensor.lri_read"),
        "sensor.lri_bytes": get("sensor.lri_write", "bytes") + get("sensor.lri_read", "bytes"),
        "extraction.extract.self_s": get("extraction.extract", "self_s"),
        "extraction.dbscan.s": get("extraction.dbscan"),
        "extraction.dbscan.calls": get("extraction.dbscan", "calls"),
        "extraction.fit_box.s": get("extraction.fit_box"),
        "extraction.points": get("extraction.extract", "points"),
        "extraction.primitives": get("extraction.extract", "primitives"),
        "nn.conv.fwd.s": get("nn.conv.fwd"),
        "nn.conv.bwd.s": get("nn.conv.bwd"),
        "nn.conv.fwd.calls": get("nn.conv.fwd", "calls"),
        "nn.conv.gflop_computed": (fwd_flop + bwd_flop) / 1e9,
        "nn.dense.s": get("nn.dense"),
        "nn.film.s": get("nn.film"),
        "nn.silu.s": get("nn.silu"),
        "nn.resample.s": get("nn.resample"),
        "nn.adam.step.s": get("nn.adam.step"),
        "nn.adam.zero_grad.s": get("nn.adam.zero_grad"),
        "scorenet.forward.self_s": get("scorenet.forward", "self_s"),
        "scorenet.backward.self_s": get("scorenet.backward", "self_s"),
        "scorenet.forward.calls": get("scorenet.forward", "calls"),
        "scorenet.loss.self_s": get("scorenet.loss", "self_s"),
        "scorenet.train.self_s": get("scorenet.train", "self_s"),
        "scorenet.sampler.self_s": get("scorenet.sampler", "self_s"),
        "scorenet.hint_conv.calls": get("scorenet.hint_conv", "calls"),
        "metrics.layout_consistency.self_s": get("metrics.layout_consistency", "self_s"),
        "metrics.mmd.s": get("metrics.mmd"),
        "metrics.chamfer.calls": get("metrics.chamfer", "calls"),
        "metrics.jsd.s": get("metrics.jsd"),
        "metrics.frechet.s": get("metrics.frechet"),
    }
    out = {name: value / rounds for name, value in totals.items()}
    out["raycast.hit_ratio"] = ratio(get("raycast.traverse", "hits"), rays)
    out["raycast.mray_per_s"] = ratio(rays, traverse_s) / 1e6
    out["raycast.drop_ratio"] = ratio(get("raycast.raydrop", "dropped"), get("raycast.raydrop", "returned"))
    out["nn.conv.fwd.gflop_per_s"] = ratio(fwd_flop, get("nn.conv.fwd")) / 1e9
    out["nn.conv.bwd.gflop_per_s"] = ratio(bwd_flop, get("nn.conv.bwd")) / 1e9
    out["scorenet.forwards_per_sample"] = ratio(_sampler_rows(spans), samples)
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _unit, _better in PER_LAYER}

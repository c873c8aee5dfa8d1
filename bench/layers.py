"""Which eqmollify callables the traced run wraps, and the per-layer
metrics derived from the spans they record.

Span names are ``<layer>.<what>``; a layer is an ``eqmollify`` module.
Times are self times (span minus the time its child spans cover) unless
the metric says cumulative.  Counts come from array shapes seen at the
call boundary, so they repeat exactly from run to run.
"""

import dataclasses
import hashlib
import inspect
import threading

import numpy as np

from tracer import self_times

LAYERS = ("config", "scenarios", "kernel", "ballmap", "metrics", "maps",
          "curvature", "distances", "currents", "experiments")

# (name, unit, better); run.py prints exactly these with --trace 1
PER_LAYER = (
    ("config.load_s", "s", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("kernel.create_s", "s", "lower"),
    ("kernel.nodes", "count", "lower"),
    ("ballmap.compress_rows", "count", "lower"),
    ("ballmap.compress_s", "s", "lower"),
    ("ballmap.passthrough_ratio", "1", "higher"),
    ("ballmap.expand_rows", "count", "lower"),
    ("ballmap.expand_s", "s", "lower"),
    ("ballmap.jacobian_s", "s", "lower"),
    ("ballmap.bridge_rows", "count", "lower"),
    ("ballmap.bridge_s", "s", "lower"),
    ("ballmap.bridge_sweeps", "count", "lower"),
    ("ballmap.bridge_evals_per_row", "1", "lower"),
    ("ballmap.shift_rows", "count", "lower"),
    ("ballmap.shift_s", "s", "lower"),
    ("metrics.quadrature_rows", "count", "lower"),
    ("metrics.bypass_ratio", "1", "higher"),
    ("metrics.node_pairs", "count", "lower"),
    ("metrics.mollify_s", "s", "lower"),
    ("metrics.node_pairs_per_s", "1/s", "higher"),
    ("metrics.chart_stage_s", "s", "lower"),
    ("metrics.group_s", "s", "lower"),
    ("metrics.seminorm_s", "s", "lower"),
    ("maps.chart_s", "s", "lower"),
    ("curvature.jet_points", "count", "lower"),
    ("curvature.jet_s", "s", "lower"),
    ("curvature.algebra_s", "s", "lower"),
    ("distances.graph_edges", "count", "lower"),
    ("distances.graph_samples", "count", "lower"),
    ("distances.graph_s", "s", "lower"),
    ("distances.dijkstra_sources", "count", "lower"),
    ("distances.dijkstra_s", "s", "lower"),
    ("currents.shift_product_calls", "count", "lower"),
    ("currents.shift_product_reuse", "1", "higher"),
    ("currents.shift_product_rows", "count", "lower"),
    ("currents.shift_product_s", "s", "lower"),
    ("currents.translation_product_s", "s", "lower"),
    ("currents.pair_s", "s", "lower"),
    ("currents.sample_s", "s", "lower"),
    ("experiments.stages", "count", "lower"),
    ("experiments.stage_busy_s", "s", "lower"),
    ("experiments.stage_max_s", "s", "lower"),
    ("experiments.stage_wait_s", "s", "lower"),
    ("experiments.sweep_efficiency", "1", "higher"),
    ("experiments.write_s", "s", "lower"),
) + tuple(("%s.errors" % layer, "count", "lower") for layer in LAYERS) + (
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def _rows(arg_index):
    """Span attributes {"rows": N} for a point batch (N, n) or one point (n,)."""
    def attrs(args, kwargs):
        return {"rows": int(np.atleast_2d(np.asarray(args[arg_index])).shape[0])}
    return attrs


def _values(arg_index):
    """Span attributes {"rows": N} for a value vector (N,)."""
    def attrs(args, kwargs):
        return {"rows": int(np.atleast_1d(np.asarray(args[arg_index])).shape[0])}
    return attrs


def _count_into(tracer, span_name, key, fn, rows_arg):
    """Count calls and rows of fn into the enclosing span when that span is
    ``span_name``; no span of its own, so its time stays with the caller."""
    def counted(*args, **kwargs):
        span = tracer.current()
        if span is not None and span.name == span_name:
            rows = int(np.atleast_1d(np.asarray(args[rows_arg])).shape[0])
            span.attrs[key + "_calls"] = span.attrs.get(key + "_calls", 0) + 1
            span.attrs[key + "_rows"] = span.attrs.get(key + "_rows", 0) + rows
        return fn(*args, **kwargs)
    return counted


def _field_wrapper(tracer, span_name, factory):
    """A field factory whose returned MetricField evaluates inside a span."""
    def make(*args, **kwargs):
        field = factory(*args, **kwargs)
        return dataclasses.replace(field, fn=tracer.wrap(span_name, field.fn))
    return make


def _sample_key(args, kwargs):
    sample, kernel = args[0], args[1]
    digest = hashlib.sha1()
    for array in (sample.points, sample.frames, sample.weights):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr(kernel.epsilon).encode())
    nodes = kernel.quadrature.nodes.shape[0]
    return {"rows": int(nodes * sample.points.shape[0]), "key": digest.hexdigest()}


class _ModuleProxy:
    """Stands in for an imported module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer):
    """Wrap the eqmollify layer boundaries; eqmollify must be imported."""
    from eqmollify import (ballmap, config, currents, curvature, distances,
                           experiments, kernel, maps, metrics, scenarios)

    def span(module, attr, name, attrs=None):
        original = getattr(module, attr)
        tracer.rebind(original, tracer.wrap(name, original, attrs))

    span(config, "load_config", "config.load")
    span(scenarios, "build_scenario", "scenarios.build")

    create = kernel.MollifierKernel.__dict__["create"].__func__

    def traced_create(cls, *args, **kwargs):
        made = create(cls, *args, **kwargs)
        tracer.current().attrs["nodes"] = int(made.quadrature.nodes.shape[0])
        return made
    tracer.set_attr(kernel.MollifierKernel, "create",
                    classmethod(tracer.wrap("kernel.create", traced_create)))

    for attr in ("ball_compress", "_compress_with_jacobian"):
        span(ballmap, attr, "ballmap.compress", _rows(0))
    for attr in ("ball_expand", "_expand_with_jacobian"):
        span(ballmap, attr, "ballmap.expand", _rows(0))
    for attr in ("shift_points", "shift_with_jacobian"):
        span(ballmap, attr, "ballmap.shift", _rows(0))
    span(ballmap, "_radial_jacobians", "ballmap.jacobian")
    span(ballmap, "_invert_bridge", "ballmap.bridge", _values(0))
    tracer.rebind(ballmap._bridge, _count_into(tracer, "ballmap.bridge", "bridge",
                                               ballmap._bridge, 0))
    tracer.rebind(ballmap.radial_profile_inverse,
                  _count_into(tracer, "ballmap.compress", "inverse",
                              ballmap.radial_profile_inverse, 0))

    span(metrics, "_mollify_values", "metrics.mollify", _rows(2))
    span(metrics, "sobolev_seminorm", "metrics.seminorm")
    tracer.rebind(metrics.chart_smooth_metric,
                  _field_wrapper(tracer, "metrics.chart_stage",
                                 metrics.chart_smooth_metric))
    tracer.rebind(metrics.haar_average_metric,
                  _field_wrapper(tracer, "metrics.group",
                                 metrics.haar_average_metric))

    for owner, names in ((maps.AffineChart, ("apply", "apply_inverse", "jacobian",
                                             "jacobian_inverse", "chart_radius")),
                         (maps.ChartCutoff, ("value",))):
        for attr in names:
            tracer.set_attr(owner, attr,
                            tracer.wrap("maps.chart", owner.__dict__[attr]))

    span(curvature, "curvature_bounds", "curvature.bounds")
    span(curvature, "_metric_jet", "curvature.jet", _rows(1))
    span(curvature, "_lowered_curvature", "curvature.lowered")
    span(curvature, "_christoffel_terms", "curvature.christoffel")
    span(curvature, "_section_values", "curvature.section")

    graph_signature = inspect.signature(distances.sample_graph)
    build_graph = distances.sample_graph

    def traced_graph(*args, **kwargs):
        bound = graph_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        graph = build_graph(*args, **kwargs)
        edges = int(graph.edges.shape[0])
        tracer.current().attrs.update(edges=edges,
                                      samples=edges * int(bound.arguments["order"]))
        return graph
    tracer.rebind(build_graph, tracer.wrap("distances.graph", traced_graph))
    span(distances, "dilation_estimate", "distances.dilation")
    csgraph = distances.csgraph

    def sources(args, kwargs):
        return {"sources": int(np.atleast_1d(kwargs["indices"]).shape[0])}
    tracer.set_attr(distances, "csgraph", _ModuleProxy(
        csgraph, dijkstra=tracer.wrap("distances.dijkstra", csgraph.dijkstra, sources)))

    span(currents, "_shift_product", "currents.shift_product", _sample_key)
    span(currents, "_translation_product", "currents.translation_product")
    span(currents, "mollified_sample", "currents.sample")
    for attr in ("pair", "pair_many"):
        tracer.set_attr(currents.WeightedSample, attr,
                        tracer.wrap("currents.pair",
                                    currents.WeightedSample.__dict__[attr]))

    sweep = experiments._sweep
    cap = experiments.thread_cap

    def traced_sweep(fn, items):
        items = list(items)
        outer = tracer.current()
        outer.attrs["threads"] = min(cap(), len(items))
        stage = tracer.wrap("experiments.stage", fn, parent=outer)
        return sweep(stage, items)
    tracer.rebind(sweep, tracer.wrap("experiments.sweep", traced_sweep))
    span(experiments, "_write_report", "experiments.write")


def summarize(spans, window):
    """Per-layer metrics of one traced run; ``window`` is the (start, end)
    of the timed CLI call.  Set-up spans before it still count towards
    config and scenarios times but not towards the unattributed time."""
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_s(*names):
        return sum(own[id(s)] for name in names for s in by_name.get(name, ()))

    def total_s(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def attr_sum(name, key, parent=None):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ())
                   if parent is None or (s.parent is not None
                                         and s.parent.name == parent))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    out["config.load_s"] = self_s("config.load")
    out["scenarios.build_s"] = self_s("scenarios.build")
    out["kernel.create_s"] = self_s("kernel.create")
    out["kernel.nodes"] = attr_sum("kernel.create", "nodes")

    compress_rows = attr_sum("ballmap.compress", "rows")
    bridge_rows = attr_sum("ballmap.bridge", "rows")
    out["ballmap.compress_rows"] = compress_rows
    out["ballmap.compress_s"] = self_s("ballmap.compress")
    out["ballmap.passthrough_ratio"] = ratio(
        compress_rows - attr_sum("ballmap.compress", "inverse_rows"), compress_rows)
    out["ballmap.expand_rows"] = attr_sum("ballmap.expand", "rows")
    out["ballmap.expand_s"] = self_s("ballmap.expand")
    out["ballmap.jacobian_s"] = self_s("ballmap.jacobian")
    out["ballmap.bridge_rows"] = bridge_rows
    out["ballmap.bridge_s"] = self_s("ballmap.bridge")
    out["ballmap.bridge_sweeps"] = (attr_sum("ballmap.bridge", "bridge_calls")
                                    - len(by_name.get("ballmap.bridge", ())))
    out["ballmap.bridge_evals_per_row"] = ratio(
        attr_sum("ballmap.bridge", "bridge_rows"), bridge_rows)
    out["ballmap.shift_rows"] = attr_sum("ballmap.shift", "rows")
    out["ballmap.shift_s"] = self_s("ballmap.shift")

    quadrature_rows = attr_sum("metrics.mollify", "rows")
    node_pairs = attr_sum("ballmap.compress", "rows", parent="metrics.mollify")
    out["metrics.quadrature_rows"] = quadrature_rows
    out["metrics.bypass_ratio"] = ratio(
        quadrature_rows - attr_sum("ballmap.expand", "rows", parent="metrics.mollify"),
        quadrature_rows)
    out["metrics.node_pairs"] = node_pairs
    out["metrics.mollify_s"] = self_s("metrics.mollify")
    out["metrics.node_pairs_per_s"] = ratio(node_pairs, total_s("metrics.mollify"))
    out["metrics.chart_stage_s"] = self_s("metrics.chart_stage")
    out["metrics.group_s"] = self_s("metrics.group")
    out["metrics.seminorm_s"] = self_s("metrics.seminorm")

    out["maps.chart_s"] = self_s("maps.chart")

    out["curvature.jet_points"] = attr_sum("curvature.jet", "rows")
    out["curvature.jet_s"] = total_s("curvature.jet")
    out["curvature.algebra_s"] = self_s("curvature.bounds", "curvature.lowered",
                                        "curvature.christoffel", "curvature.section")

    out["distances.graph_edges"] = attr_sum("distances.graph", "edges")
    out["distances.graph_samples"] = attr_sum("distances.graph", "samples")
    out["distances.graph_s"] = total_s("distances.graph")
    out["distances.dijkstra_sources"] = attr_sum("distances.dijkstra", "sources")
    out["distances.dijkstra_s"] = self_s("distances.dijkstra")

    products = by_name.get("currents.shift_product", ())
    out["currents.shift_product_calls"] = len(products)
    out["currents.shift_product_reuse"] = ratio(
        len({s.attrs["key"] for s in products}), len(products))
    out["currents.shift_product_rows"] = attr_sum("currents.shift_product", "rows")
    out["currents.shift_product_s"] = self_s("currents.shift_product")
    out["currents.translation_product_s"] = self_s("currents.translation_product")
    out["currents.pair_s"] = self_s("currents.pair")
    out["currents.sample_s"] = self_s("currents.sample")

    stages = by_name.get("experiments.stage", ())
    busy = sum(s.duration for s in stages)
    capacity = sum(s.duration * s.attrs["threads"]
                   for s in by_name.get("experiments.sweep", ()))
    out["experiments.stages"] = len(stages)
    out["experiments.stage_busy_s"] = busy
    out["experiments.stage_max_s"] = max((s.duration for s in stages), default=0.0)
    out["experiments.stage_wait_s"] = sum(s.start - s.parent.start for s in stages)
    out["experiments.sweep_efficiency"] = ratio(busy, capacity)
    out["experiments.write_s"] = self_s("experiments.write")

    for layer in LAYERS:
        out["%s.errors" % layer] = sum(
            1 for s in spans if s.error and s.name.startswith(layer + "."))

    # Time of the CLI call covered by no span on its own thread.  On one
    # thread this is the wall minus the sum of all self times; parallel
    # stages would make that sum count thread time, not wall time.
    start, end = window
    caller = threading.get_ident()
    out["trace.unattributed_s"] = (end - start) - sum(
        s.duration for s in spans
        if s.parent is None and s.thread == caller and s.start >= start)
    return out

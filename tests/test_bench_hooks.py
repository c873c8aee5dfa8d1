"""The benchmark's layer tracer must still find every name it hooks.

``bench/layers.py`` rebinds eqmollify module and class attributes by name;
a rename in the library would otherwise surface only in the benchmark's
own self-test.  Installing and uninstalling the hooks here fails fast
instead, and checks that uninstalling restores every original.  The bench
modules are imported without writing bytecode, so nothing lands under
``bench/``.
"""

import os
import sys

import numpy as np
import pytest

from eqmollify import ballmap, currents, kernel, maps, metrics

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
PATCHED_CLASSES = (maps.AffineChart, maps.ChartCutoff, currents.WeightedSample,
                   kernel.MollifierKernel)


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    import layers
    import tracer
    yield layers, tracer
    # the bench modules have generic names; do not leave them importable
    for name in ("layers", "tracer"):
        sys.modules.pop(name, None)


def _snapshot():
    modules = {name: dict(vars(module)) for name, module in sys.modules.items()
               if module is not None and name.split(".")[0] == "eqmollify"}
    classes = {cls: dict(cls.__dict__) for cls in PATCHED_CLASSES}
    return modules, classes


def _changed(before):
    modules, classes = before
    out = [(name, key) for name, attrs in modules.items()
           for key, value in attrs.items() if vars(sys.modules[name]).get(key) is not value]
    out += [(cls.__name__, key) for cls, attrs in classes.items()
            for key, value in attrs.items() if cls.__dict__.get(key) is not value]
    return out


def test_install_then_uninstall_restores_every_original(bench_modules):
    layers, tracer = bench_modules
    before = _snapshot()
    hooks = tracer.Tracer()
    try:
        layers.install(hooks)
        assert hooks._undo
        assert ("eqmollify.ballmap", "ball_compress") in _changed(before)
        assert ("AffineChart", "apply") in _changed(before)
    finally:
        hooks.uninstall()
    assert hooks._undo == []
    assert _changed(before) == []


def test_ballmap_spans_never_nest_in_their_own_kind(bench_modules):
    # a hooked name calling another hooked name of the same span would count
    # its rows twice; the metric quadrature and the current smoothing reach
    # the ball maps through the shared shift product
    layers, tracer = bench_modules
    hooks = tracer.Tracer()
    x = np.array([[0.1, 0.0], [0.5, 0.2], [0.7, -0.1], [0.9, 0.0]])
    y = np.array([0.05, -0.02])
    mollifier = kernel.MollifierKernel.create(2, 0.1, level=1)
    sample = currents.WeightedSample(x, np.ones((4, 1, 2)), np.ones(4))
    try:
        layers.install(hooks)
        ballmap.shift_points(x, y)
        ballmap.shift_with_jacobian(x, y)
        ballmap.ball_compress(ballmap.ball_expand(x[:3]))
        metrics._mollify_values(lambda pts: np.broadcast_to(np.eye(2), (len(pts), 2, 2)),
                                mollifier, x)
        currents._shift_product(sample, mollifier)
    finally:
        hooks.uninstall()
    names = {span.name for span in hooks.spans}
    assert {"ballmap.shift", "ballmap.compress", "ballmap.expand",
            "metrics.mollify", "currents.shift_product"} <= names
    fused = [span.parent.name for span in hooks.spans
             if span.name == "ballmap.expand" and span.parent is not None]
    assert {"metrics.mollify", "currents.shift_product"} <= set(fused)
    # the fused bridge Newton must still count its sweeps and the
    # compression its inverse rows
    attrs = {name: [span.attrs for span in hooks.spans if span.name == name]
             for name in ("ballmap.bridge", "ballmap.compress")}
    assert any(a.get("bridge_calls", 0) >= 2 for a in attrs["ballmap.bridge"])
    assert any(a.get("inverse_rows", 0) > 0 for a in attrs["ballmap.compress"])
    nested = [span.name for span in hooks.spans
              if span.name.startswith("ballmap.") and span.parent is not None
              and span.parent.name == span.name]
    assert nested == []


def test_quadrature_rows_reach_the_compression_hook(bench_modules):
    # the benchmark's compress_rows and node_pairs count the rows that enter
    # the traced compression inside the quadrature: points inside
    # R_IDENTITY times kernel nodes, over any blocking
    layers, tracer = bench_modules
    hooks = tracer.Tracer()
    mollifier = kernel.MollifierKernel.create(2, 0.1, level=1)
    rng = np.random.default_rng(6)
    angles = rng.uniform(0.0, 2.0 * np.pi, 40)
    radii = np.concatenate([rng.uniform(0.0, ballmap.R_IDENTITY, 30),
                            rng.uniform(ballmap.R_IDENTITY, 1.3, 10)])
    x = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)
    try:
        layers.install(hooks)
        metrics._mollify_values(lambda pts: np.broadcast_to(np.eye(2), (len(pts), 2, 2)),
                                mollifier, x)
    finally:
        hooks.uninstall()

    def rows(name):
        return sum(span.attrs["rows"] for span in hooks.spans if span.name == name
                   and span.parent is not None and span.parent.name == "metrics.mollify")
    nodes = mollifier.quadrature.nodes.shape[0]
    assert rows("ballmap.compress") == 30 * nodes
    assert rows("ballmap.expand") == 30

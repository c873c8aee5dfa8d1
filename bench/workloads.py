"""The benchmark workloads: a shipped sample config, the experiment kind it
runs, and the size changes that fit one run into a few seconds.

``seeded`` workloads draw random input from ``config.seed``; the others
produce the same output at every seed.  ``tiny`` overrides shrink a
workload further for the benchmark's self-test and for the warm-up
iteration.  A ``side_by_side`` workload runs on one thread, so the
benchmark runs one copy of it per CPU at a time: every run then samples
every CPU, and twice the iterations fit in it on two CPUs.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    config: str
    kind: str
    why: str
    seeded: bool
    side_by_side: bool = False
    overrides: dict = field(default_factory=dict)
    tiny: dict = field(default_factory=dict)


WORKLOADS = {
    # whole-ball mollify_metric, no chart and no group: _mollify_values and
    # the bridge inversion carry it.  15 uneven stages (kernel level 2, then
    # level 1) load the sweep pool; at grid 65 the level-2 stages still
    # exceed metrics._MAX_ROWS (about 2,400 inner points x 512 nodes), so
    # the node blocking runs.  The shipped grid 129 takes about 26 s.
    "sphere-seminorm": Workload(
        config="sphere-seminorm",
        kind="smooth-metric",
        why="whole-ball metric mollification over 15 uneven epsilon stages on the"
            " sweep pool; quadrature rows past the block cap",
        seeded=False,
        overrides={"grid": 65},
        tiny={"grid": 17, "epsilons": [4.8828125e-05, 2.44140625e-05,
                                       1.220703125e-05]},
    ),
    # the only haar_average_metric over a finite group (Z8) and the only
    # finite-difference curvature jets; one epsilon, so one stage on one
    # thread, which is why one copy runs per CPU.  The shipped grid 65 takes
    # about 50 s.
    "sphere-curvature-z8": Workload(
        config="sphere-curvature",
        kind="curvature-report",
        why="Z8 group average of the chart stage under finite-difference"
            " curvature jets; one stage, the single-threaded baseline, one copy per CPU",
        seeded=True,
        side_by_side=True,
        overrides={"grid": 21},
        tiny={"grid": 9},
    ),
    # the currents pipeline: shift_with_jacobian row by row through
    # _shift_product, never touching metrics.  A metrics change must read
    # flat here and a ballmap change must show.
    "orbit-currents": Workload(
        config="orbit-mollify",
        kind="mollify-current",
        why="current smoothing by translations and ball shifts; runs ballmap"
            " without metrics, so metric-only changes must read flat",
        seeded=False,
        tiny={"epsilons": [0.0125, 0.00625]},
    ),
    # the only workload in distances: a graph over the 25x25 lattice's edge
    # Gauss nodes, then Dijkstra.  Torus path: chart stage only, no group
    # average, on the rough radial_c11 metric.  Two level-1 epsilons keep
    # both pool threads busy; the shipped four take about 46 s on 1 thread.
    "radial-lipschitz": Workload(
        config="radial-lipschitz",
        kind="lipschitz-sweep",
        why="graph distances over the 25x25 lattice on the rough radial metric;"
            " torus chart-stage path, two level-1 stages",
        seeded=True,
        overrides={"epsilons": [0.0125, 0.00625]},
        tiny={"graph_grid": 9, "pairs": 8},
    ),
}

# config.seed = REFERENCE_CONFIG_SEED + --seed, so --seed 0 runs the shipped
# seed and the reference outputs apply to it
REFERENCE_CONFIG_SEED = 42

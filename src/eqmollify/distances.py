"""Grid-graph geodesic distances and dilation estimates.

Distances come from shortest paths on a regular grid graph with full
diagonal neighborhoods, edge weights being quadrature lengths of straight
chords under the metric.  That upper-bounds the true geodesic distance up
to a discretization error which is estimated empirically by resolution
doubling, not proved.  The graph is its padded lattice of edge weights,
and sweeping that lattice until no distance can fall returns Dijkstra's
distances bit for bit.  The dilation estimator compares two metrics on
the same node set over a fixed seeded pair sample; it is a proxy for the
full dilation supremum and documented as such.  Its reference side is a
value of its own (``_reference_side``), so a sweep builds it once.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
# by name, so that numpy loads the submodules at import, not inside a run
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng

from .metrics import BoxGrid, MetricError

__all__ = [
    "DistanceError",
    "SampleGraph",
    "sample_graph",
    "DilationReport",
    "dilation_estimate",
    "seeded_point_pairs",
]


# Floats per block of sources in the shortest-path sweep and of points in
# SampleGraph.snap; a memory bound only, since no bit depends on it.
_MAX_CELLS = 1 << 22


class DistanceError(RuntimeError):
    """An empty graph, an edge length not positive and finite, or a degenerate pair."""


def _chord_lengths(metric, starts, chords, order):
    """Metric lengths of the straight chords from ``starts``: one Gauss rule
    of the given order per chord, all evaluated in a single metric batch."""
    nodes, weights = leggauss(order)
    t = 0.5 * (nodes + 1.0)
    samples = (starts[:, None, :] + t[None, :, None] * chords[:, None, :]).reshape(
        -1, starts.shape[1]
    )
    g = metric.value(samples)
    tangents = np.repeat(chords, order, axis=0)
    speeds = np.sqrt(np.einsum("rij,ri,rj->r", g, tangents, tangents))
    return speeds.reshape(-1, order) @ (0.5 * weights)


def _lattice_steps(dimension):
    """The 3^n - 1 unit lattice steps in ``np.ndindex`` order.  Steps k and
    -1 - k are opposite, and the second half holds the steps whose first
    non-zero entry is positive."""
    raw = np.array(list(np.ndindex(*((3,) * dimension)))) - 1
    return np.delete(raw, raw.shape[0] // 2, axis=0)


def _window(step, shape):
    """Per lattice axis, the slice of a padded array that holds the source
    of the edge entering each inner site by ``step``."""
    return tuple(slice(1 - s, size - 1 - s) for s, size in zip(step, shape))


@dataclass(frozen=True)
class SampleGraph:
    """Lattice nodes with full diagonal neighborhoods and metric edge lengths.

    ``sites`` (N, n) are the nodes' integer lattice coordinates.
    ``weights[k]`` holds, on the grid's lattice padded by one cell on every
    side, the length of the edge that enters each site by the step
    ``_lattice_steps(n)[k]``, and inf where no edge does.  The lattice is
    the graph: no other representation is kept.
    """

    nodes: np.ndarray
    sites: np.ndarray
    weights: np.ndarray

    # bench/layers.py counts a traced graph's edges by this name
    @property
    def edges(self):
        """The (E, 2) node pairs (a, b), each edge once: b entered from a by
        a step in the upper half of ``_lattice_steps``, step-major, then in
        C order of b."""
        ids = np.full(self.weights.shape[1:], -1)
        ids[tuple(self.sites.T + 1)] = np.arange(self.sites.shape[0])
        steps = _lattice_steps(self.sites.shape[1])
        half = steps.shape[0] // 2
        k, *site = np.nonzero(np.isfinite(self.weights[half:]))
        source = tuple(site - steps[half + k].T)
        return np.stack([ids[source], ids[tuple(site)]], axis=1)

    def snap(self, points):
        """The first nearest node to a point, as an int, or to each row of
        a (P, n) stack, as an index array.  Rows go in blocks whose node
        gaps hold at most ``_MAX_CELLS`` floats."""
        points = np.asarray(points, dtype=float)
        ends = points.reshape(-1, 1, self.nodes.shape[1])
        block = max(1, _MAX_CELLS // self.nodes.size)
        nearest = []
        for start in range(0, ends.shape[0], block):
            gaps = self.nodes - ends[start:start + block]
            nearest.append(np.argmin(np.einsum("pri,pri->pr", gaps, gaps), axis=1))
        nearest = np.concatenate(nearest)
        return int(nearest[0]) if points.ndim == 1 else nearest


def sample_graph(metric, grid, mask_radius=None, order=8):
    """Build the neighborhood graph of a grid under a metric field.

    Edge lengths are Gauss quadratures along straight chords, evaluated in
    one metric batch across all edges; for quadrature-backed fields that
    batching is what keeps graph construction affordable.  The kept sites,
    lattice points of a ball in a box, form one run on every axis line,
    nested in the runs beside it (the float norm grows with each
    |coordinate|), so a graph with a node is connected.
    """
    if not isinstance(grid, BoxGrid):
        raise MetricError("graph construction expects a BoxGrid")
    n = grid.dimension
    lattice = grid.points().reshape(grid.counts + (n,))
    keep = np.ones(grid.counts, dtype=bool)
    if mask_radius is not None:
        keep = np.linalg.norm(lattice, axis=-1) <= mask_radius
    if not np.any(keep):
        raise DistanceError("graph has no node")
    shape = tuple(count + 2 for count in grid.counts)
    steps = _lattice_steps(n)
    half = steps.shape[0] // 2
    # undirected: one step of each opposite pair; C order over the stacked
    # masks takes the edges step by step, each by the site it enters
    windows = [_window(step, shape) for step in steps[half:]]
    held, points = np.pad(keep, 1), np.pad(lattice, [(1, 1)] * n + [(0, 0)])
    enters = np.stack([keep & held[window] for window in windows])
    starts = np.stack([points[window] for window in windows])[enters]
    ends = np.broadcast_to(lattice, enters.shape + (n,))[enters]
    lengths = _chord_lengths(metric, starts, ends - starts, order)
    if not np.all((lengths > 0.0) & np.isfinite(lengths)):
        raise DistanceError("edge lengths must be positive and finite")
    weights = np.full((2 * half,) + shape, np.inf)
    inner = tuple(slice(1, -1) for _ in shape)
    weights[(slice(half, None),) + inner][enters] = lengths
    # and each edge by the opposite step at the site it leaves
    for k, window in enumerate(windows):
        weights[half - 1 - k][window] = weights[half + k][inner]
    return SampleGraph(lattice[keep], np.argwhere(keep), weights)


def _lattice_distances(graph, indices):
    """Shortest-path lengths from each node in ``indices`` to every node,
    shape (len(indices), N): Dijkstra's distances bit for bit, swept for
    as many sources at a time as fit in ``_MAX_CELLS`` lattice cells."""
    indices = np.atleast_1d(indices)
    block = max(1, _MAX_CELLS // graph.weights[0].size)
    return np.concatenate([_sweep_sources(graph, indices[start:start + block])
                           for start in range(0, indices.shape[0], block)])


def _sweep_sources(graph, indices):
    """Shortest-path lengths from each node in ``indices`` to every node.

    The distances live on the padded lattice with the sources as the last
    axis, so each lattice site holds one contiguous row.  A round sweeps
    every axis forward and then backward, relaxing each slab across the
    axis from the slab before it by the 3^(n-1) steps that cross; one
    relaxation by all 3^n - 1 steps at once then either lowers nothing,
    and the distances are a fixed point, or starts another round.

    Every update is fl(d[u] + w) with w > 0, and rounding is monotone, so a
    fixed point reached from the sources holds, at each node, the least
    left-to-right float sum over paths to it.  That is the value Dijkstra
    returns too.  Smooth metrics settle in a round or two; edge lengths
    that bend the shortest paths back and forth need more.
    """
    weights = graph.weights
    steps = _lattice_steps(graph.sites.shape[1])
    shape = weights.shape[1:]
    dist = np.full(shape + (indices.shape[0],), np.inf)
    dist[tuple(graph.sites[indices].T + 1) + (np.arange(indices.shape[0]),)] = 0.0
    inner = tuple(slice(1, -1) for _ in shape)
    rest = inner[1:]
    sweeps = []
    for axis, size in enumerate(shape):
        slabs = np.moveaxis(dist, axis, 0)
        # a slab across this axis; its shape is the lattice's less this axis
        scratch = np.empty_like(slabs[1][rest])
        # the pad slab holds no distance, so each sweep starts one slab in
        for sign, order in ((1, range(2, size - 1)), (-1, range(size - 3, 0, -1))):
            terms = [(_window(np.delete(step, axis), slabs.shape[1:-1]),
                      np.moveaxis(weights[k], axis, 0)[(slice(None),) + rest + (None,)])
                     for k, step in enumerate(steps) if step[axis] == sign]
            sweeps.append((slabs, sign, order, terms, scratch))
    here = dist[inner]
    best, candidate = np.empty_like(here), np.empty_like(here)
    while True:
        for slabs, sign, order, terms, scratch in sweeps:
            for i in order:
                slab, prev = slabs[i][rest], slabs[i - sign]
                for window, w in terms:
                    np.add(prev[window], w[i], out=scratch)
                    np.minimum(slab, scratch, out=slab)
        best.fill(np.inf)
        for k, step in enumerate(steps):
            np.add(dist[_window(step, shape)], weights[k][inner][..., None], out=candidate)
            np.minimum(best, candidate, out=best)
        if not np.any(best < here):
            return here[tuple(graph.sites.T)].T
        np.minimum(here, best, out=here)


# bench/layers.py hooks the shortest paths by this name and reads indices=
csgraph = SimpleNamespace(dijkstra=_lattice_distances)


@dataclass(frozen=True)
class DilationReport:
    """Per-pair distance ratios of a smoothed metric against its reference."""

    pairs: np.ndarray
    deviations: np.ndarray
    max_deviation: float


def _reference_side(metric, pairs, grid, mask_radius=None, order=8):
    """The reference metric's side of ``dilation_estimate``: the snapped
    pairs, the distinct first ends as sweep sources, each pair's row among
    them and the reference distances.  A sweep builds it once, before any
    stage, and compares every smoothed metric against it."""
    pairs = np.asarray(pairs, dtype=float)
    base = sample_graph(metric, grid, mask_radius=mask_radius, order=order)
    snapped = base.snap(pairs.reshape(-1, pairs.shape[-1])).reshape(-1, 2)
    if np.any(snapped[:, 0] == snapped[:, 1]):
        raise DistanceError("zero-distance pair after snapping")
    # only the rows of the first ends are read; each source is its own
    # column of the sweep, so leaving the others out moves no bit
    sources, rows = np.unique(snapped[:, 0], return_inverse=True)
    return snapped, sources, rows, csgraph.dijkstra(base, indices=sources)[rows, snapped[:, 1]]


def _dilation(side, smoothed, grid, mask_radius=None, order=8):
    """``dilation_estimate`` against a ``_reference_side`` built on the same
    grid, mask radius and order."""
    snapped, sources, rows, d0 = side
    moved = sample_graph(smoothed, grid, mask_radius=mask_radius, order=order)
    d1 = csgraph.dijkstra(moved, indices=sources)[rows, snapped[:, 1]]
    degenerate = ~(np.isfinite(d0) & np.isfinite(d1)) | (d0 == 0.0)
    if np.any(degenerate):
        raise DistanceError("degenerate pair %d" % np.argmax(degenerate))
    deviations = np.abs(d1 / d0 - 1.0)
    return DilationReport(
        pairs=snapped,
        deviations=deviations,
        max_deviation=float(np.max(deviations)),
    )


def dilation_estimate(reference, smoothed, pairs, grid, mask_radius=None, order=8):
    """max over the pair sample of |d_smoothed / d_reference - 1|.

    Both graphs share one node set, so every ratio compares shortest paths
    in the same combinatorial search space and only the edge weights move.
    """
    side = _reference_side(reference, pairs, grid, mask_radius, order)
    return _dilation(side, smoothed, grid, mask_radius, order)


def seeded_point_pairs(count, seed, radius, dimension=2, min_separation=0.2):
    """Reproducible well-separated point pairs in a ball."""
    if min_separation >= 2.0 * radius:
        raise DistanceError("min_separation must be below the ball diameter 2 * radius")
    rng = default_rng(seed)
    out = []
    while len(out) < count:
        raw = rng.standard_normal((2, dimension))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        scale = radius * rng.uniform(0.0, 1.0, size=2) ** (1.0 / dimension)
        p, q = raw * scale[:, None]
        if np.linalg.norm(p - q) >= min_separation:
            out.append((p, q))
    return np.asarray(out)

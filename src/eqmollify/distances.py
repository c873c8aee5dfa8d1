"""Grid-graph geodesic distances and dilation estimates.

Distances come from shortest paths on a regular grid graph with full
diagonal neighborhoods, edge weights being quadrature lengths of straight
chords under the metric.  That upper-bounds the true geodesic distance up
to a discretization error which is estimated empirically by resolution
doubling, not proved.  The shortest paths come from sweeping the lattice
until no distance can fall, which returns Dijkstra's distances bit for
bit.  The dilation estimator compares two metrics on the same node set
over a fixed seeded pair sample; it is a proxy for the full dilation
supremum and documented as such.
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
    """Domain escape, disconnection, or a degenerate pair."""


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


def _component_count(count, edges):
    """Connected components of the graph on ``count`` nodes.  Each node's
    label is the smallest node index known to share its component: labels
    spread along the edges, and pointer jumping takes each to its root."""
    labels = np.arange(count)
    a, b = edges[:, 0], edges[:, 1]
    while True:
        at_a, at_b = labels[a], labels[b]
        if np.array_equal(at_a, at_b):
            return int(np.count_nonzero(labels == np.arange(count)))
        low = np.minimum(at_a, at_b)
        np.minimum.at(labels, a, low)
        np.minimum.at(labels, b, low)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


@dataclass(frozen=True)
class SampleGraph:
    """Lattice nodes with full diagonal neighborhoods and metric edge lengths.

    ``sites`` (N, n) are the nodes' integer lattice coordinates, and every
    edge joins two lattice neighbours.  ``weights[k]`` holds, on the lattice
    padded by one cell on every side, the length of the edge that enters
    each site by the step ``_lattice_steps(n)[k]``, and inf where no edge
    does.
    """

    nodes: np.ndarray
    sites: np.ndarray
    edges: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray

    def __init__(self, nodes, sites, edges, lengths):
        if not np.all((lengths > 0.0) & np.isfinite(lengths)):
            raise DistanceError("edge lengths must be positive and finite")
        parts = _component_count(nodes.shape[0], edges)
        if parts != 1:
            raise DistanceError("graph is disconnected (%d components)" % parts)
        sites = np.asarray(sites, dtype=int)
        if sites.shape != nodes.shape or np.any(sites < 0):
            raise DistanceError("each node needs one non-negative lattice site")
        padded = tuple(np.max(sites, axis=0) + 3)
        occupied = np.zeros(padded, dtype=bool)
        occupied[tuple(sites.T + 1)] = True
        if np.count_nonzero(occupied) != sites.shape[0]:
            raise DistanceError("nodes must sit on distinct lattice sites")
        moves = sites[edges[:, 1]] - sites[edges[:, 0]]
        if np.any(np.abs(moves) > 1) or not np.all(np.any(moves, axis=1)):
            raise DistanceError("edges must join lattice neighbours")
        dimension = sites.shape[1]
        count = 3 ** dimension - 1
        # each move's place among _lattice_steps: its np.ndindex position,
        # less one past the zero step
        code = (moves + 1) @ 3 ** np.arange(dimension - 1, -1, -1)
        step = code - (code > count // 2)
        weights = np.full((count,) + padded, np.inf)
        # edge (a, b) enters b by its move and a by the opposite step
        weights[(step,) + tuple(sites[edges[:, 1]].T + 1)] = lengths
        weights[(count - 1 - step,) + tuple(sites[edges[:, 0]].T + 1)] = lengths
        if np.count_nonzero(np.isfinite(weights)) != 2 * edges.shape[0]:
            raise DistanceError("graph repeats an edge")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "weights", weights)

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
    batching is what keeps graph construction affordable.
    """
    if not isinstance(grid, BoxGrid):
        raise MetricError("graph construction expects a BoxGrid")
    n = grid.dimension
    lattice = grid.points().reshape(grid.counts + (n,))
    keep = np.ones(grid.counts, dtype=bool)
    if mask_radius is not None:
        keep = np.linalg.norm(lattice, axis=-1) <= mask_radius
    ids = np.full(grid.counts, -1, dtype=int)
    ids[keep] = np.arange(int(np.sum(keep)))
    nodes = lattice[keep]
    steps = _lattice_steps(n)
    pairs = []
    # undirected: one step of each opposite pair
    for offset in steps[steps.shape[0] // 2:]:
        src_sl, dst_sl = [], []
        for axis, step in enumerate(offset):
            size = grid.counts[axis]
            if step == 0:
                src_sl.append(slice(None))
                dst_sl.append(slice(None))
            elif step > 0:
                src_sl.append(slice(0, size - 1))
                dst_sl.append(slice(1, size))
            else:
                src_sl.append(slice(1, size))
                dst_sl.append(slice(0, size - 1))
        a = ids[tuple(src_sl)].ravel()
        b = ids[tuple(dst_sl)].ravel()
        valid = (a >= 0) & (b >= 0)
        pairs.append(np.stack([a[valid], b[valid]], axis=1))
    edges = np.concatenate(pairs, axis=0)
    starts = nodes[edges[:, 0]]
    lengths = _chord_lengths(metric, starts, nodes[edges[:, 1]] - starts, order)
    return SampleGraph(nodes, np.argwhere(keep), edges, lengths)


def _window(step, shape):
    """Per lattice axis, the slice of a padded array that holds the source
    of the edge entering each inner site by ``step``."""
    return tuple(slice(1 - s, size - 1 - s) for s, size in zip(step, shape))


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


def dilation_estimate(reference, smoothed, pairs, grid, mask_radius=None, order=8):
    """max over the pair sample of |d_smoothed / d_reference - 1|.

    Both graphs share one node set, so every ratio compares shortest paths
    in the same combinatorial search space and only the edge weights move.
    """
    pairs = np.asarray(pairs, dtype=float)
    base = sample_graph(reference, grid, mask_radius=mask_radius, order=order)
    moved = sample_graph(smoothed, grid, mask_radius=mask_radius, order=order)
    snapped = base.snap(pairs.reshape(-1, pairs.shape[-1])).reshape(-1, 2)
    if np.any(snapped[:, 0] == snapped[:, 1]):
        raise DistanceError("zero-distance pair after snapping")
    sources, inverse = np.unique(snapped, return_inverse=True)
    rows = inverse.reshape(snapped.shape)[:, 0]
    d0 = csgraph.dijkstra(base, indices=sources)[rows, snapped[:, 1]]
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


def seeded_point_pairs(count, seed, radius, dimension=2, min_separation=0.2):
    """Reproducible well-separated point pairs in a ball."""
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

"""Curve lengths, grid-graph geodesic distances, and dilation estimates.

Distances come from shortest paths on a regular grid graph with full
diagonal neighborhoods, edge weights being quadrature lengths of straight
chords under the metric.  That upper-bounds the true geodesic distance up
to a discretization error which is estimated empirically by resolution
doubling, not proved.  The dilation estimator compares two metrics on the
same node set over a fixed seeded pair sample; it is a proxy for the full
dilation supremum and documented as such.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .metrics import BoxGrid, MetricError

__all__ = [
    "DistanceError",
    "curve_length",
    "SampleGraph",
    "sample_graph",
    "graph_distance",
    "DilationReport",
    "dilation_estimate",
    "seeded_point_pairs",
]


class DistanceError(RuntimeError):
    """Domain escape, disconnection, or a degenerate pair."""


def _chord_lengths(metric, starts, chords, order):
    """Metric lengths of the straight chords from ``starts``: one Gauss rule
    of the given order per chord, all evaluated in a single metric batch."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)
    samples = (starts[:, None, :] + t[None, :, None] * chords[:, None, :]).reshape(
        -1, starts.shape[1]
    )
    g = metric.value(samples)
    tangents = np.repeat(chords, order, axis=0)
    speeds = np.sqrt(np.einsum("rij,ri,rj->r", g, tangents, tangents))
    return speeds.reshape(-1, order) @ (0.5 * weights)


def curve_length(polyline, metric, order=12, domain_radius=None):
    """Length of a polyline under the metric, per-segment Gauss quadrature."""
    vertices = np.atleast_2d(np.asarray(polyline, dtype=float))
    if vertices.shape[0] < 2:
        raise DistanceError("polyline needs at least two vertices")
    if domain_radius is not None:
        worst = float(np.max(np.linalg.norm(vertices, axis=1)))
        if worst > domain_radius:
            raise DistanceError(
                "curve leaves the domain (radius %.6g > %.6g)" % (worst, domain_radius)
            )
    chords = vertices[1:] - vertices[:-1]
    return float(np.sum(_chord_lengths(metric, vertices[:-1], chords, order)))


@dataclass(frozen=True)
class SampleGraph:
    """Grid nodes with full diagonal neighborhoods and metric edge lengths."""

    nodes: np.ndarray
    edges: np.ndarray
    lengths: np.ndarray
    resolution: tuple
    matrix: sparse.csr_matrix

    def __init__(self, nodes, edges, lengths, resolution):
        if np.any(lengths <= 0.0):
            raise DistanceError("edge lengths must be positive")
        count = nodes.shape[0]
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.concatenate([lengths, lengths])
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(count, count))
        parts = csgraph.connected_components(matrix, directed=False)[0]
        if parts != 1:
            raise DistanceError("graph is disconnected (%d components)" % parts)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "resolution", tuple(resolution))
        object.__setattr__(self, "matrix", matrix)

    def snap(self, point):
        point = np.asarray(point, dtype=float).reshape(-1)
        return int(np.argmin(np.einsum("ri,ri->r", self.nodes - point, self.nodes - point)))


def _neighbor_offsets(dimension):
    offsets = []
    for raw in np.ndindex(*((3,) * dimension)):
        step = np.array(raw) - 1
        if not np.any(step):
            continue
        # undirected: keep one representative of each +-pair
        first = step[np.nonzero(step)[0][0]]
        if first > 0:
            offsets.append(step)
    return offsets


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
    pairs = []
    for offset in _neighbor_offsets(n):
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
    return SampleGraph(nodes, edges, lengths, grid.counts)


def graph_distance(graph, p, q):
    """Shortest-path length between the nodes nearest to p and q.

    The source is the smaller snapped index, so symmetry in (p, q) holds
    exactly rather than up to summation order.
    """
    i, j = graph.snap(p), graph.snap(q)
    src, dst = min(i, j), max(i, j)
    dist = csgraph.dijkstra(graph.matrix, directed=False, indices=[src])[0, dst]
    if not np.isfinite(dist):
        raise DistanceError("nodes are disconnected")
    return float(dist)


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
    snapped = np.array([[base.snap(p), base.snap(q)] for p, q in pairs])
    if np.any(snapped[:, 0] == snapped[:, 1]):
        raise DistanceError("zero-distance pair after snapping")
    sources = np.unique(snapped)
    index_of = {int(s): k for k, s in enumerate(sources)}
    dist_base = csgraph.dijkstra(base.matrix, directed=False, indices=sources)
    dist_moved = csgraph.dijkstra(moved.matrix, directed=False, indices=sources)
    deviations = np.empty(len(snapped))
    for row, (i, j) in enumerate(snapped):
        d0 = dist_base[index_of[int(i)], j]
        d1 = dist_moved[index_of[int(i)], j]
        if not (np.isfinite(d0) and np.isfinite(d1)) or d0 == 0.0:
            raise DistanceError("degenerate pair %d" % row)
        deviations[row] = abs(d1 / d0 - 1.0)
    return DilationReport(
        pairs=snapped,
        deviations=deviations,
        max_deviation=float(np.max(deviations)),
    )


def seeded_point_pairs(count, seed, radius, dimension=2, min_separation=0.2):
    """Reproducible well-separated point pairs in a ball."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        raw = rng.standard_normal((2, dimension))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        scale = radius * rng.uniform(0.0, 1.0, size=2) ** (1.0 / dimension)
        p, q = raw * scale[:, None]
        if np.linalg.norm(p - q) >= min_separation:
            out.append((p, q))
    return np.asarray(out)

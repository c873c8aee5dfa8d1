"""Chord length, graph distance, and dilation estimator tests.

The library's lattice shortest paths are checked bit for bit against
scipy's Dijkstra, which only the tests import.

Frozen constants come from scripts/make_fixtures.py: chord lengths by
adaptive 1-D quadrature, the graph value from a run at ten times the
resolution used here.
"""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.sparse import csgraph

from eqmollify import distances
from eqmollify.distances import (
    DistanceError,
    DilationReport,
    SampleGraph,
    _chord_lengths,
    _lattice_distances,
    _lattice_steps,
    dilation_estimate,
    sample_graph,
    seeded_point_pairs,
)
from eqmollify.experiments import _kernel_for, _smoothed_field
from eqmollify.kernel import MollifierKernel
from eqmollify.metrics import (
    BoxGrid,
    a_nu,
    conformal_metric,
    constant_metric,
    mollify_metric,
)
from eqmollify.scenarios import build_scenario

SPHERE_DIAMETER_CHORD = 3.0390510195030829
SPHERE_OFFSET_CHORD = 2.8628008576685842
GRAPH_OFFSET_ORACLE = 2.9050347867753872

OFFSET_PAIR = ((-0.7, -0.5), (0.8, 0.4))


def sphere_metric():
    return conformal_metric(
        lambda x: 4.0 / (1.0 + np.einsum("ri,ri->r", x, x)) ** 2
    )


def curve_length(polyline, metric, order=12):
    """Length of a polyline under the metric: the sum of the metric lengths
    of its chords, one Gauss rule of the given order per chord."""
    vertices = np.asarray(polyline, dtype=float)
    chords = vertices[1:] - vertices[:-1]
    return float(np.sum(_chord_lengths(metric, vertices[:-1], chords, order)))


def graph_distance(graph, p, q):
    """Shortest-path length between the nodes nearest to p and q, swept
    from the smaller snapped index, so that it is exactly symmetric."""
    i, j = sorted(graph.snap([p, q]))
    return float(_lattice_distances(graph, [i])[0, j])


def chord(a, b, segments):
    t = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return np.asarray(a) * (1.0 - t) + np.asarray(b) * t


def step_index(sites, a, b):
    """The place among ``_lattice_steps`` of the step from site a into
    site b: its ``np.ndindex`` position, less one past the zero step."""
    dimension = sites.shape[1]
    code = (sites[b] - sites[a] + 1) @ 3 ** np.arange(dimension - 1, -1, -1)
    return code - (code > (3 ** dimension - 1) // 2)


def entering(graph, a, b):
    """The lengths the graph stores for its edges from nodes a into nodes b."""
    a, b = np.asarray(a), np.asarray(b)
    k = step_index(graph.sites, a, b)
    return graph.weights[(k,) + tuple(graph.sites[b].T + 1)]


def lattice_from_edges(nodes, sites, edges, lengths):
    """A graph built by the former edge-list route: each edge's length is
    written at the site it enters, by its step, and at the site it leaves,
    by the opposite step, on the lattice of the sites padded to two cells
    past the highest one."""
    count = 3 ** sites.shape[1] - 1
    step = step_index(sites, edges[:, 0], edges[:, 1])
    weights = np.full((count,) + tuple(np.max(sites, axis=0) + 3), np.inf)
    weights[(step,) + tuple(sites[edges[:, 1]].T + 1)] = lengths
    weights[(count - 1 - step,) + tuple(sites[edges[:, 0]].T + 1)] = lengths
    return SampleGraph(nodes, sites, weights)


def edge_list_graph(metric, grid, mask_radius=None, order=8):
    """The former ``sample_graph``: node ids on the grid, each edge listed
    by slicing the grid for one step of each opposite pair, and one chord
    batch, then the weight lattice rebuilt from the list."""
    lattice = grid.points().reshape(grid.counts + (grid.dimension,))
    keep = np.ones(grid.counts, dtype=bool)
    if mask_radius is not None:
        keep = np.linalg.norm(lattice, axis=-1) <= mask_radius
    ids = np.full(grid.counts, -1, dtype=int)
    ids[keep] = np.arange(int(np.sum(keep)))
    nodes = lattice[keep]
    steps = _lattice_steps(grid.dimension)
    pairs = []
    for offset in steps[steps.shape[0] // 2:]:
        src = tuple(slice(max(0, -s), size - max(0, s)) for s, size in zip(offset, grid.counts))
        dst = tuple(slice(max(0, s), size - max(0, -s)) for s, size in zip(offset, grid.counts))
        a, b = ids[src].ravel(), ids[dst].ravel()
        valid = (a >= 0) & (b >= 0)
        pairs.append(np.stack([a[valid], b[valid]], axis=1))
    edges = np.concatenate(pairs, axis=0)
    starts = nodes[edges[:, 0]]
    lengths = _chord_lengths(metric, starts, nodes[edges[:, 1]] - starts, order)
    return edges, lattice_from_edges(nodes, np.argwhere(keep), edges, lengths)


def scipy_matrix(graph):
    """The graph as the symmetric sparse matrix that scipy's csgraph reads."""
    count = graph.nodes.shape[0]
    a, b = graph.edges.T
    lengths = entering(graph, a, b)
    return sparse.csr_matrix((np.concatenate([lengths, lengths]),
                              (np.concatenate([a, b]), np.concatenate([b, a]))),
                             shape=(count, count))


class TestCurveLength:
    def test_unit_segment_euclidean(self):
        length = curve_length([(0.0, 0.0), (1.0, 0.0)], constant_metric(np.eye(2)))
        assert abs(length - 1.0) < 1e-10

    def test_constant_rescale_doubles_length(self):
        poly = [(0.0, 0.0), (0.3, 0.4), (0.1, 0.9)]
        base = curve_length(poly, constant_metric(np.eye(2)))
        scaled = curve_length(poly, constant_metric(4.0 * np.eye(2)))
        assert abs(scaled - 2.0 * base) < 1e-12

    def test_diameter_chord_pin(self):
        poly = chord((-0.95, 0.0), (0.95, 0.0), 16)
        length = curve_length(poly, sphere_metric())
        assert abs(length - SPHERE_DIAMETER_CHORD) < 1e-10

    def test_offset_chord_pin(self):
        poly = chord(*OFFSET_PAIR, 16)
        length = curve_length(poly, sphere_metric())
        assert abs(length - SPHERE_OFFSET_CHORD) < 1e-10

    def test_subdivision_invariance(self):
        coarse = chord(*OFFSET_PAIR, 16)
        fine = chord(*OFFSET_PAIR, 32)
        metric = sphere_metric()
        assert abs(curve_length(coarse, metric) - curve_length(fine, metric)) < 1e-12


class TestSampleGraph:
    def test_grid_graph_shape(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        graph = sample_graph(constant_metric(np.eye(2)), grid)
        assert graph.nodes.shape == (441, 2)
        # each edge listed once, its length stored for both directions
        edges = graph.edges
        assert edges.shape == (2 * 20 * 21 + 2 * 20 * 20, 2)
        assert np.unique(np.sort(edges, axis=1), axis=0).shape == edges.shape
        lengths = entering(graph, edges[:, 0], edges[:, 1])
        assert np.all(lengths > 0.0)
        assert np.array_equal(entering(graph, edges[:, 1], edges[:, 0]), lengths)
        assert np.count_nonzero(np.isfinite(graph.weights)) == 2 * edges.shape[0]

    def test_interior_degree_two_dimensional(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (5, 5))
        graph = sample_graph(constant_metric(np.eye(2)), grid)
        center = graph.snap((0.0, 0.0))
        assert np.count_nonzero(graph.edges == center) == 8

    def test_interior_degree_three_dimensional(self):
        grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (5, 5, 5))
        graph = sample_graph(constant_metric(np.eye(3)), grid)
        center = graph.snap((0.0, 0.0, 0.0))
        assert np.count_nonzero(graph.edges == center) == 26

    def test_mask_drops_corners(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        graph = sample_graph(constant_metric(np.eye(2)), grid, mask_radius=0.95)
        assert graph.nodes.shape[0] < 441
        assert np.max(np.linalg.norm(graph.nodes, axis=1)) <= 0.95

    @pytest.mark.parametrize("dimension, count", [(2, 21), (2, 25), (3, 13)])
    def test_the_kept_sites_are_closed_under_signed_permutations(self, dimension, count):
        # on the scan box the mask keeps a site exactly when it keeps its
        # images, points on the mask sphere among them
        grid = BoxGrid((-0.95,) * dimension, (0.95,) * dimension, (count,) * dimension)
        graph = sample_graph(constant_metric(np.eye(dimension)), grid, mask_radius=0.95)
        keep = np.zeros(grid.counts, dtype=bool)
        keep[tuple(graph.sites.T)] = True
        assert not keep.all()
        for perm in itertools.permutations(range(dimension)):
            for flips in itertools.product((False, True), repeat=dimension):
                image = keep.transpose(perm)[tuple(slice(None, None, -1 if flip else 1)
                                                   for flip in flips)]
                assert np.array_equal(image, keep)
        held = {tuple(p) for p in graph.nodes}
        assert all(tuple(-p) in held and tuple(p[::-1]) in held for p in graph.nodes)

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("one_point_per_block", [False, True])
    def test_snap_picks_the_first_nearest_node(self, dimension, one_point_per_block,
                                               monkeypatch):
        if one_point_per_block:
            monkeypatch.setattr(distances, "_MAX_CELLS", 1)
        grid = BoxGrid((-0.95,) * dimension, (0.95,) * dimension, (13,) * dimension)
        graph = sample_graph(constant_metric(np.eye(dimension)), grid, mask_radius=0.95)
        points = seeded_point_pairs(64, 42, 0.9, dimension=dimension).reshape(-1, dimension)
        nodes = graph.nodes
        expected = [np.argmin(np.einsum("ri,ri->r", nodes - p, nodes - p)) for p in points]
        assert np.array_equal(graph.snap(points), expected)
        assert [graph.snap(p) for p in points] == expected
        assert isinstance(graph.snap(points[0]), int)

    def test_snap_ties_go_to_the_first_node(self):
        # nodes at -1, 0 and 1 per axis; (0.5, 0) is 0.5 from nodes 4 and 7
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (3, 3))
        graph = sample_graph(constant_metric(np.eye(2)), grid)
        assert graph.snap((0.5, 0.0)) == 4
        assert np.array_equal(graph.snap([(0.5, 0.0), (0.0, -0.5)]), [4, 3])

    def test_nonpositive_length_rejected(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (3, 3))
        with pytest.raises(DistanceError, match="positive"):
            sample_graph(constant_metric(np.zeros((2, 2))), grid)

    def test_empty_graph_rejected(self):
        # no site of a 2 x 2 lattice lies inside the inscribed disk
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (2, 2))
        with pytest.raises(DistanceError, match="no node"):
            sample_graph(constant_metric(np.eye(2)), grid, mask_radius=1.0)

    @pytest.mark.parametrize("counts, off_centre", [
        ((9, 9), False), ((9, 9), True), ((9, 6), True),
        ((5, 5, 5), False), ((5, 5, 5), True), ((5, 4, 3), True),
    ], ids=["9x9", "9x9-off", "9x6-off", "5x5x5", "5x5x5-off", "5x4x3-off"])
    @pytest.mark.parametrize("mask_radius", [None, 0.95])
    def test_weights_match_the_edge_list_route(self, counts, off_centre, mask_radius):
        # the edge list's lattice stops two cells past the highest kept
        # site, short of the grid's own pad where the mask cuts the high side
        graph = lattice_graph(counts, mask_radius, off_centre)
        metric, grid = lattice_inputs(counts, off_centre)
        edges, listed = edge_list_graph(metric, grid, mask_radius)
        assert np.array_equal(graph.nodes, listed.nodes)
        assert np.array_equal(graph.sites, listed.sites)
        assert np.array_equal(graph.edges, edges)
        shared = tuple(slice(0, size) for size in listed.weights.shape)
        rest = graph.weights.copy()
        assert np.array_equal(rest[shared], listed.weights)
        rest[shared] = np.inf
        assert np.all(rest == np.inf)

    @settings(max_examples=60, deadline=None)
    @given(dimension=st.sampled_from([2, 3]), data=st.data())
    def test_every_masked_lattice_with_a_node_is_connected(self, dimension, data):
        # a box and a ball keep one run of sites on each axis line, nested
        # in the runs beside it, so no component count is needed
        def draw(low, high):
            return np.array(data.draw(st.tuples(*[st.floats(low, high)] * dimension)))
        lo = draw(-1.5, 1.0)
        counts = data.draw(st.tuples(*[st.integers(2, 9)] * dimension))
        grid = BoxGrid(lo, lo + draw(0.05, 1.5), counts)
        radius = data.draw(st.floats(0.0, 2.0))
        keep = np.linalg.norm(grid.points(), axis=1) <= radius
        metric = constant_metric(np.eye(dimension))
        if not np.any(keep):
            with pytest.raises(DistanceError, match="no node"):
                sample_graph(metric, grid, mask_radius=radius)
            return
        graph = sample_graph(metric, grid, mask_radius=radius)
        assert graph.nodes.shape[0] == np.count_nonzero(keep)
        assert np.all(np.isfinite(_lattice_distances(graph, [0])))


def dijkstra(graph, sources):
    return csgraph.dijkstra(scipy_matrix(graph), directed=False, indices=sources)


# an off-centre box: a mask gives its padded lattice a different size per
# axis even where the counts agree
OFF_CENTRE = {2: ((-0.8, -1.0), (1.0, 0.7)), 3: ((-0.9, -1.0, -0.6), (1.0, 0.8, 0.9))}


def lattice_inputs(counts, off_centre=False):
    dimension = len(counts)
    lo, hi = OFF_CENTRE[dimension] if off_centre else ((-1.0,) * dimension, (1.0,) * dimension)
    metric = sphere_metric() if dimension == 2 else constant_metric(np.diag([1.0, 2.0, 0.5]))
    return metric, BoxGrid(lo, hi, counts)


def lattice_graph(counts, mask_radius=None, off_centre=False):
    return sample_graph(*lattice_inputs(counts, off_centre), mask_radius=mask_radius)


def with_edge_list(graph):
    return graph, graph.edges, entering(graph, *graph.edges.T)


_DRAWN_BASE = {2: with_edge_list(lattice_graph((7, 7), mask_radius=0.95)),
               3: with_edge_list(lattice_graph((4, 4, 4)))}


def corner_nodes(graph):
    """The node furthest out along each of the 2^n lattice diagonals."""
    signs = np.array(list(np.ndindex(*((2,) * graph.sites.shape[1])))) * 2 - 1
    return np.unique(np.argmax(graph.sites @ signs.T, axis=0))


class TestLatticeDistances:
    """The lattice sweep returns scipy's Dijkstra distances bit for bit."""

    @pytest.mark.parametrize("counts, off_centre", [
        ((9, 9), False), ((9, 9), True), ((9, 6), True),
        ((5, 5, 5), False), ((5, 5, 5), True), ((5, 4, 3), True),
    ], ids=["9x9", "9x9-off", "9x6-off", "5x5x5", "5x5x5-off", "5x4x3-off"])
    @pytest.mark.parametrize("mask_radius", [None, 0.95])
    @pytest.mark.parametrize("sources", ["one", "every", "corners"])
    def test_matches_dijkstra(self, counts, off_centre, mask_radius, sources):
        graph = lattice_graph(counts, mask_radius, off_centre)
        indices = {"one": np.array([graph.snap(np.full(len(counts), 0.3))]),
                   "every": np.arange(graph.nodes.shape[0]),
                   "corners": corner_nodes(graph)}[sources]
        assert np.array_equal(_lattice_distances(graph, indices), dijkstra(graph, indices))

    def test_source_blocks_move_no_bit(self, monkeypatch):
        graph = lattice_graph((9, 9), mask_radius=0.95)
        indices = np.arange(graph.nodes.shape[0])
        whole = _lattice_distances(graph, indices)
        # seven sources per sweep, the last block shorter
        monkeypatch.setattr(distances, "_MAX_CELLS", 7 * graph.weights[0].size)
        assert np.array_equal(_lattice_distances(graph, indices), whole)

    @settings(max_examples=40, deadline=None)
    @given(dimension=st.sampled_from([2, 3]), data=st.data())
    def test_matches_dijkstra_under_drawn_weights(self, dimension, data):
        # scaling each edge by 0.01-10 bends the shortest paths, so the
        # sweep needs more than one round to settle
        graph, edges, lengths = _DRAWN_BASE[dimension]
        scale = data.draw(arrays(np.float64, lengths.shape, elements=st.floats(0.01, 10.0)))
        drawn = lattice_from_edges(graph.nodes, graph.sites, edges, lengths * scale)
        indices = np.arange(graph.nodes.shape[0])
        assert np.array_equal(_lattice_distances(drawn, indices), dijkstra(drawn, indices))

    @pytest.mark.parametrize("epsilon", [None, 0.0125])
    def test_matches_dijkstra_on_the_benchmark_graphs(self, epsilon):
        # the radial-lipschitz benchmark's lattice, swept from every end of
        # its pairs, on the reference metric and on its smoothing at the
        # first epsilon
        scenario = build_scenario("radial_c11")
        metric = scenario.metric
        if epsilon is not None:
            metric = _smoothed_field(scenario, _kernel_for(epsilon, 2))
        graph = sample_graph(metric, scenario.scan_grid(25), mask_radius=scenario.scan_radius)
        pairs = seeded_point_pairs(64, 42, 0.9 * scenario.domain_radius,
                                   min_separation=0.4 * scenario.domain_radius)
        indices = np.unique(graph.snap(pairs.reshape(-1, 2)))
        assert indices.shape == (103,)
        assert np.array_equal(_lattice_distances(graph, indices), dijkstra(graph, indices))


class TestGraphDistance:
    def euclidean_graph(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        return sample_graph(constant_metric(np.eye(2)), grid)

    def sphere_graph(self, per_axis=33):
        grid = BoxGrid((-0.95, -0.95), (0.95, 0.95), (per_axis, per_axis))
        return sample_graph(sphere_metric(), grid, mask_radius=0.95)

    def test_axis_aligned_euclidean_exact(self):
        d = graph_distance(self.euclidean_graph(), (-0.5, 0.3), (0.4, 0.3))
        assert abs(d - 0.9) < 1e-12

    def test_diagonal_euclidean_exact(self):
        d = graph_distance(self.euclidean_graph(), (-0.5, -0.5), (0.5, 0.5))
        assert abs(d - np.sqrt(2.0)) < 1e-12

    def test_query_points_snap_to_nodes(self):
        graph = self.euclidean_graph()
        exact = graph_distance(graph, (-0.5, 0.3), (0.4, 0.3))
        snapped = graph_distance(graph, (-0.503, 0.298), (0.397, 0.304))
        assert snapped == exact

    def test_symmetry_exact(self):
        graph = self.sphere_graph()
        p, q = OFFSET_PAIR
        assert graph_distance(graph, p, q) == graph_distance(graph, q, p)

    def test_triangle_inequality_on_sampled_triples(self):
        graph = self.sphere_graph(21)
        rng = np.random.default_rng(7)
        nodes = graph.nodes
        for _ in range(20):
            a, b, c = nodes[rng.choice(len(nodes), size=3, replace=False)]
            dab = graph_distance(graph, a, b)
            dbc = graph_distance(graph, b, c)
            dac = graph_distance(graph, a, c)
            assert dac <= dab + dbc + 1e-12

    def test_resolution_doubling_non_increasing(self):
        grid = BoxGrid((-0.95, -0.95), (0.95, 0.95), (17, 17))
        coarse = sample_graph(sphere_metric(), grid, mask_radius=0.95)
        fine = sample_graph(sphere_metric(), BoxGrid(grid.lo, grid.hi, (33, 33)),
                            mask_radius=0.95)
        # query at coarse nodes, which survive refinement, so the fine graph
        # strictly adds paths between the same endpoints
        p = coarse.nodes[coarse.snap(OFFSET_PAIR[0])]
        q = coarse.nodes[coarse.snap(OFFSET_PAIR[1])]
        assert graph_distance(fine, p, q) <= graph_distance(coarse, p, q) + 1e-12

    def test_offset_pair_oracle_pin(self):
        d = graph_distance(self.sphere_graph(), *OFFSET_PAIR)
        gap = d - GRAPH_OFFSET_ORACLE
        # lattice paths only shorten under refinement, so the gap is one-sided
        assert 0.0 < gap < 1.5e-2

    def test_graph_dominates_chord_length(self):
        d = graph_distance(self.sphere_graph(), *OFFSET_PAIR)
        assert d > SPHERE_OFFSET_CHORD - 1e-12


def shortest_path(graph, p, q):
    """The node chain Dijkstra realizes between the snapped p and q, with
    its length, read back from the predecessor tree."""
    i, j = graph.snap(p), graph.snap(q)
    dist, pred = csgraph.dijkstra(scipy_matrix(graph), directed=False, indices=[i],
                                  return_predecessors=True)
    chain = [j]
    while chain[-1] != i:
        chain.append(int(pred[0, chain[-1]]))
    return float(dist[0, j]), graph.nodes[np.array(chain[::-1])]


class TestShortestPath:
    def test_chain_re_measures_to_distance(self):
        grid = BoxGrid((-0.95, -0.95), (0.95, 0.95), (33, 33))
        metric = sphere_metric()
        graph = sample_graph(metric, grid, mask_radius=0.95)
        dist, chain = shortest_path(graph, *OFFSET_PAIR)
        assert dist == graph_distance(graph, *OFFSET_PAIR)
        # same per-edge quadrature order as the graph, so the re-measured
        # chain reproduces the Dijkstra sum
        assert abs(curve_length(chain, metric, order=8) - dist) < 1e-12

    def test_chain_steps_are_grid_neighbors(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        graph = sample_graph(constant_metric(np.eye(2)), grid)
        _, chain = shortest_path(graph, (-0.5, -0.5), (0.6, 0.2))
        steps = np.diff(chain, axis=0) / 0.1
        assert np.max(np.abs(steps)) < 1.0 + 1e-9


class TestDilation:
    def grid(self):
        return BoxGrid((-0.95, -0.95), (0.95, 0.95), (25, 25))

    def test_identical_metrics_zero_deviation(self):
        metric = sphere_metric()
        pairs = seeded_point_pairs(6, 42, 0.9)
        report = dilation_estimate(metric, metric, pairs, self.grid(), mask_radius=0.95)
        assert report.max_deviation == 0.0

    def test_constant_rescale_unit_deviation(self):
        base = constant_metric(np.eye(2))
        scaled = constant_metric(4.0 * np.eye(2))
        pairs = seeded_point_pairs(6, 42, 0.9)
        report = dilation_estimate(base, scaled, pairs, self.grid())
        assert np.max(np.abs(report.deviations - 1.0)) < 1e-12

    def test_conformal_rescale_matches_sqrt_factor(self):
        factor = lambda x: 4.0 / (1.0 + np.einsum("ri,ri->r", x, x)) ** 2
        inflated = conformal_metric(lambda x: 1.01 * factor(x))
        pairs = seeded_point_pairs(6, 42, 0.9)
        report = dilation_estimate(sphere_metric(), inflated, pairs, self.grid(),
                                   mask_radius=0.95)
        assert np.max(np.abs(report.deviations - (np.sqrt(1.01) - 1.0))) < 1e-12

    def test_zero_distance_pair_rejected(self):
        pairs = [((0.5, 0.1), (0.503, 0.101))]
        with pytest.raises(DistanceError, match="zero-distance"):
            dilation_estimate(sphere_metric(), sphere_metric(), pairs, self.grid())

    def test_report_records_snapped_pairs(self):
        pairs = seeded_point_pairs(4, 42, 0.9)
        report = dilation_estimate(sphere_metric(), sphere_metric(), pairs,
                                   self.grid(), mask_radius=0.95)
        assert isinstance(report, DilationReport)
        assert np.all(report.deviations >= 0.0)
        assert report.pairs.shape == (4, 2)
        graph = sample_graph(sphere_metric(), self.grid(), mask_radius=0.95)
        assert np.array_equal(report.pairs, graph.snap(pairs.reshape(-1, 2)).reshape(-1, 2))

    def test_sweeping_every_end_moves_no_bit(self):
        # the estimate sweeps only the first ends, whose rows it reads: 56
        # of the 103 ends on the radial-lipschitz benchmark's pairs, at its
        # first epsilon
        scenario = build_scenario("radial_c11")
        grid, radius = scenario.scan_grid(25), scenario.scan_radius
        smoothed = _smoothed_field(scenario, _kernel_for(0.0125, 2))
        pairs = seeded_point_pairs(64, 42, 0.9 * scenario.domain_radius,
                                   min_separation=0.4 * scenario.domain_radius)
        report = dilation_estimate(scenario.metric, smoothed, pairs, grid, mask_radius=radius)
        ends = report.pairs
        every = np.unique(ends)
        assert np.unique(ends[:, 0]).shape == (56,) and every.shape == (103,)
        rows = np.searchsorted(every, ends[:, 0])
        d0, d1 = (_lattice_distances(sample_graph(metric, grid, mask_radius=radius),
                                     every)[rows, ends[:, 1]]
                  for metric in (scenario.metric, smoothed))
        assert np.array_equal(report.deviations, np.abs(d1 / d0 - 1.0))


    def test_shared_reference_is_built_once_across_threads(self, monkeypatch):
        # more threads than cores and a short switch interval: every
        # estimate must match its one-off and the reference graph is built once
        base = sphere_metric()
        factor = lambda x: 4.0 / (1.0 + np.einsum("ri,ri->r", x, x)) ** 2
        fields = [conformal_metric(lambda x, s=scale: s * factor(x))
                  for scale in (1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08)]
        pairs, grid = seeded_point_pairs(6, 42, 0.9), self.grid()
        expected = [dilation_estimate(base, field, pairs, grid, mask_radius=0.95).deviations
                    for field in fields]
        references = []
        build = distances.sample_graph
        monkeypatch.setattr(distances, "sample_graph",
                            lambda metric, *args, **kw: (metric is base and references.append(1))
                            or build(metric, *args, **kw))
        shared = distances._SharedReference(base)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(fields)) as pool:
                futures = [pool.submit(dilation_estimate, shared, field, pairs, grid,
                                       mask_radius=0.95) for field in fields]
                reports = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(references) == 1
        for report, deviations in zip(reports, expected):
            assert np.array_equal(report.deviations, deviations)

    def test_shared_reference_is_built_once_per_input(self, monkeypatch):
        # other pairs, another grid object, mask radius or order each get a
        # reference of their own, built once and matching the one-off estimate
        metric = sphere_metric()
        smooth = conformal_metric(lambda x: 4.04 / (1.0 + np.einsum("ri,ri->r", x, x)) ** 2)
        pairs, grid = seeded_point_pairs(6, 42, 0.9), self.grid()
        cases = [((pairs, grid), dict(mask_radius=0.95)),
                 ((pairs, self.grid()), dict(mask_radius=0.95)),
                 ((pairs[::-1], grid), dict(mask_radius=0.95)),
                 ((pairs, grid), dict(mask_radius=0.9)),
                 ((pairs, grid), dict(mask_radius=0.95, order=4))]
        expected = [dilation_estimate(metric, smooth, *args, **kw).deviations
                    for args, kw in cases]
        references = []
        build = distances.sample_graph
        monkeypatch.setattr(distances, "sample_graph",
                            lambda field, *args, **kw: (field is metric and references.append(1))
                            or build(field, *args, **kw))
        shared = distances._SharedReference(metric)
        for _ in range(2):
            for (args, kw), deviations in zip(cases, expected):
                report = dilation_estimate(shared, smooth, *args, **kw)
                assert np.array_equal(report.deviations, deviations)
        assert len(references) == len(cases)

    def test_mollified_deviation_shrinks_with_epsilon(self):
        metric = sphere_metric()
        pairs = seeded_point_pairs(6, 42, 0.9, min_separation=0.4)
        values = []
        for eps in (0.02, 0.01):
            smooth = mollify_metric(metric, MollifierKernel.create(2, eps, level=1))
            report = dilation_estimate(metric, smooth, pairs, self.grid(),
                                       mask_radius=0.95)
            values.append(report.max_deviation)
        assert values[1] < values[0] < 0.01


class TestArcLengthBound:
    def test_length_gap_bounded_by_deviation_over_ellipticity(self):
        # |l_smooth - l_base| for a curve is controlled by the largest
        # component deviation along it, its base length, and the inverse
        # ellipticity floor of the base metric
        metric = sphere_metric()
        smooth = mollify_metric(metric, MollifierKernel.create(2, 0.05, level=1))
        theta = np.linspace(0.0, 0.5 * np.pi, 65)
        arc = 0.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        l_base = curve_length(arc, metric)
        l_smooth = curve_length(arc, smooth)
        deviation = np.max(np.abs(smooth.value(arc) - metric.value(arc)))
        floor = a_nu(metric, BoxGrid((-1.0, -1.0), (1.0, 1.0), (41, 41)))
        assert abs(l_smooth - l_base) <= deviation * l_base / floor


class TestSeededPairs:
    def test_deterministic_and_separated(self):
        first = seeded_point_pairs(16, 42, 0.9)
        second = seeded_point_pairs(16, 42, 0.9)
        assert np.array_equal(first, second)
        assert first.shape == (16, 2, 2)
        assert np.max(np.linalg.norm(first.reshape(-1, 2), axis=1)) <= 0.9
        gaps = np.linalg.norm(first[:, 0] - first[:, 1], axis=1)
        assert np.min(gaps) >= 0.2

    def test_seed_changes_sample(self):
        assert not np.array_equal(seeded_point_pairs(8, 1, 0.9),
                                  seeded_point_pairs(8, 2, 0.9))

    @pytest.mark.parametrize("separation", [0.2, 0.5])
    def test_separation_of_a_diameter_or_more_raises_before_any_draw(self, monkeypatch,
                                                                     separation):
        # no two points of a ball of radius 0.1 lie 0.2 apart (almost
        # surely), so the rejection loop would never end
        monkeypatch.setattr(distances, "default_rng",
                            lambda seed: pytest.fail("drew from the generator"))
        with pytest.raises(DistanceError, match="diameter"):
            seeded_point_pairs(1, 0, 0.1, min_separation=separation)

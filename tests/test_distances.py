"""Chord length, graph distance, and dilation estimator tests.

The library's lattice shortest paths are checked bit for bit against
scipy's Dijkstra, which only the tests import.

Frozen constants come from scripts/make_fixtures.py: chord lengths by
adaptive 1-D quadrature, the graph value from a run at ten times the
resolution used here.
"""

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


def scipy_matrix(graph):
    """The graph as the symmetric sparse matrix that scipy's csgraph reads."""
    count = graph.nodes.shape[0]
    a, b = graph.edges.T
    return sparse.csr_matrix((np.concatenate([graph.lengths, graph.lengths]),
                              (np.concatenate([a, b]), np.concatenate([b, a]))),
                             shape=(count, count))


def entering(graph, a, b):
    """The length the graph stores for its edge from node a into node b."""
    steps = _lattice_steps(graph.sites.shape[1])
    k = np.flatnonzero(np.all(steps == graph.sites[b] - graph.sites[a], axis=1))[0]
    return graph.weights[(k,) + tuple(graph.sites[b] + 1)]


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
        assert np.all(graph.lengths > 0.0)
        # each edge listed once, its length stored for both directions
        assert np.unique(np.sort(graph.edges, axis=1), axis=0).shape == graph.edges.shape
        for (a, b), length in zip(graph.edges, graph.lengths):
            assert entering(graph, a, b) == entering(graph, b, a) == length

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

    def test_disconnected_components_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
        edges = np.array([[0, 1], [2, 3]])
        with pytest.raises(DistanceError, match="disconnected"):
            SampleGraph(nodes, nodes.astype(int), edges, np.array([1.0, 1.0]))

    def test_nonpositive_length_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DistanceError, match="positive"):
            SampleGraph(nodes, nodes.astype(int), np.array([[0, 1]]), np.array([0.0]))


def dijkstra(graph, sources):
    return csgraph.dijkstra(scipy_matrix(graph), directed=False, indices=sources)


# an off-centre box: a mask gives its padded lattice a different size per
# axis even where the counts agree
OFF_CENTRE = {2: ((-0.8, -1.0), (1.0, 0.7)), 3: ((-0.9, -1.0, -0.6), (1.0, 0.8, 0.9))}


def lattice_graph(counts, mask_radius=None, off_centre=False):
    dimension = len(counts)
    lo, hi = OFF_CENTRE[dimension] if off_centre else ((-1.0,) * dimension, (1.0,) * dimension)
    metric = sphere_metric() if dimension == 2 else constant_metric(np.diag([1.0, 2.0, 0.5]))
    return sample_graph(metric, BoxGrid(lo, hi, counts), mask_radius=mask_radius)


_DRAWN_BASE = {2: lattice_graph((7, 7), mask_radius=0.95), 3: lattice_graph((4, 4, 4))}


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
        graph = _DRAWN_BASE[dimension]
        scale = data.draw(arrays(np.float64, graph.lengths.shape,
                                 elements=st.floats(0.01, 10.0)))
        drawn = SampleGraph(graph.nodes, graph.sites, graph.edges, graph.lengths * scale)
        indices = np.arange(graph.nodes.shape[0])
        assert np.array_equal(_lattice_distances(drawn, indices), dijkstra(drawn, indices))

    @pytest.mark.parametrize("epsilon", [None, 0.0125])
    def test_matches_dijkstra_on_the_benchmark_graphs(self, epsilon):
        # the radial-lipschitz benchmark's lattice and sources, on the
        # reference metric and on its smoothing at the first epsilon
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

    def test_disconnected_lattice_reports_its_component_count(self):
        # two 5 x 2 blocks either side of an empty column, and a lone site
        sites = np.array([(i, j) for i in range(5) for j in (0, 1, 3, 4)] + [(0, 6)])
        edges = np.array([(a, b) for a in range(len(sites)) for b in range(a + 1, len(sites))
                          if np.max(np.abs(sites[a] - sites[b])) == 1])
        lengths = np.linalg.norm(sites[edges[:, 1]] - sites[edges[:, 0]], axis=1)
        with pytest.raises(DistanceError, match=r"disconnected \(3 components\)"):
            SampleGraph(sites.astype(float), sites, edges, lengths)

    @pytest.mark.parametrize("sites, edges, message", [
        ([[0, 0], [2, 0]], [[0, 1]], "lattice neighbours"),
        ([[0, 0], [1, 1]], [[0, 1], [1, 1]], "lattice neighbours"),
        ([[0, 0], [1, 1]], [[0, 1], [1, 0]], "repeats an edge"),
        ([[0, 0], [0, 0]], [[0, 1]], "distinct lattice sites"),
        ([[0, -1], [0, 0]], [[0, 1]], "non-negative lattice site"),
        ([[0, 0, 0], [0, 0, 1]], [[0, 1]], "non-negative lattice site"),
    ])
    def test_malformed_lattice_rejected(self, sites, edges, message):
        # the nodes are planar, so three-dimensional sites do not fit them
        sites, edges = np.array(sites), np.array(edges)
        nodes = sites[:, :2].astype(float)
        with pytest.raises(DistanceError, match=message):
            SampleGraph(nodes, sites, edges, np.ones(edges.shape[0]))


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

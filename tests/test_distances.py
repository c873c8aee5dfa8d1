"""Curve length, graph distance, and dilation estimator tests.

Frozen constants come from scripts/make_fixtures.py: chord lengths by
adaptive 1-D quadrature, the graph value from a run at ten times the
resolution used here.
"""

import numpy as np
import pytest
from scipy.sparse import csgraph

from eqmollify.distances import (
    DistanceError,
    DilationReport,
    SampleGraph,
    curve_length,
    dilation_estimate,
    graph_distance,
    sample_graph,
    seeded_point_pairs,
)
from eqmollify.kernel import MollifierKernel
from eqmollify.metrics import (
    BoxGrid,
    a_nu,
    conformal_metric,
    constant_metric,
    mollify_metric,
)

SPHERE_DIAMETER_CHORD = 3.0390510195030829
SPHERE_OFFSET_CHORD = 2.8628008576685842
GRAPH_OFFSET_ORACLE = 2.9050347867753872

OFFSET_PAIR = ((-0.7, -0.5), (0.8, 0.4))


def sphere_metric():
    return conformal_metric(
        lambda x: 4.0 / (1.0 + np.einsum("ri,ri->r", x, x)) ** 2
    )


def chord(a, b, segments):
    t = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return np.asarray(a) * (1.0 - t) + np.asarray(b) * t


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

    def test_single_vertex_rejected(self):
        with pytest.raises(DistanceError, match="two vertices"):
            curve_length([(0.0, 0.0)], constant_metric(np.eye(2)))

    def test_domain_escape_rejected(self):
        with pytest.raises(DistanceError, match="domain"):
            curve_length([(0.0, 0.0), (1.2, 0.0)], constant_metric(np.eye(2)),
                         domain_radius=1.0)


class TestSampleGraph:
    def test_grid_graph_shape(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        graph = sample_graph(constant_metric(np.eye(2)), grid)
        assert graph.nodes.shape == (441, 2)
        assert np.all(graph.lengths > 0.0)
        assert (graph.matrix - graph.matrix.T).nnz == 0

    def test_interior_degree_two_dimensional(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (5, 5))
        graph = sample_graph(constant_metric(np.eye(2)), grid)
        center = graph.snap((0.0, 0.0))
        assert graph.matrix[center].nnz == 8

    def test_interior_degree_three_dimensional(self):
        grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (5, 5, 5))
        graph = sample_graph(constant_metric(np.eye(3)), grid)
        center = graph.snap((0.0, 0.0, 0.0))
        assert graph.matrix[center].nnz == 26

    def test_mask_drops_corners(self):
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        graph = sample_graph(constant_metric(np.eye(2)), grid, mask_radius=0.95)
        assert graph.nodes.shape[0] < 441
        assert np.max(np.linalg.norm(graph.nodes, axis=1)) <= 0.95

    def test_disconnected_components_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
        edges = np.array([[0, 1], [2, 3]])
        with pytest.raises(DistanceError, match="disconnected"):
            SampleGraph(nodes, edges, np.array([1.0, 1.0]), (4,))

    def test_nonpositive_length_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DistanceError, match="positive"):
            SampleGraph(nodes, np.array([[0, 1]]), np.array([0.0]), (2,))


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
    dist, pred = csgraph.dijkstra(graph.matrix, directed=False, indices=[i],
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

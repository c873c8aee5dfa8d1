"""Connection coefficients, sectional curvature, and bound scans.

Model-metric values are exact closed forms (three constant-curvature
spaces in two dimensions, one in three).  The piecewise-quadratic radial
bounds are pinned against the dense one-dimensional scan of the analytic
branch formula in scripts/make_fixtures.py section "curvature"; the
library route goes through the full Christoffel/Riemann machinery and
never sees that formula.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmollify import curvature
from eqmollify.kernel import MollifierKernel
from eqmollify.curvature import (
    CurvatureError,
    FD_STEP,
    _christoffel_terms,
    _metric_jet,
    _section_values,
    curvature_bounds,
    sectional_curvature,
)
from eqmollify.metrics import (
    BoxGrid,
    MetricField,
    chart_smooth_metric,
    conformal_metric,
    constant_metric,
    mollify_metric,
    radial_conformal_metric,
)
from eqmollify.scenarios import build_scenario
from test_metrics import aniso3_fn

# frozen oracle values, scripts/make_fixtures.py section "curvature"
RADIAL_BOUNDS_LOWER = -1.9624110128653827
RADIAL_BOUNDS_UPPER = 0.12606837506570712
RADIAL_KINK_JUMP = 0.97309565095759643

KINK_T = 0.45**2
RADIAL_C0 = 1.0 + 0.3 * KINK_T - 0.5 * KINK_T**2
RADIAL_C1 = 0.3 - KINK_T


def sphere_metric(dimension=2):
    return radial_conformal_metric(
        lambda t: 4.0 / (1.0 + t) ** 2,
        lambda t: -8.0 / (1.0 + t) ** 3,
        lambda t: 24.0 / (1.0 + t) ** 4,
        dimension=dimension,
    )


def linear_pullback(metric, matrix):
    """The field A^T g(A x) A with analytic derivatives by the chain rule,
    for a fixed matrix A and a metric with analytic derivatives."""
    mat = np.asarray(matrix, dtype=float)

    def first(pts):
        d = np.einsum("ma,rmij->raij", mat, metric.first_derivative(pts @ mat.T))
        return np.einsum("ji,rajk,kl->rail", mat, d, mat)

    def second(pts):
        d2 = np.einsum("ma,qb,rmqij->rabij", mat, mat, metric.second_derivative(pts @ mat.T))
        return np.einsum("ji,rabjk,kl->rabil", mat, d2, mat)

    return MetricField(fn=lambda pts: mat.T @ metric.value(pts @ mat.T) @ mat,
                       dimension=metric.dimension, first_derivative=first,
                       second_derivative=second)


def poincare_metric():
    return radial_conformal_metric(
        lambda t: 4.0 / (1.0 - t) ** 2,
        lambda t: 8.0 / (1.0 - t) ** 3,
        lambda t: 24.0 / (1.0 - t) ** 4,
    )


def radial_c11_metric():
    return radial_conformal_metric(
        lambda t: np.where(t <= KINK_T, 1.0 + 0.3 * t - 0.5 * t**2,
                           RADIAL_C0 + RADIAL_C1 * (t - KINK_T) + 0.8 * (t - KINK_T) ** 2),
        lambda t: np.where(t <= KINK_T, 0.3 - t, RADIAL_C1 + 1.6 * (t - KINK_T)),
        lambda t: np.where(t <= KINK_T, -1.0, 1.6),
    )


def bare(metric):
    """The same field without its derivative callables, so curvature takes
    finite-difference jets of it."""
    return MetricField(fn=metric.fn, dimension=metric.dimension)


PTS = np.array([[0.3, 0.1], [0.0, 0.0], [-0.5, 0.45], [0.62, -0.3]])
E1 = np.tile(np.array([1.0, 0.0]), (len(PTS), 1))
E2 = np.tile(np.array([0.0, 1.0]), (len(PTS), 1))


def christoffel(metric, points, step=FD_STEP):
    """Connection coefficients, indexed [point, upper, lower, lower], from
    the jet the field picks."""
    return _christoffel_terms(*_metric_jet(metric, points, step))[0]


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        gamma = christoffel(constant_metric(np.eye(2)), PTS)
        assert np.max(np.abs(gamma)) == 0.0

    def test_conformal_closed_form(self):
        # for c * identity the symbols are built from d ln(c) / 2
        g = sphere_metric()
        x = np.array([[0.4, -0.25]])
        gamma = christoffel(g, x)[0]
        t = float(np.sum(x**2))
        dlam = -4.0 * x[0] / (1.0 + t)
        expected = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    expected[k, i, j] = 0.5 * (
                        (i == k) * dlam[j] + (j == k) * dlam[i] - (i == j) * dlam[k]
                    )
        assert np.max(np.abs(gamma - expected)) < 1e-14

    def test_symmetric_in_lower_indices(self):
        gamma = christoffel(poincare_metric(), PTS)
        assert np.array_equal(gamma, np.swapaxes(gamma, 2, 3))

    def test_fd_route_matches_analytic(self):
        g = sphere_metric()
        gamma_a = christoffel(g, PTS)
        gamma_fd = christoffel(bare(g), PTS, step=1e-5)
        assert np.max(np.abs(gamma_a - gamma_fd)) < 1e-8


def reference_jet(metric, points, step):
    """The 2-jet from the 1 + 2n + 4 C(n, 2) point stencil: the centre,
    +-step along each axis, and the four diagonal corners of each plane."""
    n = metric.dimension
    eye = step * np.eye(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    offsets = [np.zeros(n)] + [s * eye[a] for a in range(n) for s in (1.0, -1.0)]
    offsets += [sa * eye[a] + sb * eye[b] for a, b in pairs
                for sa in (1.0, -1.0) for sb in (1.0, -1.0)]
    stencil = np.asarray(offsets)
    batch = (points[:, None, :] + stencil[None, :, :]).reshape(-1, n)
    values = metric.value(batch).reshape(points.shape[0], stencil.shape[0], n, n)
    g0 = values[:, 0]
    dg = np.empty((points.shape[0], n, n, n))
    d2g = np.empty((points.shape[0], n, n, n, n))
    for a in range(n):
        plus, minus = values[:, 1 + 2 * a], values[:, 2 + 2 * a]
        dg[:, a] = (plus - minus) / (2.0 * step)
        d2g[:, a, a] = (plus - 2.0 * g0 + minus) / step**2
    for k, (a, b) in enumerate(pairs):
        pp, pm, mp, mm = (values[:, 1 + 2 * n + 4 * k + j] for j in range(4))
        d2g[:, a, b] = d2g[:, b, a] = (pp - pm - mp + mm) / (4.0 * step**2)
    return g0, dg, d2g


class TestFiniteDifferenceJet:
    @pytest.mark.parametrize("epsilon", [0.05, 1.220703125e-05])
    def test_chart_smoothed_sphere_matches_the_reference_stencil(self, epsilon):
        sphere = build_scenario("round_sphere_chart")
        field = chart_smooth_metric(sphere.metric, sphere.atlas[0],
                                    MollifierKernel.create(2, epsilon, level=1))
        pts = np.array([[0.3, 0.1], [0.0, 0.0], [-0.5, 0.45], [0.62, -0.3], [0.9, 0.2]])
        for got, want in zip(_metric_jet(field, pts, step=5e-3),
                             reference_jet(field, pts, 5e-3)):
            assert np.array_equal(got, want)

    def test_three_dimensional_conformal_field_matches_the_reference_stencil(self):
        field = conformal_metric(
            lambda p: 1.0 + 0.3 * np.sin(p[:, 0] + 2.0 * p[:, 1] * p[:, 2]), dimension=3)
        pts = np.array([[0.2, 0.1, -0.3], [0.0, 0.0, 0.0], [0.5, -0.4, 0.1]])
        for got, want in zip(_metric_jet(field, pts, step=1e-4),
                             reference_jet(field, pts, 1e-4)):
            assert np.array_equal(got, want)


class TestSectionalCurvature:
    def test_constant_curvature_models(self):
        assert np.max(np.abs(sectional_curvature(sphere_metric(), PTS, E1, E2) - 1.0)) < 1e-10
        assert np.max(np.abs(sectional_curvature(poincare_metric(), PTS, E1, E2) + 1.0)) < 1e-10
        assert np.max(np.abs(sectional_curvature(constant_metric(np.eye(2)), PTS, E1, E2))) < 1e-10

    def test_three_dimensional_round_sphere(self):
        g = sphere_metric(dimension=3)
        pts = np.array([[0.2, 0.1, -0.3], [0.0, 0.0, 0.0], [0.5, -0.4, 0.1]])
        rng = np.random.default_rng(7)
        frames = np.linalg.qr(rng.standard_normal((len(pts), 3, 2)))[0]
        k = sectional_curvature(g, pts, frames[:, :, 0], frames[:, :, 1])
        assert np.max(np.abs(k - 1.0)) < 1e-10

    def test_finite_differences_against_analytic(self):
        k_fd = sectional_curvature(bare(sphere_metric()), PTS, E1, E2, step=1e-4)
        assert np.max(np.abs(k_fd - 1.0)) < 1e-3
        g3 = sphere_metric(dimension=3)
        pts = np.array([[0.2, 0.1, -0.3]])
        x = np.array([[1.0, 0.0, 0.0]])
        y = np.array([[0.3, 0.9, 0.1]])
        k3 = sectional_curvature(bare(g3), pts, x, y, step=1e-4)
        assert abs(float(k3[0]) - 1.0) < 1e-3

    def test_plane_determines_the_value(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((len(PTS), 2))
        b = rng.standard_normal((len(PTS), 2))
        spread = sectional_curvature(sphere_metric(), PTS, a, b)
        assert np.max(np.abs(spread - 1.0)) < 1e-9

    def test_basis_change_within_a_plane(self):
        g = sphere_metric(dimension=3)
        pts = np.array([[0.25, -0.1, 0.4]])
        x = np.array([[1.0, 0.2, -0.3]])
        y = np.array([[0.1, 1.1, 0.5]])
        k1 = sectional_curvature(g, pts, x, y)
        k2 = sectional_curvature(g, pts, 2.0 * x + 0.7 * y, -0.4 * x + 1.3 * y)
        assert abs(float(k1[0]) - float(k2[0])) < 1e-6

    def test_isometry_invariance(self):
        skewed = linear_pullback(sphere_metric(), [[1.2, 0.3], [0.0, 0.9]])
        theta = 0.83
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        pushed = linear_pullback(skewed, rot.T)
        x = np.array([[0.3, -0.2], [0.1, 0.4]])
        u = np.array([[1.0, 0.4], [0.2, 1.0]])
        v = np.array([[-0.3, 1.0], [1.0, -0.1]])
        k = sectional_curvature(skewed, x, u, v)
        k_moved = sectional_curvature(pushed, x @ rot.T, u @ rot.T, v @ rot.T)
        assert np.max(np.abs(k - k_moved)) < 1e-8

    def test_degenerate_section_rejected(self):
        x = np.array([[1.0, 0.5]])
        with pytest.raises(CurvatureError, match="degenerate"):
            sectional_curvature(sphere_metric(), np.array([[0.2, 0.1]]), x, 3.0 * x)

    def test_radial_branch_formula(self):
        g = radial_c11_metric()
        radii = np.array([0.2, 0.43, 0.6, 0.8])
        pts = np.stack([radii, np.zeros_like(radii)], axis=1)
        t = radii**2
        p = np.where(t <= KINK_T, 1.0 + 0.3 * t - 0.5 * t**2,
                     RADIAL_C0 + RADIAL_C1 * (t - KINK_T) + 0.8 * (t - KINK_T) ** 2)
        dp = np.where(t <= KINK_T, 0.3 - t, RADIAL_C1 + 1.6 * (t - KINK_T))
        d2p = np.where(t <= KINK_T, -1.0, 1.6)
        lp = dp / p
        expected = -2.0 * (lp + t * (d2p / p - lp**2)) / p
        got = sectional_curvature(g, pts, E1, E2)
        assert np.max(np.abs(got - expected)) < 1e-12


class TestCurvatureBounds:
    def test_sphere_scan_is_pinched_at_one(self):
        grid = BoxGrid([-0.95, -0.95], [0.95, 0.95], (33, 33))
        bounds = curvature_bounds(sphere_metric(), grid, mask_radius=0.95)
        assert abs(bounds.lower - 1.0) < 1e-9
        assert abs(bounds.upper - 1.0) < 1e-9

    def test_radial_scan_matches_the_dense_fixture(self):
        grid = BoxGrid([-0.95, -0.95], [0.95, 0.95], (65, 65))
        bounds = curvature_bounds(radial_c11_metric(), grid,
                                  mask_radius=0.95, exclusion_radii=(0.45,),
                                  exclusion_width=0.02)
        assert abs(bounds.lower - RADIAL_BOUNDS_LOWER) < 1e-3
        assert abs(bounds.upper - RADIAL_BOUNDS_UPPER) < 5e-3
        assert 0.7 < np.linalg.norm(bounds.lower_point) < 0.85

    def test_exclusion_band_matters_near_the_kink(self):
        grid = BoxGrid([-0.95, -0.95], [0.95, 0.95], (65, 65))
        wide = curvature_bounds(radial_c11_metric(), grid, mask_radius=0.95,
                                exclusion_radii=(0.45,), exclusion_width=0.02)
        narrow = curvature_bounds(radial_c11_metric(), grid, mask_radius=0.95,
                                  exclusion_radii=(0.45,), exclusion_width=1e-6)
        assert narrow.upper > wide.upper + 0.02

    def test_mask_radius_trims_the_grid(self):
        grid = BoxGrid([-2.0, -2.0], [2.0, 2.0], (21, 21))
        pts = grid.points()
        expected = int(np.sum(np.linalg.norm(pts, axis=1) <= 1.0))
        bounds = curvature_bounds(constant_metric(np.eye(2)), grid, mask_radius=1.0)
        assert bounds.point_count == expected

    @pytest.mark.parametrize("name, count, scanned", [
        ("round_sphere_chart", 21, 309), ("radial_c11", 65, None)])
    def test_the_scan_set_is_closed_under_signed_permutations(self, monkeypatch,
                                                              name, count, scanned):
        # the report's scan: mirrored axes give every point on the mask
        # circle, or on an exclusion band's edge, the verdict of its images
        scenario = build_scenario(name)
        seen = []
        jet = curvature._lowered_curvature
        monkeypatch.setattr(curvature, "_lowered_curvature",
                            lambda metric, points, step: seen.append(points) or
                            jet(metric, points, step))
        bounds = curvature_bounds(scenario.metric, scenario.scan_grid(count),
                                  mask_radius=scenario.scan_radius,
                                  exclusion_radii=scenario.discontinuity_radii,
                                  exclusion_width=0.02)
        points, = seen
        assert bounds.point_count == points.shape[0] == (scanned or points.shape[0])
        held = {tuple(p) for p in points}
        for perm in itertools.permutations(range(points.shape[1])):
            for signs in itertools.product((1.0, -1.0), repeat=points.shape[1]):
                assert all(tuple(q) in held for q in points[:, perm] * signs)

    @pytest.mark.parametrize("metric", [sphere_metric(), radial_c11_metric()],
                             ids=["sphere", "radial"])
    def test_two_dimensional_bounds_are_the_point_extremes(self, metric):
        # in two dimensions the one plane's curvature is the whole story
        grid = BoxGrid([-0.95, -0.95], [0.95, 0.95], (33, 33))
        bounds = curvature_bounds(metric, grid, mask_radius=0.95)
        pts = grid.points()
        pts = pts[np.linalg.norm(pts, axis=1) <= 0.95]
        k = sectional_curvature(metric, pts, np.tile(E1[0], (len(pts), 1)),
                                np.tile(E2[0], (len(pts), 1)))
        assert abs(bounds.lower - np.min(k)) <= 1e-13 * abs(np.min(k))
        assert abs(bounds.upper - np.max(k)) <= 1e-13 * abs(np.max(k))

    def test_three_dimensional_bounds_enclose_a_dense_plane_sweep(self):
        # the exact extremes over all planes against random planes: 400 at
        # every grid point, then 20000 at each extreme's own point
        field = MetricField(fn=aniso3_fn, dimension=3)
        grid = BoxGrid([-0.6] * 3, [0.6] * 3, (5, 5, 5))
        bounds = curvature_bounds(field, grid)
        rng = np.random.default_rng(3)

        def sweep(points, draws):
            g, lowered = curvature._lowered_curvature(field, points, FD_STEP)
            spread = lambda a: np.tile(a, (draws,) + (1,) * (a.ndim - 1))
            x, y = rng.standard_normal((2, draws * len(points), 3))
            return _section_values(spread(g), spread(lowered), x, y)

        k = sweep(grid.points(), 400)
        assert bounds.lower <= np.min(k) and bounds.upper >= np.max(k)
        assert np.min(k) - bounds.lower < 2e-3 and bounds.upper - np.max(k) < 2e-3
        at_lower = sweep(bounds.lower_point[None], 20000)
        at_upper = sweep(bounds.upper_point[None], 20000)
        assert 0.0 <= np.min(at_lower) - bounds.lower < 1e-4
        assert 0.0 <= bounds.upper - np.max(at_upper) < 1e-4

    def test_three_dimensional_round_sphere_bounds(self):
        bounds = curvature_bounds(sphere_metric(dimension=3),
                                  BoxGrid([-0.6] * 3, [0.6] * 3, (5, 5, 5)))
        assert abs(bounds.lower - 1.0) < 1e-10 and abs(bounds.upper - 1.0) < 1e-10

    def test_a_nan_point_makes_both_bounds_nan(self):
        sphere = sphere_metric()

        def holed(pts):
            values = sphere.fn(pts)
            values[np.all(pts == 0.0, axis=1)] = np.nan
            return values

        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (9, 9))
        bounds = curvature_bounds(MetricField(fn=holed, dimension=2), grid)
        assert np.isnan(bounds.lower) and np.isnan(bounds.upper)

    @pytest.mark.parametrize("dimension", [1, 4])
    def test_other_dimensions_raise(self, dimension):
        grid = BoxGrid([-1.0] * dimension, [1.0] * dimension, (3,) * dimension)
        with pytest.raises(CurvatureError, match="dimension 2 or 3"):
            curvature_bounds(constant_metric(np.eye(dimension)), grid)

    def test_everything_excluded_raises(self):
        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (9, 9))
        with pytest.raises(CurvatureError, match="survive"):
            curvature_bounds(radial_c11_metric(), grid, mask_radius=0.1,
                             exclusion_radii=(0.0,), exclusion_width=0.2)

    def test_mollified_sphere_stays_near_unit_curvature(self):
        smoothed = mollify_metric(sphere_metric(), MollifierKernel.create(2, 1.22e-5, level=1))
        pts = np.array([[0.5, 0.1], [0.3, -0.3]])
        k = sectional_curvature(smoothed, pts, E1[:2], E2[:2], step=5e-3)
        assert np.max(np.abs(k - 1.0)) < 1e-3


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=0.5, max_value=3.0))
def test_property_curvature_scales_inversely_with_the_metric(scale):
    g = radial_conformal_metric(
        lambda t: scale * 4.0 / (1.0 + t) ** 2,
        lambda t: scale * -8.0 / (1.0 + t) ** 3,
        lambda t: scale * 24.0 / (1.0 + t) ** 4,
    )
    pts = np.array([[0.3, 0.1], [0.55, -0.4]])
    k = sectional_curvature(g, pts, E1[:2], E2[:2])
    assert np.max(np.abs(k - 1.0 / scale)) < 1e-10

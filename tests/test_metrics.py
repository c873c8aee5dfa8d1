"""Metric mollification, chart smoothing, group averaging, seminorms.

The two mollified-matrix pins come from a continuum polar integral
(Gauss-Legendre times trapezoid, scripts/make_fixtures.py section
"metrics") that shares only the shift-map primitive with the library;
kernel rule, weight normalization and accumulation are all recomputed
there.  Exactness claims (locality, translation zone, strip overlap) are
asserted bit for bit or to a few ulp, not to loose tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmollify import ballmap, currents, metrics
from eqmollify.ballmap import (BRIDGE_HI, BRIDGE_LO, R_IDENTITY, _compress_with_jacobian,
                               _expand_with_jacobian, _radial_jacobians)
from eqmollify.experiments import _smoothed_field
from eqmollify.kernel import MollifierKernel
from eqmollify.maps import AffineChart, ChartCutoff, GroupAction, cyclic_rotation_group, torus_group, trivial_group
from eqmollify.metrics import (
    BoxGrid,
    EpsilonSelector,
    MetricError,
    MetricField,
    a_nu,
    chart_smooth_metric,
    conformal_metric,
    constant_metric,
    default_level_schedule,
    haar_average_metric,
    isometry_residual,
    mollify_metric,
    select_epsilon_for_k,
    sobolev_seminorm,
)
from eqmollify.scenarios import build_scenario

# frozen oracle values, scripts/make_fixtures.py section "metrics"
MOLLIFIED_SPHERE = np.array(
    [[2.5924452528263147, -0.00064020841629925252],
     [-0.00064020841629925231, 2.5912893209635612]])
MOLLIFIED_RADIAL = np.array(
    [[1.048718093276428, 4.3846606150413689e-05],
     [4.3846606150413581e-05, 1.0485076295669193]])
SPHERE_POINT = np.array([0.45, -0.2])
RADIAL_POINT = np.array([0.5, 0.1])

KINK_T = 0.45**2
RADIAL_C0 = 1.0 + 0.3 * KINK_T - 0.5 * KINK_T**2
RADIAL_C1 = 0.3 - KINK_T


def sphere_factor(points):
    t = np.sum(points**2, axis=-1)
    return 4.0 / (1.0 + t) ** 2


def sphere_grad(points):
    t = np.sum(points**2, axis=-1)
    return (-16.0 / (1.0 + t) ** 3)[:, None] * points


def sphere_hessian(points):
    t = np.sum(points**2, axis=-1)
    outer = points[:, :, None] * points[:, None, :]
    return (96.0 / (1.0 + t) ** 4)[:, None, None] * outer + (
        -16.0 / (1.0 + t) ** 3
    )[:, None, None] * np.eye(points.shape[1])


def radial_factor(points):
    t = np.sum(points**2, axis=-1)
    inner = 1.0 + 0.3 * t - 0.5 * t**2
    outer = RADIAL_C0 + RADIAL_C1 * (t - KINK_T) + 0.8 * (t - KINK_T) ** 2
    return np.where(t <= KINK_T, inner, outer)


def sphere_metric():
    return conformal_metric(sphere_factor, grad=sphere_grad, hessian=sphere_hessian)


def radial_metric():
    return conformal_metric(radial_factor)


def unit_chart_cutoff():
    return ChartCutoff(AffineChart([0.0, 0.0], 1.0))


class TestMetricField:
    def test_constant_metric_values_and_derivatives(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = constant_metric(m)
        pts = np.array([[0.1, 0.2], [3.0, -1.0]])
        assert np.array_equal(g.value(pts), np.stack([m, m]))
        assert np.all(g.first_derivative(pts) == 0.0)
        assert np.all(g.second_derivative(pts) == 0.0)

    def test_check_spd_accepts_and_rejects(self):
        # mollify_metric checks every value it returns
        kernel = MollifierKernel.create(2, 0.1, level=1)
        good = mollify_metric(constant_metric(np.eye(2)), kernel)
        assert np.allclose(good.value(np.zeros((1, 2))), np.eye(2), atol=1e-15)
        bad = mollify_metric(constant_metric(np.array([[1.0, 2.0], [2.0, 1.0]])), kernel)
        with pytest.raises(MetricError, match="positive definite"):
            bad.value(np.zeros((1, 2)))

    def test_conformal_analytic_derivatives_match_differences(self):
        g = sphere_metric()
        pts = np.array([[0.3, -0.1], [0.0, 0.55], [-0.62, 0.4]])
        h = 1e-6
        first = g.first_derivative(pts)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (g.value(pts + step) - g.value(pts - step)) / (2.0 * h)
            assert np.max(np.abs(first[:, axis] - fd)) < 1e-7
        second = g.second_derivative(pts)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (g.first_derivative(pts + step) - g.first_derivative(pts - step)) / (2.0 * h)
            assert np.max(np.abs(second[:, axis] - fd)) < 1e-6


class LinearMap:
    """x -> A (x - center) with the row Jacobian A: a general affine map,
    which no chart is."""

    def __init__(self, matrix, center=(0.0, 0.0)):
        self.matrix = np.asarray(matrix, dtype=float)
        self.center = np.asarray(center, dtype=float)

    def apply(self, x):
        return (x - self.center) @ self.matrix.T

    def jacobian(self, x):
        return np.broadcast_to(self.matrix, (x.shape[0],) + self.matrix.shape)


def pullback(metric, mapping):
    """The congruence (D Phi)^T g(Phi(x)) (D Phi) of a map's row Jacobian."""
    def fn(pts):
        jac = mapping.jacobian(pts)
        return np.swapaxes(jac, -1, -2) @ metric.value(mapping.apply(pts)) @ jac
    return MetricField(fn=fn, dimension=metric.dimension)


class TestPullback:
    def test_rotation_congruence(self):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        pulled = pullback(constant_metric(m), LinearMap(rot))
        pts = np.array([[0.2, 0.1]])
        assert np.allclose(pulled.value(pts)[0], rot.T @ m @ rot, atol=1e-15)


class TestMollify:
    def test_identity_zone_is_bit_exact(self):
        g = sphere_metric()
        smoothed = mollify_metric(g, MollifierKernel.create(2, 0.2))
        pts = np.array([[0.85, 0.1], [1.3, -0.2], [-0.95, 0.4]])
        assert np.linalg.norm(pts, axis=1).min() > R_IDENTITY
        assert np.array_equal(smoothed.value(pts), g.value(pts))

    def test_translation_zone_preserves_constants(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        smoothed = mollify_metric(constant_metric(m), MollifierKernel.create(2, 0.15))
        # only the convex-weight rounding survives here, a few ulp per entry
        pts = np.array([[0.1, 0.05], [0.0, 0.0], [-0.12, 0.08]])
        assert np.max(np.abs(smoothed.value(pts) - m)) < 1e-14

    def test_oracle_pin_sphere(self):
        smoothed = mollify_metric(sphere_metric(), MollifierKernel.create(2, 0.1, level=3))
        val = smoothed.value(SPHERE_POINT[None, :])[0]
        rel = np.max(np.abs(val - MOLLIFIED_SPHERE)) / np.max(np.abs(MOLLIFIED_SPHERE))
        assert rel < 1e-11

    def test_oracle_pin_radial_c11(self):
        smoothed = mollify_metric(radial_metric(), MollifierKernel.create(2, 0.1, level=3))
        val = smoothed.value(RADIAL_POINT[None, :])[0]
        rel = np.max(np.abs(val - MOLLIFIED_RADIAL)) / np.max(np.abs(MOLLIFIED_RADIAL))
        assert rel < 1e-11

    def test_coarse_rule_stays_close_to_oracle(self):
        smoothed = mollify_metric(sphere_metric(), MollifierKernel.create(2, 0.1, level=2))
        val = smoothed.value(SPHERE_POINT[None, :])[0]
        rel = np.max(np.abs(val - MOLLIFIED_SPHERE)) / np.max(np.abs(MOLLIFIED_SPHERE))
        assert rel < 1e-7

    def test_indefinite_input_aborts(self):
        bad = constant_metric(np.diag([1.0, -1.0]))
        smoothed = mollify_metric(bad, MollifierKernel.create(2, 0.1))
        with pytest.raises(MetricError, match="positive definiteness"):
            smoothed.value(np.array([[0.1, 0.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MetricError, match="dimension"):
            mollify_metric(sphere_metric(), MollifierKernel.create(1, 0.1))

    def test_output_is_symmetric_spd(self):
        smoothed = mollify_metric(sphere_metric(), MollifierKernel.create(2, 0.2, level=2))
        ring = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
        pts = 0.5 * np.stack([np.cos(ring), np.sin(ring)], axis=1)
        vals = smoothed.value(pts)
        assert np.array_equal(vals, np.swapaxes(vals, 1, 2))
        assert np.min(np.linalg.eigvalsh(vals)) > 0.0


class InverseChart:
    """A chart's way back as a map with .apply and .jacobian."""

    def __init__(self, chart):
        self.chart = chart

    def apply(self, u):
        return self.chart.apply_inverse(u)

    def jacobian(self, u):
        return np.broadcast_to(self.chart.jacobian_inverse() * np.eye(2), (len(u), 2, 2))


def shipped_cutoffs():
    return [c for name in ("euclid_z4", "strip_two_charts")
            for c in build_scenario(name).atlas]


class TestAffineChart:
    def test_shipped_charts_round_trip_and_scale_frames_as_the_jacobian(self):
        charts = [c.chart for c in shipped_cutoffs()]
        assert [(tuple(c.center), c.radius) for c in charts] == [
            ((0.0, 0.0), 1.0), ((0.25, 0.0), 2.0), ((-0.25, 0.0), 2.0)]
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.5, 1.5, size=(64, 2))
        sample = currents.WeightedSample(x, rng.normal(size=(64, 1, 2)), np.ones(64))
        for chart in charts:
            u = chart.apply(x)
            assert np.max(np.abs(chart.apply_inverse(u) - x)) <= 1e-15
            # the way back is the inverse of the Jacobian bit for bit
            assert np.array_equal(np.linalg.inv(chart.jacobian(x)[0]),
                                  chart.jacobian_inverse() * np.eye(2))
            # equivariant_sample scales frames directly; the Jacobian
            # pushforward gives the same bits both ways
            there = sample.pushforward(chart)
            assert np.array_equal(there.points, u)
            assert np.array_equal(there.frames, sample.frames * chart.scale)
            back = there.pushforward(InverseChart(chart))
            assert np.array_equal(back.points, chart.apply_inverse(u))
            assert np.array_equal(back.frames, there.frames * chart.radius)

    def test_equivariant_sample_matches_the_jacobian_pushforwards(self):
        kernel = MollifierKernel.create(2, 0.05, level=1)
        identity = trivial_group(2)
        for cutoff in shipped_cutoffs():
            for current in build_scenario("orbit_currents").currents:
                inside, outside = currents.localize(current, cutoff)
                smoothed = currents._shift_product(inside.sample().pushforward(cutoff.chart),
                                                   kernel)
                ref = currents.WeightedSample.concatenate([
                    smoothed.pushforward(InverseChart(cutoff.chart)).rotated(np.eye(2)),
                    outside.sample().rotated(np.eye(2))])
                new = currents.equivariant_sample(current, kernel, cutoff, identity)
                assert current.degree == 0 or np.any(new.frames != 0.0)
                for a, b in zip((new.points, new.frames, new.weights),
                                (ref.points, ref.frames, ref.weights)):
                    assert np.array_equal(a, b)


class TestChartSmoothing:
    def test_outside_chart_is_bit_exact(self):
        g = sphere_metric()
        smoothed = chart_smooth_metric(g, unit_chart_cutoff(), MollifierKernel.create(2, 0.15))
        pts = np.array([[1.0, 0.3], [-1.4, 0.0], [0.8, 0.8]])
        assert np.array_equal(smoothed.value(pts), g.value(pts))

    def test_plateau_translation_zone_reproduces_constants(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        cutoff = ChartCutoff(AffineChart([0.25, 0.0], 2.0))
        smoothed = chart_smooth_metric(constant_metric(m), cutoff,
                                       MollifierKernel.create(2, 0.08, level=2))
        pts = np.array([[0.25, 0.0], [0.31, -0.04], [0.18, 0.05]])
        assert np.max(np.abs(smoothed.value(pts) - m)) < 1e-13

    def test_smooths_across_partition(self):
        # inside the transitional ring the two terms recombine to something
        # close to, but not equal to, the input
        g = constant_metric(np.eye(2))
        smoothed = chart_smooth_metric(g, unit_chart_cutoff(), MollifierKernel.create(2, 0.15, level=2))
        val = smoothed.value(np.array([[0.55, 0.0]]))[0]
        assert np.abs(val[0, 0] - 1.0) > 1e-8
        assert np.abs(val[0, 0] - 1.0) < 1e-2
        assert np.min(np.linalg.eigvalsh(val)) > 0.5


class TestHaarAverage:
    def test_finite_group_invariance_residual(self):
        cutoff = unit_chart_cutoff()
        kernel = MollifierKernel.create(2, 0.15, level=2)
        group = cyclic_rotation_group(4)
        probe = np.array([[0.45, 0.2], [0.7, 0.1], [-0.3, 0.55], [0.9, 0.3], [1.2, 0.4]])
        averaged = haar_average_metric(constant_metric(np.eye(2)), cutoff, kernel, group)
        assert isometry_residual(averaged, group, probe) <= 1e-10

    def test_sphere_octic_invariance_residual(self):
        cutoff = unit_chart_cutoff()
        kernel = MollifierKernel.create(2, 0.12, level=2)
        group = cyclic_rotation_group(8)
        probe = np.array([[0.5, 0.1], [0.05, -0.62], [0.33, 0.41]])
        averaged = haar_average_metric(sphere_metric(), cutoff, kernel, group)
        assert isometry_residual(averaged, group, probe) <= 1e-10

    def test_torus_quadrature_sizes_agree(self):
        cutoff = unit_chart_cutoff()
        kernel = MollifierKernel.create(2, 0.1, level=2)
        pts = np.array([[0.3, 0.1], [0.5, -0.2], [0.05, 0.65]])
        h64 = haar_average_metric(radial_metric(), cutoff, kernel, torus_group(64)).value(pts)
        h128 = haar_average_metric(radial_metric(), cutoff, kernel, torus_group(128)).value(pts)
        assert np.max(np.abs(h64 - h128)) <= 1e-8

    def test_torus_invariance_off_the_quadrature_nodes(self):
        cutoff = unit_chart_cutoff()
        kernel = MollifierKernel.create(2, 0.1, level=2)
        averaged = haar_average_metric(radial_metric(), cutoff, kernel, torus_group(64))
        angles = 2.0 * np.pi * (np.arange(5) + 0.37) / 7.0
        mats = np.stack([
            np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]) for a in angles
        ])
        probes = GroupAction(mats, weights=np.full(5, 0.2), is_quadrature=True)
        pts = np.array([[0.3, 0.1], [0.5, -0.2], [0.44, 0.12]])
        assert isometry_residual(averaged, probes, pts) <= 1e-6

    def test_trivial_group_matches_single_chart_pass(self):
        cutoff = unit_chart_cutoff()
        kernel = MollifierKernel.create(2, 0.15, level=2)
        g = sphere_metric()
        averaged = haar_average_metric(g, cutoff, kernel, trivial_group(2))
        single = chart_smooth_metric(g, cutoff, kernel)
        pts = np.array([[0.5, 0.1], [0.9, 0.2], [1.1, -0.3]])
        assert np.array_equal(averaged.value(pts), single.value(pts))


class TestCompose:
    def test_strip_overlap_reproduces_input(self):
        # two overlapping charts at x = +-0.25, each group-averaged in turn
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        kernel = MollifierKernel.create(2, 0.08, level=2)
        composed = _smoothed_field(build_scenario("strip_two_charts"), kernel, exact=True)
        overlap = np.array([[0.0, 0.0], [0.03, -0.02], [-0.04, 0.01], [0.02, 0.035]])
        assert np.max(np.abs(composed.value(overlap) - m)) < 1e-13


class TestSeminorm:
    def test_constant_field_sup_norm(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (21, 21))
        assert sobolev_seminorm(constant_metric(m), grid) == 2.0

    def test_quadratic_conformal_sup_norm(self):
        g = conformal_metric(lambda p: 1.0 + p[..., 0] ** 2)
        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (41, 41))
        # sup of the factor and its exact second difference both equal 2
        assert abs(sobolev_seminorm(g, grid) - 2.0) < 1e-12

    def test_reference_subtraction_gives_zero(self):
        g = sphere_metric()
        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (17, 17))
        assert sobolev_seminorm(g, grid, reference=g) == 0.0

    def test_grid_without_interior_counts_values_only(self):
        # two nodes per axis leave no interior, so every difference is empty
        g = conformal_metric(lambda p: 1.0 + 4.0 * p[..., 0] ** 2)
        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (2, 2))
        assert sobolev_seminorm(g, grid) == 5.0


class TestEllipticityConstant:
    def test_sphere_floor_on_the_unit_circle(self):
        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (41, 41))
        assert a_nu(sphere_metric(), grid) == 1.0

    def test_grid_outside_ball_rejected(self):
        grid = BoxGrid([5.0, 5.0], [6.0, 6.0], (5, 5))
        with pytest.raises(MetricError, match="inside the closed ball"):
            a_nu(sphere_metric(), grid)

    def test_indefinite_input_rejected(self):
        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (5, 5))
        with pytest.raises(MetricError, match="not a metric"):
            a_nu(constant_metric(np.diag([1.0, -1.0])), grid)


class TestEpsilonSelection:
    @staticmethod
    def _selector(calls=None, max_halvings=6):
        def smoother(epsilon):
            if calls is not None:
                calls.append(epsilon)
            return constant_metric((1.0 + 5.0 * epsilon) * np.eye(2))

        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (5, 5))
        return EpsilonSelector(smoother, constant_metric(np.eye(2)), grid,
                               start=0.2, max_halvings=max_halvings)

    def test_selects_largest_passing_epsilon(self):
        sel = self._selector()
        result = select_epsilon_for_k(sel, 1, 1.0)
        assert result.satisfied and result.epsilon == 0.2
        assert abs(result.achieved - 1.0) < 1e-12

    def test_tighter_bound_descends_the_ladder(self):
        calls = []
        sel = self._selector(calls)
        first = select_epsilon_for_k(sel, 1, 1.0)
        fourth = select_epsilon_for_k(sel, 4, 1.0)
        assert fourth.epsilon <= first.epsilon
        assert fourth.epsilon == 0.05
        # the cache means only the new ladder stages were evaluated
        assert calls == [0.2, 0.1, 0.05]

    def test_unattainable_bound_reports_diagnostics(self):
        sel = self._selector(max_halvings=3)
        result = sel.select(1e-9)
        assert not result.satisfied
        assert len(result.tested) == 4
        assert result.achieved == min(v for _, v in result.tested)

    def test_invalid_k_rejected(self):
        with pytest.raises(MetricError, match="at least 1"):
            select_epsilon_for_k(self._selector(), 0, 1.0)


class TestLevelSchedule:
    def test_schedule_shape(self):
        assert default_level_schedule(0.2) == 2
        assert default_level_schedule(0.01) == 1
        assert default_level_schedule(0.2, dimension=1) == 7
        assert default_level_schedule(0.2, dimension=3) == 3

    def test_cross_level_agreement_in_the_sweep_range(self):
        g = sphere_metric()
        grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], (65, 65))
        values = {}
        for level in (1, 2):
            kernel = MollifierKernel.create(2, 0.0125, level=level)
            values[level] = sobolev_seminorm(mollify_metric(g, kernel), grid, reference=g)
        assert abs(values[1] - values[2]) / values[2] < 0.015


@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(min_value=0.5, max_value=3.0),
    bump=st.floats(min_value=-0.4, max_value=0.4),
    x=st.floats(min_value=0.82, max_value=2.0),
    y=st.floats(min_value=-0.5, max_value=0.5),
)
def test_property_identity_zone_for_generic_conformal_metrics(scale, bump, x, y):
    # x >= 0.82 keeps the point past R_IDENTITY for every drawn y
    point = np.array([[x, y]])
    g = conformal_metric(lambda p: scale + bump * np.sin(p[..., 0] + 2.0 * p[..., 1]))
    smoothed = mollify_metric(g, MollifierKernel.create(2, 0.1, level=1))
    assert np.array_equal(smoothed.value(point), g.value(point))


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(min_value=-3.1, max_value=3.1))
def test_property_orthogonal_pullback_round_trip(theta):
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    g = sphere_metric()
    once = pullback(g, LinearMap(rot))
    back = pullback(once, LinearMap(rot.T))
    pts = np.array([[0.3, -0.2], [0.7, 0.5]])
    assert np.max(np.abs(back.value(pts) - g.value(pts))) < 1e-14


def aniso_fn(points):
    """A position-dependent metric with off-diagonal terms, so a transposed
    congruence factor cannot pass for the right one."""
    a = 2.0 + 0.5 * np.sin(3.0 * points[:, 0])
    c = 1.5 + 0.4 * np.cos(2.0 * points[:, 1])
    b = 0.3 * np.sin(points[:, 0] + 2.0 * points[:, 1])
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


def einsum_mollify(metric_fn, kernel, points):
    """Reference quadrature: the three-operand einsum congruence, one kernel
    node at a time."""
    n = points.shape[1]
    out = metric_fn(points)
    inner = np.linalg.norm(points, axis=1) < R_IDENTITY
    expanded, factors = _expand_with_jacobian(points[inner])
    jac_expand = _radial_jacobians(*factors)
    nodes, node_w = kernel.convex_weights()
    acc = np.zeros((expanded.shape[0], n, n))
    for node, weight in zip(nodes, node_w):
        compressed, factors = _compress_with_jacobian(expanded + node)
        chain = np.matmul(_radial_jacobians(*factors), jac_expand)
        acc += weight * np.einsum("rji,rjk,rkl->ril", chain, metric_fn(compressed), chain)
    out[inner] = 0.5 * (acc + np.swapaxes(acc, 1, 2))
    return out


def einsum_group_average(metric, cutoff, kernel, group, points):
    """Reference chart stage and group average with einsum congruences."""
    chart = cutoff.chart
    jac_inv = chart.radius * np.eye(2)
    jac_fwd = np.eye(2) / chart.radius

    def weighted(u):
        vals = metric.value(chart.apply_inverse(u))
        return (cutoff.profile(np.linalg.norm(u, axis=1))[:, None, None]
                * np.einsum("ji,rjk,kl->ril", jac_inv, vals, jac_inv))

    def stage(pts):
        rho = chart.chart_radius(pts)
        inside = rho < cutoff.outer
        out = metric.value(pts)
        smoothed = einsum_mollify(weighted, kernel, chart.apply(pts[inside]))
        out[inside] = (np.einsum("ji,rjk,kl->ril", jac_fwd, smoothed, jac_fwd)
                       + (1.0 - cutoff.profile(rho[inside]))[:, None, None]
                       * metric.value(pts[inside]))
        return out

    return sum(weight * np.einsum("ji,rjk,kl->ril", mat, stage(points @ mat.T), mat)
               for mat, weight in zip(group.matrices, group.weights))


def assert_rows_close(new, ref, rel=1e-14):
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.all(np.max(np.abs(new - ref), axis=(1, 2)) <= rel * scale)


# radius bands: the identity zone, the bridge, the exp branch inside
# R_IDENTITY, and the bit-exact zone outside it
BANDS = ((0.0, BRIDGE_LO), (BRIDGE_LO, BRIDGE_HI), (BRIDGE_HI, R_IDENTITY),
         (R_IDENTITY, 1.2))


@st.composite
def banded_points(draw, dimension=2):
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = BANDS[draw(st.integers(0, 3))]
        radius = draw(st.floats(lo, hi, exclude_max=True))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        direction = [np.cos(angle), np.sin(angle)]
        if dimension == 3:
            polar = draw(st.floats(0.0, np.pi))
            direction = [np.sin(polar) * direction[0], np.sin(polar) * direction[1],
                         np.cos(polar)]
        rows.append(radius * np.array(direction))
    return np.array(rows)


def aniso3_fn(points):
    """A diagonally dominant 3-D metric with three distinct off-diagonals."""
    x, y, z = points.T
    a = 2.0 + 0.5 * np.sin(3.0 * x)
    c = 1.5 + 0.4 * np.cos(2.0 * y)
    d = 1.8 + 0.3 * np.sin(2.0 * z + x)
    p = 0.3 * np.sin(x + 2.0 * y)
    q = 0.2 * np.cos(z - y)
    r = 0.25 * np.sin(y + z)
    return np.stack([np.stack([a, p, q], -1), np.stack([p, c, r], -1),
                     np.stack([q, r, d], -1)], -2)


@settings(max_examples=40, deadline=None)
@given(points=banded_points(), epsilon=st.sampled_from([0.2, 0.05, 0.0125]))
def test_matmul_congruences_match_einsum_reference(points, epsilon):
    kernel = MollifierKernel.create(2, epsilon, level=1)
    new = metrics._mollify_values(aniso_fn, kernel, points)
    ref = einsum_mollify(aniso_fn, kernel, points)
    assert_rows_close(new, ref)
    outside = np.linalg.norm(points, axis=1) >= R_IDENTITY
    assert np.array_equal(new[outside], aniso_fn(points[outside]))


@settings(max_examples=20, deadline=None)
@given(points=banded_points(dimension=3), epsilon=st.sampled_from([0.2, 0.0125]))
def test_matmul_congruences_match_einsum_reference_in_three_dimensions(points, epsilon):
    # no workload runs n = 3, but the per-component loops are n-general
    kernel = MollifierKernel.create(3, epsilon, level=1)
    new = metrics._mollify_values(aniso3_fn, kernel, points)
    assert_rows_close(new, einsum_mollify(aniso3_fn, kernel, points))
    outside = np.linalg.norm(points, axis=1) >= R_IDENTITY
    assert np.array_equal(new[outside], aniso3_fn(points[outside]))


@pytest.mark.parametrize("chart", [AffineChart([0.25, 0.0], 2.0)], ids=["scaled"])
def test_chart_stage_and_group_average_match_einsum_reference(chart):
    metric = MetricField(fn=aniso_fn, dimension=2)
    cutoff = ChartCutoff(chart)
    kernel = MollifierKernel.create(2, 0.05, level=1)
    group = cyclic_rotation_group(3)  # non-symmetric rotation matrices
    rng = np.random.default_rng(4)
    points = rng.uniform(-0.9, 0.9, size=(40, 2))
    new = haar_average_metric(metric, cutoff, kernel, group).value(points)
    assert_rows_close(new, einsum_group_average(metric, cutoff, kernel, group, points))


def test_pullback_congruence_uses_the_row_jacobian():
    rng = np.random.default_rng(8)
    mat = np.array([[1.1, 0.7], [-0.3, 0.8]])
    pulled = pullback(MetricField(fn=aniso_fn, dimension=2),
                      LinearMap(mat, [0.2, 0.1]))
    points = rng.uniform(-0.5, 0.5, size=(9, 2))
    vals = aniso_fn((points - [0.2, 0.1]) @ mat.T)
    assert_rows_close(pulled.value(points), np.einsum("ji,rjk,kl->ril", mat, vals, mat))


def _mollified_arrays(points):
    return (metrics._mollify_values(aniso_fn, MollifierKernel.create(2, 0.1, level=1),
                                    points),)


def _shift_product_arrays(degree):
    def arrays(points):
        frames = np.random.default_rng(3).normal(size=(points.shape[0], degree, 2))
        sample = currents.WeightedSample(points, frames, np.ones(points.shape[0]))
        out = currents._shift_product(sample, MollifierKernel.create(2, 0.1, level=1))
        return out.points, out.frames, out.weights
    return arrays


@pytest.mark.parametrize("arrays", [_mollified_arrays, _shift_product_arrays(0),
                                    _shift_product_arrays(1)],
                         ids=["mollify_values", "shift_product_degree0",
                              "shift_product_degree1"])
def test_point_blocking_moves_no_bit(monkeypatch, arrays):
    # 60 inner points over 128 nodes fit one block; with the cap at 7 they
    # are split into nine point blocks, each taken one node at a time.  The
    # five points past R_IDENTITY, mixed in among them, enter no block.
    rng = np.random.default_rng(2)
    angles = rng.uniform(0.0, 2.0 * np.pi, 65)
    radii = rng.permutation(np.concatenate([rng.uniform(0.0, R_IDENTITY, 60),
                                            rng.uniform(R_IDENTITY, 1.5, 5)]))
    points = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)
    whole = arrays(points)
    monkeypatch.setattr(ballmap, "_MAX_ROWS", 7)
    calls = []
    expand = ballmap._expand_with_jacobian
    monkeypatch.setattr(ballmap, "_expand_with_jacobian",
                        lambda pts: calls.append(len(pts)) or expand(pts))
    split = arrays(points)
    assert calls == [7] * 8 + [4]
    assert len(split) == len(whole)
    assert all(np.array_equal(a, b) for a, b in zip(split, whole))

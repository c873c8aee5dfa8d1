"""Metric mollification, chart smoothing, group averaging, seminorms.

The two mollified-matrix pins come from a continuum polar integral
(Gauss-Legendre times trapezoid, scripts/make_fixtures.py section
"metrics") that shares only the shift-map primitive with the library;
kernel rule, weight normalization and accumulation are all recomputed
there.  Exactness claims (locality, translation zone, strip overlap) are
asserted bit for bit or to a few ulp, not to loose tolerances.
"""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmollify import ballmap, currents, experiments, maps, metrics
from eqmollify.ballmap import (BRIDGE_HI, BRIDGE_LO, R_IDENTITY, _compress_with_jacobian,
                               _expand_with_jacobian, _radial_jacobians)
from eqmollify.cli import main
from eqmollify.config import ExperimentConfig
from eqmollify.experiments import _smoothed_field
from eqmollify.kernel import MollifierKernel, QuadratureRule
from eqmollify.maps import (AffineChart, ChartCutoff, GroupAction, GroupError, cyclic_rotation_group,
                            torus_group, trivial_group)
from eqmollify.metrics import (
    BoxGrid,
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


def radial_factor(points):
    t = np.sum(points**2, axis=-1)
    inner = 1.0 + 0.3 * t - 0.5 * t**2
    outer = RADIAL_C0 + RADIAL_C1 * (t - KINK_T) + 0.8 * (t - KINK_T) ** 2
    return np.where(t <= KINK_T, inner, outer)


def sphere_metric(dimension=2):
    """The curvature +1 chart metric 4 / (1 + |x|^2)^2 I with analytic
    derivatives, built radial so that it declares its isometries."""
    return metrics.radial_conformal_metric(
        lambda t: 4.0 / (1.0 + t) ** 2, lambda t: -8.0 / (1.0 + t) ** 3,
        lambda t: 24.0 / (1.0 + t) ** 4, dimension=dimension)


def bump_metric(center):
    """f(x) I with f = 1 + 0.5 bump, a smooth bump of radius 0.05 at
    ``center``: a plain field with no symmetry, which declares none."""
    center = np.asarray(center, dtype=float)
    n = center.shape[0]

    def fn(pts):
        s = np.sum((pts - center) ** 2, axis=-1) / 0.05**2
        factor = np.ones(pts.shape[0])
        inside = s < 1.0
        factor[inside] += 0.5 * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return factor[:, None, None] * np.eye(n)

    return MetricField(fn=fn, dimension=n)


def radial_metric():
    return conformal_metric(radial_factor)


def unit_chart_cutoff():
    return ChartCutoff(AffineChart([0.0, 0.0], 1.0))


class TestBoxGrid:
    @pytest.mark.parametrize("half", [0.95, 1.0, 0.75])
    @pytest.mark.parametrize("count", [2, 3, 20, 21, 64, 65])
    def test_a_symmetric_axis_is_exactly_mirrored(self, half, count):
        axis = BoxGrid([-half], [half], count).axes()[0]
        assert np.array_equal(axis, -axis[::-1])
        assert axis[0] == -half and axis[-1] == half
        assert np.array_equal(np.signbit(axis), axis < 0.0)  # a middle node is +0.0
        if count % 2:
            assert axis[count // 2] == 0.0
        assert np.max(np.abs(axis - np.linspace(-half, half, count))) <= 2.0 * np.spacing(half)

    def test_an_asymmetric_axis_keeps_the_linspace_bits(self):
        grid = BoxGrid([-0.95, -0.3, 0.0], [0.9, 0.95, 1.0], (17, 9, 5))
        for axis, lo, hi, count in zip(grid.axes(), grid.lo, grid.hi, grid.counts):
            assert axis.tobytes() == np.linspace(lo, hi, count).tobytes()


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


def pushforward(sample, mapping):
    """The sample pushed forward under a map with .apply and .jacobian."""
    frames = np.einsum("kij,kaj->kai", mapping.jacobian(sample.points), sample.frames)
    return currents.WeightedSample(mapping.apply(sample.points), frames, sample.weights)


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
            there = pushforward(sample, chart)
            assert np.array_equal(there.points, u)
            assert np.array_equal(there.frames, sample.frames * chart.scale)
            back = pushforward(there, InverseChart(chart))
            assert np.array_equal(back.points, chart.apply_inverse(u))
            assert np.array_equal(back.frames, there.frames * chart.radius)

    def test_equivariant_sample_matches_the_jacobian_pushforwards(self):
        kernel = MollifierKernel.create(2, 0.05, level=1)
        identity = trivial_group(2)
        for cutoff in shipped_cutoffs():
            for current in build_scenario("orbit_currents").currents:
                inside, outside = currents.localize(current, cutoff)
                smoothed = currents._shift_product(pushforward(inside, cutoff.chart), kernel)
                ref = currents.WeightedSample.concatenate([
                    pushforward(smoothed, InverseChart(cutoff.chart)).rotated(np.eye(2)),
                    outside.rotated(np.eye(2))])
                new = currents.equivariant_sample(current, kernel, cutoff, identity)
                assert current.degree == 0 or np.any(new.frames != 0.0)
                for a, b in zip((new.points, new.frames, new.weights),
                                (ref.points, ref.frames, ref.weights)):
                    assert np.array_equal(a, b)


def former_closed(matrices, tol):
    """The element-by-element closure check the batched one replaced."""
    for a in matrices:
        for b in matrices:
            prod = a @ b
            if min(np.max(np.abs(prod - c)) for c in matrices) > tol:
                return False
    return True


def _rotations(angles):
    return np.array([[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in angles])


class TestGroupAction:
    Z2 = np.array([np.eye(2), -np.eye(2)])

    @pytest.mark.parametrize("matrices, tol, closed", [
        (cyclic_rotation_group(8).matrices, 1e-10, True),
        (cyclic_rotation_group(4).matrices, 1e-12, True),
        (np.array([np.eye(2), np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]), -np.eye(2)]),
         1e-12, True),
        (_rotations(np.arange(3) * 0.5 * np.pi), 1e-10, False),
        (cyclic_rotation_group(4).matrices + 1e-11 * np.eye(2), 1e-10, True),
        (cyclic_rotation_group(4).matrices + 1e-11 * np.eye(2), 1e-12, False),
    ], ids=["z8", "z4", "reflections", "three_quarter_turns", "near_z4", "near_z4_tight"])
    def test_closure_decides_as_the_element_by_element_check(self, matrices, tol, closed):
        assert former_closed(matrices, tol) == closed
        if closed:
            maps._check_closure(matrices, tol)
        else:
            with pytest.raises(GroupError, match="not closed"):
                maps._check_closure(matrices, tol)

    def test_nan_matrix_rejected(self):
        matrices = self.Z2.copy()
        matrices[1, 0, 1] = np.nan
        with pytest.raises(GroupError, match="not orthogonal"):
            GroupAction(matrices)

    @pytest.mark.parametrize("weights, match", [
        ([np.nan, 0.5], "sum to one"), ([2.0, -1.0], "nonnegative"),
        ([1.0], "one averaging weight"), ([0.25, 0.25, 0.5], "one averaging weight")],
        ids=["nan", "negative", "short", "long"])
    def test_bad_weights_rejected(self, weights, match):
        with pytest.raises(GroupError, match=match):
            GroupAction(self.Z2, weights=weights)


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

    def test_input_values_are_never_written(self):
        # a field may hand out views of one cached array; the chart stage
        # scales its own copy, so the cache keeps its bits and the result
        # equals that of a field that copies
        m = np.array([[2.0, 0.3], [0.3, 1.1]])
        cache = np.tile(m, (1 << 14, 1, 1))
        before = cache.copy()
        cached = MetricField(fn=lambda x: cache[:x.shape[0]], dimension=2)
        fresh = MetricField(fn=lambda x: before[:x.shape[0]].copy(), dimension=2)
        cutoff = ChartCutoff(AffineChart([0.1, 0.0], 0.7))
        kernel = MollifierKernel.create(2, 0.1, level=2)
        pts = np.array([[0.1, 0.0], [0.35, -0.2], [0.5, 0.3], [1.2, 0.0]])
        value = chart_smooth_metric(cached, cutoff, kernel).value(pts)
        assert np.array_equal(cache, before)
        assert np.array_equal(value, chart_smooth_metric(fresh, cutoff, kernel).value(pts))


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

    def test_an_undeclared_field_gets_the_full_average(self):
        # Z4 fixes the centre and permutes the level-1 nodes, but the bump
        # field declares no isometry: four cosets, and an invariant average
        g = bump_metric([0.5, 0.2])
        cutoff = unit_chart_cutoff()
        kernel = MollifierKernel.create(2, 0.02, level=1)
        group = cyclic_rotation_group(4)
        assert len(metrics._stage_cosets(g, cutoff, kernel, group)[0]) == 4
        averaged = haar_average_metric(g, cutoff, kernel, group)
        probe = np.array([[0.5, 0.2], [0.51, 0.19], [0.3, -0.1]])
        assert isometry_residual(averaged, group, probe) <= 1e-10

    def test_nan_field_gives_a_nan_residual(self):
        nan_field = MetricField(fn=lambda x: np.full((x.shape[0], 2, 2), np.nan),
                                dimension=2)
        probe = np.array([[0.3, 0.1], [0.5, -0.2]])
        assert np.isnan(isometry_residual(nan_field, cyclic_rotation_group(4), probe))

    def test_nan_field_gives_a_nan_residual_under_the_trivial_group(self):
        nan_field = MetricField(fn=lambda x: np.full((x.shape[0], 2, 2), np.nan),
                                dimension=2)
        probe = np.array([[0.3, 0.1], [0.5, -0.2]])
        assert np.isnan(isometry_residual(nan_field, trivial_group(2), probe))

    def test_the_identity_evaluates_the_field_once(self):
        calls = []
        field = MetricField(fn=lambda x: calls.append(len(x)) or sphere_metric().fn(x),
                            dimension=2)
        probe = np.array([[0.3, 0.1], [0.5, -0.2]])
        assert isometry_residual(field, trivial_group(2), probe) == 0.0
        assert calls == [2]

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
    """The select-epsilon kind walks 0.2 * 0.5**j, j = 0..16, against
    a_nu / k; a_nu of the flat euclid_z4 metric is 1.  The smoothed field
    is stubbed, so each rung costs one seminorm on a 5x5 grid."""

    @staticmethod
    def _run(monkeypatch, k_values, deviation):
        calls = []

        def smoothed(scenario, kernel, exact=False):
            calls.append(kernel.epsilon)
            return constant_metric((1.0 + deviation(kernel.epsilon)) * np.eye(2))

        monkeypatch.setattr(experiments, "_smoothed_field", smoothed)
        config = ExperimentConfig(scenario="euclid_z4", epsilons=(0.2,),
                                  k_values=k_values, grid=5)
        report = experiments.run_experiment("select-epsilon", config, write=False)
        return report, calls

    def test_selects_largest_passing_epsilon(self, monkeypatch):
        report, _ = self._run(monkeypatch, (1,), lambda eps: 5.0 * eps)
        assert report.rows == [(1, 0.2, 1.0, 1.0)]
        assert report.passed

    def test_tighter_bound_descends_the_ladder(self, monkeypatch):
        report, calls = self._run(monkeypatch, (1, 2, 4), lambda eps: 5.0 * eps)
        assert [row[1] for row in report.rows] == [0.2, 0.1, 0.05]
        assert report.passed
        # every rung is measured once, however many k reach it
        assert calls == [0.2, 0.1, 0.05]

    def test_unattainable_bound_reports_diagnostics(self, monkeypatch):
        # deviation 0.5 at best (epsilon 0.05) against the bound 1/4
        report, calls = self._run(monkeypatch, (4,), lambda eps: 0.5 + abs(eps - 0.05))
        assert calls == [0.2 * 0.5**j for j in range(17)]
        assert report.rows == [(4, 0.05, 0.5, 0.25)]
        checks = {check.name: check for check in report.checks}
        assert not checks["bound_met_k4"].passed
        assert checks["bound_met_k4"].value == 0.5
        assert not report.passed

    def test_invalid_k_rejected(self, tmp_path):
        # the bound a_nu / k needs k >= 1; the config holds that line
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "euclid_z4", "k_values": [0]}))
        assert main(["select-epsilon", "--config", str(path)]) == 2


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


def _mollified_arrays(points, level):
    return (metrics._mollify_values(aniso_fn, MollifierKernel.create(2, 0.1, level=level),
                                    points),)


def _shift_product_arrays(degree):
    def arrays(points, level):
        frames = np.random.default_rng(3).normal(size=(points.shape[0], degree, 2))
        sample = currents.WeightedSample(points, frames, np.ones(points.shape[0]))
        out = currents._shift_product(sample, MollifierKernel.create(2, 0.1, level=level))
        return out.points, out.frames, out.weights
    return arrays


def _blocking_points(inner):
    """``inner`` points inside R_IDENTITY with five past it mixed in among
    them, which enter no chunk."""
    rng = np.random.default_rng(2)
    angles = rng.uniform(0.0, 2.0 * np.pi, inner + 5)
    radii = rng.permutation(np.concatenate([rng.uniform(0.0, R_IDENTITY, inner),
                                            rng.uniform(R_IDENTITY, 1.5, 5)]))
    return radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)


@pytest.mark.parametrize("arrays", [_mollified_arrays, _shift_product_arrays(0),
                                    _shift_product_arrays(1)],
                         ids=["mollify_values", "shift_product_degree0",
                              "shift_product_degree1"])
def test_point_blocking_moves_no_bit(monkeypatch, arrays):
    # every chunk holds all nodes and at least two points, so each point's
    # node sum is the same ordered sum whatever the cap.  At levels 1 and 2
    # (128 and 512 nodes), caps below twice the node count give chunks of
    # two points, and 3 and 50 nodes' worth of rows chunks of two or three
    # and of at most 50 points (two chunks of 30 and 31 of the 61).  The
    # shipped cap splits the 3,001 points into chunks of about 1,000
    # (level 1) and 250 (level 2)
    for inner, caps in ((61, lambda m: (1, 7, 300, 3 * m, 50 * m, 1 << 17)),
                        (3001, lambda m: (1, 50 * m, 1 << 17))):
        points = _blocking_points(inner)
        for level in (1, 2):
            nodes = MollifierKernel.create(2, 0.1, level=level).convex_weights()[0].shape[0]
            monkeypatch.setattr(ballmap, "_MAX_ROWS", 1 << 30)
            whole = arrays(points, level)
            for cap in caps(nodes):
                monkeypatch.setattr(ballmap, "_MAX_ROWS", cap)
                split = arrays(points, level)
                assert len(split) == len(whole)
                assert all(np.array_equal(a, b) for a, b in zip(split, whole)), (inner, level, cap)
    # at cap 7 the 61 inner points over 128 nodes take 30 chunks, the
    # first of three points
    monkeypatch.setattr(ballmap, "_MAX_ROWS", 7)
    calls = []
    expand = ballmap._expand_with_jacobian
    monkeypatch.setattr(ballmap, "_expand_with_jacobian",
                        lambda pts: calls.append(len(pts)) or expand(pts))
    arrays(_blocking_points(61), 1)
    assert calls == [3] + [2] * 29


def test_mollify_values_working_set_stays_below_64_mib():
    # 3,000 points at level 2 are 1.5 M quadrature rows, whose chains alone
    # would take 47 MiB at once; chunks of about 2^17 rows, each freed
    # before the next one is compressed, keep the peak near 32 MiB
    rng = np.random.default_rng(0)
    angles = rng.uniform(0.0, 2.0 * np.pi, 3000)
    points = rng.uniform(0.0, 0.74, 3000)[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], 1)
    metric = build_scenario("round_sphere_chart").metric
    kernel = MollifierKernel.create(2, 0.05, level=2)
    tracemalloc.start()
    try:
        metrics._mollify_values(metric.value, kernel, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _component_major(x):
    """The same array, stored with its first axis varying fastest."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


def test_mollify_values_move_no_bit_with_the_point_or_value_layout():
    rng = np.random.default_rng(9)
    points = rng.uniform(-0.8, 0.8, size=(40, 2))
    mollifier = MollifierKernel.create(2, 0.1, level=1)
    rows = metrics._mollify_values(aniso_fn, mollifier, points)
    assert np.array_equal(rows, metrics._mollify_values(
        aniso_fn, mollifier, _component_major(points)))
    assert np.array_equal(rows, metrics._mollify_values(
        lambda pts: _component_major(aniso_fn(pts)), mollifier, points))


STRIP_MATRIX = np.array([[2.0, 0.3], [0.3, 1.0]])


@pytest.mark.parametrize("field, row_major", [
    (constant_metric(STRIP_MATRIX),
     lambda pts: np.broadcast_to(STRIP_MATRIX, (pts.shape[0], 2, 2))),
    (conformal_metric(sphere_factor),
     lambda pts: sphere_factor(pts)[:, None, None] * np.eye(2)),
    (metrics.radial_conformal_metric(lambda t: 4.0 / (1.0 + t) ** 2),
     lambda pts: (4.0 / (1.0 + np.sum(pts**2, axis=-1)) ** 2)[:, None, None] * np.eye(2)),
], ids=["constant", "conformal", "radial_conformal"])
def test_built_in_fields_store_values_component_major(field, row_major):
    # one contiguous row per entry, as the metric quadrature reads it, with
    # the values of the row-major construction bit for bit.  The values own
    # their memory: the chart stage's first product then reuses it in place,
    # where a view would cost one more array of values per block
    points = np.random.default_rng(10).uniform(-0.9, 0.9, size=(30, 2))
    vals = field.value(points)
    assert vals.shape == (30, 2, 2)
    assert vals.flags.f_contiguous and vals.flags.owndata
    assert np.array_equal(vals, row_major(points))


def _signed_images(point):
    """Each signed permutation (perm, signs) of a point and its image
    signs * point[perm], signed zeros kept."""
    for perm in itertools.permutations(range(point.shape[0])):
        for signs in itertools.product((1.0, -1.0), repeat=point.shape[0]):
            yield list(perm), np.array(signs), np.array(signs) * point[list(perm)]


def _congruence(value, perm, signs):
    """S V S^T for the signed permutation with (S c)_i = signs_i c_perm_i,
    as an exact gather and sign products."""
    return value[np.ix_(perm, perm)] * signs[:, None] * signs[None, :]


@pytest.mark.parametrize("fold", [False, True], ids=["unfolded", "folded"])
def test_a_lone_point_reads_its_bits_in_a_two_point_batch(fold):
    # numpy sums a one-point node column in another order than a chunk's,
    # so the quadrature must not see a lone point on either path
    kernel = MollifierKernel.create(2, 0.05, level=2)
    rng = np.random.default_rng(28)
    angles = rng.uniform(0.0, 2.0 * np.pi, 24)
    points = rng.uniform(0.0, 0.4, 24)[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)
    value = sphere_metric().value
    for pair in points.reshape(-1, 2, 2):
        batch = metrics._mollify_values(value, kernel, pair, fold=fold)
        for row in range(2):
            alone = metrics._mollify_values(value, kernel, pair[row:row + 1], fold=fold)
            assert np.array_equal(alone[0], batch[row]), (pair[row], fold)


class TestFold:
    """The signed-permutation fold: one quadrature per orbit of
    c = sort(|x|), each row S V(c) S^T, behind the guard of
    ``metrics._folds``."""

    @staticmethod
    def _fields():
        kernel = MollifierKernel.create(2, 0.05, level=2)
        sphere = build_scenario("round_sphere_chart")
        return [mollify_metric(sphere_metric(), kernel),
                chart_smooth_metric(sphere.metric, sphere.atlas[0], kernel, fold=True)]

    def test_guard_passes_on_the_shipped_sphere(self):
        sphere = build_scenario("round_sphere_chart")
        for level in (1, 2, 3):
            kernel = MollifierKernel.create(2, 0.05, level=level)
            assert metrics._folds(sphere.metric, sphere.atlas[0].chart, kernel)
        assert len(metrics._signed_permutations(2)) == 7
        assert len(metrics._signed_permutations(3)) == 47

    @pytest.mark.parametrize("point", [[0.4, 0.0], [0.3, 0.3], [0.45, -0.2], [-0.0, 0.35]],
                             ids=["axis", "diagonal", "generic", "negative_zero"])
    def test_signed_images_are_congruences_of_the_canonical_value(self, point):
        point = np.array(point)
        canonical = np.sort(np.abs(point))
        for field in self._fields():
            base = field.value(canonical[None])[0]
            for _, _, image in _signed_images(point):
                value = field.value(image[None])[0]
                # every S with S c = image, signed zeros included; a tie in
                # |x| or a zero coordinate leaves more than one
                matches = [_congruence(base, perm, signs)
                           for perm, signs, moved in _signed_images(canonical)
                           if np.array_equal(moved, image)
                           and np.array_equal(np.signbit(moved), np.signbit(image))]
                assert matches and any(np.array_equal(value, m) for m in matches), image

    def test_a_point_alone_equals_its_value_in_a_batch(self):
        rng = np.random.default_rng(11)
        batch = rng.uniform(-0.8, 0.8, size=(60, 2))
        batch[:8] = [[0.3, -0.2], [-0.2, 0.3], [0.2, 0.3], [0.0, 0.5],
                     [0.5, -0.0], [0.25, 0.25], [-0.25, 0.25], [0.7, 0.1]]
        for field in self._fields():
            values = field.value(batch)
            for index in range(batch.shape[0]):
                assert np.array_equal(field.value(batch[index:index + 1])[0], values[index])
            # and inside a batch of its own orbit only
            assert np.array_equal(field.value(batch[:2]), values[:2])

    def test_bypass_and_outside_rows_are_the_input(self):
        g = sphere_metric()
        kernel = MollifierKernel.create(2, 0.2, level=2)
        far = np.array([[0.85, 0.1], [1.3, -0.2], [-0.95, 0.4], [0.1, -0.85]])
        assert np.linalg.norm(far, axis=1).min() > R_IDENTITY
        assert np.array_equal(mollify_metric(g, kernel).value(far), g.value(far))
        cutoff = ChartCutoff(AffineChart([0.0, 0.0], 0.5))
        assert metrics._folds(g, cutoff.chart, kernel)
        outside = np.array([[0.5, 0.0], [-0.4, 0.4], [0.0, -0.7], [0.9, 0.9]])
        assert np.array_equal(chart_smooth_metric(g, cutoff, kernel, fold=True).value(outside),
                              g.value(outside))

    @staticmethod
    def _orbit_keys(points):
        """c = sort(|x|) of the inner rows, as the fold keys them."""
        inner = points[ballmap._norms(points) < R_IDENTITY]
        return np.sort(np.abs(inner), axis=1)

    def test_distinct_rows_are_those_of_np_unique(self):
        # the scan grid's keys tie on the diagonal and hold zeros on the
        # axes; random keys rarely repeat; a single orbit is one row
        rng = np.random.default_rng(19)
        sphere = build_scenario("round_sphere_chart")
        single = np.repeat(self._orbit_keys(np.array([[0.3, -0.2]])), 8, axis=0)
        cases = [self._orbit_keys(sphere.scan_grid(65).points()),
                 self._orbit_keys(rng.uniform(-0.7, 0.7, size=(3000, 2))),
                 self._orbit_keys(rng.uniform(-0.4, 0.4, size=(500, 3))),
                 single, single[:1]]
        assert np.any(cases[0][:, 0] == 0.0) and np.any(cases[0][:, 0] == cases[0][:, 1])
        for keys in cases:
            rows, index = ballmap._distinct_rows(keys)
            unique_rows, unique_index = np.unique(keys, axis=0, return_inverse=True)
            assert rows.dtype == unique_rows.dtype and index.dtype == unique_index.dtype
            assert np.array_equal(rows, unique_rows)
            assert np.array_equal(index, unique_index.reshape(-1))
        assert ballmap._distinct_rows(single)[0].shape == (1, 2)

    def test_unfolded_orbits_are_the_points_themselves(self):
        # without the fold every point is its own orbit, c = x and S = I,
        # repeated rows and signed zeros included
        points = np.array([[0.3, -0.2, 0.1], [-0.0, 0.5, 0.0], [0.3, -0.2, 0.1]])
        reps, orbit, rank, sign = ballmap._signed_orbits(points, fold=False)
        assert reps is points
        assert np.array_equal(orbit, np.arange(3))
        assert np.array_equal(rank, np.tile(np.arange(3), (3, 1)))
        assert np.array_equal(sign, np.ones((3, 3)))

    def test_folded_quadrature_is_that_of_the_np_unique_orbits(self, monkeypatch):
        # on the grid-65 scan, bit for bit the fold keyed by np.unique
        sphere = build_scenario("round_sphere_chart")
        points = sphere.scan_grid(65).points()
        kernels = [MollifierKernel.create(2, 0.05, level=2),
                   MollifierKernel.create(2, 0.0125, level=1)]
        folded = [metrics._mollify_values(sphere.metric.value, kernel, points, fold=True)
                  for kernel in kernels]
        monkeypatch.setattr(ballmap, "_distinct_rows",
                            lambda keys: np.unique(keys, axis=0, return_inverse=True))
        for kernel, values in zip(kernels, folded):
            assert np.array_equal(
                values, metrics._mollify_values(sphere.metric.value, kernel, points, fold=True))

    def test_folded_values_agree_with_unfolded_on_the_sphere_scan(self, monkeypatch):
        sphere = build_scenario("round_sphere_chart")
        points = sphere.scan_grid(65).points()
        rows = []
        blocks = ballmap._shift_blocks
        monkeypatch.setattr(metrics, "_shift_blocks",
                            lambda pts, nodes: rows.append(len(pts)) or blocks(pts, nodes))
        for epsilon, level in ((0.05, 2), (0.0125, 1)):
            kernel = MollifierKernel.create(2, epsilon, level=level)
            rows.clear()
            unfolded = metrics._mollify_values(sphere.metric.value, kernel, points)
            folded = mollify_metric(sphere.metric, kernel).value(points)
            # the grid's 2,337 inner points lie on 316 orbits
            assert rows == [2337, 316]
            scale = np.max(np.abs(unfolded), axis=(1, 2))[:, None, None]
            assert np.max(np.abs(folded - unfolded) / scale) <= 1e-12

    def test_the_scan_folds_onto_one_row_per_distinct_sorted_modulus(self, monkeypatch):
        # the mirrored axes put every image of a grid point on the grid, so
        # the fold evaluates one row per distinct sort(|x|) among the inner points
        sphere = build_scenario("round_sphere_chart")
        points = sphere.scan_grid(65).points()
        inner = points[np.linalg.norm(points, axis=1) < R_IDENTITY]
        orbits = np.unique(np.sort(np.abs(inner), axis=1), axis=0)
        rows = []
        blocks = ballmap._shift_blocks
        monkeypatch.setattr(metrics, "_shift_blocks",
                            lambda pts, nodes: rows.append(pts.copy()) or blocks(pts, nodes))
        mollify_metric(sphere.metric, MollifierKernel.create(2, 0.0125, level=1)).value(points)
        assert [len(r) for r in rows] == [len(orbits)] == [316]
        assert np.array_equal(np.unique(rows[0], axis=0), orbits)

    @staticmethod
    def _assert_mollify_falls_back(g, kernel, points):
        assert np.array_equal(mollify_metric(g, kernel).value(points),
                              metrics._mollify_values(g.value, kernel, points))

    def test_guard_rejects_swapped_axes_and_falls_back_bit_for_bit(self):
        g = constant_metric(np.diag([1.0, 2.0]))
        kernel = MollifierKernel.create(2, 0.1, level=2)
        assert not metrics._folds(g, AffineChart([0.0, 0.0], 1.0), kernel)
        points = np.random.default_rng(12).uniform(-0.7, 0.7, size=(30, 2))
        self._assert_mollify_falls_back(g, kernel, points)

    def test_guard_rejects_an_off_centre_chart_and_falls_back_bit_for_bit(self):
        sphere = build_scenario("round_sphere_chart")
        cutoff = dataclasses.replace(sphere.atlas[0], chart=AffineChart([0.1, 0.0], 1.0))
        kernel = experiments._kernel_for(0.05, 2)
        assert not metrics._folds(sphere.metric, cutoff.chart, kernel)
        points = experiments._probe_points(sphere)
        assert np.array_equal(
            chart_smooth_metric(sphere.metric, cutoff, kernel, fold=True).value(points),
            chart_smooth_metric(sphere.metric, cutoff, kernel).value(points))

    @pytest.mark.parametrize("level", [1, 2])
    def test_guard_rejects_a_three_dimensional_kernel_and_falls_back_bit_for_bit(self, level):
        # the azimuthal rule is not closed under x <-> z, whatever the metric:
        # the field declares every signed permutation, so only the nodes fail
        g = sphere_metric(3)
        kernel = MollifierKernel.create(3, 0.1, level=level)
        mats = metrics._signed_permutations(3)
        symmetries = metrics._stage_symmetries(g, AffineChart(np.zeros(3), 1.0), kernel, mats)
        assert np.array_equal(symmetries, metrics._permutes_nodes(kernel, mats))
        assert not np.all(symmetries)
        assert not metrics._folds(g, AffineChart(np.zeros(3), 1.0), kernel)
        points = np.random.default_rng(13).uniform(-0.45, 0.45, size=(6, 3))
        self._assert_mollify_falls_back(g, kernel, points)

    @staticmethod
    def _closed_rule():
        """Every signed permutation of three generic nodes, at epsilon 0.1."""
        base = np.array([[0.1, 0.35, 0.6], [0.2, 0.25, 0.5], [0.05, 0.4, 0.45]])
        nodes = np.array([signs * b[perm] for b in base for perm, signs, _ in
                          _signed_images(np.arange(3.0))]) * 0.1
        return MollifierKernel(3, 0.1,
                               QuadratureRule(nodes, np.ones(len(nodes)), 1))

    def test_a_three_dimensional_rule_closed_under_signed_permutations_folds(self):
        # the guard passes, and a 3-cycle, unlike any 2-D permutation, is
        # not its own inverse
        kernel = self._closed_rule()
        g = sphere_metric(3)
        assert metrics._folds(g, AffineChart(np.zeros(3), 1.0), kernel)
        field = mollify_metric(g, kernel)
        point = np.array([0.3, -0.1, 0.2])
        canonical = np.sort(np.abs(point))
        base_value = field.value(canonical[None])[0]
        images = np.array([image for _, _, image in _signed_images(point)])
        values = field.value(images)
        for image, value in zip(images, values):
            matches = [_congruence(base_value, perm, signs)
                       for perm, signs, moved in _signed_images(canonical)
                       if np.array_equal(moved, image)]
            assert len(matches) == 1 and np.array_equal(value, matches[0]), image
        unfolded = metrics._mollify_values(g.value, kernel, images)
        assert np.max(np.abs(values - unfolded)) <= 1e-12 * np.max(np.abs(unfolded))

    def test_an_undeclared_field_never_folds(self):
        # the bump has no symmetry, and it misses any fixed sample set that
        # misses its ball and the ball's images: folded, the value at its
        # centre would be that at the orbit point (0.2, 0.5)
        g = bump_metric([0.5, 0.2])
        kernel = MollifierKernel.create(2, 0.02, level=1)
        assert not metrics._folds(g, AffineChart([0.0, 0.0], 1.0), kernel)
        points = np.array([[0.5, 0.2], [0.2, 0.5], [0.51, 0.19], [-0.5, 0.2], [0.3, -0.1]])
        values = mollify_metric(g, kernel).value(points)
        assert np.array_equal(values, metrics._mollify_values(g.value, kernel, points))
        assert values[0, 0, 0] > 1.4

    def test_an_undeclared_field_never_folds_in_three_dimensions(self):
        kernel = self._closed_rule()
        g = bump_metric([0.5, 0.2, 0.1])
        assert not metrics._folds(g, AffineChart(np.zeros(3), 1.0), kernel)
        points = np.array([[0.5, 0.2, 0.1], [0.2, 0.1, 0.5], [-0.1, 0.5, -0.2],
                           [0.3, -0.1, 0.2]])
        values = mollify_metric(g, kernel).value(points)
        assert np.array_equal(values, metrics._mollify_values(g.value, kernel, points))
        assert values[0, 0, 0] > 1.4

    @pytest.mark.parametrize("epsilon", [0.1, 0.05])
    def test_invariance_check_route_never_folds(self, epsilon):
        euclid = build_scenario("euclid_z4")
        kernel = experiments._kernel_for(epsilon, 2)
        points = experiments._probe_points(euclid)
        exact = _smoothed_field(euclid, kernel, exact=True).value(points)
        unfolded = haar_average_metric(euclid.metric, euclid.atlas[0], kernel, euclid.group)
        assert np.array_equal(exact, unfolded.value(points))
        # folded, the Z4 quarter turns are signed permutations: the residual
        # vanishes by construction and would certify nothing
        folded = _smoothed_field(euclid, kernel)
        assert isometry_residual(folded, euclid.group, points) == 0.0

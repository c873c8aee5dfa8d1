"""Scenario registry: banks, invariants, and the load-time safety checks.

Every scenario runs its own isometry / cover / current-bank checks inside
build_scenario, so the smoke test here doubles as a consistency assertion
for all five built-ins.  The failure-injection tests feed deliberately
broken scenarios to the private checkers to prove they actually bite.
"""

import numpy as np
import pytest

from eqmollify.currents import DiracCurrent
from eqmollify.maps import AffineChart, ChartCutoff, cyclic_rotation_group
from eqmollify.metrics import MetricField, constant_metric
from eqmollify.scenarios import (
    KINK_RADIUS,
    KINK_T,
    RADIAL_C0,
    RADIAL_C1,
    Scenario,
    ScenarioError,
    _check_cover,
    _check_current_bank,
    _check_isometry,
    _domain_points,
    _unit_atlas,
    available_scenarios,
    build_scenario,
    standard_form_bank,
)

ALL_NAMES = ("euclid_z4", "orbit_currents", "radial_c11",
             "round_sphere_chart", "strip_two_charts")


class TestRegistry:
    def test_available_scenarios_sorted(self):
        assert available_scenarios() == list(ALL_NAMES)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_builds_and_passes_load_checks(self, name):
        scenario = build_scenario(name)
        assert scenario.name == name
        assert scenario.dimension == 2
        lo, hi = scenario.curvature_bounds
        assert lo <= hi
        assert len(scenario.atlas) >= 1
        assert 0.0 < scenario.domain_radius < scenario.scan_radius

    def test_unknown_name_lists_available(self):
        with pytest.raises(ScenarioError, match="radial_c11.*strip_two_charts"):
            build_scenario("flat_z9")

    def test_group_quadrature_reaches_torus_group(self):
        coarse = build_scenario("radial_c11", group_quadrature=16)
        assert len(coarse.group.matrices) == 16

    def test_radial_coefficients_continuous_at_kink(self):
        # value and slope of the conformal factor agree across the kink
        assert RADIAL_C0 == 1.0 + 0.3 * KINK_T - 0.5 * KINK_T**2
        assert RADIAL_C1 == 0.3 - KINK_T
        assert KINK_T == KINK_RADIUS**2


class TestFormBank:
    def test_composition(self):
        bank = standard_form_bank()
        assert len(bank) == 12
        degrees = [form.degree for form in bank]
        assert degrees == [0] * 6 + [1] * 6

    def test_other_dimension_rejected(self):
        with pytest.raises(ScenarioError):
            standard_form_bank(dimension=3)

    def test_matched_pairs_by_degree(self):
        euclid = build_scenario("euclid_z4")
        pairs = euclid.matched_pairs()
        assert len(pairs) == 12
        for ci, fi in pairs:
            assert euclid.currents[ci].degree == euclid.forms[fi].degree

    def test_orbit_scenario_adds_loop_current(self):
        orbit = build_scenario("orbit_currents")
        assert len(orbit.currents) == 3
        assert len(orbit.matched_pairs()) == 18


class TestLoadChecks:
    def _scenario_with(self, **kw):
        base = dict(
            name="injected",
            dimension=2,
            metric=constant_metric(np.eye(2)),
            curvature_bounds=(0.0, 0.0),
            atlas=_unit_atlas(),
            group=cyclic_rotation_group(4),
        )
        base.update(kw)
        return Scenario(**base)

    def test_isometry_check_rejects_broken_metric(self):
        bad = self._scenario_with(metric=constant_metric(np.diag([1.0, 2.0])))
        with pytest.raises(ScenarioError, match="not an isometry"):
            _check_isometry(bad)

    def test_isometry_check_rejects_nan_metric(self):
        nan_metric = MetricField(fn=lambda x: np.full((x.shape[0], 2, 2), np.nan),
                                 dimension=2)
        with pytest.raises(ScenarioError, match="not an isometry"):
            _check_isometry(self._scenario_with(metric=nan_metric))

    def test_cover_check_rejects_a_domain_outside_the_atlas(self):
        small = (ChartCutoff(AffineChart(np.zeros(2), 0.5)),)
        _check_cover(self._scenario_with())
        with pytest.raises(ScenarioError, match="outside every inner chart ball"):
            _check_cover(self._scenario_with(atlas=small))

    @pytest.mark.parametrize("per_axis", [13, 41])
    def test_domain_points_are_closed_under_signed_permutations(self, per_axis):
        scenario = self._scenario_with()
        points = _domain_points(scenario, per_axis)
        assert np.linalg.norm(points, axis=1).max() <= scenario.domain_radius
        held = {tuple(p) for p in points}
        assert all(tuple(-p) in held and tuple(p[::-1]) in held for p in points)

    def test_current_bank_check_rejects_nan_weight(self):
        # a Z4 orbit with one NaN weight
        orbit = np.array([[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0], [0.0, -0.3]])
        bad = self._scenario_with(
            currents=(DiracCurrent(orbit, weights=[1.0, 1.0, np.nan, 1.0]),),
            forms=standard_form_bank(),
        )
        with pytest.raises(ScenarioError, match="not group invariant"):
            _check_current_bank(bad)

    def test_current_bank_check_rejects_broken_current(self):
        # a single off-orbit atom cannot be Z4-invariant
        bad = self._scenario_with(
            currents=(DiracCurrent(np.array([[0.3, 0.1]])),),
            forms=standard_form_bank(),
        )
        with pytest.raises(ScenarioError, match="not group invariant"):
            _check_current_bank(bad)

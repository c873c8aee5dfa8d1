"""Built-in verification scenarios: spaces, metrics, currents, group actions.

Each scenario bundles a metric with its symmetry group, a chart atlas, and
(for the current scenarios) a bank of invariant currents plus twelve fixed
test forms.  Construction runs the load-time checks every consumer relies
on: the group really is an isometry of the metric, the atlas inner balls
cover the declared domain, and the current bank is invariant.
"""

from dataclasses import dataclass, replace

import numpy as np

from .currents import DiracCurrent, PolyhedralCurrent, TestForm, invariance_residual
from .maps import (
    AffineChart,
    ChartCutoff,
    GroupAction,
    cyclic_rotation_group,
    torus_group,
    trivial_group,
)
from .metrics import (
    BoxGrid,
    constant_metric,
    isometry_residual,
    radial_conformal_metric,
)

__all__ = ["ScenarioError", "Scenario", "available_scenarios", "build_scenario",
           "standard_form_bank"]

KINK_RADIUS = 0.45
KINK_T = KINK_RADIUS**2
RADIAL_C0 = 1.0 + 0.3 * KINK_T - 0.5 * KINK_T**2
RADIAL_C1 = 0.3 - KINK_T

# frozen output of the brute-force curvature scan in scripts/make_fixtures.py
RADIAL_BOUNDS = (-1.9624110128653827, 0.12606837506570712)


class ScenarioError(RuntimeError):
    """A scenario failed its load-time consistency checks."""


@dataclass(frozen=True)
class Scenario:
    name: str
    dimension: int
    metric: object
    curvature_bounds: tuple
    atlas: tuple
    group: GroupAction
    currents: tuple = ()
    forms: tuple = ()
    discontinuity_radii: tuple = ()
    domain_radius: float = 0.75
    scan_radius: float = 0.95

    def scan_grid(self, n):
        """Tensor grid with n nodes per axis on the scan box
        [-scan_radius, scan_radius]^dimension."""
        lo, hi = (-self.scan_radius,) * self.dimension, (self.scan_radius,) * self.dimension
        return BoxGrid(lo, hi, (n,) * self.dimension)

    def matched_pairs(self):
        """(current, form) pairs of equal degree, in bank order."""
        return [(ci, fi) for ci, cur in enumerate(self.currents)
                for fi, form in enumerate(self.forms) if form.degree == cur.degree]


def standard_form_bank():
    """Twelve forms in dimension 2: constants, monomials up to degree two,
    one oscillation per form degree, all under a shared radial cutoff, flat
    to radius 1.2 and zero from 1.6.

    The cutoff plateau covers every built-in current even after shifts of
    size 0.2, so smoothing sweeps probe the coefficients, not the cutoff.
    """
    kw = dict(dimension=2, support_radius=1.6, flat_radius=1.2)
    ones = lambda x: np.ones(x.shape[0])
    return (
        TestForm(0, coefficients={(): ones}, **kw),
        TestForm(0, coefficients={(): lambda x: x[:, 0]}, **kw),
        TestForm(0, coefficients={(): lambda x: x[:, 1]}, **kw),
        TestForm(0, coefficients={(): lambda x: x[:, 0] ** 2}, **kw),
        TestForm(0, coefficients={(): lambda x: x[:, 0] * x[:, 1]}, **kw),
        TestForm(0, coefficients={(): lambda x: np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])}, **kw),
        TestForm(1, coefficients={(0,): ones}, **kw),
        TestForm(1, coefficients={(1,): ones}, **kw),
        TestForm(1, coefficients={(0,): lambda x: x[:, 1]}, **kw),
        TestForm(1, coefficients={(1,): lambda x: x[:, 0]}, **kw),
        TestForm(1, coefficients={(0,): lambda x: x[:, 0] * x[:, 1]}, **kw),
        TestForm(1, coefficients={(1,): lambda x: np.cos(2.0 * x[:, 1])}, **kw),
    )


def _orbit_diracs(group):
    """A zero-current and a one-current orbit of a generic base atom."""
    base_point = np.array([0.45, 0.15])
    base_vector = np.array([0.8, 0.4])
    points = np.stack([m @ base_point for m in group.matrices])
    frames = np.stack([(m @ base_vector)[None, :] for m in group.matrices])
    masses = DiracCurrent(points)
    tangents = DiracCurrent(points, frames=frames)
    return masses, tangents


def _square_loop(half_width=0.5):
    corners = np.array([
        [half_width, -half_width],
        [half_width, half_width],
        [-half_width, half_width],
        [-half_width, -half_width],
    ])
    simplices = np.stack([np.stack([corners[i], corners[(i + 1) % 4]])
                          for i in range(4)])
    return PolyhedralCurrent(simplices)


def _unit_atlas():
    return (ChartCutoff(AffineChart([0.0, 0.0], 1.0), inner=0.8, outer=0.95),)


def _sphere_chart_metric():
    return radial_conformal_metric(
        lambda t: 4.0 / (1.0 + t) ** 2,
        lambda t: -8.0 / (1.0 + t) ** 3,
        lambda t: 24.0 / (1.0 + t) ** 4,
    )


def _radial_c11_metric():
    return radial_conformal_metric(
        lambda t: np.where(t <= KINK_T, 1.0 + 0.3 * t - 0.5 * t**2,
                           RADIAL_C0 + RADIAL_C1 * (t - KINK_T) + 0.8 * (t - KINK_T) ** 2),
        lambda t: np.where(t <= KINK_T, 0.3 - t, RADIAL_C1 + 1.6 * (t - KINK_T)),
        lambda t: np.where(t <= KINK_T, -1.0, 1.6),
    )


def _build_euclid_z4(group_quadrature):
    group = cyclic_rotation_group(4)
    masses, tangents = _orbit_diracs(group)
    return Scenario(
        name="euclid_z4",
        dimension=2,
        metric=constant_metric(np.eye(2)),
        curvature_bounds=(0.0, 0.0),
        atlas=_unit_atlas(),
        group=group,
        currents=(masses, tangents),
        forms=standard_form_bank(),
    )


def _build_round_sphere_chart(group_quadrature):
    return Scenario(
        name="round_sphere_chart",
        dimension=2,
        metric=_sphere_chart_metric(),
        curvature_bounds=(1.0, 1.0),
        atlas=_unit_atlas(),
        group=cyclic_rotation_group(8),
    )


def _build_radial_c11(group_quadrature):
    return Scenario(
        name="radial_c11",
        dimension=2,
        metric=_radial_c11_metric(),
        curvature_bounds=RADIAL_BOUNDS,
        atlas=_unit_atlas(),
        group=torus_group(group_quadrature or 64),
        discontinuity_radii=(KINK_RADIUS,),
    )


def _build_strip_two_charts(group_quadrature):
    atlas = (
        ChartCutoff(AffineChart([0.25, 0.0], 2.0)),
        ChartCutoff(AffineChart([-0.25, 0.0], 2.0)),
    )
    return Scenario(
        name="strip_two_charts",
        dimension=2,
        metric=constant_metric(np.array([[2.0, 0.3], [0.3, 1.0]])),
        curvature_bounds=(0.0, 0.0),
        atlas=atlas,
        group=trivial_group(2),
        domain_radius=0.3,
        scan_radius=0.6,
    )


def _build_orbit_currents(group_quadrature):
    # the euclid_z4 setting with a square loop added to its current bank
    base = _build_euclid_z4(group_quadrature)
    return replace(base, name="orbit_currents",
                   currents=base.currents + (_square_loop(),))


_BUILDERS = {
    "euclid_z4": _build_euclid_z4,
    "round_sphere_chart": _build_round_sphere_chart,
    "radial_c11": _build_radial_c11,
    "strip_two_charts": _build_strip_two_charts,
    "orbit_currents": _build_orbit_currents,
}


def available_scenarios():
    return sorted(_BUILDERS)


def _domain_points(scenario, per_axis):
    """Lattice points of the declared domain, per_axis nodes across it."""
    r, n = scenario.domain_radius, scenario.dimension
    pts = BoxGrid((-r,) * n, (r,) * n, per_axis).points()
    return pts[np.linalg.norm(pts, axis=1) <= r]


def _check_isometry(scenario, tolerance=1e-8):
    probes = _domain_points(scenario, 13)
    residual = isometry_residual(scenario.metric, scenario.group, probes)
    if not residual <= tolerance:  # a NaN residual fails too
        raise ScenarioError(
            "%s: group is not an isometry of the metric (residual %.3e)"
            % (scenario.name, residual)
        )


def _check_cover(scenario):
    # the declared domain must sit inside the union of inner chart balls,
    # checked on a dense sample including the boundary sphere
    pts = _domain_points(scenario, 41)
    theta = np.linspace(0.0, 2.0 * np.pi, 181)
    ring = scenario.domain_radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = np.concatenate([pts, ring])
    best = np.full(pts.shape[0], np.inf)
    for cutoff in scenario.atlas:
        best = np.minimum(best, cutoff.chart.chart_radius(pts) / cutoff.inner)
    if np.max(best) >= 1.0:
        worst = pts[int(np.argmax(best))]
        raise ScenarioError(
            "%s: point %s of the declared domain lies outside every inner chart ball"
            % (scenario.name, np.array2string(worst, precision=3))
        )


def _check_current_bank(scenario, tolerance=1e-8):
    for index, current in enumerate(scenario.currents):
        forms = [f for f in scenario.forms if f.degree == current.degree]
        residual = invariance_residual(current, scenario.group, forms)
        if not residual <= tolerance:
            raise ScenarioError(
                "%s: current %d is not group invariant (residual %.3e)"
                % (scenario.name, index, residual)
            )


def build_scenario(name, group_quadrature=None):
    """Construct a built-in scenario and run its load-time checks."""
    if name not in _BUILDERS:
        raise ScenarioError(
            "unknown scenario %r; available: %s" % (name, ", ".join(available_scenarios()))
        )
    scenario = _BUILDERS[name](group_quadrature)
    _check_isometry(scenario)
    _check_cover(scenario)
    _check_current_bank(scenario)
    return scenario

"""Equivariant mollification of currents and rough Riemannian metrics.

Two smoothing pipelines with shared machinery:

* de Rham currents, each a weighted sample of points, tangent frames and
  weights, are smoothed by averaging shifted pushforwards against a
  compactly supported kernel, either by plain translations on R^n or by
  compactly supported shift maps that fix the complement of the unit ball;
* low-regularity metrics are smoothed by kernel-averaged pullbacks under the
  same shift maps, localized by chart cutoffs and averaged over a compact
  group of isometries so the output keeps the symmetry of the input.

Verification runs on small built-in scenarios through ``eqmollify.cli``.
"""

from .ballmap import (
    BallDomainError,
    ball_compress,
    ball_expand,
    shift_points,
    shift_with_jacobian,
)
from .curvature import (
    CurvatureBounds,
    CurvatureError,
    curvature_bounds,
    sectional_curvature,
)
from .currents import (
    CurrentError,
    DiracCurrent,
    PolyhedralCurrent,
    TestForm,
    equivariant_sample,
    evaluate,
    invariance_residual,
    localize,
    mollified_sample,
)
from .distances import (
    DilationReport,
    DistanceError,
    SampleGraph,
    dilation_estimate,
    sample_graph,
    seeded_point_pairs,
)
from .kernel import (
    MollifierKernel,
    QuadratureError,
    QuadratureRule,
    ball_quadrature,
    normalization_constant,
    sphere_area,
    unit_bump,
)
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
    radial_conformal_metric,
    sobolev_seminorm,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    available_scenarios,
    build_scenario,
    standard_form_bank,
)
from .config import (
    DEFAULT_EPSILONS,
    ConfigError,
    ExperimentConfig,
    load_config,
)
from .experiments import (
    EXPERIMENT_KINDS,
    CheckResult,
    ExperimentReport,
    run_experiment,
    thread_cap,
)

__version__ = "0.1.0"

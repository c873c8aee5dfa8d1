"""Experiment orchestration: sweeps, check evaluation, CSV/JSON reports.

Each experiment kind maps a scenario and a config to a fixed-header row
table plus a list of named checks.  Floats are printed with 17 significant
digits so equal runs produce byte-identical files.  Epsilon stages of a
sweep are independent and may run on a small thread pool capped by the
EQMOLLIFY_THREADS environment variable.
"""

import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
# by name, so that numpy loads the submodule at import, not inside a run
from numpy.random import default_rng

from .config import ConfigError, ExperimentConfig
from .curvature import FD_STEP, curvature_bounds
from .currents import equivariant_sample, evaluate, invariance_residual, mollified_sample
from .distances import _dilation, _reference_side, seeded_point_pairs
from .kernel import MollifierKernel
from .maps import trivial_group
from .metrics import (
    BoxGrid,
    a_nu,
    default_level_schedule,
    haar_average_metric,
    isometry_residual,
    mollify_metric,
    sobolev_seminorm,
)
from .scenarios import build_scenario

__all__ = ["EXPERIMENT_KINDS", "CheckResult", "ExperimentReport", "run_experiment",
           "thread_cap"]

# torus invariance is certified off the quadrature lattice; five fixed
# angles strictly between the 64-node grid lines
OFF_NODE_ANGLES = tuple((j + 0.5) * 2.0 * np.pi / 320.0 for j in range(5))

# select-epsilon searches config.epsilons[0] * 0.5**j for j = 0.._HALVINGS
_HALVINGS = 16


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class ExperimentReport:
    scenario: str
    kind: str
    header: tuple
    rows: list
    checks: list
    csv_path: str = None
    summary_path: str = None

    @property
    def passed(self):
        return all(check.passed for check in self.checks)


def thread_cap():
    """Sweep thread count: EQMOLLIFY_THREADS when set, else up to four.

    A set value that is not an integer of at least 1 is a ConfigError."""
    raw = os.environ.get("EQMOLLIFY_THREADS", "").strip()
    if not raw:
        return min(4, os.cpu_count() or 1)
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError("EQMOLLIFY_THREADS must be an integer >= 1, got %r" % raw)
    return cap


def _sweep(fn, items):
    """Apply fn to each item, possibly in parallel, preserving order."""
    items = list(items)
    cap = min(thread_cap(), len(items))
    if cap <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=cap) as pool:
        return list(pool.map(fn, items))


def _kernel_for(epsilon, dimension):
    return MollifierKernel.create(dimension, epsilon,
                                  level=default_level_schedule(epsilon, dimension))


def _smoothed_field(scenario, kernel, exact=False):
    """The scenario's smoothed metric at one kernel: the atlas walked in
    order, each chart stage evaluating the previous field itself.

    Each stage is the group average of the chart smoothing
    (``haar_average_metric``, which pays one chart stage per coset of the
    stage's symmetry subgroup).  Unless ``exact`` is set, a torus group is
    replaced by the trivial group, one coset, so each stage is the bare
    chart stage: its quadrature angles need not permute the kernel's, and
    the shortcut rests on quadrature accuracy, which the invariance-check
    kind certifies with ``exact`` set.  The chart stages fold their
    quadrature onto signed-permutation orbits unless ``exact`` is set: a
    folded field is invariant under the signed permutations by
    construction, so its residuals would certify nothing.
    """
    group = scenario.group
    if not exact and group.is_quadrature:
        group = trivial_group(scenario.dimension)
    field = scenario.metric
    for cutoff in scenario.atlas:
        field = haar_average_metric(field, cutoff, kernel, group, fold=not exact)
    return field


def _series_step_ratio(values, floor=1e-13):
    """Worst consecutive ratio of a decay series; plateaus at the floor
    count as flat rather than dividing by zero.  A NaN stage anywhere makes
    the ratio NaN, so no check built on it can pass."""
    ratios = [1.0 if a <= floor and b <= floor else b / np.maximum(a, floor)
              for a, b in zip(values, values[1:])]
    return float(np.max([0.0] + ratios))


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


def _probe_points(scenario, count=40, seed=42):
    rng = default_rng(seed)
    raw = rng.standard_normal((count, scenario.dimension))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = scenario.domain_radius * rng.uniform(0.05, 1.0, size=count) ** 0.5
    return raw * radii[:, None]


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _run_mollify_current(scenario, config):
    delta = config.delta if config.delta is not None else 0.02
    pairs = scenario.matched_pairs()
    references = {
        (ci, fi): evaluate(scenario.currents[ci], scenario.forms[fi])
        for ci, fi in pairs
    }

    def stage(epsilon):
        kernel = _kernel_for(epsilon, scenario.dimension)
        out = []
        # one smoothed sample per (current, route), paired with all its forms
        for ci, group in itertools.groupby(pairs, key=lambda pair: pair[0]):
            current = scenario.currents[ci]
            fis = [fi for _, fi in group]
            forms = [scenario.forms[fi] for fi in fis]
            observed = [(route, mollified_sample(current, kernel, ball_shifts=shifts)
                         .pair_many(forms).tolist())
                        for route, shifts in (("translation", False), ("shift", True))]
            for k, fi in enumerate(fis):
                reference = references[(ci, fi)]
                tolerance = delta * max(1.0, abs(reference))
                for route, values in observed:
                    out.append((epsilon, "current%d" % ci, "form%02d" % fi, route,
                                values[k], reference, abs(values[k] - reference),
                                tolerance))
        return out

    stages = _sweep(stage, config.epsilons)
    rows = [row for stage_rows in stages for row in stage_rows]
    checks = []
    for route in ("translation", "shift"):
        ratios, finals = [], []
        for ci, fi in pairs:
            series = [row[6] for row in rows
                      if row[1] == "current%d" % ci and row[2] == "form%02d" % fi
                      and row[3] == route]
            tolerance = delta * max(1.0, abs(references[(ci, fi)]))
            ratios.append(_series_step_ratio(series))
            finals.append(series[-1] / tolerance)
        worst_ratio, worst_final = np.max(ratios), np.max(finals)
        checks.append(CheckResult("%s_series_decreasing" % route,
                                  worst_ratio, 1.0 + 1e-9,
                                  worst_ratio <= 1.0 + 1e-9))
        checks.append(CheckResult("%s_final_error" % route,
                                  worst_final, 1.0, worst_final <= 1.0))
    header = ("epsilon", "current", "form", "route", "observed", "reference",
              "error", "tolerance")
    return header, rows, checks


def _run_smooth_metric(scenario, config):
    delta = config.delta if config.delta is not None else 0.01
    grid = scenario.scan_grid(config.grid)

    def stage(epsilon):
        kernel = _kernel_for(epsilon, scenario.dimension)
        smooth = mollify_metric(scenario.metric, kernel)
        deviation = sobolev_seminorm(smooth, grid, reference=scenario.metric)
        return epsilon, kernel.quadrature.level, deviation, delta

    rows = _sweep(stage, config.epsilons)
    series = [row[2] for row in rows]
    ratio = _series_step_ratio(series)
    best = np.min(series)  # np.min, not min: a NaN stage must reach the check
    selected = next((eps for eps, _, dev, _ in rows if dev < delta), float("nan"))
    checks = [
        CheckResult("deviation_decreasing", ratio, 1.05, ratio <= 1.05),
        CheckResult("below_delta", best, delta, best < delta),
        CheckResult("selected_epsilon", selected, delta, selected == selected),
    ]
    header = ("epsilon", "level", "seminorm_deviation", "tolerance")
    return header, rows, checks


def _run_curvature_report(scenario, config):
    delta = config.delta if config.delta is not None else 0.05
    grid = scenario.scan_grid(config.grid)
    declared = scenario.curvature_bounds
    kw = dict(mask_radius=scenario.scan_radius,
              exclusion_radii=scenario.discontinuity_radii,
              exclusion_width=max(0.02, 2.0 * FD_STEP))
    raw = curvature_bounds(scenario.metric, grid, **kw)
    rows = [
        (0.0, "lower_bound", raw.lower, declared[0], delta),
        (0.0, "upper_bound", raw.upper, declared[1], delta),
    ]

    def stage(epsilon):
        kernel = _kernel_for(epsilon, scenario.dimension)
        bounds = curvature_bounds(_smoothed_field(scenario, kernel), grid, **kw)
        return [
            (epsilon, "lower_bound", bounds.lower, declared[0], delta),
            (epsilon, "upper_bound", bounds.upper, declared[1], delta),
        ]

    for stage_rows in _sweep(stage, config.epsilons):
        rows.extend(stage_rows)
    # np.max and np.argmin, not max and min: a NaN bound must reach the
    # checks whatever its row
    raw_gap = np.max([abs(raw.lower - declared[0]), abs(raw.upper - declared[1])])
    gaps = {}
    for epsilon, quantity, value, reference, _ in rows[2:]:
        gaps.setdefault(epsilon, []).append(abs(value - reference))
    worst = [np.max(stage_gaps) for stage_gaps in gaps.values()]
    best = int(np.argmin(worst))
    best_eps, best_gap = list(gaps)[best], worst[best]
    checks = [
        CheckResult("raw_bounds_gap", raw_gap, delta, raw_gap <= delta),
        CheckResult("smoothed_bounds_gap", best_gap, delta, best_gap <= delta),
        CheckResult("smoothed_best_epsilon", best_eps, delta, best_gap <= delta),
    ]
    header = ("epsilon", "quantity", "value", "reference", "tolerance")
    return header, rows, checks


def _run_lipschitz_sweep(scenario, config):
    delta = config.delta if config.delta is not None else 0.02
    grid = scenario.scan_grid(config.graph_grid)
    pairs = seeded_point_pairs(config.pairs, config.seed,
                               0.9 * scenario.domain_radius,
                               dimension=scenario.dimension,
                               min_separation=0.4 * scenario.domain_radius)
    reference = _reference_side(scenario.metric, pairs, grid,
                                mask_radius=scenario.scan_radius)

    def stage(epsilon):
        kernel = _kernel_for(epsilon, scenario.dimension)
        field = _smoothed_field(scenario, kernel)
        report = _dilation(reference, field, grid, mask_radius=scenario.scan_radius)
        return epsilon, report.max_deviation, delta

    rows = _sweep(stage, config.epsilons)
    series = [row[1] for row in rows]
    ratio = _series_step_ratio(series)
    checks = [
        CheckResult("deviation_decreasing", ratio, 1.10, ratio <= 1.10),
        CheckResult("final_deviation", series[-1], delta, series[-1] <= delta),
    ]
    header = ("epsilon", "max_dilation_deviation", "tolerance")
    return header, rows, checks


def _run_invariance_check(scenario, config):
    finite = not scenario.group.is_quadrature
    metric_tol = 1e-10 if finite else 1e-6
    current_tol = 1e-10
    points = _probe_points(scenario, seed=config.seed)
    matrices = scenario.group if finite else [_rotation(a) for a in OFF_NODE_ANGLES]

    def stage(epsilon):
        kernel = _kernel_for(epsilon, scenario.dimension)
        field = _smoothed_field(scenario, kernel, exact=True)
        out = [(epsilon, "smoothed_metric",
                isometry_residual(field, matrices, points), metric_tol)]
        for ci, current in enumerate(scenario.currents):
            forms = [f for f in scenario.forms if f.degree == current.degree]
            sample = equivariant_sample(current, kernel, scenario.atlas[0],
                                        scenario.group)
            out.append((epsilon, "smoothed_current_%d" % ci,
                        invariance_residual(sample, scenario.group, forms),
                        current_tol))
        return out

    stages = _sweep(stage, config.epsilons)
    rows = [row for stage_rows in stages for row in stage_rows]
    # np.max, not max: a NaN residual must reach the check whatever its row
    worst_metric = np.max([row[2] for row in rows if row[1] == "smoothed_metric"])
    checks = [CheckResult("max_metric_residual", worst_metric, metric_tol,
                          worst_metric <= metric_tol)]
    current_rows = [row[2] for row in rows if row[1].startswith("smoothed_current")]
    if current_rows:
        worst = np.max(current_rows)
        checks.append(CheckResult("max_current_residual", worst, current_tol,
                                  worst <= current_tol))
    header = ("epsilon", "check", "residual", "tolerance")
    return header, rows, checks


def _run_select_epsilon(scenario, config):
    """Per k, the largest epsilon of the halving lattice whose smoothed
    metric is within a_nu / k of the input.  Rungs are measured in order,
    each once across all k; an unmet bound reports the rung of smallest
    deviation and fails its check."""
    grid = scenario.scan_grid(config.grid)
    unit_grid = BoxGrid((-1.0,) * scenario.dimension, (1.0,) * scenario.dimension,
                        (41,) * scenario.dimension)
    floor = a_nu(scenario.metric, unit_grid)
    measured = []  # (epsilon, deviation) of the rungs reached so far

    def rungs():
        for j in range(_HALVINGS + 1):
            if j == len(measured):
                epsilon = config.epsilons[0] * 0.5**j
                kernel = _kernel_for(epsilon, scenario.dimension)
                field = _smoothed_field(scenario, kernel)
                deviation = sobolev_seminorm(field, grid, reference=scenario.metric)
                measured.append((epsilon, deviation))
            yield measured[j]

    rows, checks = [], []
    for k in config.k_values:
        bound = floor / float(k)
        chosen = next((rung for rung in rungs() if rung[1] <= bound), None)
        met = chosen is not None
        if not met:
            chosen = min(measured, key=lambda rung: rung[1])
        rows.append((k, chosen[0], chosen[1], bound))
        checks.append(CheckResult("bound_met_k%d" % k, chosen[1], bound, met))
    epsilons = [row[1] for row in rows]
    worst = max((b / a for a, b in zip(epsilons, epsilons[1:])), default=0.0)
    checks.append(CheckResult("epsilon_non_increasing", worst, 1.0, worst <= 1.0))
    header = ("k", "epsilon", "achieved", "tolerance")
    return header, rows, checks


_RUNNERS = {
    "mollify-current": _run_mollify_current,
    "smooth-metric": _run_smooth_metric,
    "curvature-report": _run_curvature_report,
    "lipschitz-sweep": _run_lipschitz_sweep,
    "invariance-check": _run_invariance_check,
    "select-epsilon": _run_select_epsilon,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def _check_kernel_scales(kind, config, dimension):
    """A ConfigError unless eps**n and its reciprocal, the kernel's density
    scale, are finite normal doubles at every epsilon the kind runs; for
    select-epsilon the smallest is its last halving rung."""
    tiny = np.finfo(float).tiny  # the least normal double
    epsilons = list(config.epsilons)
    if kind == "select-epsilon":
        epsilons = [epsilons[0], epsilons[0] * 0.5**_HALVINGS]
    for epsilon in epsilons:
        try:
            volume = epsilon**dimension
        except OverflowError:
            volume = np.inf
        if not tiny <= volume <= 1.0 / tiny:
            raise ConfigError("epsilon %r gives a kernel scale epsilon**%d outside the"
                              " normal double range" % (epsilon, dimension))


def _write_report(report, out_dir):
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", newline="") as handle:
        handle.write(",".join(report.header) + "\n")
        for row in report.rows:
            handle.write(",".join(_fmt(cell) for cell in row) + "\n")
    summary_path = os.path.join(out_dir, "summary.json")
    summary = {
        "scenario": report.scenario,
        "kind": report.kind,
        "checks": [
            {"name": c.name, "value": float(c.value), "tolerance": float(c.tolerance),
             "pass": bool(c.passed)}
            for c in report.checks
        ],
    }
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    report.csv_path = csv_path
    report.summary_path = summary_path


def run_experiment(kind, config, write=True):
    """Run one experiment kind against a validated config.

    Reports land in the config's output directory (default
    ``runs/<scenario>-<kind>``) as results.csv plus summary.json.
    """
    if kind not in _RUNNERS:
        raise ConfigError(
            "unknown experiment kind %r; available: %s"
            % (kind, ", ".join(EXPERIMENT_KINDS))
        )
    if not isinstance(config, ExperimentConfig):
        raise ConfigError("run_experiment expects an ExperimentConfig")
    thread_cap()  # a bad EQMOLLIFY_THREADS fails before any work starts
    scenario = build_scenario(config.scenario,
                              group_quadrature=config.group_quadrature)
    _check_kernel_scales(kind, config, scenario.dimension)
    if kind == "mollify-current" and not scenario.currents:
        raise ConfigError("scenario %s has no current bank" % scenario.name)
    out_dir = config.out or os.path.join("runs", "%s-%s" % (scenario.name, kind))
    if write:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as err:
            raise ConfigError("cannot create output directory %r: %s" % (out_dir, err))
    header, rows, checks = _RUNNERS[kind](scenario, config)
    report = ExperimentReport(scenario=scenario.name, kind=kind, header=header,
                              rows=rows, checks=list(checks))
    if write:
        try:
            _write_report(report, out_dir)
        except OSError as err:
            raise ConfigError("cannot write report in %r: %s" % (out_dir, err)) from err
    return report

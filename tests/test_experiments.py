"""Experiment engine: sweep helpers, check aggregation, report files.

Heavy numerical claims (convergence rates, curvature gaps, runtime
budgets) live in test_acceptance.py; this module keeps each engine run
small and asserts structure, determinism, and the documented check
semantics.
"""

import dataclasses
import json
import os
import runpy
from pathlib import Path

import numpy as np
import pytest

from eqmollify import distances, experiments
from eqmollify.config import ConfigError, ExperimentConfig, load_config
from eqmollify.experiments import (
    EXPERIMENT_KINDS,
    CheckResult,
    _fmt,
    _kernel_for,
    _probe_points,
    _series_step_ratio,
    _smoothed_field,
    run_experiment,
    thread_cap,
)
from eqmollify.kernel import MollifierKernel, QuadratureRule
from eqmollify.maps import AffineChart, cyclic_rotation_group, trivial_group
from eqmollify.metrics import MetricField, _stage_cosets, chart_smooth_metric, haar_average_metric
from eqmollify.scenarios import build_scenario


class TestThreadCap:
    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("EQMOLLIFY_THREADS", "2")
        assert thread_cap() == 2

    def test_env_below_one_rejected(self, monkeypatch):
        for raw in ("0", "-3"):
            monkeypatch.setenv("EQMOLLIFY_THREADS", raw)
            with pytest.raises(ConfigError, match="EQMOLLIFY_THREADS"):
                thread_cap()

    def test_invalid_env_rejected(self, monkeypatch):
        for raw in ("fast", "2.5", "1e3"):
            monkeypatch.setenv("EQMOLLIFY_THREADS", raw)
            with pytest.raises(ConfigError, match="EQMOLLIFY_THREADS"):
                thread_cap()

    def test_unset_or_blank_env_uses_default(self, monkeypatch):
        monkeypatch.delenv("EQMOLLIFY_THREADS", raising=False)
        default = thread_cap()
        assert 1 <= default <= 4
        for raw in ("", "  "):
            monkeypatch.setenv("EQMOLLIFY_THREADS", raw)
            assert thread_cap() == default


# the benchmark's smallest sizes of its sphere-seminorm and orbit-currents
# workloads, a two-stage sphere curvature report on the guarded chart-stage
# path, and the cheap sizes of acceptance criterion 12 for the other kinds;
# the sweeps have two or more stages, so two threads really run side by side
THREAD_SAMPLES = {
    "smooth-metric": dict(scenario="round_sphere_chart", grid=17, delta=0.01,
                          epsilons=(4.8828125e-05, 2.44140625e-05, 1.220703125e-05)),
    "mollify-current": dict(scenario="orbit_currents", delta=0.02,
                            epsilons=(0.0125, 0.00625)),
    "curvature-report": dict(scenario="round_sphere_chart", grid=9, delta=0.05,
                             epsilons=(0.05, 0.025)),
    "lipschitz-sweep": dict(scenario="euclid_z4", epsilons=(0.05, 0.025),
                            graph_grid=9, pairs=8),
    "invariance-check": dict(scenario="euclid_z4", epsilons=(0.1, 0.05)),
    # a two-coset torus average at both epsilons, one per pool thread
    "invariance-check-cosets": dict(scenario="radial_c11", group_quadrature=64,
                                    epsilons=(0.05, 0.025)),
    "select-epsilon": dict(scenario="euclid_z4", k_values=(1,), grid=33),
}


@pytest.mark.parametrize("sample", sorted(THREAD_SAMPLES))
def test_thread_count_changes_no_output_byte(tmp_path, monkeypatch, sample):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("EQMOLLIFY_THREADS", threads)
        config = ExperimentConfig(out=str(tmp_path / threads), **THREAD_SAMPLES[sample])
        report = run_experiment(sample.removesuffix("-cosets"), config)
        assert report.passed
        outputs.append([Path(path).read_bytes()
                        for path in (report.csv_path, report.summary_path)])
    assert outputs[0] == outputs[1]


class TestSeriesStepRatio:
    def test_decaying(self):
        assert _series_step_ratio([4.0, 2.0, 1.0]) == pytest.approx(0.5)

    def test_growth_detected(self):
        assert _series_step_ratio([1.0, 3.0]) == pytest.approx(3.0)

    def test_floor_plateau_counts_flat(self):
        assert _series_step_ratio([1e-14, 1e-15]) == 1.0

    def test_climb_out_of_floor_is_growth(self):
        assert _series_step_ratio([1e-14, 5e-13]) == pytest.approx(5.0)

    def test_short_series(self):
        assert _series_step_ratio([]) == 0.0
        assert _series_step_ratio([2.0]) == 0.0

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_stage_makes_the_ratio_nan(self, position):
        series = [1.0, 0.5, 0.25]
        series[position] = float("nan")
        assert np.isnan(_series_step_ratio(series))
        assert np.isnan(_series_step_ratio([1e-14, float("nan")]))


# three stages that decay well below every delta; a NaN put in any one of
# them must fail the series checks
EPSILONS = (0.2, 0.1, 0.05)
NAN_POSITIONS = pytest.mark.parametrize("position", [0, 1, 2])


def _stage_values(position):
    return {eps: float("nan") if k == position else 1e-3 * eps
            for k, eps in enumerate(EPSILONS)}


class TestNanStages:
    @NAN_POSITIONS
    def test_smooth_metric(self, monkeypatch, position):
        values = _stage_values(position)
        monkeypatch.setattr(experiments, "mollify_metric", lambda metric, kernel: kernel)
        monkeypatch.setattr(experiments, "sobolev_seminorm",
                            lambda kernel, grid, reference: values[kernel.epsilon])
        config = ExperimentConfig(scenario="euclid_z4", epsilons=EPSILONS, grid=5,
                                  delta=0.01)
        checks = {c.name: c for c in run_experiment("smooth-metric", config,
                                                    write=False).checks}
        for name in ("deviation_decreasing", "below_delta"):
            assert np.isnan(checks[name].value) and not checks[name].passed

    @NAN_POSITIONS
    def test_lipschitz_sweep(self, monkeypatch, position):
        values = _stage_values(position)
        monkeypatch.setattr(experiments, "_smoothed_field",
                            lambda scenario, kernel: kernel.epsilon)
        monkeypatch.setattr(experiments, "_reference_side", lambda *args, **kw: None)
        monkeypatch.setattr(
            experiments, "_dilation",
            lambda reference, epsilon, grid, mask_radius:
                dataclasses.make_dataclass("Report", ["max_deviation"])(values[epsilon]))
        config = ExperimentConfig(scenario="euclid_z4", epsilons=EPSILONS,
                                  graph_grid=5, pairs=2)
        check = run_experiment("lipschitz-sweep", config, write=False).checks[0]
        assert check.name == "deviation_decreasing"
        assert np.isnan(check.value) and not check.passed

    @NAN_POSITIONS
    def test_curvature_report(self, monkeypatch, position):
        values = _stage_values(position)
        declared = build_scenario("round_sphere_chart").curvature_bounds
        bounds = dataclasses.make_dataclass("Bounds", ["lower", "upper"])

        def scan(field, grid, **kw):
            # the input metric scans exactly; a stage's field is its epsilon
            gap = values[field] if isinstance(field, float) else 0.0
            return bounds(declared[0] - gap, declared[1])

        monkeypatch.setattr(experiments, "_smoothed_field",
                            lambda scenario, kernel: kernel.epsilon)
        monkeypatch.setattr(experiments, "curvature_bounds", scan)
        config = ExperimentConfig(scenario="round_sphere_chart", epsilons=EPSILONS,
                                  grid=5)
        checks = {c.name: c for c in run_experiment("curvature-report", config,
                                                    write=False).checks}
        assert checks["raw_bounds_gap"].passed
        assert np.isnan(checks["smoothed_bounds_gap"].value)
        assert checks["smoothed_best_epsilon"].value == EPSILONS[position]
        assert not checks["smoothed_bounds_gap"].passed
        assert not checks["smoothed_best_epsilon"].passed

    def test_mollify_current(self, monkeypatch):
        # a NaN pairing in the last form of each current at the middle stage;
        # the first pair stays finite, so Python's max would drop the NaN
        def sample(current, kernel, ball_shifts):
            def pair_many(forms):
                out = np.full(len(forms), 1e-3 * kernel.epsilon)
                if kernel.epsilon == EPSILONS[1]:
                    out[-1] = np.nan
                return out
            return dataclasses.make_dataclass("Sample", ["pair_many"])(pair_many)

        monkeypatch.setattr(experiments, "evaluate", lambda current, form: 0.0)
        monkeypatch.setattr(experiments, "mollified_sample", sample)
        config = ExperimentConfig(scenario="euclid_z4", epsilons=EPSILONS)
        checks = run_experiment("mollify-current", config, write=False).checks
        series = [c for c in checks if c.name.endswith("_series_decreasing")]
        assert len(series) == 2
        for check in series:
            assert np.isnan(check.value) and not check.passed


class TestFormatting:
    def test_float_17_digits(self):
        assert _fmt(0.1) == "0.10000000000000001"

    def test_int_plain(self):
        assert _fmt(3) == "3"
        assert _fmt(np.int64(3)) == "3"

    def test_bool_as_bit(self):
        assert _fmt(True) == "1"
        assert _fmt(np.False_) == "0"

    def test_string_passthrough(self):
        assert _fmt("shift") == "shift"


class TestRunExperimentGuards:
    def test_unknown_kind(self):
        config = ExperimentConfig(scenario="euclid_z4")
        with pytest.raises(ConfigError, match="mollify-current"):
            run_experiment("mollify-everything", config)

    def test_config_type_enforced(self):
        with pytest.raises(ConfigError, match="ExperimentConfig"):
            run_experiment("invariance-check", {"scenario": "euclid_z4"})


class TestInvarianceKind:
    def test_structure_and_pass(self):
        config = ExperimentConfig(scenario="euclid_z4", epsilons=(0.1,))
        report = run_experiment("invariance-check", config, write=False)
        assert report.kind == "invariance-check"
        assert report.header == ("epsilon", "check", "residual", "tolerance")
        labels = [row[1] for row in report.rows]
        assert labels == ["smoothed_metric", "smoothed_current_0",
                          "smoothed_current_1"]
        assert [c.name for c in report.checks] == ["max_metric_residual",
                                                   "max_current_residual"]
        assert report.passed
        assert report.csv_path is None

    def test_square_loop_is_smoothed_invariantly(self):
        # the loop lies on the atlas bump's plateau, so localize keeps its
        # whole weight inside; it goes through the equivariant sample next
        # to the two orbit currents
        config = ExperimentConfig(scenario="orbit_currents", epsilons=(0.1,))
        report = run_experiment("invariance-check", config, write=False)
        residuals = [row[2] for row in report.rows
                     if row[1].startswith("smoothed_current")]
        assert len(residuals) == 3
        assert max(residuals) <= 1e-10
        assert report.passed

    @pytest.mark.parametrize("nan_epsilon", [0.1, 0.05])
    def test_nan_residuals_fail_in_any_row(self, monkeypatch, nan_epsilon):
        # Python's max keeps a NaN only when it comes first; the worst row
        # must be NaN whichever epsilon produced it
        smoothed, sampled = experiments._smoothed_field, experiments.equivariant_sample
        nan_field = MetricField(fn=lambda x: np.full((x.shape[0], 2, 2), np.nan),
                                dimension=2)

        def field(scenario, kernel, exact=False):
            if kernel.epsilon == nan_epsilon:
                return nan_field
            return smoothed(scenario, kernel, exact)

        def sample(current, kernel, cutoff, group):
            out = sampled(current, kernel, cutoff, group)
            if kernel.epsilon == nan_epsilon:
                out = dataclasses.replace(out, weights=np.full_like(out.weights, np.nan))
            return out

        monkeypatch.setattr(experiments, "_smoothed_field", field)
        monkeypatch.setattr(experiments, "equivariant_sample", sample)
        config = ExperimentConfig(scenario="euclid_z4", epsilons=(0.1, 0.05))
        report = run_experiment("invariance-check", config, write=False)
        assert sum(np.isnan(row[2]) for row in report.rows) == 3
        for check in report.checks:
            assert np.isnan(check.value) and not check.passed
        assert not report.passed


class TestSmoothMetricKind:
    def test_selected_epsilon_is_first_crossing(self):
        config = ExperimentConfig(scenario="strip_two_charts",
                                  epsilons=(0.2, 0.1), grid=17, delta=1e9)
        report = run_experiment("smooth-metric", config, write=False)
        assert [row[0] for row in report.rows] == [0.2, 0.1]
        by_name = {c.name: c for c in report.checks}
        assert by_name["below_delta"].passed
        # an absurdly loose delta is crossed immediately
        assert by_name["selected_epsilon"].value == 0.2

    def test_unreachable_delta_fails_with_nan_marker(self):
        config = ExperimentConfig(scenario="strip_two_charts",
                                  epsilons=(0.2,), grid=17, delta=1e-12)
        report = run_experiment("smooth-metric", config, write=False)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["below_delta"].passed
        assert np.isnan(by_name["selected_epsilon"].value)
        assert not by_name["selected_epsilon"].passed
        assert not report.passed


class TestMollifyCurrentKind:
    def test_requires_current_bank(self):
        config = ExperimentConfig(scenario="round_sphere_chart")
        with pytest.raises(ConfigError, match="no current bank"):
            run_experiment("mollify-current", config, write=False)

    def test_row_block_per_epsilon(self):
        config = ExperimentConfig(scenario="euclid_z4", epsilons=(0.1, 0.05))
        report = run_experiment("mollify-current", config, write=False)
        # 12 matched pairs x 2 routes per epsilon
        assert len(report.rows) == 2 * 12 * 2
        routes = {row[3] for row in report.rows}
        assert routes == {"translation", "shift"}
        names = [c.name for c in report.checks]
        assert names == ["translation_series_decreasing",
                         "translation_final_error",
                         "shift_series_decreasing", "shift_final_error"]


class TestLipschitzSweepKind:
    def test_reference_is_built_once_and_moves_no_bit(self, monkeypatch):
        # the shipped radial-lipschitz sample, every stage against the one-off
        # estimate that builds its own reference graph
        config = load_config(Path(__file__).resolve().parent.parent
                             / "configs" / "radial-lipschitz.json")
        scenario = build_scenario(config.scenario)
        grid = scenario.scan_grid(config.graph_grid)
        pairs = distances.seeded_point_pairs(config.pairs, config.seed,
                                             0.9 * scenario.domain_radius,
                                             min_separation=0.4 * scenario.domain_radius)
        expected = []
        for epsilon in config.epsilons:
            field = _smoothed_field(scenario, _kernel_for(epsilon, scenario.dimension))
            report = distances.dilation_estimate(scenario.metric, field, pairs, grid,
                                                 mask_radius=scenario.scan_radius)
            expected.append(report.max_deviation)
        graphs = []
        build = distances.sample_graph
        monkeypatch.setattr(distances, "sample_graph",
                            lambda metric, *args, **kw: graphs.append(metric)
                            or build(metric, *args, **kw))
        rows = run_experiment("lipschitz-sweep", config, write=False).rows
        assert [row[1] for row in rows] == expected
        # one graph per stage and one for the reference
        assert len(graphs) == len(config.epsilons) + 1


class TestTorusSweepField:
    def test_chart_stage_matches_full_average(self):
        """The rotation-symmetric chart construction reproduces the torus
        average to quadrature accuracy, which is what lets sweeps skip the
        64x Haar cost; the gap also collapses once the kernel support
        falls inside the shift plateau."""
        scenario = build_scenario("radial_c11")
        pts = _probe_points(scenario, count=10)
        gaps = []
        for eps in (0.05, 0.0125):
            kernel = _kernel_for(eps, 2)
            chart_only = _smoothed_field(scenario, kernel)
            full = haar_average_metric(scenario.metric, scenario.atlas[0],
                                       kernel, scenario.group)
            gaps.append(float(np.max(np.abs(full.value(pts)
                                            - chart_only.value(pts)))))
        assert gaps[0] <= 1e-5
        assert gaps[1] <= 1e-10

    @pytest.mark.parametrize("epsilon", [0.05, 0.0125])
    def test_sweep_field_is_the_folded_chart_stage(self, epsilon):
        # the trivial group is one coset, so the sweep field is the folded
        # chart stage bit for bit
        scenario = build_scenario("radial_c11")
        assert scenario.group.is_quadrature and len(scenario.atlas) == 1
        kernel = _kernel_for(epsilon, 2)
        pts = _probe_points(scenario)
        stage = chart_smooth_metric(scenario.metric, scenario.atlas[0], kernel, fold=True)
        assert np.array_equal(_smoothed_field(scenario, kernel).value(pts), stage.value(pts))


def _full_average(scenario, kernel, points, fold=False):
    """The |G|-term group average of the first chart stage, one stage per
    element in group order: the reference for the coset rule."""
    stage = chart_smooth_metric(scenario.metric, scenario.atlas[0], kernel, fold=fold)
    acc = np.zeros((points.shape[0], 2, 2))
    for mat, weight in zip(scenario.group.matrices, scenario.group.weights):
        acc += weight * (mat.T @ stage.value(points @ mat.T) @ mat)
    return acc


def _coset_count(scenario, kernel):
    return len(_stage_cosets(scenario.metric, scenario.atlas[0], kernel, scenario.group)[0])


class TestChartStageGuard:
    """The symmetry guard is the coset rule of ``metrics._stage_cosets``:
    the group average runs over one element per coset of the subgroup that
    fixes the chart centre and permutes the kernel nodes."""

    @pytest.mark.parametrize("name", ["round_sphere_chart", "euclid_z4"])
    @pytest.mark.parametrize("epsilon", [0.2, 0.05, 0.0125])
    def test_chart_stage_matches_group_average(self, name, epsilon):
        scenario = build_scenario(name)
        kernel = _kernel_for(epsilon, 2)
        assert _coset_count(scenario, kernel) == 1
        pts = _probe_points(scenario)
        # one coset: the group average is the chart stage itself
        field = _smoothed_field(scenario, kernel, exact=True).value(pts)
        stage = chart_smooth_metric(scenario.metric, scenario.atlas[0], kernel)
        assert np.array_equal(field, stage.value(pts))
        assert np.max(np.abs(field - _full_average(scenario, kernel, pts))) <= 1e-12

    @pytest.mark.parametrize("group", [trivial_group(2), cyclic_rotation_group(4),
                                       cyclic_rotation_group(8)],
                             ids=["trivial", "z4", "z8"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_guard_accepts_permuting_groups(self, group, level):
        scenario = dataclasses.replace(build_scenario("round_sphere_chart"),
                                       group=group)
        for epsilon in (0.2, 0.0125):
            kernel = MollifierKernel.create(2, epsilon, level=level)
            assert _coset_count(scenario, kernel) == 1

    @pytest.mark.parametrize("level, count", [(1, 4), (2, 2), (3, 1)])
    def test_torus_cosets_match_the_full_average(self, level, count):
        """The 64 torus angles permute the 16, 32 and 64 midpoint angles
        of levels 1-3 by every 4th, 2nd and 1st angle."""
        scenario = build_scenario("radial_c11", group_quadrature=64)
        kernel = MollifierKernel.create(2, 0.05, level=level)
        reps, weights = _stage_cosets(scenario.metric, scenario.atlas[0], kernel, scenario.group)
        assert len(reps) == count
        assert np.array_equal(weights, np.full(count, 1.0 / count))
        pts = _probe_points(scenario)
        full = _full_average(scenario, kernel, pts)
        cosets = haar_average_metric(scenario.metric, scenario.atlas[0], kernel,
                                     scenario.group).value(pts)
        # measured: at most 4.8e-15 of the largest entry at levels 1-3,
        # epsilon 0.05 and 0.0125 (40 probe points)
        assert np.max(np.abs(cosets - full)) <= 1e-14 * np.max(np.abs(full))

    def test_guard_rejects_nodes_that_land_on_unequal_weights(self):
        # the Z8 node set is kept, but one node's raw weight is changed
        scenario = build_scenario("round_sphere_chart")
        kernel = MollifierKernel.create(2, 0.05, level=1)
        rule = kernel.quadrature
        weights = rule.weights.copy()
        weights[3] *= 1.5
        skewed = MollifierKernel(kernel.dimension, kernel.epsilon,
                                 QuadratureRule(rule.nodes, weights, rule.level))
        assert _coset_count(scenario, kernel) == 1
        assert _coset_count(scenario, skewed) == len(scenario.group)

    def test_guard_rejects_groups_that_are_not_isometries(self):
        """Z4 fixes the centre and permutes the level-2 nodes, but it does
        not preserve g11 = 2 + x, g12 = 0.1 y: every element is its own
        coset, and the average is the full Z4 loop bit for bit."""
        def anisotropic(pts):
            pts = np.atleast_2d(pts)
            g = np.zeros((pts.shape[0], 2, 2))
            g[:, 0, 0] = 2.0 + pts[:, 0]
            g[:, 0, 1] = g[:, 1, 0] = 0.1 * pts[:, 1]
            g[:, 1, 1] = 1.0
            return g
        scenario = dataclasses.replace(
            build_scenario("euclid_z4"), metric=MetricField(fn=anisotropic, dimension=2))
        kernel = MollifierKernel.create(2, 0.1, level=2)
        assert _coset_count(scenario, kernel) == 4
        pts = _probe_points(scenario)
        averaged = haar_average_metric(scenario.metric, scenario.atlas[0], kernel,
                                       scenario.group).value(pts)
        assert np.array_equal(averaged, _full_average(scenario, kernel, pts))

    def test_identity_is_never_probed(self):
        def unreadable(pts):
            raise AssertionError("the input was evaluated")
        scenario = dataclasses.replace(
            build_scenario("strip_two_charts"), metric=MetricField(fn=unreadable, dimension=2))
        kernel = MollifierKernel.create(2, 0.1, level=2)
        assert _coset_count(scenario, kernel) == 1

    @staticmethod
    def _rejected(case):
        sphere = build_scenario("round_sphere_chart")
        cutoff = sphere.atlas[0]
        if case == "z3":
            return dataclasses.replace(sphere, group=cyclic_rotation_group(3))
        chart = AffineChart([0.1, 0.0], 1.0)
        return dataclasses.replace(
            sphere, atlas=(dataclasses.replace(cutoff, chart=chart),))

    @pytest.mark.parametrize("case", ["off-centre", "z3"])
    def test_guard_rejects_and_falls_back_bit_for_bit(self, case):
        """A 120 degree rotation does not permute the 16/32/64 midpoint
        angles; an off-centre chart does not commute with the rotations.
        Each element is its own coset, which is the full average of the
        chart stages the sweep kinds take, folded where their guard lets
        them."""
        scenario = self._rejected(case)
        for level in (1, 2, 3):
            kernel = MollifierKernel.create(2, 0.05, level=level)
            assert _coset_count(scenario, kernel) == len(scenario.group)
        kernel = _kernel_for(0.05, 2)
        pts = _probe_points(scenario)
        assert np.array_equal(_smoothed_field(scenario, kernel).value(pts),
                              _full_average(scenario, kernel, pts, fold=True))


class TestReportFiles:
    def run_once(self, tmp_path, name):
        config = ExperimentConfig(scenario="euclid_z4", epsilons=(0.1,),
                                  out=str(tmp_path / name))
        return run_experiment("invariance-check", config)

    def test_files_written(self, tmp_path):
        report = self.run_once(tmp_path, "run")
        assert os.path.isfile(report.csv_path)
        assert os.path.isfile(report.summary_path)
        with open(report.csv_path) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "epsilon,check,residual,tolerance"
        assert len(lines) == 1 + len(report.rows)
        with open(report.summary_path) as handle:
            summary = json.load(handle)
        assert set(summary) == {"scenario", "kind", "checks"}
        assert summary["scenario"] == "euclid_z4"
        assert all(set(c) == {"name", "value", "tolerance", "pass"}
                   for c in summary["checks"])

    def test_summary_keys_sorted_with_final_newline(self, tmp_path):
        report = self.run_once(tmp_path, "run")
        text = Path(report.summary_path).read_text()
        assert text.endswith("\n")
        assert text.index('"checks"') < text.index('"kind"') < text.index('"scenario"')

    def test_same_seed_runs_byte_identical(self, tmp_path):
        first = self.run_once(tmp_path, "first")
        second = self.run_once(tmp_path, "second")
        assert (Path(first.csv_path).read_bytes()
                == Path(second.csv_path).read_bytes())
        assert (Path(first.summary_path).read_bytes()
                == Path(second.summary_path).read_bytes())

    def test_default_out_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = ExperimentConfig(scenario="euclid_z4", epsilons=(0.1,))
        report = run_experiment("invariance-check", config)
        assert report.csv_path == os.path.join(
            "runs", "euclid_z4-invariance-check", "results.csv")
        assert os.path.isfile(report.csv_path)


REPO = Path(__file__).resolve().parents[1]


def _cell_close(observed, reference):
    """The benchmark's rule for a results.csv cell: |a - b| <= 1e-12 +
    1e-6 |b| for numbers, nan only against nan, text equal."""
    try:
        a, b = float(observed), float(reference)
    except ValueError:
        return observed == reference
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return abs(a - b) <= 1e-12 + 1e-6 * abs(b)


# the benchmark's workloads, read from its own table without importing
# bench/ as a package, so that no bytecode lands there
BENCH_WORKLOADS = runpy.run_path(str(REPO / "bench" / "workloads.py"))


def _assert_on_the_benchmark_reference(name, tmp_path):
    """Run a benchmark workload as bench/run.py sets it up at --seed 0 and
    compare every results.csv cell against bench/references/<name>.csv."""
    workload = BENCH_WORKLOADS["WORKLOADS"][name]
    config = json.loads((REPO / "configs" / (workload.config + ".json")).read_text())
    config.update(workload.overrides, seed=BENCH_WORKLOADS["REFERENCE_CONFIG_SEED"],
                  out=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    report = run_experiment(workload.kind, load_config(str(path)))
    observed = [line.split(",") for line in Path(report.csv_path).read_text().splitlines()]
    reference = [line.split(",") for line in
                 (REPO / "bench" / "references" / (name + ".csv")).read_text().splitlines()]
    assert observed[0] == reference[0] and len(observed) == len(reference)
    far = [(row[0], column, cell, ref)
           for row, ref_row in zip(observed[1:], reference[1:])
           for column, cell, ref in zip(reference[0], row, ref_row)
           if not _cell_close(cell, ref)]
    assert all(len(row) == len(reference[0]) for row in observed) and far == []


def test_bench_size_sphere_seminorm_stays_on_the_benchmark_reference(tmp_path):
    # grid 65 and the shipped epsilons, 15 rows.  Any change to a bridge
    # root's Newton path moves the cell at epsilon 1.22e-5 by about 1.3e-4
    # relative, past the benchmark's bound, and fails here rather than only
    # in the benchmark
    _assert_on_the_benchmark_reference("sphere-seminorm", tmp_path)


@pytest.mark.parametrize("name", sorted(set(BENCH_WORKLOADS["WORKLOADS"]) - {"sphere-seminorm"}))
def test_bench_size_workload_stays_on_the_benchmark_reference(tmp_path, name):
    _assert_on_the_benchmark_reference(name, tmp_path)


class TestCheckResult:
    def test_passed_property_all(self):
        good = CheckResult("a", 1.0, 2.0, True)
        bad = CheckResult("b", 3.0, 2.0, False)
        config = ExperimentConfig(scenario="euclid_z4", epsilons=(0.1,))
        report = run_experiment("invariance-check", config, write=False)
        report.checks = [good]
        assert report.passed
        report.checks = [good, bad]
        assert not report.passed

    def test_kinds_tuple_matches_runners(self):
        assert EXPERIMENT_KINDS == ("mollify-current", "smooth-metric",
                                    "curvature-report", "lipschitz-sweep",
                                    "invariance-check", "select-epsilon")

"""Exit codes and flag handling of the eqmollify entry point.

Each run here goes through main() with real configs on the cheapest
kind/scenario combinations; subprocess round trips stay out of the unit
suite.
"""

import contextlib
import importlib.util
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqmollify import experiments
from eqmollify.ballmap import ConvergenceError
from eqmollify.cli import main
from eqmollify.scenarios import available_scenarios


def config_file(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        path = config_file(tmp_path, {"scenario": "euclid_z4",
                                      "epsilons": [0.1]})
        code = main(["invariance-check", "--config", path,
                     "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] max_metric_residual" in out
        assert "report: " in out

    def test_failed_check_is_one(self, tmp_path):
        path = config_file(tmp_path, {"scenario": "strip_two_charts",
                                      "epsilons": [0.2], "grid": 17,
                                      "delta": 1e-12})
        code = main(["smooth-metric", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_config_error_is_two(self, tmp_path, capsys):
        code = main(["invariance-check", "--config",
                     str(tmp_path / "absent.json")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_scenario_is_two(self, tmp_path):
        path = config_file(tmp_path, {"scenario": "nope"})
        assert main(["invariance-check", "--config", path]) == 2

    def test_unknown_key_is_two(self, tmp_path, capsys):
        # level and max_halvings were fields once; they are unknown keys now
        for key in ("wild", "level", "max_halvings"):
            path = config_file(tmp_path, {"scenario": "euclid_z4", key: 1})
            assert main(["invariance-check", "--config", path]) == 2
            assert "unknown keys: %s" % key in capsys.readouterr().err

    def test_config_past_a_bound_is_two(self, tmp_path, capsys):
        path = config_file(tmp_path, {"scenario": "euclid_z4", "grid": 100000})
        assert main(["smooth-metric", "--config", path]) == 2
        assert "'grid' must be at most" in capsys.readouterr().err
        # an integer too large for a float, where a / k would overflow
        path = config_file(tmp_path, {"scenario": "euclid_z4", "k_values": [10**400]})
        code = main(["select-epsilon", "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "k_values" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        # an integer past the digit limit of Python's int parsing
        path = tmp_path / "config.json"
        path.write_text('{"scenario": "euclid_z4", "k_values": [%s]}' % ("9" * 5000))
        code = main(["select-epsilon", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_thread_setting_is_two(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("EQMOLLIFY_THREADS", raw)
        path = config_file(tmp_path, {"scenario": "euclid_z4",
                                      "epsilons": [0.1]})
        code = main(["select-epsilon", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "EQMOLLIFY_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", [
        '"delta": "0.1"', '"delta": true', '"epsilons": ["a"]', '"epsilons": [null]',
        '"epsilons": [true]', '"epsilons": [1e400]', '"k_values": ["x"]',
        '"k_values": [1.5]', '"out": 5',
    ])
    def test_field_of_the_wrong_type_is_two(self, tmp_path, capsys, field):
        # raw JSON text, so 1e400 reaches the parser as written and reads as inf
        path = tmp_path / "config.json"
        path.write_text('{"scenario": "euclid_z4", %s}' % field)
        code = main(["select-epsilon", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, epsilon", [
        ("invariance-check", 1e300), ("invariance-check", 1e-300),
        # a first rung of 1e-304 in the plane, but the last underflows
        ("select-epsilon", 1e-152),
    ])
    def test_unrepresentable_kernel_is_two(self, tmp_path, capsys, kind, epsilon):
        path = config_file(tmp_path, {"scenario": "euclid_z4", "epsilons": [epsilon]})
        code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "kernel scale" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_current_bank_is_two_before_any_output(self, tmp_path, capsys):
        # the sphere scenario carries no currents to smooth
        config = Path(__file__).resolve().parents[1] / "configs" / "sphere-curvature.json"
        code = main(["mollify-current", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "no current bank" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["blocker", "blocker/out"],
                             ids=["names-a-file", "under-a-file"])
    def test_unusable_out_is_two_before_any_stage(self, tmp_path, capsys, monkeypatch,
                                                  out):
        def runner(scenario, config):
            raise AssertionError("a stage ran")

        monkeypatch.setitem(experiments._RUNNERS, "invariance-check", runner)
        (tmp_path / "blocker").write_text("")
        path = config_file(tmp_path, {"scenario": "euclid_z4", "epsilons": [0.1]})
        code = main(["invariance-check", "--config", path, "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "output directory" in err
        assert "Traceback" not in err

    def test_numerical_abort_is_three(self, tmp_path, capsys):
        # a 2x2 lattice has no nodes inside the scan disk, so the distance
        # graph is empty and the sweep aborts
        path = config_file(tmp_path, {"scenario": "euclid_z4",
                                      "epsilons": [0.2], "graph_grid": 2})
        code = main(["lipschitz-sweep", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical abort" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        ConvergenceError("bridge inversion did not converge"),
        np.linalg.LinAlgError("Singular matrix"),
    ], ids=["convergence", "linalg"])
    def test_profile_and_linear_algebra_failures_are_three(self, tmp_path, capsys,
                                                           monkeypatch, error):
        def fail(kind, config):
            raise error

        monkeypatch.setattr("eqmollify.cli.run_experiment", fail)
        path = config_file(tmp_path, {"scenario": "euclid_z4"})
        code = main(["invariance-check", "--config", path])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical abort" in err and str(error) in err
        assert "Traceback" not in err

    def test_unknown_kind_errors_in_argparse(self):
        with pytest.raises(SystemExit):
            main(["mollify-everything", "--config", "x.json"])


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# the kinds that run every chart stage of a scenario; strip_two_charts
# composes two stages there, which takes 10-80 s even at the sizes below
_COMPOSING = ("curvature-report", "lipschitz-sweep", "select-epsilon", "invariance-check")


@st.composite
def _cli_runs(draw):
    """A kind, a JSON config drawn from the schema at tiny sizes, and
    whether --out lies under a regular file (one run in four).  Epsilons
    span every decade of positive doubles, or a band where real runs
    happen."""
    kind = draw(st.sampled_from(experiments.EXPERIMENT_KINDS))
    scenarios = [name for name in available_scenarios()
                 if not (name == "strip_two_charts" and kind in _COMPOSING)]
    epsilon = _log_uniform(1e-320, 1e308) | _log_uniform(1e-4, 3.0)
    config = {
        "scenario": draw(st.sampled_from(scenarios)),
        "epsilons": sorted(draw(st.lists(epsilon, min_size=1, max_size=2, unique=True)),
                           reverse=True),
        "grid": draw(st.integers(1, 9)),
        "graph_grid": draw(st.integers(1, 7)),
        "pairs": draw(st.integers(1, 4)),
        "group_quadrature": draw(st.integers(1, 16)),
        "delta": draw(st.none() | _log_uniform(1e-320, 1e308)),
        "k_values": sorted(draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))),
        "seed": draw(st.integers(1, 2**31)),
    }
    return kind, config, draw(st.integers(0, 3)) == 0


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_cli_runs())
    def test_every_run_exits_with_a_documented_code_and_no_traceback(self, run):
        kind, config, under_file = run
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = config_file(Path(tmp), config)
            out = Path(tmp) / "out"
            if under_file:
                out.write_text("")
                out = out / "report"
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main([kind, "--config", path, "--out", str(out)])
        assert code in (0, 1, 2, 3), (kind, config)
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        assert [str(w.message) for w in caught] == []
        if under_file:
            assert code == 2


class TestFlags:
    def test_quiet_suppresses_output(self, tmp_path, capsys):
        path = config_file(tmp_path, {"scenario": "euclid_z4",
                                      "epsilons": [0.1]})
        code = main(["invariance-check", "--config", path,
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_config_out_is_kept_without_the_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = config_file(tmp_path, {"scenario": "euclid_z4", "epsilons": [0.1],
                                      "out": "from-config"})
        assert main(["invariance-check", "--config", path, "--quiet"]) == 0
        assert (tmp_path / "from-config" / "summary.json").exists()
        assert main(["invariance-check", "--config", path, "--quiet",
                     "--out", "from-flag"]) == 0
        assert (tmp_path / "from-flag" / "summary.json").exists()

    def test_seed_override_changes_rows(self, tmp_path, monkeypatch):
        # the probe points are drawn from the config's seed; the residual
        # rows they give can coincide at the rounding floor, so watch the draws
        drawn = []
        probe = experiments._probe_points

        def recorded(*args, **kwargs):
            drawn.append(probe(*args, **kwargs))
            return drawn[-1]
        monkeypatch.setattr(experiments, "_probe_points", recorded)
        payload = {"scenario": "euclid_z4", "epsilons": [0.1]}
        path = config_file(tmp_path, payload)
        seeded = config_file(tmp_path, dict(payload, seed=7), name="seeded.json")
        base, other = tmp_path / "base", tmp_path / "other"
        assert main(["invariance-check", "--config", path, "--quiet",
                     "--out", str(base)]) == 0
        assert main(["invariance-check", "--config", seeded, "--quiet",
                     "--out", str(other)]) == 0
        # different probe draws, same verdicts
        assert len(drawn) == 2 and not np.array_equal(drawn[0], drawn[1])
        verdicts = lambda d: [(c["name"], c["pass"]) for c in
                              json.loads((d / "summary.json").read_text())["checks"]]
        assert verdicts(base) == verdicts(other)


def _run_all_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"
    spec = importlib.util.spec_from_file_location("run_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunAll:
    def test_prints_each_wall_time_and_a_total(self, tmp_path, monkeypatch, capsys):
        script = _run_all_script()
        # reports go to the repository's runs/, never the working directory's
        assert Path(script.RUNS).resolve() == Path(__file__).resolve().parents[1] / "runs"
        monkeypatch.setattr(script, "RUNS", str(tmp_path / "runs"))
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert script.main(["euclid-invariance", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^   exit 0 in \d+\.\d\d s$", out, re.M)
        assert re.search(r"^== total \d+\.\d\d s, worst exit 0$", out, re.M)
        assert (tmp_path / "runs" / "euclid-invariance" / "summary.json").is_file()
        assert not any((tmp_path / "cwd").iterdir())

    def test_returns_the_worst_exit_code(self, monkeypatch, capsys):
        script = _run_all_script()
        codes = {"euclid-invariance": 1, "orbit-mollify": 0}
        monkeypatch.setattr(script, "cli_main",
                            lambda args: codes[Path(args[2]).stem])
        assert script.main(["euclid-invariance", "orbit-mollify"]) == 1
        out = capsys.readouterr().out
        assert len(re.findall(r"^   exit [01] in \d+\.\d\d s$", out, re.M)) == 2
        assert re.search(r"^== total \d+\.\d\d s, worst exit 1$", out, re.M)

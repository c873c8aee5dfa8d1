"""Config parsing and validation, including the shipped sample files."""

import json
import os
from dataclasses import replace

import pytest

from eqmollify.config import (
    DEFAULT_EPSILONS,
    ConfigError,
    ExperimentConfig,
    load_config,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_json(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestDefaults:
    def test_scenario_only(self):
        config = ExperimentConfig(scenario="euclid_z4")
        assert config.epsilons == DEFAULT_EPSILONS
        assert config.grid == 65
        assert config.graph_grid == 25
        assert config.group_quadrature == 64
        assert config.pairs == 64
        assert config.delta is None
        assert config.k_values == (1, 2, 4)
        assert config.out is None
        assert config.seed == 42

    def test_epsilons_coerced_to_floats(self):
        config = ExperimentConfig(scenario="euclid_z4", epsilons=(1, 0.5))
        assert config.epsilons == (1.0, 0.5)
        assert all(isinstance(e, float) for e in config.epsilons)


class TestValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="available:"):
            ExperimentConfig(scenario="nope")

    @pytest.mark.parametrize("eps", [(), (0.1, -0.2), (0.0,), (0.1, 0.1),
                                     (0.05, 0.1)])
    def test_bad_epsilons(self, eps):
        with pytest.raises(ConfigError, match="epsilons"):
            ExperimentConfig(scenario="euclid_z4", epsilons=eps)

    @pytest.mark.parametrize("name", ["grid", "graph_grid", "group_quadrature",
                                      "pairs", "seed"])
    def test_positive_int_fields(self, name):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(scenario="euclid_z4", **{name: 0})
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(scenario="euclid_z4", **{name: 2.5})

    @pytest.mark.parametrize("name", ["grid", "graph_grid", "group_quadrature",
                                      "pairs", "seed"])
    def test_bools_are_not_integers(self, name):
        # bool is an int subclass: JSON true must not run as 1
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(scenario="euclid_z4", **{name: True})

    @pytest.mark.parametrize("name, upper", [("grid", 513), ("graph_grid", 129),
                                             ("group_quadrature", 512),
                                             ("pairs", 256)])
    def test_upper_bounds(self, name, upper):
        assert getattr(ExperimentConfig(scenario="euclid_z4", **{name: upper}),
                       name) == upper
        with pytest.raises(ConfigError, match="%r must be at most %d" % (name, upper)):
            ExperimentConfig(scenario="euclid_z4", **{name: upper + 1})

    def test_seed_has_no_upper_bound(self):
        assert ExperimentConfig(scenario="euclid_z4", seed=2**40).seed == 2**40

    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_delta_positive(self, delta):
        with pytest.raises(ConfigError, match="delta"):
            ExperimentConfig(scenario="euclid_z4", delta=delta)

    @pytest.mark.parametrize("ks", [(), (0,), (2, 1)])
    def test_bad_k_values(self, ks):
        with pytest.raises(ConfigError, match="k_values"):
            ExperimentConfig(scenario="euclid_z4", k_values=ks)

    def test_k_values_upper_bound(self):
        config = ExperimentConfig(scenario="euclid_z4", k_values=(2**20,))
        assert config.k_values == (2**20,)
        for ks in ((2**20 + 1,), (10**400,)):
            with pytest.raises(ConfigError, match="k_values"):
                ExperimentConfig(scenario="euclid_z4", k_values=ks)

    def test_repeated_k_allowed(self):
        config = ExperimentConfig(scenario="euclid_z4", k_values=(2, 2, 4))
        assert config.k_values == (2, 2, 4)


class TestOverride:
    def test_replacement_revalidates(self):
        # the CLI sets --out with dataclasses.replace, which runs
        # __post_init__ again
        config = ExperimentConfig(scenario="euclid_z4")
        assert replace(config, out="elsewhere").out == "elsewhere"
        with pytest.raises(ConfigError, match="out"):
            replace(config, out=7)
        with pytest.raises(ConfigError, match="epsilons"):
            replace(config, epsilons=(0.1, 0.2))


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path, {"scenario": "radial_c11",
                                     "epsilons": [0.2, 0.1],
                                     "k_values": [1, 2]})
        config = load_config(path)
        assert config.scenario == "radial_c11"
        assert config.epsilons == (0.2, 0.1)
        assert config.k_values == (1, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": "euclid_z4",\n  "grid": }')
        with pytest.raises(ConfigError, match=r"line 2, column \d+"):
            load_config(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        # json parses integers with int(), which refuses more than 4,300
        # digits with a plain ValueError; without that limit the k_values
        # bound rejects the value instead
        path = tmp_path / "huge.json"
        path.write_text('{"scenario": "euclid_z4", "k_values": [%s]}' % ("9" * 5000))
        with pytest.raises(ConfigError, match="cannot be parsed|k_values"):
            load_config(str(path))

    def test_unknown_keys_sorted(self, tmp_path):
        path = write_json(tmp_path, {"scenario": "euclid_z4",
                                     "zeta": 1, "alpha": 2})
        with pytest.raises(ConfigError, match="alpha, zeta"):
            load_config(str(path))

    def test_missing_scenario_key(self, tmp_path):
        path = write_json(tmp_path, {"grid": 65})
        with pytest.raises(ConfigError, match="missing the 'scenario' key"):
            load_config(str(path))

    def test_list_type_enforced(self, tmp_path):
        path = write_json(tmp_path, {"scenario": "euclid_z4",
                                     "epsilons": "0.2"})
        with pytest.raises(ConfigError, match="must be a list"):
            load_config(str(path))


class TestShippedConfigs:
    def test_directory_has_samples(self):
        names = sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".json"))
        assert len(names) >= 8

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(CONFIG_DIR) if n.endswith(".json")))
    def test_sample_validates(self, name):
        config = load_config(os.path.join(CONFIG_DIR, name))
        assert config.scenario

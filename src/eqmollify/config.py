"""Experiment configuration: a single JSON file per experiment.

Schema (all keys optional except ``scenario``):

    scenario          built-in scenario name
    epsilons          positive strictly decreasing list (default 0.2 halved 4x)
    grid              metric grid nodes per axis (default 65, 2 to 513)
    graph_grid        distance graph nodes per axis (default 25, 2 to 129)
    group_quadrature  torus quadrature node count (default 64, at most 512)
    pairs             dilation sample pair count (default 64, at most 256)
    delta             target tolerance where a kind needs one, or null for
                      the kind default
    k_values          targets for epsilon selection (default [1, 2, 4], each
                      at most 2^20)
    out               output directory, a non-empty string, or null for
                      runs/<scenario>-<kind> (the CLI's --out replaces it)
    seed              RNG seed for probe points and sample pairs (default 42)

Every other value is a constant of the code: the kernel level follows
``metrics.default_level_schedule``, and select-epsilon searches 17 rungs
of epsilons[0] halved.  Unknown keys are rejected rather than ignored, so
typos fail loudly, and a value of the wrong JSON type (a string, a bool,
a non-finite number) is a ConfigError rather than a traceback.
"""

import json
import math
from dataclasses import dataclass, fields

from .scenarios import available_scenarios

__all__ = ["DEFAULT_EPSILONS", "ConfigError", "ExperimentConfig", "load_config"]

DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.025)

# integer fields and their (least, most) values, None unbounded: a grid needs
# two nodes per axis, and a cap keeps a typo from allocating the machine away
_INT_FIELDS = {
    "grid": (2, 513),
    "graph_grid": (2, 129),
    "group_quadrature": (1, 512),
    "pairs": (1, 256),
    "seed": (1, None),
}
# largest k_values entry; the selection bound a_nu / k is taken in floats
_MAX_K = 2**20


class ConfigError(ValueError):
    """Unusable experiment configuration."""


def _real(value):
    """Whether a JSON value is a finite number.  bool is an int subclass, so
    JSON true would otherwise run as 1; JSON reads 1e400 as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    epsilons: tuple = DEFAULT_EPSILONS
    grid: int = 65
    graph_grid: int = 25
    group_quadrature: int = 64
    pairs: int = 64
    delta: float = None
    k_values: tuple = (1, 2, 4)
    out: str = None
    seed: int = 42

    def __post_init__(self):
        if self.scenario not in available_scenarios():
            raise ConfigError(
                "unknown scenario %r; available: %s"
                % (self.scenario, ", ".join(available_scenarios()))
            )
        if not all(_real(e) for e in self.epsilons):
            raise ConfigError("field 'epsilons' must list finite numbers")
        eps = tuple(float(e) for e in self.epsilons)
        if not eps or any(e <= 0.0 for e in eps):
            raise ConfigError("field 'epsilons' must be a nonempty positive list")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("field 'epsilons' must be strictly decreasing")
        object.__setattr__(self, "epsilons", eps)
        for name, (lower, upper) in _INT_FIELDS.items():
            value = getattr(self, name)
            # bool is an int subclass, so JSON true would run as 1
            if not isinstance(value, int) or isinstance(value, bool) or value < lower:
                raise ConfigError("field %r must be an integer of at least %d" % (name, lower))
            if upper is not None and value > upper:
                raise ConfigError("field %r must be at most %d, got %d"
                                  % (name, upper, value))
        if self.delta is not None and not (_real(self.delta) and self.delta > 0.0):
            raise ConfigError("field 'delta' must be a positive number or null")
        ks = tuple(self.k_values)
        if not all(isinstance(k, int) and not isinstance(k, bool) for k in ks):
            raise ConfigError("field 'k_values' must list integers")
        if not ks or any(k < 1 for k in ks) or any(b < a for a, b in zip(ks, ks[1:])):
            raise ConfigError("field 'k_values' must be a nondecreasing list of"
                              " integers >= 1")
        if ks[-1] > _MAX_K:
            raise ConfigError("field 'k_values' must list integers of at most %d"
                              % _MAX_K)
        object.__setattr__(self, "k_values", ks)
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ConfigError("field 'out' must be a non-empty string or null")


def load_config(path):
    """Parse and validate a JSON experiment config."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as err:
        raise ConfigError("cannot read config %s: %s" % (path, err)) from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            "config %s is not valid JSON: %s (line %d, column %d)"
            % (path, err.msg, err.lineno, err.colno)
        ) from err
    except ValueError as err:
        # e.g. an integer literal past Python's int-parsing digit limit
        raise ConfigError("config %s cannot be parsed: %s" % (path, err)) from err
    if not isinstance(raw, dict):
        raise ConfigError("config %s must be a JSON object" % path)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(
            "config %s has unknown keys: %s" % (path, ", ".join(unknown))
        )
    if "scenario" not in raw:
        raise ConfigError("config %s is missing the 'scenario' key" % path)
    for key in ("epsilons", "k_values"):
        if key in raw:
            if not isinstance(raw[key], list):
                raise ConfigError("field %r must be a list" % key)
            raw[key] = tuple(raw[key])
    return ExperimentConfig(**raw)

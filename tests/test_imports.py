"""What importing the package and running the CLI load.

Importing eqmollify loads no scipy module; scipy serves only the tests
and the fixture script.  A run loads no numpy module that the package
import did not: numpy loads submodules such as ``numpy.random`` at first
use, and one first touched inside ``cli.main`` adds its import to every
run's own time.  Each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import eqmollify

SRC = os.path.dirname(os.path.dirname(os.path.abspath(eqmollify.__file__)))

RUNS = """
import sys
from eqmollify import cli
before = set(sys.modules)
for kind, path, out in zip(sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]):
    assert cli.main([kind, "--config", path, "--out", out, "--quiet"]) == 0
print(*sorted(name for name in set(sys.modules) - before
              if name.split(".")[0] == "numpy"))
"""


def _python(code, *args):
    """The words a fresh interpreter prints running ``code``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_loads_no_scipy():
    loaded = _python("import sys, eqmollify, eqmollify.cli\n"
                     "print(*[name for name in sys.modules"
                     " if name.split('.')[0] == 'scipy'])")
    assert loaded == []


def test_runs_load_no_numpy_module_after_the_import(tmp_path):
    configs = {
        "curvature-report": {"scenario": "round_sphere_chart", "grid": 9,
                             "epsilons": [1.220703125e-05], "delta": 0.05},
        "lipschitz-sweep": {"scenario": "radial_c11", "graph_grid": 9, "pairs": 8,
                            "epsilons": [0.0125], "delta": 0.5},
    }
    args = []
    for kind, config in configs.items():
        path = tmp_path / (kind + ".json")
        path.write_text(json.dumps(config))
        args += [kind, str(path), str(tmp_path / kind)]
    assert _python(RUNS, *args) == []

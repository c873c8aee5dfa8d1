"""Command line entry point: one subcommand per experiment kind.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 unusable
configuration, 3 numerical abort (SPD loss, degenerate geometry, failed
quadrature, a profile inversion that did not converge, a singular matrix).
"""

import argparse
import ctypes
import sys
from dataclasses import replace

import numpy as np

from .ballmap import BallDomainError, ConvergenceError
from .config import ConfigError, load_config
from .currents import CurrentError
from .curvature import CurvatureError
from .distances import DistanceError
from .experiments import EXPERIMENT_KINDS, run_experiment
from .kernel import QuadratureError
from .maps import GroupError
from .metrics import MetricError
from .scenarios import ScenarioError

__all__ = ["main"]

NUMERICAL_ERRORS = (BallDomainError, ConvergenceError, CurrentError, CurvatureError,
                    DistanceError, GroupError, MetricError, QuadratureError,
                    np.linalg.LinAlgError)


# glibc's mallopt(M_TOP_PAD): free heap kept mapped above the top chunk.
# The metric quadrature frees a working set of about 30 MiB after each
# chunk of the shift product; at glibc's default pad the heap is trimmed
# back and the next chunk faults the same memory in again, page by page.
_M_TOP_PAD = -2
_TOP_PAD = 64 << 20


def _keep_heap_pad():
    """Keep _TOP_PAD bytes of freed heap mapped across the quadrature's
    chunks; nothing to do where the C library has no mallopt."""
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_TOP_PAD, _TOP_PAD)


def _parser():
    parser = argparse.ArgumentParser(
        prog="eqmollify",
        description="Equivariant smoothing experiments on built-in scenarios.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help="run the %s experiment" % kind)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON experiment config")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default the config's out, else"
                            " runs/<scenario>-<kind>)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-check output")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    _keep_heap_pad()
    try:
        config = load_config(args.config)
        if args.out is not None:
            config = replace(config, out=args.out)
        report = run_experiment(args.kind, config)
    except (ConfigError, ScenarioError) as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as err:
        print("numerical abort in %s on %s: %s"
              % (args.kind, getattr(args, "config", "?"), err), file=sys.stderr)
        return 3
    if not args.quiet:
        for check in report.checks:
            print("[%s] %s: value=%.6g tolerance=%.6g"
                  % ("PASS" if check.passed else "FAIL", check.name,
                     check.value, check.tolerance))
        print("report: %s" % report.summary_path)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Drive every shipped sample config through the CLI entry point.

Usage:
    python scripts/run_all.py [NAME ...] [--quiet]

With no arguments all samples run in the order below (about 4.4 s in all
with EQMOLLIFY_THREADS=1 on a 2-CPU Intel Xeon host with numpy 2.4.6 and
Python 3.11, the seminorm sweep on the sphere being the longest single
run at about 1.2 s and the one-stage strip-invariance check next at about
1.0 s).  Passing sample names (with or without .json) restricts
the run.  Reports land in runs/<sample name>/ of the repository, from any
working directory; the exit code is the worst CLI
exit code seen, so a clean sweep returns 0.  Each sample's wall time is
printed beside its exit code, and a last line gives the total.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from eqmollify.cli import main as cli_main

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
# reports land here whatever the working directory
RUNS = os.path.join(REPO, "runs")

# config stem -> experiment kind
SAMPLES = (
    ("euclid-invariance", "invariance-check"),
    ("strip-invariance", "invariance-check"),
    ("orbit-mollify", "mollify-current"),
    ("radial-invariance", "invariance-check"),
    ("radial-curvature", "curvature-report"),
    ("radial-lipschitz", "lipschitz-sweep"),
    ("sphere-seminorm", "smooth-metric"),
    ("sphere-curvature", "curvature-report"),
    ("sphere-select", "select-epsilon"),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="sample names to run (default all)")
    parser.add_argument("--quiet", action="store_true",
                        help="pass --quiet through to each run")
    args = parser.parse_args(argv)

    wanted = {name.removesuffix(".json") for name in args.names}
    unknown = wanted - {stem for stem, _ in SAMPLES}
    if unknown:
        parser.error("unknown samples: %s" % ", ".join(sorted(unknown)))

    worst = 0
    total = 0.0
    for stem, kind in SAMPLES:
        if wanted and stem not in wanted:
            continue
        config = os.path.join(REPO, "configs", "%s.json" % stem)
        out = os.path.join(RUNS, stem)
        print("== %s (%s)" % (stem, kind))
        cli_args = [kind, "--config", config, "--out", out]
        if args.quiet:
            cli_args.append("--quiet")
        start = time.perf_counter()
        code = cli_main(cli_args)
        elapsed = time.perf_counter() - start
        total += elapsed
        print("   exit %d in %.2f s" % (code, elapsed))
        worst = max(worst, code)
    print("== total %.2f s, worst exit %d" % (total, worst))
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""Drive every shipped sample config through the CLI entry point.

Usage:
    python scripts/run_all.py [NAME ...] [--quiet]

With no arguments all samples run in the order below (about 14.4 s in
all with EQMOLLIFY_THREADS=1 on a 2-CPU AMD EPYC host with numpy 2.4.6 and
Python 3.11, the seminorm sweep on the sphere being the longest single run
at about 5 s).  Passing sample
names (with or without .json) restricts the run.  Reports land in runs/<sample name>/; the exit code is the worst
CLI exit code seen, so a clean sweep returns 0.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from eqmollify.cli import main as cli_main

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

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
    for stem, kind in SAMPLES:
        if wanted and stem not in wanted:
            continue
        config = os.path.join(REPO, "configs", "%s.json" % stem)
        out = os.path.join("runs", stem)
        print("== %s (%s)" % (stem, kind))
        cli_args = [kind, "--config", config, "--out", out]
        if args.quiet:
            cli_args.append("--quiet")
        code = cli_main(cli_args)
        print("   exit %d" % code)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark iteration in a fresh process.

Imports eqmollify, loads the workload config and builds its scenario (the
set-up), then runs the experiment once through the CLI entry point (the
timed run).  With --trace the layer boundaries are wrapped first, the spans
are written to spans.jsonl beside the results, and the per-layer metrics
are part of the report.  The last stdout line is one JSON object.

    python3 child.py --root DIR --config FILE --kind KIND --out DIR [--trace]
"""

import argparse
import json
import os
import resource
import sys
import time

START = time.perf_counter()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--kind", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from eqmollify import cli
    from eqmollify.config import load_config
    from eqmollify.scenarios import build_scenario

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    config = load_config(args.config)
    build_scenario(config.scenario, group_quadrature=config.group_quadrature)
    setup_s = time.perf_counter() - START

    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main([args.kind, "--config", args.config, "--out", args.out, "--quiet"])
    t1 = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mib": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = layers.summarize(tracer.spans, (t0, t1))
        tracer.write(os.path.join(args.out, "spans.jsonl"), t0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

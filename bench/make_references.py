"""Regenerate bench/references/<workload>.csv at the reference seed (--seed 0).

    python3 bench/make_references.py [WORKLOAD ...]

Run only on a commit whose outputs are known good: run.py compares every
results.csv cell against these files.
"""

import json
import os
import shutil
import sys
import time

import run
from workloads import WORKLOADS


def main(argv):
    names = argv or sorted(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        out_dir = os.path.join(run.ROOT, ".bench_out", "references", name)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        config_path = os.path.join(out_dir, "config.json")
        with open(config_path, "w") as handle:
            json.dump(run.workload_config(workload, 0, tiny=False), handle)
        report = run.run_round([(config_path, workload.kind, out_dir, False)],
                               time.monotonic() + run.RUN_LIMIT_S)[0]
        if report is None or report["exit_code"] != 0:
            print("%s: run failed, reference not written" % name, file=sys.stderr)
            return 1
        target = os.path.join(run.HERE, "references", name + ".csv")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(os.path.join(out_dir, "results.csv"), target)
        print("%s: %s (%.1f s)" % (name, target, report["wall_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

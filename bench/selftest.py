"""Self-test of the benchmark at tiny workload sizes (about a minute).

    python3 bench/selftest.py

Checks, for every workload: each metric BENCHMARK.json names is printed
with its unit; no operation fails on the current code; every count repeats
exactly across two traced runs, and the stage and shift-product counts
match the workload's configuration.  Last, the benchmark must refuse to
run, without printing a result, from a directory that holds only
BENCHMARK.json and the benchmark files.
"""

import json
import os
import shutil
import subprocess
import sys

import run
from layers import COUNT_METRICS, PER_LAYER
from workloads import WORKLOADS

FAILURES = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def bench(root, *args):
    done = subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done.stderr


def metric_units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == dict(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    check(per_layer == {name: unit for name, unit, _ in PER_LAYER},
          "BENCHMARK.json per_layer matches layers.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")

    for name, workload in sorted(WORKLOADS.items()):
        common = ["--workload", name, "--seed", "1", "--seconds", "1", "--tiny"]
        code, plain, err = bench(run.ROOT, *common, "--trace", "0")
        check(code == 0 and plain is not None, "%s: untraced run exits 0" % name)
        if plain is None:
            print(err)
            continue
        check(metric_units(plain) == end_to_end, "%s: end-to-end metrics and units" % name)
        check(plain["failed"] == 0 and plain["correct"], "%s: no failed operation (%d attempted)"
              % (name, plain["attempted"]))

        traced = [bench(run.ROOT, *common, "--trace", "1") for _ in range(2)]
        results = [result for code, result, _ in traced if code == 0 and result]
        check(len(results) == 2, "%s: two traced runs exit 0" % name)
        if len(results) != 2:
            continue
        for result in results:
            check(metric_units(result) == per_layer, "%s: per-layer metrics and units" % name)
            check(result["failed"] == 0, "%s: no failed operation in a traced run" % name)
        first, second = ({k: r["metrics"][k]["value"] for k in COUNT_METRICS} for r in results)
        check(first == second, "%s: counts repeat exactly across traced runs" % name)

        epsilons = len(run.workload_config(workload, 1, tiny=True)["epsilons"])
        check(first["experiments.stages"] == epsilons,
              "%s: experiments.stages == %d epsilon stages" % (name, epsilons))
        if workload.kind == "mollify-current":
            # 18 matched (current, form) pairs, three distinct currents
            calls = results[0]["metrics"]["currents.shift_product_calls"]["value"]
            reuse = results[0]["metrics"]["currents.shift_product_reuse"]["value"]
            check(calls == 18 * epsilons and reuse == 3 * epsilons / calls,
                  "%s: %d shift products, %d distinct" % (name, calls, round(reuse * calls)))

    bare = os.path.join(run.ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    code, result, _ = bench(bare, "--workload", "orbit-currents", "--seed", "0",
                            "--seconds", "1", "--trace", "0")
    check(code != 0 and result is None, "refuses to run without the eqmollify sources")
    shutil.rmtree(bare)

    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

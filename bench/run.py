"""eqmollify benchmark: run one workload for a fixed time and check its outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each iteration is a fresh process
(bench/child.py) that imports eqmollify, loads the workload config, builds
the scenario and runs the experiment once through the CLI.  Iterations run
in rounds: one process a round, or one per CPU side by side for a
single-threaded workload.  Rounds repeat until the next one would overrun
--seconds (at least three timed iterations, or one untraced and one traced
with --trace 1).  An untraced run starts with a warm-up round at the
self-test size, checked but not timed.

--trace 0 prints the end-to-end metrics, each the median over rounds of the
mean over the round's iterations.
--trace 1 alternates untraced and traced iterations and prints the
per-layer metrics (medians over traced iterations) plus the tracing
overhead.  Every iteration's outputs are checked: CLI exit code, every
summary check, byte-identical results across iterations (traced or not),
and, at the reference seed, every results.csv cell against
bench/references/<workload>.csv.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Outputs go to .bench_out/<workload>/ under the repository root.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import COUNT_METRICS, PER_LAYER  # noqa: E402
from workloads import REFERENCE_CONFIG_SEED, WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Tolerance for results.csv cells against the references: |a - b| <=
# ATOL + RTOL * |b|.  Re-running the seed code on other machines moved
# cells by up to 6e-10 relative (seminorm deviations, which difference
# grid values and divide by the squared spacing) and 1.1e-15 absolute.
RTOL = 1e-6
ATOL = 1e-12

# every child must end well inside the 180 s a run may take
RUN_LIMIT_S = 170.0


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env.update(EQMOLLIFY_THREADS=str(nproc()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own (a parent directory's repository does not count)."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != \
            os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(workload, seed, config_seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        openblas = None
    env = child_env()
    return {
        "workload": workload, "seed": seed, "config_seed": config_seed,
        "nproc": nproc(),
        "threads": {key: env[key] for key in ("EQMOLLIFY_THREADS", "OPENBLAS_NUM_THREADS",
                                              "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": openblas,
        "machine": platform.machine(), "git_sha": git_sha(),
    }


def workload_config(workload, seed, tiny):
    with open(os.path.join(ROOT, "configs", workload.config + ".json")) as handle:
        config = json.load(handle)
    config.update(workload.overrides)
    if tiny:
        config.update(workload.tiny)
    config["seed"] = REFERENCE_CONFIG_SEED + seed
    return config


class Checks:
    """Operations attempted and failed; failures are also reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("check failed: %s" % what, file=sys.stderr)
        return ok


def _cell_close(observed, reference):
    try:
        a, b = float(observed), float(reference)
    except ValueError:
        return observed == reference
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def compare_reference(checks, observed_path, reference_path):
    with open(observed_path) as handle:
        observed = [line.split(",") for line in handle.read().splitlines()]
    with open(reference_path) as handle:
        reference = [line.split(",") for line in handle.read().splitlines()]
    if not checks.check(len(observed) == len(reference) and observed[0] == reference[0],
                        "results.csv header or row count differs from the reference"):
        return
    for index, (row, ref_row) in enumerate(zip(observed[1:], reference[1:]), 1):
        if not checks.check(len(row) == len(ref_row), "row %d width" % index):
            continue
        for column, (cell, ref) in enumerate(zip(row, ref_row)):
            checks.check(_cell_close(cell, ref), "row %d %s: %s vs reference %s"
                         % (index, reference[0][column], cell, ref))


def digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _report(proc, deadline):
    """The last stdout line of a child as a dict, or None if it failed."""
    budget = max(1.0, deadline - time.monotonic())
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("iteration timed out after %.0f s" % budget, file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(err)
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out + err)
        return None


def run_round(jobs, deadline):
    """Run (config_path, kind, out_dir, traced) jobs side by side, each in a
    child process; one report, or None for a failed child, per job.  Every
    child has ended when this returns."""
    procs = []
    try:
        for config_path, kind, out_dir, traced in jobs:
            command = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
                       "--config", config_path, "--kind", kind, "--out", out_dir]
            if traced:
                command.append("--trace")
            procs.append(subprocess.Popen(command, cwd=ROOT, env=child_env(), text=True,
                                          stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        return [_report(proc, deadline) for proc in procs]
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()


def round_median(reports, name):
    """The median over rounds of the mean over each round's iterations.

    Side by side, the copies of a round each run on one CPU, and on a shared
    host one CPU can be slowed while the other is not.  A median over all
    iterations then falls on a fast or a slow CPU by chance; the round mean
    weighs both CPUs alike.  With one iteration a round this is the median
    over iterations."""
    by_round = {}
    for report in reports:
        by_round.setdefault(report["round"], []).append(report[name])
    return statistics.median(statistics.fmean(values) for values in by_round.values())


def check_outputs(checks, report, out_dir, first):
    """Exit code, summary checks and byte identity with the first outputs."""
    checks.check(report["exit_code"] == 0, "CLI exit code %s" % report["exit_code"])
    try:
        with open(os.path.join(out_dir, "summary.json")) as handle:
            summary = json.load(handle)
        outputs = (digest(os.path.join(out_dir, "results.csv")),
                   digest(os.path.join(out_dir, "summary.json")))
    except (OSError, json.JSONDecodeError) as err:
        checks.check(False, "outputs unreadable: %s" % err)
        return None
    for item in summary["checks"]:
        checks.check(item["pass"], "summary check %s: value %r tolerance %r"
                     % (item["name"], item["value"], item["tolerance"]))
    if first is not None:
        checks.check(outputs == first, "outputs differ from the first iteration")
    return outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workload sizes for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    for needed in (os.path.join("src", "eqmollify", "cli.py"),
                   os.path.join("configs", workload.config + ".json")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print("not an eqmollify checkout: %s is missing under %s" % (needed, ROOT),
                  file=sys.stderr)
            return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = workload_config(workload, args.seed, args.tiny)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
    facts = provenance(args.workload, args.seed, config["seed"])
    with open(os.path.join(run_dir, "provenance.json"), "w") as handle:
        json.dump(facts, handle, indent=2, sort_keys=True)
    print(json.dumps({"provenance": facts}, sort_keys=True))

    reference = os.path.join(HERE, "references", args.workload + ".csv")
    compare = not args.tiny and (args.seed == 0 or not workload.seeded)
    copies = nproc() if workload.side_by_side else 1
    checks = Checks()
    # untraced runs start with a warm-up round at the self-test size, checked
    # but not timed: the first fresh process of a run was the slowest in most
    # trial runs (cold file cache, bytecode not yet compiled)
    if not args.trace:
        warm_path = os.path.join(run_dir, "warmup.json")
        with open(warm_path, "w") as handle:
            json.dump(workload_config(workload, args.seed, tiny=True), handle, indent=2,
                      sort_keys=True)
        jobs = [(warm_path, workload.kind, os.path.join(run_dir, "warm%02d" % i), False)
                for i in range(copies)]
        for job, report in zip(jobs, run_round(jobs, deadline)):
            if checks.check(report is not None, "warm-up iteration crashed"):
                check_outputs(checks, report, job[2], None)
    runs = {"plain": [], "traced": []}
    done = []
    rounds = []
    first = None
    minimum = 2 if args.trace else 3
    failed = False
    while not failed:
        if len(done) >= minimum and (
                time.monotonic() - started + statistics.median(rounds) > args.seconds):
            break
        if time.monotonic() > deadline:
            break
        # with --trace 1, iterations alternate untraced and traced
        kinds = ["traced" if args.trace and (len(done) + i) % 2 else "plain"
                 for i in range(copies)]
        jobs = [(config_path, workload.kind, os.path.join(run_dir, "it%02d" % (len(done) + i)),
                 kind == "traced") for i, kind in enumerate(kinds)]
        began = time.monotonic()
        reports = run_round(jobs, deadline)
        rounds.append(time.monotonic() - began)
        for job, kind, report in zip(jobs, kinds, reports):
            if not checks.check(report is not None, "iteration %d crashed" % len(done)):
                failed = True
                continue
            report["kind"] = kind
            report["round"] = len(rounds) - 1
            runs[kind].append(report)
            done.append(report)
            outputs = check_outputs(checks, report, job[2], first)
            if first is None:
                first = outputs
                if compare and outputs is not None:
                    compare_reference(checks, os.path.join(job[2], "results.csv"), reference)
            if kind == "traced" and len(runs["traced"]) > 1:
                checks.check(all(report["layers"][name] == runs["traced"][0]["layers"][name]
                                 for name in COUNT_METRICS),
                             "trace counts differ between traced iterations")

    plain, traced = runs["plain"], runs["traced"]
    if not plain or (args.trace and not traced):
        print("no complete iteration", file=sys.stderr)
        return 1
    print(json.dumps({"iterations": [
        {key: r[key] for key in ("round", "kind", "wall_s", "setup_s", "cpu_s", "peak_rss_mib")}
        for r in done]}))
    if args.trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: round_median(plain, name) for name, _ in END_TO_END}
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def _stop(signum, frame):
    # a terminated run still ends its children: run_round kills them on the
    # way out
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())

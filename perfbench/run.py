#!/usr/bin/env python3
"""Runs one workload of the spdistal benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the library and the driver
from source into .bench_build/ (CMake, Release), writes the workload's input
files for the seed into .bench_build/inputs/, and runs the driver with every
SPDISTAL_* variable cleared except SPDISTAL_EXEC_THREADS, which is set to
min(4, usable CPUs - 1): one CPU stays free for the benchmark's own thread
and the system, which keeps run-to-run spread down. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. A traced run runs the
workload four times: untraced, traced (SPDISTAL_TRACE, for a third of the
time: its report is per unit of work), and briefly untraced on 1 and on 4
executor threads. The simulated time and SimReport counts of all four must
be identical. The per-layer report of the traced run is written to
.bench_build/reports/ and printed to standard error. Every result is also
appended to .bench_build/results/<workload>.jsonl, the ledger that
perfbench/ledger.py compares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench", "perfbench_driver")
WORKLOADS = ("pagerank", "structured_suite", "oneshot_auto")
DEADLINE_S = 170  # a run must end within 180 s once the build exists

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import ledger  # noqa: E402


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def build():
    src = os.path.join(ROOT, "src", "spdistal", "spdistal.h")
    if not os.path.exists(src):
        fail("library sources not found (%s); run from a full checkout" % src)
    out = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def clean_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPDISTAL_")}
    env["SPDISTAL_EXEC_THREADS"] = str(threads)
    return env


def inputs(workload, seed):
    """The input directory for (workload, seed), generated when missing or
    stale (another seed, or a rebuilt driver)."""
    d = os.path.join(BUILD, "inputs", workload)
    st = os.stat(DRIVER)
    stamp = "seed=%d driver=%d.%d\n" % (seed, st.st_mtime_ns, st.st_size)
    stamp_path = os.path.join(d, "STAMP")
    if os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return d
    shutil.rmtree(d, ignore_errors=True)
    tmp = d + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    subprocess.run([DRIVER, "gen", "--workload", workload, "--seed", str(seed),
                    "--dir", tmp], check=True)
    with open(os.path.join(tmp, "STAMP"), "w") as f:
        f.write(stamp)
    os.rename(tmp, d)
    return d


def drive(workload, seed, seconds, input_dir, env, deadline):
    """Runs the driver once; returns its JSON result."""
    cmd = [DRIVER, "run", "--workload", workload, "--seed", str(seed),
           "--dir", input_dir, "--seconds", str(seconds)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %.0f s" % timeout)
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("driver exited with %d" % p.returncode)
    return json.loads(lines[-1])


def determinism_errors(runs):
    """Differences in simulated time and SimReport counts between runs
    labelled by their settings."""
    errs = []
    (base_label, base), rest = runs[0], runs[1:]
    for label, r in rest:
        if r["metrics"]["sim_ms_per_iter"] != base["metrics"]["sim_ms_per_iter"]:
            errs.append("sim_ms_per_iter differs: %r (%s) vs %r (%s)" % (
                base["metrics"]["sim_ms_per_iter"], base_label,
                r["metrics"]["sim_ms_per_iter"], label))
        for name, fp in base["determinism"].items():
            if r["determinism"].get(name) != fp:
                errs.append("%s: SimReport differs between %s and %s" % (
                    name, base_label, label))
    return errs


def main():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(WORKLOADS)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()
    input_dir = inputs(args.workload, args.seed)
    deadline = time.monotonic() + DEADLINE_S
    threads = max(1, min(4, len(os.sched_getaffinity(0)) - 1))
    untraced = drive(args.workload, args.seed, args.seconds, input_dir,
                     clean_env(threads), deadline)
    errors = list(untraced["errors"])
    wanted = spec["end_to_end"]
    values = dict(untraced["metrics"])

    if args.trace:
        wanted = spec["per_layer"]
        values = dict(untraced["layers"])
        trace_path = os.path.join(BUILD, "traces", args.workload + ".json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        env = clean_env(threads)
        env["SPDISTAL_TRACE"] = trace_path
        traced = drive(args.workload, args.seed, max(3.0, args.seconds / 3),
                       input_dir, env, deadline)
        runs = [("%d threads" % threads, untraced),
                ("%d threads, traced" % threads, traced)]
        for width in (1, 4):
            runs.append(("%d threads" % width,
                         drive(args.workload, args.seed, 1, input_dir,
                               clean_env(width), deadline)))
        for _, r in runs[1:]:
            errors += r["errors"]
        errors += determinism_errors(runs)
        report = ledger.layer_report(trace_path, traced)
        values.update(ledger.traced_metrics(report, traced, untraced))
        report_path = os.path.join(BUILD, "reports", "%s-seed%d.json" % (
            args.workload, args.seed))
        os.makedirs(os.path.dirname(report_path), exist_ok=True)
        with open(report_path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "phases": report, "layers": values}, f, indent=1)
        print(ledger.format_report(args.workload, report), file=sys.stderr)

    for e in errors:
        log("check failed: " + e)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("driver did not report: " + ", ".join(missing))
    result = {
        "correct": not errors,
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", args.workload + ".jsonl"), "a") as f:
        f.write(json.dumps(dict(result, workload=args.workload, seed=args.seed,
                                trace=args.trace)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

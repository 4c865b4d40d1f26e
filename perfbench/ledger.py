#!/usr/bin/env python3
"""Per-layer ledger of the benchmark (Python standard library only).

Two jobs:

  layers   Attributes a traced run's wall time to layers. It sums the self
           time of every host and measured span in the library's Perfetto
           output (SPDISTAL_TRACE) per span family, split into the run's
           set-up, first-launch and steady-state phases, and normalises
           each phase to one unit (one set-up, one first launch of every
           instance, one steady iteration of every instance).

             python3 perfbench/ledger.py layers TRACE.json DRIVER_RESULT.json

  compare  Compares two sets of results, per workload and per metric, and
           flags every end-to-end move beyond the bound BENCHMARK.json
           gives it (and per-layer moves beyond 10%).

             python3 perfbench/ledger.py compare BASE NEW [--bench BENCHMARK.json]

           BASE and NEW are result ledgers: the .jsonl files run.py appends
           to .bench_build/results/, or directories of them.
"""

import argparse
import bisect
import json
import os
import re
import statistics
import sys

PHASES = ("setup", "first", "steady")

# Layer family of a span: (cat, name pattern, family). Benchmark spans
# (cat "perfbench") are already named after their layer; library spans are
# folded into the layer whose entry point they run under.
_FAMILIES = [
    ("runtime", re.compile(r"^enqueue "), "runtime.enqueue"),
    ("runtime", re.compile(r"^plan_build$"), "runtime.plan_build"),
    ("exec", re.compile(r":retire$"), "runtime.retire"),
    ("exec", re.compile(r"\[\d+\]$"), "exec.point_task"),
    ("exec", re.compile(r""), "exec.host_task"),
    ("leaf", re.compile(r""), "kernels.leaf"),
    ("compiler", re.compile(r"^instantiate"), "compiler.instantiate"),
    ("format", re.compile(r""), "format.pack"),
    ("autosched", re.compile(r""), "autosched.search"),
]


def family(cat, name):
    if cat == "perfbench":
        return name
    for fcat, pattern, fam in _FAMILIES:
        if cat == fcat and pattern.search(name):
            return fam
    return "%s.%s" % (cat, name.split(" ")[0])


def load_spans(trace_path):
    """Complete spans of the host (pid 2) and measured (pid 3) timelines,
    per thread: {tid: [(start_us, end_us, family), ...]}. A measured leaf
    span nests inside the worker's task span on the same thread."""
    with open(trace_path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    per_tid = {}
    for e in events:
        if e.get("ph") != "X" or e.get("pid") not in (2, 3):
            continue
        start = float(e["ts"])
        per_tid.setdefault(e.get("tid", 0), []).append(
            (start, start + float(e.get("dur", 0.0)),
             family(e.get("cat", ""), e.get("name", "")),
             e.get("cat") == "perfbench"))
    return per_tid


def self_times(per_tid):
    """[(start_us, self_us, family, inclusive_us or None)]: each span's
    duration minus the part its direct children cover (spans on one thread
    nest strictly). Top-level benchmark spans also carry their inclusive
    duration: they tile the benchmark thread's wall time by layer."""
    out = []
    eps = 0.002  # the trace rounds timestamps to 1 ns
    for spans in per_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [start, end, family, child_us, top-level bench span]

        def close(top):
            inclusive = top[1] - top[0] if top[4] else None
            out.append((top[0], max(0.0, top[1] - top[0] - top[3]), top[2],
                        inclusive))

        for start, end, fam, bench in spans:
            while stack and start >= stack[-1][1] - eps:
                close(stack.pop())
            if stack:
                stack[-1][3] += min(end, stack[-1][1]) - start
            stack.append([start, end, fam, 0.0, bench and not stack])
        while stack:
            close(stack.pop())
    return out


def layer_report(trace_path, result):
    """Per phase of one traced run, normalised to one unit of the phase:
    the phase's wall time; "path", the benchmark thread's wall time by the
    layer entry point it was inside (what the user waits on); and "busy",
    the self time of every span family summed over all threads (what the
    work was). `result` is the driver's JSON result of the traced run."""
    windows = result["phases"]
    units = windows["units"]
    bounds = sorted((t0, t1, phase) for phase in PHASES
                    for t0, t1 in windows[phase])
    starts = [b[0] for b in bounds]
    busy = {p: {} for p in PHASES}
    path = {p: {} for p in PHASES}
    for start, self_us, fam, inclusive in self_times(load_spans(trace_path)):
        k = bisect.bisect_right(starts, start) - 1
        if k < 0 or start > bounds[k][1]:
            continue
        phase = bounds[k][2]
        busy[phase][fam] = busy[phase].get(fam, 0.0) + self_us
        if inclusive is not None:
            path[phase][fam] = path[phase].get(fam, 0.0) + inclusive
    report = {}
    for phase in PHASES:
        n = max(1, units[phase])
        wall = sum(t1 - t0 for t0, t1 in windows[phase])
        spans_us = sum(path[phase].values())
        path[phase]["(between layer calls)"] = max(0.0, wall - spans_us)
        report[phase] = {
            "wall_s": wall * 1e-6 / n,
            "units": units[phase],
            "path": {f: v * 1e-6 / n for f, v in sorted(path[phase].items())},
            "busy": {f: v * 1e-6 / n for f, v in sorted(busy[phase].items())},
        }
    return report


def family_s(report, phase, fam):
    return report[phase]["busy"].get(fam, 0.0)


def traced_metrics(report, traced, untraced):
    """The per-layer metrics only a traced run gives. `traced` and
    `untraced` are the driver results of the two runs."""
    def per_launch(fam):
        return family_s(report, "first", fam) + family_s(report, "steady", fam)

    leaf = family_s(report, "steady", "kernels.leaf")
    steady_wall = report["steady"]["wall_s"]
    flops = traced["layers"].get("kernel_flops_per_iter", 0.0)

    def total(r):
        m = r["metrics"]
        return m["setup_s"] + m["first_launch_s"] + m["steady_s"]

    return {
        "runtime.retire_s": per_launch("runtime.retire"),
        "runtime.plan_build_s": per_launch("runtime.plan_build"),
        "kernels.leaf_s": leaf,
        "kernels.leaf_gflops": flops / leaf / 1e9 if leaf > 0 else 0.0,
        "exec.parallelism": leaf / steady_wall if steady_wall > 0 else 0.0,
        "obs.tracing_overhead_s": total(traced) - total(untraced),
    }


def format_report(workload, report):
    lines = []
    for phase in PHASES:
        r = report[phase]
        wall = r["wall_s"]
        lines.append("%s %s: %.4f s wall per unit (%d units)"
                     % (workload, phase, wall, r["units"]))
        lines.append("  waited on, by layer entry point:")
        for fam, sec in sorted(r["path"].items(), key=lambda kv: -kv[1]):
            if sec > 0:
                lines.append("    %-26s %10.5f s  %6.1f%% of wall"
                             % (fam, sec, 100 * sec / wall if wall else 0))
        # runtime.drain's self time is the benchmark thread idling while
        # the executor drains; it is waiting, not work.
        work = {f: v for f, v in r["busy"].items() if f != "runtime.drain"}
        total = sum(work.values())
        lines.append("  busy, self time by span family over all threads:")
        for fam, sec in sorted(work.items(), key=lambda kv: -kv[1]):
            if sec > 0:
                lines.append("    %-26s %10.5f s  %6.1f%% of busy  %6.1f%% of wall"
                             % (fam, sec, 100 * sec / total if total else 0,
                                100 * sec / wall if wall else 0))
    return "\n".join(lines)


# --- compare ------------------------------------------------------------------


def read_ledger(path):
    """{workload: [result, ...]} from a .jsonl ledger or a directory of them."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl"))
    out = {}
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if line:
                    r = json.loads(line)
                    out.setdefault(r["workload"], []).append(r)
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(base, new, bench):
    bounds = {m["name"]: m for m in bench.get("end_to_end", [])}
    lower = {m["name"]: m.get("better", "lower") == "lower"
             for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    flagged = 0
    lines = []
    for workload in sorted(set(base) | set(new)):
        a_runs, b_runs = base.get(workload, []), new.get(workload, [])
        names = sorted({k for r in a_runs + b_runs for k in r["metrics"]})
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if lower.get(name, True) else -change
            bound = bounds[name]["bound"] if name in bounds else 0.10
            verdict = ""
            if worse > bound:
                verdict = "REGRESSED"
            elif worse < -bound:
                verdict = "improved"
            # A base spread wider than the bound cannot show "no change":
            # only a new side whose every run beats every base run is clear.
            all_better = max(b) < min(a) if lower.get(name, True) else min(b) > max(a)
            if spread(a) > bound and not all_better:
                verdict = (verdict + " " if verdict else "") + (
                    "(unresolved: base spread %.1f%%)" % (100 * spread(a)))
            if verdict.startswith("REGRESSED"):
                flagged += 1
            lines.append("%-16s %-34s %14.6g -> %14.6g  %+7.1f%%  (bound %.0f%%, n=%d/%d) %s"
                         % (workload, name, ma, mb, 100 * change, 100 * bound,
                            len(a), len(b), verdict))
    return "\n".join(lines), flagged


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    lp = sub.add_parser("layers", help="per-layer report of a traced run")
    lp.add_argument("trace")
    lp.add_argument("result", help="the driver's JSON result of the traced run")
    cp = sub.add_parser("compare", help="compare two result ledgers")
    cp.add_argument("base")
    cp.add_argument("new")
    cp.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args(argv)
    if args.cmd == "layers":
        with open(args.result) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        report = layer_report(args.trace, result)
        print(format_report(result.get("workload", "?"), report))
        return 0
    with open(args.bench) as f:
        bench = json.load(f)
    text, flagged = compare(read_ledger(args.base), read_ledger(args.new), bench)
    print(text)
    print("%d metric(s) regressed beyond their bound" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Runs one workload in a fresh process and gates every run.

run.py starts this once per benchmark run, after set-up has written the
input volume, the spec and the reference digest into the work directory.
A fresh process keeps the process-global allocator's peaks and the OS
resident-set peak to this one workload. The first run is a warm-up: it is
gated but not timed, and it warms the page cache for the input files.
The timed runs then repeat for the given number of seconds, their times
taken between machine-speed probes (calibrate.py); with tracing, half the
time goes to untraced runs and half to traced ones, whose difference is
the tracing overhead. Results go to result.json in the work directory;
all times in it are reference seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads

if not workloads.import_engine():
    sys.exit("error: no stackstream sources under src/")

from stackstream import cli, io as sio, ops, planner, runtime, stream  # noqa: E402
from stackstream.core import ALLOC, Budget, slice_bytes  # noqa: E402
from tracer import Tracer  # noqa: E402

# untraced runs plan at least this long, so that a plan of a few
# milliseconds is still the median of many calls, but no more often than
# this: each call is followed by a probe that takes longer than a short plan
PLAN_MIN_S = 0.3
PLAN_MAX_CALLS = 24
LAYER_UNITS = workloads.declared_metrics("per_layer")


def gate(plan, report, out, expected) -> list:
    """Everything that makes a run count as failed, as messages."""
    problems = []
    if workloads.volume_digest(out) != expected:
        problems.append("output digest differs from the reference mode")
    if report.leaked_slices or ALLOC.live_slices or ALLOC.internal_bytes:
        problems.append(f"leak: {ALLOC.live_slices} live slices, "
                        f"{ALLOC.internal_bytes} internal bytes")
    if not report.within_budget:
        problems.append(f"peak {report.peak_bytes} B > promised "
                        f"{report.promised_peak} B + overhead {report.overhead} B")
    depth = {seg.source().name: seg.source().params["meta"].depth
             for seg in plan.segments}
    for name, pulls, _opens in report.sources:
        if pulls != depth[name]:
            problems.append(f"source {name} pulled {pulls} times, depth {depth[name]}")
    problems += [f"stage {name} swept {n} times" for name, n in report.sweeps if n != 1]
    return problems


def io_bytes(plan, report) -> int:
    """Bytes pulled from every source plus bytes written by every sink."""
    per_slice = {}
    for seg, meta in zip(plan.segments, plan.segment_metas):
        for name, (m_in, _m_out) in planner.propagate_meta(seg, meta).items():
            per_slice[name] = slice_bytes(m_in)
    return (sum(pulls * per_slice[name] for name, pulls, _ in report.sources)
            + sum(count * per_slice[name] for name, count in report.sinks))


def rss_peak_mib() -> float:
    """Peak resident set of this process since it started.

    VmHWM belongs to the process image, which execve replaces. getrusage's
    ru_maxrss would not do: Linux carries it across execve, so it would
    report the benchmark parent's resident set at the time it started
    this worker whenever that is larger than the workload's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def parse(wl, spec):
    graph, budget = cli.parse(spec)
    if wl.epsilon is not None:
        budget = Budget(budget.cap, wl.epsilon)
    return graph, budget


def plan_once(wl, graph, budget, mid):
    """planner.plan with the CLI defaults."""
    return planner.plan(graph, budget, tmpdir=str(mid), grow_windows=True,
                        concurrent=wl.threads > 1)


def to_reference(metrics, factor) -> dict:
    """Measured seconds to reference seconds, rates the other way."""
    per_unit = {"s": factor, "Mvox/s": 1 / factor}
    return {k: v * per_unit.get(LAYER_UNITS.get(k), 1) for k, v in metrics.items()}


def run_once(wl, spec, work, expected, clock, tracer=None) -> dict:
    """Parse, plan and execute once, as `stackstream run` does, then gate.

    Untraced, planning repeats on a freshly parsed spec until PLAN_MIN_S
    have been spent in it or PLAN_MAX_CALLS calls made, and plan_s is the
    median call; the last plan is the one executed. Each plan call and
    the execution are timed between two probes (calibrate.Clock). A
    traced run plans once and is timed as a whole.
    """
    out = work / "out"
    mid = work / "mid"
    shutil.rmtree(out, ignore_errors=True)
    run = {}
    if tracer is None:
        plan_ref, plan_measured = [], []
        clock.restart()
        while sum(plan_measured) < PLAN_MIN_S and len(plan_measured) < PLAN_MAX_CALLS:
            plan = None
            gc.collect()  # earlier plans' garbage must not raise the RSS peak
            graph, budget = parse(wl, spec)
            plan, dt, ref = clock.time(plan_once, wl, graph, budget, mid)
            plan_measured.append(dt)
            plan_ref.append(ref)
        report, dt, ref = clock.time(runtime.execute_plan, plan,
                                     threads=wl.threads, tmpdir=mid)
        run["plan_s"] = statistics.median(plan_ref)
        run["plan_calls"] = len(plan_ref)
        run["execute_s"] = ref
        run["measured_wall_s"] = statistics.median(plan_measured) + dt
    else:
        graph, budget = parse(wl, spec)
        gc.collect()
        tracer.reset(graph)

        def traced():
            root = tracer.begin("bench.run")
            try:
                plan = plan_once(wl, graph, budget, mid)
                return plan, runtime.execute_plan(plan, threads=wl.threads, tmpdir=mid)
            finally:
                tracer.end(root)

        try:
            tracer.install(planner, runtime, ops, stream, sio, ALLOC)
            clock.restart()
            (plan, report), dt, ref = clock.time(traced)
        finally:
            tracer.uninstall()
        run["layers"] = to_reference(tracer.summarize(), ref / dt)
    run.update(peak_bytes=report.peak_bytes,
               promised_bytes=report.promised_peak,
               io_bytes=io_bytes(plan, report),
               problems=gate(plan, report, out, expected))
    return run


def attempt(*args, **kwargs) -> dict:
    try:
        return run_once(*args, **kwargs)
    except Exception:
        return {"problems": ["raised: " + traceback.format_exc()]}


def repeat(seconds, *args, **kwargs) -> list:
    """Runs, one after another, for the given seconds."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(attempt(*args, **kwargs))
    return runs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digest", required=True)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    work = args.workdir
    spec = (work / "spec.txt").read_text()
    common = (wl, spec, work, args.digest, calibrate.Clock())

    result = {"warmup": attempt(*common)}
    if not args.trace:
        result["timed"] = repeat(args.seconds, *common)
    else:
        result["timed"] = repeat(args.seconds / 2, *common)
        tracer = Tracer(str(work / "mid"), workloads.stage_labels())
        result["traced"] = repeat(args.seconds / 2, *common, tracer=tracer)
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    result["rss_peak_mib"] = rss_peak_mib()
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()

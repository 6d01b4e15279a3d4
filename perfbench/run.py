"""stackstream benchmark: one workload per call, seeded, gated, timed.

    python3 perfbench/run.py --workload denoise --seed 0 --seconds 30 --trace 0

Set-up generates the seeded input volume, writes the spec, and computes
the reference output digest with the engine's reference mode (threads=1,
declared windows, a 1 TiB budget); it runs several times and reports the
median. A fresh worker process (worker.py) then plans and executes the
workload as `stackstream run` does, gating every run. Timings are medians
in reference seconds (see calibrate.py). The last line of stdout is one
JSON object: with --trace 0 it holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.

Everything is written under .bench_work/ in the checkout. File reads are
page-cache reads: the benchmark cannot drop the cache.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170
COVERAGE_TOLERANCE = 0.10


def setup(wl, work: Path, seed: int, k: int) -> tuple:
    """Write input, kernel and spec into a fresh directory and compute the
    reference digest; return (digest, directory).

    Each repeat writes to its own directory and nothing is deleted until
    the benchmark ends, so one repeat's deletions do not slow the next
    one's file creation.
    """
    from stackstream import cli, io as sio, ops, planner, runtime
    from stackstream.core import U8, VolumeMeta

    d = work / f"setup{k}"
    meta = VolumeMeta(*wl.dims, U8)
    sio.write_volume(d / "in", sio.synth_volume(meta, "random", seed=seed),
                     U8, chunks=wl.chunks)
    kernel = d / "box3.kernel"
    ops.Kernel3D.box(3).save(kernel)
    spec = workloads.spec_text(wl.body, wl.budget, d / "in", work / "out", kernel)
    cli.parse(spec)
    (d / "spec.txt").write_text(spec)
    graph, budget = cli.parse(workloads.reference_spec(wl, d / "in", d / "ref", kernel))
    plan = planner.plan(graph, budget, tmpdir=str(d / "mid"), grow_windows=False)
    report = runtime.execute_plan(plan, threads=1, tmpdir=d / "mid")
    if report.leaked_slices:
        raise RuntimeError("reference run leaked slices")
    return workloads.volume_digest(d / "ref"), d


def median(runs, key):
    return statistics.median(r[key] for r in runs)


def wall(run):
    return run["plan_s"] + run["execute_s"]


def end_to_end(wl, result, ok_frac) -> dict:
    """Medians over the runs that passed the gate, timings in reference seconds."""
    timed = [r for r in result["timed"] if not r["problems"]]
    if not timed:
        return {}
    return {
        "mvox_per_s": wl.voxels / 1e6 / statistics.median(wall(r) for r in timed),
        "plan_s": median(timed, "plan_s"),
        "peak_bytes": median(timed, "peak_bytes"),
        "promised_bytes": median(timed, "promised_bytes"),
        "rss_peak_mib": result["rss_peak_mib"],
        "io_bytes_ratio": median(timed, "io_bytes") / wl.voxels,
        "ok_frac": ok_frac,
    }


def per_layer(result) -> dict:
    """Medians over the traced runs that passed, timings in reference seconds."""
    traced = [r for r in result["traced"] if not r["problems"]]
    timed = [r for r in result["timed"] if not r["problems"]]
    if not traced or not timed:
        return {}
    m = {k: statistics.median(r["layers"][k] for r in traced)
         for k in traced[0]["layers"]}
    m["trace.untraced_wall_s"] = statistics.median(wall(r) for r in timed)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not workloads.import_engine():
        print(f"error: no stackstream sources under {workloads.SRC}", file=sys.stderr)
        return 2
    units = workloads.declared_metrics("per_layer" if args.trace else "end_to_end")
    wl = WORKLOADS[args.workload]
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        import stackstream.cli  # noqa: F401  (keep the first import out of set-up time)
        repeats = 1 if args.trace else SETUP_REPEATS
        clock = calibrate.Clock()
        # (digest, directory), measured seconds, reference seconds
        setups = [clock.time(setup, wl, work, args.seed, k) for k in range(repeats)]
        digests = {digest for (digest, _), _, _ in setups}
        digest, last = setups[-1][0]
        shutil.copyfile(last / "spec.txt", work / "spec.txt")
        problems = []
        if len(digests) != 1:
            problems.append("reference digests differ between set-ups")
        recorded = workloads.recorded_digest(args.workload, args.seed)
        if recorded is not None and recorded != digest:
            problems.append("reference digest differs from the one recorded for this seed")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--workdir", str(work), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--digest", digest]
        if args.trace:
            traces = base / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.tsv")]
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=WORKER_TIMEOUT_S)
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [result["warmup"]] + result["timed"] + result.get("traced", [])
    failed = sum(1 for r in runs if r["problems"])
    for r in runs:
        for p in r["problems"]:
            problems.append(p)
    if args.trace:
        metrics = per_layer(result)
        for key, what, wall_kind in (("trace.layer_coverage", "layer self times", "traced"),
                                     ("trace.stage_coverage", "stage self times", "execute")):
            coverage = metrics.get(key, 0.0)
            if coverage < 1 - COVERAGE_TOLERANCE:
                problems.append(f"{what} cover {coverage:.3f} of {wall_kind} wall")
    else:
        metrics = end_to_end(wl, result, (len(runs) - failed) / len(runs))
        if metrics:
            metrics["setup_s"] = statistics.median(ref for _, _, ref in setups)
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for p in problems:
        print("problem:", p.rstrip(), file=sys.stderr)
    n_timed = len(result["timed"])
    print(f"{args.workload} seed={args.seed}: {n_timed} timed runs"
          + (f", {len(result['traced'])} traced" if args.trace else "")
          + " (one untimed warm-up run first, which warms the page cache);"
          + f" set-up x{len(setups)}; reference digest {digest}")
    print("  set-up s, measured (reference):",
          " ".join(f"{dt:.3f} ({ref:.3f})" for _, dt, ref in setups))
    timed = [r for r in result["timed"] if not r["problems"]]
    print("  plan+execute s per timed run, measured (reference):",
          " ".join(f"{r['measured_wall_s']:.3f} ({wall(r):.3f})" for r in timed))
    print("  plan calls per timed run:", " ".join(str(r["plan_calls"]) for r in timed))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {units.get(name, '?')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

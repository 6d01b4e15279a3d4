#!/usr/bin/env python3
"""Wall time, CPU time and context switches of a gaussian chain by threads.

For each square slice size and each sigma (0.8, k_z = 7, and 1.5,
k_z = 11) no deeper than --depth, a random u8 stack is streamed through read -> gaussian ->
write at its declared window (one output per kernel call), and
execute_plan runs --repeats times at each thread count, the counts
interleaved. Each row gives the call's counted work
(planner.call_work: output voxels x the taps the gaussian's record
counts), whether the plan pools the stage (planner.INLINE_WORK), and
the median of each run's wall time, CPU time of all threads and
voluntary context switches (getrusage), so the slice size from which kernel workers pay off stays
measurable. A stage the plan does not pool runs its calls inline at
every thread count; to time the pool at any size, set
planner.INLINE_WORK = 0 before calling run(), which plans.
"""

import argparse
import resource
import statistics
import tempfile
import time
from pathlib import Path

from stackstream import io as sio, ops
from stackstream.core import U8, Budget, VolumeMeta, chain
from stackstream.planner import call_work, plan, propagate_meta
from stackstream.runtime import execute_plan

SIGMAS = (0.8, 1.5)


def run(d: Path, sigma: float, threads: int):
    """(wall s, CPU s, voluntary context switches, work, pooled) of one
    execute_plan: the gaussian's counted work per call, and whether the
    plan pools it."""
    g = chain(sio.read_stage(d / "in"), ops.discrete_gaussian(sigma, name="g"),
              sio.write_stage(d / f"out{threads}"))
    p = plan(g, Budget(1 << 40), tmpdir=str(d), grow_windows=False,
             concurrent=threads > 1)
    before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    execute_plan(p, threads=threads, tmpdir=d)
    wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    seg = p.segments[0]
    work = call_work(seg.node("g"), propagate_meta(seg, p.segment_metas[0])["g"][1])
    return wall, cpu, after.ru_nvcsw - before.ru_nvcsw, work, "g" in p.pooled


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="64,128,256",
                    help="comma-separated square slice edges")
    ap.add_argument("--depth", type=int, default=64)
    ap.add_argument("--threads", default="1,2,4", help="comma-separated thread counts")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    counts = [int(v) for v in args.threads.split(",")]
    # a gaussian deeper than the stack has no plan
    sigmas = [s for s in SIGMAS if 2 * ops.gaussian_radius(s) + 1 <= args.depth]
    print(f"read -> gaussian -> write, depth {args.depth}; median of {args.repeats} runs")
    print("n".rjust(5) + "sigma".rjust(7) + "work".rjust(12) + "threads".rjust(9)
          + "pooled".rjust(8) + "wall s".rjust(10) + "cpu s".rjust(10) + "vol csw".rjust(10))
    for n in (int(v) for v in args.sizes.split(",")):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            meta = VolumeMeta(n, n, args.depth, U8)
            sio.write_volume(d / "in", sio.synth_volume(meta, "random", seed=n), U8)
            runs = {(s, t): [] for s in sigmas for t in counts}
            for _ in range(args.repeats):
                for s in sigmas:
                    for t in counts:
                        runs[s, t].append(run(d, s, t))
        for s in sigmas:
            for t in counts:
                wall, cpu, csw = (statistics.median(col) for col in list(zip(*runs[s, t]))[:3])
                work, pooled = runs[s, t][0][3], "yes" if runs[s, t][0][4] else "no"
                print(f"{n:>5}{s:>7}{work:>12}{t:>9}{pooled:>8}{wall:>10.3f}{cpu:>10.3f}"
                      f"{csw:>10.0f}")


if __name__ == "__main__":
    main()

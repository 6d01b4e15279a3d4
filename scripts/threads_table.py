#!/usr/bin/env python3
"""Wall time, CPU time and context switches of a gaussian chain by threads.

For each square slice size, a random u8 stack is streamed through
read -> gaussian sigma=0.8 -> write at its declared window (k_z = 7, one
output per kernel call), and execute_plan runs --repeats times at each
thread count, the counts interleaved. The table gives the median of each
run's wall time, CPU time of all threads and voluntary context switches
(getrusage), so the slice size from which kernel workers pay off stays
measurable. A stage whose calls fall below runtime.INLINE_WORK runs them
inline at every thread count; to time the pool at any size, set
runtime.INLINE_WORK = 0 before calling run().
"""

import argparse
import resource
import statistics
import tempfile
import time
from pathlib import Path

from stackstream import io as sio, ops
from stackstream.core import U8, Budget, VolumeMeta, chain
from stackstream.planner import plan
from stackstream.runtime import execute_plan


def run(d: Path, threads: int):
    """(wall s, CPU s, voluntary context switches) of one execute_plan."""
    g = chain(sio.read_stage(d / "in"), ops.discrete_gaussian(0.8, name="g"),
              sio.write_stage(d / f"out{threads}"))
    p = plan(g, Budget(1 << 40), tmpdir=str(d), grow_windows=False,
             concurrent=threads > 1)
    before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    execute_plan(p, threads=threads, tmpdir=d)
    wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return wall, cpu, after.ru_nvcsw - before.ru_nvcsw


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="64,128,256",
                    help="comma-separated square slice edges")
    ap.add_argument("--depth", type=int, default=64)
    ap.add_argument("--threads", default="1,2,4", help="comma-separated thread counts")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    counts = [int(v) for v in args.threads.split(",")]
    print(f"read -> gaussian sigma=0.8 -> write, depth {args.depth}; "
          f"median of {args.repeats} runs")
    print("n".rjust(5) + "threads".rjust(9) + "wall s".rjust(10) + "cpu s".rjust(10)
          + "vol csw".rjust(10))
    for n in (int(v) for v in args.sizes.split(",")):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            meta = VolumeMeta(n, n, args.depth, U8)
            sio.write_volume(d / "in", sio.synth_volume(meta, "random", seed=n), U8)
            runs = {t: [] for t in counts}
            for _ in range(args.repeats):
                for t in counts:
                    runs[t].append(run(d, t))
        for t in counts:
            wall, cpu, csw = (statistics.median(col) for col in zip(*runs[t]))
            print(f"{n:>5}{t:>9}{wall:>10.3f}{cpu:>10.3f}{csw:>10.0f}")


if __name__ == "__main__":
    main()

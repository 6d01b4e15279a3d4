#!/usr/bin/env python3
"""Planning time and ledger work against chain length.

Each row plans a chain read -> (threshold | erode r=1)... -> write of the
given number of stages over a 64x64 u8 stack, two ways:

- plain: a 1 TiB budget, so every window grows to its input depth and the
  chain stays one segment;
- split: a budget of --split-slices slices and no per-stage allowance,
  so the chain splits at mid-writes, each segment growing into its rest.

Each threshold after an erode folds into it (planner.fuse_pointwise), so
a plan prices only about half the chain's stages: the `fused` column is
the stage count after fusion, mid-writes and mid-reads not included. The
table gives it, the median wall time of --repeats plan calls and the
number of planner.estimate_stage calls one plan makes. Work that grows
linearly in the stage count doubles its calls when the fused chain
doubles.

The last two columns are the plan's memory in bytes: `promised`, its
final ledger's peak, charged at what the run holds (a read one slice, a
segment's one-call stages in turns), and `reserved`, the largest segment
peak the window solve and the split priced it at.
"""

import argparse
import statistics
import time

from stackstream import ops, planner
from stackstream.core import U8, Budget, PlanStage, VolumeMeta, chain, slice_bytes


def build(stages: int, meta: VolumeMeta):
    body = [ops.threshold(100, name=f"t{i}") if i % 2 == 0 else
            ops.erode(1, name=f"e{i}") for i in range(stages - 2)]
    return chain(PlanStage("read", "read", params={"dir": "unused", "meta": meta}),
                 *body, PlanStage("write", "write", params={"dir": "unused"}))


def measure(stages: int, meta: VolumeMeta, budget: Budget, repeats: int):
    """(median plan seconds, estimate_stage calls per plan, stages after
    fusion, segments, promised bytes, reserved bytes)."""
    real = planner.estimate_stage
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    planner.estimate_stage = counting
    try:
        p = planner.plan(build(stages, meta), budget, tmpdir="unused")
    finally:
        planner.estimate_stage = real
    times = []
    for _ in range(repeats):
        g = build(stages, meta)
        t0 = time.perf_counter()
        planner.plan(g, budget, tmpdir="unused")
        times.append(time.perf_counter() - t0)
    fused = stages - sum(a.kind == "fuse" for a in p.actions)
    reserved = max(planner.estimate_pipeline(seg, m, budget).formula_peak
                   for seg, m in zip(p.segments, p.segment_metas))
    return (statistics.median(times), calls, fused, len(p.segments),
            p.ledger.formula_peak, reserved)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--stages", default="16,32,64,128",
                    help="comma-separated chain lengths, read and write included")
    ap.add_argument("--depth", type=int, default=512, help="stack depth in slices")
    ap.add_argument("--split-slices", type=int, default=20,
                    help="budget of the split chains, in slices")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    meta = VolumeMeta(64, 64, args.depth, U8)
    print(f"{'chain':<6} {'stages':>6} {'fused':>6} {'plan ms':>10} "
          f"{'estimate_stage':>15} {'segments':>9} {'promised':>12} {'reserved':>12}")
    for n in (int(v) for v in args.stages.split(",")):
        plain = Budget(1 << 40)
        split = Budget(args.split_slices * slice_bytes(meta), 0)
        for label, budget in (("plain", plain), ("split", split)):
            s, calls, fused, segments, promised, reserved = measure(n, meta, budget,
                                                                    args.repeats)
            print(f"{label:<6} {n:>6} {fused:>6} {s * 1e3:>10.2f} {calls:>15} "
                  f"{segments:>9} {promised:>12} {reserved:>12}")


if __name__ == "__main__":
    main()

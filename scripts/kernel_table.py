#!/usr/bin/env python3
"""Milliseconds per output of each window op, called as its stage calls it.

Each window stage, the pointwise ones (a window of depth 1) too, is built
by its factory, and its OPS window function is called as a stage at
w = k_z calls it: over a window of k_z random slices
that slides one fresh slice at a time, one output per call, with one
Scratch shared by all the calls and the cast to the stage's output dtype
that the runtime passes. Every figure is the median of --repeats such
calls, after one call that allocates the Scratch, so it is the steady
per-output cost of a stage at its declared window, block fill, cast and
whatever a call reuses from the one before (the convolve's plane ring)
included.
"""

import argparse
import statistics
import time
from functools import partial
from types import SimpleNamespace

import numpy as np

from stackstream import ops, runtime
from stackstream.core import DTYPES, VolumeMeta

STAGES = {
    "threshold t=100": lambda: ops.threshold(100),
    "square": ops.square,
    "gaussian s=0.8": lambda: ops.discrete_gaussian(0.8),
    "gaussian s=1.5": lambda: ops.discrete_gaussian(1.5),
    "convolve box3": lambda: ops.convolve(ops.Kernel3D.box(3)),
    **{f"{kind} r={r}": partial(factory, r)
       for kind, factory in (("erode", ops.erode), ("dilate", ops.dilate),
                             ("median", ops.median_filter))
       for r in (1, 2, 3)},
}


def ms_per_output(stage, dtype, n, repeats, seed=0):
    meta = VolumeMeta(n, n, stage.k_z, dtype)
    out = ops.record(stage).out_meta(stage, meta).dtype
    vol = np.random.default_rng(seed).integers(
        0, np.iinfo(dtype.np_dtype).max, (stage.k_z + repeats, n, n), endpoint=True,
        dtype=dtype.np_dtype)
    slices = [SimpleNamespace(data=plane, meta=meta.slice_meta) for plane in vol]
    scratch = ops.Scratch()

    def call(t):
        return ops.record(stage).window(
            stage, slices[t:t + stage.k_z], 0, 0, scratch=scratch,
            cast=lambda arr: runtime._cast_array(arr, out, in_place=True))

    call(0)
    times = []
    for t in range(1, repeats + 1):
        t0 = time.perf_counter()
        call(t)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="64,128,256",
                    help="comma-separated square slice edges")
    ap.add_argument("--dtypes", default="u8,u16", help="comma-separated input dtypes")
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args()
    sizes = [int(v) for v in args.sizes.split(",")]
    dtypes = [DTYPES[v] for v in args.dtypes.split(",")]
    print(f"ms per output at w = k_z, median of {args.repeats} calls sliding one slice "
          f"at a time with one Scratch")
    print("stage".ljust(16) + "dtype".rjust(6) + "".join(f"{n:>9}" for n in sizes))
    for name, factory in STAGES.items():
        for dtype in dtypes:
            row = (ms_per_output(factory(), dtype, n, args.repeats) for n in sizes)
            print(name.ljust(16) + f"{dtype.kind:>6}" + "".join(f"{ms:>9.3f}" for ms in row))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Per-call memory and page faults of the window kernels.

For each kernel and square u8 slice size, one call over a window that
emits all of its centers is measured with tracemalloc at two window
sizes: the transient (the peak less what the call leaves allocated: its
outputs and the workspaces kept in its Scratch) and the workspace bytes.
The outputs leave in the stage's output dtype, so the transient should
not grow with w. Then --calls one-output calls run with one Scratch
shared by all of them, as a kernel stage runs, and again with a fresh
Scratch per call; the minor page faults per call (getrusage) show what
reusing the workspaces saves.
"""

import argparse
import resource
import tracemalloc
from types import SimpleNamespace

import numpy as np

from stackstream import ops, runtime
from stackstream.core import F32, U8

G1D = ops.gaussian_kernel_1d(0.8)
BOX3 = ops.Kernel3D.box(3)
SE1 = ops.StructuringElement.box(1)

# name: (k_z, call(window, lo, hi, scratch)), each as its runtime stage calls it
KERNELS = {
    "gaussian s=0.8": (len(G1D), lambda win, lo, hi, s: ops.gaussian_window(
        win, G1D, lo, hi, scratch=s, cast=lambda a: runtime._cast_array(a, U8, in_place=True))),
    "convolve box3": (3, lambda win, lo, hi, s: ops.conv_window(
        win, BOX3, lo, hi, scratch=s, cast=lambda a: runtime._cast_array(a, F32, in_place=True))),
    "median r=1": (3, lambda win, lo, hi, s: ops.morph_window(
        win, SE1, "median", lo, hi, scratch=s,
        cast=lambda a: runtime._cast_array(a, U8, in_place=True))),
    "erode r=1": (3, lambda win, lo, hi, s: ops.morph_window(
        win, SE1, "erode", lo, hi, scratch=s,
        cast=lambda a: runtime._cast_array(a, U8, in_place=True))),
}


def window(w, n, seed=0):
    vol = np.random.default_rng(seed).integers(0, 256, (w, n, n), dtype=np.uint8)
    return [SimpleNamespace(data=plane) for plane in vol]


def memory(call, kz, w, n):
    """(transient, workspace) bytes of one call over a w-slice window."""
    win, scratch = window(w, n), ops.Scratch()
    tracemalloc.start()
    try:
        outs = call(win, 0, w - kz, scratch)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del outs
    return peak - current, sum(b.nbytes for b in scratch.buffers.values())


def faults_per_call(call, kz, n, calls, shared):
    win = window(kz, n)
    scratch = ops.Scratch()
    call(win, 0, 0, scratch)  # warm up numpy and the shared workspaces
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        call(win, 0, 0, scratch if shared else ops.Scratch())
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="64,128,256",
                    help="comma-separated square slice edges")
    ap.add_argument("--wide", type=int, default=32,
                    help="the larger window, in slices beyond k_z")
    ap.add_argument("--calls", type=int, default=20)
    args = ap.parse_args()
    sizes = [int(v) for v in args.sizes.split(",")]
    kib = 1024
    print(f"one call: transient and workspace KiB at w = k_z + 1 and w = k_z + "
          f"{args.wide}; minor faults per one-output call, {args.calls} calls")
    print("kernel".ljust(16) + "n".rjust(5)
          + "".join(h.rjust(12) for h in ("trans small", "trans wide", "work small",
                                          "work wide", "flt shared", "flt fresh")))
    for name, (kz, call) in KERNELS.items():
        for n in sizes:
            (t1, s1), (t2, s2) = (memory(call, kz, w, n)
                                  for w in (kz + 1, kz + args.wide))
            shared, fresh = (faults_per_call(call, kz, n, args.calls, flag)
                             for flag in (True, False))
            print(name.ljust(16) + f"{n:>5}" + f"{t1 / kib:>12.1f}{t2 / kib:>12.1f}"
                  f"{s1 / kib:>12.1f}{s2 / kib:>12.1f}{shared:>12.1f}{fresh:>12.1f}")


if __name__ == "__main__":
    main()

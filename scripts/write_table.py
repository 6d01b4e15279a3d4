#!/usr/bin/env python3
"""Wall and CPU time of the file sinks and of reading their output back,
by depth and slice size.

For each depth and square slice size, a random u8 stack held in memory
is written --repeats times in each layout: by io.write_slice_stack (one
file per slice), as one multipage file, and by io.write_chunk_store
(--chunks), each time into a directory removed just before, as every
benchmark run writes into a fresh output directory. Each write is then
read back by io.open_slice_stream, one slice at a time. The table gives
the median of each write's wall time and of the user and system CPU
seconds of all the process's threads (getrusage), the wall time per
file, and the median wall time of the read, so that the cost of a file,
not of its bytes, stays measurable on both sides.
"""

import argparse
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from stackstream import io as sio
from stackstream.core import ALLOC, U8, VolumeMeta, release
from stackstream.stream import Stream


def memory_stream(vol, meta: VolumeMeta) -> Stream:
    def gen():
        for plane in vol:
            yield ALLOC.new_slice(meta.slice_meta, data=plane)

    return Stream(gen(), meta=meta.slice_meta, depth=meta.depth, name="memory")


def timed(write, vol, meta: VolumeMeta, out: Path):
    """(wall s, user s, system s, read wall s) of one write into out,
    removed first, and of reading it back."""
    shutil.rmtree(out, ignore_errors=True)
    src = memory_stream(vol, meta)
    before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    write(src, out)
    wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    back = sio.open_slice_stream(out)
    while (sl := back.pull()) is not None:
        release(sl)
    read = time.perf_counter() - t0
    return wall, after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime, read


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="64,128", help="comma-separated square slice edges")
    ap.add_argument("--depths", default="128,512", help="comma-separated stack depths")
    ap.add_argument("--chunks", default="64,64,16", help="chunk dims cx,cy,cz")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    chunks = tuple(int(v) for v in args.chunks.split(","))
    print(f"u8 random stack into a fresh directory; chunks {args.chunks}; "
          f"median of {args.repeats} writes")
    print("depth".rjust(6) + "n".rjust(5) + "layout".rjust(10) + "files".rjust(7)
          + "wall s".rjust(9) + "user s".rjust(9) + "sys s".rjust(9) + "ms/file".rjust(9)
          + "read s".rjust(9))
    for depth in (int(v) for v in args.depths.split(",")):
        for n in (int(v) for v in args.sizes.split(",")):
            meta = VolumeMeta(n, n, depth, U8)
            vol = sio.synth_volume(meta, "random", seed=n)
            grid = sio.ChunkGrid(meta, *(min(c, e) for c, e in zip(chunks, (n, n, depth))))
            layouts = {"stack": (depth, lambda src, out: sio.write_slice_stack(src, out, meta)),
                       "multipage": (1, lambda src, out: sio._drain(
                           sio.write_slices_steps(src, out, meta, multipage=True))),
                       "chunks": (grid.chunk_count,
                                  lambda src, out: sio.write_chunk_store(src, out, grid))}
            runs = {name: [] for name in layouts}
            with tempfile.TemporaryDirectory() as tmp:
                for _ in range(args.repeats):  # the layouts interleaved
                    for name, (_, write) in layouts.items():
                        runs[name].append(timed(write, vol, meta, Path(tmp) / name))
            for name, (files, _) in layouts.items():
                wall, user, system, read = (statistics.median(col) for col in zip(*runs[name]))
                print(f"{depth:>6}{n:>5}{name:>10}{files:>7}{wall:>9.4f}{user:>9.4f}"
                      f"{system:>9.4f}{1000 * wall / files:>9.3f}{read:>9.4f}")


if __name__ == "__main__":
    main()

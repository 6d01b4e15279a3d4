"""Workload definitions and the helpers both benchmark processes share.

Each workload is a pipeline spec body plus the input volume it streams.
Inputs are u8 `random` volumes drawn from the seed, so the same seed
always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD = Path(__file__).resolve().parent / "record.json"

# the engine's reference mode: in-order, declared windows, roomy budget
REFERENCE_BUDGET = "1 TiB"


def import_engine():
    """Put the checkout's sources on the path; False when they are absent."""
    if not (SRC / "stackstream" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class Workload:
    dims: tuple            # nx, ny, depth
    chunks: tuple | None   # chunk store layout of the input, or a slice stack
    budget: str
    epsilon: int | None    # per-stage allowance; None keeps the CLI default
    threads: int
    body: tuple            # spec lines between the budget line and `sink`

    @property
    def voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


WORKLOADS = {
    # kernels dominate (median most of all); the budget keeps windows near
    # their minima so the run really streams, through tee and join add
    "denoise": Workload(
        dims=(128, 128, 128), chunks=None, budget="10 MiB", epsilon=None,
        threads=1,
        body=("read {inp}", "tee", "median r=1", "---", "dilate r=1",
              "join add", "gaussian sigma=1.5", "convolve kernel={kernel}",
              "write {out}")),
    # 4 KiB slices over a deep stack: window growth makes planning about
    # half the wall time, and per-slice costs (pulls, allocator calls,
    # one file per slice) outweigh the kernels
    "deep_small": Workload(
        dims=(64, 64, 512), chunks=None, budget="1 TiB", epsilon=None,
        threads=1,
        body=("read {inp}", "threshold t=100", "erode r=1", "dilate r=1",
              "square", "gaussian sigma=0.8", "threshold t=10", "erode r=1",
              "write {out}")),
    # a 40-slice budget forces the planner to split the chain at a
    # mid-write; chunk reads and writes sit beside the intermediate volume,
    # and it is the only workload with thread handoffs
    "midwrite_chunks": Workload(
        dims=(256, 256, 192), chunks=(64, 64, 16), budget="2560 KiB",
        epsilon=4096, threads=2,
        body=("readInChunks {inp}", "threshold t=100", "square",
              "gaussian sigma=0.8", "writeInChunks {out} chunks=64,64,16")),
}


def spec_text(body, budget: str, inp, out, kernel) -> str:
    lines = [f"source {budget}"]
    lines += [ln.format(inp=inp, out=out, kernel=kernel) for ln in body]
    return "\n".join(lines + ["sink"]) + "\n"


def reference_spec(wl: Workload, inp, ref, kernel) -> str:
    """The spec of the reference run: the roomy budget, and the output
    written as a chunk store of one chunk, so that the reference creates
    one output file rather than one per slice. The digest covers voxels
    and geometry only, so it compares with the workload's own output."""
    nx, ny, depth = wl.dims
    body = wl.body[:-1] + (f"writeInChunks {{out}} chunks={nx},{ny},{depth}",)
    return spec_text(body, REFERENCE_BUDGET, inp, ref, kernel)


def volume_digest(directory) -> str:
    """sha256 over geometry and voxels, streamed one slice at a time."""
    from stackstream import io as sio
    from stackstream.core import release

    src = sio.open_slice_stream(directory)
    meta = sio.volume_meta(directory)
    h = hashlib.sha256(f"{meta.nx} {meta.ny} {meta.depth} {meta.dtype}\n".encode())
    try:
        while (sl := src.pull()) is not None:
            h.update(sl.data.tobytes())
            release(sl)
    finally:
        src.close()
    return h.hexdigest()


def declared_metrics(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" list in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def stage_labels() -> list:
    """Stage labels that the per-layer list reports one by one: `s<k>` is
    the k-th stage of the parsed spec, `inserted` the planner's own."""
    prefix, suffix = "stage.", ".self_s"
    return [n[len(prefix):-len(suffix)] for n in declared_metrics("per_layer")
            if n.startswith(prefix) and n.endswith(suffix)]


def recorded_digest(workload: str, seed: int):
    rec = json.loads(RECORD.read_text())
    if seed != rec["default_seed"]:
        return None
    return rec["reference_digests"].get(workload)

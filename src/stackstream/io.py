"""Slice-stack and chunked-store backends with plain-text manifests.

On-disk voxels are headerless raw bytes, row-major and little-endian, so
round trips are bit-exact and oracle comparisons need no format parsing.
A directory holds either one file per slice (or a single concatenated
multi-slice file) or a grid of chunk files, described by manifest.txt:

    version 1
    dims <nx> <ny> <depth>
    dtype u8|u16|f32
    layout stack | chunks <cx> <cy> <cz>
    <ordered file list>

Writes land under a temporary name and are renamed into place, and a
.partial marker exists until the manifest is durable, so an interrupted
run can never be mistaken for a complete volume.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (ALLOC, SINGLE_PIXEL, PlanStage, PlanningError,
                   VolumeMeta, dtype_by_kind, release)
from .stream import SliceStream

MANIFEST = "manifest.txt"
PARTIAL_MARKER = ".partial"


def _write_bytes(path: Path, data: bytes):
    # single seam for fault-injection in tests
    with open(path, "wb") as fh:
        fh.write(data)


def _atomic_write(directory: Path, name: str, data: bytes):
    tmp = directory / f".tmp_{name}"
    try:
        _write_bytes(tmp, data)
        os.replace(tmp, directory / name)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _pad_width(depth: int) -> int:
    return max(3, len(str(max(depth - 1, 0))))


@dataclass
class StackManifest:
    """Ordered slice files of one volume; file order is z order."""

    directory: Path
    files: list
    meta: VolumeMeta

    def __post_init__(self):
        self.directory = Path(self.directory)
        if len(self.files) not in (self.meta.depth, 1):
            raise PlanningError(
                f"manifest lists {len(self.files)} files for depth {self.meta.depth}")
        if sorted(self.files) != list(self.files):
            raise PlanningError("slice files must sort lexicographically in z order")

    @property
    def multipage(self) -> bool:
        return len(self.files) == 1 and self.meta.depth > 1


@dataclass
class ChunkGrid:
    """Geometry of a chunked store; edge chunks may be partial."""

    meta: VolumeMeta
    cx: int
    cy: int
    cz: int

    def __post_init__(self):
        if min(self.cx, self.cy, self.cz) < 1:
            raise PlanningError("chunk dims must be >= 1")

    @property
    def gx(self) -> int:
        return math.ceil(self.meta.nx / self.cx)

    @property
    def gy(self) -> int:
        return math.ceil(self.meta.ny / self.cy)

    @property
    def gz(self) -> int:
        return math.ceil(self.meta.depth / self.cz)

    @property
    def chunk_count(self) -> int:
        return self.gx * self.gy * self.gz

    def chunk_shape(self, iz: int, iy: int, ix: int):
        """(dz, dy, dx) of a chunk, smaller on the far edges."""
        dz = min(self.cz, self.meta.depth - iz * self.cz)
        dy = min(self.cy, self.meta.ny - iy * self.cy)
        dx = min(self.cx, self.meta.nx - ix * self.cx)
        return dz, dy, dx

    def chunk_name(self, iz: int, iy: int, ix: int) -> str:
        return f"c_{iz:03d}_{iy:03d}_{ix:03d}.raw"

    def file_list(self):
        return [self.chunk_name(iz, iy, ix)
                for iz in range(self.gz)
                for iy in range(self.gy)
                for ix in range(self.gx)]

    def layer_bytes(self) -> int:
        """Bytes of one full x-y layer of chunks (cz slices)."""
        return self.cz * self.meta.nx * self.meta.ny * self.meta.dtype.byte_width


def save_manifest(directory, meta: VolumeMeta, files, chunks=None):
    lines = ["version 1",
             f"dims {meta.nx} {meta.ny} {meta.depth}",
             f"dtype {meta.dtype.kind}"]
    if chunks is None:
        lines.append("layout stack")
    else:
        lines.append(f"layout chunks {chunks[0]} {chunks[1]} {chunks[2]}")
    lines.extend(files)
    _atomic_write(Path(directory), MANIFEST, ("\n".join(lines) + "\n").encode())


def load_manifest(directory):
    """Parse manifest.txt; returns StackManifest or ChunkGrid."""
    directory = Path(directory)
    path = directory / MANIFEST
    if not path.exists():
        raise PlanningError(f"no {MANIFEST} in {directory}")
    if (directory / PARTIAL_MARKER).exists():
        raise PlanningError(f"{directory} holds a partial write (marker present)")
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) < 4 or lines[0] != "version 1":
        raise PlanningError(f"{path}: unsupported manifest header")
    _, nx, ny, depth = lines[1].split()
    dtype = dtype_by_kind(lines[2].split()[1])
    meta = VolumeMeta(int(nx), int(ny), int(depth), dtype)
    layout = lines[3].split()
    files = lines[4:]
    if layout[:2] == ["layout", "stack"]:
        return StackManifest(directory, files, meta)
    if layout[:2] == ["layout", "chunks"]:
        grid = ChunkGrid(meta, int(layout[2]), int(layout[3]), int(layout[4]))
        if files != grid.file_list():
            raise PlanningError(f"{path}: chunk file list does not match grid")
        return grid
    raise PlanningError(f"{path}: unknown layout {layout!r}")


def volume_meta(directory) -> VolumeMeta:
    man = load_manifest(directory)
    return man.meta


# ---------------------------------------------------------------------------
# slice-stack backend
# ---------------------------------------------------------------------------

def open_slice_stream(directory) -> SliceStream:
    """Stream slices in z order; every file is opened exactly once per sweep."""
    man = load_manifest(directory)
    if isinstance(man, ChunkGrid):
        return open_chunk_stream(directory)
    meta = man.meta
    smeta = meta.slice_meta
    nbytes = smeta.nbytes
    counters = {"opens": 0}

    def gen():
        if man.multipage:
            path = man.directory / man.files[0]
            counters["opens"] += 1
            with open(path, "rb") as fh:
                for i in range(meta.depth):
                    data = fh.read(nbytes)
                    if len(data) != nbytes:
                        raise IOError(f"{path}: slice {i}: expected {nbytes} bytes, "
                                      f"got {len(data)}")
                    arr = np.frombuffer(data, dtype=smeta.dtype.np_dtype)
                    yield ALLOC.new_slice(smeta, data=arr.reshape(meta.ny, meta.nx))
            return
        for fname in man.files:
            path = man.directory / fname
            if not path.exists():
                raise IOError(f"{path}: missing slice file, expected {nbytes} bytes")
            counters["opens"] += 1
            with open(path, "rb") as fh:
                data = fh.read()
            if len(data) != nbytes:
                raise IOError(f"{path}: expected {nbytes} bytes, got {len(data)}")
            arr = np.frombuffer(data, dtype=smeta.dtype.np_dtype)
            yield ALLOC.new_slice(smeta, data=arr.reshape(meta.ny, meta.nx))

    s = SliceStream(gen(), meta=smeta, depth=meta.depth, name=f"read {directory}")
    s.counters = counters
    return s


def write_slices_steps(src: SliceStream, directory, meta: VolumeMeta):
    """Stepwise sink: one raw file per slice plus a manifest at the end.

    Yields after each written slice so several sinks can be driven in
    lockstep; returns the slice count. Slices are released as they are
    written; the .partial marker guards against truncated outputs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / PARTIAL_MARKER).touch()
    width = _pad_width(meta.depth)
    files = []
    written = 0
    while True:
        sl = src.pull()
        if sl is None:
            break
        name = f"{written:0{width}d}.raw"
        try:
            _atomic_write(directory, name, sl.data.tobytes())
        finally:
            release(sl)
        files.append(name)
        written += 1
        yield written
    if written == 0:
        raise IOError(f"{directory}: refusing to write an empty volume")
    save_manifest(directory, VolumeMeta(meta.nx, meta.ny, written, meta.dtype)
                  if written != meta.depth else meta, files)
    (directory / PARTIAL_MARKER).unlink()
    return written


def write_slice_stack(src: SliceStream, directory, meta: VolumeMeta):
    """Drain a stream into a slice-stack directory; returns slices written."""
    steps = write_slices_steps(src, directory, meta)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


# ---------------------------------------------------------------------------
# chunked backend
# ---------------------------------------------------------------------------

def open_chunk_stream(directory) -> SliceStream:
    """Stream z-ordered slices assembled from chunk layers.

    Keeps two full x-y chunk layers resident (the assembly buffer charged
    to the stage's internal bytes); each chunk file is read exactly once
    per sweep.
    """
    grid = load_manifest(directory)
    if isinstance(grid, StackManifest):
        raise PlanningError(f"{directory} is a slice stack, not a chunk store")
    directory = Path(directory)
    meta = grid.meta
    smeta = meta.slice_meta
    counters = {"opens": 0}
    buf_bytes = 2 * grid.layer_bytes()

    def gen():
        ALLOC.register_internal(buf_bytes)
        try:
            layers = [np.zeros((grid.cz, meta.ny, meta.nx), dtype=smeta.dtype.np_dtype)
                      for _ in range(2)]
            for iz in range(grid.gz):
                layer = layers[iz % 2]
                dz = min(grid.cz, meta.depth - iz * grid.cz)
                for iy in range(grid.gy):
                    for ix in range(grid.gx):
                        shape = grid.chunk_shape(iz, iy, ix)
                        path = directory / grid.chunk_name(iz, iy, ix)
                        expect = shape[0] * shape[1] * shape[2] * smeta.dtype.byte_width
                        if not path.exists():
                            raise IOError(f"{path}: missing chunk file, "
                                          f"expected {expect} bytes")
                        counters["opens"] += 1
                        with open(path, "rb") as fh:
                            data = fh.read()
                        if len(data) != expect:
                            raise IOError(f"{path}: expected {expect} bytes, got {len(data)}")
                        block = np.frombuffer(data, dtype=smeta.dtype.np_dtype)
                        block = block.reshape(shape)
                        layer[:shape[0],
                              iy * grid.cy:iy * grid.cy + shape[1],
                              ix * grid.cx:ix * grid.cx + shape[2]] = block
                for z in range(dz):
                    yield ALLOC.new_slice(smeta, data=layer[z].copy())
        finally:
            ALLOC.unregister_internal(buf_bytes)

    s = SliceStream(gen(), meta=smeta, depth=meta.depth, name=f"readInChunks {directory}")
    s.counters = counters
    return s


def write_chunks_steps(src: SliceStream, directory, grid: ChunkGrid):
    """Stepwise sink into a chunk grid, buffering one x-y layer at a time."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / PARTIAL_MARKER).touch()
    meta = grid.meta
    buf_bytes = grid.layer_bytes()
    ALLOC.register_internal(buf_bytes)
    written = 0
    try:
        layer = np.zeros((grid.cz, meta.ny, meta.nx), dtype=meta.dtype.np_dtype)
        fill = 0
        iz = 0

        def flush():
            nonlocal fill, iz
            for iy in range(grid.gy):
                for ix in range(grid.gx):
                    dz, dy, dx = grid.chunk_shape(iz, iy, ix)
                    block = layer[:dz,
                                  iy * grid.cy:iy * grid.cy + dy,
                                  ix * grid.cx:ix * grid.cx + dx]
                    _atomic_write(directory, grid.chunk_name(iz, iy, ix),
                                  np.ascontiguousarray(block).tobytes())
            fill = 0
            iz += 1

        while True:
            sl = src.pull()
            if sl is None:
                break
            try:
                layer[fill] = sl.data
            finally:
                release(sl)
            fill += 1
            written += 1
            if fill == grid.cz:
                flush()
            yield written
        if fill:
            flush()
    finally:
        ALLOC.unregister_internal(buf_bytes)
    save_manifest(directory, meta, grid.file_list(), chunks=(grid.cx, grid.cy, grid.cz))
    (directory / PARTIAL_MARKER).unlink()
    return written


def write_chunk_store(src: SliceStream, directory, grid: ChunkGrid):
    """Drain a stream into a chunk store; returns slices written."""
    steps = write_chunks_steps(src, directory, grid)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


# ---------------------------------------------------------------------------
# stage factories for the pipeline graph
# ---------------------------------------------------------------------------

def read_stage(directory, name: Optional[str] = None) -> PlanStage:
    meta = volume_meta(directory)
    return PlanStage(name=name or "read", op_kind="read", w=1, s=1,
                     params={"dir": str(directory), "meta": meta},
                     algo_class=SINGLE_PIXEL, w_min=1, tunable=True)


def read_chunks_stage(directory, name: Optional[str] = None) -> PlanStage:
    grid = load_manifest(directory)
    if isinstance(grid, StackManifest):
        raise PlanningError(f"{directory} is a slice stack; use read")
    return PlanStage(name=name or "readInChunks", op_kind="read_chunks",
                     params={"dir": str(directory), "meta": grid.meta,
                             "chunks": (grid.cx, grid.cy, grid.cz)},
                     algo_class=SINGLE_PIXEL)


def write_stage(directory, name: Optional[str] = None) -> PlanStage:
    return PlanStage(name=name or "write", op_kind="write", w=1, s=1,
                     params={"dir": str(directory)}, algo_class=SINGLE_PIXEL,
                     w_min=1, tunable=True)


def write_chunks_stage(directory, chunks=(16, 16, 16),
                       name: Optional[str] = None) -> PlanStage:
    return PlanStage(name=name or "writeInChunks", op_kind="write_chunks",
                     params={"dir": str(directory), "chunks": tuple(chunks)},
                     algo_class=SINGLE_PIXEL)


def initialize_stage(meta: VolumeMeta, kind: str = "zero", value=0, seed=0,
                     name: Optional[str] = None) -> PlanStage:
    return PlanStage(name=name or "initialize", op_kind="initialize",
                     params={"meta": meta, "kind": kind, "value": value,
                             "seed": seed},
                     algo_class=SINGLE_PIXEL)


# ---------------------------------------------------------------------------
# synthetic volume generation
# ---------------------------------------------------------------------------

GEN_KINDS = ("constant", "ramp", "impulse", "random")


def synth_slice_array(meta: VolumeMeta, z: int, kind: str, value=0,
                      rng=None) -> np.ndarray:
    """One slice of a synthetic test volume."""
    dt = meta.dtype.np_dtype
    if kind == "constant":
        return np.full((meta.ny, meta.nx), value, dtype=dt)
    if kind == "ramp":
        # voxel = (x + y + z) wrapped into the dtype range
        yy, xx = np.mgrid[0:meta.ny, 0:meta.nx]
        vals = xx + yy + z
        if meta.dtype.kind == "f32":
            return vals.astype(dt)
        return (vals % (np.iinfo(dt).max + 1)).astype(dt)
    if kind == "impulse":
        arr = np.zeros((meta.ny, meta.nx), dtype=dt)
        if z == meta.depth // 2:
            peak = 1.0 if meta.dtype.kind == "f32" else np.iinfo(dt).max
            arr[meta.ny // 2, meta.nx // 2] = peak
        return arr
    if kind == "random":
        if meta.dtype.kind == "f32":
            return rng.random((meta.ny, meta.nx), dtype=np.float32)
        hi = np.iinfo(dt).max
        return rng.integers(0, hi + 1, size=(meta.ny, meta.nx), dtype=dt)
    raise PlanningError(f"unknown synthetic kind {kind!r}")


def synth_volume(meta: VolumeMeta, kind: str, value=0, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([synth_slice_array(meta, z, kind, value, rng)
                     for z in range(meta.depth)])


def write_volume(directory, vol: np.ndarray, dtype, chunks=None):
    """Write an in-memory (z, y, x) array as a stack or chunk store."""
    dtype = dtype_by_kind(dtype) if isinstance(dtype, str) else dtype
    depth, ny, nx = vol.shape
    meta = VolumeMeta(nx, ny, depth, dtype)
    smeta = meta.slice_meta

    def gen():
        for z in range(depth):
            yield ALLOC.new_slice(smeta, data=vol[z])

    src = SliceStream(gen(), meta=smeta, depth=depth, name="memory")
    if chunks is None:
        write_slice_stack(src, directory, meta)
    else:
        write_chunk_store(src, directory, ChunkGrid(meta, *chunks))
    return meta


def read_volume(directory) -> np.ndarray:
    """Load a whole stack or chunk store into one (z, y, x) array."""
    src = open_slice_stream(Path(directory))
    planes = []
    while True:
        sl = src.pull()
        if sl is None:
            break
        planes.append(sl.data.copy())
        release(sl)
    return np.stack(planes)

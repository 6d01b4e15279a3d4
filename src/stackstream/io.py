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

A sink first makes its directory and a .partial marker. A sink with one
file per slice or per chunk then creates its files empty, ahead of it
and in the order it fills them, on one thread of its own, and fills each
in place: nothing is renamed. A planner mid-write is one multi-slice
file, also written in place slice by slice. The marker is unlinked only after the
manifest is written, so the volume, not the file, is the unit that is
complete or not, and an interrupted run can never be mistaken for a
complete volume. Nothing is fsynced, so this holds against a process
that dies, not against a power loss or an OS crash.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import (ALLOC, PlanStage, PlanningError, VolumeMeta, dtype_by_kind,
                   release)
from .stream import Stream

MANIFEST = "manifest.txt"
STACK_FILE = "stack.raw"  # the one file of a multipage stack
PARTIAL_MARKER = ".partial"


def _write_bytes(path: Path, data: bytes):
    # single seam for fault-injection in tests
    with open(path, "wb") as fh:
        fh.write(data)


def _atomic_write(directory: Path, name: str, data: bytes):
    """Fill one file of a volume in place. Nothing is renamed: the volume's
    .partial marker, not a rename, is what makes the volume atomic."""
    _write_bytes(directory / name, data)


class _FileCreator:
    """A sink's files, created empty ahead of it on one thread of its own.

    Within `with`, the thread stage-create creates name(i) in directory
    for i in range(count), the order in which the sink fills them, and
    holds no list of them. fill waits on one condition, with no timeout,
    until the next file exists, then fills it in place. Leaving `with`
    stops and joins the thread, then unlinks every file it created that
    was never completely filled. Creating a file costs far more than
    filling it, and this takes that cost off the pipeline's thread.
    """

    def __init__(self, directory: Path, name: Callable[[int], str], count: int):
        self.directory, self.name, self.count = directory, name, count
        self.cond = threading.Condition()
        self.created = self.filled = 0
        self.done = self.stopped = False
        self.error = None
        self.thread = threading.Thread(target=self._create, name="stage-create")

    def _create(self):
        try:
            for i in range(self.count):
                if self.stopped:
                    break
                os.close(os.open(self.directory / self.name(i),
                                 os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
                with self.cond:
                    self.created += 1
                    self.cond.notify()
        except OSError as exc:
            self.error = exc
        finally:
            with self.cond:
                self.done = True
                self.cond.notify()

    def fill(self, name: str, data: bytes):
        """Fill the next file in creation order, which must be name."""
        i = self.filled
        assert name == self.name(i), f"{name} filled out of file order"
        with self.cond:
            self.cond.wait_for(lambda: self.created > i or self.done)
        if self.created <= i:
            raise self.error or IOError(
                f"{self.directory / name}: its creator ended before creating it")
        _atomic_write(self.directory, name, data)
        self.filled += 1

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stopped = True
        self.thread.join()
        for i in range(self.filled, self.created):
            (self.directory / self.name(i)).unlink(missing_ok=True)


def _read_file(path: Path, expect: int, what: str) -> bytes:
    """The whole of one slice or chunk file, which must hold expect bytes."""
    if not path.exists():
        raise IOError(f"{path}: missing {what} file, expected {expect} bytes")
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) != expect:
        raise IOError(f"{path}: expected {expect} bytes, got {len(data)}")
    return data


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

    def boxes(self, iz: Optional[int] = None, iy: Optional[int] = None,
              ix: Optional[int] = None):
        """Yield ((iz, iy, ix), (z, y, x) slices) for every chunk with the
        given indices, in file order: one x-y layer for iz, one column of
        the whole depth for ix or iy, one chunk for all three. An axis
        whose index is given counts from 0 at that chunk, the others from
        the volume's origin, so the slices address a buffer of
        layer_shape. Edge chunks may be partial, and the last box ends
        where the layer or column does."""
        axes = ((iz, self.gz, self.cz, self.meta.depth),
                (iy, self.gy, self.cy, self.meta.ny),
                (ix, self.gx, self.cx, self.meta.nx))
        for index in product(*(range(g) if i is None else (i,) for i, g, _, _ in axes)):
            box = []
            for j, (i, _, c, n) in zip(index, axes):
                lo = 0 if i is not None else j * c
                box.append(slice(lo, lo + min(c, n - j * c)))
            yield index, tuple(box)

    def chunk_shape(self, iz: int, iy: int, ix: int):
        """(dz, dy, dx) of a chunk, smaller on the far edges."""
        (_, box), = self.boxes(iz, iy, ix)
        return tuple(s.stop for s in box)

    def chunk_name(self, iz: int, iy: int, ix: int) -> str:
        return f"c_{iz:03d}_{iy:03d}_{ix:03d}.raw"

    def chunk_file(self, i: int) -> str:
        """Name of the i-th chunk file in file order: by z, then y, then x."""
        rest, ix = divmod(i, self.gx)
        iz, iy = divmod(rest, self.gy)
        return self.chunk_name(iz, iy, ix)

    def file_list(self):
        return [self.chunk_file(i) for i in range(self.chunk_count)]

    def layer_shape(self, axis: str = "z"):
        """(z, y, x) shape of a buffer for one layer of chunks across axis:
        cz whole x-y slices for z, or for x or y a slab one chunk thick
        through the whole volume, which holds one column of boxes. A
        chunk edge past the volume is cut to the volume's extent."""
        shape = {"z": self.meta.depth, "y": self.meta.ny, "x": self.meta.nx}
        shape[axis] = min(shape[axis], {"z": self.cz, "y": self.cy, "x": self.cx}[axis])
        return shape["z"], shape["y"], shape["x"]

    def layer_bytes(self, axis: str = "z") -> int:
        """Bytes of one buffer of layer_shape(axis)."""
        return math.prod(self.layer_shape(axis)) * self.meta.dtype.byte_width


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
    layout, files = lines[3].split(), lines[4:]
    try:  # a wrong field count, a non-number or an unknown dtype
        _, nx, ny, depth = lines[1].split()
        _, dtype = lines[2].split()
        meta = VolumeMeta(int(nx), int(ny), int(depth), dtype_by_kind(dtype))
        if layout[:2] == ["layout", "chunks"]:
            _, _, cx, cy, cz = layout
            grid = ChunkGrid(meta, int(cx), int(cy), int(cz))
    except (ValueError, PlanningError) as exc:
        raise PlanningError(f"{path}: malformed manifest: {exc}") from exc
    if layout[:2] == ["layout", "stack"]:
        return StackManifest(directory, files, meta)
    if layout[:2] == ["layout", "chunks"]:
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

def open_slice_stream(directory) -> Stream:
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
            size, expected = path.stat().st_size, meta.depth * nbytes
            if size != expected:
                raise IOError(f"{path}: expected {expected} bytes, got {size}")
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
            data = _read_file(man.directory / fname, nbytes, "slice")
            counters["opens"] += 1
            arr = np.frombuffer(data, dtype=smeta.dtype.np_dtype)
            yield ALLOC.new_slice(smeta, data=arr.reshape(meta.ny, meta.nx))

    s = Stream(gen(), meta=smeta, depth=meta.depth, name=f"read {directory}")
    s.counters = counters
    return s


def write_slices_steps(src: Stream, directory, meta: VolumeMeta,
                       multipage: bool = False):
    """Stepwise sink: one raw file per slice, created ahead of it by a
    _FileCreator, or with multipage one file of them all in z order,
    written in place; then a manifest.

    Yields after each written slice so several sinks can be driven in
    lockstep; returns the slice count. Slices are released as they are
    written; the .partial marker guards against truncated outputs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / PARTIAL_MARKER).touch()
    name = f"{{:0{_pad_width(meta.depth)}d}}.raw".format
    written = 0
    with (open(directory / STACK_FILE, "wb") if multipage
          else _FileCreator(directory, name, meta.depth)) as out:
        while (sl := src.pull()) is not None:
            try:
                if multipage:
                    out.write(sl.data.tobytes())
                else:
                    out.fill(name(written), sl.data.tobytes())
            finally:
                release(sl)
            written += 1
            yield written
    if written == 0:
        raise IOError(f"{directory}: refusing to write an empty volume")
    save_manifest(directory, VolumeMeta(meta.nx, meta.ny, written, meta.dtype)
                  if written != meta.depth else meta,
                  [STACK_FILE] if multipage else map(name, range(written)))
    (directory / PARTIAL_MARKER).unlink()
    return written


def _drain(steps):
    """Run a stepwise sink to its end; returns its result."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def write_slice_stack(src: Stream, directory, meta: VolumeMeta):
    """Drain a stream into a slice-stack directory; returns slices written."""
    return _drain(write_slices_steps(src, directory, meta))


# ---------------------------------------------------------------------------
# chunked backend
# ---------------------------------------------------------------------------

def read_chunk(directory, grid: ChunkGrid, iz: int, iy: int, ix: int) -> np.ndarray:
    """One chunk file as a (dz, dy, dx) array, checked to be whole."""
    shape = grid.chunk_shape(iz, iy, ix)
    data = _read_file(Path(directory) / grid.chunk_name(iz, iy, ix),
                      math.prod(shape) * grid.meta.dtype.byte_width, "chunk")
    return np.frombuffer(data, dtype=grid.meta.dtype.np_dtype).reshape(shape)


def read_block(directory, grid: ChunkGrid, out: np.ndarray, **index) -> np.ndarray:
    """Read every chunk of one layer (iz=) or column (iy= or ix=) of grid
    into out, a buffer of the matching layer_shape; returns the part of
    out they fill."""
    for (iz, iy, ix), box in grid.boxes(**index):
        out[box] = read_chunk(directory, grid, iz, iy, ix)
    return out[:box[0].stop, :box[1].stop, :box[2].stop]


def open_chunk_stream(directory) -> Stream:
    """Stream z-ordered slices assembled from chunk layers.

    Keeps one x-y chunk layer resident (the buffer charged to the stage's
    internal bytes) and yields copies of its slices; each chunk file is
    read exactly once per sweep.
    """
    grid = load_manifest(directory)
    if isinstance(grid, StackManifest):
        raise PlanningError(f"{directory} is a slice stack, not a chunk store")
    smeta = grid.meta.slice_meta
    counters = {"opens": 0}
    buf_bytes = grid.layer_bytes()

    def gen():
        ALLOC.register_internal(buf_bytes)
        try:
            layer = np.empty(grid.layer_shape(), dtype=smeta.dtype.np_dtype)
            for iz in range(grid.gz):
                block = read_block(directory, grid, layer, iz=iz)
                counters["opens"] += grid.gy * grid.gx
                for plane in block:
                    yield ALLOC.new_slice(smeta, data=plane.copy())
        finally:
            ALLOC.unregister_internal(buf_bytes)

    s = Stream(gen(), meta=smeta, depth=grid.meta.depth, name=f"readInChunks {directory}")
    s.counters = counters
    return s


def write_chunks_steps(src: Stream, directory, grid: ChunkGrid):
    """Stepwise sink into a chunk grid, buffering one x-y layer at a time; a
    short stream is stored at the depth it reached, and an empty one refused."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / PARTIAL_MARKER).touch()
    buf_bytes = grid.layer_bytes()
    ALLOC.register_internal(buf_bytes)
    written = 0
    try:
        with _FileCreator(directory, grid.chunk_file, grid.chunk_count) as files:
            layer = np.zeros(grid.layer_shape(), dtype=grid.meta.dtype.np_dtype)

            def flush():  # the layer of the last slice written, in file order
                for (iz, iy, ix), box in grid.boxes(iz=(written - 1) // grid.cz):
                    files.fill(grid.chunk_name(iz, iy, ix), layer[box].tobytes())

            while (sl := src.pull()) is not None:
                try:
                    layer[written % grid.cz] = sl.data
                finally:
                    release(sl)
                written += 1
                if written % grid.cz == 0:
                    flush()
                yield written
            if written == 0:
                raise IOError(f"{directory}: refusing to write an empty volume")
            # the grid of the depth written flushes the last layer and is listed
            grid = replace(grid, meta=replace(grid.meta, depth=written))
            if written % grid.cz:
                flush()
    finally:
        ALLOC.unregister_internal(buf_bytes)
    save_manifest(directory, grid.meta, grid.file_list(),
                  chunks=(grid.cx, grid.cy, grid.cz))
    (directory / PARTIAL_MARKER).unlink()
    return written


def write_chunk_store(src: Stream, directory, grid: ChunkGrid):
    """Drain a stream into a chunk store; returns slices written."""
    return _drain(write_chunks_steps(src, directory, grid))


# ---------------------------------------------------------------------------
# stage factories for the pipeline graph
# ---------------------------------------------------------------------------

def read_stage(directory, name: Optional[str] = None) -> PlanStage:
    """A read of a stack or a chunk store; the chunks of a store are kept
    in params, so that the chunk reader's layer is priced."""
    man = load_manifest(directory)
    params = {"dir": str(directory), "meta": man.meta}
    if isinstance(man, ChunkGrid):
        params["chunks"] = (man.cx, man.cy, man.cz)
    return PlanStage(name=name or "read", op_kind="read", params=params)


def read_chunks_stage(directory, name: Optional[str] = None) -> PlanStage:
    grid = load_manifest(directory)
    if isinstance(grid, StackManifest):
        raise PlanningError(f"{directory} is a slice stack; use read")
    return PlanStage(name=name or "readInChunks", op_kind="read_chunks",
                     params={"dir": str(directory), "meta": grid.meta,
                             "chunks": (grid.cx, grid.cy, grid.cz)})


def write_stage(directory, name: Optional[str] = None) -> PlanStage:
    return PlanStage(name=name or "write", op_kind="write", params={"dir": str(directory)})


def write_chunks_stage(directory, chunks=(16, 16, 16),
                       name: Optional[str] = None) -> PlanStage:
    """A write into a chunk store: the write kind, with its chunks in params."""
    return PlanStage(name=name or "writeInChunks", op_kind="write",
                     params={"dir": str(directory), "chunks": tuple(chunks)})


def initialize_stage(meta: VolumeMeta, kind: str = "zero", value=0, seed=0,
                     name: Optional[str] = None) -> PlanStage:
    return PlanStage(name=name or "initialize", op_kind="initialize",
                     params={"meta": meta, "kind": kind, "value": value,
                             "seed": seed})


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

    src = Stream(gen(), meta=smeta, depth=depth, name="memory")
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

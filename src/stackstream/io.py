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

Every layout is one ChunkGrid: a stack of one file per slice is a grid
of (nx, ny, 1) chunks and a multi-slice file one (nx, ny, depth) chunk,
both named by the manifest's files, and a chunk store a grid of its own
chunks, named by index. A chunk file is raw C-order (dz, dy, dx), so
plane z of it is one contiguous run of bytes, and the files of one x-y
layer of chunks together hold cz whole slices. One reader keeps the
files of the current layer open and reads plane z of each into a new
slice; one writer keeps the files of its layer open and appends each
slice's plane to each of them. Neither holds more than the one slice it
streams, and each opens a file once per sweep. So one read kind and one
write kind serve every layout; readInChunks is a read that refuses a
slice stack. Every open layer counts its files among those the process
holds, and raises the soft RLIMIT_NOFILE when they pass it.

A sink first makes its directory and a .partial marker. It then creates
its files empty, ahead of it and in the order it fills them, on one
thread of its own, and appends to each in place: nothing is renamed. The
marker is unlinked only after the manifest is written, so the volume,
not the file, is the unit that is complete or not, and an interrupted
run can never be mistaken for a complete volume. Nothing is fsynced, so
this holds against a process that dies, not against a power loss or an
OS crash.
"""

from __future__ import annotations

import math
import os
import resource
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from io import FileIO
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
# descriptors left for the rest of the process beside one layer's files
SPARE_FILES = 64


def _create(path: Path):
    """Create path empty, or empty it."""
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))


def _write_bytes(fh: FileIO, data: bytes):
    # single seam for fault-injection in tests
    view = memoryview(data)
    while view:
        view = view[fh.write(view):]


def _atomic_write(directory: Path, fh: FileIO, data: bytes):
    """Append one plane, or a whole manifest, to fh, a file its sink holds
    open in directory. Nothing is renamed: the volume's .partial marker,
    not a rename, is what makes the volume atomic."""
    _write_bytes(fh, data)


class _FileCreator:
    """A sink's files, created empty ahead of it on one thread of its own.

    Within `with`, the thread stage-create creates name(i) in directory
    for i in range(count), the order in which the sink first appends to
    them, and holds no list of them. wait waits on one condition, with no
    timeout, until the files the sink is about to fill exist; the sink
    counts in filled the files it has appended a whole plane to. Leaving
    `with` stops and joins the thread, then unlinks every other file it
    created. Creating a file costs far more than filling it, and this
    takes that cost off the pipeline's thread.
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
                _create(self.directory / self.name(i))
                with self.cond:
                    self.created += 1
                    self.cond.notify()
        except OSError as exc:
            self.error = exc
        finally:
            with self.cond:
                self.done = True
                self.cond.notify()

    def wait(self, stop: int):
        """Wait until the files before index stop exist."""
        with self.cond:
            self.cond.wait_for(lambda: self.created >= stop or self.done)
        if self.created < stop:
            raise self.error or IOError(f"{self.directory / self.name(self.created)}: "
                                        "its creator ended before creating it")

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stopped = True
        self.thread.join()
        for i in range(self.filled, self.created):
            (self.directory / self.name(i)).unlink(missing_ok=True)


def _check_size(path: Path, expect: int):
    """Fail unless the file at path holds expect bytes."""
    try:
        size = os.stat(path).st_size
    except FileNotFoundError:
        raise IOError(f"{path}: missing file, expected {expect} bytes") from None
    if size != expect:
        raise IOError(f"{path}: expected {expect} bytes, got {size}")


@dataclass
class ChunkGrid:
    """Geometry of a volume's chunk files; edge chunks may be partial.

    files is None for a chunk store, whose files are named by grid index,
    and otherwise a stack's file names in z order."""

    meta: VolumeMeta
    cx: int
    cy: int
    cz: int
    files: Optional[list] = None

    def __post_init__(self):
        if min(self.cx, self.cy, self.cz) < 1:
            raise PlanningError("chunk dims must be >= 1")

    @classmethod
    def stack(cls, meta: VolumeMeta, files) -> "ChunkGrid":
        """A stack as a grid of whole-slice chunks, one per file: a file
        per slice, or one file of them all."""
        if len(files) not in (meta.depth, 1):
            raise PlanningError(f"manifest lists {len(files)} files for depth {meta.depth}")
        if any(a >= b for a, b in zip(files, files[1:])):
            raise PlanningError("slice files must sort lexicographically in z order, "
                                "each listed once")
        return cls(meta, meta.nx, meta.ny, meta.depth if len(files) == 1 else 1, files)

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
        the volume's origin, so a column's slices address a buffer of
        layer_shape and a layer's y and x slices address one slice. Edge
        chunks may be partial, and the last box ends where the layer or
        column does."""
        axes = ((iz, self.gz, self.cz, self.meta.depth),
                (iy, self.gy, self.cy, self.meta.ny),
                (ix, self.gx, self.cx, self.meta.nx))
        for index in product(*(range(g) if i is None else (i,) for i, g, _, _ in axes)):
            box = []
            for j, (i, _, c, n) in zip(index, axes):
                lo = 0 if i is not None else j * c
                box.append(slice(lo, lo + min(c, n - j * c)))
            yield index, tuple(box)

    def chunk_name(self, iz: int, iy: int, ix: int) -> str:
        return f"c_{iz:03d}_{iy:03d}_{ix:03d}.raw"

    def chunk_file(self, i: int) -> str:
        """Name of the i-th file in file order: by z, then y, then x."""
        if self.files is not None:
            return self.files[i]
        rest, ix = divmod(i, self.gx)
        iz, iy = divmod(rest, self.gy)
        return self.chunk_name(iz, iy, ix)

    def file_list(self):
        return [self.chunk_file(i) for i in range(self.chunk_count)]

    def layer_shape(self, axis: str):
        """(z, y, x) shape of a buffer for one column of chunks along
        axis x or y: a slab one chunk thick through the whole volume. A
        chunk edge past the volume is cut to the volume's extent."""
        shape = {"z": self.meta.depth, "y": self.meta.ny, "x": self.meta.nx}
        shape[axis] = min(shape[axis], {"y": self.cy, "x": self.cx}[axis])
        return shape["z"], shape["y"], shape["x"]

    def layer_bytes(self, axis: str) -> int:
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
    with FileIO(Path(directory) / MANIFEST, "w") as fh:
        _atomic_write(Path(directory), fh, ("\n".join(lines) + "\n").encode())


def load_manifest(directory):
    """Parse manifest.txt into the ChunkGrid of any layout."""
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
        for name in files:  # a path would reach outside the volume
            if name in ("", ".", "..") or "/" in name or "\0" in name:
                raise PlanningError(f"{name!r} is not a plain file name")
        if layout[:2] == ["layout", "chunks"]:
            _, _, cx, cy, cz = layout
            grid = ChunkGrid(meta, int(cx), int(cy), int(cz))
    except (ValueError, PlanningError) as exc:
        raise PlanningError(f"{path}: malformed manifest: {exc}") from exc
    if layout[:2] == ["layout", "stack"]:
        return ChunkGrid.stack(meta, files)
    if layout[:2] == ["layout", "chunks"]:
        if files != grid.file_list():
            raise PlanningError(f"{path}: chunk file list does not match grid")
        return grid
    raise PlanningError(f"{path}: unknown layout {layout!r}")


def volume_meta(directory) -> VolumeMeta:
    return load_manifest(directory).meta


# ---------------------------------------------------------------------------
# the one reader and the one writer, over a grid of chunk files
# ---------------------------------------------------------------------------

_held = 0  # files that the open layers of every reader and writer hold
_held_lock = threading.Lock()


@contextmanager
def _holding(n: int):
    """Count n more files held open within `with`. Raise the process's
    soft RLIMIT_NOFILE toward the hard one if it is below them, the files
    every other open layer holds and SPARE_FILES for the rest."""
    global _held
    with _held_lock:
        need = _held + n + SPARE_FILES
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft != resource.RLIM_INFINITY and need > soft:
            if hard != resource.RLIM_INFINITY and need > hard:
                raise IOError(f"a layer of {n} files beside {_held} held open needs {need} "
                              f"open files, more than the hard RLIMIT_NOFILE of {hard}")
            resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))
        _held += n
    try:
        yield
    finally:
        with _held_lock:
            _held -= n


def open_slice_stream(directory) -> Stream:
    """Stream the slices of a stack or a chunk store in z order.

    The files of one x-y layer of chunks stay open while their planes are
    read: each new slice is read from plane z of each of them. Every file
    is opened exactly once per sweep, and its size is checked first.
    """
    grid = load_manifest(directory)
    smeta = grid.meta.slice_meta
    dtype, width = smeta.dtype.np_dtype, smeta.dtype.byte_width
    planes = []  # (y, x, shape, bytes) of each chunk's plane in a layer
    for _, (_, ys, xs) in grid.boxes(iz=0):
        shape = (ys.stop - ys.start, xs.stop - xs.start)
        planes.append((ys, xs, shape, math.prod(shape) * width))
    counters = {"opens": 0}

    def gen():
        for iz in range(grid.gz):
            dz = min(grid.cz, grid.meta.depth - iz * grid.cz)
            with ExitStack() as layer:
                layer.enter_context(_holding(len(planes)))
                files = []
                for k, (_, _, _, nbytes) in enumerate(planes):
                    path = os.path.join(directory, grid.chunk_file(iz * len(planes) + k))
                    _check_size(path, dz * nbytes)
                    files.append((path, layer.enter_context(open(path, "rb"))))
                    counters["opens"] += 1
                for _ in range(dz):
                    arr = np.empty((smeta.ny, smeta.nx), dtype=dtype)
                    for (path, fh), (ys, xs, shape, nbytes) in zip(files, planes):
                        data = fh.read(nbytes)
                        if len(data) != nbytes:
                            raise IOError(f"{path}: a plane of {nbytes} bytes ends "
                                          f"after {len(data)}")
                        arr[ys, xs] = np.frombuffer(data, dtype=dtype).reshape(shape)
                    yield ALLOC.new_slice(smeta, data=arr)

    s = Stream(gen(), meta=smeta, depth=grid.meta.depth, name=f"read {directory}")
    s.counters = counters
    return s


def write_chunks_steps(src: Stream, directory, grid: ChunkGrid):
    """Stepwise sink into the files of grid, a chunk store or a stack:
    each slice's plane of every chunk of its x-y layer is appended to that
    chunk's file, grid.chunk_file(i) for the i-th in file order, created
    ahead of it by a _FileCreator; then a manifest, with the chunks'
    layout line for a chunk store. The files of the current layer stay
    open until its last plane is written, so each is opened once.

    Yields after each written slice so several sinks can be driven in
    lockstep; returns the slice count. Slices are released as they are
    written. A short stream is stored at the depth it reached, and an
    empty one refused; the .partial marker guards against truncated
    outputs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / PARTIAL_MARKER).touch()
    planes = [box[1:] for _, box in grid.boxes(iz=0)]
    written = 0
    # the layer's files close before the creator unlinks unfilled ones
    with _FileCreator(directory, grid.chunk_file, grid.chunk_count) as files, \
            ExitStack() as sink:
        while (sl := src.pull()) is not None:
            try:
                if written % grid.cz == 0:  # the first plane of a layer
                    sink.close()
                    stop = (written // grid.cz + 1) * len(planes)
                    files.wait(stop)
                    sink.enter_context(_holding(len(planes)))
                    held = [sink.enter_context(FileIO(directory / grid.chunk_file(i), "a"))
                            for i in range(stop - len(planes), stop)]
                for fh, (ys, xs) in zip(held, planes):
                    _atomic_write(directory, fh, sl.data[ys, xs].tobytes())
            finally:
                release(sl)
            files.filled = stop
            written += 1
            yield written
        listed = files.filled
    if written == 0:
        raise IOError(f"{directory}: refusing to write an empty volume")
    meta = replace(grid.meta, depth=written)
    save_manifest(directory, meta, map(grid.chunk_file, range(listed)),
                  chunks=(grid.cx, grid.cy, grid.cz) if grid.files is None else None)
    (directory / PARTIAL_MARKER).unlink()
    return written


def write_slices_steps(src: Stream, directory, meta: VolumeMeta,
                       multipage: bool = False):
    """Stepwise sink into a stack: one raw file per slice, or with
    multipage one file of them all in z order."""
    width = max(3, len(str(meta.depth - 1)))
    files = [STACK_FILE] if multipage else [f"{z:0{width}d}.raw" for z in range(meta.depth)]
    return write_chunks_steps(src, directory, ChunkGrid.stack(meta, files))


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


def write_chunk_store(src: Stream, directory, grid: ChunkGrid):
    """Drain a stream into a chunk store; returns slices written."""
    return _drain(write_chunks_steps(src, directory, grid))


def read_column(directory, grid: ChunkGrid, out: np.ndarray, axis: str, k: int) -> np.ndarray:
    """Read the k-th column of chunks along axis x or y of grid into out,
    a buffer of layer_shape(axis); returns the part of out they fill."""
    for index, box in grid.boxes(**{"i" + axis: k}):
        chunk, path = out[box], Path(directory) / grid.chunk_name(*index)
        _check_size(path, chunk.nbytes)
        with open(path, "rb") as fh:
            chunk[...] = np.frombuffer(fh.read(chunk.nbytes), out.dtype).reshape(chunk.shape)
    return out[:box[0].stop, :box[1].stop, :box[2].stop]


# ---------------------------------------------------------------------------
# stage factories for the pipeline graph
# ---------------------------------------------------------------------------

def read_stage(directory, name: Optional[str] = None) -> PlanStage:
    """A read of a stack or a chunk store."""
    return PlanStage(name=name or "read", op_kind="read",
                     params={"dir": str(directory), "meta": volume_meta(directory)})


def read_chunks_stage(directory, name: Optional[str] = None) -> PlanStage:
    """A read of a chunk store: the read kind, with its chunks in params."""
    grid = load_manifest(directory)
    if grid.files is not None:
        raise PlanningError(f"{directory} is a slice stack; use read")
    return PlanStage(name=name or "readInChunks", op_kind="read",
                     params={"dir": str(directory), "meta": grid.meta,
                             "chunks": (grid.cx, grid.cy, grid.cz)})


def write_stage(directory, name: Optional[str] = None) -> PlanStage:
    return PlanStage(name=name or "write", op_kind="write", params={"dir": str(directory)})


def write_chunks_stage(directory, chunks=(16, 16, 16),
                       name: Optional[str] = None) -> PlanStage:
    """A write into a chunk store: the write kind, with its chunks in params."""
    return PlanStage(name=name or "writeInChunks", op_kind="write",
                     params={"dir": str(directory), "chunks": tuple(chunks)})


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
        return (vals % (meta.dtype.max_value + 1)).astype(dt)
    if kind == "impulse":
        arr = np.zeros((meta.ny, meta.nx), dtype=dt)
        if z == meta.depth // 2:
            arr[meta.ny // 2, meta.nx // 2] = meta.dtype.max_value
        return arr
    if kind == "random":
        if meta.dtype.kind == "f32":
            return rng.random((meta.ny, meta.nx), dtype=np.float32)
        return rng.integers(0, meta.dtype.max_value + 1, size=(meta.ny, meta.nx),
                            dtype=dt)
    raise PlanningError(f"unknown synthetic kind {kind!r}")


def synth_volume(meta: VolumeMeta, kind: str, value=0, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([synth_slice_array(meta, z, kind, value, rng)
                     for z in range(meta.depth)])


def write_planes(directory, planes, meta: VolumeMeta, chunks=None):
    """Write the (ny, nx) arrays of meta's slices, in z order, as a stack
    or a chunk store; returns slices written. Each array becomes a slice
    as the writer pulls it, so planes may be made one at a time."""
    smeta = meta.slice_meta
    src = Stream((ALLOC.new_slice(smeta, data=plane) for plane in planes),
                 meta=smeta, depth=meta.depth, name="memory")
    if chunks is None:
        return write_slice_stack(src, directory, meta)
    return write_chunk_store(src, directory, ChunkGrid(meta, *chunks))


def write_volume(directory, vol: np.ndarray, dtype, chunks=None):
    """Write an in-memory (z, y, x) array as a stack or chunk store."""
    dtype = dtype_by_kind(dtype) if isinstance(dtype, str) else dtype
    meta = VolumeMeta(vol.shape[2], vol.shape[1], vol.shape[0], dtype)
    write_planes(directory, vol, meta, chunks)
    return meta


def read_volume(directory) -> np.ndarray:
    """Load a whole stack or chunk store into one (z, y, x) array."""
    src = open_slice_stream(Path(directory))
    planes = []
    while (sl := src.pull()) is not None:
        planes.append(sl.data.copy())
        release(sl)
    return np.stack(planes)

"""Shared domain types for the slice-streaming engine.

A 3D volume is an ordered stack of 2D slices. Everything downstream
(streams, operators, planner, I/O backends) talks in terms of the types
defined here: slice geometry, reference-counted slice buffers, memory
estimates against a byte budget, and stage descriptors arranged in a
pipeline graph.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MIB = 1024 * 1024


class EngineError(Exception):
    """Base class for engine failures."""


class PlanningError(EngineError):
    """Raised before any voxel is read: bad graphs, parameters or manifests."""


class RefcountError(EngineError):
    """Fatal reference-count invariant violation."""


class DepthMismatchError(EngineError):
    """Two zipped streams ended at different depths."""


class StageError(EngineError):
    """A stage failed mid-sweep; carries stage name and slice index."""

    def __init__(self, stage: str, index: int, cause: BaseException):
        super().__init__(f"stage {stage!r} failed at slice {index}: {cause}")
        self.stage = stage
        self.index = index
        self.cause = cause


# ---------------------------------------------------------------------------
# voxel types and volume geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dtype:
    """Voxel type; byte_width is the per-voxel size b used by every formula.

    min_value and max_value, looked up once, are the voxel range: an
    integer type's limits, which a cast clips to, and 0 to 1.0 for f32,
    1.0 being the value a threshold sets.
    """

    kind: str
    byte_width: int
    np_dtype: np.dtype
    min_value: float = field(init=False, repr=False, compare=False)
    max_value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.byte_width != self.np_dtype.itemsize:
            raise PlanningError(f"dtype {self.kind}: byte width mismatch")
        info = np.iinfo(self.np_dtype) if self.np_dtype.kind in "iu" else None
        object.__setattr__(self, "min_value", info.min if info else 0.0)
        object.__setattr__(self, "max_value", info.max if info else 1.0)

    def holds(self, value: float) -> bool:
        """Whether a voxel stores value as it is, not wrapped: within an
        integer type's limits, or any f32 value but a finite one past its
        largest."""
        if self.np_dtype.kind == "f":
            return not np.isfinite(value) or abs(value) <= float(np.finfo(self.np_dtype).max)
        return self.min_value <= value <= self.max_value  # false for nan

    def __str__(self):
        return self.kind


# on-disk layout is always little-endian (one canonical layout keeps
# round trips bit-exact)
U8 = Dtype("u8", 1, np.dtype("<u1"))
U16 = Dtype("u16", 2, np.dtype("<u2"))
F32 = Dtype("f32", 4, np.dtype("<f4"))
DTYPES = {d.kind: d for d in (U8, U16, F32)}


def dtype_by_kind(kind: str) -> Dtype:
    try:
        return DTYPES[kind]
    except KeyError:
        raise PlanningError(f"unknown dtype {kind!r} (expected one of {sorted(DTYPES)})")


@dataclass(frozen=True)
class SliceMeta:
    """Geometry of one x-y plane."""

    nx: int
    ny: int
    dtype: Dtype

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise PlanningError("slice dimensions must be >= 1")

    @property
    def nbytes(self) -> int:
        return self.nx * self.ny * self.dtype.byte_width


@dataclass(frozen=True)
class VolumeMeta:
    """A stack of `depth` slices of nx * ny voxels."""

    nx: int
    ny: int
    depth: int
    dtype: Dtype

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.depth < 1:
            raise PlanningError("volume dimensions must be >= 1")

    @property
    def slice_meta(self) -> SliceMeta:
        return SliceMeta(self.nx, self.ny, self.dtype)

    @property
    def voxels(self) -> int:
        return self.nx * self.ny * self.depth

    def __str__(self):
        return f"{self.nx}x{self.ny}x{self.depth} {self.dtype}"


def slice_bytes(meta) -> int:
    """Bytes of one slice buffer: nx * ny * byte_width.

    Accepts VolumeMeta or SliceMeta.
    """
    return meta.nx * meta.ny * meta.dtype.byte_width


# ---------------------------------------------------------------------------
# reference-counted slices and the instrumented allocator
# ---------------------------------------------------------------------------

class Slice:
    """One 2D plane with an explicit reference count.

    Created only through a SliceAllocator. `data` is a C-contiguous
    (ny, nx) array; it is dropped the moment the refcount reaches zero.
    """

    __slots__ = ("meta", "data", "refcount", "_alloc")

    def __init__(self, meta: SliceMeta, data: np.ndarray, alloc: "SliceAllocator"):
        self.meta = meta
        self.data = data
        self.refcount = 1
        self._alloc = alloc

    def __repr__(self):
        state = "freed" if self.data is None else f"rc={self.refcount}"
        return f"<Slice {self.meta.nx}x{self.meta.ny} {self.meta.dtype} {state}>"


class SliceAllocator:
    """Allocates slice buffers and tracks live/peak usage.

    Refcount updates go through the allocator so they are atomic across
    stage threads, and so tests can assert leak freedom and peak bytes.
    Large persistent stage state (histogram bins, a permute's slab) is
    registered via internal() so it counts toward the measured peak.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.live_slices = 0
        self.live_bytes = 0
        self.live_refs = 0
        self.internal_bytes = 0
        self.peak_bytes = 0
        self.peak_slices = 0

    def _bump_peak_locked(self):
        total = self.live_bytes + self.internal_bytes
        if total > self.peak_bytes:
            self.peak_bytes = total
        if self.live_slices > self.peak_slices:
            self.peak_slices = self.live_slices

    def new_slice(self, meta: SliceMeta, data: Optional[np.ndarray] = None,
                  fill=None) -> Slice:
        if data is None:
            arr = np.zeros((meta.ny, meta.nx), dtype=meta.dtype.np_dtype)
            if fill is not None:
                arr[...] = fill
        else:
            arr = np.ascontiguousarray(data, dtype=meta.dtype.np_dtype)
            if arr.shape != (meta.ny, meta.nx):
                raise PlanningError(
                    f"slice data shape {arr.shape} != {(meta.ny, meta.nx)}")
        s = Slice(meta, arr, self)
        with self._lock:
            self.live_slices += 1
            self.live_bytes += meta.nbytes
            self.live_refs += 1
            self._bump_peak_locked()
        return s

    def retain(self, s: Slice):
        with self._lock:
            if s.data is None or s.refcount < 1:
                raise RefcountError("retain on a released slice")
            s.refcount += 1
            self.live_refs += 1

    def release(self, s: Slice):
        with self._lock:
            if s.refcount < 1:
                raise RefcountError("release below zero")
            s.refcount -= 1
            self.live_refs -= 1
            if s.refcount == 0:
                s.data = None  # freed immediately, no deferred collection
                self.live_slices -= 1
                self.live_bytes -= s.meta.nbytes

    def register_internal(self, nbytes: int):
        with self._lock:
            self.internal_bytes += nbytes
            self._bump_peak_locked()

    def unregister_internal(self, nbytes: int):
        with self._lock:
            self.internal_bytes -= nbytes

    def reset_peaks(self):
        with self._lock:
            self.peak_bytes = self.live_bytes + self.internal_bytes
            self.peak_slices = self.live_slices


#: process-wide default allocator; tests may swap in fresh instances
ALLOC = SliceAllocator()


def retain(s: Slice):
    s._alloc.retain(s)


def release(s: Slice):
    s._alloc.release(s)


# ---------------------------------------------------------------------------
# budgets and memory estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Budget:
    """Byte cap plus the fixed per-stage allowance for constant-size state."""

    cap: int
    overhead_epsilon: int = MIB

    def __post_init__(self):
        if self.cap <= 0:
            raise PlanningError("budget cap must be positive")
        if self.overhead_epsilon < 0:
            raise PlanningError("overhead epsilon must be >= 0")


@dataclass(frozen=True)
class MemEstimate:
    """Stage storage split into input, output and internal bytes."""

    input_bytes: int
    output_bytes: int
    internal_bytes: int = 0

    def __post_init__(self):
        if min(self.input_bytes, self.output_bytes, self.internal_bytes) < 0:
            raise PlanningError("memory estimate components must be >= 0")

    def total(self) -> int:
        return self.input_bytes + self.output_bytes + self.internal_bytes


# ---------------------------------------------------------------------------
# streaming classification of algorithms
# ---------------------------------------------------------------------------

CLASS_KINDS = (
    "single-pixel",
    "local-neighbourhood",
    "geometric",
    "global-neighbourhood",
    "global-reduction",
    "iterative",
)


@dataclass(frozen=True)
class AlgorithmClass:
    """How an algorithm streams: slices resident per step and sweeps needed.

    z_window is a slice count or "k" for kernel-dependent windows; sweeps
    is a count or one of "1-2", "<=1", ">1", "many".
    """

    kind: str
    z_window: "int | str"
    sweeps: "int | str"

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise PlanningError(f"unknown algorithm class {self.kind!r}")
        if self.kind == "single-pixel" and not (self.z_window == 1 and self.sweeps == 1):
            raise PlanningError("single-pixel algorithms have z_window=1 and sweeps=1")


SINGLE_PIXEL = AlgorithmClass("single-pixel", 1, 1)
LOCAL_NEIGHBOURHOOD = AlgorithmClass("local-neighbourhood", "k", 1)
GEOMETRIC = AlgorithmClass("geometric", 1, "1-2")
GLOBAL_NEIGHBOURHOOD = AlgorithmClass("global-neighbourhood", "k", ">1")
GLOBAL_REDUCTION = AlgorithmClass("global-reduction", 1, "<=1")
ITERATIVE = AlgorithmClass("iterative", "k", "many")


# ---------------------------------------------------------------------------
# pipeline stages and graphs
# ---------------------------------------------------------------------------

@dataclass
class PlanStage:
    """Descriptor of one pipeline stage: only what is set per stage.

    w/s are the slice window and stride. k_z is the kernel depth for
    windowed kernel stages, and the least window of any stage. `params`
    carries operator-specific settings (kernels, thresholds, directories).
    All that holds for every stage of a kind is in its `ops.OPS` record.
    """

    name: str
    op_kind: str
    w: int = 1
    s: int = 1
    k_z: int = 1
    params: dict = field(default_factory=dict)

    def validate(self):
        if self.w < 1 or self.s < 1:
            raise PlanningError(f"stage {self.name!r}: need w >= 1, s >= 1")
        # a window smaller than the kernel depth is a planning error,
        # never a silent clamp
        if self.w < self.k_z:
            raise PlanningError(
                f"stage {self.name!r}: window w={self.w} below kernel depth k_z={self.k_z}")


@dataclass(frozen=True)
class SharedWindowGroup:
    """Branch stages rewritten to read one shared sliding window."""

    members: tuple
    w: int


@dataclass
class PipelineGraph:
    """DAG of stages with tee and zip edges.

    Exactly one source; every node reachable from it and reaching a sink.
    Only tee nodes fan out (>= 2 out-edges); zip nodes join exactly two.

    Construction indexes each stage's predecessors and successors once and
    freezes `edges` as a tuple, so the index cannot go stale. The
    topological order and the structure check run once, on first use, and
    are kept; validate() repeats only each stage's own window checks, as
    planning changes windows, never edges.
    """

    nodes: list
    edges: tuple
    shared_windows: list = field(default_factory=list)

    def __post_init__(self):
        self.edges = tuple(self.edges)
        self._by_name = {}
        for st in self.nodes:
            if st.name in self._by_name:
                raise PlanningError(f"duplicate stage name {st.name!r}")
            self._by_name[st.name] = st
        preds = {st.name: [] for st in self.nodes}
        succs = {st.name: [] for st in self.nodes}
        # an edge naming an unknown stage stays out of the index; the
        # structure check rejects it
        for a, b in self.edges:
            if a in succs and b in preds:
                succs[a].append(b)
                preds[b].append(a)
        self._preds = {n: tuple(p) for n, p in preds.items()}
        self._succs = {n: tuple(s) for n, s in succs.items()}
        self._order = None  # stages in topological order; False on a cycle
        self._fault = None  # what the structure check found; "" when sound

    def node(self, name: str) -> PlanStage:
        return self._by_name[name]

    def predecessors(self, name: str):
        return self._preds[name]

    def successors(self, name: str):
        return self._succs[name]

    def _sources(self):
        return [st for st in self.nodes if not self._preds[st.name]]

    def source(self) -> PlanStage:
        srcs = self._sources()
        if len(srcs) != 1:
            raise PlanningError(f"pipeline must have exactly one source, found {len(srcs)}")
        return srcs[0]

    def branch_groups(self):
        """Stage-name sets fed by one tee, in graph order."""
        return [list(self._succs[st.name]) for st in self.nodes
                if len(self._succs[st.name]) >= 2]

    def topo_order(self):
        if self._order is None:
            indeg = {n: len(p) for n, p in self._preds.items()}
            order = [st.name for st in self._sources()]
            for n in order:  # the list grows as stages become ready
                for m in self._succs[n]:
                    indeg[m] -= 1
                    if indeg[m] == 0:
                        order.append(m)
            self._order = (len(order) == len(self.nodes) and
                           [self._by_name[n] for n in order])
        if self._order is False:
            raise PlanningError("pipeline graph has a cycle")
        return list(self._order)

    def _check_structure(self):
        for a, b in self.edges:
            if a not in self._by_name or b not in self._by_name:
                raise PlanningError(f"edge ({a!r}, {b!r}) references unknown stage")
        self.topo_order()  # raises on cycles
        src = self.source()
        # reachability from the source
        seen = {src.name}
        frontier = [src.name]
        while frontier:
            for m in self._succs[frontier.pop()]:
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        dangling = [st.name for st in self.nodes if st.name not in seen]
        if dangling:
            raise PlanningError(f"stages unreachable from source: {dangling}")
        for st in self.nodes:
            n_in = len(self._preds[st.name])
            if st.op_kind == "zip_add" and n_in != 2:
                raise PlanningError(f"zip stage {st.name!r} needs exactly 2 inputs, has {n_in}")
            if st.op_kind != "zip_add" and n_in > 1:
                raise PlanningError(f"stage {st.name!r} cannot take {n_in} inputs")
            n_out = len(self._succs[st.name])
            if st.op_kind == "tee" and n_out < 2:
                raise PlanningError(f"tee stage {st.name!r} needs >= 2 branches")
            if st.op_kind != "tee" and n_out > 1:
                raise PlanningError(f"stage {st.name!r} cannot feed {n_out} stages; "
                                    "only a tee fans out")

    def validate(self):
        for st in self.nodes:
            st.validate()
        if self._fault is None:
            try:
                self._check_structure()
                self._fault = ""
            except PlanningError as exc:
                self._fault = str(exc)
        if self._fault:
            raise PlanningError(self._fault)
        return self

    def is_linear(self) -> bool:
        return all(len(self._succs[st.name]) <= 1 and len(self._preds[st.name]) <= 1
                   for st in self.nodes)

    def linear_order(self):
        if not self.is_linear():
            raise PlanningError("pipeline graph is not a linear chain")
        return self.topo_order()


def chain(*stages) -> PipelineGraph:
    """Linear pipeline from an ordered stage list."""
    stages = list(stages)
    edges = [(a.name, b.name) for a, b in zip(stages, stages[1:])]
    return PipelineGraph(stages, edges)


def tee_graph(pre, branches, join=None, post=()) -> PipelineGraph:
    """Pipeline that fans out after `pre` into linear `branches`.

    With `join`, branch tails feed the join stage followed by `post`;
    without it each branch must end in its own sink.
    """
    nodes = list(pre)
    edges = [(a.name, b.name) for a, b in zip(pre, pre[1:])]
    tee_name = pre[-1].name
    for br in branches:
        nodes.extend(br)
        edges.append((tee_name, br[0].name))
        edges.extend((a.name, b.name) for a, b in zip(br, br[1:]))
    if join is not None:
        nodes.append(join)
        for br in branches:
            edges.append((br[-1].name, join.name))
        prev = join
        for st in post:
            nodes.append(st)
            edges.append((prev.name, st.name))
            prev = st
    return PipelineGraph(nodes, edges)

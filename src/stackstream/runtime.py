"""Executes planned pipelines as pull-driven streams.

Stage descriptors become stream transformers here. The single-threaded
mode composes generators directly and is the determinism reference; with
threads > 1 every stage gets its own worker connected through bounded
handoff queues, and outputs are bit-identical to the reference mode.
Whatever happens, all in-flight slices are released before control
returns: success, planning abort or mid-sweep failure.
"""

from __future__ import annotations

import queue
import shutil
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import io as sio
from . import ops, stream as st
from .core import (ALLOC, Budget, Dtype, EngineError, PipelineGraph,
                   PlanStage, PlanningError, StageError, VolumeMeta, release)
from .planner import Plan, plan as make_plan, propagate_meta
from .stream import Stream, release_element, retain_element


class _Cancelled(Exception):
    pass


def _cast_array(arr: np.ndarray, dtype: Dtype) -> np.ndarray:
    if arr.dtype == dtype.np_dtype:
        return arr
    if dtype.kind == "f32":
        return arr.astype(dtype.np_dtype)
    info = np.iinfo(dtype.np_dtype)
    out = np.rint(arr)
    return np.clip(out, info.min, info.max, out=out).astype(dtype.np_dtype)


@dataclass
class RunContext:
    tmpdir: Path
    threads: int = 1
    seed: int = 0
    results: dict = field(default_factory=dict)
    sources: list = field(default_factory=list)     # (name, stream)
    sink_counts: dict = field(default_factory=dict)
    stage_sweeps: dict = field(default_factory=dict)
    streams: list = field(default_factory=list)     # everything closable
    cancel: threading.Event = field(default_factory=threading.Event)
    _tmp_serial: int = 0

    def track(self, s):
        self.streams.append(s)
        return s

    def new_tmp(self, label: str) -> Path:
        self._tmp_serial += 1
        p = Path(self.tmpdir) / f"{label}_{self._tmp_serial}"
        return p

    def close_all(self):
        self.cancel.set()
        for s in reversed(self.streams):
            try:
                s.close()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# stage stream builders
# ---------------------------------------------------------------------------

def _initialize_stream(stage: PlanStage, ctx: RunContext) -> Stream:
    meta = stage.params["meta"]
    rng = np.random.default_rng(stage.params.get("seed", ctx.seed))
    smeta = meta.slice_meta
    gen_kind = stage.params.get("kind", "constant")
    value = stage.params.get("value", 0)
    if gen_kind == "zero":
        gen_kind, value = "constant", 0

    def g(i):
        arr = sio.synth_slice_array(meta, i, gen_kind, value, rng)
        return ALLOC.new_slice(smeta, data=arr)

    return st.initialize(meta.depth, g, smeta)


def _kernel_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                   out_v: VolumeMeta) -> Stream:
    w = min(stage.w, in_meta.depth)
    kz = stage.k_z
    s_stride = w - kz + 1
    fn = partial(ops.record(stage).window, stage)
    out_smeta = out_v.slice_meta
    wp = st.windowed_positions(w, s_stride, src, tail="full")

    def gen():
        next_out = 0
        pending = deque()
        win = None
        try:
            while True:
                item = wp.pull()
                if item is None:
                    return
                t, win = item
                lo = max(t, next_out) - t
                hi = w - kz
                if hi >= lo:
                    arrays = fn(win, lo, hi)
                    next_out = t + hi + 1
                    for a in arrays:
                        pending.append(ALLOC.new_slice(out_smeta,
                                                       data=_cast_array(a, out_v.dtype)))
                for sl in win:
                    release(sl)
                win = None
                while pending:
                    yield pending.popleft()
        finally:
            if win is not None:
                for sl in win:
                    release(sl)
            while pending:
                release(pending.popleft())

    return Stream(gen(), meta=out_smeta, depth=out_v.depth, upstream=(wp,),
                  name=stage.name)


def _pointwise_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                      out_v: VolumeMeta) -> Stream:
    w = min(stage.w, in_meta.depth)
    fn = stage.params["fn"]
    out_smeta = out_v.slice_meta
    wp = st.windowed_positions(w, w, src, tail="partial")

    def gen():
        pending = deque()
        index = 0
        try:
            while True:
                item = wp.pull()
                if item is None:
                    return
                _, win = item
                for sl in win:
                    try:
                        arr = fn(sl.data, out_v.dtype)
                    except Exception as exc:
                        for s2 in win:
                            release(s2)
                        raise StageError(stage.name, index, exc) from exc
                    pending.append(ALLOC.new_slice(out_smeta,
                                                   data=_cast_array(arr, out_v.dtype)))
                    index += 1
                for sl in win:
                    release(sl)
                while pending:
                    yield pending.popleft()
        finally:
            while pending:
                release(pending.popleft())

    return Stream(gen(), meta=out_smeta, depth=out_v.depth, upstream=(wp,),
                  name=stage.name)


def _crop_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                 out_v: VolumeMeta) -> Stream:
    x0, y0, z0, x1, y1, z1 = stage.params["box"]
    out_smeta = out_v.slice_meta

    def gen():
        z = 0
        while True:
            sl = src.pull()
            if sl is None:
                return
            if z < z0:
                release(sl)
                z += 1
                continue
            if z >= z1:
                release(sl)
                return
            arr = sl.data[y0:y1, x0:x1].copy()
            release(sl)
            z += 1
            yield ALLOC.new_slice(out_smeta, data=arr)

    return Stream(gen(), meta=out_smeta, depth=out_v.depth, upstream=(src,),
                  name=stage.name)


def _pad_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                out_v: VolumeMeta) -> Stream:
    xlo, xhi, ylo, yhi, zlo, zhi = stage.params["amounts"]
    mode = stage.params["mode"]
    out_smeta = out_v.slice_meta
    np_mode = "edge" if mode == "clamp" else "constant"

    def pad_xy(sl):
        if not (xlo or xhi or ylo or yhi):
            return sl
        arr = np.pad(sl.data, ((ylo, yhi), (xlo, xhi)), mode=np_mode)
        release(sl)
        return ALLOC.new_slice(out_smeta, data=arr)

    def z_edge(cur, count):
        # count copies of the z edge: cur itself (clamp) or one zero slice
        if not count:
            return
        edge = cur if mode == "clamp" else ALLOC.new_slice(out_smeta)
        try:
            for _ in range(count):
                st.retain(edge)
                yield edge
        finally:
            if edge is not cur:
                release(edge)

    def gen():
        cur = None
        try:
            first = src.pull()
            if first is None:
                return
            cur = pad_xy(first)
            yield from z_edge(cur, zlo)
            while True:
                st.retain(cur)
                yield cur
                nxt = src.pull()
                if nxt is None:
                    break
                release(cur)
                cur = None
                cur = pad_xy(nxt)
            yield from z_edge(cur, zhi)
        finally:
            if cur is not None:
                release(cur)

    return Stream(gen(), meta=out_smeta, depth=out_v.depth, upstream=(src,),
                  name=stage.name)


def _permute_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                    out_v: VolumeMeta, ctx: RunContext) -> Stream:
    order = stage.params["order"]
    out_smeta = out_v.slice_meta
    if order == "xyz":
        ctx.stage_sweeps[stage.name] = 1
        return src
    if order[2] == "z":  # in-plane swap, one sweep
        ctx.stage_sweeps[stage.name] = 1

        def xy_gen():
            while True:
                sl = src.pull()
                if sl is None:
                    return
                arr = np.ascontiguousarray(sl.data.T)
                release(sl)
                yield ALLOC.new_slice(out_smeta, data=arr)

        return Stream(xy_gen(), meta=out_smeta, depth=out_v.depth,
                      upstream=(src,), name=stage.name)

    # z moves: two passes through an on-disk chunked intermediate
    ctx.stage_sweeps[stage.name] = 2
    cx, cy, cz = ops.permute_chunk_dims(stage, in_meta)
    tmp = ctx.new_tmp(stage.name)
    axis = order[2]
    grid = sio.ChunkGrid(in_meta, cx, cy, cz)

    def z_gen():
        try:
            sio.write_chunk_store(src, tmp, grid)
        except OSError as exc:
            need = in_meta.voxels * in_meta.dtype.byte_width
            raise IOError(f"stage {stage.name!r}: temp chunk store {tmp} failed "
                          f"(need {need} bytes free): {exc}") from exc
        try:
            c_a = {"x": cx, "y": cy}[axis]
            n_a = {"x": in_meta.nx, "y": in_meta.ny}[axis]
            g_a = -(-n_a // c_a)
            slab_shape = ((in_meta.depth, in_meta.ny, c_a) if axis == "x"
                          else (in_meta.depth, c_a, in_meta.nx))
            slab_bytes = int(np.prod(slab_shape)) * in_meta.dtype.byte_width
            ALLOC.register_internal(2 * slab_bytes)
            try:
                slabs = [np.zeros(slab_shape, dtype=in_meta.dtype.np_dtype)
                         for _ in range(2)]
                plane_axes = {"x": {"z": 0, "y": 1}, "y": {"z": 0, "x": 1}}[axis]
                t0, t1 = plane_axes[order[1]], plane_axes[order[0]]
                for ka in range(g_a):
                    slab = slabs[ka % 2]
                    d_a = min(c_a, n_a - ka * c_a)
                    for iz in range(grid.gz):
                        for iy in range(grid.gy):
                            for ix in range(grid.gx):
                                if (axis == "x" and ix != ka) or (axis == "y" and iy != ka):
                                    continue
                                dz, dy, dx = grid.chunk_shape(iz, iy, ix)
                                path = Path(tmp) / grid.chunk_name(iz, iy, ix)
                                block = np.fromfile(path, dtype=in_meta.dtype.np_dtype)
                                block = block.reshape(dz, dy, dx)
                                if axis == "x":
                                    slab[iz * cz:iz * cz + dz,
                                         iy * cy:iy * cy + dy, :dx] = block
                                else:
                                    slab[iz * cz:iz * cz + dz, :dy,
                                         ix * cx:ix * cx + dx] = block
                    for kk in range(d_a):
                        plane = slab[:, :, kk] if axis == "x" else slab[:, kk, :]
                        arr = np.ascontiguousarray(np.transpose(plane, (t0, t1)))
                        yield ALLOC.new_slice(out_smeta, data=arr)
            finally:
                ALLOC.unregister_internal(2 * slab_bytes)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    return Stream(z_gen(), meta=out_smeta, depth=out_v.depth, upstream=(src,),
                  name=stage.name)


def _zip_add_stream(stage: PlanStage, a: Stream, b: Stream,
                    out_v: VolumeMeta) -> Stream:
    out_smeta = out_v.slice_meta
    zipped = st.zip(a, b)

    def add_pair(pair):
        sa, sb = pair
        arr = ops.saturating_add(sa.data, sb.data, out_v.dtype)
        return ALLOC.new_slice(out_smeta, data=arr)

    return st.map(add_pair, zipped, name=stage.name, meta=out_smeta)


# ---------------------------------------------------------------------------
# tee and shared-window branch groups
# ---------------------------------------------------------------------------

def _port(owner, consumer, meta, depth, name: str) -> Stream:
    """The stream of what owner.pull_for(consumer) hands out."""
    def gen():
        while True:
            e = owner.pull_for(consumer)
            if e is None:
                return
            yield e

    return Stream(gen(), meta=meta, depth=depth, upstream=(owner,), name=name)


class _TeeSplitter:
    """Fans one stream out by reference; per-branch FIFOs keep alignment."""

    def __init__(self, src: Stream, consumers):
        self.src = src
        self.queues = {c: deque() for c in consumers}
        self.lock = threading.Lock()
        self.closed = False

    def pull_for(self, consumer):
        with self.lock:
            q = self.queues[consumer]
            if q:
                return q.popleft()
            e = self.src.pull()
            if e is None:
                return None
            for other, oq in self.queues.items():
                if other != consumer:
                    retain_element(e)
                    oq.append(e)
            return e

    def port(self, consumer) -> Stream:
        return _port(self, consumer, self.src.meta, self.src.depth,
                     f"tee->{consumer}")

    def close(self):
        with self.lock:
            if self.closed:
                return
            self.closed = True
            for q in self.queues.values():
                while q:
                    release_element(q.popleft())
        self.src.close()


class _SharedGroup:
    """Executes kernel branches over one shared sliding window.

    The window has the largest branch kernel depth and advances one slice
    per step; a branch with kernel depth k emits its batch of valid
    centers every (w - k + 1) steps, plus whatever the final window
    position still owes, so each branch's output is identical to running
    it alone.
    """

    def __init__(self, src: Stream, members, metas, ctx):
        self.members = {m.name: m for m in members}
        self.w = max(m.k_z for m in members)
        in_meta = metas[members[0].name][0]
        self.d = in_meta.depth
        self.w = min(self.w, self.d)
        self.windows = st.windowed_positions(self.w, 1, src, tail="none")
        self.queues = {m.name: deque() for m in members}
        self.state = {}
        for m in members:
            self.state[m.name] = {
                "next": 0,
                "fn": partial(ops.record(m).window, m),
                "out_v": metas[m.name][1],
                "last": self.d - m.k_z,
                "stride": self.w - m.k_z + 1,
            }
        self.lock = threading.Lock()
        self.done = False
        self.closed = False

    def _advance(self) -> bool:
        item = self.windows.pull()
        if item is None:
            self.done = True
            return False
        t, win = item
        try:
            for name, s in self.state.items():
                hi_abs = t + self.w - self.members[name].k_z
                emit = (t % s["stride"] == 0) or (t == self.d - self.w and
                                                  s["next"] <= s["last"])
                if not emit or s["next"] > hi_abs:
                    continue
                lo_abs = max(t, s["next"])
                arrays = s["fn"](win, lo_abs - t, hi_abs - t)
                s["next"] = hi_abs + 1
                out_v = s["out_v"]
                for a in arrays:
                    self.queues[name].append(
                        ALLOC.new_slice(out_v.slice_meta,
                                        data=_cast_array(a, out_v.dtype)))
        finally:
            for sl in win:
                release(sl)
        return True

    def pull_for(self, name):
        with self.lock:
            q = self.queues[name]
            while not q:
                if self.done or not self._advance():
                    return None
            return q.popleft()

    def port(self, name) -> Stream:
        out_v = self.state[name]["out_v"]
        return _port(self, name, out_v.slice_meta, out_v.depth, f"shared->{name}")

    def close(self):
        with self.lock:
            if self.closed:
                return
            self.closed = True
            for q in self.queues.values():
                while q:
                    release(q.popleft())
        self.windows.close()


# ---------------------------------------------------------------------------
# threaded handoffs
# ---------------------------------------------------------------------------

class _ThreadHandoff:
    """Runs an upstream stream on its own thread behind a bounded queue.

    The pump stops on its own stop flag or the pipeline-wide cancel; a
    normally exhausted upstream needs no explicit close (its generators
    finish and release their buffers), while aborted runs are cleaned up
    by the run context closing every handoff.
    """

    def __init__(self, upstream: Stream, ctx: RunContext, name: str,
                 capacity: int = 1):
        self.upstream = upstream
        self.cancel = ctx.cancel
        self.stop = threading.Event()
        self.q = queue.Queue(maxsize=capacity)
        self.name = name
        self.thread = threading.Thread(target=self._pump, daemon=True,
                                       name=f"stage-{name}")
        self.thread.start()

    def _stopped(self) -> bool:
        return self.stop.is_set() or self.cancel.is_set()

    def _put(self, item):
        while True:
            if self._stopped():
                kind, val = item
                if kind == "item" and val is not None:
                    release_element(val)
                raise _Cancelled()
            try:
                self.q.put(item, timeout=0.02)
                return
            except queue.Full:
                continue

    def _pump(self):
        try:
            while True:
                e = self.upstream.pull()
                self._put(("item", e))
                if e is None:
                    return
        except _Cancelled:
            self.upstream.close()
        except BaseException as exc:
            self.upstream.close()
            try:
                self._put(("error", exc))
            except _Cancelled:
                pass

    def stream(self) -> Stream:
        def gen():
            while True:
                try:
                    kind, val = self.q.get(timeout=0.02)
                except queue.Empty:
                    if self._stopped():
                        raise _Cancelled()
                    if not self.thread.is_alive():
                        raise EngineError(f"stage thread {self.name} died")
                    continue
                if kind == "error":
                    raise val
                if val is None:
                    return
                yield val

        return Stream(gen(), meta=self.upstream.meta, depth=self.upstream.depth,
                      upstream=(self,), name=f"thread:{self.name}")

    def _drain(self):
        while True:
            try:
                kind, val = self.q.get_nowait()
            except queue.Empty:
                return
            if kind == "item" and val is not None:
                release_element(val)

    def close(self):
        self.stop.set()
        self._drain()
        self.thread.join(timeout=10)
        self._drain()
        self.upstream.close()


# ---------------------------------------------------------------------------
# sink steppers
# ---------------------------------------------------------------------------

def _histogram_steps(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                     ctx: RunContext):
    w = min(stage.w, in_meta.depth)
    hist = ops.Histogram.empty(in_meta.dtype, stage.params.get("value_range"))
    ALLOC.register_internal(2 * hist.nbytes)  # running + per-window accumulator
    try:
        wins = st.windowed_positions(w, w, src, tail="partial")
        ctx.track(wins)
        while True:
            item = wins.pull()
            if item is None:
                break
            _, win = item
            part = ops.Histogram.empty(in_meta.dtype, stage.params.get("value_range"))
            for sl in win:
                part.add_array(sl.data)
            hist.merge(part)
            for sl in win:
                release(sl)
            yield
    finally:
        ALLOC.unregister_internal(2 * hist.nbytes)
    ctx.results[stage.name] = hist
    out = stage.params.get("out")
    if out:
        hist.save(out)
    ctx.sink_counts[stage.name] = hist.total()


def _mean_steps(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                ctx: RunContext):
    wins = st.windowed_positions(1, stage.s, src, tail="none")
    ctx.track(wins)
    total = 0.0
    count = 0
    while True:
        item = wins.pull()
        if item is None:
            break
        _, win = item
        for sl in win:
            total += float(sl.data.sum(dtype=np.float64))
            count += sl.data.size
            release(sl)
        yield
    mean = total / count if count else 0.0
    ctx.results[stage.name] = mean
    out = stage.params.get("out")
    if out:
        Path(out).write_text(f"mean {mean!r}\n")
    ctx.sink_counts[stage.name] = count


def _sink_count_steps(stage: PlanStage, steps, ctx: RunContext):
    """Drive an io writer's steps; record the slices written, even on failure."""
    written = 0
    try:
        while True:
            try:
                written = next(steps)
            except StopIteration as stop:
                ctx.sink_counts[stage.name] = stop.value
                return
            yield
    finally:
        ctx.sink_counts.setdefault(stage.name, written)


def _write_steps(stage: PlanStage, src: Stream, out_v: VolumeMeta,
                 ctx: RunContext):
    yield from _sink_count_steps(
        stage, sio.write_slices_steps(src, stage.params["dir"], out_v), ctx)


def _write_chunks_steps(stage: PlanStage, src: Stream, out_v: VolumeMeta,
                        ctx: RunContext):
    grid = sio.ChunkGrid(out_v, *stage.params["chunks"])
    yield from _sink_count_steps(
        stage, sio.write_chunks_steps(src, stage.params["dir"], grid), ctx)


# ---------------------------------------------------------------------------
# the builder table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Builder:
    """build(stage, inputs, in_meta, out_meta, ctx) makes a stage's stream
    from its `inputs` input streams, or for a sink the steps _drive runs."""

    inputs: int
    build: Callable
    sink: bool = False


# Entries name the functions they call, so a function replaced on its
# module at run time (as perfbench/tracer.py does) is the one called.
# Every kind in ops.KERNEL_OPS streams through _KERNEL.
_BUILDERS = {
    "read": _Builder(0, lambda stg, ins, i, o, ctx: sio.open_slice_stream(stg.params["dir"])),
    "read_chunks": _Builder(
        0, lambda stg, ins, i, o, ctx: sio.open_chunk_stream(stg.params["dir"])),
    "initialize": _Builder(0, lambda stg, ins, i, o, ctx: _initialize_stream(stg, ctx)),
    "pointwise": _Builder(1, lambda stg, ins, i, o, ctx: _pointwise_stream(stg, ins[0], i, o)),
    "crop": _Builder(1, lambda stg, ins, i, o, ctx: _crop_stream(stg, ins[0], i, o)),
    "pad": _Builder(1, lambda stg, ins, i, o, ctx: _pad_stream(stg, ins[0], i, o)),
    "permute": _Builder(
        1, lambda stg, ins, i, o, ctx: _permute_stream(stg, ins[0], i, o, ctx)),
    "zip_add": _Builder(2, lambda stg, ins, i, o, ctx: _zip_add_stream(stg, *ins, o)),
    "write": _Builder(1, lambda stg, ins, i, o, ctx: _write_steps(stg, ins[0], o, ctx),
                      sink=True),
    "write_chunks": _Builder(
        1, lambda stg, ins, i, o, ctx: _write_chunks_steps(stg, ins[0], o, ctx), sink=True),
    "histogram": _Builder(
        1, lambda stg, ins, i, o, ctx: _histogram_steps(stg, ins[0], i, ctx), sink=True),
    "sampled_mean": _Builder(
        1, lambda stg, ins, i, o, ctx: _mean_steps(stg, ins[0], i, ctx), sink=True),
}
_KERNEL = _Builder(1, lambda stg, ins, i, o, ctx: _kernel_stream(stg, ins[0], i, o))


def _builder(stage: PlanStage, inputs: int, sink: bool = False) -> _Builder:
    """The table entry for a stage with `inputs` inputs, at a sink or not."""
    kind = stage.op_kind
    if kind in ops.KERNEL_OPS:
        b = _KERNEL
    elif kind in _BUILDERS:
        b = _BUILDERS[kind]
    else:
        ops.record(stage)  # a kind unknown to ops fails as unknown
        raise PlanningError(f"stage {stage.name!r}: op kind {kind!r} is priced "
                            f"only; it has no stream builder")
    if (b.inputs, b.sink) != (inputs, sink):
        ends = "ends" if b.sink else "cannot end"
        raise PlanningError(f"stage {stage.name!r} ({kind}) takes {b.inputs} "
                            f"input(s) and {ends} a pipeline")
    return b


def stage_stream(stage: PlanStage, upstream: Stream, in_meta: VolumeMeta,
                 out_v: VolumeMeta, ctx: RunContext) -> Stream:
    """The stream transformer for one mid-pipeline stage."""
    return _builder(stage, 1).build(stage, [upstream], in_meta, out_v, ctx)


# ---------------------------------------------------------------------------
# graph assembly and the drive loop
# ---------------------------------------------------------------------------

def _build_segment(graph: PipelineGraph, in_meta: VolumeMeta, ctx: RunContext):
    """Wire the segment's stages into streams; returns sink steppers."""
    src_stage = graph.source()
    metas = propagate_meta(graph, src_stage.params.get("meta", in_meta))
    shared_members = {}
    for grp in graph.shared_windows:
        for name in grp.members:
            shared_members[name] = grp
    built = {}
    splitters = {}

    def upstream_of(name: str) -> Stream:
        preds = graph.predecessors(name)
        if len(preds) != 1:
            raise PlanningError(f"stage {name!r} needs exactly one input here")
        return input_stream(name, preds[0])

    def tee_port(tee_name: str, consumer: str) -> Stream:
        if tee_name not in splitters:
            succs = graph.successors(tee_name)
            upstream = upstream_of(tee_name)
            if all(s in shared_members for s in succs):
                members = [graph.node(s) for s in succs]
                splitters[tee_name] = _SharedGroup(upstream, members, metas, ctx)
                for m in members:
                    ctx.stage_sweeps[m.name] = 1
            else:
                splitters[tee_name] = _TeeSplitter(upstream, succs)
            ctx.streams.append(splitters[tee_name])
            ctx.stage_sweeps[tee_name] = 1
        # a shared group applies the member op itself: its port IS the member output
        return splitters[tee_name].port(consumer)

    def input_stream(name: str, pred: str) -> Stream:
        if graph.node(pred).op_kind == "tee":
            return tee_port(pred, name)
        return build(pred)

    def make(stage: PlanStage, sink: bool = False):
        preds = graph.predecessors(stage.name)
        builder = _builder(stage, len(preds), sink)  # before any input is built
        out = builder.build(stage, [input_stream(stage.name, p) for p in preds],
                            *metas[stage.name], ctx)
        if not preds:
            ctx.sources.append((stage.name, out))
        ctx.stage_sweeps.setdefault(stage.name, 1)
        return out

    def build(name: str) -> Stream:
        if name in built:
            return built[name]
        if name in shared_members:
            # output produced by the shared group, reached via the tee port
            s = upstream_of(name)
        else:
            s = make(graph.node(name))
            if ctx.threads > 1:
                handoff = _ThreadHandoff(s, ctx, name)
                ctx.streams.append(handoff)
                s = handoff.stream()
        built[name] = ctx.track(s)
        return built[name]

    return [make(sink, sink=True) for sink in graph.sinks()]


def _drive(steppers):
    active = deque(steppers)
    while active:
        stepper = active.popleft()
        try:
            next(stepper)
        except StopIteration:
            continue
        active.append(stepper)


# ---------------------------------------------------------------------------
# reports and entry points
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    sources: list
    sinks: list
    sweeps: list
    peak_bytes: int
    peak_slices: int
    promised_peak: int
    overhead: int
    leaked_slices: int
    threads: int

    @property
    def within_budget(self) -> bool:
        return self.peak_bytes <= self.promised_peak + self.overhead

    def render(self) -> str:
        lines = [f"run report threads={self.threads}"]
        for name, pulls, opens in self.sources:
            lines.append(f"source {name} slices={pulls} opens={opens}")
        for name, count in self.sinks:
            lines.append(f"sink {name} items={count}")
        for name, n in self.sweeps:
            lines.append(f"stage {name} sweeps={n}")
        lines.append(f"peak_bytes {self.peak_bytes}")
        lines.append(f"peak_slices {self.peak_slices}")
        lines.append(f"promised_peak {self.promised_peak}")
        lines.append(f"overhead_allowance {self.overhead}")
        lines.append(f"within_budget {str(self.within_budget).lower()}")
        lines.append(f"leaked_slices {self.leaked_slices}")
        return "\n".join(lines)


def execute_plan(plan: Plan, threads: int = 1, tmpdir=None,
                 seed: int = 0) -> RunReport:
    """Run every segment of a plan and report instrumented usage.

    Midwrite intermediates live under tmpdir and are removed afterwards.
    All slices are released by the time this returns, even on failure.
    """
    if plan.verdict == "infeasible":
        raise PlanningError("refusing to execute an infeasible plan")
    tmpdir = Path(tmpdir) if tmpdir is not None else Path(".")
    ctx = RunContext(tmpdir=tmpdir, threads=threads, seed=seed)
    ALLOC.reset_peaks()
    mid_dirs = [a.detail["path"] for a in plan.actions if a.kind == "midwrite"]
    try:
        for seg, seg_meta in zip(plan.segments, plan.segment_metas):
            steppers = _build_segment(seg, seg_meta, ctx)
            try:
                _drive(steppers)
            finally:
                ctx.close_all()
                ctx.streams.clear()
                ctx.cancel = threading.Event()
    finally:
        ctx.close_all()
        for d in mid_dirs:
            shutil.rmtree(d, ignore_errors=True)
    sources = [(name, s.pulls, getattr(s, "counters", {}).get("opens", s.pulls))
               for name, s in ctx.sources]
    sinks = sorted(ctx.sink_counts.items())
    sweeps = sorted(ctx.stage_sweeps.items())
    return RunReport(
        sources=sources,
        sinks=sinks,
        sweeps=sweeps,
        peak_bytes=ALLOC.peak_bytes,
        peak_slices=ALLOC.peak_slices,
        promised_peak=plan.ledger.formula_peak,
        overhead=plan.ledger.overhead,
        leaked_slices=ALLOC.live_slices,
        threads=threads,
    )


def run_graph(graph: PipelineGraph, budget: Budget, threads: int = 1,
              tmpdir=None, grow_windows: bool = False, seed: int = 0):
    """Plan and execute in one call; returns (plan, report)."""
    p = make_plan(graph, budget, tmpdir=str(tmpdir or "."),
                  grow_windows=grow_windows, concurrent=threads > 1)
    report = execute_plan(p, threads=threads, tmpdir=tmpdir, seed=seed)
    return p, report

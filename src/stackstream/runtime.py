"""Executes planned pipelines as pull-driven streams.

Stage descriptors become stream transformers here, each composed from the
`stream` functionals: a stage is flatten(map(step, windowed_positions(...)))
whose step turns one window into the stage's new slices, a sink folds its
windows one per drive step, and a tee or a shared-window branch group is
one `FanOut`. Where a stage may stand is its `ops.OPS` record's to say,
which the planner checks; the builder table says only how it streams. A
segment is wired in one pass over its topological order, each stage
built once from what its predecessors left for it. No stage buffers
slices itself, so release-on-close lives in `stream` alone. An inline
window call of more outputs than one block (ops.block_outputs) runs
block by block, and between blocks releases the window's slices that no
later block reads; map releases the rest once the outputs exist. A z-moving
permute spills to a directory of its own under the run's tmpdir.
Every stage runs on the calling thread; a sink with one file per slice or
chunk creates its files ahead of it on one thread of its own (`io`). With
threads = 1 each window call runs on the calling thread too, which is the
determinism reference. With threads > 1 the plan says which kernel
stages go to the pool (Plan.pooled), and every other stage's calls run
inline. A pooled stage keeps one window ahead: while call j computes
on the run's pool of worker threads, the pipeline pulls window j + 1 and
submits its call, and it builds each call's slices itself in window
order, so outputs are bit-identical to the reference mode. Whatever
happens, all in-flight slices are released and every worker is joined
before control returns: success, planning abort or mid-sweep failure.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import io as sio
from . import ops, stream as st
from .core import (ALLOC, Budget, Dtype, EngineError, PipelineGraph,
                   PlanStage, PlanningError, SliceMeta, StageError, VolumeMeta,
                   slice_bytes)
from .planner import Plan, plan as make_plan, propagate_meta
from .stream import Stream, release_element


def _cast_array(arr: np.ndarray, dtype: Dtype, in_place: bool = False) -> np.ndarray:
    """arr in dtype. Integer dtypes round and clip first, in arr itself when
    in_place: a kernel's workspace, never a caller's input."""
    if arr.dtype == dtype.np_dtype:
        return arr
    if dtype.kind == "f32":
        return arr.astype(dtype.np_dtype)
    out = np.rint(arr, out=arr if in_place else None)
    return np.clip(out, dtype.min_value, dtype.max_value, out=out).astype(dtype.np_dtype)


@dataclass
class RunContext:
    tmpdir: Path
    threads: int = 1
    results: dict = field(default_factory=dict)
    sources: list = field(default_factory=list)     # (name, stream)
    sink_counts: dict = field(default_factory=dict)
    stage_sweeps: dict = field(default_factory=dict)
    streams: list = field(default_factory=list)     # everything closable
    pooled: frozenset = frozenset()  # stages whose calls go to the pool
    _pool: Optional[ThreadPoolExecutor] = None

    def track(self, s):
        self.streams.append(s)
        return s

    def pool(self) -> ThreadPoolExecutor:
        """The run's `threads` kernel workers, started on first use."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.threads, thread_name_prefix="stage-worker")
        return self._pool

    def close_all(self):
        for s in reversed(self.streams):
            try:
                s.close()
            except Exception:
                pass
        self.streams.clear()
        if self._pool is not None:  # joins every worker, with no timeout
            self._pool.shutdown(cancel_futures=True)
            self._pool = None


# ---------------------------------------------------------------------------
# stage stream builders
# ---------------------------------------------------------------------------

def _slices(smeta: SliceMeta, arrays) -> list:
    """New slices of arrays already in the stage's dtype."""
    return st.build_all(lambda arr: ALLOC.new_slice(smeta, arr), arrays)


def _stage(stage: PlanStage, out_v: VolumeMeta, windows: Stream,
           step: Callable) -> Stream:
    """flatten(map(step, windows)): step turns one (z, window) into the list
    of the stage's new slices. The outer stream carries the stage's name,
    the inner map another, so each consumer pull counts once."""
    return st.flatten(st.map(step, windows, name=f"map:{stage.name}"),
                      name=stage.name, meta=out_v.slice_meta, depth=out_v.depth)


def _per_slice(stage: PlanStage, src: Stream, out_v: VolumeMeta, step: Callable,
               stop=None) -> Stream:
    """A stage whose step(z, slice) sees one input slice at a time."""
    return _stage(stage, out_v, st.windowed_positions(1, 1, src, "none", stop=stop),
                  lambda item: step(item[0], item[1][0]))


def _kernel_calls(stage: PlanStage, w: int, out_v: VolumeMeta) -> Callable:
    """call_at(t, win) -> (call, lo, last), asked for in window order:
    call(scratch, first=lo, stop=hi) gives the output arrays of stage's
    kernel for the centers first..stop of the w-slice window starting at
    z = t, asked for in z order. lo is the first center no earlier call
    produced, hi = w - k_z the window's last, and last tells whether the
    call reaches the output depth. Centers count from the window's start
    even after a caller has dropped its first entries between blocks
    (_kernel_outputs): the window function is given what is left, so its
    first slice is live. Each window has a new center (windowed_positions'
    final "full" window, _shared_windows' t = d - w). The kernel casts
    each output itself, rounding its workspace in place, and then applies
    the pointwise stages the plan folded into it (its params' post), each
    with its own cast, so each output is the array the separate stages
    would have made. A failure that is not the engine's own is raised as a
    StageError naming the stage and the z of the first output asked for,
    or a folded stage and the z of the output it was given."""
    window = ops.record(stage).window
    hi = w - stage.k_z
    dtype = out_v.dtype
    post = stage.params.get("post", ())
    next_out = 0

    def cast(arr):
        return _cast_array(arr, dtype, in_place=True)

    def call_at(t, win):
        nonlocal next_out
        lo = max(t, next_out) - t
        next_out = t + hi + 1
        z = t + lo  # the output cast_post is given next, as they come in z order

        def cast_post(arr):
            nonlocal z
            out = cast(arr)
            for name, fn in post:
                try:
                    out = cast(fn(out, dtype))
                except EngineError:
                    raise
                except Exception as exc:
                    raise StageError(name, z, exc) from exc
            z += 1
            return out

        def call(scratch, first=lo, stop=hi):
            cut = w - len(win)  # the entries earlier blocks released
            try:
                return window(stage, win, first - cut, stop - cut, scratch=scratch,
                              cast=cast_post if post else cast)
            except EngineError:
                raise
            except Exception as exc:
                raise StageError(stage.name, t + first, exc) from exc

        return call, lo, next_out == out_v.depth

    return call_at


def _kernel_outputs(stage: PlanStage, w: int, out_v: VolumeMeta, ctx: RunContext,
                    block: Optional[int] = None) -> Callable:
    """outputs(t, win): the new slices of the call at window t, computed on
    the calling thread. Every call works in the stage's one Scratch, which
    the stage's last call or else the run closes.

    With block set, a call of more outputs than that runs block outputs at
    a time, and each block's outputs become slices as it ends. Between
    blocks the call releases the window's slices that no later block reads
    and drops them from the window's list, so map releases only the rest:
    the last block's inputs, once its outputs are slices. A call of one
    block, or any call without block (a shared window, which other
    branches read too), releases nothing itself."""
    scratch = ctx.track(ops.Scratch())
    call_at = _kernel_calls(stage, w, out_v)
    smeta = out_v.slice_meta
    hi = w - stage.k_z
    step = block or w

    def outputs(t, win):
        call, lo, last = call_at(t, win)
        made, gone = [], 0  # gone: the window's entries released so far
        try:
            for first in range(lo, hi + 1, step):
                stop = min(first + step, hi + 1)
                made += _slices(smeta, call(scratch, first, stop - 1))
                if stop <= hi:  # later blocks read from the window's entry stop on
                    release_element(win[:stop - gone])
                    del win[:stop - gone]
                    gone = stop
        except BaseException:
            release_element(made)
            raise
        if last:
            scratch.close()
        return made

    return outputs


def _kernel_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                   out_v: VolumeMeta, ctx: RunContext) -> Stream:
    w = min(stage.w, in_meta.depth)
    windows = st.windowed_positions(w, w - stage.k_z + 1, src, "full")
    if stage.name not in ctx.pooled:
        block = ops.block_outputs(slice_bytes(in_meta), stage.k_z)
        outputs = _kernel_outputs(stage, w, out_v, ctx, block)
        return _stage(stage, out_v, windows, lambda item: outputs(*item))
    handoff = _ThreadHandoff(stage.name, windows, _kernel_calls(stage, w, out_v), ctx)
    smeta = out_v.slice_meta
    return _stage(stage, out_v, handoff.stream(), lambda item: _slices(smeta, item[2]))


def _crop_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                 out_v: VolumeMeta) -> Stream:
    x0, y0, z0, x1, y1, z1 = stage.params["box"]

    def step(z, sl):
        if z < z0:
            return []
        return [ALLOC.new_slice(out_v.slice_meta, data=sl.data[y0:y1, x0:x1].copy())]

    return _per_slice(stage, src, out_v, step, stop=z1)


def _pad_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                out_v: VolumeMeta) -> Stream:
    xlo, xhi, ylo, yhi, zlo, zhi = stage.params["amounts"]
    mode = stage.params["mode"]
    np_mode = "edge" if mode == "clamp" else "constant"

    def z_edge(cur, count):
        # count references to the z edge: cur itself (clamp) or one zero slice
        if not count:
            return []
        edge = cur if mode == "clamp" else ALLOC.new_slice(out_v.slice_meta)
        for _ in range(count - (edge is not cur)):
            st.retain(edge)
        return [edge] * count

    def step(z, sl):
        cur = sl
        if xlo or xhi or ylo or yhi:
            cur = ALLOC.new_slice(out_v.slice_meta, data=np.pad(
                sl.data, ((ylo, yhi), (xlo, xhi)), mode=np_mode))
        return (z_edge(cur, zlo if z == 0 else 0) + [cur]
                + z_edge(cur, zhi if z == in_meta.depth - 1 else 0))

    return _per_slice(stage, src, out_v, step)


def _permute_stream(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                    out_v: VolumeMeta, ctx: RunContext) -> Stream:
    order = stage.params["order"]
    out_smeta = out_v.slice_meta
    if order == "xyz":
        return src
    if order[2] == "z":  # in-plane swap, one sweep
        return _per_slice(stage, src, out_v, lambda z, sl: [
            ALLOC.new_slice(out_smeta, data=np.ascontiguousarray(sl.data.T))])

    # z moves: two passes through an on-disk chunked intermediate
    ctx.stage_sweeps[stage.name] = 2
    grid = sio.ChunkGrid(in_meta, *ops.permute_chunk_dims(stage, in_meta))
    axis = order[2]
    plane_axes = [a for a in "zyx" if a != axis]
    to_out = (plane_axes.index(order[1]), plane_axes.index(order[0]))

    def z_gen():
        # a directory of its own, so that runs sharing a tmpdir never meet
        Path(ctx.tmpdir).mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{stage.name}_", dir=ctx.tmpdir))
        try:
            try:
                sio.write_chunk_store(src, tmp, grid)
            except OSError as exc:
                need = in_meta.voxels * in_meta.dtype.byte_width
                raise IOError(f"stage {stage.name!r}: temp chunk store {tmp} failed "
                              f"(need {need} bytes free): {exc}") from exc
            slab_bytes = grid.layer_bytes(axis)
            ALLOC.register_internal(slab_bytes)
            try:
                slab = np.empty(grid.layer_shape(axis), dtype=in_meta.dtype.np_dtype)
                # one chunk column along the axis at a time, read into the slab
                for k in range(grid.gx if axis == "x" else grid.gy):
                    block = sio.read_column(tmp, grid, slab, axis, k)
                    for plane in np.moveaxis(block, "zyx".index(axis), 0):
                        yield ALLOC.new_slice(out_smeta, data=plane.transpose(to_out).copy())
            finally:
                ALLOC.unregister_internal(slab_bytes)
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


def _shared_windows(src: Stream, members, metas, ctx: RunContext) -> st.FanOut:
    """Kernel branches over one shared sliding window, fanned out.

    The window has the largest branch kernel depth and advances one slice
    per step; a branch with kernel depth k emits its batch of valid
    centers every (w - k + 1) steps, plus whatever the final window
    position still owes, so each branch's output is identical to running
    it alone.
    """
    d = metas[members[0].name][0].depth
    w = min(max(m.k_z for m in members), d)
    branches = [(w - m.k_z + 1, _kernel_outputs(m, w, metas[m.name][1], ctx))
                for m in members]  # (stride, outputs)

    def step(item):
        t, win = item
        return st.build_all(lambda b: b[1](t, win) if t % b[0] == 0 or t == d - w
                            else [], branches)

    windows = st.map(step, st.windowed_positions(w, 1, src, "none"), name="shared")
    return st.FanOut(windows, [m.name for m in members], st.queue_parts)


# ---------------------------------------------------------------------------
# kernel calls one window ahead
# ---------------------------------------------------------------------------

class _ThreadHandoff:
    """A kernel stage's calls on the run's worker pool, one window ahead.

    Its stream, thread:<stage>, pulls window j + 1 and submits its call
    before it waits for call j, and yields (t, window, arrays) in window
    order. A call in flight works in a Scratch of its own, taken last in
    first out from the stage's free list, so the stage has at most two. A
    worker hands its finished call back through _put, and the pipeline
    waits on one condition, with no timeout. Closing drops the calls not
    yet started and waits for running ones before it releases windows.
    """

    def __init__(self, name: str, windows: Stream, call_at: Callable, ctx: RunContext):
        self.name = name
        self.windows, self.call_at, self.ctx = windows, call_at, ctx
        self.cond = threading.Condition()
        self.finished = {}        # serial: (ok, arrays or the error)
        self.inflight = deque()   # (serial, future, (t, window), scratch)
        self.free = []
        self.serials = count()

    def _put(self, item):
        serial, outcome = item
        with self.cond:
            self.finished[serial] = outcome
            self.cond.notify_all()

    def _run(self, serial, call, scratch):
        try:
            outcome = True, call(scratch)
        except BaseException as exc:
            outcome = False, exc
        self._put((serial, outcome))

    def _submit(self):
        item = self.windows.pull()
        if item is None:
            return
        call = self.call_at(*item)[0]
        scratch = self.free.pop() if self.free else self.ctx.track(ops.Scratch())
        serial = next(self.serials)
        future = self.ctx.pool().submit(self._run, serial, call, scratch)
        self.inflight.append((serial, future, item, scratch))

    def _wait(self, serial):
        with self.cond:
            self.cond.wait_for(lambda: serial in self.finished)
            return self.finished.pop(serial)

    def stream(self) -> Stream:
        def gen():
            self._submit()
            while self.inflight:
                self._submit()
                serial, _, item, scratch = self.inflight.popleft()
                ok, out = self._wait(serial)
                self.free.append(scratch)
                if not ok:
                    release_element(item)
                    raise out
                yield item + (out,)
            for scratch in self.free:  # the stage's last call is done
                scratch.close()

        return Stream(gen(), upstream=(self,), name=f"thread:{self.name}")

    def close(self):
        while self.inflight:
            serial, future, item, _ = self.inflight.popleft()
            if not future.cancel():
                self._wait(serial)
            release_element(item)
        self.windows.close()


# ---------------------------------------------------------------------------
# sink steppers
# ---------------------------------------------------------------------------

def _fold_steps(stage: PlanStage, windows: Stream, acc, step: Callable,
                ctx: RunContext, internal: int = 0):
    """Sink stepper folding step(acc, window) over windows, one window per
    _drive step; returns the final accumulator. The running accumulators
    are a map over the windows, and internal bytes are registered while
    the fold runs."""
    def apply(item):
        nonlocal acc
        acc = step(acc, item[1])
        return acc

    ALLOC.register_internal(internal)
    try:
        running = ctx.track(st.map(apply, windows, name=f"map:{stage.name}"))
        while running.pull() is not None:
            yield
    finally:
        ALLOC.unregister_internal(internal)
    return acc


def _histogram_steps(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                     ctx: RunContext):
    w = min(stage.w, in_meta.depth)
    new_hist = partial(ops.Histogram.empty, in_meta.dtype, stage.params.get("value_range"))

    def add(hist, win):
        part = new_hist()
        for sl in win:
            part.add_array(sl.data)
        hist.merge(part)
        return hist

    hist = new_hist()
    hist = yield from _fold_steps(stage, st.windowed_positions(w, w, src, "partial"),
                                  hist, add, ctx,
                                  internal=2 * hist.nbytes)  # running + per-window
    ctx.results[stage.name] = hist
    out = stage.params.get("out")
    if out:
        hist.save(out)
    ctx.sink_counts[stage.name] = hist.total()


def _mean_steps(stage: PlanStage, src: Stream, in_meta: VolumeMeta,
                ctx: RunContext):
    def add(acc, win):
        (sl,) = win
        return acc[0] + float(sl.data.sum(dtype=np.float64)), acc[1] + sl.data.size

    total, count = yield from _fold_steps(
        stage, st.windowed_positions(1, stage.s, src, "none"), (0.0, 0), add, ctx)
    mean = total / count if count else 0.0
    ctx.results[stage.name] = mean
    out = stage.params.get("out")
    if out:
        Path(out).write_text(f"mean {mean!r}\n")
    ctx.sink_counts[stage.name] = count


def _sink_count_steps(stage: PlanStage, steps, ctx: RunContext):
    """Drive an io writer's steps; record the slices written, even on failure,
    and close the steps, which joins a writer's file-creating thread."""
    ctx.sink_counts[stage.name] = 0
    try:
        for written in steps:  # each step yields the slices written so far
            ctx.sink_counts[stage.name] = written
            yield
    finally:
        steps.close()


def _write_steps(stage: PlanStage, src: Stream, out_v: VolumeMeta,
                 ctx: RunContext):
    yield from _sink_count_steps(
        stage, sio.write_slices_steps(src, stage.params["dir"], out_v,
                                      multipage=stage.params.get("internal", False)), ctx)


def _write_chunks_steps(stage: PlanStage, src: Stream, out_v: VolumeMeta,
                        ctx: RunContext):
    grid = sio.ChunkGrid(out_v, *stage.params["chunks"])
    yield from _sink_count_steps(
        stage, sio.write_chunks_steps(src, stage.params["dir"], grid), ctx)


# ---------------------------------------------------------------------------
# the builder table
# ---------------------------------------------------------------------------

# build(stage, inputs, in_meta, out_meta, ctx) makes a stage's stream from
# its input streams, or for a sink the steps _drive runs; a kind whose
# record has a window function, pointwise too, streams through
# _kernel_stream. Entries name the functions they call, so a function
# replaced on its module at run time (as perfbench/tracer.py does) is the
# one called.
_BUILDERS = {
    "read": lambda stg, ins, i, o, ctx: sio.open_slice_stream(stg.params["dir"],
                                                              stg.params.get("grid")),
    "crop": lambda stg, ins, i, o, ctx: _crop_stream(stg, ins[0], i, o),
    "pad": lambda stg, ins, i, o, ctx: _pad_stream(stg, ins[0], i, o),
    "permute": lambda stg, ins, i, o, ctx: _permute_stream(stg, ins[0], i, o, ctx),
    "zip_add": lambda stg, ins, i, o, ctx: _zip_add_stream(stg, *ins, o),
    "write": lambda stg, ins, i, o, ctx: (
        _write_chunks_steps if "chunks" in stg.params else _write_steps)(stg, ins[0], o, ctx),
    "histogram": lambda stg, ins, i, o, ctx: _histogram_steps(stg, ins[0], i, ctx),
    "sampled_mean": lambda stg, ins, i, o, ctx: _mean_steps(stg, ins[0], i, ctx),
}


def _builder(stage: PlanStage) -> Callable:
    """The build function of a stage's kind."""
    if ops.record(stage).window is not None:  # a kind unknown to ops fails as unknown
        return lambda stg, ins, i, o, ctx: _kernel_stream(stg, ins[0], i, o, ctx)
    build = _BUILDERS.get(stage.op_kind)
    if build is None:
        raise PlanningError(f"stage {stage.name!r}: op kind {stage.op_kind!r} "
                            "has no stream builder")
    return build


# ---------------------------------------------------------------------------
# graph assembly and the drive loop
# ---------------------------------------------------------------------------

def _build_segment(graph: PipelineGraph, ctx: RunContext):
    """Wire the segment's stages into streams; returns the sink steppers.

    One pass over the topological order builds each stage once, from the
    streams its predecessors left for it. A tee leaves one port per
    branch; when its branches share one window, the group's ports are its
    members' outputs. A sink's stepper is collected where the pass meets
    it, and every stream and stepper is closed with the run.
    """
    metas = propagate_meta(graph, graph.source().params["meta"])
    shared = {name for grp in graph.shared_windows for name in grp.members}
    feeds = {}  # (stage, consumer) -> the stream the consumer reads
    steppers = []
    for stage in graph.topo_order():
        name = stage.name
        succs = graph.successors(name)
        ins = [feeds.pop((p, name)) for p in graph.predecessors(name)]
        ctx.stage_sweeps[name] = 1
        if stage.op_kind == "tee":
            if all(s in shared for s in succs):
                fan = _shared_windows(ins[0], [graph.node(s) for s in succs], metas, ctx)
                ports = [fan.port(s, f"shared->{s}", metas[s][1].slice_meta,
                                  metas[s][1].depth) for s in succs]
            else:
                fan = st.FanOut(ins[0], succs)
                ports = [fan.port(s, f"tee->{s}") for s in succs]
            ctx.track(fan)
            feeds.update(((name, s), port) for s, port in zip(succs, ports))
            continue
        # a shared member's port is its output: the group applies its op
        out = ins[0] if name in shared else _builder(stage)(stage, ins, *metas[name], ctx)
        if not ins:
            ctx.sources.append((name, out))
        ctx.track(out)
        if succs:  # only a tee feeds two stages
            feeds[(name, succs[0])] = out
        else:
            steppers.append(out)
    return steppers


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


def check_directories(plan: Plan):
    """Refuse a plan with a segment that writes into a directory it also
    reads, or into one directory twice: the writer would empty files that
    the segment's reader or other writer still needs. A later segment may
    rewrite a directory an earlier one read, which has read it through."""
    for seg in plan.segments:
        seen = {Path(s.params["dir"]).resolve(): "reads" for s in seg.nodes if s.op_kind == "read"}
        for stage in (s for s in seg.nodes if s.op_kind == "write"):
            d = Path(stage.params["dir"]).resolve()
            if d in seen:
                raise PlanningError(f"stage {stage.name!r} writes into {d}, "
                                    f"which its segment also {seen[d]}")
            seen[d] = "writes"


def execute_plan(plan: Plan, threads: int = 1, tmpdir=None) -> RunReport:
    """Run every segment of a plan, one after another, and report
    instrumented usage, gated by the plan's ledger. A plan that
    check_directories refuses is refused before any directory is made.
    With threads > 1 the stages in plan.pooled, and no others, run their
    calls on a pool of `threads` workers, one window ahead.

    A run makes each mid-write directory before its first segment and
    removes only those; one that already exists is an error, left as it
    is. Other scratch goes to directories of the run's own under tmpdir
    (default: the working directory), so runs sharing a tmpdir never
    meet. All slices are released by the time this returns, even on
    failure.
    """
    if plan.verdict == "infeasible":
        raise PlanningError("refusing to execute an infeasible plan")
    if threads < 1:
        raise PlanningError(f"threads must be >= 1, got {threads}")
    check_directories(plan)
    tmpdir = Path(tmpdir) if tmpdir is not None else Path(".")
    ctx = RunContext(tmpdir=tmpdir, threads=threads,
                     pooled=plan.pooled if threads > 1 else frozenset())
    ALLOC.reset_peaks()
    made = []  # the mid-write directories this run made, and so removes
    try:
        for d in (Path(a.detail["path"]) for a in plan.actions if a.kind == "midwrite"):
            d.mkdir(parents=True)  # FileExistsError names a path already there
            made.append(d)
        for seg in plan.segments:
            _drive(_build_segment(seg, ctx))
            ctx.close_all()
    finally:
        ctx.close_all()
        for d in made:
            shutil.rmtree(d, ignore_errors=True)
    sources = [(name, s.pulls, s.counters["opens"]) for name, s in ctx.sources]
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
              tmpdir=None, grow_windows: bool = False):
    """Plan and execute in one call, mid-writes and scratch under tmpdir;
    returns (plan, report)."""
    p = make_plan(graph, budget, tmpdir=str(tmpdir or "."),
                  grow_windows=grow_windows, concurrent=threads > 1)
    report = execute_plan(p, threads=threads, tmpdir=tmpdir)
    return p, report

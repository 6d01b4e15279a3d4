"""Static memory estimation, budget checking and plan repair.

Estimates are closed-form per stage. The window solve and the split add
them across a segment (an upper bound that is always sound); the only
subtractive entries are explicit sharing credits from shared-window
branch groups. The final ledger charges what a segment holds at once: a
read one slice, and in a linear segment the stages that make one call
per sweep take turns, so its peak is its largest phase (`_turns`), which
is never more than the sum. A plan fits when each of its segments does:
its peak plus one fixed overhead allowance per stage stays inside the
budget.

`plan` is one pass. It first folds each pointwise stage that follows a
kernel stage into that kernel (`fuse_pointwise`), on any budget, so every
later step sees the fused graph and no mid-write cuts between a kernel
and its folded stages. A pipeline over budget is then repaired in this
order, each step only while it still overflows: tee branches share one
window, tunable windows drop to their minima, and a chain splits at
mid-write checkpoints that spill an intermediate volume to disk and read
it back. Then every segment's windows grow into the budget left. A caller
that keeps the declared windows skips the minima and the growth.

The plan also decides how each stage runs. In a plan made for a
concurrent run, a kernel stage whose calls pay for a handoff (`_pools`)
computes one window ahead on the run's pool. Only those stages are
charged the window step, and the runtime pools exactly them. Every other
window stage outside a shared window runs its calls block by block, and
the final ledger charges it what such a call holds (`_held`), where the
solve and the split reserve the whole window.

Planning is static: it consumes volume geometry only and never reads a
voxel, so a plan is explainable before any I/O is spent.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import ops
from .core import (Budget, MemEstimate, PipelineGraph, PlanStage,
                   PlanningError, SharedWindowGroup, VolumeMeta, chain,
                   slice_bytes)
from .ops import Kernel3D


def max_width(m: int, k: int, b: int = 1) -> int:
    """Largest slice edge n such that a k-slice window plus one output
    slice of n*n voxels of b bytes fits in m bytes: floor(sqrt(m/((k+1)b))).
    """
    if m <= 0:
        raise PlanningError("memory bound must be positive")
    if k < 1 or b < 1:
        raise PlanningError("need k >= 1 and b >= 1")
    return math.isqrt(m // ((k + 1) * b))


# ---------------------------------------------------------------------------
# per-stage estimates
# ---------------------------------------------------------------------------

def estimate_stage(stage: PlanStage, meta: VolumeMeta) -> MemEstimate:
    """Closed-form stage estimate from its input volume geometry.

    The stage's kind's `ops.OPS` record prices it. Window stages hold w
    input slices and emit the w - k_z + 1 valid centers per step, all w
    for a pointwise stage. A read of any layout is priced at its window of
    w slices, which the solve reserves and the final ledger does not
    charge (_term); a write at the one slice it holds. A z-moving permute
    charges its slab as internal bytes.
    """
    rec = ops.record(stage)
    return rec.estimate(stage, meta, rec.out_meta(stage, meta))


def propagate_meta(graph: PipelineGraph, meta: VolumeMeta):
    """Input/output volume geometry per stage, walking the DAG once."""
    out = {}
    for stage in graph.topo_order():
        preds = graph.predecessors(stage.name)
        if not preds:
            in_meta = stage.params.get("meta", meta)
        else:
            in_metas = [out[p][1] for p in preds]
            if len(in_metas) == 2 and in_metas[0] != in_metas[1]:
                raise PlanningError(
                    f"stage {stage.name!r}: joined branches disagree on geometry "
                    f"({in_metas[0]} vs {in_metas[1]})")
            in_meta = in_metas[0]
        out[stage.name] = (in_meta, ops.out_meta(stage, in_meta))
    return out


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

@dataclass
class LedgerRow:
    segment: int
    name: str
    op: str
    w: int
    s: int
    alpha: int
    beta: int
    gamma: int
    credit: int
    running: int
    step: int = 0  # the concurrent window step charged, in queue_allowance

    def line(self) -> str:
        return (f"stage {self.name} op={self.op} w={self.w} s={self.s} "
                f"alpha={self.alpha} beta={self.beta} gamma={self.gamma} "
                f"credit={self.credit} running={self.running}")


@dataclass
class MemoryLedger:
    """Per-stage accounting the planner proves and the runtime verifies.

    formula_peak, the promise, is the largest segment peak. overhead is
    what the gate adds to it: the gate is the largest segment peak plus
    that segment's stage_count allowances, so the plan fits when each
    segment does. A final ledger names in segment_phases the phase that
    sets each segment's peak (_turns), which render gives as a note.
    """

    rows: list
    budget: Budget
    volume: VolumeMeta
    credits: int = 0
    formula_peak: int = 0
    overhead: int = 0
    stage_count: int = 0
    queue_bytes: int = 0
    verdict: str = "fits"
    actions: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    segment_peaks: list = field(default_factory=list)
    segment_phases: list = field(default_factory=list)

    @property
    def peak_estimate(self) -> int:
        return self.formula_peak

    def fits(self) -> bool:
        return self.formula_peak + self.overhead < self.budget.cap

    def peak_slices(self):
        """Peak in slice units when the peak divides the slice size evenly."""
        sb = slice_bytes(self.volume)
        if sb and self.formula_peak % sb == 0:
            return self.formula_peak // sb
        return None

    def render(self) -> str:
        lines = [f"memory ledger budget={self.budget.cap} B "
                 f"epsilon={self.budget.overhead_epsilon} B/stage",
                 f"volume {self.volume}"]
        seg = None
        for row in self.rows:
            if row.segment != seg:
                seg = row.segment
                lines.append(f"segment {seg}")
            lines.append("  " + row.line())
        for i, p in enumerate(self.segment_peaks, start=1):
            lines.append(f"segment_peak {i} {p} B")
        if self.queue_bytes:
            lines.append(f"queue_allowance {self.queue_bytes} B")
        lines.append(f"peak_estimate {self.formula_peak} B")
        ps = self.peak_slices()
        if ps is not None:
            lines.append(f"peak_slices {ps}")
        lines.append(f"overhead {self.overhead} B ({self.stage_count} stages)")
        lines.append(f"headroom {self.budget.cap - self.formula_peak - self.overhead} B")
        lines.append(f"verdict {self.verdict}")
        for act in self.actions:
            lines.append("action " + act.line())
        for i, phase in enumerate(self.segment_phases, start=1):
            lines.append(f"note segment {i} peaks {phase}")
        for note in self.notes:
            lines.append("note " + note)
        return "\n".join(lines)


@dataclass(frozen=True)
class RepairAction:
    """One semantics-preserving plan rewrite: a pointwise stage folded into
    the kernel before it (fuse), a mid-write split, a window grown from its
    declared size (window_resize) or tee branches sharing one window."""

    kind: str   # fuse | midwrite | window_resize | share_window
    detail: dict

    def line(self) -> str:
        d = self.detail
        if self.kind == "fuse":
            return f"fuse stage={d['stage']} into={d['into']}"
        if self.kind == "midwrite":
            extra = f" extra_io={d['bytes']} B" if "bytes" in d else ""
            return f"midwrite after {d['after']} path={d['path']}{extra}"
        if self.kind == "window_resize":
            return f"window_resize stage={d['stage']} w={d['old_w']}->{d['new_w']}"
        strides = ",".join(str(s) for s in d["strides"])  # share_window
        return f"share_window group={'+'.join(d['group'])} w={d['w']} strides={strides}"


# A kernel stage whose calls each come to fewer output voxels x counted
# taps than this runs them on the pipeline thread at any thread count:
# below it, handing a call to a worker and back costs more than running
# it alongside the pipeline saves. With every call on the pool, a
# sigma = 0.8 gaussian (343 taps) took 1.06x the inline time at 192^2
# (12.6M) and 0.85x at 224^2 (17.2M) on 2 vCPUs (scripts/threads_table.py).
INLINE_WORK = 1 << 24


def call_work(stage: PlanStage, out_meta: VolumeMeta) -> int:
    """One kernel call's work: its output voxels x the taps its record
    counts per output voxel (its kernel's taps unless the record says)."""
    rec = ops.record(stage)
    taps = rec.taps(stage) if rec.taps else math.prod(rec.kernel_dims(stage))
    return (stage.w - stage.k_z + 1) * out_meta.nx * out_meta.ny * taps


def _pools(stage: PlanStage, in_meta: VolumeMeta, out_meta: VolumeMeta) -> bool:
    """Whether a concurrent run hands a kernel stage's calls to the pool:
    it makes more than one call per sweep (w below its input depth), as a
    single call has nothing to overlap, and each call_work is at least
    INLINE_WORK."""
    return stage.w < in_meta.depth and call_work(stage, out_meta) >= INLINE_WORK


def _held(stage: PlanStage, in_meta: VolumeMeta, out_meta: VolumeMeta,
          est: MemEstimate) -> MemEstimate:
    """The most an inline window call holds as it runs block by block
    (runtime._kernel_outputs), given its window estimate est: its
    n = w - k_z + 1 outputs go in blocks of b = ops.block_outputs, and each
    block's inputs that no later block reads go as it ends. At its first
    block the call holds its w inputs and b outputs, at its last its n
    outputs and at most b + k_z - 1 inputs, and at any block in between no
    more than at one of the two. The window buffer keeps inputs too: when
    the stride n leaves r = (depth - w) mod n > 0, the last window shifts
    back by n - r (stream._window_positions), and through the call before
    it the buffer keeps the w - r slices that window reads again, so the
    last block holds max(b + k_z - 1, w - r) inputs. A call of one block
    (b >= n) holds what est prices, w inputs and n outputs."""
    sin = slice_bytes(in_meta)
    w, k = stage.w, stage.k_z
    n, b = w - k + 1, ops.block_outputs(sin, k)
    if n <= b:
        return est
    r = (in_meta.depth - w) % n if w < in_meta.depth else 0
    sout = slice_bytes(out_meta)
    first, last = (w * sin, b * sout), (max(b + k - 1, w - r if r else 0) * sin, n * sout)
    return MemEstimate(*max(first, last, key=sum))


def _term(stage: PlanStage, in_meta: VolumeMeta, out_meta: VolumeMeta,
          graph: PipelineGraph, concurrent: bool, final: bool = False):
    """One stage's ledger term: (estimate, credit, step).

    Its share of its segment's peak is est.total() - credit + step, and
    depends on no other stage's window. A shared-window member after its
    group's first reads the first one's window, and is credited its input.
    step is the concurrent window step, the call one window ahead: s more
    input slices and its s outputs. Shared-window members run inline and
    buy none. Every other kernel stage buys it while windows are solved
    and split; the final ledger charges it only to the stages _pools
    sends to the pool, and the run pools just those.

    The solve and the split price a read at its window and a window stage
    at its whole window, terms affine in w. The solve reserves, and the
    final ledger charges what the run holds: a read one slice, as the one
    reader yields one slice at a time whatever its w, and a window stage
    that runs inline outside a shared window what its call holds running
    block by block (_held), which is that price when the call is one
    block.
    """
    est = estimate_stage(stage, in_meta)
    group = next((grp.members for grp in graph.shared_windows
                  if stage.name in grp.members), ())
    credit = est.input_bytes if stage.name in group[1:] else 0
    step = 0
    if (concurrent and ops.record(stage).kernel_dims and not group
            and (not final or _pools(stage, in_meta, out_meta))):
        step = stage.s * (slice_bytes(in_meta) + slice_bytes(out_meta))
    if final and stage.op_kind == "read":
        est = MemEstimate(0, slice_bytes(out_meta), 0)
    elif final and not group and not step and ops.record(stage).window is not None:
        est = _held(stage, in_meta, out_meta, est)
    return est, credit, step


def _cost(term) -> int:
    est, credit, step = term
    return est.total() - credit + step


def _turns(graph: PipelineGraph, metas, terms):
    """(peak, phase) of a final ledger's segment from its stages' terms,
    in topological order.

    In a linear segment, a one-call stage (an inline window stage, not
    pooled, whose window covers its input) starts its call only once its
    buffer holds its whole input, and its outputs leave only after the
    call returns. So the one-call stages B_1..B_m and the streaming runs
    S_0..S_m between them take turns, and the peak is the largest phase:
    filling B_1, S_0 and B_1's window; and for each B_k, S_k-1 (suspended
    after its last slice until B_k's buffer pulls end-of-stream), B_k and
    S_k, with B_k+1's filling window when S_k is not empty (when it is,
    that window is B_k's own outputs). Each phase charges every stage
    outside it its internal bytes, which a sink and a z-moving permute
    hold out of turn. A branched segment, or one with a crop that stops
    short of its input's depth, which leaves the stages above it
    suspended mid-sweep, peaks at the sum of its terms.
    """
    order = graph.topo_order()
    costs = [_cost(t) for t in terms]
    calls = [i for i, (st, (_, _, step)) in enumerate(zip(order, terms))
             if ops.record(st).window is not None and not step
             and st.w >= metas[st.name][0].depth]
    if (not calls or not graph.is_linear()
            or any(st.op_kind == "crop" and st.params["box"][5] < metas[st.name][0].depth
                   for st in order)):
        return sum(costs), "with all its stages at once"
    n = len(order)
    full = [0, *itertools.accumulate(costs)]
    idle = [0, *itertools.accumulate(est.internal_bytes for est, _, _ in terms)]

    def phase(a, c, fill):  # stages a..c-1 in full, and fill's buffer its whole input
        held = full[c] - full[a] + idle[n] - idle[c] + idle[a]
        if fill is None:
            return held
        in_meta = metas[order[fill].name][0]
        return held + in_meta.depth * slice_bytes(in_meta)

    bounds = [-1, *calls, n]
    phases = [(phase(0, calls[0], calls[0]), f"filling {order[calls[0]].name}'s window")]
    for k, b in enumerate(calls):
        a, c = bounds[k] + 1, bounds[k + 2]
        phases.append((phase(a, c, c if b + 1 < c < n else None),
                       f"in {order[b].name}'s call"))
    return max(phases, key=lambda p: p[0])


def _segment_rows(graph: PipelineGraph, meta: VolumeMeta, segment: int,
                  concurrent: bool, final: bool):
    """(rows, peak, phase, credits, queue bytes) of one segment's ledger:
    a final ledger's peak is its largest phase (_turns), any other's the
    sum of its terms, with no phase named."""
    metas = propagate_meta(graph, meta)
    rows = []
    terms = []
    running = 0
    credits = 0
    queue_bytes = 0
    for stage in graph.topo_order():
        est, credit, step = term = _term(stage, *metas[stage.name], graph, concurrent, final)
        terms.append(term)
        running += est.total() - credit
        credits += credit
        queue_bytes += step
        rows.append(LedgerRow(segment, stage.name, stage.op_kind, stage.w,
                              stage.s, est.input_bytes, est.output_bytes,
                              est.internal_bytes, credit, running, step))
    peak, phase = (_turns(graph, metas, terms) if final
                   else (running + queue_bytes, None))
    return rows, peak, phase, credits, queue_bytes


def estimate_pipeline(graph: PipelineGraph, meta: VolumeMeta, budget: Budget,
                      concurrent: bool = False) -> MemoryLedger:
    """Additive ledger over the sweep; verdict fits or infeasible.

    Memory across co-resident stages adds; shared-window groups credit the
    duplicated input windows back. In concurrent mode every kernel stage
    also buys one window step for the call it computes one window ahead:
    s = w - k_z + 1 input slices and its batch of outputs, whether or not
    the plan then pools it: this is the reservation that windows are
    solved and split under. Shared-window groups run inline and buy none.
    """
    graph.validate()
    led = _ledger([graph], [meta], budget, concurrent)
    led.verdict = "fits" if led.fits() else "infeasible"
    return led


def _ledger(segments, metas, budget, concurrent, final=False) -> MemoryLedger:
    """The ledger of segments run one after another, each from its meta:
    its peak is the largest segment peak, and its gate the largest segment
    peak plus allowances, on a tie the one with the larger peak. A final
    ledger charges what the run holds (_term) and the window step to the
    stages the run pools alone, and takes each segment's peak at its
    largest phase (_turns); any other is the sum of the stages' terms."""
    rows = []
    peaks = []
    phases = []
    credits = 0
    queues = 0
    for i, (g, m) in enumerate(zip(segments, metas), start=1):
        seg_rows, peak, phase, cr, qb = _segment_rows(g, m, i, concurrent, final)
        rows.extend(seg_rows)
        peaks.append(peak)
        if phase:
            phases.append(phase)
        credits += cr
        queues += qb
    gate, _, stages = max((p + len(g.nodes) * budget.overhead_epsilon, p, len(g.nodes))
                          for p, g in zip(peaks, segments))
    led = MemoryLedger(rows=rows, budget=budget, volume=metas[0],
                       credits=credits, formula_peak=max(peaks),
                       overhead=gate - max(peaks), stage_count=stages,
                       queue_bytes=queues, segment_peaks=peaks, segment_phases=phases)
    led.notes += [f"stage {st.name} stride {st.s} exceeds window {st.w} (slice gaps)"
                  for g in segments for st in g.topo_order() if st.s > st.w]
    return led


# ---------------------------------------------------------------------------
# repair levers
# ---------------------------------------------------------------------------

def fuse_convolutions(first: Kernel3D, second: Kernel3D) -> Kernel3D:
    """Full 3D convolution of two kernels; edge sizes add minus one.

    Replacing two convolution stages by one fused stage trades the second
    stage's window for a larger kernel, saving two slice allocations.
    x-y boundary clamping makes the fused stage differ from the pair
    inside the boundary frame, so fusion is an explicit optimization,
    never an automatic repair.
    """
    a, b = first.weights, second.weights
    az, ay, ax = a.shape
    bz, by, bx = b.shape
    out = np.zeros((az + bz - 1, ay + by - 1, ax + bx - 1))
    for z in range(az):
        for y in range(ay):
            for x in range(ax):
                if a[z, y, x] != 0.0:
                    out[z:z + bz, y:y + by, x:x + bx] += a[z, y, x] * b
    return Kernel3D(out)


def fuse_pointwise(graph: PipelineGraph):
    """Fold each pointwise stage whose one producer is a kernel stage into
    that kernel: the kernel's params carry the folded stages as `post`,
    (name, fn) pairs in stream order, which the runtime applies to each
    output after its cast, so each output is the one the stage would have
    made. Only a tee feeds two stages, so the kernel feeds nothing else.
    One walk in topological order folds a run of pointwise stages after a
    kernel in turn. Returns (graph, fuse actions); the graph is the one
    given, not a copy, when nothing folds.
    """
    into = {}  # folded stage -> the kernel stage it folds into
    for stage in graph.topo_order():
        if stage.op_kind != "pointwise":
            continue
        (pred,) = graph.predecessors(stage.name)  # as ops.check_roles holds it
        kernel = into.get(pred, pred)
        if ops.record(graph.node(kernel)).kernel_dims:
            into[stage.name] = kernel
    if not into:
        return graph, []
    fused = {}
    for name, kernel in into.items():
        if kernel not in fused:
            fused[kernel] = copy.copy(graph.node(kernel))
            fused[kernel].params = dict(fused[kernel].params)
        params = fused[kernel].params
        params["post"] = params.get("post", ()) + ((name, graph.node(name).params["fn"]),)
    nodes = [fused.get(st.name, st) for st in graph.nodes if st.name not in into]
    edges = [(into.get(a, a), b) for a, b in graph.edges if b not in into]
    actions = [RepairAction("fuse", {"stage": name, "into": kernel})
               for name, kernel in into.items()]
    return PipelineGraph(nodes, edges, shared_windows=list(graph.shared_windows)), actions


def share_windows(graph: PipelineGraph, group):
    """Rewrite a tee's kernel branches to read one shared window.

    All branches get window w = max kernel depth; a branch with kernel
    depth k_b advances with stride w - k_b + 1 and emits its batch of
    valid centers per step. Returns (graph, action), or None when any
    branch head has no kernel taps.
    """
    members = [graph.node(n) for n in group]
    if any(ops.record(st).kernel_dims is None for st in members):
        return None
    w = max(st.k_z for st in members)
    new = _copy_graph(graph)
    strides = []
    for st in new.nodes:
        if st.name in group:
            st.w = w
            st.s = w - st.k_z + 1
            strides.append(st.s)
    new.shared_windows.append(SharedWindowGroup(tuple(group), w))
    action = RepairAction("share_window", {"group": tuple(group), "w": w,
                                           "strides": tuple(strides)})
    return new, action


def _set_window(st: PlanStage, w: int):
    st.w, st.s = w, w - st.k_z + 1


def _copy_graph(graph: PipelineGraph) -> PipelineGraph:
    nodes = []
    for st in graph.nodes:
        c = copy.copy(st)
        c.params = dict(st.params)
        nodes.append(c)
    return PipelineGraph(nodes, graph.edges,
                         shared_windows=list(graph.shared_windows))


def _minimized(graph: PipelineGraph, meta: VolumeMeta):
    """Copy of the graph with every tunable window at its minimum, its k_z.

    Returns (graph, tunables, metas): the copy, its stages whose op record
    is tunable in topo order (shared-window members stay fixed), and each
    stage's (input, output) geometry. A window is capped at its input
    depth, and no geometry depends on a window.
    """
    shared_members = {n for grp in graph.shared_windows for n in grp.members}
    g = _copy_graph(graph)
    metas = propagate_meta(g, meta)
    tunables = [st for st in g.topo_order()
                if ops.record(st).tunable and st.name not in shared_members]
    for st in tunables:
        _set_window(st, min(st.k_z, metas[st.name][0].depth))
    return g, tunables, metas


def optimize_windows(graph: PipelineGraph, meta: VolumeMeta, budget: Budget,
                     concurrent: bool = False):
    """Pick window sizes maximizing memory use subject to the budget.

    Larger windows mean fewer, bigger steps, so the objective grows every
    tunable window (reads, pointwise stages, histograms and kernels, as
    their op records say) as far as the ledger allows. Windows start at
    their minima, each stage's k_z; if even that overflows the budget,
    returns None. Ties go to upstream stages, which gate the sweep. Each
    window_resize action goes from a given window to its grown one.

    Growth is solved, not searched. Every ledger term is affine and
    nondecreasing in its own stage's window w (read and pointwise windows,
    the w - k_z + 1 kernel outputs, the concurrent window step) and
    independent of every other window. So growing one window never frees
    room for another, and the slice-by-slice greedy (give the next slice
    to the first stage it still fits) ends exactly where this does: take
    the stages upstream first and give each the largest window that fits,
    up to its input depth. The slope, the stage's own term at w + 1 less
    its term at w, divides the remaining headroom, so the solve prices
    each tunable stage twice. The minima's peak and the final check are
    each the sum of the stages' terms, as the segment's ledger sums them.
    """
    g, tunables, metas = _minimized(graph, meta)

    def segment_peak():
        return sum(_cost(_term(st, *metas[st.name], g, concurrent)) for st in g.validate().nodes)

    limit = budget.cap - len(g.nodes) * budget.overhead_epsilon - 1  # largest peak that fits
    peak = segment_peak()
    if peak > limit:
        return None
    for st in tunables:
        w, cap = st.w, metas[st.name][0].depth
        if w >= cap:
            continue
        before = _cost(_term(st, *metas[st.name], g, concurrent))
        _set_window(st, w + 1)
        slope = _cost(_term(st, *metas[st.name], g, concurrent)) - before
        new_w = cap if slope == 0 else min(cap, w + (limit - peak) // slope)
        _set_window(st, new_w)
        peak += slope * (new_w - w)
    if segment_peak() > limit:
        raise PlanningError("window solve overshot the budget")
    original = {st.name: st.w for st in graph.nodes}
    actions = [RepairAction("window_resize",
                            {"stage": st.name, "old_w": original[st.name],
                             "new_w": st.w})
               for st in g.topo_order() if st.w != original[st.name]]
    return g, actions


def _mk_mid_read(path: str, meta: VolumeMeta, idx: int) -> PlanStage:
    return PlanStage(f"midread{idx}", "read", params={"dir": path, "meta": meta})


def _mk_mid_write(path: str, idx: int) -> PlanStage:
    return PlanStage(f"midwrite{idx}", "write", params={"dir": path, "internal": True})


@dataclass
class MidwriteResult:
    segments: list
    actions: list
    feasible: bool
    violating: Optional[str] = None


def insert_midwrites(graph: PipelineGraph, meta: VolumeMeta, budget: Budget,
                     tmpdir, concurrent: bool = False) -> MidwriteResult:
    """Split an oversized chain at write/read checkpoints.

    Each round keeps the longest prefix that fits together with a write of
    the intermediate volume, then recurses on a read-initiated suffix.
    Splitting as late as possible yields the minimum number of splits
    because prefix cost grows monotonically with length. Every split costs
    one full extra write and read of the intermediate volume.

    A segment's peak is the sum of its stages' ledger terms, and a stage
    after a mid-read sees the geometry it saw before the split. So the
    chain is priced once, and each cut j is tested in O(1): the round's
    head, the prefix sum of the terms after it up to j, the mid-write's
    own term, and one allowance per stage. The mid-write holds a slice of
    the volume at the cut, which a crop, pad, permute or f32-output
    convolve changes, so the round does not take prefix plus mid-write to
    grow with j: it keeps the last j that fits, and stops looking once the
    prefix alone overflows, as no term is negative.
    """
    stages = [copy.copy(st) for st in graph.validate().linear_order()]
    whole = chain(*stages)  # shares no windows, as no segment does
    metas = propagate_meta(whole, meta)

    def cost(st, in_meta):
        return _cost(_term(st, in_meta, ops.out_meta(st, in_meta), whole, concurrent))

    def fits(peak, n_stages):
        return peak + n_stages * budget.overhead_epsilon < budget.cap

    def peak(j):  # the round's head and stages[lo:j + 1]
        return head_cost + prefix[j + 1] - prefix[lo]

    # prefix[i]: the terms of stages[:i]
    prefix = [0, *itertools.accumulate(cost(st, metas[st.name][0]) for st in stages)]
    n = len(stages)
    segments = []
    actions = []
    head, head_cost, lo = stages[0], prefix[1], 1  # a round runs head, stages[lo:]
    while True:
        if fits(peak(n - 1), n - lo + 1):
            segments.append(chain(head, *stages[lo:]))
            break
        path = str(Path(tmpdir) / f"mid{len(actions)}")
        mid = _mk_mid_write(path, len(actions))
        best = None
        for j in range(lo, n - 1):
            if not fits(peak(j), j - lo + 3):
                break
            if fits(peak(j) + cost(mid, metas[stages[j].name][1]), j - lo + 3):
                best = j
        if best is None:
            violating = stages[lo] if lo < n else head
            return MidwriteResult(segments, actions, False, violating.name)
        inter_meta = metas[stages[best].name][1]
        inter_bytes = inter_meta.voxels * inter_meta.dtype.byte_width
        segments.append(chain(head, *stages[lo:best + 1], mid))
        # one full extra write plus read of the intermediate volume
        actions.append(RepairAction("midwrite", {"after": stages[best].name,
                                                 "path": path,
                                                 "bytes": 2 * inter_bytes}))
        head = _mk_mid_read(path, inter_meta, len(actions) - 1)
        head_cost, lo = cost(head, inter_meta), best + 1
    return MidwriteResult(segments, actions, True)


# ---------------------------------------------------------------------------
# the full planning pass
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """Executable result of planning: budget-checked pipeline segments and
    the ledger that proves them."""

    segments: list
    ledger: MemoryLedger

    @property
    def segment_metas(self) -> list:
        """The volume geometry each segment reads, off the read it starts at."""
        return [seg.source().params["meta"] for seg in self.segments]

    @property
    def pooled(self) -> frozenset:
        """The stages whose calls a run at threads > 1 hands to the pool,
        one window ahead: those the final ledger charges the window step.
        An infeasible plan keeps the solve's reservation and pools none."""
        if self.verdict == "infeasible":
            return frozenset()
        return frozenset(row.name for row in self.ledger.rows if row.step)

    @property
    def verdict(self) -> str:
        return self.ledger.verdict

    @property
    def actions(self) -> list:
        return self.ledger.actions

    def render(self) -> str:
        return self.ledger.render()


def plan(graph: PipelineGraph, budget: Budget, tmpdir: str = ".",
         grow_windows: bool = True, concurrent: bool = False) -> Plan:
    """Prove the pipeline fits the budget, or repair it.

    A stage in the wrong place (ops.check_roles: a sink mid-chain, a chain
    that starts at no read or ends in no sink) is refused first, before
    any split, directory or voxel. The geometry is the source read's.

    Then, on any budget, each pointwise stage whose one producer is a
    kernel stage folds into it (fuse_pointwise), with a fuse action each,
    and every step below plans the fused graph. A pointwise stage after a
    read, a tee, a join, a crop, a pad, a permute or an unfused pointwise
    stage stays a stage of its own.

    Repair order, each step only while the plan still overflows: share
    branch windows, take every tunable window at its minimum (with
    grow_windows off, keep the declared windows), then split the chain
    at mid-writes; a branched pipeline cannot split. Last, with
    grow_windows on, every segment's windows grow from their minima into
    the budget left; a stage gets at most one window_resize action, from
    its declared window, in a split chain too. Infeasible is a
    verdict, not an error: the plan keeps the graph with its shared
    windows, and a note names why.

    With concurrent on, every step above reserves the window step for
    each kernel stage outside a shared-window group. Then the plan pools
    (Plan.pooled) the ones whose calls pay for a handoff at their final
    windows: more than one call per sweep, each of at least INLINE_WORK
    output voxels x counted taps. The ledger charges the step to those
    alone, and a run at threads > 1 pools exactly them.
    """
    graph.validate()
    ops.check_roles(graph)
    graph, actions = fuse_pointwise(graph)
    meta = graph.source().params["meta"]
    led = estimate_pipeline(graph, meta, budget, concurrent)
    verdict = "fits"
    segments = [graph]
    if not led.fits():
        for group in graph.branch_groups():
            shared = share_windows(graph, group)
            if shared is not None:
                cand, act = shared
                cand_led = estimate_pipeline(cand, meta, budget, concurrent)
                if cand_led.formula_peak < led.formula_peak:
                    graph, led, actions = cand, cand_led, actions + [act]
        verdict = "repaired"
        segments = [graph]
        least = _minimized(graph, meta)[0] if grow_windows else graph
        if not estimate_pipeline(least, meta, budget, concurrent).fits():
            res = (insert_midwrites(least, meta, budget, tmpdir, concurrent)
                   if graph.is_linear() else None)
            if res is None or not res.feasible:
                led.notes.append(
                    f"violating stage {res.violating}: no feasible split" if res
                    else "branched pipeline over budget; midwrites apply to chains only")
                led.actions = actions
                return Plan([graph], led)
            actions += res.actions
            segments = res.segments
            # the split ran on the minima; as growth starts from them, each
            # stage carries its declared window into it, to be listed from it
            declared = {st.name: (st.w, st.s) for st in graph.nodes}
            for st in (st for seg in segments for st in seg.nodes):
                st.w, st.s = declared.get(st.name, (st.w, st.s))
    # each segment starts at a read with its meta, after a mid-write the mid-read
    metas = [seg.source().params["meta"] for seg in segments]
    if grow_windows:
        grown = [optimize_windows(seg, m, budget, concurrent)
                 for seg, m in zip(segments, metas)]
        segments = [seg for seg, _ in grown]
        actions += [act for _, acts in grown for act in acts]
    ledger = _ledger(segments, metas, budget, concurrent, final=True)
    ledger.verdict = verdict
    ledger.actions = actions
    return Plan(segments, ledger)

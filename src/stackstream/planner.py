"""Static memory estimation, budget checking and plan repair.

Estimates are closed-form per stage and purely additive across a pipeline
(an upper bound that is always sound); the only subtractive entries are
explicit sharing credits from shared-window branch groups. A plan fits
when the additive peak plus one fixed overhead allowance per stage stays
inside the budget. Two repair levers bring an oversized pipeline back
under budget: resizing sliding windows toward their minima, and splitting
the chain at a mid-write checkpoint that spills an intermediate volume to
disk and reads it back.

Planning is static: it consumes volume geometry only and never reads a
voxel, so a plan is explainable before any I/O is spent.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import ops
from .core import (Budget, MemEstimate, PipelineGraph, PlanStage,
                   PlanningError, SharedWindowGroup, VolumeMeta, chain,
                   slice_bytes)
from .ops import KERNEL_OPS, Kernel3D


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

    A stage's own `mem` wins; otherwise its kind's `ops.OPS` record prices
    it. Windowed transforms hold w input slices; kernel stages emit the
    w - k_z + 1 valid centers per step, batch stages emit w. Read/write
    endpoints are modeled at window granularity. Chunk adapters charge
    their layer assembly buffers as internal bytes.
    """
    if stage.mem is not None:
        return stage.mem(meta)
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

    def line(self) -> str:
        return (f"stage {self.name} op={self.op} w={self.w} s={self.s} "
                f"alpha={self.alpha} beta={self.beta} gamma={self.gamma} "
                f"credit={self.credit} running={self.running}")


@dataclass
class MemoryLedger:
    """Per-stage accounting the planner proves and the runtime verifies."""

    rows: list
    budget: Budget
    volume: VolumeMeta
    credits: int = 0
    formula_peak: int = 0
    stage_count: int = 0
    queue_bytes: int = 0
    verdict: str = "fits"
    actions: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    segment_peaks: list = field(default_factory=list)

    @property
    def peak_estimate(self) -> int:
        return self.formula_peak

    @property
    def overhead(self) -> int:
        return self.stage_count * self.budget.overhead_epsilon

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
        for note in self.notes:
            lines.append("note " + note)
        return "\n".join(lines)


@dataclass(frozen=True)
class RepairAction:
    """One semantics-preserving plan rewrite."""

    kind: str   # midwrite | window_resize | share_window
    detail: dict

    def line(self) -> str:
        d = self.detail
        if self.kind == "midwrite":
            extra = f" extra_io={d['bytes']} B" if "bytes" in d else ""
            return f"midwrite after {d['after']} path={d['path']}{extra}"
        if self.kind == "window_resize":
            return f"window_resize stage={d['stage']} w={d['old_w']}->{d['new_w']}"
        if self.kind == "share_window":
            strides = ",".join(str(s) for s in d["strides"])
            return (f"share_window group={'+'.join(d['group'])} w={d['w']} "
                    f"strides={strides}")
        return self.kind


def _segment_rows(graph: PipelineGraph, meta: VolumeMeta, segment: int,
                  concurrent: bool):
    metas = propagate_meta(graph, meta)
    shared_extra = {}
    for grp in graph.shared_windows:
        for i, name in enumerate(grp.members):
            if i > 0:
                shared_extra[name] = "alpha"
    rows = []
    running = 0
    credits = 0
    queue_bytes = 0
    for stage in graph.topo_order():
        in_meta = metas[stage.name][0]
        est = estimate_stage(stage, in_meta)
        credit = est.input_bytes if shared_extra.get(stage.name) == "alpha" else 0
        running += est.total() - credit
        credits += credit
        rows.append(LedgerRow(segment, stage.name, stage.op_kind, stage.w,
                              stage.s, est.input_bytes, est.output_bytes,
                              est.internal_bytes, credit, running))
        if concurrent and graph.successors(stage.name):
            batch = ops.record(stage).batch(stage)
            queue_bytes += batch * slice_bytes(metas[stage.name][1])
    return rows, running, credits, queue_bytes


def estimate_pipeline(graph: PipelineGraph, meta: VolumeMeta, budget: Budget,
                      concurrent: bool = False) -> MemoryLedger:
    """Additive ledger over the sweep; verdict fits or infeasible.

    Memory across co-resident stages adds; shared-window groups credit the
    duplicated input windows back. In concurrent mode every internal edge
    additionally buys one handoff batch of queue space.
    """
    graph.validate()
    rows, running, credits, queue_bytes = _segment_rows(graph, meta, 1, concurrent)
    led = MemoryLedger(rows=rows, budget=budget, volume=meta, credits=credits,
                       formula_peak=running + queue_bytes,
                       stage_count=len(graph.nodes), queue_bytes=queue_bytes,
                       segment_peaks=[running + queue_bytes])
    _flag_stride_gaps(graph, led)
    led.verdict = "fits" if led.fits() else "infeasible"
    return led


def _flag_stride_gaps(graph: PipelineGraph, led: MemoryLedger):
    for st in graph.topo_order():
        if st.s > st.w:
            led.notes.append(f"stage {st.name} stride {st.s} exceeds window "
                             f"{st.w} (slice gaps)")


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


def share_windows(graph: PipelineGraph, group):
    """Rewrite a tee's kernel branches to read one shared window.

    All branches get window w = max kernel depth; a branch with kernel
    depth k_b advances with stride w - k_b + 1 and emits its batch of
    valid centers per step. Returns (graph, action), or None when any
    branch head is not a windowed kernel stage.
    """
    members = [graph.node(n) for n in group]
    if any(st.op_kind not in KERNEL_OPS for st in members):
        return None
    w = max(st.k_z for st in members)
    nodes = []
    strides = []
    for st in graph.nodes:
        if st.name in group:
            st = copy.copy(st)
            st.params = dict(st.params)
            st.w = w
            st.s = w - st.k_z + 1
            st.tunable = False
            strides.append(st.s)
        nodes.append(st)
    shared = list(graph.shared_windows) + [SharedWindowGroup(tuple(group), w)]
    new = PipelineGraph(nodes, list(graph.edges), shared_windows=shared)
    action = RepairAction("share_window", {"group": tuple(group), "w": w,
                                           "strides": tuple(strides)})
    return new, action


def _set_window(st: PlanStage, w: int):
    st.w = w
    st.s = (w - st.k_z + 1) if st.op_kind in KERNEL_OPS else w


def _copy_graph(graph: PipelineGraph) -> PipelineGraph:
    nodes = []
    for st in graph.nodes:
        c = copy.copy(st)
        c.params = dict(st.params)
        nodes.append(c)
    return PipelineGraph(nodes, list(graph.edges),
                         shared_windows=list(graph.shared_windows))


def _minimized(graph: PipelineGraph, meta: VolumeMeta):
    """Copy of the graph with every tunable window at its minimum.

    Returns (graph, tunables, caps): the copy, its tunable stages in topo
    order (shared-window members stay fixed), and each stage's window cap,
    the depth of its input volume.
    """
    shared_members = {n for grp in graph.shared_windows for n in grp.members}
    g = _copy_graph(graph)
    metas = propagate_meta(g, meta)
    caps = {st.name: metas[st.name][0].depth for st in g.nodes}
    tunables = [st for st in g.topo_order()
                if st.tunable and st.name not in shared_members]
    for st in tunables:
        _set_window(st, min(st.w_min, caps[st.name]))
    return g, tunables, caps


def optimize_windows(graph: PipelineGraph, meta: VolumeMeta, budget: Budget,
                     grow: bool = True, concurrent: bool = False):
    """Pick window sizes maximizing memory use subject to the budget.

    Larger windows mean fewer, bigger steps, so the objective grows every
    tunable window as far as the ledger allows. Windows start at their
    minima; if even that overflows the budget, returns None so the caller
    can fall back to mid-write splits. Ties go to upstream stages, which
    gate the sweep.

    Growth is solved, not searched. Every ledger term is affine and
    nondecreasing in each window w (endpoint and pointwise windows, the
    w - k_z + 1 kernel outputs, the concurrent handoff batch), and a
    custom estimate sees only geometry. So growing one window never frees
    room for another, and the slice-by-slice greedy (give the next slice
    to the first stage it still fits) ends exactly where this does: take
    the stages upstream first and give each the largest window that fits,
    up to its input depth. The slope peak(w + 1) - peak(w), one ledger
    evaluation per stage, divides the remaining headroom; one final
    evaluation proves the result fits.
    """
    g, tunables, caps = _minimized(graph, meta)
    led = estimate_pipeline(g, meta, budget, concurrent)
    if not led.fits():
        return None
    if grow:
        peak = led.formula_peak
        limit = budget.cap - led.overhead - 1  # largest peak that fits
        for st in tunables:
            w, cap = st.w, caps[st.name]
            if w >= cap:
                continue
            _set_window(st, w + 1)
            slope = estimate_pipeline(g, meta, budget, concurrent).formula_peak - peak
            new_w = cap if slope == 0 else min(cap, w + (limit - peak) // slope)
            _set_window(st, new_w)
            peak += slope * (new_w - w)
        if not estimate_pipeline(g, meta, budget, concurrent).fits():
            raise PlanningError("window solve overshot the budget")
    original = {st.name: st.w for st in graph.nodes}
    actions = [RepairAction("window_resize",
                            {"stage": st.name, "old_w": original[st.name],
                             "new_w": st.w})
               for st in g.topo_order() if st.w != original[st.name]]
    return g, actions


def _mk_mid_read(path: str, meta: VolumeMeta, idx: int) -> PlanStage:
    return PlanStage(name=f"midread{idx}", op_kind="read", w=1, s=1,
                     params={"dir": path, "meta": meta}, w_min=1, tunable=True)


def _mk_mid_write(path: str, idx: int) -> PlanStage:
    return PlanStage(name=f"midwrite{idx}", op_kind="write", w=1, s=1,
                     params={"dir": path}, w_min=1, tunable=True)


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
    """
    stages = graph.linear_order()
    tmpdir = str(tmpdir)
    segments = []
    actions = []
    part = 0
    cur = [copy.copy(st) for st in stages]
    cur_meta = meta

    def seg_fits(seg_stages, m):
        return estimate_pipeline(chain(*seg_stages), m, budget, concurrent).fits()

    while True:
        if seg_fits(cur, cur_meta):
            segments.append(chain(*cur))
            break
        metas = propagate_meta(chain(*cur), cur_meta)
        path = str(Path(tmpdir) / f"mid{part}")
        best = None
        for j in range(1, len(cur) - 1):
            prefix = cur[:j + 1] + [_mk_mid_write(path, part)]
            if seg_fits(prefix, cur_meta):
                best = j
        if best is None:
            violating = cur[1].name if len(cur) > 1 else cur[0].name
            return MidwriteResult(segments, actions, False, violating)
        inter_meta = metas[cur[best].name][1]
        inter_bytes = inter_meta.voxels * inter_meta.dtype.byte_width
        segments.append(chain(*cur[:best + 1], _mk_mid_write(path, part)))
        # one full extra write plus read of the intermediate volume
        actions.append(RepairAction("midwrite", {"after": cur[best].name,
                                                 "path": path,
                                                 "bytes": 2 * inter_bytes}))
        cur = [_mk_mid_read(path, inter_meta, part)] + cur[best + 1:]
        cur_meta = inter_meta
        part += 1
    return MidwriteResult(segments, actions, True)


# ---------------------------------------------------------------------------
# the full planning pass
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """Executable result of planning: budget-checked pipeline segments."""

    segments: list
    segment_metas: list
    budget: Budget
    ledger: MemoryLedger
    actions: list
    verdict: str

    def render(self) -> str:
        return self.ledger.render()


def _combined_ledger(segments, metas, budget, concurrent) -> MemoryLedger:
    rows = []
    peaks = []
    credits = 0
    queues = 0
    stages = 0
    for i, (g, m) in enumerate(zip(segments, metas), start=1):
        seg_rows, peak, cr, qb = _segment_rows(g, m, i, concurrent)
        rows.extend(seg_rows)
        peaks.append(peak + qb)
        credits += cr
        queues += qb
        stages = max(stages, len(g.nodes))
    led = MemoryLedger(rows=rows, budget=budget, volume=metas[0],
                       credits=credits, formula_peak=max(peaks),
                       stage_count=stages, queue_bytes=queues,
                       segment_peaks=peaks)
    for g in segments:
        _flag_stride_gaps(g, led)
    return led


def plan(graph: PipelineGraph, budget: Budget, meta: Optional[VolumeMeta] = None,
         tmpdir: str = ".", grow_windows: bool = True,
         concurrent: bool = False) -> Plan:
    """Prove the pipeline fits the budget, or repair it.

    Repair order: share branch windows, resize windows toward minima, then
    split the chain at mid-writes. Infeasible is a verdict, not an error.
    """
    graph.validate()
    if meta is None:
        meta = graph.source().params.get("meta")
        if meta is None:
            raise PlanningError("no volume geometry: pass meta or use a read source")
    actions = []
    g = graph
    base = estimate_pipeline(g, meta, budget, concurrent)
    verdict = "fits" if base.fits() else "infeasible"
    if verdict != "fits":
        for group in g.branch_groups():
            shared = share_windows(g, group)
            if shared is not None:
                cand, act = shared
                if estimate_pipeline(cand, meta, budget, concurrent).formula_peak < \
                        estimate_pipeline(g, meta, budget, concurrent).formula_peak:
                    g, actions = cand, actions + [act]
        if estimate_pipeline(g, meta, budget, concurrent).fits():
            verdict = "repaired"
    segments = [g]
    metas = [meta]
    if verdict == "infeasible" and grow_windows:
        shrunk = optimize_windows(g, meta, budget, grow=False, concurrent=concurrent)
        if shrunk is not None:
            g, resize_actions = shrunk
            actions += resize_actions
            segments = [g]
            verdict = "repaired"
    if verdict == "infeasible":
        if g.is_linear():
            gm = g if not grow_windows else _minimized(g, meta)[0]
            res = insert_midwrites(gm, meta, budget, tmpdir, concurrent)
            if res.feasible:
                actions += res.actions
                segments = res.segments
                verdict = "repaired"
            else:
                led = estimate_pipeline(g, meta, budget, concurrent)
                led.verdict = "infeasible"
                led.notes.append(f"violating stage {res.violating}: no feasible split")
                led.actions = actions
                return Plan([g], [meta], budget, led, actions, "infeasible")
        else:
            led = estimate_pipeline(g, meta, budget, concurrent)
            led.verdict = "infeasible"
            led.notes.append("branched pipeline over budget; midwrites apply to chains only")
            led.actions = actions
            return Plan([g], [meta], budget, led, actions, "infeasible")
    # recompute metas per segment (midwrites changed the chain heads)
    metas = []
    m = meta
    for seg in segments:
        src = seg.source()
        m_in = src.params.get("meta", m)
        metas.append(m_in)
        pm = propagate_meta(seg, m_in)
        last = seg.topo_order()[-1]
        m = pm[last.name][1]
    # grow windows inside whatever budget is left, segment by segment
    if grow_windows:
        grown_segments = []
        for seg, m_in in zip(segments, metas):
            res = optimize_windows(seg, m_in, budget, grow=True,
                                   concurrent=concurrent)
            if res is None:
                grown_segments.append(seg)
            else:
                seg2, acts = res
                grown_segments.append(seg2)
                actions += acts
        segments = grown_segments
    ledger = _combined_ledger(segments, metas, budget, concurrent)
    ledger.verdict = verdict
    ledger.actions = actions
    return Plan(segments, metas, budget, ledger, actions, verdict)

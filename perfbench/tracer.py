"""Span tracer wrapped around the calls into each stackstream module.

The program is not edited: install() replaces module attributes with
timing wrappers and uninstall() puts the originals back. Every span
records its name, start, end, parent and thread, plus the pipeline stage
it works for; spans stay in memory and write() saves them once the run is
over. A span's self time is its duration minus the durations of its
children, which on one thread are disjoint and lie inside it.

The first part of a span name is its layer (planner, ops, runtime,
stream, core, io); `bench.run` is the benchmark's own root span around
one plan-and-execute call. The self time of the two entry points,
`planner.plan` and `runtime.execute_plan`, is the code that no wrapper
covers: it counts as unattributed, not as a layer's time.

Stages are reported under labels the benchmark controls, not under the
engine's own stage names: `s<k>` is the k-th stage of the parsed spec,
and `inserted` gathers the stages the planner adds (mid-writes and
mid-reads).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter

NAME, T0, T1, PARENT, STAGE, CHILD, N, V, TID = range(9)
LAYERS = ("planner", "ops", "runtime", "stream", "core", "io")
KERNELS = ("morph_window", "gaussian_window", "conv_window")
# spans that stand for one pull or step at a stage's own boundary
STAGE_BOUNDARY = ("stream.pull", "runtime.tee", "runtime.sink")
# spans whose self time no wrapper explains
ENTRY_POINTS = ("planner.plan", "runtime.execute_plan")
INSERTED = "inserted"
_MISSING = object()
_GENERIC_PULL = ("stream.pull", None, 0)


class _TracedFile:
    """Read side of a file opened by the io module, with timed reads."""

    def __init__(self, tracer, fh):
        self._tracer = tracer
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, size=-1):
        rec = self._tracer.begin("io.read")
        try:
            data = self._fh.read(size)
        finally:
            self._tracer.end(rec)
        rec[N] = len(data)
        return data


class Tracer:
    def __init__(self, midwrite_root: str, stage_labels):
        self.spans = []
        self.midwrite_root = midwrite_root
        self.stage_labels = list(stage_labels)
        self._label = {}     # engine stage name -> benchmark label
        self._tls = threading.local()
        self._patches = []
        self._streams = {}   # stream name -> (span name, stage, boundary flag)

    # -- spans ---------------------------------------------------------------

    def begin(self, name, stage=None, n=0, v=0):
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        parent = stack[-1] if stack else None
        if stage is None and parent is not None:
            stage = parent[STAGE]
        rec = [name, 0.0, 0.0, parent, stage, 0.0, n, v, threading.get_ident()]
        stack.append(rec)
        self.spans.append(rec)
        rec[T0] = perf_counter()
        return rec

    def end(self, rec):
        t = perf_counter()
        rec[T1] = t
        self._tls.stack.pop()
        if rec[PARENT] is not None:
            rec[PARENT][CHILD] += t - rec[T0]

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr, make, shadow=False):
        """Replace owner.attr with make(original). The attribute must exist,
        so that a wrapper whose target the engine renamed fails the run,
        unless shadow is set: a module global that hides a builtin."""
        if not shadow and not hasattr(owner, attr):
            raise AttributeError(f"{owner!r} has no {attr!r} to trace")
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(getattr(owner, attr, None)))

    def _timed(self, name, count=None, stage_of=None):
        def make(fn):
            def traced(*args, **kwargs):
                n, v = count(*args) if count else (0, 0)
                rec = self.begin(name, stage_of(*args) if stage_of else None, n, v)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(rec)
            return traced
        return make

    def install(self, planner, runtime, ops, stream, sio, alloc):
        t = self._timed
        for fn in ("plan", "estimate_pipeline", "propagate_meta",
                   "optimize_windows", "insert_midwrites"):
            self._patch(planner, fn, t("planner." + fn))

        def window_count(win, *args):
            lo, hi = args[-2], args[-1]
            return hi - lo + 1, (hi - lo + 1) * win[0].data.size

        for fn in KERNELS:
            self._patch(ops, fn, t("ops." + fn, window_count))
        for fn in ("apply_threshold", "apply_square"):
            self._patch(ops, fn, t("ops.pointwise", lambda arr, *_: (1, arr.size)))
        self._patch(ops, "saturating_add", t("runtime.zip_add"))
        self._patch(runtime, "_cast_array", t("runtime.cast"))
        self._patch(runtime._ThreadHandoff, "_put",
                    t("runtime.handoff.put_wait", stage_of=lambda h, _item: h.name))
        self._patch(runtime, "execute_plan", self._make_execute)
        for fn in ("_write_steps", "_write_chunks_steps"):
            self._patch(runtime, fn, self._make_sink)
        self._patch(stream.Stream, "pull", self._make_pull)
        for fn in ("new_slice", "retain", "release"):
            self._patch(alloc, fn, t("core." + fn))
        self._patch(sio, "open", lambda _builtin: self._open, shadow=True)
        self._patch(sio, "_atomic_write",
                    t("io.write", lambda directory, _name, data: (
                        len(data),
                        len(data) if str(directory).startswith(self.midwrite_root)
                        else 0)))

    def uninstall(self):
        for owner, attr, prev in reversed(self._patches):
            if prev is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, prev)
        self._patches.clear()

    def _open(self, path, mode="r", *args, **kwargs):
        if "r" not in mode:
            return open(path, mode, *args, **kwargs)
        rec = self.begin("io.read", v=1)
        try:
            fh = open(path, mode, *args, **kwargs)
        finally:
            self.end(rec)
        return _TracedFile(self, fh)

    def _bind(self, plan):
        """Map the plan's stream names to the stages they belong to."""
        names = self._streams
        names.clear()
        for seg in plan.segments:
            for st in seg.nodes:
                names[st.name] = ("stream.pull", st.name, 1)
                names["thread:" + st.name] = ("runtime.handoff.get_wait", None, 0)
                if st.op_kind == "read":
                    names[f"read {st.params['dir']}"] = ("stream.pull", st.name, 1)
                elif st.op_kind == "read_chunks":
                    names[f"readInChunks {st.params['dir']}"] = ("stream.pull", st.name, 1)
                elif st.op_kind == "tee":
                    for succ in seg.successors(st.name):
                        names[f"tee->{succ}"] = ("runtime.tee", st.name, 1)

    def _make_execute(self, orig):
        def execute_plan(plan, *args, **kwargs):
            self._bind(plan)
            rec = self.begin("runtime.execute_plan")
            try:
                return orig(plan, *args, **kwargs)
            finally:
                self.end(rec)
        return execute_plan

    def _make_pull(self, orig):
        names = self._streams

        def pull(s):
            name, stage, boundary = names.get(s.name, _GENERIC_PULL)
            rec = self.begin(name, stage, boundary)
            try:
                return orig(s)
            finally:
                self.end(rec)
        return pull

    def _make_sink(self, orig):
        def steps(stage, *args):
            gen = orig(stage, *args)

            def traced():
                try:
                    while True:
                        rec = self.begin("runtime.sink", stage.name, 1)
                        try:
                            next(gen)
                        except StopIteration:
                            rec[N] = 0
                            return
                        finally:
                            self.end(rec)
                        yield
                finally:
                    gen.close()
            return traced()
        return steps

    # -- results -------------------------------------------------------------

    def summarize(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        incl = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        n = defaultdict(int)
        v = defaultdict(int)
        layer_self = defaultdict(float)
        stage_self = defaultdict(float)
        stage_pulls = defaultdict(int)
        main = threading.get_ident()
        root = execute = None
        main_covered = main_staged = 0.0
        for rec in self.spans:
            name = rec[NAME]
            dur = rec[T1] - rec[T0]
            self_t = dur - rec[CHILD]
            if name == "bench.run":
                root = rec
                continue
            if name == "runtime.execute_plan":
                execute = rec
            incl[name] += dur
            own[name] += self_t
            calls[name] += 1
            n[name] += rec[N]
            v[name] += rec[V]
            on_main = rec[TID] == main
            if name not in ENTRY_POINTS:
                layer_self[name.split(".", 1)[0]] += self_t
                if on_main:
                    main_covered += self_t
            stage = rec[STAGE]
            if stage is not None and not name.startswith("runtime.handoff"):
                stage_self[stage] += self_t
            if name in STAGE_BOUNDARY and rec[N]:
                stage_pulls[stage] += 1
            if on_main and stage is not None:
                main_staged += self_t
        wall = root[T1] - root[T0]
        m = {}
        for k in KERNELS + ("pointwise",):
            key = "ops." + k
            m[key + ".s"] = incl[key]
            m[key + ".slices"] = n[key]
            m[key + ".mvox_per_s"] = v[key] / incl[key] / 1e6 if incl[key] else 0.0
        m["runtime.cast.s"] = incl["runtime.cast"]
        m["planner.estimate_pipeline.calls"] = calls["planner.estimate_pipeline"]
        m["planner.estimate_pipeline.s"] = incl["planner.estimate_pipeline"]
        m["planner.propagate_meta.calls"] = calls["planner.propagate_meta"]
        m["planner.optimize_windows.s"] = incl["planner.optimize_windows"]
        m["planner.insert_midwrites.s"] = incl["planner.insert_midwrites"]
        m["stream.pull.calls"] = calls["stream.pull"]
        m["core.new_slice.calls"] = calls["core.new_slice"]
        m["core.alloc.s"] = sum(incl["core." + f] for f in ("new_slice", "retain", "release"))
        m["runtime.handoff.put_wait_s"] = incl["runtime.handoff.put_wait"]
        m["runtime.handoff.get_wait_s"] = own["runtime.handoff.get_wait"]
        m["runtime.tee.s"] = own["runtime.tee"]
        m["runtime.zip_add.s"] = incl["runtime.zip_add"]
        m["io.read.s"] = incl["io.read"]
        m["io.read.bytes"] = n["io.read"]
        m["io.read.opens"] = v["io.read"]
        m["io.write.s"] = incl["io.write"]
        m["io.write.bytes"] = n["io.write"]
        m["io.write.files"] = calls["io.write"]
        m["io.midwrite.bytes"] = v["io.write"]
        for layer in LAYERS:
            m[layer + ".self_s"] = layer_self[layer]
        by_label_self = defaultdict(float)
        by_label_pulls = defaultdict(int)
        for stage, t in stage_self.items():
            by_label_self[self._label.get(stage, INSERTED)] += t
        for stage, k in stage_pulls.items():
            by_label_pulls[self._label.get(stage, INSERTED)] += k
        for label in dict.fromkeys(self.stage_labels + sorted(by_label_self)):
            m[f"stage.{label}.self_s"] = by_label_self[label]
            m[f"stage.{label}.pulls"] = by_label_pulls[label]
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = wall - main_covered
        m["trace.layer_coverage"] = main_covered / wall
        m["trace.stage_coverage"] = main_staged / (execute[T1] - execute[T0])
        m["trace.spans"] = len(self.spans)
        return m

    def write(self, path):
        """Save the recorded spans as tab-separated rows, parents by row id."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\tstage\n")
            for i, rec in enumerate(self.spans):
                parent = ids[id(rec[PARENT])] if rec[PARENT] is not None else ""
                fh.write(f"{i}\t{rec[NAME]}\t{rec[T0]:.9f}\t{rec[T1]:.9f}\t"
                         f"{parent}\t{rec[TID]}\t{rec[STAGE] or ''}\n")

    def reset(self, graph):
        """Forget earlier spans; label the stages of the parsed spec by position."""
        self.spans = []
        self._label = {st.name: f"s{k}" for k, st in enumerate(graph.nodes)}

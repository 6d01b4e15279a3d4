import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from oracles import greedy_windows, scan_midwrites
from stackstream import ops, planner
from stackstream.core import (F32, MIB, U8, U16, Budget, PlanStage,
                              PlanningError, VolumeMeta, chain, slice_bytes,
                              tee_graph)
from stackstream.planner import (estimate_pipeline,
                                 estimate_stage, insert_midwrites, max_width,
                                 optimize_windows, plan, propagate_meta,
                                 share_windows)

META64 = VolumeMeta(64, 64, 64, U8)
SB = slice_bytes(META64)


def mk_read(meta, name="read"):
    return PlanStage(name=name, op_kind="read", w=1, s=1,
                     params={"dir": "unused", "meta": meta})


def mk_write(name="write"):
    return PlanStage(name=name, op_kind="write", w=1, s=1,
                     params={"dir": "unused"})


def budget_slices(n, meta, stages, extra=1):
    """Budget admitting exactly n slices of the given geometry."""
    eps = 1024
    return Budget(n * slice_bytes(meta) + stages * eps + extra, eps)


# ---------------------------------------------------------------------------
# max_width
# ---------------------------------------------------------------------------

def test_max_width_terabyte_example():
    assert max_width(2**40, 10, 1) in (316157, 316158)


def test_max_width_boundary_and_arithmetic():
    assert max_width(11, 10, 1) == 1  # m = (k+1) b
    assert max_width(44 * 10**6, 10, 1) == 2000


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hst.integers(1, 2**50), hst.integers(1, 64), hst.sampled_from([1, 2, 4]))
def test_max_width_bracketing_property(m, k, b):
    if m < (k + 1) * b:
        assert max_width(m, k, b) == 0
        return
    n = max_width(m, k, b)
    assert n * n * (k + 1) * b <= m < (n + 1) * (n + 1) * (k + 1) * b


# ---------------------------------------------------------------------------
# estimate_stage closed forms
# ---------------------------------------------------------------------------

def test_estimate_convolve_single_pass_window():
    # window equal to the kernel depth: (k + 1) slices total
    k = 5
    st = ops.convolve(ops.Kernel3D(np.ones((k, 1, 1))), name="c")
    meta = VolumeMeta(64, 64, 64, F32)
    est = estimate_stage(st, meta)
    assert est.total() == (k + 1) * slice_bytes(meta)


def test_estimate_pointwise():
    st = ops.square(w=3, name="p")
    est = estimate_stage(st, META64)
    assert est.input_bytes == 3 * SB
    assert est.output_bytes == 3 * SB
    assert est.total() == 2 * 3 * SB


def test_estimate_histogram():
    st = ops.histogram_op(w=2, name="h")
    est = estimate_stage(st, META64)
    assert est.total() == 2 * SB + 2 * 256


def test_estimate_read_and_write():
    assert estimate_stage(mk_read(META64), META64).total() == 1 * SB
    assert estimate_stage(mk_write(), META64).total() == 1 * SB


def test_estimate_pointwise_w1_bytes():
    meta = VolumeMeta(4, 4, 4, U8)
    est = estimate_stage(ops.square(w=1, name="p"), meta)
    assert est.total() == 32  # 2 * 16 bytes


def test_estimate_unknown_op_rejected():
    with pytest.raises(PlanningError):
        estimate_stage(PlanStage(name="x", op_kind="mystery"), META64)


# ---------------------------------------------------------------------------
# estimate_pipeline
# ---------------------------------------------------------------------------

def test_chained_convolutions_ledger_k_plus_l_plus_2():
    meta = VolumeMeta(32, 32, 40, F32)
    k, l = 5, 3
    g = chain(ops.convolve(ops.Kernel3D(np.ones((k, 1, 1)) / k), name="ck"),
              ops.convolve(ops.Kernel3D(np.ones((l, 1, 1)) / l), name="cl"))
    led = estimate_pipeline(g, meta, Budget(1 << 30))
    assert led.formula_peak == (k + l + 2) * slice_bytes(meta)
    assert led.peak_slices() == k + l + 2
    assert f"peak_slices {k + l + 2}" in led.render()


def test_identity_pipeline_two_slices():
    g = chain(mk_read(META64), mk_write())
    led = estimate_pipeline(g, META64, Budget(1 << 30))
    assert led.formula_peak == 2 * SB


def test_budget_one_byte_below_estimate_never_fits():
    meta = VolumeMeta(64, 64, 64, F32)
    g = chain(mk_read(meta, "r"), ops.discrete_gaussian(1.0, name="g"), mk_write("w"))
    led = estimate_pipeline(g, meta, Budget(1 << 40))
    eps = 64
    cap = led.formula_peak + 3 * eps  # strict check needs cap > peak + overhead
    tight = Budget(cap, eps)
    led2 = estimate_pipeline(g, meta, tight)
    assert not led2.fits()
    p = plan(g, tight, tmpdir=".", grow_windows=True)
    assert p.verdict in ("repaired", "infeasible")


def test_ledger_text_is_stable():
    g = chain(mk_read(META64), ops.square(name="sq"), mk_write())
    led = estimate_pipeline(g, META64, Budget(1 << 20, 1024))
    expected = """memory ledger budget=1048576 B epsilon=1024 B/stage
volume 64x64x64 u8
segment 1
  stage read op=read w=1 s=1 alpha=0 beta=4096 gamma=0 credit=0 running=4096
  stage sq op=pointwise w=1 s=1 alpha=4096 beta=4096 gamma=0 credit=0 running=12288
  stage write op=write w=1 s=1 alpha=4096 beta=0 gamma=0 credit=0 running=16384
segment_peak 1 16384 B
peak_estimate 16384 B
peak_slices 4
overhead 3072 B (3 stages)
headroom 1029120 B
verdict fits"""
    assert led.render() == expected


def test_stride_gap_flagged_in_notes():
    g = chain(mk_read(META64), ops.sampled_mean(stride=4, name="m"))
    led = estimate_pipeline(g, META64, Budget(1 << 30))
    assert any("stride 4 exceeds window" in n for n in led.notes)


def test_ledger_monotone_in_window():
    meta = VolumeMeta(32, 32, 32, F32)
    prev = 0
    for w in range(3, 12):
        g = chain(ops.convolve(ops.Kernel3D.box(3), w=w, name="c"))
        led = estimate_pipeline(g, meta, Budget(1 << 40))
        assert led.formula_peak >= prev
        prev = led.formula_peak


# ---------------------------------------------------------------------------
# shared windows
# ---------------------------------------------------------------------------

def shared_branch_graph(k, l, meta, sinks=False):
    """A tee into two convolve branches; with sinks, each ends in a write,
    as plan requires."""
    t = ops.tee(name="t")
    a = ops.convolve(ops.Kernel3D(np.ones((k, 1, 1)) / k), name="bk")
    b = ops.convolve(ops.Kernel3D(np.ones((l, 1, 1)) / l), name="bl")
    tails = ([mk_write("wk")], [mk_write("wl")]) if sinks else ([], [])
    return tee_graph([mk_read(meta, "r"), t], [[a, *tails[0]], [b, *tails[1]]])


def test_share_windows_unequal_kernels():
    meta = VolumeMeta(16, 16, 12, F32)
    k, l = 5, 3
    g = shared_branch_graph(k, l, meta)
    shared, action = share_windows(g, ["bk", "bl"])
    led = estimate_pipeline(shared, meta, Budget(1 << 30))
    read_part = slice_bytes(meta)
    assert led.formula_peak - read_part == (2 * k - l + 2) * slice_bytes(meta)
    assert action.detail["w"] == k
    assert action.detail["strides"] == (1, k - l + 1)


def test_share_windows_equal_kernels():
    meta = VolumeMeta(16, 16, 12, F32)
    k = 3
    g = shared_branch_graph(k, k, meta)
    shared, _ = share_windows(g, ["bk", "bl"])
    led = estimate_pipeline(shared, meta, Budget(1 << 30))
    assert led.formula_peak - slice_bytes(meta) == (k + 2) * slice_bytes(meta)


def test_share_windows_skips_non_kernel_branches():
    meta = VolumeMeta(16, 16, 12, F32)
    t = ops.tee(name="t")
    g = tee_graph([mk_read(meta, "r"), t],
                  [[ops.square(name="sq")], [ops.erode(1, name="er")]])
    assert share_windows(g, ["sq", "er"]) is None


# ---------------------------------------------------------------------------
# midwrites
# ---------------------------------------------------------------------------

def pointwise_chain(meta, n, w=1):
    stages = [mk_read(meta)]
    stages += [ops.square(w=w, name=f"f{i}") for i in range(n)]
    stages.append(mk_write())
    return chain(*stages)


def enumerate_min_splits(stages, meta, budget, tmp):
    """Exhaustive oracle: fewest split points making every segment fit."""
    from stackstream.planner import _mk_mid_read, _mk_mid_write

    def seg_fits(seg, m):
        return estimate_pipeline(chain(*seg), m, budget).fits()

    metas = propagate_meta(chain(*stages), meta)
    names = [s.name for s in stages]
    positions = list(range(1, len(stages) - 1))  # split after stages[j]
    for count in range(0, len(positions) + 1):
        for combo in itertools.combinations(positions, count):
            segs = []
            start = 0
            ok = True
            cur_meta = meta
            for idx, j in enumerate(list(combo) + [len(stages) - 1]):
                seg = list(stages[start:j + 1])
                if start > 0:
                    seg = [_mk_mid_read("x", cur_meta, idx)] + seg
                if j < len(stages) - 1:
                    seg = seg + [_mk_mid_write("x", idx)]
                if not seg_fits(seg, cur_meta):
                    ok = False
                    break
                cur_meta = metas[names[j]][1]
                start = j + 1
            if ok:
                return count, combo
    return None, None


def test_midwrite_single_split_at_largest_j(tmp_path):
    meta = VolumeMeta(24, 24, 16, U8)
    g = pointwise_chain(meta, 4)
    # budget: three pointwise stages plus read and the midwrite fit, four do not
    budget = budget_slices(8, meta, stages=6)
    res = insert_midwrites(g, meta, budget, tmp_path)
    assert res.feasible
    assert len(res.actions) == 1
    assert res.actions[0].detail["after"] == "f2"
    # exhaustive enumeration agrees this is minimal and j is the largest
    stages = g.linear_order()
    count, combo = enumerate_min_splits(stages, meta, budget, tmp_path)
    assert count == 1
    js = [j for j in range(1, len(stages) - 1)
          if estimate_pipeline(
              chain(*([s for s in stages[:j + 1]] +
                      [PlanStage(name="mw", op_kind="write", w=1, s=1,
                                 params={"dir": "x"})])),
              meta, budget).fits()]
    assert stages[max(js)].name == "f2"


def test_midwrite_zero_splits_when_budget_ample(tmp_path):
    meta = VolumeMeta(24, 24, 16, U8)
    g = pointwise_chain(meta, 4)
    res = insert_midwrites(g, meta, Budget(1 << 30), tmp_path)
    assert res.feasible and res.actions == []
    assert len(res.segments) == 1


def test_midwrite_infeasible_names_stage(tmp_path):
    meta = VolumeMeta(24, 24, 16, U8)
    g = pointwise_chain(meta, 4)
    # below even the smallest segment (read + one stage + write)
    res = insert_midwrites(g, meta, budget_slices(2, meta, stages=3), tmp_path)
    assert not res.feasible
    assert res.violating == "f0"


def test_midwrite_minimality_on_longer_chains(tmp_path):
    meta = VolumeMeta(16, 16, 8, U8)
    for n, nslices in ((5, 8), (6, 7), (6, 11)):
        g = pointwise_chain(meta, n)
        budget = budget_slices(nslices, meta, stages=n + 2)
        res = insert_midwrites(g, meta, budget, tmp_path)
        stages = g.linear_order()
        count, _ = enumerate_min_splits(stages, meta, budget, tmp_path)
        if count is None:
            assert not res.feasible
        else:
            assert res.feasible
            assert len(res.actions) == count


# ---------------------------------------------------------------------------
# window optimization
# ---------------------------------------------------------------------------

def test_optimize_single_convolve_ten_slice_budget():
    meta = VolumeMeta(16, 16, 40, F32)
    g = chain(ops.convolve(ops.Kernel3D.box(3), name="c"))
    budget = budget_slices(10, meta, stages=1)
    out, actions = optimize_windows(g, meta, budget)
    st = out.node("c")
    assert st.w == 6  # 2w - k_z + 1 <= 10
    assert st.s == 4


def test_optimize_unbounded_budget_caps_at_depth():
    meta = VolumeMeta(16, 16, 40, F32)
    g = chain(ops.convolve(ops.Kernel3D.box(3), name="c"))
    out, _ = optimize_windows(g, meta, Budget(1 << 40))
    assert out.node("c").w == 40


def test_optimize_marginal_slice_goes_to_first_eligible():
    meta = VolumeMeta(16, 16, 16, U8)
    g = chain(mk_read(meta), ops.square(name="p0"), mk_write())
    # minimum windows need 4 slices; grant exactly one more
    budget = budget_slices(5, meta, stages=3)
    out, actions = optimize_windows(g, meta, budget)
    assert out.node("read").w == 2  # first stage whose increment fits
    assert out.node("p0").w == 1
    assert out.node("write").w == 1


def test_optimize_returns_none_when_minimum_overflows():
    meta = VolumeMeta(16, 16, 16, U8)
    g = chain(mk_read(meta), ops.square(name="p0"), mk_write())
    assert optimize_windows(g, meta, budget_slices(3, meta, stages=3)) is None


# Generated pipelines for the solve-versus-greedy check.
STAGE_MAKERS = {"square": lambda n: ops.square(name=n),
                "threshold": lambda n: ops.threshold(100, name=n),
                "erode": lambda n: ops.erode(1, name=n),
                "dilate": lambda n: ops.dilate(1, name=n),
                "median": lambda n: ops.median_filter(1, name=n),
                "gauss3": lambda n: ops.discrete_gaussian(0.3, name=n),
                "gauss7": lambda n: ops.discrete_gaussian(0.8, name=n),
                "box3": lambda n: ops.convolve(ops.Kernel3D.box(3), name=n)}


@hst.composite
def window_cases(draw):
    """(graph, meta, budget, concurrent): a chain of 0-8 ops or a tee with
    two branches, joined or each ending in a sink; depth at most 64."""
    dtype = draw(hst.sampled_from([U8, U16, F32]))
    # convolve emits f32, so only an f32 input keeps joined branches alike
    kinds = [k for k in STAGE_MAKERS if k != "box3" or dtype == F32]
    names = itertools.count()

    def make(kind):
        return STAGE_MAKERS[kind](f"s{next(names)}")

    def ops_list(lo, hi):
        return [make(k) for k in draw(hst.lists(hst.sampled_from(kinds),
                                                min_size=lo, max_size=hi))]

    shape = draw(hst.sampled_from(["chain", "tee", "join"]))
    if shape == "chain":
        body = ops_list(0, 8)
        reduction = sum(st.k_z - 1 for st in body)
    else:
        # the branches reduce depth alike: position i holds ops of one k_z
        pools = {}
        for k in kinds:
            pools.setdefault(STAGE_MAKERS[k]("probe").k_z, []).append(k)
        pools = list(pools.values())
        a, b = [], []
        for _ in range(draw(hst.integers(1, 3))):
            pool = draw(hst.sampled_from(pools))
            a.append(make(draw(hst.sampled_from(pool))))
            b.append(make(draw(hst.sampled_from(pool))))
        post = ops_list(0, 2) if shape == "join" else []
        reduction = sum(st.k_z - 1 for st in a + post)
    depth = reduction + draw(hst.integers(1, 64 - reduction))
    meta = VolumeMeta(draw(hst.integers(2, 12)), draw(hst.integers(2, 12)),
                      depth, dtype)
    if shape == "chain":
        g = chain(mk_read(meta), *body, mk_write())
    else:
        pre = [mk_read(meta), ops.tee(name="t")]
        if shape == "tee":
            g = tee_graph(pre, [a + [mk_write("wa")], b + [mk_write("wb")]])
        else:
            g = tee_graph(pre, [a, b], join=ops.add_join(name="join"),
                          post=post + [mk_write()])
        if draw(hst.booleans()):
            shared = share_windows(g, [a[0].name, b[0].name])
            g = g if shared is None else shared[0]
    eps = draw(hst.sampled_from([0, 4096, MIB]))
    sb = slice_bytes(VolumeMeta(meta.nx, meta.ny, depth, F32))  # widest dtype
    if draw(hst.integers(0, 3)) == 0:
        cap = 1 << 40
    else:
        # log-uniform from 2 slices to past whole-stack windows
        octaves = math.log2((len(g.nodes) + 1) * depth)
        cap = int(2 * sb * 2 ** draw(hst.floats(0, octaves))) + \
            draw(hst.integers(0, sb))
    budget = Budget(cap + len(g.nodes) * eps, eps)
    return g, meta, budget, draw(hst.booleans())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(window_cases())
def test_window_solve_equals_stepping_greedy(case):
    g, meta, budget, concurrent = case
    got = optimize_windows(g, meta, budget, concurrent=concurrent)
    want = greedy_windows(g, meta, budget, concurrent)
    if want is None:
        assert got is None
        return
    (gg, acts), (wg, wacts) = got, want
    assert [(st.name, st.w, st.s) for st in gg.nodes] == \
        [(st.name, st.w, st.s) for st in wg.nodes]
    assert [a.line() for a in acts] == [a.line() for a in wacts]


def test_window_solve_raises_when_ledger_is_not_affine(monkeypatch):
    # a term convex in w breaks the solve's premise; the final ledger
    # check must refuse the overshooting windows, not return them
    from stackstream.core import MemEstimate
    real = planner.estimate_stage

    def convex(stage, meta):
        est = real(stage, meta)
        return MemEstimate(est.input_bytes * stage.w, est.output_bytes,
                           est.internal_bytes)

    monkeypatch.setattr(planner, "estimate_stage", convex)
    meta = VolumeMeta(16, 16, 40, U8)
    g = chain(ops.square(name="p"))
    with pytest.raises(PlanningError):
        optimize_windows(g, meta, budget_slices(20, meta, stages=1))


def test_fuse_pointwise_folds_only_what_follows_a_kernel():
    """A run of pointwise stages after a kernel folds into it, in stream
    order; one after a read, a crop, a tee or the join stays. The graph
    given is never changed, and comes back as it is when nothing folds."""
    meta = VolumeMeta(8, 8, 12, U8)
    g = tee_graph([mk_read(meta), ops.threshold(9, name="t0"),
                   ops.crop((0, 0, 0, 8, 8, 12), name="c"), ops.square(name="q0"),
                   ops.tee(name="t")],
                  [[ops.square(name="q1")],
                   [ops.erode(1, name="e"), ops.threshold(5, name="t1"),
                    ops.square(name="q2")]],
                  ops.add_join(name="j"), [ops.square(name="q3"), mk_write()])
    fused, actions = planner.fuse_pointwise(g)
    assert [a.line() for a in actions] == ["fuse stage=t1 into=e", "fuse stage=q2 into=e"]
    assert [st.name for st in fused.topo_order()] == \
        ["read", "t0", "c", "q0", "t", "q1", "e", "j", "q3", "write"]
    assert fused.predecessors("j") == ("q1", "e")
    assert [name for name, _ in fused.node("e").params["post"]] == ["t1", "q2"]
    assert "post" not in g.node("e").params and len(g.nodes) == 12
    kept = chain(mk_read(meta), ops.threshold(9), ops.erode(1), mk_write())
    same, none = planner.fuse_pointwise(kept)
    assert same is kept and none == []


def test_deep_chain_plans_in_linear_ledger_calls(monkeypatch):
    depth = 2048
    meta = VolumeMeta(64, 64, depth, U8)
    g = chain(mk_read(meta), ops.erode(1, name="e0"), ops.dilate(1, name="d0"),
              ops.threshold(100, name="t0"), ops.square(name="sq"),
              ops.discrete_gaussian(0.8, name="g"), ops.median_filter(1, name="m"),
              ops.threshold(10, name="t1"), ops.erode(1, name="e1"), mk_write())
    calls = {"n": 0}
    real = planner.estimate_pipeline

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "estimate_pipeline", counting)
    p = plan(g, Budget(1 << 40))
    # t0 and sq fold into d0, and t1 into m
    fused = p.segments[0]
    tunables = sum(ops.record(st).tunable for st in fused.nodes)
    assert tunables == 6
    assert calls["n"] <= 2 * tunables + 4  # the stepping greedy made 20,396
    # 1 TiB holds every window at its input depth
    assert [(st.name, st.w) for st in fused.topo_order()] == \
        [("read", 2048), ("e0", 2048), ("d0", 2046), ("g", 2044), ("m", 2038),
         ("e1", 2036), ("write", 1)]


def test_planning_work_grows_linearly(monkeypatch):
    # each stage is priced a bounded number of times, so a chain four times
    # as long makes at most 4.5 times the estimate_stage calls
    real = planner.estimate_stage
    calls = {"n": 0}

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "estimate_stage", counting)
    meta = VolumeMeta(8, 8, 16, U8)
    budget = Budget(1 << 40)
    counts = {}
    for n in (32, 128):
        # the erodes come last, so that no threshold follows a kernel and
        # folds into it: the plan keeps all n stages
        kernels = (n - 2) // 16
        body = ([ops.threshold(100, name=f"t{i}") for i in range(n - 2 - kernels)]
                + [ops.erode(1, name=f"e{i}") for i in range(kernels)])
        g = chain(mk_read(meta), *body, mk_write())
        calls["n"] = 0
        p = plan(g, budget)
        counts[n] = calls["n"]
        assert len(p.segments[0].nodes) == n
        want, _ = greedy_windows(g, meta, budget)
        assert [(st.name, st.w, st.s) for st in p.segments[0].nodes] == \
            [(st.name, st.w, st.s) for st in want.nodes]
    assert counts[128] <= 4.5 * counts[32], counts


@pytest.mark.parametrize("concurrent", [False, True])
def test_a_plan_that_fits_builds_one_ledger_and_walks_the_graph_three_times(
        monkeypatch, concurrent):
    """plan prices the graph with one ledger; the window solve reads its
    minimized start and its final check off the stages' own terms, and
    the plan's ledger is the last walk. Each stage is priced four times,
    and each tunable one twice more for its slope."""
    calls = {"estimate_pipeline": 0, "propagate_meta": 0, "estimate_stage": 0}
    for fn in calls:
        real = getattr(planner, fn)
        monkeypatch.setattr(planner, fn, lambda *a, _real=real, _fn=fn, **kw: (
            calls.__setitem__(_fn, calls[_fn] + 1), _real(*a, **kw))[1])
    meta = VolumeMeta(32, 32, 40, U8)
    g = tee_graph([mk_read(meta), ops.tee(name="t")],
                  [[ops.median_filter(1, name="m")], [ops.dilate(1, name="d")]],
                  ops.add_join(name="j"),
                  [ops.discrete_gaussian(0.8, name="g"), ops.threshold(9, name="p"),
                   mk_write()])
    p = plan(g, Budget(64 * slice_bytes(meta), 1024), concurrent=concurrent)
    assert p.verdict == "fits" and p.actions
    assert p.actions[0].line() == "fuse stage=p into=g"
    # the plan prices the fused graph, whose gaussian carries the threshold
    fused = p.segments[0]
    tunables = sum(ops.record(st).tunable for st in fused.nodes)
    assert (len(fused.nodes), tunables) == (7, 4)
    assert calls == {"estimate_pipeline": 1, "propagate_meta": 3,
                     "estimate_stage": 4 * 7 + 2 * 4}


@hst.composite
def split_cases(draw):
    """(graph, meta, budget, concurrent): a chain of 3-8 ops over budget,
    among them ops that change the slice size along the chain (crop, pad,
    a z-moving permute, an f32-output convolve), so a mid-write's price
    depends on where it cuts."""
    dtype = draw(hst.sampled_from([U8, U16]))
    meta = VolumeMeta(draw(hst.integers(4, 12)), draw(hst.integers(4, 12)),
                      draw(hst.integers(6, 24)), dtype)
    cur = meta
    body = []
    kinds = ["threshold", "square", "erode", "box3", "crop", "pad", "permute"]
    for i, kind in enumerate(draw(hst.lists(hst.sampled_from(kinds), min_size=3,
                                            max_size=8))):
        name = f"s{i}"
        if kind == "crop":
            lo = [draw(hst.integers(0, n - 1)) for n in (cur.nx, cur.ny, cur.depth)]
            hi = [draw(hst.integers(a + 1, n))
                  for a, n in zip(lo, (cur.nx, cur.ny, cur.depth))]
            st = ops.crop((*lo, *hi), name=name)
        elif kind == "pad":
            st = ops.pad(tuple(draw(hst.integers(0, 3)) for _ in range(6)), name=name)
        elif kind == "permute":  # each of these orders moves z
            st = ops.permute_axes(draw(hst.sampled_from(["zyx", "xzy", "zxy", "yzx"])),
                                  name=name)
        elif kind == "box3":
            st = ops.convolve(ops.Kernel3D.box(3), name=name)
        else:
            st = STAGE_MAKERS[kind](name)
        if st.k_z > cur.depth:
            continue
        body.append(st)
        cur = ops.out_meta(st, cur)
    g = chain(mk_read(meta), *body, mk_write())
    eps = draw(hst.sampled_from([0, 16, 64]))
    whole = estimate_pipeline(g, meta, Budget(1 << 40, eps))
    gate = whole.formula_peak + whole.overhead
    cap = max(1, int(gate * 2 ** -draw(hst.floats(0.01, 2))))
    return g, meta, Budget(cap, eps), draw(hst.booleans())


def _split_key(res):
    segs = [[(st.name, st.op_kind, st.w, st.s, st.params.get("dir"),
              st.params.get("meta")) for st in seg.topo_order()]
            for seg in res.segments]
    return segs, [a.line() for a in res.actions], res.feasible, res.violating


@settings(max_examples=200, deadline=None, derandomize=True)
@given(split_cases())
def test_split_search_equals_scanning_oracle(case):
    g, meta, budget, concurrent = case
    got = insert_midwrites(g, meta, budget, "tmp", concurrent)
    want = scan_midwrites(g, meta, budget, "tmp", concurrent)
    assert _split_key(got) == _split_key(want)


def test_plan_repairs_with_resize_then_midwrite(tmp_path):
    meta = VolumeMeta(24, 24, 16, U8)
    g = pointwise_chain(meta, 4)
    p = plan(g, budget_slices(8, meta, stages=6), tmpdir=tmp_path,
             grow_windows=True)
    assert p.verdict == "repaired"
    kinds = {a.kind for a in p.actions}
    assert "midwrite" in kinds
    assert len(p.segments) == 2


def test_plan_fits_verdict_without_repairs():
    g = chain(mk_read(META64), ops.square(name="sq"), mk_write())
    p = plan(g, Budget(1 << 30), grow_windows=False)
    assert p.verdict == "fits"
    assert p.actions == []


def test_plan_infeasible_verdict():
    g = chain(mk_read(META64), ops.square(name="sq"), mk_write())
    p = plan(g, Budget(SB, 1024), grow_windows=True)
    assert p.verdict == "infeasible"
    assert "violating" in "\n".join(p.ledger.notes)


def test_infeasible_concurrent_plan_pools_nothing(tmp_path):
    # the gaussian's one call per sweep keeps the solve's window step in the
    # infeasible ledger, which the run would refuse; the plan pools none
    g = chain(mk_read(META64), ops.discrete_gaussian(0.8, w=64, name="g"), mk_write())
    p = plan(g, Budget(SB, 1024), tmpdir=tmp_path, grow_windows=False, concurrent=True)
    assert p.verdict == "infeasible"
    assert any(row.step for row in p.ledger.rows)
    assert p.pooled == frozenset()


def test_plan_resizes_each_declared_window_once(tmp_path):
    # declared w = 8 overflows and the minima fit: the grow step takes each
    # window from its declared size straight to its grown one
    meta = VolumeMeta(16, 16, 16, U8)
    g = pointwise_chain(meta, 2, w=8)
    budget = budget_slices(25, meta, stages=4)
    assert not estimate_pipeline(g, meta, budget).fits()
    p = plan(g, budget, tmpdir=tmp_path)
    assert p.verdict == "repaired"
    assert p.ledger.fits()
    assert [a.line() for a in p.actions] == ["window_resize stage=read w=1->16",
                                             "window_resize stage=f0 w=8->3",
                                             "window_resize stage=f1 w=8->1"]


def test_split_chain_lists_each_declared_window_resize(tmp_path):
    # the split is found on the minima, and each stage is still listed
    # resized from its declared w = 8
    meta = VolumeMeta(16, 16, 16, U8)
    p = plan(pointwise_chain(meta, 4, w=8), budget_slices(6, meta, stages=6),
             tmpdir=tmp_path)
    assert p.verdict == "repaired"
    assert [a.line() for a in p.actions] == [
        f"midwrite after f2 path={tmp_path}/mid0 extra_io=8192 B",
        "window_resize stage=read w=1->3",
        "window_resize stage=f0 w=8->1",
        "window_resize stage=f1 w=8->1",
        "window_resize stage=f2 w=8->1",
        "window_resize stage=midread0 w=1->15",
        "window_resize stage=f3 w=8->1"]
    assert [[(st.name, st.w) for st in seg.topo_order()] for seg in p.segments] == [
        [("read", 3), ("f0", 1), ("f1", 1), ("f2", 1), ("midwrite0", 1)],
        [("midread0", 15), ("f3", 1), ("write", 1)]]


def test_split_plan_fits_when_each_segment_fits(tmp_path):
    # segment 1 peaks at 2,560 B over 5 stages, segment 2 at 4,608 B over
    # 3: with 1,024 B per stage each comes to 7,680 B, under the 7,681 B cap
    meta = VolumeMeta(16, 16, 16, U8)
    p = plan(pointwise_chain(meta, 4, w=8), budget_slices(6, meta, stages=6),
             tmpdir=tmp_path)
    led = p.ledger
    assert led.segment_peaks == [2560, 4608]
    assert led.fits()
    assert led.formula_peak == 4608
    assert led.overhead == 3 * 1024
    assert "headroom 1 B" in led.render().splitlines()


@pytest.mark.parametrize("grow_windows", [False, True])
def test_plan_branched_pipeline_over_budget_at_its_minima_is_infeasible(tmp_path,
                                                                        grow_windows):
    meta = VolumeMeta(16, 16, 12, F32)
    g = shared_branch_graph(5, 3, meta, sinks=True)
    p = plan(g, budget_slices(2, meta, stages=3), tmpdir=tmp_path,
             grow_windows=grow_windows)
    assert p.verdict == "infeasible"
    assert p.ledger.notes == ["branched pipeline over budget; midwrites apply to chains only"]
    assert "verdict infeasible" in p.render()


def test_plan_repairs_branches_by_sharing_windows(tmp_path):
    meta = VolumeMeta(32, 32, 24, F32)
    k, l = 7, 5
    t = ops.tee(name="t")
    g = tee_graph([mk_read(meta, "r"), t],
                  [[ops.convolve(ops.Kernel3D(np.ones((k, 1, 1)) / k), name="bk"),
                    mk_write("wk")],
                   [ops.convolve(ops.Kernel3D(np.ones((l, 1, 1)) / l), name="bl"),
                    mk_write("wl")]])
    sb = slice_bytes(meta)
    # additive needs 1 + (k+1) + (l+1) + 2 = 17 slices; shared needs
    # 1 + (2k - l + 2) + 2 = 14
    eps = 256
    budget = Budget(15 * sb + 6 * eps + 1, eps)
    p = plan(g, budget, tmpdir=tmp_path, grow_windows=False)
    assert p.verdict == "repaired"
    assert any(a.kind == "share_window" for a in p.actions)
    assert "share_window group=bk+bl w=7" in p.render()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(hst.integers(4, 14), hst.integers(3, 6))
def test_midwrite_greedy_count_is_minimal_property(nslices, nstages):
    meta = VolumeMeta(8, 8, 6, U8)
    g = pointwise_chain(meta, nstages)
    budget = budget_slices(nslices, meta, stages=3)
    res = insert_midwrites(g, meta, budget, "scratch")
    count, _ = enumerate_min_splits(g.linear_order(), meta, budget, "scratch")
    if count is None:
        assert not res.feasible
    else:
        assert res.feasible
        assert len(res.actions) == count


def test_ledger_peak_equals_totals_minus_credits():
    meta = VolumeMeta(16, 16, 12, F32)
    g = shared_branch_graph(5, 3, meta)
    shared, _ = share_windows(g, ["bk", "bl"])
    led = estimate_pipeline(shared, meta, Budget(1 << 30))
    totals = sum(r.alpha + r.beta + r.gamma for r in led.rows)
    assert led.peak_estimate == totals - led.credits
    assert led.credits > 0
    if led.verdict == "fits":
        assert led.peak_estimate < led.budget.cap

import pytest
from hypothesis import given, settings, strategies as hst

from stackstream import ops
from stackstream.core import (ALLOC, F32, U8, U16, AlgorithmClass, Budget,
                              MemEstimate, PipelineGraph, PlanningError,
                              RefcountError, SliceMeta, VolumeMeta, chain,
                              release, retain, slice_bytes, tee_graph)


def test_dtype_byte_widths():
    assert U8.byte_width == 1
    assert U16.byte_width == 2
    assert F32.byte_width == 4


def test_slice_bytes_examples():
    # giant slice from the terabyte budget example: 11 of them ~ 2**40
    meta = VolumeMeta(316158, 316158, 11, U8)
    assert slice_bytes(meta) == 316158 * 316158 * 1
    assert abs(11 * slice_bytes(meta) - 2**40) / 2**40 < 1e-4
    assert slice_bytes(VolumeMeta(1, 1, 1, U8)) == 1
    assert slice_bytes(VolumeMeta(64, 32, 1, U16)) == 4096


def test_volume_meta_validation():
    with pytest.raises(PlanningError):
        VolumeMeta(0, 4, 4, U8)
    with pytest.raises(PlanningError):
        SliceMeta(4, 0, U8)


def test_mem_estimate_total_and_monotone():
    e = MemEstimate(10, 20, 5)
    assert e.total() == 35
    assert MemEstimate(11, 20, 5).total() == 36  # one more input byte
    with pytest.raises(PlanningError):
        MemEstimate(-1, 0, 0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(hst.integers(0, 1 << 40), hst.integers(0, 1 << 40), hst.integers(0, 1 << 40),
       hst.integers(0, 1 << 20))
def test_mem_estimate_monotone_in_each_component(a, b, g, d):
    base = MemEstimate(a, b, g).total()
    assert MemEstimate(a + d, b, g).total() >= base
    assert MemEstimate(a, b + d, g).total() >= base
    assert MemEstimate(a, b, g + d).total() >= base


def test_budget_validation():
    with pytest.raises(PlanningError):
        Budget(0)
    with pytest.raises(PlanningError):
        Budget(10, -1)
    assert Budget(10).overhead_epsilon == 1024 * 1024


def test_refcount_lifecycle():
    meta = SliceMeta(4, 4, U8)
    s = ALLOC.new_slice(meta, fill=3)
    assert s.refcount == 1
    retain(s)
    assert s.refcount == 2
    release(s)
    assert s.refcount == 1
    release(s)
    assert s.data is None
    with pytest.raises(RefcountError):
        release(s)
    with pytest.raises(RefcountError):
        retain(s)


def test_refcount_matches_event_balance():
    # retains minus releases equals refcount, tracked by the allocator
    meta = SliceMeta(2, 2, U8)
    slices = [ALLOC.new_slice(meta) for _ in range(5)]
    assert ALLOC.live_refs == 5
    for s in slices[:3]:
        retain(s)
    assert ALLOC.live_refs == 8
    for s in slices[:3]:
        release(s)
    for s in slices:
        release(s)
    assert ALLOC.live_refs == 0
    assert ALLOC.live_slices == 0


def test_allocator_peak_tracking():
    meta = SliceMeta(8, 8, U8)
    ALLOC.reset_peaks()
    a = ALLOC.new_slice(meta)
    b = ALLOC.new_slice(meta)
    release(a)
    c = ALLOC.new_slice(meta)
    release(b)
    release(c)
    assert ALLOC.peak_slices == 2
    assert ALLOC.peak_bytes == 2 * 64


def test_algorithm_class_invariant():
    with pytest.raises(PlanningError):
        AlgorithmClass("single-pixel", 3, 1)
    ok = AlgorithmClass("local-neighbourhood", "k", 1)
    assert ok.z_window == "k"


def test_single_pixel_stage_metadata():
    klass = ops.record(ops.threshold(10)).algo_class
    assert klass.kind == "single-pixel"
    assert klass.z_window == 1 and klass.sweeps == 1
    assert ops.record(ops.median_filter(1)).algo_class.kind == "local-neighbourhood"


def test_graph_rejects_cycles():
    a, b = ops.square(name="a"), ops.square(name="b")
    g = PipelineGraph([a, b], [("a", "b"), ("b", "a")])
    with pytest.raises(PlanningError):
        g.validate()


def test_graph_rejects_multi_source():
    a, b, c = ops.square(name="a"), ops.square(name="b"), ops.add_join(name="c")
    g = PipelineGraph([a, b, c], [("a", "c"), ("b", "c")])
    # two sources feeding a zip: source() fails on multiplicity
    with pytest.raises(PlanningError):
        g.validate()


def test_graph_rejects_dangling():
    a, b, c = ops.square(name="a"), ops.square(name="b"), ops.square(name="c")
    g = PipelineGraph([a, b, c], [("a", "b")])
    with pytest.raises(PlanningError):
        g.validate()


@pytest.mark.parametrize("edges, match", [
    ([("a", "b"), ("b", "ghost")], "references unknown stage"),
    ([("a", "b"), ("b", "c"), ("c", "b")], "has a cycle"),
    ([("a", "c"), ("b", "c")], "exactly one source, found 2"),
])
def test_graph_structure_faults_raise_on_every_validate(edges, match):
    a, b, c = ops.square(name="a"), ops.square(name="b"), ops.add_join(name="c")
    g = PipelineGraph([a, b, c], edges)  # an unknown name is no KeyError here
    for _ in range(2):  # the structure is checked once and the fault kept
        with pytest.raises(PlanningError, match=match):
            g.validate()


def test_graph_checks_windows_on_every_validate():
    g = chain(ops.square(name="a"), ops.erode(1, name="e"))
    assert g.validate() is g and isinstance(g.edges, tuple)
    g.node("e").w = 2
    with pytest.raises(PlanningError, match="below kernel depth"):
        g.validate()


def test_zip_arity_and_tee_fanout():
    t = ops.tee(name="t")
    a = ops.square(name="a")
    g = PipelineGraph([t, a], [("t", "a")])
    with pytest.raises(PlanningError):
        g.validate()
    j = ops.add_join(name="j")
    g2 = PipelineGraph([a, j], [("a", "j")])
    with pytest.raises(PlanningError):
        g2.validate()


def test_only_a_tee_fans_out():
    # a stage feeding two stages directly would hand each only some of its slices
    a, b, c = ops.square(name="a"), ops.square(name="b"), ops.square(name="c")
    g = PipelineGraph([a, b, c], [("a", "b"), ("a", "c")])
    with pytest.raises(PlanningError, match="'a' cannot feed 2 stages"):
        g.validate()


def test_chain_and_tee_builders_validate():
    g = chain(ops.square(name="s1"), ops.square(name="s2"))
    g.validate()
    g2 = tee_graph([ops.square(name="pre"), ops.tee(name="t")],
                   [[ops.erode(1, name="ea")], [ops.median_filter(1, name="mb")]],
                   ops.add_join(name="j"), [ops.square(name="post")])
    g2.validate()
    assert g2.branch_groups() == [["ea", "mb"]]


def test_window_below_kernel_depth_rejected():
    with pytest.raises(PlanningError):
        chain(ops.convolve(ops.Kernel3D.box(3), w=2, name="c")).validate()

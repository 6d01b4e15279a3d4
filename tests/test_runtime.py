import gc
import importlib.util
import os
import re
import sys
import threading
import weakref
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

import oracles
from helpers import apply_stage, measure_peak
from stackstream import cli, io as sio, ops, planner, runtime, stream as st
from stackstream.core import (ALLOC, F32, U8, Budget, PlanningError, PlanStage,
                              StageError, VolumeMeta, chain, slice_bytes, tee_graph)
from stackstream.planner import plan, share_windows
from stackstream.runtime import execute_plan, run_graph


def write_input(tmp_path, meta, seed=0, chunks=None, kind="random"):
    vol = sio.synth_volume(meta, kind, seed=seed)
    sio.write_volume(tmp_path / "in", vol, meta.dtype, chunks=chunks)
    return vol


def gauss_graph(tmp_path, sigma=0.8, src="read", out="out"):
    read = (sio.read_stage(tmp_path / "in") if src == "read"
            else sio.read_chunks_stage(tmp_path / "in"))
    return chain(read, ops.discrete_gaussian(sigma, name="g"),
                 sio.write_stage(tmp_path / out))


def test_single_sweep_reads_each_slice_once(tmp_path):
    meta = VolumeMeta(12, 12, 20, U8)
    write_input(tmp_path, meta, seed=1)
    _, rep = run_graph(gauss_graph(tmp_path), Budget(1 << 30), tmpdir=tmp_path)
    (name, pulls, opens), = rep.sources
    assert pulls == 20
    assert opens == 20
    assert rep.leaked_slices == 0


def test_identity_pipeline_roundtrip(tmp_path):
    meta = VolumeMeta(10, 11, 9, U8)
    vol = write_input(tmp_path, meta, seed=2)
    g = chain(sio.read_stage(tmp_path / "in"), sio.write_stage(tmp_path / "out"))
    run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
    assert np.array_equal(sio.read_volume(tmp_path / "out"), vol)


def test_gaussian_pipeline_matches_dense_oracle(tmp_path):
    meta = VolumeMeta(32, 32, 32, U8)
    vol = write_input(tmp_path, meta, seed=3)
    _, rep = run_graph(gauss_graph(tmp_path, sigma=1.0), Budget(1 << 30),
                       tmpdir=tmp_path)
    out = sio.read_volume(tmp_path / "out")
    ref = oracles.gaussian_separable(vol, ops.gaussian_kernel_1d(1.0))
    # u8 output: rounded dense oracle within one intensity step
    assert np.max(np.abs(out.astype(int) - np.rint(ref).astype(int))) <= 1


def test_backend_equivalence_same_pipeline(tmp_path):
    meta = VolumeMeta(16, 16, 16, U8)
    vol = sio.synth_volume(meta, "random", seed=4)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    sio.write_volume(tmp_path / "a" / "in", vol, "u8")
    sio.write_volume(tmp_path / "b" / "in", vol, "u8", chunks=(5, 6, 4))
    ga = gauss_graph(tmp_path / "a", src="read")
    gb = gauss_graph(tmp_path / "b", src="chunks")
    run_graph(ga, Budget(1 << 30), tmpdir=tmp_path)
    run_graph(gb, Budget(1 << 30), tmpdir=tmp_path)
    assert np.array_equal(sio.read_volume(tmp_path / "a" / "out"),
                          sio.read_volume(tmp_path / "b" / "out"))


def test_threaded_execution_bit_identical(tmp_path):
    meta = VolumeMeta(16, 16, 14, U8)
    write_input(tmp_path, meta, seed=5)
    for threads, out in ((1, "o1"), (4, "o4")):
        g = chain(sio.read_stage(tmp_path / "in"),
                  ops.threshold(90, name="t"),
                  ops.median_filter(1, name="m"),
                  sio.write_stage(tmp_path / out))
        _, rep = run_graph(g, Budget(1 << 30), threads=threads, tmpdir=tmp_path)
        assert rep.leaked_slices == 0
    assert np.array_equal(sio.read_volume(tmp_path / "o1"),
                          sio.read_volume(tmp_path / "o4"))


def test_threaded_peak_within_concurrent_ledger(tmp_path):
    meta = VolumeMeta(16, 16, 14, U8)
    write_input(tmp_path, meta, seed=6)
    g = chain(sio.read_stage(tmp_path / "in"),
              ops.square(name="s1"), ops.square(name="s2"),
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False,
             concurrent=True)
    rep = execute_plan(p, threads=4, tmpdir=tmp_path)
    assert rep.peak_bytes <= p.ledger.formula_peak + p.ledger.overhead


def test_rerun_is_bit_identical_and_report_stable(tmp_path):
    meta = VolumeMeta(12, 12, 10, U8)
    write_input(tmp_path, meta, seed=7)
    texts = []
    outs = []
    for out in ("r1", "r2"):
        g = gauss_graph(tmp_path, out=out)
        _, rep = run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
        text = rep.render().replace("r1", "OUT").replace("r2", "OUT")
        texts.append(text)
        outs.append(sio.read_volume(tmp_path / out))
    assert texts[0] == texts[1]
    assert np.array_equal(outs[0], outs[1])


def test_tee_join_add_matches_oracle(tmp_path):
    meta = VolumeMeta(12, 12, 12, U8)
    vol = write_input(tmp_path, meta, seed=8)
    g = tee_graph([sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
                  [[ops.erode(1, name="e")], [ops.dilate(1, name="d")]],
                  ops.add_join(name="j"),
                  [sio.write_stage(tmp_path / "out")])
    run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
    out = sio.read_volume(tmp_path / "out")
    se = ops.StructuringElement.box(1)
    ref = oracles.saturating_add(oracles.morphology(vol, se.mask, "erode"),
                                 oracles.morphology(vol, se.mask, "dilate"))
    assert np.array_equal(out, ref)


def test_shared_window_group_outputs_identical(tmp_path):
    meta = VolumeMeta(12, 12, 12, F32)
    vol = sio.synth_volume(meta, "random", seed=9)
    sio.write_volume(tmp_path / "in", vol, "f32")
    kk = ops.Kernel3D(np.random.default_rng(1).random((5, 3, 3)))
    kl = ops.Kernel3D(np.random.default_rng(2).random((3, 3, 3)))

    def branch_graph(suffix):
        return tee_graph(
            [sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
            [[ops.convolve(kk, name="bk"),
              sio.write_stage(tmp_path / f"k{suffix}", name="wk")],
             [ops.convolve(kl, name="bl"),
              sio.write_stage(tmp_path / f"l{suffix}", name="wl")]])

    run_graph(branch_graph("_plain"), Budget(1 << 30), tmpdir=tmp_path)
    g2 = branch_graph("_shared")
    shared, action = share_windows(g2, ["bk", "bl"])
    p = plan(shared, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    execute_plan(p, tmpdir=tmp_path)
    assert np.array_equal(sio.read_volume(tmp_path / "k_plain"),
                          sio.read_volume(tmp_path / "k_shared"))
    assert np.array_equal(sio.read_volume(tmp_path / "l_plain"),
                          sio.read_volume(tmp_path / "l_shared"))


def test_shared_window_peak_is_2k_minus_l_plus_2(tmp_path):
    meta = VolumeMeta(16, 16, 15, F32)
    vol = sio.synth_volume(meta, "random", seed=10)
    sio.write_volume(tmp_path / "in", vol, "f32")
    k, l = 5, 3
    kk = ops.Kernel3D(np.ones((k, 1, 1)) / k)
    kl = ops.Kernel3D(np.ones((l, 1, 1)) / l)
    g = tee_graph([sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
                  [[ops.convolve(kk, name="bk"),
                    sio.write_stage(tmp_path / "ok", name="wk")],
                   [ops.convolve(kl, name="bl"),
                    sio.write_stage(tmp_path / "ol", name="wl")]])
    shared, _ = share_windows(g, ["bk", "bl"])
    p = plan(shared, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)

    def run():
        execute_plan(p, tmpdir=tmp_path)

    peak_bytes, _ = measure_peak(run)
    sb = slice_bytes(meta)
    assert peak_bytes <= (2 * k - l + 2) * sb + sb  # group bound plus source slice


def test_midwrite_pipeline_output_equals_unsplit(tmp_path):
    meta = VolumeMeta(16, 16, 10, U8)
    write_input(tmp_path, meta, seed=11)

    def graph(out):
        return chain(sio.read_stage(tmp_path / "in"),
                     ops.square(name="f0"), ops.threshold(120, name="f1"),
                     ops.square(name="f2"),
                     sio.write_stage(tmp_path / out))

    run_graph(graph("big"), Budget(1 << 30), tmpdir=tmp_path)
    eps = 512
    sb = slice_bytes(meta)
    tight = Budget(6 * sb + 5 * eps + 1, eps)
    p = plan(graph("small"), tight, tmpdir=tmp_path, grow_windows=True)
    assert p.verdict == "repaired"
    assert any(a.kind == "midwrite" for a in p.actions)
    rep = execute_plan(p, tmpdir=tmp_path)
    assert rep.leaked_slices == 0
    assert np.array_equal(sio.read_volume(tmp_path / "big"),
                          sio.read_volume(tmp_path / "small"))


def test_permute_pipeline_two_sweeps(tmp_path):
    meta = VolumeMeta(6, 5, 4, U8)
    vol = write_input(tmp_path, meta, seed=12)
    g = chain(sio.read_stage(tmp_path / "in"),
              ops.permute_axes("zyx", name="perm", chunk_edge=3),
              sio.write_stage(tmp_path / "out"))
    _, rep = run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
    assert dict(rep.sweeps)["perm"] == 2
    assert np.array_equal(sio.read_volume(tmp_path / "out"),
                          oracles.permute_volume(vol, "zyx"))


def test_permute_store_leaves_a_directory_it_did_not_make(tmp_path):
    """A z-moving permute spills to a directory of its own under the tmpdir:
    one named after the stage, left by another run, is neither used nor
    removed, and the permute removes its own."""
    meta = VolumeMeta(6, 5, 4, U8)
    vol = write_input(tmp_path, meta, seed=12)
    (tmp_path / "perm_1").mkdir()
    (tmp_path / "perm_1" / "keep.txt").write_text("keep")
    g = chain(sio.read_stage(tmp_path / "in"),
              ops.permute_axes("zyx", name="perm", chunk_edge=3),
              sio.write_stage(tmp_path / "out"))
    run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
    assert (tmp_path / "perm_1" / "keep.txt").read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "out", "perm_1"]
    assert np.array_equal(sio.read_volume(tmp_path / "out"),
                          oracles.permute_volume(vol, "zyx"))


@pytest.mark.parametrize("hold", [False, True])
@pytest.mark.parametrize("edge", [1, 2, 3])
@pytest.mark.parametrize("order", ["zyx", "xzy", "yzx"])
def test_z_moving_permute_yields_slices_of_its_own(tmp_path, order, edge, hold):
    """A median of radius 0 over w = 3 holds three permuted slices while
    the permute refills its slab: each must be a copy, not a view of it."""
    meta = VolumeMeta(5, 6, 4, U8)
    vol = write_input(tmp_path, meta, seed=13)
    held = [ops.median_filter(0, w=3, name="held")] if hold else []
    g = chain(sio.read_stage(tmp_path / "in"),
              ops.permute_axes(order, name="perm", chunk_edge=edge), *held,
              sio.write_stage(tmp_path / "out"))
    run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
    assert np.array_equal(sio.read_volume(tmp_path / "out"),
                          oracles.permute_volume(vol, order))


@pytest.mark.parametrize("case", ["read", "readInChunks", "permute_zyx",
                                  "permute_xzy", "writeInChunks"])
def test_each_ledger_gamma_is_what_its_stage_registers(tmp_path, monkeypatch, case):
    """At ε = 0, only a z-moving permute registers internal bytes: the
    slab its second pass reads, the chunk column along the new z. A read
    or a write of any layout holds its one slice and registers nothing.
    Each ledger row's gamma is what its stage registers, and the
    measured peak stays within the promise."""
    store = case.startswith("read")
    meta = VolumeMeta(64, 64, 32, U8) if store else VolumeMeta(24, 20, 40, U8)
    write_input(tmp_path, meta, seed=14, chunks=(16, 16, 8) if store else None)
    read = (sio.read_chunks_stage if case == "readInChunks" else sio.read_stage)(
        tmp_path / "in", name="src")
    if case.startswith("permute"):
        op = ops.permute_axes(case[-3:], name="op", chunk_edge=4)
        want = [sio.ChunkGrid(meta, 4, 4, 4).layer_bytes(case[-1])]
    else:
        op = ops.threshold(9, name="op")
        want = []
    sink = (sio.write_chunks_stage(tmp_path / "out", chunks=(8, 4, 5), name="snk")
            if case == "writeInChunks" else sio.write_stage(tmp_path / "out", name="snk"))
    registered = []
    register = ALLOC.register_internal
    monkeypatch.setattr(ALLOC, "register_internal",
                        lambda n: (registered.append(n), register(n))[1])
    p = plan(chain(read, op, sink), Budget(1 << 20, 0), tmpdir=tmp_path,
             grow_windows=False)
    rep = execute_plan(p, tmpdir=tmp_path)
    assert registered == want
    assert {r.name: r.gamma for r in p.ledger.rows} == {
        n: sum(want) if n == "op" else 0 for n in ("src", "op", "snk")}
    assert rep.peak_bytes <= rep.promised_peak


def test_chunk_layers_stop_at_the_volume(tmp_path, monkeypatch):
    """A chunk edge past the volume adds no bytes to a slab: a permute's
    x slab of 16,16,4 chunks over a 6x5x8 volume is the 240 B volume,
    which its ledger row prices. A read of the same volume as a store in
    4,5,10 chunks registers nothing."""
    meta = VolumeMeta(6, 5, 8, U8)
    assert sio.ChunkGrid(meta, 16, 16, 4).layer_bytes("x") == 240
    vol = write_input(tmp_path, meta, seed=15, chunks=(4, 5, 10))
    registered = []
    register = ALLOC.register_internal
    monkeypatch.setattr(ALLOC, "register_internal",
                        lambda n: (registered.append(n), register(n))[1])
    g = chain(sio.read_chunks_stage(tmp_path / "in", name="src"),
              ops.permute_axes("zyx", name="op", chunk_edge=16),
              sio.write_stage(tmp_path / "out", name="snk"))
    p = plan(g, Budget(1 << 20, 0), tmpdir=tmp_path, grow_windows=False)
    rep = execute_plan(p, tmpdir=tmp_path)
    assert registered == [240]
    assert {r.name: r.gamma for r in p.ledger.rows} == {"src": 0, "op": 240, "snk": 0}
    assert rep.peak_bytes <= rep.promised_peak
    assert np.array_equal(sio.read_volume(tmp_path / "out"),
                          oracles.permute_volume(vol, "zyx"))


def test_read_and_read_in_chunks_of_one_store_are_one_read(tmp_path, monkeypatch):
    """readInChunks is a read with the store's chunks in its params: a
    read and a readInChunks of one chunk store plan the same windows and
    ledger figures, stream as `read <dir>` with the same pulls and opens,
    and write the same volume."""
    meta = VolumeMeta(32, 32, 24, U8)
    write_input(tmp_path, meta, seed=16, chunks=(16, 16, 8))
    opened = []
    open_stream = sio.open_slice_stream
    monkeypatch.setattr(sio, "open_slice_stream",
                        lambda *a: (s := open_stream(*a), opened.append(s))[0])
    runs = []
    for reader, out in ((sio.read_stage, "a"), (sio.read_chunks_stage, "b")):
        src = reader(tmp_path / "in", name="src")
        assert src.op_kind == "read"
        g = chain(src, ops.discrete_gaussian(0.8, name="g"),
                  sio.write_stage(tmp_path / out, name="snk"))
        p = plan(g, Budget(12 * slice_bytes(meta), 0), tmpdir=tmp_path)
        rep = execute_plan(p, tmpdir=tmp_path)
        runs.append((p.render(), rep.sources, rep.peak_bytes))
    assert "chunks" not in sio.read_stage(tmp_path / "in").params
    assert runs[0] == runs[1]
    assert "action window_resize stage=src" in runs[0][0]  # the read's window grew
    assert runs[0][1] == [("src", 24, 12)]  # 2x2 chunks in each of 3 layers
    assert [(s.name, s.pulls, s.counters) for s in opened] == \
        [(f"read {tmp_path / 'in'}", 24, {"opens": 12})] * 2
    assert np.array_equal(sio.read_volume(tmp_path / "a"), sio.read_volume(tmp_path / "b"))


def test_failing_stage_aborts_with_index_and_no_leak(tmp_path):
    meta = VolumeMeta(8, 8, 10, U8)
    write_input(tmp_path, meta, seed=13)
    calls = {"n": 0}

    def bad(arr, dtype):
        calls["n"] += 1
        if calls["n"] == 5:
            raise RuntimeError("injected")
        return arr

    g = chain(sio.read_stage(tmp_path / "in"),
              ops.pointwise(bad, name="bad"),
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    with pytest.raises(StageError) as ei:
        execute_plan(p, tmpdir=tmp_path)
    assert ei.value.stage == "bad"
    assert ei.value.index == 4
    assert ALLOC.live_slices == 0


def test_failing_sink_leaves_partial_marker_and_no_leak(tmp_path, monkeypatch):
    meta = VolumeMeta(8, 8, 6, U8)
    write_input(tmp_path, meta, seed=14)
    calls = {"n": 0}
    real = sio._write_bytes

    def failing(path, data):
        calls["n"] += 1
        if calls["n"] == 4:
            raise OSError(28, "No space left on device")
        real(path, data)

    monkeypatch.setattr(sio, "_write_bytes", failing)
    g = chain(sio.read_stage(tmp_path / "in"), sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    with pytest.raises(OSError):
        execute_plan(p, tmpdir=tmp_path)
    assert (tmp_path / "out" / sio.PARTIAL_MARKER).exists()
    assert ALLOC.live_slices == 0


def test_failing_threaded_run_no_leak(tmp_path):
    meta = VolumeMeta(8, 8, 12, U8)
    write_input(tmp_path, meta, seed=15)

    def bad(arr, dtype):
        if int(arr[0, 0]) >= 0:  # always
            raise RuntimeError("injected")

    g = chain(sio.read_stage(tmp_path / "in"),
              ops.square(name="a"),
              ops.pointwise(bad, name="bad"),
              ops.square(name="b"),
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False,
             concurrent=True)
    with pytest.raises(StageError):
        execute_plan(p, threads=4, tmpdir=tmp_path)
    assert ALLOC.live_slices == 0


def test_sampled_mean_results(tmp_path):
    meta = VolumeMeta(8, 8, 10, U8)
    vol = write_input(tmp_path, meta, seed=16)
    g = chain(sio.read_stage(tmp_path / "in"), ops.sampled_mean(1, name="mean"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    from stackstream.runtime import RunContext, _build_segment, _drive
    ctx = RunContext(tmpdir=tmp_path)
    _drive(_build_segment(p.segments[0], ctx))
    import math
    assert math.isclose(ctx.results["mean"], vol.mean(), rel_tol=1e-9)


def test_sampled_mean_aliases_periodic_volumes(tmp_path):
    # even slices 0, odd slices 10: stride 2 sees only the zeros
    meta = VolumeMeta(4, 4, 8, U8)
    vol = np.zeros((8, 4, 4), dtype=np.uint8)
    vol[1::2] = 10
    sio.write_volume(tmp_path / "in", vol, "u8")
    g = chain(sio.read_stage(tmp_path / "in"), ops.sampled_mean(2, name="mean"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    from stackstream.runtime import RunContext, _build_segment, _drive
    ctx = RunContext(tmpdir=tmp_path)
    _drive(_build_segment(p.segments[0], ctx))
    assert ctx.results["mean"] == 0.0


def test_histogram_independent_of_window(tmp_path):
    meta = VolumeMeta(8, 8, 8, U8)
    vol = write_input(tmp_path, meta, seed=17)
    results = []
    for w in (1, 4):
        g = chain(sio.read_stage(tmp_path / "in"),
                  ops.histogram_op(w=w, name="h"))
        p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
        from stackstream.runtime import RunContext, _build_segment, _drive
        ctx = RunContext(tmpdir=tmp_path)
        _drive(_build_segment(p.segments[0], ctx))
        results.append(ctx.results["h"].counts.copy())
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], np.bincount(vol.ravel(), minlength=256))


def test_permute_temp_space_failure_names_bytes(tmp_path, monkeypatch):
    meta = VolumeMeta(6, 5, 4, U8)
    write_input(tmp_path, meta, seed=20)

    def failing(path, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(sio, "_write_bytes", failing)
    g = chain(sio.read_stage(tmp_path / "in"),
              ops.permute_axes("zyx", name="perm", chunk_edge=3),
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    with pytest.raises(IOError) as ei:
        execute_plan(p, tmpdir=tmp_path)
    assert str(6 * 5 * 4) in str(ei.value)  # required bytes are named
    assert ALLOC.live_slices == 0


def test_sweep_counts_match_class_metadata(tmp_path):
    # measured sweeps line up with each operator class' declared needs
    meta = VolumeMeta(10, 10, 8, U8)
    write_input(tmp_path, meta, seed=21)
    cases = [
        (ops.threshold(90, name="op"), "single-pixel", 1),
        (ops.median_filter(1, name="op"), "local-neighbourhood", 1),
        (ops.permute_axes("yxz", name="op"), "geometric", 1),
        (ops.permute_axes("zyx", name="op", chunk_edge=4), "geometric", 2),
    ]
    for stage, klass, sweeps in cases:
        assert ops.record(stage).algo_class.kind == klass
        g = chain(sio.read_stage(tmp_path / "in"), stage,
                  sio.write_stage(tmp_path / "out"))
        _, rep = run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
        assert dict(rep.sweeps)["op"] == sweeps
        (_, pulls, _), = rep.sources
        assert pulls == meta.depth  # one pass over the source per sweep plan
    hist = ops.record(ops.histogram_op(name="op")).algo_class
    assert hist.kind == "global-reduction"
    assert hist.sweeps == "<=1"


def test_shared_group_three_branches(tmp_path):
    # a tee with three kernel branches shares one window; every branch's
    # output is identical to running it alone
    meta = VolumeMeta(10, 10, 14, F32)
    vol = sio.synth_volume(meta, "random", seed=22)
    sio.write_volume(tmp_path / "in", vol, "f32")
    kernels = [ops.Kernel3D(np.random.default_rng(s).random((k, 3, 3)))
               for s, k in ((1, 7), (2, 5), (3, 3))]

    def graph(tag, shared):
        branches = [[ops.convolve(kernels[i], name=f"b{i}"),
                     sio.write_stage(tmp_path / f"o{i}{tag}", name=f"w{i}")]
                    for i in range(3)]
        g = tee_graph([sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
                      branches)
        if shared:
            g, _ = share_windows(g, ["b0", "b1", "b2"])
        return g

    run_graph(graph("p", False), Budget(1 << 30), tmpdir=tmp_path)
    p = plan(graph("s", True), Budget(1 << 30), tmpdir=tmp_path,
             grow_windows=False)
    execute_plan(p, tmpdir=tmp_path)
    for i in range(3):
        assert np.array_equal(sio.read_volume(tmp_path / f"o{i}p"),
                              sio.read_volume(tmp_path / f"o{i}s")), i


def test_threaded_tee_join_and_early_stop_crop(tmp_path):
    meta = VolumeMeta(12, 12, 12, U8)
    vol = write_input(tmp_path, meta, seed=23)
    outs = {}
    for threads in (1, 4):
        g = tee_graph([sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
                      [[ops.erode(1, name="e")], [ops.dilate(1, name="d")]],
                      ops.add_join(name="j"),
                      [ops.crop((2, 2, 2, 10, 10, 8), name="c"),
                       sio.write_stage(tmp_path / f"out{threads}")])
        _, rep = run_graph(g, Budget(1 << 30), threads=threads, tmpdir=tmp_path)
        assert rep.leaked_slices == 0
        outs[threads] = sio.read_volume(tmp_path / f"out{threads}")
    assert np.array_equal(outs[1], outs[4])
    se = ops.StructuringElement.box(1)
    ref = oracles.saturating_add(oracles.morphology(vol, se.mask, "erode"),
                                 oracles.morphology(vol, se.mask, "dilate"))
    assert np.array_equal(outs[1], oracles.crop_volume(ref, (2, 2, 2, 10, 10, 8)))


def test_two_midwrite_splits_execute_correctly(tmp_path):
    meta = VolumeMeta(12, 12, 8, U8)
    write_input(tmp_path, meta, seed=24)

    def graph(out):
        stages = [sio.read_stage(tmp_path / "in")]
        stages += [ops.square(name=f"f{i}") for i in range(6)]
        stages.append(sio.write_stage(tmp_path / out))
        return chain(*stages)

    run_graph(graph("big"), Budget(1 << 30), tmpdir=tmp_path)
    sb = slice_bytes(meta)
    eps = 64
    # whole chain needs 14 slices; 5 forces several recursive splits
    tight = Budget(5 * sb + 8 * eps + 1, eps)
    p = plan(graph("small"), tight, tmpdir=tmp_path, grow_windows=True)
    assert p.verdict == "repaired"
    assert sum(1 for a in p.actions if a.kind == "midwrite") >= 2
    rep = execute_plan(p, tmpdir=tmp_path)
    assert rep.leaked_slices == 0
    assert np.array_equal(sio.read_volume(tmp_path / "big"),
                          sio.read_volume(tmp_path / "small"))


def test_threaded_midwrite_plan_respects_concurrent_ledger(tmp_path):
    meta = VolumeMeta(12, 12, 8, U8)
    write_input(tmp_path, meta, seed=25)
    stages = [sio.read_stage(tmp_path / "in")]
    stages += [ops.square(name=f"f{i}") for i in range(4)]
    stages.append(sio.write_stage(tmp_path / "out"))
    g = chain(*stages)
    sb = slice_bytes(meta)
    eps = 128
    tight = Budget(9 * sb + 6 * eps + 1, eps)
    p = plan(g, tight, tmpdir=tmp_path, grow_windows=True, concurrent=True)
    assert p.verdict == "repaired"
    rep = execute_plan(p, threads=4, tmpdir=tmp_path)
    assert rep.leaked_slices == 0
    assert rep.peak_bytes <= p.ledger.formula_peak + p.ledger.overhead


@pytest.mark.parametrize("roomy", [True, False])
@pytest.mark.parametrize("sink", ["write", "writeInChunks"])
def test_a_write_holds_one_slice(tmp_path, sink, roomy):
    # a write keeps w = 1 on any budget, and its row is the one slice it
    # holds, of any layout; the tight budget splits the chain, so the
    # mid-write is checked too. f1 folds into g, so the split falls after
    # f0: a mid-write after g would hold as much as the write does.
    meta = VolumeMeta(16, 16, 12, U8)
    write_input(tmp_path, meta, seed=47)
    out = (sio.write_chunks_stage(tmp_path / "out", chunks=(8, 8, 4))
           if sink == "writeInChunks" else sio.write_stage(tmp_path / "out"))
    g = chain(sio.read_stage(tmp_path / "in"), ops.square(name="f0"),
              ops.discrete_gaussian(0.8, name="g"), ops.square(name="f1"), out)
    eps = 256
    cap = 1 << 40 if roomy else 11 * slice_bytes(meta) + 4 * eps + 1
    p = plan(g, Budget(cap, eps), tmpdir=tmp_path)
    writes = {st.name: st for seg in p.segments for st in seg.nodes if st.op_kind == "write"}
    assert sorted(writes) == ([out.name] if roomy else ["midwrite0", out.name])
    assert not [a for a in p.actions
                if a.kind == "window_resize" and a.detail["stage"] in writes]
    rows = {r.name: r for r in p.ledger.rows if r.name in writes}
    assert {n: (st.w, rows[n].alpha, rows[n].beta, rows[n].gamma) for n, st in writes.items()} \
        == {n: (1, slice_bytes(meta), 0, 0) for n in writes}
    rep = execute_plan(p, tmpdir=tmp_path)
    assert rep.leaked_slices == 0
    assert rep.peak_bytes <= rep.promised_peak


def test_a_run_leaves_a_midwrite_directory_it_did_not_make(tmp_path):
    meta = VolumeMeta(12, 12, 8, U8)
    vol = write_input(tmp_path, meta, seed=48)
    g = chain(sio.read_stage(tmp_path / "in"),
              *[ops.square(name=f"f{i}") for i in range(4)],
              sio.write_stage(tmp_path / "out"))
    eps = 128
    tmp = tmp_path / "tmp"
    p = plan(g, Budget(9 * slice_bytes(meta) + 6 * eps + 1, eps), tmpdir=tmp)
    (mid,) = [Path(a.detail["path"]) for a in p.actions if a.kind == "midwrite"]
    mid.mkdir(parents=True)
    (mid / "important.txt").write_text("keep")
    with pytest.raises(FileExistsError, match=re.escape(str(mid))):
        execute_plan(p, tmpdir=tmp)
    assert (mid / "important.txt").read_text() == "keep"
    assert not (tmp_path / "out").exists()
    # with the path free, the run makes it and then removes only that
    (mid / "important.txt").unlink()
    mid.rmdir()
    (tmp / "other.txt").write_text("keep")
    execute_plan(p, tmpdir=tmp)
    assert os.listdir(tmp) == ["other.txt"]
    for _ in range(4):  # four saturating squares
        vol = np.minimum(vol.astype(np.int64) ** 2, 255).astype(np.uint8)
    assert np.array_equal(sio.read_volume(tmp_path / "out"), vol)


# ---------------------------------------------------------------------------
# the one join is zip_add
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threads", [1, 2])
def test_planning_a_plain_zip_fails_the_graph_check(tmp_path, threads):
    """A two-input stage of kind zip is no join: plan refuses the graph."""
    write_input(tmp_path, VolumeMeta(8, 8, 6, U8))
    graph = tee_graph([sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
                      [[ops.square(name="a")], [ops.square(name="b")]],
                      join=PlanStage(name="z", op_kind="zip"),
                      post=[sio.write_stage(tmp_path / "out")])
    threads_before = threading.active_count()
    with pytest.raises(PlanningError, match="stage 'z' cannot take 2 inputs"):
        plan(graph, Budget(1 << 30), tmpdir=str(tmp_path), grow_windows=False,
             concurrent=threads > 1)
    assert threading.active_count() == threads_before
    assert not (tmp_path / "out").exists()


def test_write_stage_named_midwrite_keeps_its_output(tmp_path):
    # only the plan's own midwrite intermediates are scratch space
    vol = write_input(tmp_path, VolumeMeta(8, 8, 6, U8))
    g = chain(sio.read_stage(tmp_path / "in"),
              sio.write_stage(tmp_path / "out_keep", name="midwrite_final"))
    _, rep = run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
    assert dict(rep.sinks)["midwrite_final"] == 6
    assert np.array_equal(sio.read_volume(tmp_path / "out_keep"), vol)


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_is_a_planning_error(tmp_path, threads):
    write_input(tmp_path, VolumeMeta(8, 8, 6, U8))
    g = chain(sio.read_stage(tmp_path / "in"), sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=str(tmp_path), grow_windows=False)
    with pytest.raises(PlanningError, match=f"threads must be >= 1, got {threads}"):
        execute_plan(p, threads=threads, tmpdir=tmp_path)
    with pytest.raises(PlanningError, match=f"threads must be >= 1, got {threads}"):
        run_graph(g, Budget(1 << 30), threads=threads, tmpdir=tmp_path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stages,message", [
    (lambda d: [sio.read_stage(d / "in"), ops.square(name="sq")], "cannot end a pipeline"),
    (lambda d: [sio.read_stage(d / "in"), sio.write_stage(d / "a", name="w"),
                sio.write_stage(d / "b")], "'w' \\(write\\) takes 1 input\\(s\\) and ends"),
    (lambda d: [ops.square(name="sq"), sio.write_stage(d / "b")], "'sq' \\(pointwise\\) takes 1"),
])
def test_stage_in_the_wrong_place_is_a_planning_error(tmp_path, stages, message):
    write_input(tmp_path, VolumeMeta(8, 8, 6, U8))
    with pytest.raises(PlanningError, match=message):
        plan(chain(*stages(tmp_path)), Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_a_misplaced_stage_in_a_split_chain_is_refused_before_any_io(tmp_path):
    # the budget splits the chain; a chain that ends in a square is refused
    # by plan, before the split, so no segment runs and no slice is made
    meta = VolumeMeta(16, 16, 40, U8)
    write_input(tmp_path, meta, seed=49)
    budget = Budget(10 * slice_bytes(meta) + 5 * 64, 64)
    tmp = tmp_path / "tmp"

    def gaussians(end):
        return chain(sio.read_stage(tmp_path / "in"), ops.discrete_gaussian(0.5, name="g1"),
                     ops.discrete_gaussian(0.5, name="g2"), end)

    split = plan(gaussians(sio.write_stage(tmp_path / "out")), budget, tmpdir=tmp)
    assert [a.kind for a in split.actions].count("midwrite") == 1
    ALLOC.reset_peaks()
    with pytest.raises(PlanningError, match=r"^stage 'sq' \(pointwise\) takes 1 input\(s\) "
                                            "and cannot end a pipeline$"):
        plan(gaussians(ops.square(name="sq")), budget, tmpdir=tmp)
    assert not tmp.exists() and ALLOC.peak_slices == 0


def test_a_segment_writing_a_directory_twice_is_refused(tmp_path):
    vol = write_input(tmp_path, VolumeMeta(8, 8, 6, U8))
    g = tee_graph([sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
                  [[sio.write_stage(tmp_path / "out", name="wa")],
                   [sio.write_stage(tmp_path / ".." / tmp_path.name / "out", name="wb")]])
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path)
    with pytest.raises(PlanningError, match=f"stage 'wb' writes into {tmp_path / 'out'}, "
                                            "which its segment also writes"):
        execute_plan(p, tmpdir=tmp_path)
    assert not (tmp_path / "out").exists()
    assert np.array_equal(sio.read_volume(tmp_path / "in"), vol)


def test_a_split_chain_may_rewrite_the_directory_it_read(tmp_path):
    # the mid-write ends the segment that reads in, so the write that
    # replaces it runs after in is read through
    meta = VolumeMeta(12, 12, 8, U8)
    vol = write_input(tmp_path, meta, seed=47)
    stages = [sio.read_stage(tmp_path / "in")]
    stages += [ops.square(name=f"f{i}") for i in range(4)]
    g = chain(*stages, sio.write_stage(tmp_path / "in"))
    eps = 128
    p = plan(g, Budget(9 * slice_bytes(meta) + 6 * eps + 1, eps), tmpdir=tmp_path)
    assert len(p.segments) == 2
    rep = execute_plan(p, tmpdir=tmp_path)
    assert rep.leaked_slices == 0
    for _ in range(4):  # four saturating squares
        vol = np.minimum(vol.astype(np.int64) ** 2, 255).astype(np.uint8)
    assert np.array_equal(sio.read_volume(tmp_path / "in"), vol)


# ---------------------------------------------------------------------------
# a generated volume, read back through the pipeline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["zero", "ramp", "random"])
def test_erode_of_a_generated_volume_runs_end_to_end(tmp_path, kind, threads):
    meta = VolumeMeta(9, 7, 11, U8)
    vol = write_input(tmp_path, meta, seed=3, kind="constant" if kind == "zero" else kind)
    g = chain(sio.read_stage(tmp_path / "in"), ops.erode(1, name="e"),
              sio.write_stage(tmp_path / "out"))
    rep = execute_plan(plan(g, Budget(1 << 30)), threads=threads, tmpdir=tmp_path)
    ref = oracles.morphology(vol, ops.StructuringElement.box(1).mask, "erode")
    assert np.array_equal(sio.read_volume(tmp_path / "out"), ref)
    assert rep.leaked_slices == 0
    assert dict(rep.sinks)["write"] == meta.depth - 2


# ---------------------------------------------------------------------------
# every stage builder is a composition of the stream functionals
# ---------------------------------------------------------------------------

from stackstream.runtime import RunContext, _build_segment  # noqa: E402


def test_crop_stops_reading_at_its_box(tmp_path):
    meta = VolumeMeta(8, 8, 20, U8)
    vol = write_input(tmp_path, meta, seed=30)
    g = chain(sio.read_stage(tmp_path / "in"),
              ops.crop((1, 1, 2, 7, 7, 6), name="c"),
              sio.write_stage(tmp_path / "out"))
    _, rep = run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
    assert rep.sources == [("read", 6, 6)]
    assert np.array_equal(sio.read_volume(tmp_path / "out"), vol[2:6, 1:7, 1:7])


def test_truncated_permute_chunk_names_the_file(tmp_path, monkeypatch):
    meta = VolumeMeta(6, 5, 4, U8)
    write_input(tmp_path, meta, seed=31)
    real = sio._write_bytes

    def truncating(fh, data):
        real(fh, data[:-1] if os.path.basename(fh.name).startswith("c_") else data)

    monkeypatch.setattr(sio, "_write_bytes", truncating)
    g = chain(sio.read_stage(tmp_path / "in"),
              ops.permute_axes("zyx", name="perm", chunk_edge=3),
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    # each of the chunk's three planes is appended one byte short
    with pytest.raises(IOError, match=r"c_000_000_000\.raw: expected 27 bytes, got 24"):
        execute_plan(p, tmpdir=tmp_path)
    assert ALLOC.live_slices == 0


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_kernel_raises_stage_error_at_its_first_output(tmp_path, monkeypatch,
                                                               threads):
    meta = VolumeMeta(8, 8, 16, U8)
    vol = write_input(tmp_path, meta, seed=32)
    real = ops.gaussian_window

    def failing(window, g1d, lo, hi, **kw):
        # the second call, at t = 4: on two workers calls may start out of order
        if np.array_equal(window[0].data, vol[4]):
            raise RuntimeError("injected")
        return real(window, g1d, lo, hi, **kw)

    monkeypatch.setattr(ops, "gaussian_window", failing)
    # k_z = 7 and w = 10: each call computes outputs t .. t + 3
    g = chain(sio.read_stage(tmp_path / "in"),
              ops.discrete_gaussian(0.8, w=10, name="g"),
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False,
             concurrent=threads > 1)
    with pytest.raises(StageError) as ei:
        execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert ei.value.stage == "g"
    assert ei.value.index == 4
    assert isinstance(ei.value.cause, RuntimeError)
    assert ALLOC.live_slices == 0


@pytest.mark.parametrize("threads", [1, 2])
def test_a_folded_stage_that_fails_is_named_with_its_output_z(tmp_path, monkeypatch,
                                                              threads):
    """A pointwise stage folded into the kernel before it still fails as
    itself, on the pipeline thread and on a pool worker alike: the
    StageError names it and the z of the output it was given."""
    meta = VolumeMeta(8, 8, 16, U8)
    # slice z is all 10 z, so the median's output z is all 10 (z + 1)
    ramp = np.arange(0, 160, 10, dtype=np.uint8)
    sio.write_volume(tmp_path / "in", np.broadcast_to(ramp[:, None, None], (16, 8, 8)), U8)

    def bad(arr, dtype):
        if arr[0, 0] == 60:
            raise RuntimeError("injected")
        return arr

    monkeypatch.setattr(planner, "INLINE_WORK", 0)
    # w = 6 and k_z = 3: each call computes four outputs
    g = chain(sio.read_stage(tmp_path / "in"), ops.median_filter(1, w=6, name="m"),
              ops.pointwise(bad, name="bad"), ops.square(name="sq"),
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False,
             concurrent=threads > 1)
    assert [a.line() for a in p.actions] == ["fuse stage=bad into=m",
                                             "fuse stage=sq into=m"]
    assert p.pooled == ({"m"} if threads > 1 else set())
    with pytest.raises(StageError) as ei:
        execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert (ei.value.stage, ei.value.index) == ("bad", 5)
    assert isinstance(ei.value.cause, RuntimeError)
    assert ALLOC.live_slices == 0


def _close_case(d, case):
    """The case's graph. Per-slice stages and the join hold nothing of their
    own between pulls, so crop, permute_in_plane and zip_add feed a median
    with w = 5, whose window still holds two of their output slices when
    the run is closed after one pull, mid-window."""
    read, out = sio.read_stage(d / "in"), [sio.write_stage(d / "out")]
    if case in ("crop", "permute_in_plane", "zip_add"):
        out.insert(0, ops.median_filter(1, w=5, name="held"))
    single = {
        "kernel": ops.median_filter(1, w=5, name="op"),
        "pointwise": ops.square(w=3, name="op"),
        "crop": ops.crop((1, 1, 2, 7, 7, 10), name="op"),
        "pad_zero": ops.pad((1, 1, 0, 2, 2, 2), "zero", name="op"),
        "pad_clamp": ops.pad((1, 1, 0, 2, 2, 2), "clamp", name="op"),
        "permute_in_plane": ops.permute_axes("yxz", name="op"),
        "permute_z": ops.permute_axes("zyx", name="op", chunk_edge=3),
    }
    if case in single:
        return chain(read, single[case], *out)
    if case in ("histogram", "mean"):
        return chain(read, ops.histogram_op(w=3, name="op") if case == "histogram"
                     else ops.sampled_mean(2, name="op"))
    if case == "zip_add":
        return tee_graph([read, ops.tee(name="t")],
                         [[ops.square(name="a")], [ops.threshold(9, name="b")]],
                         ops.add_join(name="j"), out)
    conv = [ops.convolve(ops.Kernel3D(np.ones((k, 3, 3)) / 9 / k), name=f"b{k}")
            for k in (5, 3)]
    g = tee_graph([read, ops.tee(name="t")],
                  [[conv[0], sio.write_stage(d / "o5", name="w5")],
                   [conv[1], sio.write_stage(d / "o3", name="w3")]])
    return share_windows(g, ["b5", "b3"])[0] if case == "shared" else g


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", [
    "kernel", "pointwise", "crop", "pad_zero", "pad_clamp", "permute_in_plane",
    "permute_z", "zip_add", "tee", "shared", "histogram", "mean"])
def test_close_mid_sweep_releases_everything(tmp_path, case, threads):
    meta = VolumeMeta(8, 8, 12, U8)
    write_input(tmp_path, meta, seed=33)
    p = plan(_close_case(tmp_path, case), Budget(1 << 30), tmpdir=tmp_path,
             grow_windows=False, concurrent=threads > 1)
    ctx = RunContext(tmpdir=tmp_path, threads=threads,
                     pooled=p.pooled if threads > 1 else frozenset())
    steppers = _build_segment(p.segments[0], ctx)
    try:
        next(steppers[0])  # the sink takes the stage's first output
        if threads == 1:  # with stage threads, what is held at this moment varies
            assert ALLOC.live_slices or ALLOC.internal_bytes or case == "mean"
    finally:
        ctx.close_all()
    assert ALLOC.live_slices == 0
    assert ALLOC.live_refs == 0
    assert ALLOC.internal_bytes == 0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fail", [False, True])
def test_no_stage_workspace_outlives_the_run(tmp_path, monkeypatch, fail, threads):
    """Each kernel stage's workspaces live in its own Scratch, which the run
    closes with its streams: once execute_plan returns or raises, none of
    them is reachable, traceback included."""
    meta = VolumeMeta(8, 8, 16, U8)
    write_input(tmp_path, meta, seed=34)
    buffers = []
    real_take = ops.Scratch.take

    def take(self, name, shape, dtype=np.float64):
        out = real_take(self, name, shape, dtype)
        buffers.append(weakref.ref(self.buffers[name]))
        return out

    monkeypatch.setattr(ops.Scratch, "take", take)
    if fail:
        real = ops.gaussian_window
        calls = {"n": 0}

        def failing(window, g1d, lo, hi, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected")
            return real(window, g1d, lo, hi, **kw)

        monkeypatch.setattr(ops, "gaussian_window", failing)
    g = chain(sio.read_stage(tmp_path / "in"), ops.median_filter(1, w=6, name="m"),
              ops.discrete_gaussian(0.8, w=9, name="g"),
              ops.convolve(ops.Kernel3D.box(3), name="c"), sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False,
             concurrent=threads > 1)
    with pytest.raises(StageError) if fail else nullcontext() as raised:
        execute_plan(p, threads=threads, tmpdir=tmp_path)
    gc.collect()
    assert buffers
    assert not [ref for ref in buffers if ref() is not None]
    assert raised is None or raised.value.stage == "g"


# ---------------------------------------------------------------------------
# threads > 1: kernel calls one window ahead on the run's worker pool
# ---------------------------------------------------------------------------

def _threads_case(d, case, out):
    read, write = sio.read_stage(d / "in"), sio.write_stage(d / out)
    if case == "kz":  # every call emits one slice
        return chain(read, ops.discrete_gaussian(0.8, name="g"),
                     ops.median_filter(1, name="m"),
                     ops.convolve(ops.Kernel3D.box(3), name="c"), write)
    if case == "grown":  # one call emits several slices
        return chain(read, ops.square(name="sq"),
                     ops.discrete_gaussian(0.8, w=11, name="g"),
                     ops.erode(1, w=6, name="e"), ops.dilate(1, w=9, name="di"), write)
    g = tee_graph([read, ops.tee(name="t")],
                  [[ops.discrete_gaussian(0.3, name="a")], [ops.dilate(1, w=4, name="b")]],
                  ops.add_join(name="j"), [ops.median_filter(1, w=5, name="m"), write])
    return share_windows(g, ["a", "b"])[0] if case == "shared" else g


@pytest.mark.parametrize("case", ["kz", "grown", "tee_join", "shared"])
def test_kernel_outputs_bit_identical_at_threads_1_2_4(tmp_path, case):
    write_input(tmp_path, VolumeMeta(13, 11, 24, U8), seed=40)
    outs = []
    for threads in (1, 2, 4):
        p = plan(_threads_case(tmp_path, case, f"out{threads}"), Budget(1 << 30),
                 tmpdir=tmp_path, grow_windows=False, concurrent=threads > 1)
        rep = execute_plan(p, threads=threads, tmpdir=tmp_path)
        assert rep.leaked_slices == 0
        assert rep.within_budget
        outs.append(sio.read_volume(tmp_path / f"out{threads}"))
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


def test_repaired_midwrite_plan_bit_identical_at_threads_1_2_4(tmp_path):
    meta = VolumeMeta(12, 12, 16, U8)
    write_input(tmp_path, meta, seed=41)

    def graph(out):
        return chain(sio.read_stage(tmp_path / "in"), ops.discrete_gaussian(0.8, name="g"),
                     ops.square(name="sq"), ops.median_filter(1, name="m"),
                     sio.write_stage(tmp_path / out))

    run_graph(graph("ref"), Budget(1 << 30), tmpdir=tmp_path)
    eps = 64
    # sq folds into g, and whole, the chain needs 14 slices (18 with its
    # calls one window ahead)
    tight = Budget(13 * slice_bytes(meta) + 4 * eps + 1, eps)
    for threads in (1, 2, 4):
        p = plan(graph(f"out{threads}"), tight, tmpdir=tmp_path, concurrent=threads > 1)
        assert [a.line() for a in p.actions if a.kind != "window_resize"] == [
            "fuse stage=sq into=g",
            f"midwrite after g path={tmp_path / 'mid0'} extra_io={2 * 10 * 12 * 12} B"]
        rep = execute_plan(p, threads=threads, tmpdir=tmp_path)
        assert rep.leaked_slices == 0
        assert rep.peak_bytes <= p.ledger.formula_peak + p.ledger.overhead
        assert np.array_equal(sio.read_volume(tmp_path / f"out{threads}"),
                              sio.read_volume(tmp_path / "ref"))


@pytest.mark.parametrize("threads", [2, 4])
def test_ledger_prices_one_window_step_ahead(tmp_path, every_call_on_the_pool, threads):
    # the gaussian's stride (6) exceeds the batch of the square feeding it (1)
    meta = VolumeMeta(16, 16, 30, U8)
    write_input(tmp_path, meta, seed=42)
    g = chain(sio.read_stage(tmp_path / "in"), ops.square(name="sq"),
              ops.discrete_gaussian(0.8, w=12, name="g"), ops.erode(1, w=5, name="e"),
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30, 0), tmpdir=tmp_path, grow_windows=False, concurrent=True)
    sb = slice_bytes(meta)
    # one window step per kernel stage: s input slices and s outputs
    assert p.ledger.queue_bytes == (6 + 6) * sb + (3 + 3) * sb
    assert f"queue_allowance {18 * sb} B" in p.render()
    serial = plan(g, Budget(1 << 30, 0), tmpdir=tmp_path, grow_windows=False)
    assert p.ledger.formula_peak == serial.ledger.formula_peak + 18 * sb
    rep = execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert rep.leaked_slices == 0
    assert rep.peak_bytes <= p.ledger.formula_peak + p.ledger.overhead


def test_shared_window_group_is_priced_inline(tmp_path, every_call_on_the_pool):
    meta = VolumeMeta(13, 11, 24, U8)
    write_input(tmp_path, meta)
    p = plan(_threads_case(tmp_path, "shared", "out"), Budget(1 << 30),
             grow_windows=False, concurrent=True)
    # only the median after the join (w = 5, k_z = 3) computes one window ahead
    assert p.ledger.queue_bytes == (3 + 3) * slice_bytes(meta)
    assert p.pooled == {"m"}


@pytest.mark.parametrize("threads", [1, 2])
def test_folded_stages_run_in_a_shared_window_and_on_the_pool(tmp_path, monkeypatch,
                                                              threads):
    """Pointwise stages after both members of a shared-window group and
    after the median past the join fold into them, and the output equals
    the unfused plan's, which runs each as a stage of its own. At threads
    2 the median's calls, and its threshold, run on the pool. The halves
    keep the join's sums below saturation."""
    write_input(tmp_path, VolumeMeta(13, 11, 24, U8), seed=52)
    monkeypatch.setattr(planner, "INLINE_WORK", 0)

    def graph(out):
        g = tee_graph([sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
                      [[ops.discrete_gaussian(0.3, name="a"),
                        ops.pointwise(lambda arr, _: arr // 2, name="ha")],
                       [ops.dilate(1, w=4, name="b"),
                        ops.pointwise(lambda arr, _: arr // 2, name="hb")]],
                      ops.add_join(name="j"),
                      [ops.median_filter(1, w=5, name="m"), ops.threshold(160, name="tm"),
                       sio.write_stage(tmp_path / out)])
        return share_windows(g, ["a", "b"])[0]

    p = plan(graph("out"), Budget(1 << 30), tmpdir=tmp_path, grow_windows=False,
             concurrent=threads > 1)
    assert [a.line() for a in p.actions] == [
        "fuse stage=ha into=a", "fuse stage=hb into=b", "fuse stage=tm into=m"]
    assert p.pooled == ({"m"} if threads > 1 else set())
    rep = execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert rep.leaked_slices == 0 and rep.within_budget
    monkeypatch.setattr(planner, "fuse_pointwise", lambda g: (g, []))
    execute_plan(plan(graph("ref"), Budget(1 << 30), tmpdir=tmp_path, grow_windows=False),
                 tmpdir=tmp_path)
    out = sio.read_volume(tmp_path / "out")
    assert 0 < np.count_nonzero(out) < out.size
    assert np.array_equal(out, sio.read_volume(tmp_path / "ref"))


@pytest.mark.parametrize("threads", [2, 4])
def test_workers_never_exceed_threads_nor_outlive_the_run(tmp_path, monkeypatch, threads):
    write_input(tmp_path, VolumeMeta(16, 16, 20, U8), seed=43)
    real, seen = ops.gaussian_window, []

    def counting(*args, **kw):
        seen.append(sum(t.name.startswith("stage-") for t in threading.enumerate()))
        return real(*args, **kw)

    monkeypatch.setattr(ops, "gaussian_window", counting)
    g = chain(sio.read_stage(tmp_path / "in"),
              *[ops.discrete_gaussian(0.6, name=f"g{i}") for i in range(3)],
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False, concurrent=True)
    execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert seen and max(seen) <= threads
    assert not [t for t in threading.enumerate() if t.name.startswith("stage-")]


def _call_threads(monkeypatch):
    """The names of the threads that run each gaussian call."""
    real, names = ops.gaussian_window, []

    def recording(*args, **kw):
        names.append(threading.current_thread().name)
        return real(*args, **kw)

    monkeypatch.setattr(ops, "gaussian_window", recording)
    return names


def test_small_kernel_calls_run_on_the_pipeline_thread(tmp_path, monkeypatch):
    # a 16 x 16 call is far below INLINE_WORK: no worker ever starts
    write_input(tmp_path, VolumeMeta(16, 16, 12, U8), seed=47)
    names = _call_threads(monkeypatch)
    _, rep = run_graph(gauss_graph(tmp_path), Budget(1 << 30), threads=2, tmpdir=tmp_path)
    assert names and set(names) == {threading.current_thread().name}
    assert rep.within_budget


def test_large_kernel_calls_stay_on_the_pool(tmp_path, monkeypatch):
    # a gaussian sigma = 0.8 call over 256 x 256, as in a chunk-store
    # workload at threads = 2, is worth a handoff
    meta = VolumeMeta(256, 256, 8, U8)
    write_input(tmp_path, meta, seed=48)
    names = _call_threads(monkeypatch)
    p, _ = run_graph(gauss_graph(tmp_path, out="o2"), Budget(1 << 30), threads=2,
                     tmpdir=tmp_path)
    assert p.pooled == {"g"}
    assert names and all(n.startswith("stage-worker") for n in names)
    run_graph(gauss_graph(tmp_path, out="o1"), Budget(1 << 30), tmpdir=tmp_path)
    assert np.array_equal(sio.read_volume(tmp_path / "o2"), sio.read_volume(tmp_path / "o1"))


@pytest.mark.parametrize("sigma, n, pooled", [(0.8, 256, True), (1.5, 128, False)])
def test_the_plan_pools_a_gaussian_by_its_counted_work(tmp_path, sigma, n, pooled):
    """A gaussian counts 49 k_z taps per output voxel: sigma = 0.8 (k_z = 7)
    at 256^2 comes to 65,536 x 343 = 22.5M >= INLINE_WORK, sigma = 1.5
    (k_z = 11) at 128^2 to 16,384 x 539 = 8.8M, below it. Only a pooled
    stage is charged the window step."""
    meta = VolumeMeta(n, n, 12, U8)
    write_input(tmp_path, meta, seed=50)
    p = plan(gauss_graph(tmp_path, sigma=sigma), Budget(1 << 30), tmpdir=tmp_path,
             grow_windows=False, concurrent=True)
    assert p.pooled == ({"g"} if pooled else set())
    assert p.ledger.queue_bytes == (2 * slice_bytes(meta) if pooled else 0)


def _handed_to_the_pool(monkeypatch):
    """The names of the stages a run hands to _ThreadHandoff."""
    init, names = runtime._ThreadHandoff.__init__, []

    def recording(self, name, *args):
        names.append(name)
        init(self, name, *args)

    monkeypatch.setattr(runtime._ThreadHandoff, "__init__", recording)
    return names


def _load_workloads(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def _scaled_workload(tmp_path, monkeypatch, name):
    """(spec text with {out} open, allowance) of a benchmark workload
    with its slices a quarter as wide and high, its input written under
    tmp_path: its budget, allowance and INLINE_WORK are cut 16x, so it
    plans the same windows in slices and the same pool decisions."""
    wl = _load_workloads(monkeypatch).WORKLOADS[name]
    nx, ny, depth = wl.dims
    meta = VolumeMeta(nx // 4, ny // 4, depth, U8)
    write_input(tmp_path, meta, chunks=wl.chunks and (16, 16, wl.chunks[2]))
    ops.Kernel3D.box(3).save(tmp_path / "box3.kernel")
    body = [line.replace("chunks=64,64,", "chunks=16,16,") for line in wl.body]
    text = "\n".join([f"source {cli.parse_bytes(wl.budget) // 16} B",
                      *(line.format(inp=tmp_path / "in", out="{out}",
                                    kernel=tmp_path / "box3.kernel") for line in body),
                      "sink"]) + "\n"
    monkeypatch.setattr(planner, "INLINE_WORK", planner.INLINE_WORK // 16)
    return text, (wl.epsilon or Budget(1).overhead_epsilon) // 16


@pytest.mark.parametrize("name, pooled", [("denoise", set()), ("deep_small", set()),
                                          ("midwrite_chunks", {"gaussian4"})])
def test_threads_2_pools_exactly_the_planned_stages_of_each_workload(
        tmp_path, monkeypatch, name, pooled):
    """Each benchmark workload, scaled down by _scaled_workload. At threads
    2 the run hands exactly plan.pooled to _ThreadHandoff: denoise's calls
    are too small (its sigma = 1.5 gaussian counts 539 taps), deep_small's
    kernels make one call per sweep each, so its promise is its threads-1
    promise, and midwrite_chunks pools its gaussian. Every output equals
    threads 1."""
    text, eps = _scaled_workload(tmp_path, monkeypatch, name)
    handed = _handed_to_the_pool(monkeypatch)
    plans = {}
    for threads in (1, 2):
        graph, budget = cli.parse(text.replace("{out}", str(tmp_path / f"out{threads}")))
        p = plan(graph, Budget(budget.cap, eps), tmpdir=tmp_path / f"mid{threads}",
                 concurrent=threads > 1)
        rep = execute_plan(p, threads=threads, tmpdir=tmp_path)
        assert rep.within_budget and rep.leaked_slices == 0
        plans[threads] = p
    assert p.pooled == set(handed) == pooled
    if name == "deep_small":
        assert p.ledger.formula_peak == plans[1].ledger.formula_peak
    assert np.array_equal(sio.read_volume(tmp_path / "out2"), sio.read_volume(tmp_path / "out1"))


@pytest.mark.parametrize("name", ["denoise", "deep_small", "midwrite_chunks"])
def test_only_deep_small_folds_stages_into_its_kernels(tmp_path, monkeypatch, name):
    """Each benchmark workload, scaled down by _scaled_workload. deep_small
    folds its square into the dilate and its second threshold into the
    gaussian, and their two rows leave its promise: 7,609 slices drop to
    5,589, as on the full workload (31,166,464 -> 22,892,544 B). denoise
    and midwrite_chunks have no pointwise stage after a kernel, so their
    plans render as they do with fusion off."""
    text, eps = _scaled_workload(tmp_path, monkeypatch, name)
    graph, budget = cli.parse(text.replace("{out}", str(tmp_path / "out")))
    p = plan(graph, Budget(budget.cap, eps), tmpdir=tmp_path / "mid")
    monkeypatch.setattr(planner, "fuse_pointwise", lambda g: (g, []))
    unfused = plan(graph, Budget(budget.cap, eps), tmpdir=tmp_path / "mid")
    fuses = [a.line() for a in p.actions if a.kind == "fuse"]
    if name != "deep_small":
        assert fuses == [] and p.render() == unfused.render()
        return
    assert fuses == ["fuse stage=square5 into=dilate4",
                     "fuse stage=threshold7 into=gaussian6"]
    assert (unfused.ledger.peak_slices(), p.ledger.peak_slices()) == (7609, 5589)
    assert len(p.ledger.rows) == len(unfused.ledger.rows) - 2


@pytest.mark.parametrize("threads", [2, 4])
def test_a_serial_plan_runs_no_call_on_the_pool(tmp_path, monkeypatch, every_call_on_the_pool,
                                                threads):
    """A plan made without concurrent pools nothing, whatever the run's
    thread count: every call runs on the pipeline thread, within the
    promise, which charges no window step."""
    write_input(tmp_path, VolumeMeta(16, 16, 20, U8), seed=51)
    names, handed = _call_threads(monkeypatch), _handed_to_the_pool(monkeypatch)
    p = plan(gauss_graph(tmp_path), Budget(1 << 30), tmpdir=tmp_path, grow_windows=False)
    assert p.pooled == set() and p.ledger.queue_bytes == 0
    rep = execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert rep.within_budget and rep.leaked_slices == 0
    assert not handed and names and set(names) == {threading.current_thread().name}


def test_a_stage_of_one_call_per_sweep_is_never_pooled(tmp_path, monkeypatch,
                                                       every_call_on_the_pool):
    """A kernel stage whose window is its whole input makes one call per
    sweep, which has nothing to overlap: it is not pooled and not charged
    the window step, while a stage of more calls is."""
    meta = VolumeMeta(16, 16, 20, U8)
    write_input(tmp_path, meta, seed=52)
    names = _call_threads(monkeypatch)
    g = chain(sio.read_stage(tmp_path / "in"), ops.discrete_gaussian(0.8, w=20, name="g"),
              ops.erode(1, w=5, name="e"), sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False, concurrent=True)
    assert p.pooled == {"e"}
    assert {row.name: row.step for row in p.ledger.rows if row.step} == {
        "e": (3 + 3) * slice_bytes(meta)}
    rep = execute_plan(p, threads=2, tmpdir=tmp_path)
    assert rep.within_budget
    assert names == [threading.current_thread().name]


@pytest.fixture
def every_call_on_the_pool(monkeypatch):
    """Plan every kernel stage that makes more than one call per sweep onto
    the pool at threads > 1, however small its calls."""
    monkeypatch.setattr(planner, "INLINE_WORK", 0)


@pytest.mark.parametrize("case", ["kz", "grown", "tee_join", "shared"])
def test_pool_outputs_bit_identical_to_the_reference(tmp_path, every_call_on_the_pool, case):
    test_kernel_outputs_bit_identical_at_threads_1_2_4(tmp_path, case)


@pytest.mark.parametrize("threads", [2, 4])
def test_pool_workers_never_exceed_threads(tmp_path, monkeypatch, every_call_on_the_pool,
                                           threads):
    write_input(tmp_path, VolumeMeta(16, 16, 20, U8), seed=43)
    real, seen = ops.gaussian_window, []

    def counting(*args, **kw):
        assert threading.current_thread().name.startswith("stage-worker")
        seen.append(sum(t.name.startswith("stage-worker") for t in threading.enumerate()))
        return real(*args, **kw)

    monkeypatch.setattr(ops, "gaussian_window", counting)
    g = chain(sio.read_stage(tmp_path / "in"),
              *[ops.discrete_gaussian(0.6, name=f"g{i}") for i in range(3)],
              sio.write_stage(tmp_path / "out"))
    p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False, concurrent=True)
    execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert seen and max(seen) <= threads


@pytest.mark.parametrize("case", ["kernel", "shared"])
def test_pool_close_mid_sweep_releases_everything(tmp_path, monkeypatch, every_call_on_the_pool,
                                                  case):
    # the median is pooled; a shared-window group runs inline
    handed = _handed_to_the_pool(monkeypatch)
    test_close_mid_sweep_releases_everything(tmp_path, case, threads=2)
    assert handed == (["op"] if case == "kernel" else [])


def test_pool_failing_call_raises_stage_error_and_releases_everything(
        tmp_path, monkeypatch, every_call_on_the_pool):
    # the call at t = 4 fails on a worker: the handoff releases its window
    # and raises the error on the pipeline thread
    names = _call_threads(monkeypatch)
    test_failing_kernel_raises_stage_error_at_its_first_output(tmp_path, monkeypatch,
                                                               threads=2)
    assert names and all(n.startswith("stage-worker") for n in names)
    assert ALLOC.live_slices == 0 and ALLOC.internal_bytes == 0
    assert not [t for t in threading.enumerate() if t.name.startswith("stage-worker")]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_aborted_upstream_joins_the_file_creator(tmp_path, monkeypatch, threads):
    # deep enough that the creator is still creating files when the kernel fails
    write_input(tmp_path, VolumeMeta(4, 4, 400, U8), seed=49)
    real, calls = ops.gaussian_window, {"n": 0}

    def failing(*args, **kw):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected")
        return real(*args, **kw)

    monkeypatch.setattr(ops, "gaussian_window", failing)
    p = plan(gauss_graph(tmp_path), Budget(1 << 30), tmpdir=tmp_path,
             grow_windows=False, concurrent=threads > 1)
    with pytest.raises(StageError):
        execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert not [t for t in threading.enumerate() if t.name == "stage-create"]
    # the two slices of the calls before the failing one, and the marker
    assert sorted(os.listdir(tmp_path / "out")) == [sio.PARTIAL_MARKER, "000.raw", "001.raw"]
    assert all((tmp_path / "out" / n).stat().st_size == 16 for n in ("000.raw", "001.raw"))


def test_midwrite_intermediate_is_one_file(tmp_path, monkeypatch):
    meta = VolumeMeta(12, 12, 8, U8)
    vol = write_input(tmp_path, meta, seed=44)
    stages = [sio.read_stage(tmp_path / "in")]
    stages += [ops.square(name=f"f{i}") for i in range(4)]
    g = chain(*stages, sio.write_stage(tmp_path / "out"))
    eps = 128
    p = plan(g, Budget(9 * slice_bytes(meta) + 6 * eps + 1, eps), tmpdir=tmp_path)
    (mid,) = [a.detail["path"] for a in p.actions if a.kind == "midwrite"]
    real, listed = runtime._build_segment, []

    def build(seg, *args):
        if seg.source().name.startswith("midread"):
            listed.append(sorted(os.listdir(mid)))
            assert sio.load_manifest(mid).files == [sio.STACK_FILE]
        return real(seg, *args)

    monkeypatch.setattr(runtime, "_build_segment", build)
    execute_plan(p, tmpdir=tmp_path)
    assert listed == [["manifest.txt", sio.STACK_FILE]]
    for _ in range(4):  # four saturating squares
        vol = np.minimum(vol.astype(np.int64) ** 2, 255).astype(np.uint8)
    assert np.array_equal(sio.read_volume(tmp_path / "out"), vol)


def test_failed_multipage_write_leaves_its_marker(tmp_path):
    meta = VolumeMeta(4, 4, 6, U8)
    vol = sio.synth_volume(meta, "random", seed=45)
    sio.write_volume(tmp_path / "mid", vol, "u8")  # an earlier, complete volume

    def gen():
        for z in range(3):
            yield ALLOC.new_slice(meta.slice_meta, data=vol[z])
        raise RuntimeError("injected")

    src = st.Stream(gen(), meta=meta.slice_meta, depth=6)
    with pytest.raises(RuntimeError, match="injected"):
        sio._drain(sio.write_slices_steps(src, tmp_path / "mid", meta, multipage=True))
    assert (tmp_path / "mid" / sio.STACK_FILE).stat().st_size == 3 * 16
    with pytest.raises(PlanningError, match="partial write"):
        sio.load_manifest(tmp_path / "mid")


def test_user_write_named_midwrite_is_one_file_per_slice(tmp_path):
    write_input(tmp_path, VolumeMeta(4, 4, 3, U8), seed=46)
    g = chain(sio.read_stage(tmp_path / "in"),
              sio.write_stage(tmp_path / "out", name="midwrite0"))
    run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
    assert sorted(os.listdir(tmp_path / "out")) == [
        "000.raw", "001.raw", "002.raw", "manifest.txt"]


def test_cast_rounds_in_place_only_when_asked():
    arr = np.array([[-3.5, 0.5, 1.5], [254.5, 255.6, 300.0]])
    keep = arr.copy()
    out = runtime._cast_array(arr, U8)
    assert np.array_equal(arr, keep)  # a caller's input is never modified
    assert out.tolist() == [[0, 0, 2], [254, 255, 255]]
    assert np.array_equal(runtime._cast_array(arr, U8, in_place=True), out)
    assert arr.tolist() == [[0.0, 0.0, 2.0], [254.0, 255.0, 255.0]]  # rounded and clipped


# ---------------------------------------------------------------------------
# generated chains: the promises at threads 1 and 2
# ---------------------------------------------------------------------------

CHAIN_OPS = {"square": lambda n: ops.square(name=n),
             "square3": lambda n: ops.square(w=3, name=n),
             "threshold": lambda n: ops.threshold(100, name=n),
             "erode": lambda n: ops.erode(1, name=n),
             "dilate": lambda n: ops.dilate(1, name=n),
             "median": lambda n: ops.median_filter(1, name=n),
             "gauss5": lambda n: ops.discrete_gaussian(0.6, name=n),
             "box3": lambda n: ops.convolve(ops.Kernel3D.box(3), name=n)}


@hst.composite
def chain_cases(draw):
    """(kinds, meta, seed, budget slices, io): 0-6 kernel and pointwise ops
    over a u8 volume deep enough for every kernel, a budget of 2 slices
    (infeasible) to 8 per stage or none at all, and io = (input chunks,
    source keyword, output chunks).
    The input is a slice stack (None) or a chunk store, which `read` or
    `readInChunks` reads, and `write` (None) or `writeInChunks` writes
    the output; chunk dims run from 1 to beyond the volume's."""
    kinds = [draw(hst.sampled_from(sorted(CHAIN_OPS)))
             for _ in range(draw(hst.integers(0, 6)))]
    reduction = sum(CHAIN_OPS[k]("probe").k_z - 1 for k in kinds)
    meta = VolumeMeta(draw(hst.integers(3, 10)), draw(hst.integers(3, 10)),
                      reduction + draw(hst.integers(1, 12)), U8)
    slices = draw(hst.sampled_from([*range(2, 8 * (len(kinds) + 2)), 1 << 20]))
    chunks = hst.none() | hst.tuples(*(hst.integers(1, n + 2)
                                       for n in (meta.nx, meta.ny, meta.depth)))
    store = draw(chunks)
    source = draw(hst.sampled_from(("read", "readInChunks") if store else ("read",)))
    return kinds, meta, draw(hst.integers(0, 99)), slices, (store, source, draw(chunks))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=chain_cases())
@example(case=(["gauss5", "square", "median"], VolumeMeta(5, 4, 9, U8), 1, 2,
               (None, "read", None)))  # infeasible
@example(case=(["square", "gauss5", "box3", "erode"], VolumeMeta(7, 6, 20, U8), 2, 40,
               (None, "read", None)))
# a store whose chunks are deeper than the volume
@example(case=(["square"], VolumeMeta(6, 5, 8, U8), 3, 6, ((4, 5, 10), "read", None)))
def test_generated_chains_keep_their_promises(tmp_path_factory, case):
    kinds, meta, seed, slices, (store, source, out_chunks) = case
    d = tmp_path_factory.mktemp("chain")
    write_input(d, meta, seed=seed, chunks=store)
    reader = sio.read_chunks_stage if source == "readInChunks" else sio.read_stage

    def graph(out):
        return chain(reader(d / "in"),
                     *[CHAIN_OPS[k](f"s{i}") for i, k in enumerate(kinds)],
                     sio.write_stage(d / out) if out_chunks is None
                     else sio.write_chunks_stage(d / out, chunks=out_chunks))

    # the reference: each op on its own, in order, over the whole volume,
    # so that a plan that folds a stage into its kernel meets the stage
    ref, cur = sio.read_volume(d / "in"), meta
    for i, k in enumerate(kinds):
        stage = CHAIN_OPS[k](f"s{i}")
        ref, cur = apply_stage(stage, ref, cur, tmpdir=d), ops.out_meta(stage, cur)
    eps = 8
    budget = Budget(slices * slice_bytes(meta) + (len(kinds) + 2) * eps, eps)
    for threads in (1, 2):
        # at threads 2 the plan pools every kernel stage that makes more
        # than one call per sweep, so both of its in-flight Scratches run
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "INLINE_WORK", 0)
            p = plan(graph(f"out{threads}"), budget, tmpdir=d / f"mid{threads}",
                     concurrent=threads > 1)
        if p.verdict == "infeasible":
            with pytest.raises(PlanningError):
                execute_plan(p, threads=threads, tmpdir=d)
            continue
        rep = execute_plan(p, threads=threads, tmpdir=d)
        assert rep.peak_bytes <= p.ledger.formula_peak + p.ledger.overhead
        assert rep.leaked_slices == 0 and ALLOC.internal_bytes == 0
        assert np.array_equal(sio.read_volume(d / f"out{threads}"), ref)


# ---------------------------------------------------------------------------
# generated tee/join graphs: the promises at threads 1 and 2
# ---------------------------------------------------------------------------

RING_OPS = ("median", "dilate", "erode", "box3")


@hst.composite
def tee_join_cases(draw):
    """(branch kinds, meta, seed, budget slices): read -> tee -> two ring
    kernels -> join add -> write over a u8 volume, at a budget of 2 of a
    branch's output slices (infeasible), through ones the share_window
    repair makes fit, to none at all. box3 emits f32, so it joins only
    box3."""
    a = draw(hst.sampled_from(RING_OPS))
    b = draw(hst.sampled_from(["box3"] if a == "box3" else RING_OPS[:3]))
    meta = VolumeMeta(draw(hst.integers(3, 10)), draw(hst.integers(3, 10)),
                      draw(hst.integers(3, 14)), U8)
    slices = draw(hst.sampled_from([2, *range(7, 20), 1 << 20]))
    return (a, b), meta, draw(hst.integers(0, 99)), slices


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=tee_join_cases())
@example(case=(("median", "dilate"), VolumeMeta(6, 5, 9, U8), 1, 2))  # infeasible
@example(case=(("erode", "median"), VolumeMeta(7, 6, 12, U8), 2, 12))  # share_window
@example(case=(("box3", "box3"), VolumeMeta(5, 7, 10, U8), 3, 8))  # share_window
@example(case=(("dilate", "erode"), VolumeMeta(8, 4, 11, U8), 4, 1 << 20))
def test_generated_tee_join_graphs_keep_their_promises(tmp_path_factory, case):
    (a, b), meta, seed, slices = case
    d = tmp_path_factory.mktemp("teejoin")
    write_input(d, meta, seed=seed)

    def graph(out):
        return tee_graph([sio.read_stage(d / "in"), ops.tee(name="t")],
                         [[CHAIN_OPS[a]("a")], [CHAIN_OPS[b]("b")]],
                         join=ops.add_join(name="add"), post=[sio.write_stage(d / out)])

    # the reference: declared windows, roomy budget, in order
    execute_plan(plan(graph("ref"), Budget(1 << 40), tmpdir=d, grow_windows=False),
                 tmpdir=d)
    ref = sio.read_volume(d / "ref")
    eps, sb = 8, slice_bytes(meta) * (4 if a == "box3" else 1)  # a branch's output slice
    budget = Budget(slices * sb + 6 * eps, eps)
    for threads in (1, 2):
        with pytest.MonkeyPatch.context() as mp:  # at threads 2, pool what may be
            mp.setattr(planner, "INLINE_WORK", 0)
            p = plan(graph(f"out{threads}"), budget, tmpdir=d, concurrent=threads > 1)
        if p.verdict == "infeasible":
            with pytest.raises(PlanningError):
                execute_plan(p, threads=threads, tmpdir=d)
            assert not (d / f"out{threads}").exists()
        else:
            rep = execute_plan(p, threads=threads, tmpdir=d)
            assert rep.peak_bytes <= p.ledger.formula_peak + p.ledger.overhead
            assert rep.leaked_slices == 0 and ALLOC.internal_bytes == 0
            assert np.array_equal(sio.read_volume(d / f"out{threads}"), ref)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("stage-") and t.is_alive()]

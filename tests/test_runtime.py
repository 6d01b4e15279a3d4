import threading

import numpy as np
import pytest

import oracles
from helpers import measure_peak
from stackstream import io as sio, ops
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
    _drive(_build_segment(p.segments[0], meta, ctx))
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
    _drive(_build_segment(p.segments[0], meta, ctx))
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
        _drive(_build_segment(p.segments[0], meta, ctx))
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
        assert stage.algo_class.kind == klass
        g = chain(sio.read_stage(tmp_path / "in"), stage,
                  sio.write_stage(tmp_path / "out"))
        _, rep = run_graph(g, Budget(1 << 30), tmpdir=tmp_path)
        assert dict(rep.sweeps)["op"] == sweeps
        (_, pulls, _), = rep.sources
        assert pulls == meta.depth  # one pass over the source per sweep plan
    hist = ops.histogram_op(name="op")
    assert hist.algo_class.kind == "global-reduction"
    assert hist.algo_class.sweeps == "<=1"


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


# ---------------------------------------------------------------------------
# the plain zip kind is priced only
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threads", [1, 2])
def test_executing_a_plain_zip_names_it_priced_only(tmp_path, threads):
    write_input(tmp_path, VolumeMeta(8, 8, 6, U8))
    graph = tee_graph([sio.read_stage(tmp_path / "in"), ops.tee(name="t")],
                      [[ops.square(name="a")], [ops.square(name="b")]],
                      join=PlanStage(name="z", op_kind="zip"),
                      post=[sio.write_stage(tmp_path / "out")])
    p = plan(graph, Budget(1 << 30), tmpdir=str(tmp_path), grow_windows=False)
    assert p.verdict == "fits"
    threads_before = threading.active_count()
    with pytest.raises(PlanningError, match="'zip' is priced only"):
        execute_plan(p, threads=threads, tmpdir=tmp_path)
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


@pytest.mark.parametrize("stages,message", [
    (lambda d: [sio.read_stage(d / "in"), ops.square(name="sq")], "cannot end a pipeline"),
    (lambda d: [sio.read_stage(d / "in"), sio.write_stage(d / "a", name="w"),
                sio.write_stage(d / "b")], "'w' \\(write\\) takes 1 input\\(s\\) and ends"),
    (lambda d: [ops.square(name="sq"), sio.write_stage(d / "b")], "'sq' \\(pointwise\\) takes 1"),
])
def test_stage_in_the_wrong_place_is_a_planning_error(tmp_path, stages, message):
    meta = VolumeMeta(8, 8, 6, U8)
    write_input(tmp_path, meta)
    p = plan(chain(*stages(tmp_path)), Budget(1 << 30), meta=meta, tmpdir=tmp_path,
             grow_windows=False)
    with pytest.raises(PlanningError, match=message):
        execute_plan(p, tmpdir=tmp_path)
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

"""perfbench/tracer.py installs on the engine: every name it wraps exists,
so renaming one fails here, not only in the benchmark's traced run."""

import importlib.util
from pathlib import Path

import numpy as np

from stackstream import io as sio, ops, planner, runtime, stream
from stackstream.core import (ALLOC, U8, Budget, VolumeMeta, chain, slice_bytes,
                              tee_graph)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_seam_and_puts_each_back(tmp_path):
    tracer_mod = load_tracer()
    meta = VolumeMeta(16, 16, 12, U8)
    sio.write_volume(tmp_path / "in", sio.synth_volume(meta, "random", seed=49), "u8")

    def graph(out):
        return chain(sio.read_stage(tmp_path / "in"), ops.square(name="f0"),
                     ops.discrete_gaussian(0.8, name="g"), ops.square(name="f1"),
                     sio.write_chunks_stage(tmp_path / out, chunks=(8, 8, 4), name="snk"))

    eps = 256
    # f1 folds into g, and the chain splits at a mid-write after f0
    tight = Budget(11 * slice_bytes(meta) + 4 * eps + 1, eps)
    seams = [(runtime, "_write_steps"), (runtime, "_write_chunks_steps"),
             (runtime, "execute_plan"), (sio, "_atomic_write"), (ops, "gaussian_window"),
             (planner, "plan"), (planner, "optimize_windows"), (stream.Stream, "pull")]
    before = [getattr(owner, name) for owner, name in seams]
    tracer = tracer_mod.Tracer(str(tmp_path / "mid"), [])
    tracer.reset(graph("out"))
    try:
        tracer.install(planner, runtime, ops, stream, sio, ALLOC)
        p = planner.plan(graph("out"), tight, tmpdir=str(tmp_path / "mid"))
        runtime.execute_plan(p, tmpdir=tmp_path / "mid")
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in seams] == before
    assert "open" not in vars(sio)
    names = {rec[tracer_mod.NAME] for rec in tracer.spans}
    assert {"planner.plan", "planner.insert_midwrites", "runtime.execute_plan",
            "ops.gaussian_window", "io.write", "runtime.sink"} <= names
    # both writes, the chunk sink and the mid-write, run through the wrapped steps
    assert {rec[tracer_mod.STAGE] for rec in tracer.spans
            if rec[tracer_mod.NAME] == "runtime.sink"} == {"midwrite0", "snk"}
    runtime.run_graph(graph("ref"), Budget(1 << 30), tmpdir=tmp_path)
    assert np.array_equal(sio.read_volume(tmp_path / "out"), sio.read_volume(tmp_path / "ref"))


def test_tracer_binds_every_stage_of_a_branched_graph(tmp_path):
    """The stream names the tracer binds reach each stage of a tee/join
    graph: every stage is some span's stage, and the tee's ports are
    runtime.tee spans of the tee."""
    tracer_mod = load_tracer()
    meta = VolumeMeta(12, 12, 10, U8)
    sio.write_volume(tmp_path / "in", sio.synth_volume(meta, "random", seed=50), "u8")

    def graph(out):
        return tee_graph([sio.read_stage(tmp_path / "in", name="rd"), ops.tee(name="t")],
                         [[ops.median_filter(1, name="med")], [ops.dilate(1, name="dil")]],
                         ops.add_join(name="add"), [sio.write_stage(tmp_path / out, name="wr")])

    tracer = tracer_mod.Tracer(str(tmp_path / "mid"), [])
    tracer.reset(graph("out"))
    try:
        tracer.install(planner, runtime, ops, stream, sio, ALLOC)
        p = planner.plan(graph("out"), Budget(1 << 30), tmpdir=str(tmp_path / "mid"))
        runtime.execute_plan(p, tmpdir=tmp_path / "mid")
    finally:
        tracer.uninstall()
    assert not p.segments[0].shared_windows  # the tee fans out through its ports
    stages = {rec[tracer_mod.STAGE] for rec in tracer.spans}
    assert {"rd", "t", "med", "dil", "add", "wr"} <= stages
    tee_spans = [rec for rec in tracer.spans if rec[tracer_mod.NAME] == "runtime.tee"]
    assert tee_spans and {rec[tracer_mod.STAGE] for rec in tee_spans} == {"t"}
    runtime.run_graph(graph("ref"), Budget(1 << 30), tmpdir=tmp_path)
    assert np.array_equal(sio.read_volume(tmp_path / "out"), sio.read_volume(tmp_path / "ref"))


def test_tracer_gives_a_read_in_chunks_stage_its_pulls(tmp_path):
    """readInChunks is a read, so its stream is `read <dir>` and the
    tracer binds it: the source stage owns every pull of the store, the
    last one, which ends the stream, among them."""
    tracer_mod = load_tracer()
    meta = VolumeMeta(16, 16, 12, U8)
    sio.write_volume(tmp_path / "in", sio.synth_volume(meta, "random", seed=51), "u8",
                     chunks=(8, 8, 4))
    g = chain(sio.read_chunks_stage(tmp_path / "in", name="src"),
              ops.threshold(9, name="t"), sio.write_stage(tmp_path / "out", name="wr"))
    tracer = tracer_mod.Tracer(str(tmp_path / "mid"), [])
    tracer.reset(g)
    try:
        tracer.install(planner, runtime, ops, stream, sio, ALLOC)
        p = planner.plan(g, Budget(1 << 30), tmpdir=str(tmp_path / "mid"))
        runtime.execute_plan(p, tmpdir=tmp_path / "mid")
    finally:
        tracer.uninstall()
    pulls = [rec for rec in tracer.spans
             if rec[tracer_mod.NAME] == "stream.pull" and rec[tracer_mod.STAGE] == "src"]
    assert len(pulls) == meta.depth + 1
    assert all(rec[tracer_mod.N] == 1 for rec in pulls)  # each a stage boundary

"""The op-kind table in ops.OPS: one record is all a new op needs, and
every keyword round-trips through the spec."""

import threading

import numpy as np
import pytest

import oracles
from stackstream import cli, ops, planner, runtime
from stackstream import io as sio
from stackstream.cli import parse, pretty_print
from stackstream.core import U8, MemEstimate, PlanStage, VolumeMeta, slice_bytes


def write_vol(path, dims=(12, 12, 10), chunks=None):
    meta = VolumeMeta(*dims, U8)
    vol = sio.synth_volume(meta, "random", seed=5)
    sio.write_volume(path, vol, "u8", chunks=chunks)
    return vol


# ---------------------------------------------------------------------------
# a new kernel op is one record
# ---------------------------------------------------------------------------

def _parse_maxfilter(get, name):
    se = ops.StructuringElement.box(get("r", int, 1))
    w = get("w", int, None) or se.k_z
    return PlanStage(name=name, op_kind="maxfilter", w=w, s=w - se.k_z + 1,
                     k_z=se.k_z, params={"se": se})


MAXFILTER = ops.OpKind(
    estimate=lambda st, m, o: MemEstimate(st.w * slice_bytes(m),
                                          (st.w - st.k_z + 1) * slice_bytes(o)),
    out_meta=lambda st, m: VolumeMeta(m.nx, m.ny, m.depth - st.k_z + 1, m.dtype),
    window=lambda st, win, lo, hi, scratch, cast: ops.morph_window(
        win, st.params["se"], "dilate", lo, hi, scratch=scratch, cast=cast),
    kernel_dims=lambda st: st.params["se"].mask.shape[::-1],
    spec=(ops.Syntax("maxfilter", ("r", "w"), _parse_maxfilter,
                     lambda st: f"maxfilter r={st.k_z // 2} w={st.w}"),))


@pytest.mark.parametrize("threads", [1, 2])
def test_one_record_is_enough_for_a_new_kernel_op(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setitem(ops.OPS, "maxfilter", MAXFILTER)
    vol = write_vol(tmp_path / "in")
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 1 GiB\nread {tmp_path}/in\nmaxfilter r=1\n"
                    f"write {tmp_path}/out\nsink\n")
    graph, budget = parse(spec.read_text())
    printed = pretty_print(graph, budget)
    assert printed.splitlines()[2] == "maxfilter r=1 w=3"
    assert pretty_print(*parse(printed)) == printed

    assert ops.OPS["maxfilter"].window is not None
    p = planner.plan(graph, budget, tmpdir=str(tmp_path), concurrent=threads > 1)
    stage = p.segments[0].node("maxfilter2")
    assert (stage.w, stage.s) == (10, 8)  # grown to the stack, as a kernel
    report = runtime.execute_plan(p, threads=threads, tmpdir=tmp_path)
    assert report.leaked_slices == 0 and report.within_budget
    want = oracles.morphology(vol, ops.StructuringElement.box(1).mask, "dilate")
    assert np.array_equal(sio.read_volume(tmp_path / "out"), want)

    assert cli.main(["explain", str(spec), "--io"]) == 0
    assert "kernel=3x3x3" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# a new voxel op is one record too: a window of depth 1, with no kernel
# ---------------------------------------------------------------------------

def _invert_record(threads_seen):
    def window(st, win, lo, hi, scratch, cast):
        threads_seen.append(threading.current_thread())
        return [cast(np.iinfo(sl.data.dtype).max - sl.data) for sl in win[lo:hi + 1]]

    return ops.OpKind(
        estimate=lambda st, m, o: MemEstimate(st.w * slice_bytes(m), st.w * slice_bytes(o)),
        window=window,
        spec=(ops.Syntax("invert", ("w",),
                         lambda get, name: PlanStage(name=name, op_kind="invert",
                                                     w=get("w", int, 1), s=get("w", int, 1)),
                         lambda st: f"invert w={st.w}"),))


def test_one_record_is_enough_for_a_new_voxel_op(tmp_path, monkeypatch):
    threads_seen = []
    monkeypatch.setitem(ops.OPS, "invert", _invert_record(threads_seen))
    monkeypatch.setattr(runtime, "INLINE_WORK", 0)  # a kernel call would go to the pool
    vol = write_vol(tmp_path / "in")
    text = f"source 1 GiB\nread {tmp_path}/in\n{{}}\nwrite {tmp_path}/out\nsink\n"
    graph, budget = parse(text.format("invert"))
    printed = pretty_print(graph, budget)
    assert printed.splitlines()[2] == "invert w=1"
    assert pretty_print(*parse(printed)) == printed

    p = planner.plan(graph, budget, tmpdir=str(tmp_path), concurrent=True)
    like = planner.plan(parse(text.format("square"))[0], budget, tmpdir=str(tmp_path),
                        concurrent=True)
    stage, square = p.segments[0].node("invert2"), like.segments[0].node("square2")
    assert (stage.w, stage.s) == (square.w, square.s) == (10, 10)  # grown to the stack
    assert p.ledger.queue_bytes == like.ledger.queue_bytes == 0
    report = runtime.execute_plan(p, threads=2, tmpdir=tmp_path)
    assert report.leaked_slices == 0 and report.within_budget
    assert threads_seen and set(threads_seen) == {threading.current_thread()}
    assert np.array_equal(sio.read_volume(tmp_path / "out"), 255 - vol)


def test_each_kind_streams_one_way_and_its_record_gives_its_role():
    # a window function or a stream builder, never both; a tee has neither
    for kind, rec in ops.OPS.items():
        ways = (rec.window is not None) + (kind in runtime._BUILDERS)
        assert ways == (kind != "tee"), kind
    assert set(runtime._BUILDERS) <= set(ops.OPS)
    roles = {kind: (rec.inputs, rec.sink) for kind, rec in ops.OPS.items()}
    assert roles == {**dict.fromkeys(ops.OPS, (1, False)), "read": (0, False),
                     "zip_add": (2, False), "write": (1, True), "histogram": (1, True),
                     "sampled_mean": (1, True)}


# ---------------------------------------------------------------------------
# every keyword round-trips
# ---------------------------------------------------------------------------

SYNTAXES = [(kind, syn) for kind, rec in ops.OPS.items() for syn in rec.spec]

# a well-formed value for each key any keyword takes; {d} is the test dir
SAMPLE = {"dir": "{d}/in", "chunks": "4,4,4", "t": "100", "w": "9", "sigma": "0.8",
          "r": "1", "kernel": "{d}/k.txt", "box": "1,1,1,5,5,5", "x": "1,2",
          "y": "0,1", "z": "2,0", "mode": "zero", "order": "zyx", "out": "{d}/h.txt",
          "range": "0,200"}


@pytest.mark.parametrize("kind,syntax", SYNTAXES, ids=[s.keyword for _, s in SYNTAXES])
def test_every_keyword_round_trips(tmp_path, kind, syntax):
    write_vol(tmp_path / "in", chunks=(4, 4, 4))  # both read keywords take a chunk store
    ops.Kernel3D.box(3).save(tmp_path / "k.txt")
    n = syntax.positional
    values = {k: SAMPLE[k].format(d=tmp_path) for k in syntax.keys}
    words = ([syntax.keyword] + [values[k] for k in syntax.keys[:n]]
             + [f"{k}={values[k]}" for k in syntax.keys[n:]])
    graph, budget = parse(f"source 1 GiB\nread {tmp_path}/in\n{' '.join(words)}\n"
                          f"write {tmp_path}/out\nsink\n")
    assert graph.topo_order()[1].op_kind == kind
    printed = pretty_print(graph, budget)
    assert printed.splitlines()[2].split()[0] == syntax.keyword
    assert pretty_print(*parse(printed)) == printed

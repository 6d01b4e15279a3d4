import os
import shutil
import tracemalloc

import numpy as np
import pytest

from stackstream import cli, ops
from stackstream import io as sio
from stackstream.cli import SpecSyntaxError, parse, parse_bytes, pretty_print
from stackstream.core import U8, PlanningError, VolumeMeta


def write_vol(tmp_path, name="in", dims=(12, 12, 10), seed=0, chunks=None):
    meta = VolumeMeta(*dims, U8)
    vol = sio.synth_volume(meta, "random", seed=seed)
    sio.write_volume(tmp_path / name, vol, "u8", chunks=chunks)
    return vol


def spec_text(tmp_path, body):
    return f"source 64 MiB\nread {tmp_path}/in\n{body}write {tmp_path}/out\nsink\n"


def test_parse_bytes_units():
    assert parse_bytes("1 GiB") == 1 << 30
    assert parse_bytes("512 B") == 512
    assert parse_bytes("1.5 KiB") == 1536
    with pytest.raises(SpecSyntaxError):
        parse_bytes("10 MB")  # decimal units are ambiguous, rejected


def test_parse_reference_example(tmp_path):
    write_vol(tmp_path)
    g, budget = parse(spec_text(tmp_path, "gaussian sigma=1.5\n"))
    assert budget.cap == 64 << 20
    names = [s.op_kind for s in g.topo_order()]
    assert names == ["read", "gaussian", "write"]


def test_parse_identity_pipeline(tmp_path):
    write_vol(tmp_path)
    g, _ = parse(spec_text(tmp_path, ""))
    assert [s.op_kind for s in g.topo_order()] == ["read", "write"]


def test_parse_tee_join(tmp_path):
    write_vol(tmp_path)
    text = (f"source 64 MiB\nread {tmp_path}/in\ntee\ngaussian sigma=0.5\n---\n"
            f"median r=1\njoin add\nwrite {tmp_path}/out\nsink\n")
    g, _ = parse(text)
    kinds = {s.op_kind for s in g.nodes}
    assert {"tee", "zip_add", "gaussian", "median"} <= kinds
    tees = [s for s in g.nodes if s.op_kind == "tee"]
    assert len(g.successors(tees[0].name)) == 2


def test_parse_errors_carry_position():
    with pytest.raises(SpecSyntaxError) as ei:
        parse("source 1 GiB\nfrobnicate\nsink\n")
    assert ei.value.line == 2
    with pytest.raises(SpecSyntaxError) as ei:
        parse("read somewhere\n")
    assert ei.value.line == 1
    with pytest.raises(SpecSyntaxError) as ei:
        parse("source 1 GiB\nthreshold q=1\nsink\n")
    assert "unknown key" in str(ei.value)


def test_pretty_print_fixpoint(tmp_path):
    write_vol(tmp_path)
    for body in ("gaussian sigma=1.5\n",
                 "threshold t=100\nmedian r=1\n",
                 "crop 1,1,1,9,9,9\npad x=1,1 y=0,0 z=2,0 mode=zero\n",
                 "permute zyx\n"):
        text = spec_text(tmp_path, body)
        g1, b1 = parse(text)
        p1 = pretty_print(g1, b1)
        g2, b2 = parse(p1)
        assert pretty_print(g2, b2) == p1


def test_pretty_print_fixpoint_tee(tmp_path):
    write_vol(tmp_path)
    text = (f"source 64 MiB\nread {tmp_path}/in\ntee\nerode r=1\n---\n"
            f"median r=1\njoin add\nwrite {tmp_path}/out\nsink\n")
    g1, b1 = parse(text)
    p1 = pretty_print(g1, b1)
    g2, b2 = parse(p1)
    assert pretty_print(g2, b2) == p1


def test_each_read_prints_back_as_its_keyword(tmp_path):
    # one read kind: a read with the store's chunks prints as readInChunks,
    # and a read of the same store as read
    write_vol(tmp_path, chunks=(4, 4, 4))
    for keyword in ("read", "readInChunks"):
        body = f"{keyword} {tmp_path}/in\nwrite {tmp_path}/out\nsink\n"
        g, b = parse("source 64 MiB\n" + body)
        assert g.source().op_kind == "read"
        assert pretty_print(g, b).endswith("\n" + body)


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_cmd_gen_and_run_roundtrip(tmp_path):
    assert run_cli(["gen", "--kind", "random", "--dims", "10,10,8",
                    "--seed", "3", "--out", tmp_path / "in"]) == 0
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, ""))
    assert run_cli(["run", spec]) == 0
    assert np.array_equal(sio.read_volume(tmp_path / "in"),
                          sio.read_volume(tmp_path / "out"))


def test_cmd_plan_exit_codes(tmp_path, capsys):
    write_vol(tmp_path)
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, "gaussian sigma=0.8\n"))
    assert run_cli(["plan", spec]) == 0
    out = capsys.readouterr().out
    assert "verdict fits" in out

    bad = tmp_path / "bad.spec"
    bad.write_text("source 1 GiB\nnotastage\nsink\n")
    assert run_cli(["plan", bad]) == 1

    tight = tmp_path / "tight.spec"
    tight.write_text(spec_text(tmp_path, "gaussian sigma=0.8\n")
                     .replace("64 MiB", "600 B"))
    assert run_cli(["plan", tight, "--epsilon", "64"]) == 2
    out = capsys.readouterr().out
    assert "verdict infeasible" in out
    assert "violating stage" in out


@pytest.mark.parametrize("budget, notes", [
    ("64 MiB", ["in threshold2's call"]),
    ("1800 B", ["with all its stages at once"] * 2),
], ids=["one_call_each", "split"])
def test_cmd_plan_names_what_sets_each_segment_peak(tmp_path, capsys, budget, notes):
    """At 64 MiB every window grows to its input, so each kernel and
    pointwise stage makes one call, and the one segment peaks in the
    threshold's call, its 10 inputs and outputs beside the read's slice.
    At 1800 B the chain splits after the threshold, and each segment's
    stages stream together: each peaks at the sum of its rows."""
    write_vol(tmp_path)
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, "threshold t=100\ngaussian sigma=0.8\n")
                    .replace("64 MiB", budget))
    assert run_cli(["plan", spec, "--epsilon", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("note ")] == [
        f"note segment {i} peaks {note}" for i, note in enumerate(notes, start=1)]
    if budget == "64 MiB":
        assert "segment_peak 1 3024 B" in lines  # (1 + 2 x 10) slices of 144 B


@pytest.mark.parametrize("body, message", [
    ("read {d}/in\nhistogram\nsquare\nwrite {d}/o\n",
     "stage 'histogram2' (histogram) takes 1 input(s) and ends a pipeline"),
    ("read {d}/in\nsquare\n",
     "stage 'square2' (pointwise) takes 1 input(s) and cannot end a pipeline"),
    ("gaussian sigma=1\nwrite {d}/o\n",
     "stage 'gaussian1' (gaussian) takes 1 input(s) and cannot end a pipeline"),
], ids=["sink_mid_chain", "no_sink_at_end", "no_read_first"])
@pytest.mark.parametrize("command", ["plan", "run", "explain"])
def test_stage_in_the_wrong_place_fails_plan_as_run(tmp_path, capsys, body, message,
                                                    command):
    write_vol(tmp_path, dims=(8, 8, 4))
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 1 GiB\n{body.format(d=tmp_path)}sink\n")
    assert run_cli([command, spec] + (["--io"] if command == "explain" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == f"planning error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("line, message", [
    ("median r=-1", "structuring element radius must be >= 0, got -1"),
    ("erode r=-1", "structuring element radius must be >= 0, got -1"),
    ("dilate r=-1", "structuring element radius must be >= 0, got -1"),
    ("gaussian sigma=nan", "gaussian sigma must be finite and positive, got nan"),
    ("gaussian sigma=inf", "gaussian sigma must be finite and positive, got inf"),
    ("gaussian sigma=0", "gaussian sigma must be finite and positive, got 0.0"),
    ("gaussian sigma=1 w=2", "stage 'gaussian2': window w=2 below kernel depth k_z=7"),
], ids=["median", "erode", "dilate", "sigma_nan", "sigma_inf", "sigma_0", "gaussian_w"])
@pytest.mark.parametrize("command", ["plan", "run"])
def test_out_of_range_spec_values_are_planning_errors(tmp_path, capsys, line, message,
                                                      command):
    write_vol(tmp_path, dims=(8, 8, 8))
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, line + "\n"))
    assert run_cli([command, spec]) == 2
    assert capsys.readouterr().err == f"planning error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cmd_plan_io_table(tmp_path, capsys):
    write_vol(tmp_path, chunks=(4, 4, 4))
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 64 MiB\nreadInChunks {tmp_path}/in\n"
                    f"median r=1\nwrite {tmp_path}/out\nsink\n")
    assert run_cli(["plan", spec, "--io"]) == 0
    out = capsys.readouterr().out
    assert "io cost model" in out
    assert "chunk_random" in out


def test_read_in_chunks_of_a_slice_stack_is_a_planning_error(tmp_path, capsys):
    write_vol(tmp_path)
    with pytest.raises(PlanningError, match=r"is a slice stack; use read$"):
        sio.read_chunks_stage(tmp_path / "in")
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 64 MiB\nreadInChunks {tmp_path}/in\n"
                    f"write {tmp_path}/out\nsink\n")
    assert run_cli(["plan", spec]) == 2
    assert capsys.readouterr().err == \
        f"planning error: {tmp_path}/in is a slice stack; use read\n"


def test_cmd_run_reports_and_determinism(tmp_path, capsys):
    write_vol(tmp_path)
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, "threshold t=90\n"))
    assert run_cli(["run", spec]) == 0
    first = capsys.readouterr().out
    assert "leaked_slices 0" in first
    assert "within_budget true" in first
    assert run_cli(["run", spec]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cmd_run_infeasible_exit_2(tmp_path):
    write_vol(tmp_path)
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, "gaussian sigma=0.8\n")
                    .replace("64 MiB", "600 B"))
    assert run_cli(["run", spec, "--epsilon", "64"]) == 2


def test_cmd_run_missing_input_exit_2(tmp_path):
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 1 GiB\nread {tmp_path}/nosuch\nwrite {tmp_path}/o\nsink\n")
    assert run_cli(["run", spec]) == 2


def test_cmd_run_io_failure_exit_3(tmp_path, monkeypatch):
    write_vol(tmp_path)
    (tmp_path / "in" / "003.raw").unlink()
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, ""))
    assert run_cli(["run", spec]) == 3


def test_cmd_run_stage_failure_exit_3(tmp_path, monkeypatch, capsys):
    write_vol(tmp_path)

    def failing(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(ops, "gaussian_window", failing)
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, "gaussian sigma=0.8\n"))
    assert run_cli(["run", spec]) == 3
    assert "runtime failure: stage " in capsys.readouterr().err


def test_cmd_run_threads_identical_output(tmp_path):
    write_vol(tmp_path)
    spec1 = tmp_path / "p1.spec"
    spec1.write_text(spec_text(tmp_path, "median r=1\n")
                     .replace(f"{tmp_path}/out", f"{tmp_path}/out1"))
    spec4 = tmp_path / "p4.spec"
    spec4.write_text(spec_text(tmp_path, "median r=1\n")
                     .replace(f"{tmp_path}/out", f"{tmp_path}/out4"))
    assert run_cli(["run", spec1, "--threads", "1"]) == 0
    assert run_cli(["run", spec4, "--threads", "4"]) == 0
    assert np.array_equal(sio.read_volume(tmp_path / "out1"),
                          sio.read_volume(tmp_path / "out4"))


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cmd_run_threads_below_one_exits_1(tmp_path, capsys, threads):
    write_vol(tmp_path)
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, ""))
    assert run_cli(["run", spec, "--threads", threads]) == 1
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_cmd_explain_io(tmp_path, capsys):
    write_vol(tmp_path)
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, "median r=1\n"))
    assert run_cli(["explain", spec, "--io"]) == 0
    out = capsys.readouterr().out
    assert "slice_sweep_up" in out


def test_cmd_gen_kinds(tmp_path):
    for kind in ("constant", "ramp", "impulse", "random"):
        out = tmp_path / kind
        assert run_cli(["gen", "--kind", kind, "--dims", "6,6,6",
                        "--value", "9", "--out", out]) == 0
        assert (out / "manifest.txt").exists()
    assert run_cli(["gen", "--kind", "random", "--dims", "6,6,6",
                    "--chunks", "4,4,4", "--out", tmp_path / "ch"]) == 0
    vol = sio.read_volume(tmp_path / "ch")
    assert vol.shape == (6, 6, 6)


def test_histogram_sink_via_cli(tmp_path, capsys):
    vol = write_vol(tmp_path)
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 64 MiB\nread {tmp_path}/in\n"
                    f"histogram out={tmp_path}/h.txt\nsink\n")
    assert run_cli(["run", spec]) == 0
    lines = (tmp_path / "h.txt").read_text().splitlines()
    assert lines[0] == "bins 256"
    assert lines[1] == f"total {vol.size}"


def test_tmpdir_env_var_used_for_midwrites(tmp_path, monkeypatch):
    write_vol(tmp_path, dims=(16, 16, 12))
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv(cli.TMPDIR_ENV, str(scratch))
    spec = tmp_path / "p.spec"
    sb = 16 * 16
    spec.write_text(f"source {9 * sb + 6 * 512 + 1} B\nread {tmp_path}/in\n"
                    f"square\nsquare\nsquare\nsquare\nwrite {tmp_path}/out\nsink\n")
    assert run_cli(["run", spec, "--epsilon", "512"]) == 0
    # intermediate volumes went through the scratch dir and were cleaned up
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("budget, loaded", [("64 MiB", ["in"]),
                                             (f"{9 * 256 + 6 * 512 + 1} B", ["in", "mid0"])])
def test_run_loads_each_read_manifest_once(tmp_path, monkeypatch, capsys, budget, loaded):
    """The read stage carries the manifest the spec's parse loaded, and its
    reader opens from it; a mid-read, written by the run, loads its own
    when it opens. So a run loads one manifest per read, split or not."""
    write_vol(tmp_path, dims=(16, 16, 12))
    load, loads = sio.load_manifest, []
    monkeypatch.setattr(sio, "load_manifest",
                        lambda d: (loads.append(os.path.basename(d)), load(d))[1])
    spec = tmp_path / "p.spec"
    spec.write_text(f"source {budget}\nread {tmp_path}/in\n"
                    f"square\nsquare\nsquare\nsquare\nwrite {tmp_path}/out\nsink\n")
    assert run_cli(["run", spec, "--epsilon", "512", "--tmpdir", tmp_path / "scratch"]) == 0
    assert ("action midwrite" in capsys.readouterr().out) == (len(loaded) == 2)
    assert loads == loaded


@pytest.mark.parametrize("line", ["erode r=1000", "gaussian sigma=1e9"])
def test_a_kernel_deeper_than_the_stack_is_refused_before_it_is_laid_out(
        tmp_path, capsys, line):
    """erode r=1000 would be an 8 GB mask and sigma = 1e9 a 48 GB kernel:
    plan refuses each by its depth, 2r + 1 or 2 ceil(3 sigma) + 1, against
    an 8-slice stack, and lays out neither."""
    write_vol(tmp_path, dims=(8, 8, 8))
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, line + "\n"))
    tracemalloc.start()
    try:
        assert run_cli(["plan", spec]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert capsys.readouterr().err.endswith(": kernel depth exceeds stack\n")


def test_run_works_in_a_private_directory_under_the_tmpdir(tmp_path):
    # a split run beside a mid0 it did not make: the run neither fails on
    # it nor touches it, and leaves nothing else behind
    vol = write_vol(tmp_path, dims=(16, 16, 12))
    scratch = tmp_path / "scratch"
    (scratch / "mid0").mkdir(parents=True)
    (scratch / "mid0" / "keep.txt").write_text("keep")
    spec = tmp_path / "p.spec"
    sb = 16 * 16
    spec.write_text(f"source {9 * sb + 6 * 512 + 1} B\nread {tmp_path}/in\n"
                    f"square\nsquare\nsquare\nsquare\nwrite {tmp_path}/out\nsink\n")
    assert run_cli(["run", spec, "--epsilon", "512", "--tmpdir", scratch]) == 0
    assert (scratch / "mid0" / "keep.txt").read_text() == "keep"
    assert list(scratch.iterdir()) == [scratch / "mid0"]
    for _ in range(4):  # four saturating squares
        vol = np.minimum(vol.astype(np.int64) ** 2, 255).astype(np.uint8)
    assert np.array_equal(sio.read_volume(tmp_path / "out"), vol)


def test_measured_peak_within_promise_across_spec_corpus(tmp_path, capsys):
    write_vol(tmp_path, dims=(14, 14, 12))
    bodies = ["",
              "threshold t=80\n",
              "square\nsquare\n",
              "gaussian sigma=0.8\n",
              "median r=1\n",
              "erode r=1\ndilate r=1\n",
              "crop 1,1,1,13,13,11\n",
              "pad x=1,1 y=1,1 z=1,1 mode=clamp\n",
              "permute zyx\n",
              "tee\nerode r=1\n---\nmedian r=1\njoin add\n"]
    for i, body in enumerate(bodies):
        spec = tmp_path / f"c{i}.spec"
        spec.write_text(spec_text(tmp_path, body)
                        .replace(f"{tmp_path}/out", f"{tmp_path}/out{i}"))
        assert run_cli(["run", spec, "--tmpdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "within_budget true" in out
        assert "leaked_slices 0" in out


def test_explain_io_clamps_kernel_to_odd_chunk_fit(tmp_path, capsys):
    # chunks smaller than the gaussian kernel: the halo table clamps to
    # the largest odd edge that fits instead of failing
    write_vol(tmp_path, chunks=(4, 4, 4))
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 64 MiB\nreadInChunks {tmp_path}/in\n"
                    f"gaussian sigma=1.5\nwrite {tmp_path}/out\nsink\n")
    assert run_cli(["explain", spec, "--io"]) == 0
    assert "kernel=3x3x3" in capsys.readouterr().out


def test_plan_io_of_a_read_takes_the_stores_chunks(tmp_path, capsys):
    write_vol(tmp_path, dims=(40, 40, 20), chunks=(8, 8, 5))
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, "threshold t=9\n"))
    assert run_cli(["plan", spec, "--io"]) == 0
    assert "chunks=8x8x5 grid=5x5x4" in capsys.readouterr().out


def test_chunked_source_run_within_budget(tmp_path, capsys):
    write_vol(tmp_path, chunks=(5, 5, 4))
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 64 MiB\nreadInChunks {tmp_path}/in\n"
                    f"median r=1\nwrite {tmp_path}/out\nsink\n")
    assert run_cli(["run", spec]) == 0
    out = capsys.readouterr().out
    assert "within_budget true" in out
    assert "leaked_slices 0" in out


# ---------------------------------------------------------------------------
# malformed values are syntax errors at their column
# ---------------------------------------------------------------------------

# (stage line, column of the token at fault, keyword, key)
MALFORMED = [
    ("read", 6, "read", "dir"),
    ("readInChunks", 14, "readInChunks", "dir"),
    ("write", 7, "write", "dir"),
    ("writeInChunks", 15, "writeInChunks", "dir"),
    ("writeInChunks o chunks=4,4", 17, "writeInChunks", "chunks"),
    ("threshold t=x", 11, "threshold", "t"),
    ("threshold t=1 w=abc", 15, "threshold", "w"),
    ("square w=x", 8, "square", "w"),
    ("gaussian sigma=x", 10, "gaussian", "sigma"),
    ("gaussian sigma=1 w=1.5", 18, "gaussian", "w"),
    ("median r=x", 8, "median", "r"),
    ("median r=1 w=x", 12, "median", "w"),
    ("erode r=1.5", 7, "erode", "r"),
    ("erode w=", 7, "erode", "w"),
    ("dilate r=", 8, "dilate", "r"),
    ("dilate w=2,2", 8, "dilate", "w"),
    ("convolve w=3", 1, "convolve", "kernel"),
    ("convolve kernel=missing.txt w=x", 29, "convolve", "w"),
    ("crop 1,2", 6, "crop", "box"),
    ("pad x=1,a", 5, "pad", "x"),
    ("pad y=1", 5, "pad", "y"),
    ("pad z=x,1", 5, "pad", "z"),
    ("pad mode=bogus", 5, "pad", "mode"),
    ("permute abc", 9, "permute", "order"),
    ("histogram out", 11, "histogram", "out"),
    ("histogram w=x", 11, "histogram", "w"),
    ("histogram range=1", 11, "histogram", "range"),
    ("median r=1 q=2", 12, "median", None),
    ("   median r=x  # indented", 11, "median", None),
    ("crop 1,1,1,2,2,2 extra", 18, "crop", None),
]


@pytest.mark.parametrize("line,col,keyword,key", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_spec_value_exits_1_at_its_column(tmp_path, capsys, line, col,
                                                    keyword, key):
    text = f"source 1 GiB\n{line}\nsink\n"
    with pytest.raises(SpecSyntaxError) as ei:
        parse(text)
    assert (ei.value.line, ei.value.col) == (2, col)
    spec = tmp_path / "p.spec"
    spec.write_text(text)
    assert cli.main(["plan", str(spec)]) == 1
    assert f"line 2 col {col}:" in capsys.readouterr().err


def test_malformed_cases_cover_every_keyword_and_key():
    covered = {(kw, key) for _, _, kw, key in MALFORMED}
    keys = {(s.keyword, k) for rec in ops.OPS.values() for s in rec.spec for k in s.keys}
    assert keys <= covered


@pytest.mark.parametrize("content", [None, "dir", "3 3 x\n", "-1 -1 1\n1\n",
                                     "1 1 1\nabc\n", b"\xff\xfe\x00\x01"],
                         ids=["missing", "directory", "bad-dims", "negative-dims",
                              "bad-weight", "binary"])
def test_unreadable_kernel_file_is_a_planning_error(tmp_path, content):
    kernel = tmp_path / "k"
    if content == "dir":
        kernel.mkdir()
    elif isinstance(content, bytes):
        kernel.write_bytes(content)
    elif content is not None:
        kernel.write_text(content)
    with pytest.raises(PlanningError):
        ops.Kernel3D.load(kernel)
    write_vol(tmp_path)
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 1 GiB\nread {tmp_path}/in\nconvolve kernel={kernel}\n"
                    f"write {tmp_path}/out\nsink\n")
    assert cli.main(["plan", str(spec)]) == 2


@pytest.mark.parametrize("flag,value", [("--dims", "4,a,4"), ("--dims", "4,4"),
                                        ("--dims", ""), ("--chunks", "2,x,2"),
                                        ("--chunks", "2,2,2,2")])
def test_cmd_gen_malformed_triple_exits_1(tmp_path, capsys, flag, value):
    args = {"--dims": "4,4,4", "--chunks": "2,2,2", flag: value}
    out = tmp_path / "v"
    assert run_cli(["gen", "--out", out, *(x for kv in args.items() for x in kv)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} {value!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("dtype,value", [("u8", "300"), ("u8", "-5"), ("u8", "nan"),
                                         ("u16", "65536"), ("u16", "inf"), ("f32", "1e39"),
                                         ("u8", "255.6")])
def test_cmd_gen_value_the_dtype_cannot_hold_exits_1(tmp_path, capsys, dtype, value):
    # a constant u8 300 would wrap to 44, -5 to 251; 255.6 rounds to 256
    out = tmp_path / "v"
    assert run_cli(["gen", "--kind", "constant", "--dtype", dtype, "--dims", "4,4,4",
                    "--value", value, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: --value {float(value):g}: ")
    assert not out.exists()


@pytest.mark.parametrize("dtype,value", [("u8", 255), ("u8", 0), ("u16", 65535),
                                         ("f32", -1.5), ("f32", float("inf")),
                                         ("u8", 2.7), ("u8", 2.5), ("u16", 3.5)])
def test_cmd_gen_value_the_dtype_holds_is_written(tmp_path, dtype, value):
    # an integer voxel rounds, ties to even, as the engine's casts do
    want = {2.7: 3, 2.5: 2, 3.5: 4}.get(value, value)
    out = tmp_path / "v"
    assert run_cli(["gen", "--kind", "constant", "--dtype", dtype, "--dims", "4,4,4",
                    "--value", value, "--out", out]) == 0
    assert np.all(sio.read_volume(out) == want)


@pytest.mark.parametrize("chunks,old,new", [
    (None, "dims 12 12 10", "dims 12 x 10"),
    (None, "dims 12 12 10", "dims 12 12"),
    (None, "dtype u8", "dtype u9"),
    (None, "dtype u8", "dtype"),
    ((4, 4, 4), "layout chunks 4 4 4", "layout chunks 4 a 4"),
    ((4, 4, 4), "layout chunks 4 4 4", "layout chunks 4 4"),
], ids=["dims-word", "dims-count", "dtype-unknown", "dtype-missing",
        "chunks-word", "chunks-count"])
def test_malformed_manifest_is_a_planning_error(tmp_path, capsys, chunks, old, new):
    write_vol(tmp_path, chunks=chunks)
    man = tmp_path / "in" / "manifest.txt"
    text = man.read_text()
    assert old + "\n" in text
    man.write_text(text.replace(old + "\n", new + "\n"))
    with pytest.raises(PlanningError) as ei:
        sio.load_manifest(tmp_path / "in")
    assert str(man) in str(ei.value)
    spec = tmp_path / "p.spec"
    spec.write_text(spec_text(tmp_path, ""))
    assert cli.main(["plan", str(spec)]) == 2
    assert str(man) in capsys.readouterr().err


def test_write_into_the_directory_its_read_streams_exits_2(tmp_path, capsys):
    d = tmp_path / "D"
    assert run_cli(["gen", "--dims", "64,64,64", "--out", d]) == 0
    vol = sio.read_volume(d)
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 100 KiB\nread {d}\ngaussian sigma=0.8\nwrite {d}\nsink\n")
    capsys.readouterr()
    for cmd in ("plan", "run"):
        assert run_cli([cmd, spec, "--epsilon", 64]) == 2
        assert capsys.readouterr().err == (f"planning error: stage 'write3' writes into {d}, "
                                           "which its segment also reads\n")
    assert not (d / sio.PARTIAL_MARKER).exists()
    assert np.array_equal(sio.read_volume(d), vol)


@pytest.mark.parametrize("range_, message", [
    ("range=5,1", "histogram range must satisfy hi > lo"),
    ("", "f32 histograms need an explicit value range"),
    ("range=-inf,inf", "histogram range -inf,inf must be finite"),
    ("range=0,inf", "histogram range 0,inf must be finite"),
    ("range=nan,1", "histogram range nan,1 must be finite"),
    ("range=0,1e-320", "histogram range 0,9.99989e-321: its bin scale 256 / (hi - lo) "
                       "is not positive and finite"),
    ("range=-1e308,1e308", "histogram range -1e+308,1e+308: its bin scale 256 / (hi - lo) "
                           "is not positive and finite"),
])
def test_histogram_range_is_refused_by_plan_and_run(tmp_path, capsys, range_, message):
    assert run_cli(["gen", "--dims", "8,8,4", "--dtype", "f32", "--out", tmp_path / "in"]) == 0
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 64 MiB\nread {tmp_path}/in\nhistogram {range_}\nsink\n")
    capsys.readouterr()
    for cmd in ("plan", "run"):
        assert run_cli([cmd, spec]) == 2
        assert capsys.readouterr().err == f"planning error: {message}\n"


@pytest.mark.parametrize("dtype", ["u8", "u16", "f32"])
@pytest.mark.parametrize("kind", sio.GEN_KINDS)
def test_cmd_gen_writes_the_bytes_of_synth_volume(tmp_path, kind, dtype):
    meta = VolumeMeta(6, 5, 7, sio.dtype_by_kind(dtype))
    for seed, chunks in ((0, None), (9, (4, 2, 3))):
        args = ["--chunks", ",".join(map(str, chunks))] if chunks else []
        assert run_cli(["gen", "--kind", kind, "--dtype", dtype, "--dims", "6,5,7",
                        "--value", 3, "--seed", seed, "--out", tmp_path / "gen", *args]) == 0
        sio.write_volume(tmp_path / "ref", sio.synth_volume(meta, kind, value=3, seed=seed),
                         dtype, chunks=chunks)
        files = sorted(os.listdir(tmp_path / "ref"))
        assert sorted(os.listdir(tmp_path / "gen")) == files
        for name in files:
            assert (tmp_path / "gen" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        shutil.rmtree(tmp_path / "gen")
        shutil.rmtree(tmp_path / "ref")


def test_cmd_gen_holds_a_few_slices_not_the_volume(tmp_path):
    # 64x64x256 u8 is 1 MiB; the generator and the writer hold one 4 KiB slice
    assert run_cli(["gen", "--dims", "8,8,8", "--out", tmp_path / "warm"]) == 0
    tracemalloc.start()
    try:
        assert run_cli(["gen", "--dims", "64,64,256", "--out", tmp_path / "v"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert sio.load_manifest(tmp_path / "v").meta == VolumeMeta(64, 64, 256, U8)

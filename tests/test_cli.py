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


def test_cmd_plan_io_table(tmp_path, capsys):
    write_vol(tmp_path, chunks=(4, 4, 4))
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 64 MiB\nreadInChunks {tmp_path}/in\n"
                    f"median r=1\nwrite {tmp_path}/out\nsink\n")
    assert run_cli(["plan", spec, "--io"]) == 0
    out = capsys.readouterr().out
    assert "io cost model" in out
    assert "chunk_random" in out


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


@pytest.mark.parametrize("content", [None, "dir", "3 3 x\n", "1 1 1\nabc\n",
                                     b"\xff\xfe\x00\x01"],
                         ids=["missing", "directory", "bad-dims", "bad-weight", "binary"])
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

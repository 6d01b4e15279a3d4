import os
import resource
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from helpers import drain, vol_stream
from stackstream import io as sio, ops
from stackstream.core import (ALLOC, F32, U8, U16, Budget, PlanningError, VolumeMeta, chain,
                              release)
from stackstream.runtime import run_graph


@pytest.mark.parametrize("dtype", ["u8", "u16", "f32"])
def test_stack_roundtrip_bit_exact(tmp_path, dtype):
    meta = VolumeMeta(8, 8, 8, sio.dtype_by_kind(dtype))
    vol = sio.synth_volume(meta, "random", seed=1)
    sio.write_volume(tmp_path / "v", vol, dtype)
    assert np.array_equal(sio.read_volume(tmp_path / "v"), vol)


@pytest.mark.parametrize("dtype", ["u8", "u16", "f32"])
def test_chunk_roundtrip_with_partial_edges(tmp_path, dtype):
    meta = VolumeMeta(12, 10, 9, sio.dtype_by_kind(dtype))
    vol = sio.synth_volume(meta, "random", seed=2)
    sio.write_volume(tmp_path / "c", vol, dtype, chunks=(4, 4, 4))
    assert np.array_equal(sio.read_volume(tmp_path / "c"), vol)
    grid = sio.load_manifest(tmp_path / "c")
    assert (grid.gx, grid.gy, grid.gz) == (3, 3, 3)
    files = list((tmp_path / "c").glob("*.raw"))
    assert len(files) == grid.chunk_count


def test_write_names_and_manifest(tmp_path):
    meta = VolumeMeta(4, 4, 3, U8)
    vol = sio.synth_volume(meta, "ramp")
    sio.write_volume(tmp_path / "v", vol, "u8")
    names = sorted(p.name for p in (tmp_path / "v").glob("*.raw"))
    assert names == ["000.raw", "001.raw", "002.raw"]
    man = (tmp_path / "v" / "manifest.txt").read_text().splitlines()
    assert man[0] == "version 1"
    assert man[1] == "dims 4 4 3"
    assert man[2] == "dtype u8"
    assert man[3] == "layout stack"
    assert man[4:] == names


def test_chunk_manifest_layout_line(tmp_path):
    meta = VolumeMeta(6, 6, 6, U8)
    sio.write_volume(tmp_path / "c", sio.synth_volume(meta, "ramp"), "u8",
                     chunks=(4, 4, 4))
    man = (tmp_path / "c" / "manifest.txt").read_text().splitlines()
    assert man[3] == "layout chunks 4 4 4"
    assert man[4] == "c_000_000_000.raw"


def test_read_counts_file_opens_once(tmp_path):
    meta = VolumeMeta(4, 4, 10, U8)
    sio.write_volume(tmp_path / "v", sio.synth_volume(meta, "random", seed=3), "u8")
    src = sio.open_slice_stream(tmp_path / "v")
    drain(src)
    assert src.pulls == 10
    assert src.counters["opens"] == 10


def test_chunk_read_counts(tmp_path):
    meta = VolumeMeta(8, 8, 8, U8)
    sio.write_volume(tmp_path / "c", sio.synth_volume(meta, "random", seed=4),
                     "u8", chunks=(4, 4, 4))
    src = sio.open_slice_stream(tmp_path / "c")
    drain(src)
    assert src.counters["opens"] == 8  # every chunk file exactly once


@pytest.mark.parametrize("layout", ["stack", "multipage", "chunks"])
def test_every_layout_loads_as_one_chunk_grid(tmp_path, layout):
    meta = VolumeMeta(6, 5, 10, U8)
    src = vol_stream(sio.synth_volume(meta, "random", seed=12), meta)
    if layout == "chunks":
        sio.write_chunk_store(src, tmp_path / "v", sio.ChunkGrid(meta, 4, 3, 4))
    else:
        sio._drain(sio.write_slices_steps(src, tmp_path / "v", meta,
                                          multipage=layout == "multipage"))
    grid = sio.load_manifest(tmp_path / "v")
    assert isinstance(grid, sio.ChunkGrid)
    listed = (tmp_path / "v" / sio.MANIFEST).read_text().splitlines()[4:]
    assert [grid.chunk_file(i) for i in range(grid.chunk_count)] == listed
    assert grid.cz == {"stack": 1, "multipage": 10, "chunks": 4}[layout]
    assert grid.files == (None if layout == "chunks" else listed)


@pytest.mark.parametrize("layout, files", [("stack", 10), ("multipage", 1), ("chunks", 12)])
def test_a_write_opens_each_file_once(tmp_path, monkeypatch, layout, files):
    """The writer holds a layer's files open across its planes: each
    file, and the manifest, is opened once, and each of its planes is
    one append."""
    meta = VolumeMeta(6, 5, 10, U8)
    vol = sio.synth_volume(meta, "random", seed=9)
    opened, appends = [], []
    file_io, write = sio.FileIO, sio._atomic_write
    monkeypatch.setattr(sio, "FileIO", lambda path, mode: (opened.append(path), file_io(path, mode))[1])
    monkeypatch.setattr(sio, "_atomic_write", lambda *a: (appends.append(a), write(*a))[1])
    if layout == "chunks":  # 2 x 2 chunks a layer, 3 layers, the last one 2 deep
        grid = sio.ChunkGrid(meta, 4, 3, 4)
        sio.write_chunk_store(vol_stream(vol, meta), tmp_path / "v", grid)
    else:
        sio._drain(sio.write_slices_steps(vol_stream(vol, meta), tmp_path / "v", meta,
                                          multipage=layout == "multipage"))
    assert len(opened) == len(set(opened)) == files + 1
    assert len(appends) == 10 * (4 if layout == "chunks" else 1) + 1
    assert np.array_equal(sio.read_volume(tmp_path / "v"), vol)


def test_single_chunk_layer_degenerates_to_whole_volume(tmp_path):
    meta = VolumeMeta(6, 6, 6, U8)
    vol = sio.synth_volume(meta, "random", seed=5)
    sio.write_volume(tmp_path / "c", vol, "u8", chunks=(6, 6, 6))
    assert np.array_equal(sio.read_volume(tmp_path / "c"), vol)


def test_missing_manifest_is_planning_error(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(PlanningError):
        sio.load_manifest(tmp_path / "empty")


def test_missing_slice_file_runtime_error(tmp_path):
    meta = VolumeMeta(4, 4, 3, U8)
    sio.write_volume(tmp_path / "v", sio.synth_volume(meta, "ramp"), "u8")
    (tmp_path / "v" / "001.raw").unlink()
    src = sio.open_slice_stream(tmp_path / "v")
    with pytest.raises(IOError) as ei:
        drain(src)
    assert "001.raw" in str(ei.value)
    assert "16" in str(ei.value)  # expected byte count is named


def test_short_slice_file_names_expected_bytes(tmp_path):
    meta = VolumeMeta(4, 4, 2, U8)
    sio.write_volume(tmp_path / "v", sio.synth_volume(meta, "ramp"), "u8")
    (tmp_path / "v" / "001.raw").write_bytes(b"abc")
    src = sio.open_slice_stream(tmp_path / "v")
    with pytest.raises(IOError) as ei:
        drain(src)
    assert "expected 16 bytes, got 3" in str(ei.value)


def test_partial_marker_blocks_reads(tmp_path):
    meta = VolumeMeta(4, 4, 2, U8)
    sio.write_volume(tmp_path / "v", sio.synth_volume(meta, "ramp"), "u8")
    (tmp_path / "v" / sio.PARTIAL_MARKER).touch()
    with pytest.raises(PlanningError):
        sio.load_manifest(tmp_path / "v")


def test_interrupted_write_leaves_marker(tmp_path, monkeypatch):
    meta = VolumeMeta(4, 4, 4, U8)
    vol = sio.synth_volume(meta, "random", seed=6)
    src = vol_stream(vol, meta)
    calls = {"n": 0}
    real = sio._write_bytes

    def failing(path, data):
        calls["n"] += 1
        if calls["n"] == 3:
            raise OSError(28, "No space left on device")
        real(path, data)

    monkeypatch.setattr(sio, "_write_bytes", failing)
    with pytest.raises(OSError):
        sio.write_slice_stack(src, tmp_path / "v", meta)
    src.close()
    assert (tmp_path / "v" / sio.PARTIAL_MARKER).exists()
    with pytest.raises(PlanningError):
        sio.load_manifest(tmp_path / "v")


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    meta = VolumeMeta(4, 4, 4, U8)
    vol = sio.synth_volume(meta, "random", seed=6)
    src = vol_stream(vol, meta)
    calls = {"n": 0}
    real = sio._write_bytes

    def partial_then_full_disk(path, data):
        calls["n"] += 1
        if calls["n"] == 3:
            real(path, data[:len(data) // 2])
            raise OSError(28, "No space left on device")
        real(path, data)

    monkeypatch.setattr(sio, "_write_bytes", partial_then_full_disk)
    with pytest.raises(OSError):
        sio.write_slice_stack(src, tmp_path / "v", meta)
    src.close()
    assert calls["n"] == 3
    assert list((tmp_path / "v").glob(".tmp_*")) == []
    assert (tmp_path / "v" / sio.PARTIAL_MARKER).exists()
    with pytest.raises(PlanningError):
        sio.load_manifest(tmp_path / "v")


def _creators_alive():
    return [t for t in threading.enumerate() if t.name == "stage-create" and t.is_alive()]


def _sink(kind, src, directory, meta):
    """The stepwise sink of kind: one file per slice, or one chunk per slice."""
    if kind == "write":
        return sio.write_slices_steps(src, directory, meta)
    return sio.write_chunks_steps(src, directory, sio.ChunkGrid(meta, meta.nx, meta.ny, 1))


def test_squatter_stops_the_sink_at_its_slice(tmp_path):
    # a directory where slice 3's file goes: creating it fails for any user
    meta = VolumeMeta(4, 4, 6, U8)
    (tmp_path / "v" / "003.raw").mkdir(parents=True)
    src = vol_stream(sio.synth_volume(meta, "random", seed=7), meta)
    steps = sio.write_slices_steps(src, tmp_path / "v", meta)
    try:
        assert [next(steps) for _ in range(3)] == [1, 2, 3]
        with pytest.raises(OSError):
            next(steps)
    finally:
        steps.close()
        src.close()
    assert ALLOC.live_slices == 0
    assert not _creators_alive()
    assert sorted(os.listdir(tmp_path / "v")) == [
        sio.PARTIAL_MARKER, "000.raw", "001.raw", "002.raw", "003.raw"]
    assert (tmp_path / "v" / "003.raw").is_dir()


@pytest.mark.parametrize("kind", ["write", "writeInChunks"])
def test_failed_fill_leaves_only_the_marker_and_filled_files(tmp_path, monkeypatch, kind):
    meta = VolumeMeta(4, 4, 6, U8)
    src = vol_stream(sio.synth_volume(meta, "random", seed=8), meta)
    calls = {"n": 0}
    real = sio._write_bytes

    def half_then_full_disk(path, data):
        calls["n"] += 1
        if calls["n"] == 4:  # slice 3, half written
            real(path, data[:len(data) // 2])
            raise OSError(28, "No space left on device")
        real(path, data)

    monkeypatch.setattr(sio, "_write_bytes", half_then_full_disk)
    try:
        with pytest.raises(OSError):
            sio._drain(_sink(kind, src, tmp_path / "v", meta))
    finally:
        src.close()
    assert not _creators_alive()
    names = ["000.raw", "001.raw", "002.raw"] if kind == "write" else [
        f"c_{z:03d}_000_000.raw" for z in range(3)]
    assert sorted(os.listdir(tmp_path / "v")) == [sio.PARTIAL_MARKER] + names
    assert all((tmp_path / "v" / n).stat().st_size == 16 for n in names)


@pytest.mark.parametrize("kind", ["write", "writeInChunks"])
def test_complete_write_leaves_every_file_filled_and_the_manifest(tmp_path, kind):
    meta = VolumeMeta(5, 3, 7, U8)
    vol = sio.synth_volume(meta, "random", seed=9)
    sio.write_volume(tmp_path / "v", vol, "u8",
                     chunks=None if kind == "write" else (2, 2, 3))
    man = sio.load_manifest(tmp_path / "v")
    files = man.files if kind == "write" else man.file_list()
    assert len(files) == (7 if kind == "write" else 3 * 2 * 3)
    assert sorted(os.listdir(tmp_path / "v")) == sorted(files + ["manifest.txt"])
    assert all((tmp_path / "v" / n).stat().st_size > 0 for n in files)
    assert np.array_equal(sio.read_volume(tmp_path / "v"), vol)


def test_short_stream_leaves_no_unfilled_file(tmp_path):
    # a stream that ends before its declared depth writes a shorter volume
    meta = VolumeMeta(4, 4, 6, U8)
    vol = sio.synth_volume(meta, "random", seed=10)
    src = vol_stream(vol[:4], meta)
    assert sio.write_slice_stack(src, tmp_path / "v", meta) == 4
    assert sorted(os.listdir(tmp_path / "v")) == [
        "000.raw", "001.raw", "002.raw", "003.raw", "manifest.txt"]
    assert np.array_equal(sio.read_volume(tmp_path / "v"), vol[:4])


@pytest.mark.parametrize("depth", [3, 4])
def test_short_stream_makes_a_chunk_store_of_the_depth_it_reached(tmp_path, depth):
    # 3 slices end inside a chunk layer and 4 at a layer's end; either way
    # the store lists and holds only the chunks of the depth written
    meta = VolumeMeta(4, 4, 6, U8)
    vol = sio.synth_volume(meta, "random", seed=11)
    grid = sio.ChunkGrid(meta, 4, 4, 2)
    assert sio.write_chunk_store(vol_stream(vol[:depth], meta), tmp_path / "c", grid) == depth
    names = [f"c_{iz:03d}_000_000.raw" for iz in range(2)]
    assert sorted(os.listdir(tmp_path / "c")) == names + ["manifest.txt"]
    assert sio.load_manifest(tmp_path / "c").meta.depth == depth
    assert np.array_equal(sio.read_volume(tmp_path / "c"), vol[:depth])
    assert ALLOC.live_slices == 0


def test_empty_stream_leaves_an_unfinished_chunk_store(tmp_path):
    meta = VolumeMeta(4, 4, 6, U8)
    grid = sio.ChunkGrid(meta, 4, 4, 2)
    with pytest.raises(IOError, match="empty volume"):
        sio.write_chunk_store(vol_stream(np.empty((0, 4, 4), np.uint8), meta),
                              tmp_path / "c", grid)
    assert os.listdir(tmp_path / "c") == [sio.PARTIAL_MARKER]
    assert ALLOC.internal_bytes == 0


@pytest.mark.parametrize("chunks", [None, (4, 4, 1)])
def test_fills_follow_the_creator_under_rapid_thread_switches(tmp_path, chunks):
    # a switch every microsecond interleaves the creator and the sink at
    # every step: a fill that ran ahead of its file's creation, or a count
    # update lost between them, shows as a missing, empty or wrong file
    meta = VolumeMeta(4, 4, 200, U8)
    vol = sio.synth_volume(meta, "random", seed=11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(3):
            sio.write_volume(tmp_path / f"v{k}", vol, "u8", chunks=chunks)
    finally:
        sys.setswitchinterval(interval)
    for k in range(3):
        assert np.array_equal(sio.read_volume(tmp_path / f"v{k}"), vol)
        assert all(p.stat().st_size == 16 for p in (tmp_path / f"v{k}").glob("*.raw"))
    assert not _creators_alive()


def test_multipage_single_file_stack(tmp_path):
    meta = VolumeMeta(4, 4, 5, U16)
    vol = sio.synth_volume(meta, "random", seed=7)
    d = tmp_path / "mp"
    d.mkdir()
    (d / "volume.raw").write_bytes(vol.astype("<u2").tobytes())
    sio.save_manifest(d, meta, ["volume.raw"])
    src = sio.open_slice_stream(d)
    got = drain(src)
    assert np.array_equal(got, vol)
    assert src.counters["opens"] == 1


@pytest.mark.parametrize("tail,expected", [(12, "expected 48 bytes, got 60"),
                                           (-5, "expected 48 bytes, got 43")],
                         ids=["oversized", "truncated"])
def test_multipage_stack_checks_its_size(tmp_path, tail, expected):
    meta = VolumeMeta(4, 4, 3, U8)
    data = sio.synth_volume(meta, "random", seed=7).tobytes()
    d = tmp_path / "mp"
    d.mkdir()
    (d / "volume.raw").write_bytes(data + bytes(tail) if tail > 0 else data[:tail])
    sio.save_manifest(d, meta, ["volume.raw"])
    src = sio.open_slice_stream(d)
    with pytest.raises(IOError, match=f"volume.raw: {expected}"):
        src.pull()
    src.close()
    assert src.counters["opens"] == 0


def test_backend_equivalence_raw_slices(tmp_path):
    meta = VolumeMeta(16, 16, 16, U8)
    vol = sio.synth_volume(meta, "random", seed=8)
    sio.write_volume(tmp_path / "s", vol, "u8")
    sio.write_volume(tmp_path / "c", vol, "u8", chunks=(5, 7, 3))
    a = drain(sio.open_slice_stream(tmp_path / "s"))
    b = drain(sio.open_slice_stream(tmp_path / "c"))
    assert np.array_equal(a, b)


def test_write_releases_all_slices(tmp_path):
    meta = VolumeMeta(4, 4, 6, U8)
    vol = sio.synth_volume(meta, "random", seed=9)
    sio.write_volume(tmp_path / "v", vol, "u8")
    assert ALLOC.live_slices == 0


def test_manifest_lexicographic_order_enforced(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "manifest.txt").write_text(
        "version 1\ndims 2 2 2\ndtype u8\nlayout stack\n001.raw\n000.raw\n")
    with pytest.raises(PlanningError):
        sio.load_manifest(d)


def test_manifest_listing_a_file_twice_is_refused(tmp_path, capsys):
    # the names sort, but z = 1 would read slice 0 again
    from stackstream import cli
    sio.write_volume(tmp_path / "v", sio.synth_volume(VolumeMeta(4, 4, 2, U8), "random"), "u8")
    man = tmp_path / "v" / sio.MANIFEST
    man.write_text(man.read_text().replace("001.raw", "000.raw"))
    message = "slice files must sort lexicographically in z order, each listed once"
    with pytest.raises(PlanningError, match=f"^{message}$"):
        sio.load_manifest(tmp_path / "v")
    spec = tmp_path / "p.spec"
    spec.write_text(f"source 1 MiB\nread {tmp_path}/v\nwrite {tmp_path}/o\nsink\n")
    assert cli.main(["plan", str(spec)]) == 2
    assert capsys.readouterr().err == f"planning error: {message}\n"


def test_missing_chunk_file_names_expected_bytes(tmp_path):
    meta = VolumeMeta(8, 8, 8, U8)
    sio.write_volume(tmp_path / "c", sio.synth_volume(meta, "random", seed=20),
                     "u8", chunks=(4, 4, 4))
    (tmp_path / "c" / "c_001_000_001.raw").unlink()
    src = sio.open_slice_stream(tmp_path / "c")
    with pytest.raises(IOError) as ei:
        drain(src)
    assert "c_001_000_001.raw" in str(ei.value)
    assert "64 bytes" in str(ei.value)


@pytest.mark.parametrize("name", ["../outside/secret.raw", "{tmp}/outside/secret.raw",
                                  ".", "..", "a\0b"],
                         ids=["relative", "absolute", "dot", "dotdot", "nul"])
def test_manifest_names_no_file_outside_its_volume(tmp_path, name):
    # a listed path, not a plain name, would read another file as slice data
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside" / "secret.raw").write_bytes(bytes(4))
    d = tmp_path / "v"
    d.mkdir()
    (d / "manifest.txt").write_text("version 1\ndims 2 2 1\ndtype u8\nlayout stack\n"
                                    + name.format(tmp=tmp_path) + "\n")
    with pytest.raises(PlanningError, match="malformed manifest: .* not a plain file name"):
        sio.load_manifest(d)


@hst.composite
def layouts(draw):
    """(meta, layout, written): a small volume, a stack, a multipage stack
    or a chunk grid whose chunks may pass its edges and whose cz need not
    divide its depth, and how many slices its stream holds."""
    meta = VolumeMeta(draw(hst.integers(1, 7)), draw(hst.integers(1, 7)),
                      draw(hst.integers(1, 9)), draw(hst.sampled_from([U8, U16, F32])))
    kind = draw(hst.sampled_from(["stack", "multipage", "chunks"]))
    if kind == "chunks":
        kind = tuple(draw(hst.integers(1, n + 1)) for n in (meta.nx, meta.ny, meta.depth))
    return meta, kind, draw(hst.integers(1, meta.depth))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=layouts())
def test_each_layout_round_trips_through_the_one_writer_and_reader(case):
    """Every file the writer leaves is vol[box].tobytes() of its slice or
    chunk, for the depth the stream reached; the reader gives the volume
    back while it holds one live slice at a time and registers nothing."""
    meta, kind, written = case
    vol = sio.synth_volume(meta, "random", seed=meta.voxels)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "v"
        src = vol_stream(vol[:written], meta)
        if kind in ("stack", "multipage"):
            steps = sio.write_slices_steps(src, d, meta, multipage=kind == "multipage")
        else:
            steps = sio.write_chunks_steps(src, d, sio.ChunkGrid(meta, *kind))
        assert sio._drain(steps) == written
        vol = vol[:written]
        man = sio.load_manifest(d)
        assert man.meta == replace(meta, depth=written)
        if kind == "stack":
            want = {name: vol[z].tobytes() for z, name in enumerate(man.files)}
            assert man.files == [f"{z:03d}.raw" for z in range(written)]
        elif kind == "multipage":
            want = {sio.STACK_FILE: vol.tobytes()}
            assert man.files == [sio.STACK_FILE]
        else:
            want = {man.chunk_name(*index): vol[box].tobytes()
                    for index, box in man.boxes()}
            assert list(want) == man.file_list()
        assert sorted(os.listdir(d)) == sorted([*want, sio.MANIFEST])
        assert {name: (d / name).read_bytes() for name in want} == want

        registered, live = [], []
        register = ALLOC.register_internal
        ALLOC.register_internal = lambda n: (registered.append(n), register(n))[1]
        try:
            stream = sio.open_slice_stream(d)
            planes = []
            while (sl := stream.pull()) is not None:
                live.append(ALLOC.live_slices)
                planes.append(sl.data.copy())
                release(sl)
        finally:
            ALLOC.register_internal = register
        assert np.array_equal(np.stack(planes), vol)
        assert live == [1] * written and registered == []


_READ_UNDER_LIMIT = """
import resource, sys
import numpy as np
from stackstream import io as sio
from stackstream.core import release
directory, mode, hard = sys.argv[1], sys.argv[2], int(sys.argv[3])
resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
try:
    if mode == "read":
        vol = sio.read_volume(directory)
    elif mode == "zip":  # two readers, each holding its layer at once
        a, b = sio.open_slice_stream(directory), sio.open_slice_stream(directory)
        planes = []
        while (sa := a.pull()) is not None:
            sb = b.pull()
            planes.append(sa.data + sb.data)
            release(sa), release(sb)
        vol = np.stack(planes)
    else:  # a reader beside a writer of the same grid
        sio.write_chunk_store(sio.open_slice_stream(directory), directory + "_copy",
                              sio.load_manifest(directory))
        vol = sio.read_volume(directory + "_copy")
except IOError as exc:
    print("IOError", exc)
else:
    print("read", resource.getrlimit(resource.RLIMIT_NOFILE)[0], vol.tobytes().hex())
"""


@pytest.mark.parametrize("mode, layers, hard", [
    ("read", 1, "kept"), ("read", 1, 64), ("zip", 2, "kept"), ("zip", 2, 200),
    ("copy", 2, "kept"), ("copy", 2, 200)])
def test_a_layer_wider_than_the_open_file_limit(tmp_path, mode, layers, hard):
    """Layers of 10 x 10 chunk files against a soft limit of 64 open
    files: one read, two reads at once, or a read beside a write. Each
    layer raises its process's soft limit toward the hard one, counting
    the files every other open layer holds, and names the numbers when
    the hard limit is too low for them all."""
    meta = VolumeMeta(10, 10, 3, U8)
    vol = sio.synth_volume(meta, "random", seed=21)
    sio.write_volume(tmp_path / "c", vol, "u8", chunks=(1, 1, 3))
    need = 100 * layers + sio.SPARE_FILES
    if hard == "kept":
        hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
        if hard != resource.RLIM_INFINITY and hard < need:
            pytest.skip(f"a hard limit of {hard} open files leaves no room to raise the soft one")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(sio.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", _READ_UNDER_LIMIT, str(tmp_path / "c"),
                          mode, str(hard)], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    if hard in (64, 200):
        assert res.stdout.strip() == (
            f"IOError a layer of 100 files beside {100 * (layers - 1)} held open needs "
            f"{need} open files, more than the hard RLIMIT_NOFILE of {hard}")
    else:
        want = vol + vol if mode == "zip" else vol
        assert res.stdout.split() == ["read", str(need), want.tobytes().hex()]


def test_a_sweep_counts_its_held_files_once(tmp_path, monkeypatch):
    """A reader and a writer each count the files of a layer once per
    sweep, not once per layer, as one layer's files are open at a time and
    every layer has as many: a read -> threshold -> write run over a
    64-slice stack, whose layers are one file each, asks for the open file
    limit twice."""
    meta = VolumeMeta(8, 8, 64, U8)
    vol = sio.synth_volume(meta, "random", seed=22)
    sio.write_volume(tmp_path / "in", vol, "u8")
    calls = []
    real = resource.getrlimit
    monkeypatch.setattr(resource, "getrlimit",
                        lambda which: (calls.append(which), real(which))[1])
    run_graph(chain(sio.read_stage(tmp_path / "in"), ops.threshold(100),
                    sio.write_stage(tmp_path / "out")), Budget(1 << 30), tmpdir=tmp_path)
    assert calls == [resource.RLIMIT_NOFILE] * 2
    assert np.array_equal(sio.read_volume(tmp_path / "out"), (vol >= 100) * np.uint8(255))

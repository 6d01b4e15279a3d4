import numpy as np
import pytest

from helpers import drain, vol_stream
from stackstream import io as sio
from stackstream.core import ALLOC, U8, U16, PlanningError, VolumeMeta


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
    src = sio.open_chunk_stream(tmp_path / "c")
    drain(src)
    assert src.counters["opens"] == 8  # every chunk file exactly once


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


def test_missing_chunk_file_names_expected_bytes(tmp_path):
    meta = VolumeMeta(8, 8, 8, U8)
    sio.write_volume(tmp_path / "c", sio.synth_volume(meta, "random", seed=20),
                     "u8", chunks=(4, 4, 4))
    (tmp_path / "c" / "c_001_000_001.raw").unlink()
    src = sio.open_chunk_stream(tmp_path / "c")
    with pytest.raises(IOError) as ei:
        drain(src)
    assert "c_001_000_001.raw" in str(ei.value)
    assert "64 bytes" in str(ei.value)

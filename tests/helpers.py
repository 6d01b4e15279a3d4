"""Shared test machinery: in-memory stage drivers and peak measurement."""

import numpy as np

from stackstream import stream as st
from stackstream.core import ALLOC, VolumeMeta, release
from stackstream.runtime import RunContext, _builder
from stackstream import ops


def vol_stream(vol: np.ndarray, meta: VolumeMeta) -> st.Stream:
    """Source stream over an in-memory (z, y, x) array."""
    smeta = meta.slice_meta

    def gen():
        for z in range(vol.shape[0]):
            yield ALLOC.new_slice(smeta, data=vol[z])

    return st.Stream(gen(), meta=smeta, depth=vol.shape[0], name="memory")


def drain(stream) -> np.ndarray:
    """Collect a slice stream into a (z, y, x) array, releasing as it goes."""
    planes = []
    try:
        while True:
            sl = stream.pull()
            if sl is None:
                break
            planes.append(sl.data.copy())
            release(sl)
    finally:
        stream.close()
    return np.stack(planes) if planes else np.empty((0, 0, 0))


def stage_stream(stage, upstream: st.Stream, in_meta: VolumeMeta, out_v: VolumeMeta,
                 ctx: RunContext) -> st.Stream:
    """The stream transformer the runtime builds for one mid-pipeline stage."""
    return _builder(stage)(stage, [upstream], in_meta, out_v, ctx)


def apply_stage(stage, vol: np.ndarray, meta: VolumeMeta, tmpdir=".") -> np.ndarray:
    """Run one operator stage over an in-memory volume through the engine."""
    ctx = RunContext(tmpdir=tmpdir)
    out_meta = ops.out_meta(stage, meta)
    src = vol_stream(vol, meta)
    out = stage_stream(stage, src, meta, out_meta, ctx)
    return drain(out)


def measure_peak(fn):
    """(peak_bytes, peak_slices) observed by the allocator while fn runs."""
    assert ALLOC.live_slices == 0
    ALLOC.reset_peaks()
    fn()
    assert ALLOC.live_slices == 0
    return ALLOC.peak_bytes, ALLOC.peak_slices

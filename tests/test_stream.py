import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from helpers import apply_stage
from stackstream import ops, stream as st
from stackstream.core import (ALLOC, U8, DepthMismatchError, PlanningError,
                              SliceMeta, StageError, VolumeMeta, release, retain)
from stackstream.io import synth_volume

META8 = SliceMeta(4, 4, U8)


def const_slice(v, meta=META8):
    return ALLOC.new_slice(meta, fill=v)


def int_stream(values, meta=META8):
    def gen():
        for v in values:
            yield const_slice(v, meta)

    return st.Stream(gen(), meta=meta, depth=len(values), name="ints")


def window_values(ws):
    out = []
    while (w := ws.pull()) is not None:
        out.append([int(s.data[0, 0]) for s in w])
        st.release_element(w)
    return out


def test_windowed_batch_example():
    ws = st.windowed(2, 2, 0, int_stream([0, 1, 2, 3]))
    assert window_values(ws) == [[0, 1], [2, 3]]


def test_windowed_identity_case():
    ws = st.windowed(1, 1, 0, int_stream([5, 6]))
    assert window_values(ws) == [[5], [6]]


def test_windowed_counts_pulls_once():
    src = int_stream([0, 1, 2, 3, 4])
    ws = st.windowed(3, 1, 0, src)
    vals = window_values(ws)
    assert vals == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]
    assert src.pulls == 5  # each source slice pulled exactly once


def test_windowed_padding_clamps_to_edge():
    ws = st.windowed(3, 1, 1, int_stream([0, 1, 2, 3]))
    assert window_values(ws) == [[0, 0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 3]]


def test_windowed_validation():
    with pytest.raises(PlanningError):
        st.windowed(0, 1, 0, int_stream([1]))
    with pytest.raises(PlanningError):
        st.windowed(2, 1, 2, int_stream([1]))  # p must stay below w


def test_windowed_stride_gaps_permitted():
    ws = st.windowed(1, 2, 0, int_stream([0, 1, 2, 3, 4]))
    assert window_values(ws) == [[0], [2], [4]]


def test_windowed_shares_slices_not_copies():
    src = int_stream([0, 1, 2])
    ws = st.windowed(2, 1, 0, src)
    w0 = ws.pull()
    w1 = ws.pull()
    assert w0[1] is w1[0]  # shared by reference
    st.release_element(w0)
    st.release_element(w1)
    ws.close()


def test_middle_slice_refcount_peak_with_two_held_windows():
    # holding two consecutive windows plus the operator's buffer puts the
    # shared middle slice at refcount 3
    src = int_stream([0, 1, 2, 3, 4])
    ws = st.windowed(3, 1, 0, src)
    w0 = ws.pull()
    w1 = ws.pull()
    shared = w0[2]
    assert shared is w1[1]
    assert shared.refcount == 3
    st.release_element(w0)
    st.release_element(w1)
    ws.close()


def test_windowed_inflight_bound():
    # distinct live slices never exceed w + s while windows advance
    w, s = 3, 2
    src = int_stream(list(range(9)))
    ws = st.windowed(w, s, 0, src)
    peak = 0
    while (win := ws.pull()) is not None:
        peak = max(peak, ALLOC.live_slices)
        st.release_element(win)
    ws.close()
    assert peak <= w + s


def test_flatten_concatenates_in_order():
    ws = st.windowed(2, 2, 0, int_stream([0, 1, 2, 3]))
    flat = st.flatten(ws)
    vals = []
    while (s := flat.pull()) is not None:
        vals.append(int(s.data[0, 0]))
        release(s)
    assert vals == [0, 1, 2, 3]


def test_flatten_singleton():
    ws = st.windowed(1, 1, 0, int_stream([7]))
    flat = st.flatten(ws)
    s = flat.pull()
    assert int(s.data[0, 0]) == 7
    release(s)
    assert flat.pull() is None


def test_flatten_windowed_identity_roundtrip():
    # flatten o windowed(w, s=w) is the identity for depths divisible by w
    vals = list(range(8))
    src = int_stream(vals)
    flat = st.flatten(st.windowed(4, 4, 0, src))
    got = []
    while (s := flat.pull()) is not None:
        got.append(int(s.data[0, 0]))
        release(s)
    assert got == vals


def test_map_square_constant_slices():
    out = st.map(lambda s: ALLOC.new_slice(s.meta, data=s.data.astype(np.int64) ** 2),
                 int_stream([2, 3]))
    vals = []
    while (s := out.pull()) is not None:
        vals.append(int(s.data[0, 0]))
        release(s)
    assert vals == [4, 9]


def test_map_identity_passthrough_bit_exact():
    src = int_stream([1, 2, 3])
    out = st.map(lambda s: s, src)
    got = []
    while (s := out.pull()) is not None:
        got.append(int(s.data[0, 0]))
        release(s)
    assert got == [1, 2, 3]


def test_map_failure_carries_stage_and_index():
    def boom(s):
        if int(s.data[0, 0]) == 2:
            raise ValueError("bad voxel")
        return s

    out = st.map(boom, int_stream([0, 1, 2, 3]), name="boomstage")
    release(out.pull())
    release(out.pull())
    with pytest.raises(StageError) as ei:
        out.pull()
    assert ei.value.stage == "boomstage"
    assert ei.value.index == 2
    out.close()


def test_map_failure_leaks_nothing():
    def boom(s):
        raise ValueError("nope")

    out = st.map(boom, int_stream([0, 1]), name="b")
    with pytest.raises(StageError):
        out.pull()
    out.close()
    assert ALLOC.live_slices == 0


def test_fold_sum_and_empty():
    total = st.fold(0, lambda acc, s: acc + int(s.data[0, 0]),
                    int_stream([1, 2, 3]))
    assert total == 6
    assert st.fold(42, lambda a, e: a, int_stream([])) == 42


def test_zip_pairs_and_depth_mismatch():
    pairs = st.zip(int_stream([1, 2]), int_stream([3, 4]))
    got = []
    while (p := pairs.pull()) is not None:
        got.append((int(p[0].data[0, 0]), int(p[1].data[0, 0])))
        st.release_element(p)
    assert got == [(1, 3), (2, 4)]

    bad = st.zip(int_stream([1]), int_stream([1, 2]))
    st.release_element(bad.pull())
    with pytest.raises(DepthMismatchError):
        bad.pull()
    bad.close()


def test_zip_releases_the_first_element_when_the_second_input_fails():
    # a stage thread cancelled while zip waits on its second input
    def failing():
        raise RuntimeError("cancelled")
        yield

    pairs = st.zip(int_stream([1, 2]), st.Stream(failing(), meta=META8))
    with pytest.raises(RuntimeError):
        pairs.pull()
    pairs.close()
    assert ALLOC.live_slices == 0


def test_zip_meta_mismatch_rejected():
    a = int_stream([1], SliceMeta(4, 4, U8))
    b = int_stream([1], SliceMeta(8, 4, U8))
    with pytest.raises(PlanningError):
        st.zip(a, b)
    a.close()
    b.close()
    # sources never pulled; nothing allocated


def test_zip_add_peak_is_three_slices():
    a = int_stream(list(range(10)))
    b = int_stream(list(range(10)))
    ALLOC.reset_peaks()
    pairs = st.zip(a, b)

    def add(p):
        sa, sb = p
        return ALLOC.new_slice(sa.meta,
                               data=(sa.data.astype(np.int64) + sb.data).clip(0, 255))

    out = st.map(add, pairs)
    while (s := out.pull()) is not None:
        release(s)
    assert ALLOC.peak_slices == 3  # two inputs plus one output


def test_initialize_generates_and_counts():
    s = st.initialize(4, lambda i: const_slice(i), META8)
    vals = []
    while (e := s.pull()) is not None:
        vals.append(int(e.data[0, 0]))
        release(e)
    assert vals == [0, 1, 2, 3]
    assert st.initialize(0, lambda i: const_slice(i), META8).pull() is None


def test_initialize_zero_stream_peak_one_slice():
    ALLOC.reset_peaks()
    s = st.initialize(3, lambda i: const_slice(0), META8)
    while (e := s.pull()) is not None:
        release(e)
    assert ALLOC.peak_slices == 1


def test_retain_release_net_zero():
    s = const_slice(9)
    before = s.refcount
    retain(s)
    release(s)
    assert s.refcount == before
    release(s)


def test_stream_end_is_idempotent():
    s = int_stream([1])
    release(s.pull())
    assert s.pull() is None
    assert s.pull() is None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(hst.integers(1, 20), hst.integers(1, 6), hst.integers(1, 6))
def test_windowed_count_property(d, w, s):
    # with zero padding and known depth, floor((d - w)/s) + 1 full windows
    src = int_stream(list(range(d)))
    ws = st.windowed(w, s, 0, src)
    n = len(window_values(ws))
    expected = (d - w) // s + 1 if d >= w else 0
    assert n == expected
    assert src.pulls <= d


@settings(max_examples=30, deadline=None, derandomize=True)
@given(hst.integers(1, 5), hst.integers(1, 18))
def test_flatten_windowed_identity_property(w, reps):
    d = w * reps
    vals = list(range(d))
    flat = st.flatten(st.windowed(w, w, 0, int_stream(vals)))
    got = []
    while (s := flat.pull()) is not None:
        got.append(int(s.data[0, 0]))
        release(s)
    assert got == vals


def test_map_to_per_slice_histograms_matches_counting_oracle():
    # map may emit non-slice values; a fold then merges them
    from stackstream.ops import Histogram
    from stackstream.core import U8

    vals = [3, 3, 7, 9]
    src = int_stream(vals)

    def slice_hist(s):
        h = Histogram.empty(U8)
        h.add_array(s.data)
        return h

    hists = st.map(slice_hist, src)
    total = st.fold(Histogram.empty(U8), lambda acc, h: acc.merge(h), hists)
    import numpy as np
    expected = np.zeros(256, dtype=np.int64)
    for v in vals:
        expected[v] += 16  # 4x4 voxels per slice
    assert np.array_equal(total.counts, expected)


def test_zip_with_zero_stream_is_additive_identity():
    import numpy as np
    vals = [5, 9, 200]
    src = int_stream(vals)
    zeros = st.initialize(3, lambda i: const_slice(0), META8)
    pairs = st.zip(src, zeros)

    def add(p):
        a, b = p
        return ALLOC.new_slice(a.meta, data=(a.data + b.data))

    out = st.map(add, pairs)
    got = []
    while (s := out.pull()) is not None:
        got.append(int(s.data[0, 0]))
        release(s)
    assert got == vals


# ---------------------------------------------------------------------------
# windowed_positions: what the buffer keeps between pulls
# ---------------------------------------------------------------------------

def _expected_windows(d, w, s, tail):
    """(start, length) of each window over d slices, from the definition."""
    out = [(t, w) for t in range(0, d - w + 1, s)]
    nxt = out[-1][0] + s if out else 0
    if tail == "full" and d >= w and (not out or d - w > out[-1][0]):
        out.append((d - w, w))
    elif tail == "partial" and nxt < d:
        out.append((nxt, d - nxt))
    return out


def _tracked_stream(d, depth):
    """A stream of slices valued 0..d-1 declaring `depth`, and the list of
    the slices made so far."""
    made = []

    def gen():
        for v in range(d):
            made.append(const_slice(v))
            yield made[-1]

    return st.Stream(gen(), meta=META8, depth=depth, name="ints"), made


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=hst.integers(0, 24), w=hst.integers(1, 8), s=hst.integers(1, 9),
       tail=hst.sampled_from(["none", "full", "partial"]), known=hst.booleans())
# a kernel's stride w - k_z + 1 that leaves a remainder: the last window
# shifts back from 9 to 7, and slices 7 and 8 outlive the window at 3
@example(d=11, w=4, s=3, tail="full", known=True)
@example(d=11, w=4, s=3, tail="full", known=False)
# the whole stack in one window: nothing is owed after it
@example(d=8, w=8, s=6, tail="full", known=True)
def test_window_buffer_keeps_only_what_a_later_window_reads(d, w, s, tail, known):
    src, made = _tracked_stream(d, d if known else None)
    ws = st.windowed_positions(w, s, src, tail)
    want = _expected_windows(d, w, s, tail)
    got = []
    try:
        while (item := ws.pull()) is not None:
            t, win = item
            got.append((t, [int(sl.data[0, 0]) for sl in win]))
            st.release_element(win)
            if known:
                later = {z for t2, n in want[len(got):] for z in range(t2, t2 + n)}
            else:  # what a later window might read, not knowing the depth
                later = set(range(t + s, d) if tail != "full" else range(t, t + w))
            held = {z for z, sl in enumerate(made) if sl.refcount}
            assert held <= later, (got[-1], held, later)
    finally:
        ws.close()
    assert got == [(t, list(range(t, t + n))) for t, n in want]
    assert src.pulls == d and ALLOC.live_slices == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=hst.integers(0, 16), w=hst.integers(1, 6), s=hst.integers(1, 6),
       short=hst.integers(1, 3))
def test_full_tail_source_short_of_its_depth_raises_and_leaks_nothing(d, w, s, short):
    src, _ = _tracked_stream(d, d + short)
    ws = st.windowed_positions(w, s, src, "full")
    windows = []
    try:
        with pytest.raises(DepthMismatchError):
            while (item := ws.pull()) is not None:
                windows.append(item[0])
                st.release_element(item[1])
    finally:
        ws.close()
    # only the regular windows that fit the slices that came
    assert windows == list(range(0, d - w + 1, s))
    assert ALLOC.live_slices == 0 and ALLOC.live_refs == 0


_KERNEL_STAGES = {  # kind: (k_z, stage at window w)
    "gaussian": (5, lambda w: ops.discrete_gaussian(0.5, w=w)),
    "convolve": (3, lambda w: ops.convolve(ops.Kernel3D.box(3), w=w)),
    "median": (3, lambda w: ops.median_filter(1, w=w)),
    "erode": (3, lambda w: ops.erode(1, w=w)),
}


@settings(max_examples=24, deadline=None, derandomize=True)
@given(kind=hst.sampled_from(sorted(_KERNEL_STAGES)), depth=hst.integers(5, 13),
       seed=hst.integers(0, 2**16))
def test_kernel_stage_outputs_match_the_kz_window_for_every_w(kind, depth, seed):
    kz, make = _KERNEL_STAGES[kind]
    meta = VolumeMeta(6, 5, depth, U8)
    vol = synth_volume(meta, "random", seed=seed)
    ref = apply_stage(make(kz), vol, meta)
    assert len(ref) == depth - kz + 1
    for w in range(kz + 1, depth + 1):
        assert np.array_equal(apply_stage(make(w), vol, meta), ref), w

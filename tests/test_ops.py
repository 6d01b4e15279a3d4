import itertools
import math
import tracemalloc
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

import oracles
from helpers import apply_stage, stage_stream, vol_stream
from stackstream import io as sio, ops, planner, runtime, stream as st
from stackstream.core import (ALLOC, F32, U8, U16, Budget, PlanningError, VolumeMeta,
                              chain, release)
from stackstream.io import synth_volume
from stackstream.planner import fuse_convolutions, plan
from stackstream.runtime import RunContext, execute_plan


def rand_vol(meta, seed):
    return synth_volume(meta, "random", seed=seed)


def rel_err(a, b):
    scale = max(1e-12, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a.astype(np.float64) - b))) / scale


# ---------------------------------------------------------------------------
# kernels / structuring elements / histograms
# ---------------------------------------------------------------------------

def test_kernel_validation():
    with pytest.raises(PlanningError):
        ops.Kernel3D(np.ones((2, 3, 3)))
    k = ops.Kernel3D.box(3)
    assert k.dims == (3, 3, 3)
    assert abs(k.weights.sum() - 1.0) < 1e-12


def test_kernel_file_roundtrip(tmp_path):
    k = ops.Kernel3D(np.random.default_rng(0).random((3, 1, 5)))
    path = tmp_path / "k.txt"
    k.save(path)
    back = ops.Kernel3D.load(path)
    assert np.array_equal(back.weights, k.weights)


def test_structuring_element_validation():
    with pytest.raises(PlanningError):
        ops.StructuringElement(np.zeros((3, 3, 3), dtype=bool))
    m = np.zeros((3, 3, 3), dtype=bool)
    m[0, 0, 0] = True
    with pytest.raises(PlanningError):
        ops.StructuringElement(m)  # center must be true
    assert ops.StructuringElement.box(1).k_z == 3


def test_histogram_bins_and_range():
    assert ops.histogram_bin_count(U8) == 256
    assert ops.histogram_bin_count(U16) == 65536
    assert ops.histogram_bin_count(F32) == 256
    with pytest.raises(PlanningError):
        ops.Histogram.empty(F32)  # f32 needs a declared range
    h = ops.Histogram.empty(F32, (0.0, 1.0))
    h.add_array(np.array([[0.0, 0.5, 0.999, 1.0]], dtype=np.float32))
    assert h.total() == 4
    assert h.counts[255] == 2  # top edge clips into the last bin


def test_f32_histogram_puts_infinities_in_the_edge_bins_and_nan_in_none():
    """+-inf land in the edge bins, as the finite values past the range do."""
    def bins(values):
        h = ops.Histogram.empty(F32, (0.0, 1.0))
        h.add_array(np.array(values, dtype=np.float32))
        return {int(i): int(h.counts[i]) for i in np.nonzero(h.counts)[0]}

    assert bins([np.nan, np.inf, -np.inf, 0.5]) == {0: 1, 128: 1, 255: 1}
    assert bins([2.0, -3.0, 0.5]) == {0: 1, 128: 1, 255: 1}


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

def test_threshold_boundary():
    meta = VolumeMeta(4, 4, 2, U8)
    v99 = synth_volume(meta, "constant", value=99)
    v100 = synth_volume(meta, "constant", value=100)
    st = ops.threshold(100)
    assert np.all(apply_stage(st, v99, meta) == 0)
    assert np.all(apply_stage(ops.threshold(100), v100, meta) == 255)


@pytest.mark.parametrize("dtype", [U8, U16])
def test_integer_threshold_equals_the_float_compare(dtype):
    """An integer slice compares in its own dtype against ceil(t): every
    voxel value of u8, or a spread of u16's with both ends, against NaN,
    +-inf, the halves from -0.5 to 65535.5, huge, tiny and 200 random t,
    equals the float64 compare, in the slice's dtype."""
    top = dtype.max_value
    arr = np.unique(np.r_[0, top, np.linspace(0, top, 4096).astype(np.int64)])
    arr = arr.astype(dtype.np_dtype).reshape(1, -1)
    rng = np.random.default_rng(62)
    ts = [math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, -5e-324, 0, -0.0, 100]
    ts += list(np.arange(-0.5, 65536, 0.5)[::97]) + [254.5, 255.5, 65534.5, 65535.5]
    ts += list(rng.uniform(-10, 70000, 200))
    for t in ts:
        out = ops.apply_threshold(arr, t, dtype)
        assert out.dtype == arr.dtype
        assert np.array_equal(out, oracles.frozen_threshold(arr, t, dtype)), t


def test_square_f32():
    meta = VolumeMeta(4, 4, 2, F32)
    v = synth_volume(meta, "constant", value=1.5)
    out = apply_stage(ops.square(), v, meta)
    assert np.allclose(out, 2.25)


def test_pointwise_chain_equals_composed(tmp_path):
    meta = VolumeMeta(8, 8, 8, U8)
    vol = rand_vol(meta, 11)
    a = apply_stage(ops.threshold(90), vol, meta)
    b = apply_stage(ops.square(), a, meta)
    composed = ops.apply_square(ops.apply_threshold(vol, 90, U8), U8)
    assert np.array_equal(b, composed)


def test_pointwise_batched_window_same_result():
    meta = VolumeMeta(6, 6, 7, U8)
    vol = rand_vol(meta, 3)
    w1 = apply_stage(ops.square(w=1), vol, meta)
    w3 = apply_stage(ops.square(w=3), vol, meta)  # 7 % 3 != 0: partial tail
    assert np.array_equal(w1, w3)


# ---------------------------------------------------------------------------
# convolve
# ---------------------------------------------------------------------------

def test_convolve_identity_kernel():
    meta = VolumeMeta(6, 6, 5, U8)
    vol = rand_vol(meta, 5)
    out = apply_stage(ops.convolve(ops.Kernel3D.identity()), vol, meta)
    assert out.shape == (5, 6, 6)
    assert np.array_equal(out.astype(np.uint8), vol)


def test_convolve_box_on_constant():
    meta = VolumeMeta(5, 5, 5, U8)
    vol = synth_volume(meta, "constant", value=5)
    out = apply_stage(ops.convolve(ops.Kernel3D.box(3)), vol, meta)
    assert out.shape == (3, 5, 5)
    assert np.allclose(out, 5.0, atol=1e-6)


def test_convolve_matches_brute_force():
    meta = VolumeMeta(9, 9, 9, U8)
    vol = rand_vol(meta, 7)
    k = ops.Kernel3D(np.random.default_rng(1).random((3, 3, 3)))
    out = apply_stage(ops.convolve(k), vol, meta)
    ref = oracles.conv3d(vol, k.weights)
    assert np.max(np.abs(out - ref)) <= 1e-5 * max(1.0, np.max(np.abs(ref)))


def test_convolve_wide_window_same_output():
    meta = VolumeMeta(7, 7, 10, U8)
    vol = rand_vol(meta, 9)
    k = ops.Kernel3D(np.random.default_rng(2).random((3, 3, 3)))
    base = apply_stage(ops.convolve(k, w=3), vol, meta)
    for w in (4, 5, 7, 10):
        wide = apply_stage(ops.convolve(k, w=w), vol, meta)
        assert np.array_equal(base, wide), f"w={w} changed the output"


def test_convolve_window_below_kernel_is_planning_error():
    with pytest.raises(PlanningError):
        st = ops.convolve(ops.Kernel3D.box(3), w=2)
        st.validate()


# ---------------------------------------------------------------------------
# gaussian
# ---------------------------------------------------------------------------

def test_gaussian_kernel_truncation_radius():
    g = ops.gaussian_kernel_1d(1.5)
    assert len(g) == 2 * 5 + 1  # ceil(3 * 1.5) = 5
    assert abs(g.sum() - 1.0) < 1e-12


def test_gaussian_near_identity_for_tiny_sigma():
    meta = VolumeMeta(8, 8, 6, U8)
    vol = rand_vol(meta, 13)
    out = apply_stage(ops.discrete_gaussian(0.1), vol, meta)
    assert out.shape[0] == 4  # radius 1 kernel, valid mode
    assert np.max(np.abs(out.astype(int) - vol[1:5].astype(int))) <= 1


def test_gaussian_preserves_constant():
    meta = VolumeMeta(6, 6, 8, U8)
    vol = synth_volume(meta, "constant", value=77)
    out = apply_stage(ops.discrete_gaussian(1.0), vol, meta)
    assert np.all(out == 77)


def test_gaussian_matches_dense_separable_oracle():
    meta = VolumeMeta(16, 16, 16, F32)
    vol = rand_vol(meta, 21)
    out = apply_stage(ops.discrete_gaussian(1.5), vol, meta)
    ref = oracles.gaussian_separable(vol, ops.gaussian_kernel_1d(1.5))
    assert rel_err(out, ref) <= 1e-4


def test_gaussian_equals_composed_3d_kernel():
    meta = VolumeMeta(10, 10, 10, F32)
    vol = rand_vol(meta, 22)
    g = ops.gaussian_kernel_1d(0.6)
    k3 = ops.Kernel3D(np.einsum("i,j,k->ijk", g, g, g))
    a = apply_stage(ops.discrete_gaussian(0.6), vol, meta)
    b = apply_stage(ops.convolve(k3), vol, meta)
    assert rel_err(a, b) <= 1e-4


# ---------------------------------------------------------------------------
# morphology
# ---------------------------------------------------------------------------

def test_median_constant_unchanged():
    meta = VolumeMeta(5, 5, 5, U8)
    vol = synth_volume(meta, "constant", value=42)
    out = apply_stage(ops.median_filter(1), vol, meta)
    assert np.all(out == 42)


def test_median_rejects_impulse():
    meta = VolumeMeta(7, 7, 7, U8)
    vol = synth_volume(meta, "impulse")
    out = apply_stage(ops.median_filter(1), vol, meta)
    assert np.all(out == 0)


def test_morphology_matches_sort_oracle():
    meta = VolumeMeta(8, 8, 8, U8)
    vol = rand_vol(meta, 31)
    se = ops.StructuringElement.box(1)
    for op, factory in (("median", ops.median_filter),
                        ("erode", ops.erode), ("dilate", ops.dilate)):
        out = apply_stage(factory(1), vol, meta)
        ref = oracles.morphology(vol, se.mask, op)
        assert np.array_equal(out, ref), op


def test_erode_dilate_duality_on_u8():
    meta = VolumeMeta(8, 8, 6, U8)
    vol = rand_vol(meta, 33)
    er = apply_stage(ops.erode(1), vol, meta)
    comp_dil = apply_stage(ops.dilate(1), (255 - vol).astype(np.uint8), meta)
    assert np.array_equal(er, 255 - comp_dil)


def test_closing_contains_original_cube():
    meta = VolumeMeta(10, 10, 10, U8)
    vol = np.zeros((10, 10, 10), dtype=np.uint8)
    vol[3:7, 3:7, 3:7] = 255
    dil = apply_stage(ops.dilate(1), vol, meta)
    meta2 = VolumeMeta(10, 10, 8, U8)
    closed = apply_stage(ops.erode(1), dil, meta2)
    # closing covers the original cube voxels (aligned on the valid region)
    inner = vol[2:8][1:-1]
    assert np.all(closed[1:-1][inner == 255] == 255)


def test_even_count_median_takes_lower_middle():
    mask = np.zeros((1, 1, 3), dtype=bool)
    mask[0, 0, 1:] = True  # two-element neighbourhood
    mask[0, 0, 1] = True
    se = ops.StructuringElement(np.array(mask))
    meta = VolumeMeta(4, 1, 1, U8)
    vol = np.array([[[10, 20, 30, 40]]], dtype=np.uint8)
    out = apply_stage(ops.median_filter(se), vol, meta)
    ref = oracles.morphology(vol, se.mask, "median")
    assert np.array_equal(out, ref)


_MORPH_FACTORIES = {"median": ops.median_filter, "erode": ops.erode,
                    "dilate": ops.dilate}


_F32_SPECIALS = np.array([-0.0, np.nan, np.inf, -np.inf, np.finfo(np.float32).max,
                          np.finfo(np.float32).smallest_subnormal,
                          -np.finfo(np.float32).tiny / 3], dtype=np.float32)


def _fill(rng, dtype, fill, shape):
    if fill == "special":  # f32: -0.0, NaN, +-inf, subnormals; integers: extremes
        if dtype.kind != "f32":
            top = np.iinfo(dtype.np_dtype).max
            return rng.choice([0, 1, top - 1, top], size=shape).astype(dtype.np_dtype)
        vol = _fill(rng, dtype, "random", shape)
        where = rng.random(shape) < 0.4
        vol[where] = rng.choice(_F32_SPECIALS, size=int(where.sum()))
        return vol
    if fill == "halves":  # 0, the top bit alone and the maximum, u16: 0/32768/65535
        top = np.iinfo(dtype.np_dtype).max
        return rng.choice([0, top // 2 + 1, top], size=shape).astype(dtype.np_dtype)
    if fill == "ties":  # extremes of u8, so ties straddle every radix bit
        return rng.choice([0, 1, 254, 255], size=shape).astype(dtype.np_dtype)
    if fill == "constant":
        return np.full(shape, rng.choice([0, 1, 128, 255]), dtype=dtype.np_dtype)
    if fill == "two":
        return rng.choice(rng.choice(256, size=2), size=shape).astype(dtype.np_dtype)
    if dtype.kind == "f32":
        return (rng.standard_normal(shape) * 100).astype(np.float32)
    return rng.integers(0, np.iinfo(dtype.np_dtype).max, size=shape,
                        endpoint=True).astype(dtype.np_dtype)


@hst.composite
def morph_cases(draw):
    """(op, dtype, mask, volume, w): masks keep the centre, may be even-sized."""
    op = draw(hst.sampled_from(sorted(_MORPH_FACTORIES)))
    dtype = draw(hst.sampled_from([U8, U16, F32]))
    shape = tuple(draw(hst.sampled_from([1, 3])) for _ in range(3))
    bits = draw(hst.lists(hst.booleans(), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    mask = np.array(bits, dtype=bool).reshape(shape)
    mask[shape[0] // 2, shape[1] // 2, shape[2] // 2] = True
    kz = shape[0]
    depth = draw(hst.integers(kz, kz + 4))
    w = draw(hst.integers(kz, depth))
    dims = (depth, draw(hst.integers(1, 4)), draw(hst.integers(1, 4)))
    fill = draw(hst.sampled_from(["random", "ties", "constant", "two"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    return op, dtype, mask, _fill(rng, dtype, fill, dims), w


_RNG = np.random.default_rng(57)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=morph_cases())
# a u8 median over a box with r=3 counts up to 343 entries per voxel
@example(case=("median", U8, np.ones((7, 7, 7), dtype=bool),
               _fill(_RNG, U8, "random", (7, 2, 3)), 7))
@example(case=("median", U8, np.ones((7, 7, 7), dtype=bool),
               np.full((7, 3, 2), 200, dtype=np.uint8), 7))
# the centre-only mask is the identity
@example(case=("median", U16, np.ones((1, 1, 1), dtype=bool),
               _fill(_RNG, U16, "random", (3, 2, 2)), 1))
# w=4 over 7 slices: the tail window emits from lo=1
@example(case=("median", U8, np.ones((3, 3, 3), dtype=bool),
               _fill(_RNG, U8, "ties", (7, 2, 3)), 4))
def test_morphology_matches_sort_oracle_on_generated_cases(case):
    op, dtype, mask, vol, w = case
    depth, ny, nx = vol.shape
    meta = VolumeMeta(nx, ny, depth, dtype)
    se = ops.StructuringElement(mask)
    out = apply_stage(_MORPH_FACTORIES[op](se, w=w), vol, meta)
    ref = oracles.morphology(vol, mask, op)
    assert out.dtype == ref.dtype
    assert np.array_equal(out, ref)


@hst.composite
def wide_window_cases(draw):
    """(op, dtype, mask, volume, lo): one window over the whole volume."""
    op = draw(hst.sampled_from(sorted(_MORPH_FACTORIES)))
    dtype = draw(hst.sampled_from([U8, U16, F32]))
    shape = tuple(draw(hst.sampled_from([1, 3, 5])) for _ in range(3))
    bits = draw(hst.lists(hst.booleans(), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    mask = np.array(bits, dtype=bool).reshape(shape)
    mask[shape[0] // 2, shape[1] // 2, shape[2] // 2] = True
    dims = (draw(hst.integers(12, 24)), draw(hst.integers(1, 4)), draw(hst.integers(1, 4)))
    fill = draw(hst.sampled_from(["random", "ties", "two"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    lo = draw(hst.integers(0, 3))
    return op, dtype, mask, _fill(rng, dtype, fill, dims), lo


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=wide_window_cases())
@example(case=("erode", U8, np.ones((5, 5, 5), dtype=bool),
               _fill(_RNG, U8, "random", (24, 4, 3)), 0))
@example(case=("dilate", U16, np.ones((5, 5, 5), dtype=bool),
               _fill(_RNG, U16, "random", (20, 3, 4)), 2))
@example(case=("median", F32, np.ones((5, 5, 5), dtype=bool),
               _fill(_RNG, F32, "random", (12, 4, 4)), 0))
@example(case=("median", U8, np.ones((5, 5, 5), dtype=bool),
               _fill(_RNG, U8, "ties", (16, 2, 5)), 1))
def test_one_window_call_emits_many_owned_outputs(case):
    op, dtype, mask, vol, lo = case
    depth, ny, nx = vol.shape
    kz = mask.shape[0]
    smeta = VolumeMeta(nx, ny, depth, dtype).slice_meta
    window = [ALLOC.new_slice(smeta, data=plane) for plane in vol]
    try:
        outs = ops.morph_window(window, ops.StructuringElement(mask), op, lo, depth - kz)
        ref = oracles.morphology(vol, mask, op)[lo:]
        assert len(outs) == len(ref)
        assert np.array_equal(np.stack(outs), ref)
        for i, out in enumerate(outs):
            assert out.dtype == ref.dtype and out.base is None
            assert not any(np.shares_memory(out, other) for other in outs[i + 1:])
            assert not any(np.shares_memory(out, sl.data) for sl in window)
    finally:
        for sl in window:
            release(sl)


@hst.composite
def radix_cases(draw):
    """(dtype, mask, volume): unsigned medians over boxes up to r = 3, 2-3 outputs."""
    dtype = draw(hst.sampled_from([U8, U16]))
    r = draw(hst.integers(0, 3))
    mask = np.ones((2 * r + 1,) * 3, dtype=bool)
    dims = (2 * r + draw(hst.integers(2, 3)), draw(hst.integers(1, 3)),
            draw(hst.integers(1, 3)))
    fill = draw(hst.sampled_from(["random", "halves", "constant", "special"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    return dtype, mask, _fill(rng, dtype, fill, dims)


_BOX3 = np.ones((7, 7, 7), dtype=bool)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=radix_cases())
# n = 343, the largest network (5,232 steps), over halves, the maximum and random values
@example(case=(U16, _BOX3, _fill(_RNG, U16, "halves", (9, 3, 2))))
@example(case=(U16, _BOX3, np.full((8, 2, 3), 65535, dtype=np.uint16)))
@example(case=(U16, _BOX3, _fill(_RNG, U16, "random", (9, 2, 3))))
@example(case=(U8, _BOX3, np.full((8, 3, 2), 255, dtype=np.uint8)))
def test_radix_select_matches_sort_oracle(case):
    dtype, mask, vol = case
    kz = mask.shape[0]
    outs = ops.morph_window(_window(vol), ops.StructuringElement(mask), "median",
                            0, vol.shape[0] - kz)
    ref = oracles.morphology(vol, mask, "median")
    assert np.array_equal(np.stack(outs), ref)
    for i, out in enumerate(outs):
        # an output that owns its buffer cannot alias the select's workspaces
        assert out.dtype == ref.dtype and out.base is None and out.flags.owndata
        assert not any(np.shares_memory(out, other) for other in outs[i + 1:])


def _mask_of(n):
    """The smallest box mask that holds n values, its centre and its first
    n - 1 other entries in raster order true: planes of every count, some
    empty, and even counts of n."""
    k = 1
    while k ** 3 < n:
        k += 2
    flat = np.zeros(k ** 3, dtype=bool)
    flat[k ** 3 // 2] = True
    flat[[i for i in range(k ** 3) if i != k ** 3 // 2][:n - 1]] = True
    return flat.reshape(k, k, k)


@pytest.mark.parametrize("n", [*range(1, 65), 125, 343])
def test_selection_network_selects_the_median(n):
    """The pruned networks over a mask of n values, run over read-only
    slices, leave the lower median in every output, with ties, 0 and the
    maximum."""
    mask = _mask_of(n)
    kz = mask.shape[0]
    rng = np.random.default_rng(n)
    for dtype in (U8, U16):
        top = np.iinfo(dtype.np_dtype).max
        for values in ([0, 1, top - 1, top], [0, top], rng.integers(0, top, 8, endpoint=True)):
            vol = rng.choice(values, size=(kz + 1, 4, 4)).astype(dtype.np_dtype)
            vol.flags.writeable = False  # the networks only read the slices
            outs = ops.morph_window(_window(vol), ops.StructuringElement(mask), "median", 0, 1)
            assert np.array_equal(np.stack(outs), oracles.morphology(vol, mask, "median"))


def test_selection_network_of_the_r1_box_is_pruned():
    """Over the r = 1 box a slice's median lists take 6 + 36 calls, the
    merge of two slices' lists 48 and the select 18; erode and dilate keep
    one rank, 2 + 2 calls a slice and one a merge."""
    box = ops.StructuringElement.box(1).mask
    nets = ops._morph_networks(box.tobytes(), box.shape, "median")
    (_, rows, _), = nets.rows
    (_, _, plane, _), = nets.patterns
    assert [len(rows.steps), len(plane.steps)] == [6, 36]
    assert [len(net.steps) for net in nets.steps] == [48, 18]
    assert nets.steps[0].wanted == tuple(range(4, 14)) and nets.pair
    for op in ("erode", "dilate"):
        nets = ops._morph_networks(box.tobytes(), box.shape, op)
        assert [len(net.steps) for _, net, _ in nets.rows] == [2]
        assert [len(net.steps) for _, _, net, _ in nets.patterns] == [2]
        assert [len(net.steps) for net in nets.steps] == [1, 1]


def _holds_by_the_0_1_principle(net):
    """Run net once over every 0-1 input that keeps each of its groups
    sorted, _LOW as 0 and _HIGH as 1, each input read-only, and check
    every wanted rank. A min/max network commutes with thresholds, so
    this proves it on every input whose groups are sorted."""
    reals = [[v for v in group if v >= 0] for group in net.groups]
    zeros = np.array(list(itertools.product(*[range(len(r) + 1) for r in reals])))
    regs = [None] * net.n_in
    for g, real in enumerate(reals):
        for rank, v in enumerate(real):
            regs[v] = (rank >= zeros[:, g]).astype(np.uint8)
            regs[v].flags.writeable = False
    regs += [np.empty(len(zeros), dtype=np.uint8) for _ in range(net.n_out + net.n_work)]
    calls, results = net.bind(regs)
    ops._run(calls)
    below = sum(group.count(ops._LOW) for group in net.groups) + zeros.sum(axis=1)
    for rank, got in zip(net.wanted, results):
        assert np.array_equal(got, (rank >= below).astype(np.uint8)), (net.groups, rank)
    return len(zeros)


def _all_networks(mask, op):
    nets = ops._morph_networks(mask.tobytes(), mask.shape, op)
    return ([net for _, net, _ in nets.rows] + [net for _, _, net, _ in nets.patterns]
            + list(nets.steps))


@pytest.mark.parametrize("op", ["median", "erode", "dilate"])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_box_networks_hold_by_the_0_1_principle(r, op):
    """Every row sort, plane merge and z merge of a box, exhaustively: at
    r = 2 the plane merge of five sorted columns of five takes 6^5 inputs."""
    mask = np.ones((2 * r + 1,) * 3, dtype=bool)
    vectors = [_holds_by_the_0_1_principle(net) for net in _all_networks(mask, op)]
    assert max(vectors) <= 7776


@hst.composite
def small_masks(draw):
    """Masks as morph_cases draws them: edges of 1 or 3, any bits, the
    centre true, so planes may be empty or hold an even count."""
    shape = tuple(draw(hst.sampled_from([1, 3])) for _ in range(3))
    bits = draw(hst.lists(hst.booleans(), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    mask = np.array(bits, dtype=bool).reshape(shape)
    mask[shape[0] // 2, shape[1] // 2, shape[2] // 2] = True
    return mask


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mask=small_masks(), op=hst.sampled_from(["median", "erode", "dilate"]))
@example(mask=np.array([[[0, 0, 0]], [[1, 1, 1]], [[0, 1, 0]]], dtype=bool), op="median")
def test_mask_networks_hold_by_the_0_1_principle(mask, op):
    for net in _all_networks(mask, op):
        _holds_by_the_0_1_principle(net)


@pytest.mark.parametrize("w", [3, 40])
def test_median_scratch_is_its_ring_banks_and_network_workspaces(w):
    """A 64x64 u8 median call over the r = 1 box holds its padded slice,
    the row sorts' rows and workspaces, a ring of k_z = 3 slots of 9 kept
    ranks, bank 0 with the pair merge's 10 ranks, bank 1 with the select's
    one, and the z merges' workspaces: 270,494 B whatever w is. Rows are
    66 wide, so a row sort's rows hold 64 * 66 + 2 voxels and the rest
    64 * 66."""
    kz, call = _SCRATCH_CALLS["median"]
    window = _window(np.random.default_rng(73).integers(0, 256, (w, 64, 64), dtype=np.uint8))
    scratch = ops.Scratch()
    outs = call(window, 0, w - kz, scratch)
    assert len(outs) == w - kz + 1
    box = ops.StructuringElement.box(1).mask
    nets = ops._morph_networks(box.tobytes(), box.shape, "median")
    size, line = 64 * 66, 64 * 66 + 2
    assert (nets.n_kept, nets.banks) == (9, [10, 1])
    want = (66 * 66 + 2 + (nets.slice_work + nets.n_sorted) * line
            + (kz * nets.n_kept + sum(nets.banks) + nets.z_work) * size)
    assert sum(b.nbytes for b in scratch.buffers.values()) == want == 270_494
    assert len(scratch.memo["morph"].keys) == kz


@pytest.mark.parametrize("op", ["erode", "dilate"])
@pytest.mark.parametrize("w,banks", [(3, 2), (4, 1), (12, 1)])
def test_one_rank_z_merges_keep_one_bank(op, w, banks):
    """Each z merge of erode and dilate keeps one rank in one call, so it
    writes over what it has merged so far: a chunk of c > 1 outputs holds
    one bank of c. One output per call (w = k_z) keeps the pair merge in
    bank 0 across outputs, and merge 1 goes to a bank 1 of one output."""
    rng = np.random.default_rng(74)
    vol = rng.integers(0, 256, (w + 2, 16, 16), dtype=np.uint8)
    se, scratch = ops.StructuringElement.box(1), ops.Scratch()
    got = [out for lo in range(0, 3, w - 2) for out in ops.morph_window(
        _window(vol[lo:lo + w]), se, op, 0, w - 3, scratch=scratch)]
    assert np.array_equal(np.stack(got), oracles.morphology(vol, se.mask, op)[:len(got)])
    ring = scratch.memo["morph"]
    assert len(ring.banks) == banks
    assert sorted(n for n in scratch.buffers if n.startswith("bank")) == [
        f"bank{b}" for b in range(banks)]
    assert ring.banks[0].shape == (1, ring.chunk, 16 * 18)


# ---------------------------------------------------------------------------
# in-place voxel loops against the frozen loops they replaced
# ---------------------------------------------------------------------------

def _bits(arr):
    """Integers as they are, floats as their bit patterns."""
    return arr.view(f"u{arr.itemsize}") if arr.dtype.kind == "f" else arr


def _assert_same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(_bits(got), _bits(ref))


def _window(vol):
    return [SimpleNamespace(data=plane) for plane in vol]


@hst.composite
def float_kernel_cases(draw):
    """(kind, param, dtype, volume, lo, hi) for one gaussian or convolve call
    over a window of w = k_z .. k_z + 6 slices."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    kind = draw(hst.sampled_from(["gaussian", "convolve"]))
    if kind == "gaussian":  # sigmas in (0, 2] give k_z = 3 .. 13
        param = ops.gaussian_kernel_1d(draw(hst.floats(0.05, 2.0)))
        kz = len(param)
    else:  # odd kernels up to 5^3, about a third of the weights zero
        shape = tuple(draw(hst.sampled_from([1, 3, 5])) for _ in range(3))
        param = ops.Kernel3D(rng.standard_normal(shape) * (rng.random(shape) < 0.7))
        kz = shape[0]
    dtype = draw(hst.sampled_from([U8, U16, F32]))
    w = draw(hst.integers(kz, kz + 6))
    lo = draw(hst.integers(0, w - kz))
    hi = draw(hst.integers(lo, w - kz))
    dims = (w, draw(hst.integers(1, 9)), draw(hst.integers(1, 9)))
    fill = draw(hst.sampled_from(["random", "special", "constant"]))
    return kind, param, dtype, _fill(rng, dtype, fill, dims), lo, hi


_FLOAT_KERNELS = {"gaussian": (ops.gaussian_window, oracles.frozen_gaussian_window),
                  "convolve": (ops.conv_window, oracles.frozen_conv_window)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=float_kernel_cases())
# k_z = 13 over 1-pixel-wide slices, radius 6 beyond both of their edges
@example(case=("gaussian", ops.gaussian_kernel_1d(2.0), F32,
               _fill(_RNG, F32, "special", (19, 1, 5)), 2, 6))
@example(case=("convolve", ops.Kernel3D(_RNG.standard_normal((5, 5, 5))), U16,
               _fill(_RNG, U16, "special", (11, 2, 1)), 1, 6))
# all -0.0: a pass that sums from zero gives +0.0, one from its first term -0.0
@example(case=("gaussian", ops.gaussian_kernel_1d(0.3), F32,
               np.full((5, 3, 4), -0.0, dtype=np.float32), 0, 2))
@example(case=("convolve", ops.Kernel3D(_RNG.standard_normal((3, 3, 3))), F32,
               np.full((5, 3, 4), -0.0, dtype=np.float32), 1, 2))
# one voxel: an add into its first operand there gives the other NaN
@example(case=("gaussian", ops.gaussian_kernel_1d(0.5), F32,
               np.array([np.inf, np.inf, np.nan, np.inf, -np.inf],
                        dtype=np.float32).reshape(5, 1, 1), 0, 0))
def test_float_kernels_match_frozen_loops_bit_for_bit(case):
    kind, param, dtype, vol, lo, hi = case
    new, frozen = _FLOAT_KERNELS[kind]
    # inf - inf and overflow are meant here; integer inputs must stay quiet
    with np.errstate(invalid="ignore", over="ignore") if dtype == F32 else nullcontext():
        got = new(_window(vol), param, lo, hi)
        ref = frozen(_window(vol), param, lo, hi)
        assert len(got) == len(ref) == hi - lo + 1
        for g, r in zip(got, ref):
            _assert_same_bits(g, r)
            _assert_same_bits(runtime._cast_array(g, dtype),
                              oracles.frozen_cast_array(r, dtype))
        # the runtime's path: workspaces from a Scratch, each sum cast at once
        cast = new(_window(vol), param, lo, hi, scratch=ops.Scratch(),
                   cast=lambda arr: runtime._cast_array(arr, dtype))
        for c, r in zip(cast, ref):
            _assert_same_bits(c, oracles.frozen_cast_array(r, dtype))


@hst.composite
def voxel_function_cases(draw):
    """(dtype, a, b, t, wide): two slices of dtype, a threshold and a
    float64 slice spanning and exceeding every dtype's range."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    dtype = draw(hst.sampled_from([U8, U16, F32]))
    shape = (draw(hst.integers(1, 6)), draw(hst.integers(1, 6)))
    a, b = (_fill(rng, dtype, draw(hst.sampled_from(["random", "special", "ties"])), shape)
            for _ in range(2))
    t = draw(hst.one_of(
        hst.sampled_from([0, -1, -0.5, 0.5, 99.5, 255, 256, 65535, 65536, 1e39,
                          float("inf"), float("nan")]),
        hst.floats(-300.0, 70000.0)))
    wide = rng.choice([-0.0, 0.5, -0.5, 1.5, 254.5, 255.5, 256.0, 65535.5, -1e300,
                       1e300, np.inf, -np.inf], size=shape)
    where = rng.random(shape) < 0.5
    wide[where] = rng.standard_normal(int(where.sum())) * 300
    return dtype, a, b, t, wide


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=voxel_function_cases())
def test_voxel_functions_match_frozen_loops_bit_for_bit(case):
    dtype, a, b, t, wide = case
    with np.errstate(invalid="ignore", over="ignore") if dtype == F32 else nullcontext():
        _assert_same_bits(ops.apply_threshold(a, t, dtype),
                          oracles.frozen_threshold(a, t, dtype))
        _assert_same_bits(ops.apply_square(a, dtype), oracles.frozen_square(a, dtype))
        _assert_same_bits(ops.saturating_add(a, b, dtype),
                          oracles.frozen_saturating_add(a, b, dtype))
        _assert_same_bits(runtime._cast_array(wide, dtype),
                          oracles.frozen_cast_array(wide, dtype))
        assert runtime._cast_array(a, dtype) is a


@pytest.mark.parametrize("kind, param, kz", [
    ("gaussian", ops.gaussian_kernel_1d(0.8), 7),
    ("convolve", ops.Kernel3D.box(3), 3),
    ("convolve", ops.Kernel3D(np.ones((3, 1, 1))), 3),
])
def test_float_kernels_return_owned_outputs(kind, param, kz):
    """Each output is a fresh array: no view of a workspace, shared with no
    other output (a reused workspace would be) and with no window slice."""
    window = _window(_fill(np.random.default_rng(61), U8, "random", (12, 5, 6)))
    outs = _FLOAT_KERNELS[kind][0](window, param, 1, 12 - kz)
    assert len(outs) == 12 - kz
    for i, out in enumerate(outs):
        assert out.base is None and out.flags.owndata
        assert not any(np.shares_memory(out, other) for other in outs[i + 1:])
        assert not any(np.shares_memory(out, sl.data) for sl in window)


_SCRATCH_CALLS = {  # kind: (k_z, call(window, lo, hi, scratch)) as the runtime calls it
    "gaussian": (7, lambda win, lo, hi, s: ops.gaussian_window(
        win, ops.gaussian_kernel_1d(0.8), lo, hi, scratch=s,
        cast=lambda arr: runtime._cast_array(arr, U8))),
    "convolve": (3, lambda win, lo, hi, s: ops.conv_window(
        win, ops.Kernel3D.box(3), lo, hi, scratch=s,
        cast=lambda arr: runtime._cast_array(arr, F32))),
    "median": (3, lambda win, lo, hi, s: ops.morph_window(
        win, ops.StructuringElement.box(1), "median", lo, hi, scratch=s,
        cast=lambda arr: runtime._cast_array(arr, U8))),
    "erode": (3, lambda win, lo, hi, s: ops.morph_window(
        win, ops.StructuringElement.box(1), "erode", lo, hi, scratch=s,
        cast=lambda arr: runtime._cast_array(arr, U8))),
}


def _one_call_memory(kind, w):
    """(transient, workspace, outputs) bytes of one call over a w-slice
    64x64 u8 window that emits all its w - k_z + 1 centers. The transient
    is the tracemalloc peak less what the call leaves allocated, its
    outputs and the workspaces it keeps in its Scratch."""
    kz, call = _SCRATCH_CALLS[kind]
    window = _window(np.random.default_rng(71).integers(0, 256, (w, 64, 64), dtype=np.uint8))
    scratch = ops.Scratch()
    tracemalloc.start()
    try:
        outs = call(window, 0, w - kz, scratch)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outs) == w - kz + 1
    return (peak - current, sum(b.nbytes for b in scratch.buffers.values()),
            sum(out.nbytes for out in outs))


@pytest.mark.parametrize("kind", sorted(_SCRATCH_CALLS))
def test_one_call_holds_bounded_scratch_whatever_w(kind):
    kz = _SCRATCH_CALLS[kind][0]
    small, wide, wider = (_one_call_memory(kind, w) for w in (kz + 1, 64, 256))
    slice_bytes = wide[2] // (64 - kz + 1)
    # the outputs leave in the output dtype, and a call holds about one
    # slice beyond them however many it emits
    assert wide[2] == (64 - kz + 1) * 64 * 64 * (4 if kind == "convolve" else 1)
    assert abs(wide[0] - small[0]) <= slice_bytes
    assert wider[0] <= small[0] + slice_bytes
    # the workspaces stop growing with w: erode and median chunk their block
    assert small[1] <= wide[1] == wider[1]


# ---------------------------------------------------------------------------
# the convolve's plane ring: sums kept across the calls of one Scratch
# ---------------------------------------------------------------------------

def _conv_sweep(vol, dtype, kernel, w, scratch):
    """[(float64 sum, cast output, frozen sum)] of every output of vol, called
    as a stage at window w calls conv_window: windows from windowed_positions
    at stride w - k_z + 1, the same slice objects where they overlap, and
    one Scratch, whose float64 sum each output copies before the runtime's
    in-place cast rounds it."""
    depth, ny, nx = vol.shape
    kz = kernel.k_z
    windows = st.windowed_positions(w, w - kz + 1, vol_stream(vol, VolumeMeta(
        nx, ny, depth, dtype)), "full")
    rows, next_out = [], 0
    try:
        while (item := windows.pull()) is not None:
            t, win = item
            lo, next_out = max(t, next_out) - t, t + w - kz + 1
            try:
                got = ops.conv_window(win, kernel, lo, w - kz, scratch=scratch, cast=lambda a: (
                    a.copy(), runtime._cast_array(a, dtype, in_place=True)))
                rows += [(g, c, r) for (g, c), r in zip(
                    got, oracles.frozen_conv_window(win, kernel, lo, w - kz))]
            finally:
                st.release_element(win)
    finally:
        windows.close()
    assert len(rows) == depth - kz + 1
    return rows


@hst.composite
def ring_sweep_cases(draw):
    """(kernel, dtype, volume, w): box, mirror-symmetric, all-distinct and
    zero-plane kernels, w = k_z .. k_z + 4 over a volume at least w deep."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    kind = draw(hst.sampled_from(["box", "mirror", "distinct", "zero_plane"]))
    kz = draw(hst.sampled_from([1, 3, 5]))
    if kind == "box":
        kernel = ops.Kernel3D.box(kz)
    else:
        shape = (kz, draw(hst.sampled_from([1, 3, 5])), draw(hst.sampled_from([1, 3, 5])))
        weights = rng.standard_normal(shape)
        if kind == "mirror":
            weights = weights + weights[::-1]
        elif kind == "zero_plane":
            weights[rng.random(kz) < 0.5] = 0.0
        kernel = ops.Kernel3D(weights)
    dtype = draw(hst.sampled_from([U8, U16, F32]))
    w = draw(hst.integers(kz, kz + 4))
    dims = (draw(hst.integers(w, w + 8)), draw(hst.integers(1, 7)), draw(hst.integers(1, 7)))
    return kernel, dtype, _fill(rng, dtype, "special", dims), w


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=ring_sweep_cases())
@example(case=(ops.Kernel3D.box(3), U8, _fill(_RNG, U8, "special", (9, 4, 5)), 3))
@example(case=(ops.Kernel3D.box(3), F32, _fill(_RNG, F32, "special", (12, 3, 6)), 5))
def test_conv_sweep_with_one_scratch_matches_frozen_loops_bit_for_bit(case):
    kernel, dtype, vol, w = case
    scratch = ops.Scratch()
    with np.errstate(invalid="ignore", over="ignore") if dtype == F32 else nullcontext():
        for got, cast, ref in _conv_sweep(vol, dtype, kernel, w, scratch):
            _assert_same_bits(got, ref)
            _assert_same_bits(cast, oracles.frozen_cast_array(ref, dtype))
    assert ALLOC.live_slices == 0
    # the ring holds k_z sums per recurring plane, and close() drops it
    planes, ring = scratch.memo["conv"], scratch.buffers.get("ring")
    assert (0 if ring is None else ring.nbytes) == (
        len(planes.ring) * kernel.k_z * planes.sums[0].nbytes)
    scratch.close()
    assert not scratch.buffers and not scratch.memo


@pytest.mark.parametrize("dtype", [U8, U16])
def test_conv_nan_weights_on_integer_slices_keep_the_frozen_nans(dtype):
    """A NaN weight's +NaN meets the -NaN of inf - inf in the sums: which
    one an add returns depends on numpy's loop, so these sums run over the
    frozen loops' (ny, nx) operands and return their bits."""
    rng = np.random.default_rng(86)
    kernel = ops.Kernel3D(rng.choice([np.nan, np.inf, -np.inf, 0.5], size=(3, 3, 5)))
    vol = _fill(rng, dtype, "special", (9, 5, 11))
    with np.errstate(invalid="ignore"):
        rows = _conv_sweep(vol, dtype, kernel, 4, ops.Scratch())
    nans = np.concatenate([_bits(got[np.isnan(got)]) for got, _, _ in rows])
    assert len(np.unique(nans)) == 2
    for got, _, ref in rows:
        _assert_same_bits(got, ref)


def _slide(slices, kernel, scratch):
    """conv_window's one output per w = k_z window, sliding one slice at a time."""
    kz = kernel.k_z
    return [ops.conv_window(slices[t:t + kz], kernel, 0, 0, scratch=scratch)[0]
            for t in range(len(slices) - kz + 1)]


def _frozen_slide(slices, kernel):
    kz = kernel.k_z
    return [oracles.frozen_conv_window(slices[t:t + kz], kernel, 0, 0)[0]
            for t in range(len(slices) - kz + 1)]


def test_conv_ring_never_reuses_another_slice_or_kernel():
    """One Scratch sweeps a volume, then new slice objects with other data
    (likely at the addresses of the first ones), then those same slice
    objects under another kernel: each output is its own frozen sum."""
    rng = np.random.default_rng(83)
    box, mirror = ops.Kernel3D.box(3), ops.Kernel3D(np.array([[[1.0]], [[-2.0]], [[1.0]]]))
    scratch = ops.Scratch()
    first = _window(rng.integers(0, 256, (8, 6, 7), dtype=np.uint8))
    for got, ref in zip(_slide(first, box, scratch), _frozen_slide(first, box)):
        _assert_same_bits(got, ref)
    del first
    second = _window(rng.integers(0, 256, (8, 6, 7), dtype=np.uint8))
    for kernel in (box, mirror, ops.Kernel3D.box(3)):
        for got, ref in zip(_slide(second, kernel, scratch), _frozen_slide(second, kernel)):
            _assert_same_bits(got, ref)


@pytest.mark.parametrize("w", [3, 5, 10])
def test_box3_sweep_filters_each_slice_once(monkeypatch, w):
    """A box3 sweep over d slices does d plane filters, not 3 (d - 2)."""
    d, calls = 10, []
    real = ops._accumulate

    def counting(acc, taps, term):
        calls.append(len(taps))
        return real(acc, taps, term)

    monkeypatch.setattr(ops, "_accumulate", counting)
    vol = np.random.default_rng(84).integers(0, 256, (d, 5, 6), dtype=np.uint8)
    for got, _, ref in _conv_sweep(vol, U8, ops.Kernel3D.box(3), w, ops.Scratch()):
        _assert_same_bits(got, ref)
    assert calls == [9] * d  # 3 x 3 taps per plane filter


@pytest.mark.parametrize("w", [3, 5, 10])
def test_mirror_sweep_filters_each_slice_once_by_its_recurring_plane(monkeypatch, w):
    """A sweep over d slices by a kernel whose planes 0 and 2 are equal
    does d filters by them, each as its slice enters the ring, and d - 2
    by the centre plane, one per output; the ring has k_z slots."""
    d, calls = 10, []
    real = ops._accumulate

    def counting(acc, taps, term):
        calls.append(len(taps))
        return real(acc, taps, term)

    monkeypatch.setattr(ops, "_accumulate", counting)
    rng = np.random.default_rng(90)
    outer, centre = rng.uniform(0.5, 1.0, (3, 3)), np.zeros((3, 3))
    centre[1, 1] = -2.0
    kernel = ops.Kernel3D(np.stack([outer, centre, outer]))
    vol = rng.integers(0, 256, (d, 5, 6), dtype=np.uint8)
    scratch = ops.Scratch()
    for got, _, ref in _conv_sweep(vol, U8, kernel, w, scratch):
        _assert_same_bits(got, ref)
    assert sorted(calls) == [1] * (d - 2) + [9] * d
    assert len(scratch.memo["conv"].keys) == kernel.k_z


@pytest.mark.parametrize("threads", [1, 2])
def test_box3_convolve_runs_bit_identical_at_threads_1_2(tmp_path, monkeypatch, threads):
    """read -> convolve box3 -> write, every call on the pool at threads 2,
    where two Scratches in flight keep a ring each: the output is the
    frozen loops' and nothing leaks."""
    monkeypatch.setattr(planner, "INLINE_WORK", 0)
    meta = VolumeMeta(9, 7, 14, U8)
    vol = synth_volume(meta, "random", seed=85)
    sio.write_volume(tmp_path / "in", vol, U8)
    box = ops.Kernel3D.box(3)
    for w in (3, 6):
        g = chain(sio.read_stage(tmp_path / "in"), ops.convolve(box, w=w, name="c"),
                  sio.write_stage(tmp_path / f"out{w}"))
        p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False,
                 concurrent=threads > 1)
        rep = execute_plan(p, threads=threads, tmpdir=tmp_path)
        assert rep.leaked_slices == 0
        ref = oracles.frozen_conv_window(_window(vol), box, 0, len(vol) - 3)
        _assert_same_bits(sio.read_volume(tmp_path / f"out{w}"),
                          np.stack([oracles.frozen_cast_array(r, F32) for r in ref]))


# ---------------------------------------------------------------------------
# the morphology ring: each slice's in-plane lists kept across one Scratch's calls
# ---------------------------------------------------------------------------

def _morph_sweep(vol, dtype, mask, op, w, scratch):
    """Every output of vol, called as a stage at window w calls morph_window:
    windows from windowed_positions at stride w - k_z + 1, the same slice
    objects where they overlap, one Scratch. Each output is checked to own
    its buffer, apart from the other outputs and the window's slices."""
    depth, ny, nx = vol.shape
    kz = mask.shape[0]
    se = ops.StructuringElement(mask)
    windows = st.windowed_positions(w, w - kz + 1, vol_stream(vol, VolumeMeta(
        nx, ny, depth, dtype)), "full")
    outs, next_out = [], 0
    try:
        while (item := windows.pull()) is not None:
            t, win = item
            lo, next_out = max(t, next_out) - t, t + w - kz + 1
            try:
                got = ops.morph_window(win, se, op, lo, w - kz, scratch=scratch,
                                       cast=lambda a: runtime._cast_array(a, dtype))
                for out in got:
                    assert out.base is None and out.flags.owndata
                    assert not any(np.shares_memory(out, sl.data) for sl in win)
                    assert not any(np.shares_memory(out, other) for other in outs)
                outs += got
            finally:
                st.release_element(win)
    finally:
        windows.close()
    assert len(outs) == depth - kz + 1
    return np.stack(outs)


@hst.composite
def morph_ring_cases(draw):
    """(op, dtype, mask, volume, w): boxes r = 1, 2 and random masks, ny or
    nx possibly 1, w = k_z .. k_z + 4 over a volume at least w deep."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    op = draw(hst.sampled_from(["median", "erode", "dilate"]))
    dtype = draw(hst.sampled_from([U8, U16]))
    kind = draw(hst.sampled_from(["box1", "box2", "random"]))
    mask = draw(small_masks()) if kind == "random" else np.ones(
        (2 * int(kind[-1]) + 1,) * 3, dtype=bool)
    kz = mask.shape[0]
    w = draw(hst.integers(kz, kz + 4))
    dims = (draw(hst.integers(w, w + 6)), draw(hst.sampled_from([1, 2, 5])),
            draw(hst.sampled_from([1, 3, 6])))
    fill = draw(hst.sampled_from(["random", "special", "ties"]))
    return op, dtype, mask, _fill(rng, dtype, fill, dims), w


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=morph_ring_cases())
@example(case=("median", U8, np.ones((3, 3, 3), dtype=bool),
               _fill(_RNG, U8, "random", (9, 4, 5)), 3))
@example(case=("median", U16, np.ones((5, 5, 5), dtype=bool),
               _fill(_RNG, U16, "special", (11, 1, 6)), 6))
@example(case=("dilate", U8, np.ones((3, 3, 3), dtype=bool),
               _fill(_RNG, U8, "ties", (12, 5, 1)), 7))
def test_morph_sweep_with_one_scratch_matches_sort_oracle(case):
    op, dtype, mask, vol, w = case
    scratch = ops.Scratch()
    got = _morph_sweep(vol, dtype, mask, op, w, scratch)
    assert np.array_equal(got, oracles.morphology(vol, mask, op))
    assert ALLOC.live_slices == 0
    # the median keeps k_z slots whatever w is; a chunk of c outputs c + k_z - 1
    ring = scratch.memo["morph"]
    assert len(ring.keys) == ring.chunk + mask.shape[0] - 1
    assert ring.chunk == 1 or op != "median"
    scratch.close()
    assert not scratch.buffers and not scratch.memo


@pytest.mark.parametrize("op", ["median", "erode"])
@pytest.mark.parametrize("w", [3, 5, 10])
def test_morph_sweep_sorts_each_slice_once(monkeypatch, op, w):
    """A sweep over d slices pads and sorts each slice once, not once per
    window that reads it, and the median merges planes 1 and 2 of every
    other output only: they are planes 0 and 1 of the next one."""
    d, fills, pairs = 10, [], []
    clamp, zmerge = ops._clamp_edges, ops._MorphRing._zmerge
    monkeypatch.setattr(ops, "_clamp_edges", lambda *a: (fills.append(1), clamp(*a)))
    monkeypatch.setattr(ops._MorphRing, "_zmerge", lambda ring, t, *a: (
        pairs.append(t) if t == 0 else None, zmerge(ring, t, *a))[1])
    vol = np.random.default_rng(89).integers(0, 256, (d, 5, 6), dtype=np.uint8)
    box = np.ones((3, 3, 3), dtype=bool)
    assert np.array_equal(_morph_sweep(vol, U8, box, op, w, ops.Scratch()),
                          oracles.morphology(vol, box, op))
    assert len(fills) == d
    if op == "median":  # erode goes chunked over a wider window, with no pair
        assert len(pairs) == (d - 2 + 1) // 2


def _morph_slide(slices, se, op, scratch):
    """morph_window's one output per w = k_z window, sliding one slice at a time."""
    kz = se.k_z
    return np.stack([ops.morph_window(slices[t:t + kz], se, op, 0, 0, scratch=scratch)[0]
                     for t in range(len(slices) - kz + 1)])


def test_morph_ring_never_reuses_another_slice_or_mask():
    """One Scratch sweeps a volume, then new slice objects with other data
    (likely at the addresses of the first ones), then those same slice
    objects under another op and mask, then windows that start at the
    first slice of the kept pair merge but go on to other slices: each
    output is its own oracle's."""
    rng = np.random.default_rng(87)
    box = ops.StructuringElement.box(1)
    scratch = ops.Scratch()
    first = rng.integers(0, 256, (8, 6, 7), dtype=np.uint8)
    assert np.array_equal(_morph_slide(_window(first), box, "median", scratch),
                          oracles.morphology(first, box.mask, "median"))
    second = rng.integers(0, 256, (8, 6, 7), dtype=np.uint8)
    slices = _window(second)
    cross = ops.StructuringElement(np.array([[[0, 1, 0]], [[1, 1, 1]], [[0, 1, 0]]], dtype=bool))
    for se, op in ((box, "median"), (box, "dilate"), (cross, "median"),
                   (ops.StructuringElement.box(1), "median")):
        assert np.array_equal(_morph_slide(slices, se, op, scratch),
                              oracles.morphology(second, se.mask, op))
    for picks in ([0, 1, 2], [1, 5, 6], [1, 2, 3]):  # the merge kept is of 1, 2, then 5, 6
        got, = ops.morph_window([slices[i] for i in picks], box, "median", 0, 0, scratch=scratch)
        assert np.array_equal(got, oracles.morphology(second[picks], box.mask, "median")[0])


@pytest.mark.parametrize("op", ["median", "erode", "dilate"])
@pytest.mark.parametrize("threads", [1, 2])
def test_morphology_runs_bit_identical_at_threads_1_2(tmp_path, monkeypatch, op, threads):
    """read -> op r=1 -> write, every call on the pool at threads 2, where
    two Scratches in flight keep a ring each and see every other window:
    the output is the oracle's and nothing leaks."""
    monkeypatch.setattr(planner, "INLINE_WORK", 0)
    meta = VolumeMeta(9, 7, 14, U16)
    vol = synth_volume(meta, "random", seed=88)
    sio.write_volume(tmp_path / "in", vol, U16)
    want = oracles.morphology(vol, np.ones((3, 3, 3), dtype=bool), op)
    for w in (3, 6):
        g = chain(sio.read_stage(tmp_path / "in"), _MORPH_FACTORIES[op](1, w=w, name="m"),
                  sio.write_stage(tmp_path / f"out{w}"))
        p = plan(g, Budget(1 << 30), tmpdir=tmp_path, grow_windows=False,
                 concurrent=threads > 1)
        rep = execute_plan(p, threads=threads, tmpdir=tmp_path)
        assert rep.leaked_slices == 0
        assert np.array_equal(sio.read_volume(tmp_path / f"out{w}"), want)


# ---------------------------------------------------------------------------
# crop / pad / permute
# ---------------------------------------------------------------------------

def test_crop_full_extent_identity():
    meta = VolumeMeta(6, 5, 4, U8)
    vol = rand_vol(meta, 41)
    out = apply_stage(ops.crop((0, 0, 0, 6, 5, 4)), vol, meta)
    assert np.array_equal(out, vol)


def test_crop_matches_slicing_oracle():
    meta = VolumeMeta(9, 8, 7, U8)
    vol = rand_vol(meta, 43)
    box = (2, 1, 3, 7, 6, 6)
    out = apply_stage(ops.crop(box), vol, meta)
    assert np.array_equal(out, oracles.crop_volume(vol, box))


def test_pad_clamp_z():
    meta = VolumeMeta(5, 5, 3, U8)
    vol = rand_vol(meta, 44)
    out = apply_stage(ops.pad((0, 0, 0, 0, 1, 1), "clamp"), vol, meta)
    assert out.shape[0] == 5
    assert np.array_equal(out[0], vol[0])
    assert np.array_equal(out[-1], vol[-1])
    assert np.array_equal(out, oracles.pad_volume(vol, (0, 0, 0, 0, 1, 1), "clamp"))


def test_pad_zero_mode_and_xy():
    meta = VolumeMeta(4, 4, 3, U16)
    vol = rand_vol(meta, 45)
    amounts = (1, 2, 2, 1, 1, 0)
    out = apply_stage(ops.pad(amounts, "zero"), vol, meta)
    assert np.array_equal(out, oracles.pad_volume(vol, amounts, "zero"))


def test_zero_pad_closed_inside_z_edge_leaks_nothing():
    meta = VolumeMeta(3, 3, 2, U8)
    stage = ops.pad((0, 0, 0, 0, 2, 0), "zero")
    out = stage_stream(stage, vol_stream(rand_vol(meta, 47), meta), meta,
                       ops.out_meta(stage, meta), RunContext(tmpdir="."))
    first = out.pull()
    assert not first.data.any()
    release(first)
    out.close()  # the leak guard checks the shared zero slice was released


def test_crop_of_pad_identity():
    meta = VolumeMeta(6, 6, 4, U8)
    vol = rand_vol(meta, 46)
    padded = apply_stage(ops.pad((1, 1, 2, 0, 1, 1), "clamp"), vol, meta)
    meta2 = VolumeMeta(8, 8, 6, U8)
    back = apply_stage(ops.crop((1, 2, 1, 7, 8, 5)), padded, meta2)
    assert np.array_equal(back, vol)


def test_permute_identity_single_sweep():
    meta = VolumeMeta(4, 5, 6, U8)
    vol = rand_vol(meta, 47)
    out = apply_stage(ops.permute_axes("xyz"), vol, meta)
    assert np.array_equal(out, vol)


def test_permute_xy_swap_matches_transpose(tmp_path):
    meta = VolumeMeta(4, 5, 6, U8)
    vol = rand_vol(meta, 48)
    out = apply_stage(ops.permute_axes("yxz"), vol, meta, tmpdir=tmp_path)
    assert np.array_equal(out, oracles.permute_volume(vol, "yxz"))


@pytest.mark.parametrize("order", ["zyx", "xzy", "zxy", "yzx"])
def test_permute_z_moving_matches_transpose(order, tmp_path):
    meta = VolumeMeta(4, 5, 6, U8)
    vol = rand_vol(meta, 49)
    out = apply_stage(ops.permute_axes(order, chunk_edge=3), vol, meta,
                      tmpdir=tmp_path)
    assert np.array_equal(out, oracles.permute_volume(vol, order))


def test_reslice_swaps_axis_with_z(tmp_path):
    meta = VolumeMeta(4, 5, 6, U8)
    vol = rand_vol(meta, 50)
    out = apply_stage(ops.reslice("x", chunk_edge=4), vol, meta, tmpdir=tmp_path)
    assert np.array_equal(out, oracles.permute_volume(vol, "zyx"))


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_with_identity_is_same_kernel():
    k = ops.Kernel3D(np.random.default_rng(3).random((3, 3, 3)))
    fused = fuse_convolutions(k, ops.Kernel3D.identity())
    assert np.allclose(fused.weights, k.weights)


def test_fuse_dims_and_values_match_kernel_oracle():
    a = ops.Kernel3D(np.random.default_rng(4).random((3, 3, 3)))
    b = ops.Kernel3D(np.random.default_rng(5).random((3, 1, 3)))
    fused = fuse_convolutions(a, b)
    assert fused.dims == (5, 3, 5)  # k + l - 1 per axis
    ref = oracles.kernel_conv(a.weights, b.weights)
    assert np.allclose(fused.weights, ref, atol=1e-12)


def test_saturating_add():
    a = np.array([[200]], dtype=np.uint8)
    b = np.array([[100]], dtype=np.uint8)
    assert ops.saturating_add(a, b, U8)[0, 0] == 255
    f = np.array([[1.5]], dtype=np.float32)
    assert np.isclose(ops.saturating_add(f, f, F32)[0, 0], 3.0)


def test_explicit_z_pad_preserves_depth_through_kernel():
    # pad z by the kernel radius, then filter: output depth equals input depth
    meta = VolumeMeta(8, 8, 6, U8)
    vol = rand_vol(meta, 55)
    padded = apply_stage(ops.pad((0, 0, 0, 0, 1, 1), "clamp"), vol, meta)
    meta2 = VolumeMeta(8, 8, 8, U8)
    out = apply_stage(ops.median_filter(1), padded, meta2)
    assert out.shape[0] == meta.depth

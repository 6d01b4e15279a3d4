from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

import oracles
from helpers import apply_stage, vol_stream
from stackstream import ops, runtime
from stackstream.core import ALLOC, F32, U8, U16, PlanningError, VolumeMeta, release
from stackstream.io import synth_volume
from stackstream.planner import fuse_convolutions
from stackstream.runtime import RunContext, stage_stream


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

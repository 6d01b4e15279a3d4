"""Concrete image operators expressed as plan stages.

Each factory returns a PlanStage descriptor; the runtime assembles the
actual streams from these descriptors and the planner prices them with
closed-form estimates. Kernel stages consume a sliding z-window and emit
the window's valid center slices; batch stages process w slices per step.

Boundary conventions: the z extent is valid mode (output depth shrinks by
k_z - 1) unless an explicit pad stage is added, while x-y boundaries
clamp to the edge. Integer arithmetic saturates instead of wrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import io as sio
from .core import (F32, GEOMETRIC, GLOBAL_REDUCTION, LOCAL_NEIGHBOURHOOD,
                   SINGLE_PIXEL, Dtype, MemEstimate, PlanStage, PlanningError,
                   VolumeMeta, slice_bytes)

# ---------------------------------------------------------------------------
# kernels, structuring elements, histograms
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Kernel3D:
    """Dense 3D filter kernel; weights are stored as (kz, ky, kx) float64."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 3:
            raise PlanningError("kernel weights must be 3-dimensional")
        for n in self.weights.shape:
            if n < 1 or n % 2 == 0:
                raise PlanningError("kernel edge sizes must be odd and >= 1")

    @property
    def dims(self):
        """(kx, ky, kz)"""
        kz, ky, kx = self.weights.shape
        return kx, ky, kz

    @property
    def k_z(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def identity(cls) -> "Kernel3D":
        return cls(np.ones((1, 1, 1)))

    @classmethod
    def box(cls, k: int) -> "Kernel3D":
        return cls(np.full((k, k, k), 1.0 / k**3))

    @classmethod
    def load(cls, path) -> "Kernel3D":
        try:
            tokens = Path(path).read_text().split()
            dims = [int(t) for t in tokens[:3]]
            vals = [float(t) for t in tokens[3:]]
        except (OSError, ValueError) as exc:  # unreadable, not text, not numbers
            raise PlanningError(f"kernel file {path}: {exc}") from exc
        if len(dims) < 3:
            raise PlanningError(f"kernel file {path}: missing dims header")
        kx, ky, kz = dims
        if len(vals) != kx * ky * kz:
            raise PlanningError(
                f"kernel file {path}: expected {kx * ky * kz} weights, got {len(vals)}")
        return cls(np.array(vals).reshape(kz, ky, kx))

    def save(self, path):
        kx, ky, kz = self.dims
        lines = [f"{kx} {ky} {kz}"]
        for plane in self.weights:
            for row in plane:
                lines.append(" ".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(eq=False)
class StructuringElement:
    """Boolean neighbourhood mask for morphology; (kz, ky, kx), center true."""

    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 3:
            raise PlanningError("structuring element must be 3-dimensional")
        for n in self.mask.shape:
            if n < 1 or n % 2 == 0:
                raise PlanningError("structuring element dims must be odd")
        if not self.mask.any():
            raise PlanningError("structuring element needs at least one true entry")
        kz, ky, kx = self.mask.shape
        if not self.mask[kz // 2, ky // 2, kx // 2]:
            raise PlanningError("structuring element center must be true")

    @property
    def k_z(self) -> int:
        return self.mask.shape[0]

    @classmethod
    def box(cls, r: int = 1) -> "StructuringElement":
        k = 2 * r + 1
        return cls(np.ones((k, k, k), dtype=bool))


def histogram_bin_count(dtype: Dtype) -> int:
    # integer voxels get one bin per representable value; floats get a
    # fixed 256-bin grid over a declared range
    if dtype.kind == "f32":
        return 256
    return 256 ** dtype.byte_width


@dataclass(eq=False)
class Histogram:
    """Voxel-count histogram; sums of per-slice histograms merge exactly."""

    counts: np.ndarray
    dtype: Dtype
    value_range: Optional[tuple] = None

    @classmethod
    def empty(cls, dtype: Dtype, value_range: Optional[tuple] = None) -> "Histogram":
        if dtype.kind == "f32":
            if value_range is None:
                raise PlanningError("f32 histograms need an explicit value range")
            lo, hi = value_range
            if not hi > lo:
                raise PlanningError("histogram range must satisfy hi > lo")
        return cls(np.zeros(histogram_bin_count(dtype), dtype=np.int64),
                   dtype, value_range)

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes

    def add_array(self, arr: np.ndarray):
        if self.dtype.kind == "f32":
            lo, hi = self.value_range
            idx = ((arr.astype(np.float64) - lo) * (len(self.counts) / (hi - lo)))
            idx = np.clip(idx.astype(np.int64), 0, len(self.counts) - 1)
            self.counts += np.bincount(idx.ravel(), minlength=len(self.counts))
        else:
            self.counts += np.bincount(arr.ravel().astype(np.int64),
                                       minlength=len(self.counts))

    def merge(self, other: "Histogram") -> "Histogram":
        if len(self.counts) != len(other.counts) or self.value_range != other.value_range:
            raise PlanningError("histogram binnings differ")
        self.counts += other.counts
        return self

    def total(self) -> int:
        return int(self.counts.sum())

    def save(self, path):
        lines = [f"bins {len(self.counts)}", f"total {self.total()}"]
        for i in np.nonzero(self.counts)[0]:
            lines.append(f"{int(i)} {int(self.counts[i])}")
        Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# voxel functions used by pointwise stages
# ---------------------------------------------------------------------------

def dtype_max(dtype: Dtype):
    return 1.0 if dtype.kind == "f32" else np.iinfo(dtype.np_dtype).max


def apply_threshold(arr: np.ndarray, t, dtype: Dtype) -> np.ndarray:
    out = (arr >= t).astype(arr.dtype)
    out *= dtype_max(dtype)
    return out


def _saturating(ufunc, dtype: Dtype, *args) -> np.ndarray:
    # u8 -> u16, u16 -> u32: wide enough for any square or sum of two voxels
    wide = ufunc(*args, dtype=np.float64 if dtype.kind == "f32"
                 else np.dtype(f"u{2 * dtype.byte_width}"))
    if dtype.kind != "f32":
        np.minimum(wide, dtype_max(dtype), out=wide)
    return wide.astype(dtype.np_dtype)


def apply_square(arr: np.ndarray, dtype: Dtype) -> np.ndarray:
    return _saturating(np.square, dtype, arr)


def saturating_add(a: np.ndarray, b: np.ndarray, dtype: Dtype) -> np.ndarray:
    return _saturating(np.add, dtype, a, b)


# ---------------------------------------------------------------------------
# window compute kernels (shared by the runtime and by fused branch groups)
# ---------------------------------------------------------------------------

def _clamp_edges(buf: np.ndarray, ry: int, rx: int):
    """Copy the edge rows and columns of buf's interior (last two axes) out over its border."""
    ny, nx = buf.shape[-2] - 2 * ry, buf.shape[-1] - 2 * rx
    buf[..., :ry, :] = buf[..., ry:ry + 1, :]
    buf[..., ry + ny:, :] = buf[..., ry + ny - 1:ry + ny, :]
    buf[..., :rx] = buf[..., rx:rx + 1]
    buf[..., rx + nx:] = buf[..., rx + nx - 1:rx + nx]


def _accumulate(acc: np.ndarray, taps, term: np.ndarray):
    """acc += wgt * src in float64 for each (wgt, src) in order, via term."""
    for wgt, src in taps:
        np.multiply(wgt, src, out=term, dtype=np.float64)
        acc += term
    return acc


def conv_window(window, kernel: Kernel3D, lo: int, hi: int):
    """Valid-z convolution outputs lo..hi (window-relative) as float64 arrays.

    Output j sums, plane by plane, the 2D clamp-to-edge filter of slice
    j + kz - 1 - a by kernel plane a, whose nonzero terms add from zero in
    row-major order: per voxel, the float64 operations of that sum in order.
    A call's scratch is three float64 slice workspaces, whatever w is.
    """
    kz, ky, kx = kernel.weights.shape
    ry, rx = ky // 2, kx // 2
    ny, nx = window[0].data.shape
    pad = np.empty((ny + 2 * ry, nx + 2 * rx))
    term, plane_sum = np.empty((ny, nx)), np.empty((ny, nx))
    taps = [[(wgt, pad[2 * ry - b:2 * ry - b + ny, 2 * rx - c:2 * rx - c + nx])
             for (b, c), wgt in np.ndenumerate(plane) if wgt != 0.0]
            for plane in kernel.weights]
    outs = []
    for j in range(lo, hi + 1):
        out = np.empty((ny, nx))
        for a in range(kz):
            acc = plane_sum if a else out
            pad[ry:ry + ny, rx:rx + nx] = window[j + kz - 1 - a].data
            _clamp_edges(pad, ry, rx)
            acc.fill(0.0)
            _accumulate(acc, taps[a], term)
            if a:
                out += plane_sum
        outs.append(out)
    return outs


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Truncated at radius ceil(3*sigma), renormalized to unit sum."""
    if sigma <= 0:
        raise PlanningError("gaussian sigma must be positive")
    r = math.ceil(3.0 * sigma)
    xs = np.arange(-r, r + 1, dtype=np.float64)
    g = np.exp(-0.5 * (xs / sigma) ** 2)
    return g / g.sum()


def gaussian_window(window, g1d: np.ndarray, lo: int, hi: int):
    """Separable x/y/z gaussian; equals convolving with the outer-product kernel.

    Output j is the z sum of g[a] * slice(j + kz - 1 - a) from its first
    term, then y and x passes with clamped edges that sum from zero: per
    voxel, the float64 operations of those sums in kernel order. A call's
    scratch is four float64 slice workspaces, whatever w is: the y-padded
    z sum, the y pass's sum, an x-padded copy of it, and one term.
    """
    kz, r = len(g1d), len(g1d) // 2
    ny, nx = window[0].data.shape
    ypad, xpad = np.empty((ny + 2 * r, nx)), np.empty((ny, nx + 2 * r))
    term, ysum = np.empty((ny, nx)), np.empty((ny, nx))
    zsum = ypad[r:r + ny]
    ytaps = [(g1d[b], ypad[2 * r - b:2 * r - b + ny]) for b in range(kz)]
    xtaps = [(g1d[c], xpad[:, 2 * r - c:2 * r - c + nx]) for c in range(kz)]
    outs = []
    for j in range(lo, hi + 1):
        np.multiply(g1d[0], window[j + kz - 1].data, out=zsum, dtype=np.float64)
        _accumulate(zsum, [(g1d[a], window[j + kz - 1 - a].data)
                           for a in range(1, kz)], term)
        _clamp_edges(ypad, r, 0)
        ysum.fill(0.0)
        _accumulate(ysum, ytaps, term)  # contiguous: a strided sum runs slower
        xpad[:, r:r + nx] = ysum
        _clamp_edges(xpad, 0, r)
        outs.append(_accumulate(np.zeros((ny, nx)), xtaps, term))
    return outs


def morph_window(window, se: StructuringElement, op: str, lo: int, hi: int):
    """min/max/median over the masked neighbourhood, native dtype, exact.

    Even-count medians take the lower of the two middle values so integer
    volumes stay integer-closed and deterministic.

    Each call copies the slices its nout = hi - lo + 1 outputs read into
    one block of shape (nout + kz - 1, ny + 2ry, nx + 2rx), x-y edges
    replicated. Erode and dilate then make one in-place np.minimum or
    np.maximum call per mask offset over (nout, ny, nx) views of that
    block, so a whole window costs as many numpy calls as one slice did.
    Besides the outputs, which the ledger already charges, the transient
    is that one padded copy of the window; it is freed before the outputs
    are copied out, one buffer each, since a Slice drops its memory when
    its refcount reaches zero and a view would pin the whole block. On a
    2-vCPU Intel Xeon one 64x64 u8 erode call over the r = 1 box with
    w = 512 takes 11 ms against 91 ms with a loop per output slice.

    The median gathers the n masked neighbours of each output slice from
    the same block into one (n, ny, nx) stack and selects its k-th
    smallest value, k = (n - 1) // 2. For u8 the selection is an exact radix
    select: the median is the largest m with #{v < m} <= k, found one bit
    at a time from the top, which takes 8 vectorised compare-and-count
    passes over the stack. On a 2-vCPU Intel Xeon one 128x128 output
    slice with n = 27 takes 2.3 ms this way against 10.4 ms with
    np.partition, gather included. u16 and f32 keep np.partition: there
    radix select measured 3.08 ms against 2.85 ms on u16, and 8.05 ms
    against 2.8 ms on f32, which needs order-preserving uint32 keys. The
    counter is sized to n, since a box with r = 3 has 343 entries and a
    u8 counter would wrap.
    """
    kz, ky, kx = se.mask.shape
    ry, rx = ky // 2, kx // 2
    ny, nx = window[0].data.shape
    nout = hi - lo + 1
    offsets = np.argwhere(se.mask)
    dtype = window[0].data.dtype
    block = np.empty((nout + kz - 1, ny + 2 * ry, nx + 2 * rx), dtype=dtype)
    for z in range(nout + kz - 1):
        block[z, ry:ry + ny, rx:rx + nx] = window[lo + z].data
    _clamp_edges(block, ry, rx)
    if op != "median":
        extremum = np.minimum if op == "erode" else np.maximum
        (a, b, c), rest = offsets[0], offsets[1:]
        acc = block[a:a + nout, b:b + ny, c:c + nx].copy()
        for a, b, c in rest:
            extremum(acc, block[a:a + nout, b:b + ny, c:c + nx], out=acc)
        del block
        return [plane.copy() for plane in acc]
    radix = dtype == np.uint8
    n = len(offsets)
    k = (n - 1) // 2
    stack = np.empty((n, ny, nx), dtype=dtype)
    if radix:
        # bool compare results, summed through a u8 view to skip a cast
        less = np.empty((n, ny, nx), dtype=np.uint8)
        count = np.empty((ny, nx), dtype=np.min_scalar_type(n))
    outs = []
    for j in range(nout):
        for i, (a, b, c) in enumerate(offsets):
            stack[i] = block[j + a, b:b + ny, c:c + nx]
        if radix:
            gathered = np.zeros((ny, nx), dtype=np.uint8)
            for bit in range(7, -1, -1):
                cand = gathered | np.uint8(1 << bit)
                np.less(stack, cand, out=less.view(bool))
                np.add.reduce(less, axis=0, dtype=count.dtype, out=count)
                np.copyto(gathered, cand, where=count <= k)
        else:
            stack.partition(k, axis=0)
            gathered = stack[k].copy()
        outs.append(gathered)
    return outs


# ---------------------------------------------------------------------------
# stage factories
# ---------------------------------------------------------------------------

_counter = {"n": 0}


def _auto_name(kind: str) -> str:
    _counter["n"] += 1
    return f"{kind}{_counter['n']}"


def pointwise(fn, w: int = 1, name: Optional[str] = None,
              fn_name: str = "custom") -> PlanStage:
    """Apply a per-slice voxel function; windowed with stride s = w."""
    return PlanStage(name=name or _auto_name("pointwise"), op_kind="pointwise",
                     w=w, s=w, params={"fn": fn, "fn_name": fn_name},
                     algo_class=SINGLE_PIXEL, w_min=1, tunable=True)


def threshold(t, w: int = 1, name: Optional[str] = None) -> PlanStage:
    # voxels at or above t map to the dtype maximum, the rest to zero
    st = pointwise(lambda arr, dt: apply_threshold(arr, t, dt), w=w,
                   name=name or _auto_name("threshold"), fn_name="threshold")
    st.params["t"] = t
    return st


def square(w: int = 1, name: Optional[str] = None) -> PlanStage:
    return pointwise(lambda arr, dt: apply_square(arr, dt), w=w,
                     name=name or _auto_name("square"), fn_name="square")


def _kernel_stage(kind: str, kz: int, w, name, **params) -> PlanStage:
    """A stage over a sliding z-window of w slices, kz (its least) by default."""
    w = kz if w is None else w
    return PlanStage(name=name or _auto_name(kind), op_kind=kind,
                     w=w, s=w - kz + 1, k_z=kz, params=params,
                     algo_class=LOCAL_NEIGHBOURHOOD, w_min=kz, tunable=True)


def convolve(kernel: Kernel3D, w: Optional[int] = None,
             name: Optional[str] = None) -> PlanStage:
    return _kernel_stage("convolve", kernel.k_z, w, name, kernel=kernel)


def discrete_gaussian(sigma: float, w: Optional[int] = None,
                      name: Optional[str] = None) -> PlanStage:
    g = gaussian_kernel_1d(sigma)
    return _kernel_stage("gaussian", len(g), w, name, sigma=sigma, g1d=g)


def _morph_stage(kind: str, se, w, name) -> PlanStage:
    if isinstance(se, int):
        se = StructuringElement.box(se)
    return _kernel_stage(kind, se.k_z, w, name, se=se)


def median_filter(se=1, w=None, name=None) -> PlanStage:
    return _morph_stage("median", se, w, name)


def erode(se=1, w=None, name=None) -> PlanStage:
    return _morph_stage("erode", se, w, name)


def dilate(se=1, w=None, name=None) -> PlanStage:
    return _morph_stage("dilate", se, w, name)


def crop(box, name=None) -> PlanStage:
    """Keep the half-open region [x0,x1) x [y0,y1) x [z0,z1)."""
    x0, y0, z0, x1, y1, z1 = box
    if not (x0 < x1 and y0 < y1 and z0 < z1) or min(x0, y0, z0) < 0:
        raise PlanningError(f"invalid crop box {box}")
    return PlanStage(name=name or _auto_name("crop"), op_kind="crop",
                     params={"box": tuple(box)}, algo_class=GEOMETRIC)


PAD_MODES = ("zero", "clamp")


def pad(amounts, mode: str = "clamp", name=None) -> PlanStage:
    """Grow extents by (xlo,xhi,ylo,yhi,zlo,zhi) voxels; mode zero or clamp."""
    if mode not in PAD_MODES:
        raise PlanningError(f"pad mode must be zero or clamp, got {mode!r}")
    if len(tuple(amounts)) != 6 or min(amounts) < 0:
        raise PlanningError(f"invalid pad amounts {amounts}")
    return PlanStage(name=name or _auto_name("pad"), op_kind="pad",
                     params={"amounts": tuple(amounts), "mode": mode},
                     algo_class=GEOMETRIC)


PERMUTE_ORDERS = ("xyz", "yxz", "zyx", "xzy", "zxy", "yzx")


def permute_axes(order: str, name=None, chunk_edge: int = 16) -> PlanStage:
    """Reorder axes; order names the source axis for output x, y, z.

    Orders that keep z in place run in one sweep; orders that move z run
    as two passes through an on-disk chunked intermediate.
    """
    if order not in PERMUTE_ORDERS:
        raise PlanningError(f"order must be a permutation of xyz, got {order!r}")
    moves_z = order[2] != "z"
    algo = GEOMETRIC
    return PlanStage(name=name or _auto_name("permute"), op_kind="permute",
                     params={"order": order, "chunk_edge": chunk_edge,
                             "sweeps": 2 if moves_z else 1},
                     algo_class=algo)


def reslice(axis: str, name=None, chunk_edge: int = 16) -> PlanStage:
    """Make `axis` the stacking direction (swap with z)."""
    orders = {"x": "zyx", "y": "xzy", "z": "xyz"}
    if axis not in orders:
        raise PlanningError(f"reslice axis must be x, y or z, got {axis!r}")
    return permute_axes(orders[axis], name=name or _auto_name("reslice"),
                        chunk_edge=chunk_edge)


def histogram_op(w: int = 1, value_range=None, out=None, name=None) -> PlanStage:
    """Fold the stream into a voxel histogram; acts as a sink."""
    return PlanStage(name=name or _auto_name("histogram"), op_kind="histogram",
                     w=w, s=w, params={"value_range": value_range, "out": out},
                     algo_class=GLOBAL_REDUCTION, w_min=1, tunable=True)


def sampled_mean(stride: int = 1, out=None, name=None) -> PlanStage:
    """Mean voxel value estimated from slices 0, s, 2s, ...; s=1 is exact.

    Sampling aliases periodic content along z (a volume whose skipped
    slices differ is misestimated); that is the documented trade-off.
    """
    if stride < 1:
        raise PlanningError("sampled_mean stride must be >= 1")
    return PlanStage(name=name or _auto_name("mean"), op_kind="sampled_mean",
                     w=1, s=stride, params={"out": out},
                     algo_class=GLOBAL_REDUCTION)


def add_join(name=None) -> PlanStage:
    """Join two branches by voxelwise saturating addition."""
    return PlanStage(name=name or _auto_name("add"), op_kind="zip_add",
                     algo_class=SINGLE_PIXEL)


def tee(name=None) -> PlanStage:
    """Fan a stream out to parallel branches; shares slices by reference."""
    return PlanStage(name=name or _auto_name("tee"), op_kind="tee",
                     algo_class=SINGLE_PIXEL)


# ---------------------------------------------------------------------------
# one record per op kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Syntax:
    """One spec keyword: the values its line takes, parsed and printed.

    The first `positional` names in `keys` are bare tokens, the rest are
    key=value tokens. parse(get, name) builds the stage, where
    get(key, conv=str, default) converts the key's text with conv, which
    raises ValueError on malformed text. show(stage) is the stage's spec
    line, or None when the stage is not one this keyword builds.
    """

    keyword: str
    keys: tuple
    parse: Callable
    show: Callable
    positional: int = 0


@dataclass(frozen=True)
class OpKind:
    """What the engine knows about one op kind.

    estimate(stage, in_meta, out_meta) is a stage's closed-form ledger
    price, out_meta(stage, meta) the volume geometry downstream of it and
    batch(stage) the slices it emits per window step, its handoff batch.
    Kernel kinds consume a sliding z-window and emit its valid centers:
    window(stage, window, lo, hi) gives the output arrays of the
    window-relative centers lo..hi, and kernel_dims(stage) the kernel's
    (kx, ky, kz). spec holds the kind's keywords; structural kinds (tee,
    join) and priced-only ones have none.
    """

    estimate: Callable
    out_meta: Callable = lambda stage, meta: meta
    batch: Callable = lambda stage: 1
    window: Optional[Callable] = None
    kernel_dims: Optional[Callable] = None
    spec: tuple = ()


def _source_meta(stage, meta):
    return stage.params["meta"]


def _crop_meta(stage, meta):
    x0, y0, z0, x1, y1, z1 = stage.params["box"]
    if x1 > meta.nx or y1 > meta.ny or z1 > meta.depth:
        raise PlanningError(f"stage {stage.name!r}: crop box exceeds volume")
    return VolumeMeta(x1 - x0, y1 - y0, z1 - z0, meta.dtype)


def _pad_meta(stage, meta):
    xlo, xhi, ylo, yhi, zlo, zhi = stage.params["amounts"]
    return VolumeMeta(meta.nx + xlo + xhi, meta.ny + ylo + yhi,
                      meta.depth + zlo + zhi, meta.dtype)


def _permute_meta(stage, meta):
    sizes = {"x": meta.nx, "y": meta.ny, "z": meta.depth}
    return VolumeMeta(*(sizes[a] for a in stage.params["order"]), meta.dtype)


def permute_chunk_dims(stage: PlanStage, meta: VolumeMeta):
    e = stage.params["chunk_edge"]
    return min(e, meta.nx), min(e, meta.ny), min(e, meta.depth)


def _permute_estimate(stage, meta, out):
    if stage.params["order"][2] == "z":
        return MemEstimate(slice_bytes(meta), slice_bytes(out), 0)
    # pass 1 buffers one chunk layer of the input; pass 2 holds two slabs
    # of chunks along the axis that becomes the new z
    cx, cy, cz = permute_chunk_dims(stage, meta)
    b = meta.dtype.byte_width
    layer = cz * meta.nx * meta.ny * b
    slab = {"x": cx * meta.ny * meta.depth,
            "y": cy * meta.nx * meta.depth}[stage.params["order"][2]] * b
    return MemEstimate(slice_bytes(meta), slice_bytes(out), max(layer, 2 * slab))


def _numbers(n, conv=int):
    """Spec value of n comma-separated numbers."""
    def parse(text):
        parts = text.split(",")
        if len(parts) != n:
            raise ValueError(f"expected {n} comma-separated values")
        return tuple(conv(v) for v in parts)
    return parse


def _choice(allowed):
    def parse(text):
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}")
        return text
    return parse


def _kernel_kind(window, kernel_dims, syntax, dtype=None):
    """Record of a kernel kind: w slices in, the w - k_z + 1 valid centers
    out per step, each in `dtype` or else in the input's dtype."""
    def out_meta(stage, meta):
        depth = meta.depth - stage.k_z + 1
        if depth < 1:
            raise PlanningError(f"stage {stage.name!r}: kernel depth exceeds stack")
        return VolumeMeta(meta.nx, meta.ny, depth, dtype or meta.dtype)

    return OpKind(lambda st, m, o: MemEstimate(st.w * slice_bytes(m),
                                               (st.w - st.k_z + 1) * slice_bytes(o), 0),
                  out_meta, batch=lambda st: st.w - st.k_z + 1,
                  window=window, kernel_dims=kernel_dims, spec=(syntax,))


def _parse_convolve(get, name):
    w = get("w", int, None)
    path = get("kernel")
    stage = convolve(Kernel3D.load(path), w=w, name=name)
    stage.params["file"] = path
    return stage


def _morph_kind(kind):
    return _kernel_kind(
        lambda st, win, lo, hi: morph_window(win, st.params["se"], kind, lo, hi),
        lambda st: st.params["se"].mask.shape[::-1],
        Syntax(kind, ("r", "w"),
               lambda get, name: _morph_stage(kind, get("r", int, 1),
                                              get("w", int, None), name),
               lambda st: f"{kind} r={st.params['se'].mask.shape[0] // 2} w={st.w}"))


def _pointwise_syntax(fn_name, keys, parse, show):
    # threshold and square share the pointwise kind; each prints its own
    return Syntax(fn_name, keys, parse,
                  lambda st: show(st) if st.params.get("fn_name") == fn_name else None)


def _parse_pad(get, name):
    amounts = sum((get(axis, _numbers(2), (0, 0)) for axis in "xyz"), ())
    return pad(amounts, mode=get("mode", _choice(PAD_MODES), "clamp"), name=name)


def _pad_line(st):
    a = st.params["amounts"]
    return (f"pad x={a[0]},{a[1]} y={a[2]},{a[3]} z={a[4]},{a[5]} "
            f"mode={st.params['mode']}")


def _histogram_line(st):
    p = st.params
    parts = ["histogram"]
    if p.get("out"):
        parts.append(f"out={p['out']}")
    parts.append(f"w={st.w}")
    if p.get("value_range"):
        lo, hi = p["value_range"]
        parts.append(f"range={lo},{hi}")
    return " ".join(parts)


def _io_syntax(keyword, factory):
    return Syntax(keyword, ("dir",), lambda get, name: factory(get("dir"), name=name),
                  lambda st: f"{keyword} {st.params['dir']}", positional=1)


#: every op kind the engine plans and runs, keyed by PlanStage.op_kind
OPS = {
    "read": OpKind(lambda st, m, o: MemEstimate(0, st.w * slice_bytes(o), 0),
                   _source_meta, spec=(_io_syntax("read", sio.read_stage),)),
    "read_chunks": OpKind(
        lambda st, m, o: MemEstimate(
            0, slice_bytes(o), 2 * sio.ChunkGrid(o, *st.params["chunks"]).layer_bytes()),
        _source_meta, spec=(_io_syntax("readInChunks", sio.read_chunks_stage),)),
    "initialize": OpKind(lambda st, m, o: MemEstimate(0, slice_bytes(o), 0), _source_meta),
    "write": OpKind(lambda st, m, o: MemEstimate(st.w * slice_bytes(m), 0, 0),
                    spec=(_io_syntax("write", sio.write_stage),)),
    "write_chunks": OpKind(
        lambda st, m, o: MemEstimate(
            slice_bytes(m), 0, sio.ChunkGrid(m, *st.params["chunks"]).layer_bytes()),
        spec=(Syntax("writeInChunks", ("dir", "chunks"),
                     lambda get, name: sio.write_chunks_stage(
                         get("dir"), chunks=get("chunks", _numbers(3), (16, 16, 16)),
                         name=name),
                     lambda st: (f"writeInChunks {st.params['dir']} chunks="
                                 + ",".join(str(c) for c in st.params["chunks"])),
                     positional=1),)),
    "pointwise": OpKind(
        lambda st, m, o: MemEstimate(st.w * slice_bytes(m), st.w * slice_bytes(o), 0),
        batch=lambda st: st.w,
        spec=(_pointwise_syntax(
                  "threshold", ("t", "w"),
                  lambda get, name: threshold(get("t", float), w=get("w", int, 1),
                                              name=name),
                  lambda st: f"threshold t={st.params['t']} w={st.w}"),
              _pointwise_syntax(
                  "square", ("w",),
                  lambda get, name: square(w=get("w", int, 1), name=name),
                  lambda st: f"square w={st.w}"))),
    "convolve": _kernel_kind(
        lambda st, win, lo, hi: conv_window(win, st.params["kernel"], lo, hi),
        lambda st: st.params["kernel"].dims,
        Syntax("convolve", ("kernel", "w"), _parse_convolve,
               # a kernel built in code has no file to name
               lambda st: (f"convolve kernel={st.params['file']} w={st.w}"
                           if "file" in st.params else None)),
        dtype=F32),
    "gaussian": _kernel_kind(
        lambda st, win, lo, hi: gaussian_window(win, st.params["g1d"], lo, hi),
        lambda st: (st.k_z,) * 3,
        Syntax("gaussian", ("sigma", "w"),
               lambda get, name: discrete_gaussian(get("sigma", float),
                                                   w=get("w", int, None), name=name),
               lambda st: f"gaussian sigma={st.params['sigma']} w={st.w}")),
    "median": _morph_kind("median"),
    "erode": _morph_kind("erode"),
    "dilate": _morph_kind("dilate"),
    "crop": OpKind(
        lambda st, m, o: MemEstimate(slice_bytes(m), slice_bytes(o), 0), _crop_meta,
        spec=(Syntax("crop", ("box",),
                     lambda get, name: crop(get("box", _numbers(6)), name=name),
                     lambda st: "crop " + ",".join(str(v) for v in st.params["box"]),
                     positional=1),)),
    "pad": OpKind(
        lambda st, m, o: MemEstimate(slice_bytes(m), slice_bytes(o), slice_bytes(o)),
        _pad_meta, spec=(Syntax("pad", ("x", "y", "z", "mode"), _parse_pad, _pad_line),)),
    "permute": OpKind(
        _permute_estimate, _permute_meta,
        spec=(Syntax("permute", ("order",),
                     lambda get, name: permute_axes(get("order", _choice(PERMUTE_ORDERS)),
                                                    name=name),
                     lambda st: f"permute {st.params['order']}", positional=1),)),
    "histogram": OpKind(
        lambda st, m, o: MemEstimate(st.w * slice_bytes(m), 0,
                                     2 * histogram_bin_count(m.dtype)),
        spec=(Syntax("histogram", ("out", "w", "range"),
                     lambda get, name: histogram_op(
                         w=get("w", int, 1), value_range=get("range", _numbers(2, float), None),
                         out=get("out", str, None), name=name),
                     _histogram_line),)),
    "sampled_mean": OpKind(lambda st, m, o: MemEstimate(slice_bytes(m), 0, 0)),
    # Priced only. This is the price of the stream.zip functional, which
    # holds one slice of each input and emits the pair itself, and it has
    # no builder: a stream of pairs is no volume a downstream stage or
    # sink could take. The join a spec can name is zip_add.
    "zip": OpKind(lambda st, m, o: MemEstimate(2 * slice_bytes(m), 0, 0)),
    "zip_add": OpKind(lambda st, m, o: MemEstimate(2 * slice_bytes(m), slice_bytes(o), 0)),
    "tee": OpKind(lambda st, m, o: MemEstimate(0, 0, 0)),
}


class _KernelKinds:
    """The op kinds in OPS with a window function, read at lookup time."""

    def __contains__(self, kind):
        rec = OPS.get(kind)
        return rec is not None and rec.window is not None


#: op kinds that consume a sliding kernel window and emit valid centers
KERNEL_OPS = _KernelKinds()


def record(stage: PlanStage) -> OpKind:
    """The OPS record of a stage's kind."""
    try:
        return OPS[stage.op_kind]
    except KeyError:
        raise PlanningError(f"unknown op kind {stage.op_kind!r}") from None


def out_meta(stage: PlanStage, meta: VolumeMeta) -> VolumeMeta:
    """Volume geometry downstream of a stage."""
    return record(stage).out_meta(stage, meta)

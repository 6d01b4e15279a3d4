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
from typing import Optional

import numpy as np

from .core import (F32, GEOMETRIC, GLOBAL_REDUCTION, LOCAL_NEIGHBOURHOOD,
                   SINGLE_PIXEL, Dtype, PlanStage, PlanningError, VolumeMeta)

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
        tokens = Path(path).read_text().split()
        if len(tokens) < 3:
            raise PlanningError(f"kernel file {path}: missing dims header")
        kx, ky, kz = (int(t) for t in tokens[:3])
        vals = [float(t) for t in tokens[3:]]
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
    out = np.zeros_like(arr)
    out[arr >= t] = dtype_max(dtype)
    return out


def apply_square(arr: np.ndarray, dtype: Dtype) -> np.ndarray:
    if dtype.kind == "f32":
        return (arr.astype(np.float64) ** 2).astype(dtype.np_dtype)
    hi = dtype_max(dtype)
    sq = arr.astype(np.int64) ** 2
    return np.minimum(sq, hi).astype(dtype.np_dtype)


def saturating_add(a: np.ndarray, b: np.ndarray, dtype: Dtype) -> np.ndarray:
    if dtype.kind == "f32":
        return (a.astype(np.float64) + b.astype(np.float64)).astype(dtype.np_dtype)
    hi = dtype_max(dtype)
    tot = a.astype(np.int64) + b.astype(np.int64)
    return np.clip(tot, 0, hi).astype(dtype.np_dtype)


# ---------------------------------------------------------------------------
# window compute kernels (shared by the runtime and by fused branch groups)
# ---------------------------------------------------------------------------

def _pad_xy(arr: np.ndarray, ry: int, rx: int, f64=True) -> np.ndarray:
    a = arr.astype(np.float64) if f64 else arr
    if ry == 0 and rx == 0:
        return a
    return np.pad(a, ((ry, ry), (rx, rx)), mode="edge")


def conv2d_clamp(arr: np.ndarray, k2d: np.ndarray) -> np.ndarray:
    """Same-size true 2D convolution with clamp-to-edge boundaries."""
    ky, kx = k2d.shape
    ry, rx = ky // 2, kx // 2
    ny, nx = arr.shape
    ap = _pad_xy(arr, ry, rx)
    out = np.zeros((ny, nx), dtype=np.float64)
    for b in range(ky):
        for c in range(kx):
            wgt = k2d[b, c]
            if wgt == 0.0:
                continue
            out += wgt * ap[2 * ry - b:2 * ry - b + ny, 2 * rx - c:2 * rx - c + nx]
    return out


def conv_window(window, kernel: Kernel3D, lo: int, hi: int):
    """Valid-z convolution outputs lo..hi (window-relative) as float64 arrays."""
    kz = kernel.k_z
    outs = []
    for j in range(lo, hi + 1):
        acc = None
        for a in range(kz):
            term = conv2d_clamp(window[j + kz - 1 - a].data, kernel.weights[a])
            acc = term if acc is None else acc + term
        outs.append(acc)
    return outs


def conv1d_clamp(arr: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Same-size 1D convolution along an axis of a 2D array, edges clamped."""
    r = len(g) // 2
    n = arr.shape[axis]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    ap = np.pad(arr.astype(np.float64), pad, mode="edge")
    out = np.zeros_like(arr, dtype=np.float64)
    for b in range(len(g)):
        sl = [slice(None), slice(None)]
        sl[axis] = slice(2 * r - b, 2 * r - b + n)
        out += g[b] * ap[tuple(sl)]
    return out


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Truncated at radius ceil(3*sigma), renormalized to unit sum."""
    if sigma <= 0:
        raise PlanningError("gaussian sigma must be positive")
    r = math.ceil(3.0 * sigma)
    xs = np.arange(-r, r + 1, dtype=np.float64)
    g = np.exp(-0.5 * (xs / sigma) ** 2)
    return g / g.sum()


def gaussian_window(window, g1d: np.ndarray, lo: int, hi: int):
    """Separable x/y/z gaussian; equals convolving with the outer-product kernel."""
    kz = len(g1d)
    outs = []
    for j in range(lo, hi + 1):
        acc = None
        for a in range(kz):
            plane = window[j + kz - 1 - a].data.astype(np.float64)
            acc = g1d[a] * plane if acc is None else acc + g1d[a] * plane
        acc = conv1d_clamp(acc, g1d, axis=0)  # y
        acc = conv1d_clamp(acc, g1d, axis=1)  # x
        outs.append(acc)
    return outs


def morph_window(window, se: StructuringElement, op: str, lo: int, hi: int):
    """min/max/median over the masked neighbourhood, native dtype, exact.

    Even-count medians take the lower of the two middle values so integer
    volumes stay integer-closed and deterministic.

    Erode and dilate keep a running pairwise min/max, so they hold O(1)
    temporary slices. The median gathers the n masked neighbours of each
    output slice into one (n, ny, nx) stack and selects its k-th smallest
    value, k = (n - 1) // 2. For u8 the selection is an exact radix
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
    offsets = np.argwhere(se.mask)
    dtype = window[0].data.dtype
    radix = op == "median" and dtype == np.uint8
    if op == "median":
        n = len(offsets)
        k = (n - 1) // 2
        stack = np.empty((n, ny, nx), dtype=dtype)
    if radix:
        # bool compare results, summed through a u8 view to skip a cast
        less = np.empty((n, ny, nx), dtype=np.uint8)
        count = np.empty((ny, nx), dtype=np.min_scalar_type(n))
    outs = []
    for j in range(lo, hi + 1):
        padded = {}
        gathered = None
        for i, (a, b, c) in enumerate(offsets):
            if a not in padded:
                padded[a] = np.pad(window[j + a].data, ((ry, ry), (rx, rx)),
                                   mode="edge") if (ry or rx) else window[j + a].data
            shifted = padded[a][b:b + ny, c:c + nx]
            if op == "erode":
                gathered = shifted.copy() if gathered is None else np.minimum(gathered, shifted)
            elif op == "dilate":
                gathered = shifted.copy() if gathered is None else np.maximum(gathered, shifted)
            else:
                stack[i] = shifted
        if radix:
            gathered = np.zeros((ny, nx), dtype=np.uint8)
            for bit in range(7, -1, -1):
                cand = gathered | np.uint8(1 << bit)
                np.less(stack, cand, out=less.view(bool))
                np.add.reduce(less, axis=0, dtype=count.dtype, out=count)
                np.copyto(gathered, cand, where=count <= k)
        elif op == "median":
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


def convolve(kernel: Kernel3D, w: Optional[int] = None,
             name: Optional[str] = None) -> PlanStage:
    kz = kernel.k_z
    w = kz if w is None else w
    return PlanStage(name=name or _auto_name("convolve"), op_kind="convolve",
                     w=w, s=w - kz + 1, k_z=kz, params={"kernel": kernel},
                     algo_class=LOCAL_NEIGHBOURHOOD, w_min=kz, tunable=True)


def discrete_gaussian(sigma: float, w: Optional[int] = None,
                      name: Optional[str] = None) -> PlanStage:
    g = gaussian_kernel_1d(sigma)
    kz = len(g)
    w = kz if w is None else w
    return PlanStage(name=name or _auto_name("gaussian"), op_kind="gaussian",
                     w=w, s=w - kz + 1, k_z=kz,
                     params={"sigma": sigma, "g1d": g},
                     algo_class=LOCAL_NEIGHBOURHOOD, w_min=kz, tunable=True)


def _morph_stage(kind: str, se, w, name) -> PlanStage:
    if isinstance(se, int):
        se = StructuringElement.box(se)
    kz = se.k_z
    w = kz if w is None else w
    return PlanStage(name=name or _auto_name(kind), op_kind=kind,
                     w=w, s=w - kz + 1, k_z=kz, params={"se": se},
                     algo_class=LOCAL_NEIGHBOURHOOD, w_min=kz, tunable=True)


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


def pad(amounts, mode: str = "clamp", name=None) -> PlanStage:
    """Grow extents by (xlo,xhi,ylo,yhi,zlo,zhi) voxels; mode zero or clamp."""
    if mode not in ("zero", "clamp"):
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


#: op kinds that consume a sliding kernel window and emit valid centers
KERNEL_OPS = ("convolve", "gaussian", "median", "erode", "dilate")


def out_meta(stage: PlanStage, meta: VolumeMeta) -> VolumeMeta:
    """Volume geometry downstream of a stage."""
    kind = stage.op_kind
    if kind in ("read", "read_chunks", "initialize"):
        return stage.params["meta"]
    if kind in ("pointwise", "write", "write_chunks", "zip", "zip_add", "tee",
                "histogram", "sampled_mean"):
        return meta
    if kind == "convolve":
        depth = meta.depth - stage.k_z + 1
        if depth < 1:
            raise PlanningError(f"stage {stage.name!r}: kernel depth exceeds stack")
        return VolumeMeta(meta.nx, meta.ny, depth, F32)
    if kind in ("gaussian", "median", "erode", "dilate"):
        depth = meta.depth - stage.k_z + 1
        if depth < 1:
            raise PlanningError(f"stage {stage.name!r}: kernel depth exceeds stack")
        return VolumeMeta(meta.nx, meta.ny, depth, meta.dtype)
    if kind == "crop":
        x0, y0, z0, x1, y1, z1 = stage.params["box"]
        if x1 > meta.nx or y1 > meta.ny or z1 > meta.depth:
            raise PlanningError(f"stage {stage.name!r}: crop box exceeds volume")
        return VolumeMeta(x1 - x0, y1 - y0, z1 - z0, meta.dtype)
    if kind == "pad":
        xlo, xhi, ylo, yhi, zlo, zhi = stage.params["amounts"]
        return VolumeMeta(meta.nx + xlo + xhi, meta.ny + ylo + yhi,
                          meta.depth + zlo + zhi, meta.dtype)
    if kind == "permute":
        order = stage.params["order"]
        sizes = {"x": meta.nx, "y": meta.ny, "z": meta.depth}
        return VolumeMeta(sizes[order[0]], sizes[order[1]], sizes[order[2]],
                          meta.dtype)
    raise PlanningError(f"unknown op kind {stage.op_kind!r}")


def per_step_output(stage: PlanStage) -> int:
    """Slices a stage emits per window step (its handoff batch size)."""
    if stage.op_kind in KERNEL_OPS:
        return stage.w - stage.k_z + 1
    if stage.op_kind == "pointwise":
        return stage.w
    return 1


def kernel_window_fn(stage: PlanStage):
    """(window, lo, hi) -> list of float64/native output arrays."""
    kind = stage.op_kind
    if kind == "convolve":
        kern = stage.params["kernel"]
        return lambda win, lo, hi: conv_window(win, kern, lo, hi)
    if kind == "gaussian":
        g = stage.params["g1d"]
        return lambda win, lo, hi: gaussian_window(win, g, lo, hi)
    if kind in ("median", "erode", "dilate"):
        se = stage.params["se"]
        return lambda win, lo, hi: morph_window(win, se, kind, lo, hi)
    raise PlanningError(f"{kind!r} is not a kernel stage")

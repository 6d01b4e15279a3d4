"""Concrete image operators expressed as plan stages.

Each factory returns a PlanStage descriptor; the runtime assembles the
actual streams from these descriptors and the planner prices them with
closed-form estimates. Window stages consume a sliding z-window and emit
its valid center slices, a pointwise stage being one of depth 1; reads
and histograms take w slices per step.

Boundary conventions: the z extent is valid mode (output depth shrinks by
k_z - 1) unless an explicit pad stage is added, while x-y boundaries
clamp to the edge. Integer arithmetic saturates instead of wrapping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import io as sio
from .core import (F32, GEOMETRIC, GLOBAL_REDUCTION, LOCAL_NEIGHBOURHOOD,
                   SINGLE_PIXEL, AlgorithmClass, Dtype, MemEstimate, PipelineGraph,
                   PlanStage, PlanningError, VolumeMeta, slice_bytes)

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
        if min(dims) < 1:
            raise PlanningError(f"kernel file {path}: dims {kx} {ky} {kz} must be >= 1")
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
        kz, ky, kx = self.mask.shape
        if not self.mask[kz // 2, ky // 2, kx // 2]:  # a true center has any() hold
            raise PlanningError("structuring element center must be true" if self.mask.any()
                                else "structuring element needs at least one true entry")

    @property
    def k_z(self) -> int:
        return self.mask.shape[0]

    @classmethod
    def box(cls, r: int = 1) -> "StructuringElement":
        """The (2r + 1)^3 cube, as a read-only view of one true value: the
        planner refuses a cube deeper than its stack before a run ever
        lays one out."""
        if r < 0:
            raise PlanningError(f"structuring element radius must be >= 0, got {r}")
        k = 2 * r + 1
        return cls(np.broadcast_to(np.True_, (k, k, k)))


def histogram_bin_count(dtype: Dtype) -> int:
    # integer voxels get one bin per representable value; floats get a
    # fixed 256-bin grid over a declared range
    if dtype.kind == "f32":
        return 256
    return 256 ** dtype.byte_width


def check_histogram_range(dtype: Dtype, value_range: Optional[tuple]):
    """Refuse the range of an f32 histogram unless its bounds are finite,
    hi > lo and its bin scale, bins / (hi - lo), is positive and finite.
    An integer histogram bins by value and ignores the range."""
    if dtype.kind != "f32":
        return
    if value_range is None:
        raise PlanningError("f32 histograms need an explicit value range")
    lo, hi = value_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PlanningError(f"histogram range {lo:g},{hi:g} must be finite")
    if not hi > lo:
        raise PlanningError("histogram range must satisfy hi > lo")
    if not 0 < histogram_bin_count(dtype) / (hi - lo) < math.inf:
        raise PlanningError(f"histogram range {lo:g},{hi:g}: its bin scale "
                            f"{histogram_bin_count(dtype)} / (hi - lo) is not positive and finite")


@dataclass(eq=False)
class Histogram:
    """Voxel-count histogram; sums of per-slice histograms merge exactly."""

    counts: np.ndarray
    dtype: Dtype
    value_range: Optional[tuple] = None

    @classmethod
    def empty(cls, dtype: Dtype, value_range: Optional[tuple] = None) -> "Histogram":
        check_histogram_range(dtype, value_range)
        return cls(np.zeros(histogram_bin_count(dtype), dtype=np.int64),
                   dtype, value_range)

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes

    def add_array(self, arr: np.ndarray):
        """Count arr's voxels: an f32 value past the range, +-inf too, in the
        edge bin, and NaN in none, as np.histogram over a range leaves it out."""
        if self.dtype.kind == "f32":
            lo, hi = self.value_range
            idx = (arr[~np.isnan(arr)].astype(np.float64) - lo) * (len(self.counts) / (hi - lo))
            idx = np.clip(idx, 0, len(self.counts) - 1).astype(np.int64)
            self.counts += np.bincount(idx, minlength=len(self.counts))
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

def apply_threshold(arr: np.ndarray, t, dtype: Dtype) -> np.ndarray:
    """dtype's maximum where arr >= t, else 0. An integer slice compares in
    its own dtype against ceil(t), as an integer is >= t just when it is
    >= ceil(t), so the slice is not widened to float64 for a float t. A t
    above the dtype's range, +inf or NaN (which compares false) gives 0s;
    one at or below its least value, -inf too, keeps every voxel."""
    if arr.dtype.kind == "f":
        mask = arr >= t
    else:
        info = np.iinfo(arr.dtype)
        if not t <= info.max:
            return np.zeros_like(arr)
        mask = arr >= arr.dtype.type(info.min if t <= info.min else math.ceil(t))
    out = mask.astype(arr.dtype)
    out *= dtype.max_value
    return out


def _saturating(ufunc, dtype: Dtype, *args) -> np.ndarray:
    # u8 -> u16, u16 -> u32: wide enough for any square or sum of two voxels
    wide = ufunc(*args, dtype=np.float64 if dtype.kind == "f32"
                 else np.dtype(f"u{2 * dtype.byte_width}"))
    if dtype.kind != "f32":
        np.minimum(wide, dtype.max_value, out=wide)
    return wide.astype(dtype.np_dtype)


def apply_square(arr: np.ndarray, dtype: Dtype) -> np.ndarray:
    return _saturating(np.square, dtype, arr)


def saturating_add(a: np.ndarray, b: np.ndarray, dtype: Dtype) -> np.ndarray:
    if dtype.kind == "f32":
        return _saturating(np.add, dtype, a, b)
    # min(a, max - b) + b: exact in the slice dtype, as neither step wraps
    out = np.subtract(dtype.max_value, b, dtype=dtype.np_dtype)
    np.minimum(a, out, out=out)
    out += b
    return out


# ---------------------------------------------------------------------------
# window compute kernels (shared by the runtime and by fused branch groups)
# ---------------------------------------------------------------------------

class Scratch:
    """The numpy workspaces of one kernel stage, shared by all of its calls.

    take(name, shape, dtype) gives a contiguous buffer of that shape whose
    memory the first call that names it allocates and later calls reuse,
    growing it only for a larger shape, so a stage faults its workspaces in
    once, not on every call. memo holds what a kernel builds over those
    buffers and keeps between calls (a ring kernel's _SliceRing). close()
    drops them all.
    """

    def __init__(self):
        self.buffers = {}  # name: the bytes behind it
        self._views = {}   # name: the view last taken, as calls repeat shapes
        self.memo = {}

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        view = self._views.get(name)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self.buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self.buffers[name] = np.empty(nbytes, dtype=np.uint8)
        view = self._views[name] = buf[:nbytes].view(dtype).reshape(shape)
        return view

    def close(self):
        self.buffers.clear()
        self._views.clear()
        self.memo.clear()


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


class _SliceRing:
    """Per-slice results of a (kz, ky, kx) kernel that one Scratch keeps
    across the kernel's calls, made from one padded slice.

    The padded slice lies flat, its rows (pad) nx + 2 rx wide, then 2 rx
    zeros read only into junk columns. Slot s holds the results of slice
    keys[s], by identity: hold(held) puts a window's slices in consecutive
    slots (mod their number) from the slot that already holds its first
    slice, if any, and frees the rest; each slice new to its slot is
    padded and _fill(s) makes its results. So a slice's results are made
    once while it stays in the windows of one Scratch's calls, as its data
    never changes in place: core.Slice.data is set once, then cleared.
    """

    def __init__(self, scratch: Scratch, data: np.ndarray, shape: tuple, slots: int, dtype):
        (ny, nx), ry, rx = data.shape, shape[1] // 2, shape[2] // 2
        width = nx + 2 * rx
        self.flat = scratch.take("pad", ((ny + 2 * ry) * width + 2 * rx,), dtype)
        self.flat[(ny + 2 * ry) * width:] = 0
        self.pad, self.ry, self.rx = self.flat[:(ny + 2 * ry) * width].reshape(-1, width), ry, rx
        self.interior = self.pad[ry:ry + ny, rx:rx + nx]
        self.keys, self.next = [None] * slots, 0

    def padded(self, data: np.ndarray):
        self.interior[...] = data
        _clamp_edges(self.pad, self.ry, self.rx)

    def hold(self, held) -> int:
        """Fill the held slices into consecutive slots and return the first."""
        keys, slots = self.keys, len(self.keys)
        p = next((s for s, key in enumerate(keys) if key is held[0]), self.next)
        for i in range(len(held), slots):
            keys[(p + i) % slots] = None
        for i, sl in enumerate(held):
            s = (p + i) % slots
            if keys[s] is not sl:
                keys[s] = sl
                self.padded(sl.data)
                self._fill(s)
        self.next = (p + len(held)) % slots
        return p


class _ConvPlanes(_SliceRing):
    """One Scratch's convolve state for one kernel, slice shape and dtype.

    Plane a filters like plane first[a], the first plane with the same
    weights bit for bit. On an integer slice each tap is a contiguous
    shifted (ny, nx + 2 rx) view of the flat padded slice, and each sum has
    2 rx junk columns. On a float slice, or under a NaN weight, a NaN can
    meet one of the other sign, and which of the two an add returns depends
    on the length of numpy's loop; there the taps are the frozen loops'
    strided (ny, nx) views. (Elsewhere every NaN is the default one that
    inf - inf and 0 * inf give, so the layout cannot change a bit.)
    The ring has k_z slots, an output's window, and ring[b][s] holds the
    sum of slice keys[s] filtered by recurring plane b: every recurring
    plane is filtered when a slice enters the ring.
    """

    def __init__(self, scratch: Scratch, kernel: Kernel3D, data: np.ndarray):
        weights = kernel.weights
        kz, ky, kx = weights.shape
        super().__init__(scratch, data, weights.shape, kz, np.float64)
        (ny, nx), ry, rx, width = data.shape, self.ry, self.rx, self.pad.shape[1]
        cols = width if data.dtype.kind in "ui" and not np.isnan(weights).any() else nx
        self.key = (kernel, data.shape, data.dtype)
        self.term = scratch.take("term", (ny, cols))
        self.sums = scratch.take("sums", (2, ny, cols))
        planes = [plane.tobytes() for plane in weights]
        self.first = [planes.index(plane) for plane in planes]
        views = {(r, c): self.flat[(2 * ry - r) * width + 2 * rx - c:][:ny * width].reshape(
            ny, width)[:, :cols] for r in range(ky) for c in range(kx)}
        self.taps = {b: [(wgt, views[rc]) for rc, wgt in np.ndenumerate(weights[b]) if wgt != 0.0]
                     for b in set(self.first)}
        recurring = sorted(b for b in self.taps if self.first.count(b) > 1)
        self.ring = dict(zip(recurring, scratch.take("ring", (len(recurring), kz, ny, cols))))
        self.plane = (scratch.take("plane", (ny, cols)) if any(
            self.first.count(self.first[a]) == 1 for a in range(1, kz)) else None)

    def _filter(self, b: int, dest: np.ndarray) -> np.ndarray:
        dest.fill(0.0)
        return _accumulate(dest, self.taps[b], self.term)

    def _fill(self, s: int):
        for b, sums in self.ring.items():
            self._filter(b, sums[s])

    def filtered(self, a: int, held, p: int, plain: np.ndarray) -> np.ndarray:
        """Plane a's sum of held[kz - 1 - a], held from slot p: its slot's
        when the plane recurs, else filtered into plain."""
        i, b = len(held) - 1 - a, self.first[a]
        if b in self.ring:
            return self.ring[b][(p + i) % len(self.keys)]
        self.padded(held[i].data)
        return self._filter(b, plain)


def conv_window(window, kernel: Kernel3D, lo: int, hi: int,
                scratch: Optional[Scratch] = None, cast: Callable = np.copy):
    """Valid-z convolution outputs lo..hi (window-relative), each cast(sum).

    Output j is F_0(S[j + kz - 1]) + F_1(S[j + kz - 2]) + ... +
    F_kz-1(S[j]), added in that order, where F_a(S) is the 2D clamp-to-edge
    filter of slice S by kernel plane a, its nonzero terms added from zero
    in row-major order: per voxel, the float64 operations of that sum in
    order. Each add across planes writes the other of two sums, as the
    frozen loops' acc + term does: numpy's in-place add of a one-element
    array returns the other NaN.

    Planes with equal weights give equal sums, so a plane that recurs (all
    three of box3's, a and kz - 1 - a of a mirror-symmetric kernel)
    filters each slice once: each output holds its window in a _SliceRing
    of k_z slots in scratch, keyed on the slice object and the kernel,
    whose slots keep every recurring plane's sum of their slice, so the
    next output and the next call on the same Scratch reuse them. A plane
    that occurs once filters into a plain workspace.

    The sum is a workspace the next output reuses, so cast must return an
    array of its own (np.copy by default); it gets the sum's (ny, nx)
    view. The workspaces (the padded slice, one term, two sums, the plain
    plane and the ring) come from scratch whatever w is, so the call holds
    no float64 output beyond the one being cast.
    """
    scratch = Scratch() if scratch is None else scratch
    data = window[0].data
    planes = scratch.memo.get("conv")
    if planes is None or planes.key != (kernel, data.shape, data.dtype):  # kernel by identity
        planes = scratch.memo["conv"] = _ConvPlanes(scratch, kernel, data)
    kz, sums = kernel.k_z, planes.sums
    outs = []
    for j in range(lo, hi + 1):
        held = window[j:j + kz]
        p = planes.hold(held) if planes.ring else 0
        acc = planes.filtered(0, held, p, sums[0])
        for a in range(1, kz):
            acc = np.add(acc, planes.filtered(a, held, p, planes.plane), out=sums[a % 2])
        outs.append(cast(acc[:, :data.shape[1]]))
    return outs


def gaussian_radius(sigma: float) -> int:
    """ceil(3*sigma), the radius the kernel is truncated at."""
    if not 0 < sigma < math.inf:  # NaN compares false
        raise PlanningError(f"gaussian sigma must be finite and positive, got {sigma}")
    return math.ceil(3.0 * sigma)


@functools.lru_cache(maxsize=32)
def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Truncated at radius ceil(3*sigma), renormalized to unit sum; read-only,
    as every call with one sigma shares it."""
    r = gaussian_radius(sigma)
    xs = np.arange(-r, r + 1, dtype=np.float64)
    g = np.exp(-0.5 * (xs / sigma) ** 2)
    g /= g.sum()
    g.flags.writeable = False
    return g


def gaussian_window(window, g1d: np.ndarray, lo: int, hi: int,
                    scratch: Optional[Scratch] = None, cast: Callable = np.copy):
    """Separable x/y/z gaussian; equals convolving with the outer-product kernel.

    Output j is the z sum of g[a] * slice(j + kz - 1 - a) from its first
    term, then y and x passes with clamped edges that sum from zero: per
    voxel, the float64 operations of those sums in kernel order. Each
    output leaves as cast(sum), as in conv_window. The workspaces come
    from scratch, whatever w is: the y-padded z sum, the y pass's sum, an
    x-padded copy of it and one term. The x pass sums into the y pass's
    workspace, so the call holds no float64 output beyond the one being
    cast.
    """
    scratch = Scratch() if scratch is None else scratch
    kz, r = len(g1d), len(g1d) // 2
    ny, nx = window[0].data.shape
    ypad, xpad = scratch.take("ypad", (ny + 2 * r, nx)), scratch.take("xpad", (ny, nx + 2 * r))
    term, ysum = scratch.take("term", (ny, nx)), scratch.take("ysum", (ny, nx))
    zsum = ypad[r:r + ny]
    ytaps = [(g1d[b], ypad[2 * r - b:2 * r - b + ny]) for b in range(kz)]
    xtaps = [(g1d[c], xpad[:, 2 * r - c:2 * r - c + nx]) for c in range(kz)]
    outs = []
    for j in range(lo, hi + 1):
        # each z add writes over its term, since one into its first operand
        # gives the other NaN on one voxel; the last sum ends in zsum
        acc, nxt = (zsum, term) if kz % 2 else (term, zsum)
        np.multiply(g1d[0], window[j + kz - 1].data, out=acc, dtype=np.float64)
        for a in range(1, kz):
            np.multiply(g1d[a], window[j + kz - 1 - a].data, out=nxt, dtype=np.float64)
            acc, nxt = np.add(acc, nxt, out=nxt), acc
        _clamp_edges(ypad, r, 0)
        ysum.fill(0.0)
        _accumulate(ysum, ytaps, term)  # contiguous: a strided sum runs slower
        xpad[:, r:r + nx] = ysum
        _clamp_edges(xpad, 0, r)
        ysum.fill(0.0)  # free once copied: the x pass sums into it
        _accumulate(ysum, xtaps, term)
        outs.append(cast(ysum))
    return outs


_LOW, _HIGH = -1, -2  # a wire held below, or above, every voxel


def _merge(a: list, b: list):
    """(comparators, order) of Batcher's odd-even merge of the sorted wire
    lists a and b, of any lengths: each comparator (i, j) puts the min on
    wire i and the max on wire j, and order lists the wires in sorted order."""
    if not a or not b:
        return [], a + b
    if len(a) == len(b) == 1:
        return [(a[0], b[0])], a + b
    evens, v = _merge(a[::2], b[::2])
    odds, w = _merge(a[1::2], b[1::2])
    comps, order = evens + odds, v[:1]
    for i in range(max(len(v) - 1, len(w))):
        pair = w[i:i + 1] + v[i + 1:i + 2]
        comps += [tuple(pair)] * (len(pair) == 2)
        order += pair
    return comps, order


def _copy(src, _, out):
    np.copyto(out, src)


def _run(calls):
    for f, x, y, out in calls:
        f(x, y, out=out)


@dataclass(frozen=True)
class _Network:
    """Batcher merges of sorted groups of wires, pruned to some of the
    sorted ranks and compiled to numpy calls.

    Each wire holds an input, which the network only reads, or _LOW or
    _HIGH. The groups merge two halves at a time, and before each merge
    the ranks of either half that cannot reach a wanted rank of the merge
    (those below the lowest, less the other half's size, and those above
    the highest) become _LOW or _HIGH. A comparator with a _LOW or _HIGH
    wire swaps or not whatever the other wire holds, so it makes no call,
    and only the calls the wanted ranks depend on stay. The calls work
    over registers: the n_in inputs, then the n_out outputs, then the
    n_work workspaces, arrays of one shape. Each call writes its own
    register, which it may share with an operand read last there, and
    results[i] is the register that ends holding rank wanted[i]: an
    output, or with copy false an input that no comparator moved.
    """

    groups: tuple
    wanted: tuple
    steps: tuple     # (ufunc, x, y, out) registers
    results: tuple
    n_in: int
    n_out: int
    n_work: int

    def bind(self, regs) -> tuple:
        """(calls, results): the steps as calls on the arrays regs, for
        _run, and the array that will hold each wanted rank."""
        return ([(f, regs[x], regs[y], regs[out]) for f, x, y, out in self.steps],
                [regs[r] for r in self.results])

    @property
    def reads(self) -> set:
        """The inputs the network reads."""
        return {r for _, x, y, _ in self.steps for r in (x, y) if r < self.n_in} | {
            r for r in self.results if r < self.n_in}


@functools.lru_cache(maxsize=256)
def _network(groups: tuple, wanted: tuple, copy: bool = True) -> _Network:
    """The _Network that merges groups (tuples of wire values: an input
    index, _LOW or _HIGH, in sorted order) and keeps the wanted ranks, each
    copied into an output with copy, else left in place when an input."""
    values = [v for g in groups for v in g]
    n_in = max(values, default=-1) + 1
    calls = []  # (ufunc, x, y) of the value n_in + i

    def merged(lists, lo, hi):
        """The wires of lists in sorted order, exact at ranks lo..hi."""
        if len(lists) == 1:
            return lists[0]
        halves = lists[:len(lists) // 2], lists[len(lists) // 2:]
        sizes = [sum(map(len, half)) for half in halves]
        a, b = (merged(half, max(0, lo - other), min(size - 1, hi))
                for half, size, other in zip(halves, sizes, sizes[::-1]))
        for wires, other in ((a, sizes[1]), (b, sizes[0])):
            for r, wire in enumerate(wires):
                if r < lo - other or r > hi:
                    values[wire] = _LOW if r < lo - other else _HIGH
        comps, order = _merge(a, b)
        for i, j in comps:
            x, y = values[i], values[j]
            if x == _HIGH or y == _LOW:
                values[i], values[j] = y, x
            elif x != _LOW and y != _HIGH:
                values[i], values[j] = n_in + len(calls), n_in + len(calls) + 1
                calls.extend([(np.minimum, x, y), (np.maximum, x, y)])
        return order

    bounds = np.cumsum([0] + [len(g) for g in groups])
    order = merged([list(range(s, e)) for s, e in zip(bounds, bounds[1:])],
                   min(wanted), max(wanted))
    ranks = [values[order[r]] for r in wanted]
    assert min(ranks) >= 0, "a wanted rank is held at _LOW or _HIGH"
    need = set(ranks)
    for v in range(n_in + len(calls) - 1, n_in - 1, -1):
        if v in need:
            need.update(calls[v - n_in][1:])
    kept = [v for v in range(n_in, n_in + len(calls)) if v in need]
    last = {x: v for v in kept for x in calls[v - n_in][1:]}
    out = {v: n_in + i for i, v in enumerate(v for v in ranks if copy or v >= n_in)}
    reg = {i: i for i in range(n_in)}
    free, n_work, steps = [], 0, []
    for v in kept:
        f, x, y = calls[v - n_in]
        free += [reg[o] for o in {x, y} if last[o] == v and o >= n_in and o not in out]
        if v in out:
            reg[v] = out[v]
        else:
            if not free:
                free.append(n_in + len(out) + n_work)
                n_work += 1
            reg[v] = free.pop(free.index(min(free)))
        steps.append((f, reg[x], reg[y], reg[v]))
    steps += [(_copy, v, v, out[v]) for v in ranks if v < n_in and copy]
    return _Network(groups, tuple(wanted), tuple(steps), tuple(out.get(v, v) for v in ranks),
                    n_in, len(out), n_work)


def _kept_ranks(size: int, n: int, k: int) -> tuple:
    """The ranks of a sorted list of size of n values that can be the k-th
    of all n: the lower ones fall below k whatever the rest holds, and the
    upper ones above it."""
    return tuple(range(max(0, k - (n - size)), min(size - 1, k) + 1))


def _truncated(ranks: tuple, size: int, first: int) -> tuple:
    """The wire values of a sorted list of size whose kept ranks are the
    inputs first, first + 1, ...: _LOW below them, _HIGH above."""
    return ((_LOW,) * ranks[0] + tuple(range(first, first + len(ranks)))
            + (_HIGH,) * (size - 1 - ranks[-1]))


class _MorphNetworks:
    """The networks that select rank k of a mask's n values, over each
    slice's in-plane sorted lists.

    op's rank is k = 0 (erode), n - 1 (dilate) or (n - 1) // 2 (median).
    Each distinct nonempty mask plane is one pattern. Per slice:
    - rows: one sort per distinct row set of a pattern's columns, over
      whole rows of the padded slice, so a column's rows come sorted;
    - patterns: per pattern, a merge of its columns' sorted rows into the
      pattern's kept ranks (_kept_ranks), at offset in each ring slot.
    Per output, steps merge the lists of the nonempty planes in z order,
    each merge pruned to the ranks of what it has merged that can still be
    rank k, until the last keeps rank k alone. pair says the planes are
    three of one pattern, so that the first merge of output j serves as
    the merge of planes 1 and 2 of output j - 1.
    """

    def __init__(self, mask: np.ndarray, op: str):
        n = int(mask.sum())
        self.shape, self.k = mask.shape, {"erode": 0, "dilate": n - 1}.get(op, (n - 1) // 2)
        patterns = []
        self.planes = []  # (a, pattern) of each nonempty plane, in z order
        for a, plane in enumerate(mask):
            pat = tuple(map(tuple, np.argwhere(plane).tolist()))
            if pat:
                patterns += [pat] * (pat not in patterns)
                self.planes.append((a, patterns.index(pat)))
        self.pair = self.planes == [(0, 0), (1, 0), (2, 0)]
        merges, wanted = [], {}
        for pat in patterns:
            inputs, groups = [], []
            for c in sorted({c for _, c in pat}):
                rows = tuple(b for b, c2 in pat if c2 == c)
                groups.append(tuple(range(len(inputs), len(inputs) + len(rows))))
                inputs += [(rows, r, c) for r in range(len(rows))]
            net = _network(tuple(groups), _kept_ranks(len(pat), n, self.k))
            merges.append((pat, inputs, net))
            for i in net.reads:
                rows, r, _ = inputs[i]
                wanted.setdefault(rows, set()).add(r)
        self.rows, at = [], 0
        for rows, ranks in wanted.items():
            net = _network(tuple((i,) for i in range(len(rows))), tuple(sorted(ranks)), False)
            self.rows.append((rows, net, at))
            at += net.n_out
        self.n_sorted, at = at, 0
        self.patterns = []  # (pattern, inputs, network, offset)
        for pat, inputs, net in merges:
            self.patterns.append((pat, inputs, net, at))
            at += net.n_out
        self.n_kept = at
        self.steps = []
        pat, _, net, _ = self.patterns[self.planes[0][1]]
        size, ranks = len(pat), net.wanted
        for i, (_, p) in enumerate(self.planes[1:], start=2):
            pat, _, net, _ = self.patterns[p]
            merged = _kept_ranks(size + len(pat), n, self.k)
            self.steps.append(_network(
                (_truncated(ranks, size, 0), _truncated(net.wanted, len(pat), len(ranks))),
                merged, i < len(self.planes)))
            size, ranks = size + len(pat), merged
        self.slice_work = max(net.n_work for net in [r[1] for r in self.rows]
                              + [p[2] for p in self.patterns])
        self.banks = [max((s.n_out for s in self.steps[b::2]), default=0) for b in (0, 1)]
        self.z_work = max((s.n_work for s in self.steps), default=0)
        # a merge of one call (erode and dilate keep one rank) may write
        # over what it has merged so far
        self.in_place = all(len(s.steps) == 1 for s in self.steps)


@functools.lru_cache(maxsize=32)
def _morph_networks(mask_bytes: bytes, shape: tuple, op: str) -> _MorphNetworks:
    return _MorphNetworks(np.frombuffer(mask_bytes, dtype=bool).reshape(shape), op)


class _MorphRing(_SliceRing):
    """One Scratch's u8/u16 morphology state for one mask, op, slice shape
    and dtype, and outputs per chunk.

    Every array is flat and contiguous: a row sort reads (ny, nx + 2 rx)
    rows of the padded slice, plus 2 rx, shifted by whole padded rows, and
    a column merge reads those shifted by c, so each result has 2 rx junk
    columns. A slot of the ring holds the kept ranks of each pattern of
    one slice, and a chunk of outputs holds its window in S = chunk + kz - 1
    slots. So a slice's in-plane sorts run once while it stays in the
    windows of one Scratch's calls. The z merges run per run of outputs
    whose slots do not wrap, over (outputs, ny * (nx + 2 rx)) arrays, merge
    t into bank t % 2 with a workspace, or in place in bank 0 when every
    merge is one call; one output at a time they keep their bound calls
    per slot. With pair, bank 0 keeps the first merge across outputs,
    keyed on the two slices it merged, and merge 1 goes to bank 1.
    """

    def __init__(self, scratch: Scratch, nets: _MorphNetworks, data: np.ndarray, chunk: int):
        super().__init__(scratch, data, nets.shape, chunk + nets.shape[0] - 1, data.dtype)
        (ny, nx), width, dtype = data.shape, self.pad.shape[1], data.dtype
        self.key, self.chunk, self.nets = (nets, data.shape, dtype), chunk, nets
        self.ny, self.nx, self.width = ny, nx, width
        size, line, flat = ny * width, ny * width + 2 * self.rx, self.flat
        work = scratch.take("work", (nets.slice_work, line), dtype)
        ysorted = scratch.take("sorted", (nets.n_sorted, line), dtype)
        sorts, column = [], {}
        for rows, net, at in nets.rows:
            calls, results = net.bind([flat[b * width:b * width + line] for b in rows]
                                      + list(ysorted[at:at + net.n_out]) + list(work))
            sorts += calls
            column.update(zip(((rows, r) for r in net.wanted), results))
        slots = len(self.keys)
        ring = scratch.take("ring", (slots, nets.n_kept, size), dtype)
        self.lists, self.fills = [], [list(sorts) for _ in range(slots)]
        for _, inputs, net, at in nets.patterns:
            self.lists.append(ring[:, at:at + net.n_out].swapaxes(0, 1))
            ins = [column[rows, r][c:c + size] if i in net.reads else None
                   for i, (rows, r, c) in enumerate(inputs)]
            for s in range(slots):
                self.fills[s] += net.bind(ins + list(ring[s, at:at + net.n_out])
                                          + [w[:size] for w in work])[0]
        self.in_place = nets.in_place and not (nets.pair and chunk == 1)
        self.banks = [scratch.take(f"bank{b}", (n, chunk, size), dtype)
                      for b, n in enumerate(nets.banks[:1] if self.in_place else nets.banks)]
        self.z_work = scratch.take("zwork", (nets.z_work, chunk, size), dtype)
        self.bound = {}  # (t, first slot at t = 0, slot): merge t's calls, one output
        self.paired = (None, None)  # the slices whose merge bank 0 holds

    def _fill(self, s: int):
        _run(self.fills[s])

    def _list(self, plane: int, s: int, length: int) -> list:
        """The kept ranks of nonempty plane `plane` over length slots from s."""
        return list(self.lists[self.nets.planes[plane][1]][:, s:s + length])

    def _zmerge(self, t: int, s: int, length: int, first: int) -> list:
        """Run z merge t, of the ranks merged so far and nonempty plane
        t + 1's list at slot s, over length outputs; return its ranks. So
        far is plane 0's list at slot first at t = 0, else the bank merge
        t - 1 wrote."""
        key = (t, first if t == 0 else None, s) if length == 1 else None
        bound = self.bound.get(key)
        if bound is None:
            into, prev = (0, 0) if self.in_place else (t % 2, (t - 1) % 2)
            so_far = (self._list(0, first, length) if t == 0 else list(
                self.banks[prev][:self.nets.steps[t - 1].n_out, :length]))
            bound = self.nets.steps[t].bind(
                so_far + self._list(t + 1, s, length) + list(self.banks[into][:, :length])
                + list(self.z_work[:, :length]))
            if key is not None:
                self.bound[key] = bound
        _run(bound[0])
        return bound[1]

    def outputs(self, held, nout: int) -> list:
        """(ny, nx) arrays of the nout outputs whose windows start at held[0],
        new ones the caller owns."""
        slots, kz = len(self.keys), self.nets.shape[0]
        p = self.hold(held)
        cuts = sorted({0, nout} | {i for i in ((-p - a) % slots for a in range(kz)) if i < nout})
        outs = []
        for i0, i1 in zip(cuts, cuts[1:]):
            at, length = [(p + i0 + a) % slots for a, _ in self.nets.planes], i1 - i0
            if self.nets.pair and self.chunk == 1:
                first, second = self.paired
                if first is held[0] and second is held[1]:
                    ranks = self._zmerge(1, at[2], 1, at[0])
                else:  # planes 1 and 2 of this output are planes 0 and 1 of the next
                    self._zmerge(0, at[2], 1, at[1])
                    self.paired = held[1], held[2]
                    ranks = self._zmerge(1, at[0], 1, at[0])
            else:
                ranks = self._list(0, at[0], length)
                for t in range(len(at) - 1):
                    ranks = self._zmerge(t, at[t + 1], length, at[0])
            outs += [row.reshape(self.ny, self.width)[:, :self.nx].copy() for row in ranks[0]]
        return outs


#: the engine's one block: most bytes of input slices that one block of a
#: window call reads, unless one output needs more (block_outputs)
BLOCK_BYTES = 1 << 18


def block_outputs(slice_bytes: int, k_z: int) -> int:
    """Outputs per block of a k_z-deep window over slices of slice_bytes:
    as many as BLOCK_BYTES of slices covers, and at least one. An inline
    window call of more outputs runs block by block (runtime._kernel_outputs),
    and erode and dilate chunk their outputs by it over padded slices."""
    return max(1, BLOCK_BYTES // slice_bytes - k_z + 1)


def morph_window(window, se: StructuringElement, op: str, lo: int, hi: int,
                 scratch: Optional[Scratch] = None, cast: Callable = np.asarray):
    """min/max/median over the masked neighbourhood, native dtype, exact.

    Each output is a new array and leaves as cast(output), as is by default.
    Even-count medians take the lower of the two middle values so integer
    volumes stay integer-closed and deterministic.

    u8 and u16 select rank k of the n masked values (0 for erode, n - 1
    for dilate, (n - 1) // 2 for the median) with pruned Batcher networks
    (_MorphNetworks) over flat contiguous arrays, as Adams' separable
    sorting networks do ("Fast median filters using separable sorting
    networks", SIGGRAPH 2021): each slice sorts its padded rows along y and
    merges its columns into each mask plane's sorted list once, keeping
    the ranks that can still be rank k, in a _SliceRing in scratch, as
    conv_window keeps its plane sums. Each output then
    merges its k_z lists along z, pruned to the ranks that can still be
    rank k: over the r = 1 box a slice's lists take 6 + 36 calls, the merge
    of two slices' lists 48, kept across outputs, and the final select 18
    (the network that sorted each output's 27 views took 226). Erode and
    dilate keep one rank, so a slice takes 4 calls and an output k_z - 1,
    made over a chunk of outputs at once. The median goes one output at a
    time, so the ring holds k_z slices; erode and dilate go in chunks of c,
    as many as one block of padded slices allows (block_outputs), over
    c + k_z - 1.
    Milliseconds per output at w = k_z on a 2-vCPU Intel Xeon, slice fill
    and cast included (scripts/kernel_table.py, per-output networks and
    per-offset calls over strided views -> ring):

        op      r  dtype      64x64          128x128          256x256
        median  1  u8    0.218 -> 0.073   0.393 -> 0.137    0.852 -> 0.403
        median  1  u16   0.240 -> 0.087   0.494 -> 0.210    2.235 -> 0.824
        median  2  u8    1.586 -> 0.623   3.268 -> 1.401   10.46  -> 5.244
        median  2  u16   2.040 -> 0.880   6.343 -> 2.728   20.44  -> 11.92
        median  3  u8    6.630 -> 4.580  16.21  -> 8.147   50.49  -> 28.51
        median  3  u16   9.077 -> 5.270  31.27  -> 14.44  114.1   -> 58.15
        erode   1  u8    0.069 -> 0.020   0.100 -> 0.026    0.171 -> 0.044
        erode   1  u16   0.204 -> 0.038   0.125 -> 0.032    0.287 -> 0.073
        erode   2  u8    0.250 -> 0.029   0.344 -> 0.038    0.600 -> 0.065
        erode   2  u16   0.263 -> 0.031   0.497 -> 0.046    1.207 -> 0.124
        erode   3  u8    0.696 -> 0.069   1.035 -> 0.084    1.926 -> 0.126
        erode   3  u16   0.769 -> 0.072   1.429 -> 0.090    3.507 -> 0.263
        dilate  1  u8    0.071 -> 0.021   0.093 -> 0.026    0.197 -> 0.052
        dilate  1  u16   0.076 -> 0.022   0.187 -> 0.043    0.277 -> 0.074
        dilate  2  u8    0.268 -> 0.029   0.344 -> 0.037    0.642 -> 0.070
        dilate  2  u16   0.264 -> 0.031   0.519 -> 0.047    1.252 -> 0.129
        dilate  3  u8    0.679 -> 0.065   0.918 -> 0.077    1.879 -> 0.131
        dilate  3  u16   0.680 -> 0.067   1.331 -> 0.089    3.178 -> 0.205

    One 64x64 call over the r = 1 box at w = 512, in chunks of 58 outputs,
    went 8.7 -> 5.6 ms (erode, u8), 11.7 -> 7.7 (erode, u16), 7.7 -> 5.1
    (dilate, u8) and 11.2 -> 6.6 (dilate, u16).

    f32 keeps the per-output order: the outputs go in chunks of c, each
    copying its c + kz - 1 slices into one block of x-y edge-padded slices.
    Erode and dilate make one np.minimum or np.maximum call per mask offset
    in mask order, over a (c, ny, nx) accumulator, which decides which of
    -0.0 and +0.0 and which NaN comes out; the median gathers each
    output's neighbours into an (n, ny, nx) stack and keeps np.partition,
    whose order ties -0.0 with +0.0 and puts every NaN last, where
    np.minimum and np.maximum propagate NaNs. Block, accumulator and stack
    come from scratch, so the workspace is bounded whatever w is.
    """
    scratch = Scratch() if scratch is None else scratch
    kz, ky, kx = se.mask.shape
    ry, rx = ky // 2, kx // 2
    data = window[0].data
    (ny, nx), dtype = data.shape, data.dtype
    padded = (ny + 2 * ry) * (nx + 2 * rx) * dtype.itemsize
    chunk = min(hi - lo + 1, block_outputs(padded, kz))
    outs = []
    if dtype.kind == "u":
        chunk = 1 if op == "median" else chunk
        nets = _morph_networks(se.mask.tobytes(), se.mask.shape, op)
        ring = scratch.memo.get("morph")
        if ring is None or ring.key != (nets, data.shape, dtype) or ring.chunk < chunk:
            ring = scratch.memo["morph"] = _MorphRing(scratch, nets, data, chunk)
        for first in range(lo, hi + 1, chunk):
            nout = min(chunk, hi + 1 - first)
            outs += map(cast, ring.outputs(window[first:first + nout + kz - 1], nout))
        return outs
    offsets = np.argwhere(se.mask).tolist()
    blocks = scratch.take("block", (chunk + kz - 1, ny + 2 * ry, nx + 2 * rx), dtype)
    if op != "median":
        extremum = np.minimum if op == "erode" else np.maximum
        (a0, b0, c0), rest = offsets[0], offsets[1:]
        accs = scratch.take("acc", (chunk, ny, nx), dtype)
    else:
        k = (len(offsets) - 1) // 2
        stack = scratch.take("stack", (len(offsets), ny, nx), dtype)
    for first in range(lo, hi + 1, chunk):
        nout = min(chunk, hi + 1 - first)
        block = blocks[:nout + kz - 1]
        for z in range(nout + kz - 1):
            block[z, ry:ry + ny, rx:rx + nx] = window[first + z].data
        _clamp_edges(block, ry, rx)
        if op != "median":
            acc = accs[:nout]
            np.copyto(acc, block[a0:a0 + nout, b0:b0 + ny, c0:c0 + nx])
            for a, b, c in rest:
                extremum(acc, block[a:a + nout, b:b + ny, c:c + nx], out=acc)
            outs += [cast(plane.copy()) for plane in acc]
            continue
        for j in range(nout):
            np.stack([block[j + a, b:b + ny, c:c + nx] for a, b, c in offsets], out=stack)
            stack.partition(k, axis=0)
            outs.append(cast(stack[k].copy()))
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
                     w=w, s=w, params={"fn": fn, "fn_name": fn_name})


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
                     w=w, s=w - kz + 1, k_z=kz, params=params)


def convolve(kernel: Kernel3D, w: Optional[int] = None,
             name: Optional[str] = None) -> PlanStage:
    return _kernel_stage("convolve", kernel.k_z, w, name, kernel=kernel)


def discrete_gaussian(sigma: float, w: Optional[int] = None,
                      name: Optional[str] = None) -> PlanStage:
    # the kernel is made by the call that needs it, after planning, so a
    # sigma too deep for the stack never lays one out
    return _kernel_stage("gaussian", 2 * gaussian_radius(sigma) + 1, w, name, sigma=sigma)


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
                     params={"box": tuple(box)})


PAD_MODES = ("zero", "clamp")


def pad(amounts, mode: str = "clamp", name=None) -> PlanStage:
    """Grow extents by (xlo,xhi,ylo,yhi,zlo,zhi) voxels; mode zero or clamp."""
    if mode not in PAD_MODES:
        raise PlanningError(f"pad mode must be zero or clamp, got {mode!r}")
    if len(tuple(amounts)) != 6 or min(amounts) < 0:
        raise PlanningError(f"invalid pad amounts {amounts}")
    return PlanStage(name=name or _auto_name("pad"), op_kind="pad",
                     params={"amounts": tuple(amounts), "mode": mode})


PERMUTE_ORDERS = ("xyz", "yxz", "zyx", "xzy", "zxy", "yzx")


def permute_axes(order: str, name=None, chunk_edge: int = 16) -> PlanStage:
    """Reorder axes; order names the source axis for output x, y, z.

    Orders that keep z in place run in one sweep; orders that move z run
    as two passes through an on-disk chunked intermediate.
    """
    if order not in PERMUTE_ORDERS:
        raise PlanningError(f"order must be a permutation of xyz, got {order!r}")
    return PlanStage(name=name or _auto_name("permute"), op_kind="permute",
                     params={"order": order, "chunk_edge": chunk_edge})


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
                     w=w, s=w, params={"value_range": value_range, "out": out})


def sampled_mean(stride: int = 1, out=None, name=None) -> PlanStage:
    """Mean voxel value estimated from slices 0, s, 2s, ...; s=1 is exact.

    Sampling aliases periodic content along z (a volume whose skipped
    slices differ is misestimated); that is the documented trade-off.
    """
    if stride < 1:
        raise PlanningError("sampled_mean stride must be >= 1")
    return PlanStage(name=name or _auto_name("mean"), op_kind="sampled_mean",
                     w=1, s=stride, params={"out": out})


def add_join(name=None) -> PlanStage:
    """Join two branches by voxelwise saturating addition."""
    return PlanStage(name=name or _auto_name("add"), op_kind="zip_add")


def tee(name=None) -> PlanStage:
    """Fan a stream out to parallel branches; shares slices by reference."""
    return PlanStage(name=name or _auto_name("tee"), op_kind="tee")


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
    """What the engine knows about one op kind, so about every stage of it.

    estimate(stage, in_meta, out_meta) is a stage's closed-form ledger
    price and out_meta(stage, meta) the volume geometry downstream of it.
    Window kinds consume a sliding z-window and emit its valid centers, a
    pointwise stage being one of depth 1: window(stage, window, lo, hi,
    scratch=, cast=) gives the output arrays of the window-relative
    centers lo..hi, taking its workspaces from the stage's Scratch and
    passing each output through cast, which gives it in the stage's
    dtype, as soon as it is made and in z order. kernel_dims(stage) is a kernel's
    (kx, ky, kz): a stage with kernel taps may share a tee's window, takes
    in the pointwise stages after it (planner.fuse_pointwise), and the plan
    may put its calls on the run's pool, charging it the concurrent queue
    allowance. taps(stage) is the work per output voxel
    that decision counts (planner.INLINE_WORK), every kernel tap when
    unset. spec holds the kind's keywords, and a
    stage prints back as the first whose show gives a line: a read or a
    write with chunks in its params as readInChunks or writeInChunks.
    Structural kinds (tee, join) and ones no spec line builds have none.
    algo_class says how the kind streams. The planner grows the window of
    a tunable kind, a window kind or one marked `grows` (read, histogram),
    from k_z into the budget left. A stage takes `inputs` streams (a read
    none, a join two) and ends its pipeline just when its kind is a `sink`:
    check_roles holds each stage of a graph to that.
    """

    estimate: Callable
    out_meta: Callable = lambda stage, meta: meta
    window: Optional[Callable] = None
    kernel_dims: Optional[Callable] = None
    taps: Optional[Callable] = None
    spec: tuple = ()
    algo_class: AlgorithmClass = SINGLE_PIXEL
    grows: bool = False
    inputs: int = 1
    sink: bool = False

    @property
    def tunable(self) -> bool:
        return self.grows or self.window is not None


def _histogram_meta(stage, meta):
    check_histogram_range(meta.dtype, stage.params.get("value_range"))
    return meta


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
    axis = stage.params["order"][2]
    if axis == "z":
        return MemEstimate(slice_bytes(meta), slice_bytes(out), 0)
    # pass 1 writes chunks one slice at a time, and pass 2 reads one slab:
    # the chunk column along the axis that becomes the new z
    grid = sio.ChunkGrid(meta, *permute_chunk_dims(stage, meta))
    return MemEstimate(slice_bytes(meta), slice_bytes(out), grid.layer_bytes(axis))


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


def _window_estimate(st, m, o):
    """A window kind's price: w slices in, the w - k_z + 1 centers out."""
    return MemEstimate(st.w * slice_bytes(m), (st.w - st.k_z + 1) * slice_bytes(o), 0)


def _kernel_kind(window, kernel_dims, syntax, dtype=None, taps=None):
    """Record of a kernel kind; its outputs are in `dtype`, else the input's."""
    def out_meta(stage, meta):
        depth = meta.depth - stage.k_z + 1
        if depth < 1:
            raise PlanningError(f"stage {stage.name!r}: kernel depth exceeds stack")
        return VolumeMeta(meta.nx, meta.ny, depth, dtype or meta.dtype)

    return OpKind(_window_estimate, out_meta, window=window, kernel_dims=kernel_dims,
                  taps=taps, spec=(syntax,), algo_class=LOCAL_NEIGHBOURHOOD)


def _parse_convolve(get, name):
    w = get("w", int, None)
    path = get("kernel")
    stage = convolve(Kernel3D.load(path), w=w, name=name)
    stage.params["file"] = path
    return stage


def _morph_kind(kind):
    return _kernel_kind(
        lambda st, win, lo, hi, **kw: morph_window(win, st.params["se"], kind, lo, hi, **kw),
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


def _read_estimate(stage, meta, out):
    return MemEstimate(0, stage.w * slice_bytes(out), 0)


def _io_syntax(keyword, factory, prints):
    return Syntax(keyword, ("dir",), lambda get, name: factory(get("dir"), name=name),
                  lambda st: f"{keyword} {st.params['dir']}" if prints(st) else None,
                  positional=1)


#: every op kind the engine plans and runs, keyed by PlanStage.op_kind
OPS = {
    # a read of any layout runs the one reader; one with chunks, which
    # refused a slice stack, prints as readInChunks
    "read": OpKind(_read_estimate, lambda st, m: st.params["meta"], grows=True, inputs=0, spec=(
        _io_syntax("read", sio.read_stage, lambda st: "chunks" not in st.params),
        _io_syntax("readInChunks", sio.read_chunks_stage, lambda st: "chunks" in st.params))),
    # a write holds the one slice it writes, of any layout; one with
    # chunks prints as writeInChunks
    "write": OpKind(
        lambda st, m, o: MemEstimate(slice_bytes(m), 0, 0),
        spec=(_io_syntax("write", sio.write_stage, lambda st: "chunks" not in st.params),
              Syntax("writeInChunks", ("dir", "chunks"),
                     lambda get, name: sio.write_chunks_stage(
                         get("dir"), get("chunks", _numbers(3), (16, 16, 16)), name),
                     lambda st: "writeInChunks {} chunks={},{},{}".format(
                         st.params["dir"], *st.params["chunks"]),
                     positional=1)), sink=True),
    # a window of depth 1: each output is fn of one slice
    "pointwise": OpKind(
        _window_estimate,
        window=lambda st, win, lo, hi, scratch, cast: [
            cast(st.params["fn"](sl.data, sl.meta.dtype)) for sl in win[lo:hi + 1]],
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
        lambda st, win, lo, hi, **kw: conv_window(win, st.params["kernel"], lo, hi, **kw),
        lambda st: st.params["kernel"].dims,
        Syntax("convolve", ("kernel", "w"), _parse_convolve,
               # a kernel built in code has no file to name
               lambda st: (f"convolve kernel={st.params['file']} w={st.w}"
                           if "file" in st.params else None)),
        dtype=F32),
    # three separable passes of k_z taps, counted as 49 k_z: k_z^3 at the
    # sigma = 0.8 gaussian INLINE_WORK was calibrated on (k_z = 7)
    "gaussian": _kernel_kind(
        lambda st, win, lo, hi, **kw: gaussian_window(
            win, gaussian_kernel_1d(st.params["sigma"]), lo, hi, **kw),
        lambda st: (st.k_z,) * 3,
        Syntax("gaussian", ("sigma", "w"),
               lambda get, name: discrete_gaussian(get("sigma", float),
                                                   w=get("w", int, None), name=name),
               lambda st: f"gaussian sigma={st.params['sigma']} w={st.w}"),
        taps=lambda st: 49 * st.k_z),
    "median": _morph_kind("median"),
    "erode": _morph_kind("erode"),
    "dilate": _morph_kind("dilate"),
    "crop": OpKind(
        lambda st, m, o: MemEstimate(slice_bytes(m), slice_bytes(o), 0), _crop_meta,
        spec=(Syntax("crop", ("box",),
                     lambda get, name: crop(get("box", _numbers(6)), name=name),
                     lambda st: "crop " + ",".join(str(v) for v in st.params["box"]),
                     positional=1),), algo_class=GEOMETRIC),
    "pad": OpKind(
        lambda st, m, o: MemEstimate(slice_bytes(m), slice_bytes(o), slice_bytes(o)),
        _pad_meta, spec=(Syntax("pad", ("x", "y", "z", "mode"), _parse_pad, _pad_line),),
        algo_class=GEOMETRIC),
    "permute": OpKind(
        _permute_estimate, _permute_meta,
        spec=(Syntax("permute", ("order",),
                     lambda get, name: permute_axes(get("order", _choice(PERMUTE_ORDERS)),
                                                    name=name),
                     lambda st: f"permute {st.params['order']}", positional=1),),
        algo_class=GEOMETRIC),
    "histogram": OpKind(
        lambda st, m, o: MemEstimate(st.w * slice_bytes(m), 0,
                                     2 * histogram_bin_count(m.dtype)), _histogram_meta,
        spec=(Syntax("histogram", ("out", "w", "range"),
                     lambda get, name: histogram_op(
                         w=get("w", int, 1), value_range=get("range", _numbers(2, float), None),
                         out=get("out", str, None), name=name),
                     _histogram_line),), algo_class=GLOBAL_REDUCTION, grows=True, sink=True),
    "sampled_mean": OpKind(lambda st, m, o: MemEstimate(slice_bytes(m), 0, 0),
                           algo_class=GLOBAL_REDUCTION, sink=True),
    "zip_add": OpKind(lambda st, m, o: MemEstimate(2 * slice_bytes(m), slice_bytes(o), 0),
                      inputs=2),
    "tee": OpKind(lambda st, m, o: MemEstimate(0, 0, 0)),
}


def record(stage: PlanStage) -> OpKind:
    """The OPS record of a stage's kind."""
    try:
        return OPS[stage.op_kind]
    except KeyError:
        raise PlanningError(f"unknown op kind {stage.op_kind!r}") from None


def out_meta(stage: PlanStage, meta: VolumeMeta) -> VolumeMeta:
    """Volume geometry downstream of a stage."""
    return record(stage).out_meta(stage, meta)


def check_roles(graph: PipelineGraph):
    """Refuse a stage in the wrong place: each stage must take as many
    inputs as its record says, and end the graph exactly when it is a sink."""
    for stage in graph.topo_order():
        rec = record(stage)
        placed = (len(graph.predecessors(stage.name)), not graph.successors(stage.name))
        if placed != (rec.inputs, rec.sink):
            ends = "ends" if rec.sink else "cannot end"
            raise PlanningError(f"stage {stage.name!r} ({stage.op_kind}) takes {rec.inputs} "
                                f"input(s) and {ends} a pipeline")

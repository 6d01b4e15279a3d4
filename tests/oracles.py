"""Brute-force reference implementations, independent of the engine.

Everything here works on whole in-memory volumes with explicit index
arithmetic (plain loops, coordinate clamping), deliberately sharing no
code with the streaming operators it checks. The two planner oracles,
greedy_windows and scan_midwrites, search window sizes slice by slice
and mid-write cuts prefix by prefix against the planner's own full
ledger, so they check the window solve and the split search, not the
prices.
The frozen_* functions are the voxel loops as they stood before they
learned to accumulate in place and to stay in native width; they keep
their float operations in order, so the engine must match them bit for
bit.
"""

import copy
from pathlib import Path

import numpy as np

from stackstream.core import PipelineGraph, PlanStage, chain
from stackstream.ops import KERNEL_OPS, OPS
from stackstream.planner import (MidwriteResult, RepairAction, estimate_pipeline,
                                 propagate_meta)


def _clamp(i, n):
    return 0 if i < 0 else (n - 1 if i >= n else i)


def conv3d(vol: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """True 3D convolution: valid along z, clamp-to-edge in x and y."""
    d, ny, nx = vol.shape
    kz, ky, kx = weights.shape
    rz, ry, rx = kz // 2, ky // 2, kx // 2
    v = vol.astype(np.float64)
    out = np.zeros((d - kz + 1, ny, nx))
    for oz in range(d - kz + 1):
        zc = oz + rz
        for y in range(ny):
            for x in range(nx):
                acc = 0.0
                for a in range(kz):
                    for b in range(ky):
                        for c in range(kx):
                            acc += weights[a, b, c] * v[zc + rz - a,
                                                        _clamp(y + ry - b, ny),
                                                        _clamp(x + rx - c, nx)]
                out[oz, y, x] = acc
    return out


def kernel_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full discrete convolution of two kernels via the definition."""
    az, ay, ax = a.shape
    bz, by, bx = b.shape
    out = np.zeros((az + bz - 1, ay + by - 1, ax + bx - 1))
    for z in range(out.shape[0]):
        for y in range(out.shape[1]):
            for x in range(out.shape[2]):
                acc = 0.0
                for i in range(az):
                    for j in range(ay):
                        for k in range(ax):
                            zz, yy, xx = z - i, y - j, x - k
                            if 0 <= zz < bz and 0 <= yy < by and 0 <= xx < bx:
                                acc += a[i, j, k] * b[zz, yy, xx]
                out[z, y, x] = acc
    return out


def gaussian_separable(vol: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Dense separable filter: clamp in x/y, valid in z."""
    d, ny, nx = vol.shape
    r = len(g) // 2
    v = vol.astype(np.float64)
    tmp = np.zeros_like(v)
    for y in range(ny):
        acc = np.zeros((d, nx))
        for i, w in enumerate(g):
            acc += w * v[:, _clamp(y + r - i, ny), :]
        tmp[:, y, :] = acc
    tmp2 = np.zeros_like(tmp)
    for x in range(nx):
        acc = np.zeros((d, ny))
        for i, w in enumerate(g):
            acc += w * tmp[:, :, _clamp(x + r - i, nx)]
        tmp2[:, :, x] = acc
    out = np.zeros((d - len(g) + 1, ny, nx))
    for oz in range(out.shape[0]):
        for i, w in enumerate(g):
            out[oz] += w * tmp2[oz + len(g) - 1 - i]
    return out


def morphology(vol: np.ndarray, mask: np.ndarray, op: str) -> np.ndarray:
    """Sort-based min/max/median over the masked neighbourhood; valid z."""
    d, ny, nx = vol.shape
    kz, ky, kx = mask.shape
    rz, ry, rx = kz // 2, ky // 2, kx // 2
    offsets = [(a, b, c) for a in range(kz) for b in range(ky)
               for c in range(kx) if mask[a, b, c]]
    out = np.zeros((d - kz + 1, ny, nx), dtype=vol.dtype)
    for oz in range(d - kz + 1):
        for y in range(ny):
            for x in range(nx):
                vals = sorted(vol[oz + a,
                                  _clamp(y + b - ry, ny),
                                  _clamp(x + c - rx, nx)]
                              for a, b, c in offsets)
                if op == "erode":
                    out[oz, y, x] = vals[0]
                elif op == "dilate":
                    out[oz, y, x] = vals[-1]
                else:  # lower-middle median
                    out[oz, y, x] = vals[(len(vals) - 1) // 2]
    return out


def histogram_counts(vol: np.ndarray, bins: int, value_range=None) -> np.ndarray:
    counts = np.zeros(bins, dtype=np.int64)
    flat = vol.ravel()
    if value_range is None:
        for v in flat:
            counts[int(v)] += 1
    else:
        lo, hi = value_range
        for v in flat:
            idx = int((float(v) - lo) * bins / (hi - lo))
            counts[min(max(idx, 0), bins - 1)] += 1
    return counts


def pad_volume(vol: np.ndarray, amounts, mode: str) -> np.ndarray:
    xlo, xhi, ylo, yhi, zlo, zhi = amounts
    np_mode = "edge" if mode == "clamp" else "constant"
    return np.pad(vol, ((zlo, zhi), (ylo, yhi), (xlo, xhi)), mode=np_mode)


def crop_volume(vol: np.ndarray, box) -> np.ndarray:
    x0, y0, z0, x1, y1, z1 = box
    return vol[z0:z1, y0:y1, x0:x1].copy()


def permute_volume(vol: np.ndarray, order: str) -> np.ndarray:
    # vol axes are (z, y, x); output axes (z', y', x') pull from the
    # source axes named by order = (for x', for y', for z')
    idx = {"z": 0, "y": 1, "x": 2}
    return np.transpose(vol, (idx[order[2]], idx[order[1]], idx[order[0]])).copy()


def saturating_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype.kind == "f":
        return a + b
    hi = np.iinfo(a.dtype).max
    return np.minimum(a.astype(np.int64) + b.astype(np.int64), hi).astype(a.dtype)


def greedy_windows(graph: PipelineGraph, meta, budget, concurrent=False):
    """Window growth by stepping: one slice at a time, first fit wins.

    Starts every tunable window (as its op record says; shared-window
    members excepted) at its minimum, its k_z, and returns None when that
    overflows. Then it repeatedly gives one more slice to the first
    tunable stage, in topo order, whose grown window is within its input
    depth and still fits, re-pricing the whole ledger after every step,
    until no stage can grow. Returns (graph, window_resize actions) like
    planner.optimize_windows.
    """
    def set_window(st, w):
        st.w = w
        st.s = (w - st.k_z + 1) if st.op_kind in KERNEL_OPS else w

    def fits():
        return estimate_pipeline(g, meta, budget, concurrent).fits()

    nodes = []
    for st in graph.nodes:
        c = copy.copy(st)
        c.params = dict(st.params)
        nodes.append(c)
    g = PipelineGraph(nodes, list(graph.edges),
                      shared_windows=list(graph.shared_windows))
    shared = {n for grp in graph.shared_windows for n in grp.members}
    metas = propagate_meta(g, meta)
    caps = {st.name: metas[st.name][0].depth for st in g.nodes}
    tunables = [st for st in g.topo_order()
                if OPS[st.op_kind].tunable and st.name not in shared]
    for st in tunables:
        set_window(st, min(st.k_z, caps[st.name]))
    if not fits():
        return None
    grown = True
    while grown:
        grown = False
        for st in tunables:
            if st.w + 1 > caps[st.name]:
                continue
            set_window(st, st.w + 1)
            if fits():
                grown = True
                break
            set_window(st, st.w - 1)
    original = {st.name: st.w for st in graph.nodes}
    actions = [RepairAction("window_resize",
                            {"stage": st.name, "old_w": original[st.name],
                             "new_w": st.w})
               for st in g.topo_order() if st.w != original[st.name]]
    return g, actions


def scan_midwrites(graph: PipelineGraph, meta, budget, tmpdir, concurrent=False):
    """Mid-write splits by scanning: every round prices each prefix plus its
    mid-write with a full ledger and keeps the last cut that fits, then
    goes on from a mid-read of the volume at that cut. Returns a
    MidwriteResult like planner.insert_midwrites."""
    def seg_fits(seg_stages, m):
        return estimate_pipeline(chain(*seg_stages), m, budget, concurrent).fits()

    def mid_write(path, idx):
        return PlanStage(f"midwrite{idx}", "write", params={"dir": path, "internal": True})

    segments = []
    actions = []
    part = 0
    cur = [copy.copy(st) for st in graph.linear_order()]
    cur_meta = meta
    while True:
        if seg_fits(cur, cur_meta):
            segments.append(chain(*cur))
            break
        metas = propagate_meta(chain(*cur), cur_meta)
        path = str(Path(tmpdir) / f"mid{part}")
        best = None
        for j in range(1, len(cur) - 1):
            if seg_fits(cur[:j + 1] + [mid_write(path, part)], cur_meta):
                best = j
        if best is None:
            violating = cur[1].name if len(cur) > 1 else cur[0].name
            return MidwriteResult(segments, actions, False, violating)
        inter_meta = metas[cur[best].name][1]
        segments.append(chain(*cur[:best + 1], mid_write(path, part)))
        actions.append(RepairAction("midwrite", {
            "after": cur[best].name, "path": path,
            "bytes": 2 * inter_meta.voxels * inter_meta.dtype.byte_width}))
        cur = [PlanStage(f"midread{part}", "read",
                         params={"dir": path, "meta": inter_meta})] + cur[best + 1:]
        cur_meta = inter_meta
        part += 1
    return MidwriteResult(segments, actions, True)


# ---------------------------------------------------------------------------
# frozen voxel loops: fresh arrays per term, int64 for integer arithmetic
# ---------------------------------------------------------------------------

def _frozen_pad_xy(arr, ry, rx):
    a = arr.astype(np.float64)
    if ry == 0 and rx == 0:
        return a
    return np.pad(a, ((ry, ry), (rx, rx)), mode="edge")


def _frozen_conv2d_clamp(arr, k2d):
    ky, kx = k2d.shape
    ry, rx = ky // 2, kx // 2
    ny, nx = arr.shape
    ap = _frozen_pad_xy(arr, ry, rx)
    out = np.zeros((ny, nx), dtype=np.float64)
    for b in range(ky):
        for c in range(kx):
            wgt = k2d[b, c]
            if wgt == 0.0:
                continue
            out += wgt * ap[2 * ry - b:2 * ry - b + ny, 2 * rx - c:2 * rx - c + nx]
    return out


def frozen_conv_window(window, kernel, lo, hi):
    kz = kernel.k_z
    outs = []
    for j in range(lo, hi + 1):
        acc = None
        for a in range(kz):
            term = _frozen_conv2d_clamp(window[j + kz - 1 - a].data, kernel.weights[a])
            acc = term if acc is None else acc + term
        outs.append(acc)
    return outs


def _frozen_conv1d_clamp(arr, g, axis):
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


def frozen_gaussian_window(window, g1d, lo, hi):
    kz = len(g1d)
    outs = []
    for j in range(lo, hi + 1):
        acc = None
        for a in range(kz):
            plane = window[j + kz - 1 - a].data.astype(np.float64)
            acc = g1d[a] * plane if acc is None else acc + g1d[a] * plane
        acc = _frozen_conv1d_clamp(acc, g1d, axis=0)  # y
        acc = _frozen_conv1d_clamp(acc, g1d, axis=1)  # x
        outs.append(acc)
    return outs


def _frozen_max(dtype):
    return 1.0 if dtype.kind == "f32" else np.iinfo(dtype.np_dtype).max


def frozen_threshold(arr, t, dtype):
    out = np.zeros_like(arr)
    out[arr >= t] = _frozen_max(dtype)
    return out


def frozen_square(arr, dtype):
    if dtype.kind == "f32":
        return (arr.astype(np.float64) ** 2).astype(dtype.np_dtype)
    sq = arr.astype(np.int64) ** 2
    return np.minimum(sq, _frozen_max(dtype)).astype(dtype.np_dtype)


def frozen_saturating_add(a, b, dtype):
    if dtype.kind == "f32":
        return (a.astype(np.float64) + b.astype(np.float64)).astype(dtype.np_dtype)
    tot = a.astype(np.int64) + b.astype(np.int64)
    return np.clip(tot, 0, _frozen_max(dtype)).astype(dtype.np_dtype)


def frozen_cast_array(arr, dtype):
    if arr.dtype == dtype.np_dtype:
        return arr
    if dtype.kind == "f32":
        return arr.astype(dtype.np_dtype)
    info = np.iinfo(dtype.np_dtype)
    return np.clip(np.rint(arr), info.min, info.max).astype(dtype.np_dtype)

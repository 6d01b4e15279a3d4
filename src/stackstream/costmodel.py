"""Analytical I/O cost model: halo geometry and chunk reread simulation.

Neighbourhood operators over a chunked store must assemble each chunk's
halo before producing output, so traversal order and cache policy decide
how often the same chunk is fetched. This module simulates that. Caches
are exact-capacity and refreshed at the granularity of whole working
sets, so results depend only on traversal order and the cache regime,
never on intra-step access order. Two regimes exist: plain
least-recently-used history ("lru"), and "working_set", which models a
processor that keeps exactly the current halo'd working set resident and
drops everything else when the window moves.

Reference regimes on a 5x5x5 grid with a 3x3x3 kernel:

* random order with no reuse (capacity 0): every interior chunk is
  fetched once per working set containing it, 27 reads (1 + 26 rereads);
* a z-major raster in working_set mode: moving the window one step along
  x rereads only its 3x3 leading face, but nothing survives a row
  change, so every interior chunk is read exactly 9 times per sweep (one
  per covering row pass);
* a slice sweep over the 2D layout (one kernel-window of slices
  resident): every slice is read exactly once.

Plain LRU with generous capacity only improves on these; both regime and
capacity are free parameters.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .core import PlanningError, VolumeMeta
from .io import ChunkGrid

POLICY_KINDS = ("slice_sweep_up", "slice_sweep_down", "chunk_random", "chunk_curve")


CACHE_MODES = ("lru", "working_set")


@dataclass(frozen=True)
class TraversalPolicy:
    """Visit order plus an exact-capacity cache (in chunks or slices)."""

    kind: str
    cache_capacity: int
    seed: int = 0
    order: str = "zyx"  # raster nesting for chunk_curve, outermost first
    cache_mode: str = "lru"

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise PlanningError(f"unknown traversal policy {self.kind!r}")
        if self.cache_capacity < 0:
            raise PlanningError("cache capacity must be >= 0")
        if self.cache_mode not in CACHE_MODES:
            raise PlanningError(f"unknown cache mode {self.cache_mode!r}")


@dataclass(frozen=True)
class CostReport:
    """Per-chunk read statistics for one simulated traversal."""

    policy: str
    units: str              # "chunks" or "slices"
    unit_count: int
    total_reads: int
    reads_min: int
    reads_mean: float
    reads_max: int
    interior_reads: Optional[int]   # exact common value, None if mixed/absent
    amplification: float
    halo_bytes: int

    def line(self) -> str:
        interior = "-" if self.interior_reads is None else str(self.interior_reads)
        return (f"{self.policy:<18} units={self.units:<6} n={self.unit_count:<5} "
                f"reads={self.total_reads:<6} interior={interior:<4} "
                f"amplification={self.amplification:.2f}")


def halo_extent(chunk_dims, kernel_dims):
    """Input region needed to produce one full chunk of output.

    For kernel edges (kx, ky, kz) the region is (m+kx-1, n+ky-1, o+kz-1);
    a kernel as large as the chunk needs (2m-1, 2n-1, 2o-1). Kernels
    larger than a chunk would need halos spanning several chunk shells,
    which this model does not cover.
    """
    out = []
    for m, k in zip(chunk_dims, kernel_dims):
        if k < 1 or k % 2 == 0:
            raise PlanningError("kernel dims must be odd and >= 1")
        if k > m:
            raise PlanningError(
                f"kernel edge {k} exceeds chunk edge {m}: multi-chunk halos unsupported")
        out.append(m + k - 1)
    return tuple(out)


def _neighbourhood(index, dims, spans):
    """Clipped working set of chunk indices around `index`."""
    iz, iy, ix = index
    gz, gy, gx = dims
    rz, ry, rx = spans
    out = []
    for dz in range(-rz, rz + 1):
        z = iz + dz
        if not 0 <= z < gz:
            continue
        for dy in range(-ry, ry + 1):
            y = iy + dy
            if not 0 <= y < gy:
                continue
            for dx in range(-rx, rx + 1):
                x = ix + dx
                if 0 <= x < gx:
                    out.append((z, y, x))
    return out


def _cache_run(order, need_of, capacity, mode="lru"):
    """Reads per unit under a set-granularity cache with exact capacity.

    lru keeps the most recently refreshed entries; working_set keeps only
    the current working set (everything else drops when the window moves).
    """
    reads = Counter()
    cache = OrderedDict()
    for u in order:
        need = need_of(u)
        if capacity == 0:
            for v in need:
                reads[v] += 1
            continue
        for v in need:
            if v not in cache:
                reads[v] += 1
        if mode == "working_set":
            cache = OrderedDict((v, True) for v in need)
        else:
            for v in need:  # refresh the whole working set
                cache.pop(v, None)
                cache[v] = True
        while len(cache) > capacity:
            cache.popitem(last=False)
    return reads


def simulate_rereads(grid: ChunkGrid, policy: TraversalPolicy,
                     kernel_dims) -> CostReport:
    """Count chunk fetches while visiting every chunk's halo neighbourhood.

    Reads are at chunk granularity (the chunk is the I/O unit); slice
    policies treat the stack as one slice per z with the kernel's z span
    as the working set.
    """
    kx, ky, kz = kernel_dims
    b = grid.meta.dtype.byte_width
    hx, hy, hz = halo_extent((grid.cx, grid.cy, grid.cz), kernel_dims)
    halo_bytes = (hx * hy * hz - grid.cx * grid.cy * grid.cz) * b

    if policy.kind in ("slice_sweep_up", "slice_sweep_down"):
        d = grid.meta.depth
        rz = kz // 2
        zs = range(d) if policy.kind == "slice_sweep_up" else range(d - 1, -1, -1)
        need = lambda z: [c for c in range(z - rz, z + rz + 1) if 0 <= c < d]
        reads = _cache_run(list(zs), need, policy.cache_capacity,
                          policy.cache_mode)
        interior = [z for z in range(d) if rz <= z < d - rz]
        return _report(policy.kind, "slices", d, reads, interior, 0)

    dims = (grid.gz, grid.gy, grid.gx)
    spans = (1 if kz > 1 else 0, 1 if ky > 1 else 0, 1 if kx > 1 else 0)
    all_chunks = list(product(range(dims[0]), range(dims[1]), range(dims[2])))
    if policy.kind == "chunk_random":
        rng = np.random.default_rng(policy.seed)
        order = [all_chunks[i] for i in rng.permutation(len(all_chunks))]
    else:
        axes = {"z": 0, "y": 1, "x": 2}
        nest = [axes[c] for c in policy.order]
        ranges = [range(dims[nest[0]]), range(dims[nest[1]]), range(dims[nest[2]])]
        order = []
        for a in ranges[0]:
            for bq in ranges[1]:
                for c in ranges[2]:
                    idx = [0, 0, 0]
                    idx[nest[0]], idx[nest[1]], idx[nest[2]] = a, bq, c
                    order.append(tuple(idx))
    need = lambda u: _neighbourhood(u, dims, spans)
    reads = _cache_run(order, need, policy.cache_capacity, policy.cache_mode)
    interior = [u for u in all_chunks
                if all((s == 0 or 0 < i < g - 1) for i, g, s in zip(u, dims, spans))]
    return _report(policy.kind, "chunks", len(all_chunks), reads, interior, halo_bytes)


def _report(policy, units, count, reads, interior, halo_bytes) -> CostReport:
    per_unit = list(reads.values()) or [0]
    total = sum(reads.values())
    interior_vals = {reads.get(u, 0) for u in interior}
    interior_exact = interior_vals.pop() if len(interior_vals) == 1 else None
    return CostReport(
        policy=policy,
        units=units,
        unit_count=count,
        total_reads=total,
        reads_min=min(per_unit),
        reads_mean=total / count,
        reads_max=max(per_unit),
        interior_reads=interior_exact,
        amplification=total / count,
        halo_bytes=halo_bytes,
    )


def two_plane_capacity(grid: ChunkGrid) -> int:
    """Chunks in two full x-y layers of the grid."""
    return 2 * grid.gx * grid.gy


def default_policies(grid: ChunkGrid, kernel_dims, seed: int = 0):
    """The three reference regimes: worst-case random, raster curve, slice sweep."""
    kz = kernel_dims[2]
    return [
        TraversalPolicy("chunk_random", cache_capacity=0, seed=seed),
        TraversalPolicy("chunk_curve", cache_capacity=two_plane_capacity(grid),
                        cache_mode="working_set"),
        TraversalPolicy("slice_sweep_up", cache_capacity=max(kz, 1)),
    ]


def layout_report(meta: VolumeMeta, grid: ChunkGrid, kernel_dims,
                  policies=None, seed: int = 0) -> str:
    """Deterministic text table comparing traversal policies."""
    if policies is None:
        policies = default_policies(grid, kernel_dims, seed=seed)
    kx, ky, kz = kernel_dims
    lines = [f"io cost model volume={meta} chunks={grid.cx}x{grid.cy}x{grid.cz} "
             f"grid={grid.gx}x{grid.gy}x{grid.gz} kernel={kx}x{ky}x{kz}"]
    for pol in policies:
        rep = simulate_rereads(grid, pol, kernel_dims)
        lines.append(f"  cache={pol.cache_capacity:<5} {rep.line()}")
    return "\n".join(lines)

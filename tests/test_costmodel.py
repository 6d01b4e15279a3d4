import pytest

from stackstream.core import U8, PlanningError, VolumeMeta
from stackstream.costmodel import (TraversalPolicy,
                                   default_policies, halo_extent,
                                   layout_report, simulate_rereads,
                                   two_plane_capacity)
from stackstream.io import ChunkGrid

GRID5 = ChunkGrid(VolumeMeta(20, 20, 20, U8), 4, 4, 4)  # 5x5x5 chunks
K3 = (3, 3, 3)


def test_halo_kernel_as_large_as_chunk():
    assert halo_extent((4, 4, 4), (4 - 1, 4 - 1, 4 - 1)) == (6, 6, 6)
    # the limiting case: kernel edges equal to chunk edges need (2m-1) input
    assert halo_extent((5, 5, 5), (5, 5, 5)) == (9, 9, 9)


def test_halo_no_kernel_no_halo():
    assert halo_extent((4, 5, 6), (1, 1, 1)) == (4, 5, 6)


def test_halo_general_arithmetic():
    assert halo_extent((4, 5, 6), (3, 3, 3)) == (6, 7, 8)


def test_halo_oversized_kernel_rejected():
    with pytest.raises(PlanningError):
        halo_extent((4, 4, 4), (5, 5, 5))


def test_random_minimal_cache_reads_27():
    rep = simulate_rereads(GRID5, TraversalPolicy("chunk_random", 0, seed=1), K3)
    assert rep.interior_reads == 27


def test_curve_two_plane_working_set_reads_9():
    pol = TraversalPolicy("chunk_curve", two_plane_capacity(GRID5),
                          cache_mode="working_set")
    rep = simulate_rereads(GRID5, pol, K3)
    assert rep.interior_reads == 9


def test_slice_sweep_reads_once():
    rep = simulate_rereads(GRID5, TraversalPolicy("slice_sweep_up", 3), K3)
    assert rep.interior_reads == 1
    assert rep.amplification == 1.0
    rep = simulate_rereads(GRID5, TraversalPolicy("slice_sweep_down", 3), K3)
    assert rep.interior_reads == 1


def test_whole_grid_cache_reads_each_chunk_once():
    for kind in ("chunk_random", "chunk_curve"):
        rep = simulate_rereads(GRID5, TraversalPolicy(kind, 125, seed=4), K3)
        assert rep.total_reads == 125
        assert rep.reads_max == 1


def test_amplification_ordering():
    reps = [simulate_rereads(GRID5, p, K3)
            for p in default_policies(GRID5, K3, seed=7)]
    rand, curve, sweep = reps
    assert rand.amplification >= curve.amplification >= sweep.amplification
    assert sweep.amplification == 1.0


def test_random_policy_deterministic_per_seed():
    a = simulate_rereads(GRID5, TraversalPolicy("chunk_random", 30, seed=5), K3)
    b = simulate_rereads(GRID5, TraversalPolicy("chunk_random", 30, seed=5), K3)
    assert a == b


def test_kernel_one_no_amplification():
    for pol in default_policies(GRID5, (1, 1, 1)):
        rep = simulate_rereads(GRID5, pol, (1, 1, 1))
        assert rep.amplification == 1.0


def test_single_chunk_grid_amplification_one():
    grid = ChunkGrid(VolumeMeta(4, 4, 4, U8), 4, 4, 4)
    for pol in default_policies(grid, K3):
        if pol.kind.startswith("slice"):
            continue
        rep = simulate_rereads(grid, pol, K3)
        assert rep.amplification == 1.0


def test_layout_report_rows():
    text = layout_report(GRID5.meta, GRID5, K3, seed=0)
    lines = text.splitlines()
    assert "grid=5x5x5" in lines[0]
    assert "interior=27" in lines[1]
    assert "interior=9" in lines[2]
    assert "interior=1" in lines[3]
    # deterministic
    assert text == layout_report(GRID5.meta, GRID5, K3, seed=0)


def test_policy_validation():
    with pytest.raises(PlanningError):
        TraversalPolicy("diagonal", 1)
    with pytest.raises(PlanningError):
        TraversalPolicy("chunk_random", -1)
    with pytest.raises(PlanningError):
        TraversalPolicy("chunk_curve", 1, cache_mode="magic")


def test_halo_bytes_reported():
    rep = simulate_rereads(GRID5, TraversalPolicy("chunk_random", 0, seed=0), K3)
    assert rep.halo_bytes == (6 ** 3 - 4 ** 3) * 1

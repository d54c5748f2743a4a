"""Countermeasure disturbance generators: sequences, costs, windows."""

from __future__ import annotations

import random

import pytest

from ctlab import countermeasures as cm
from ctlab.cachesim import PACKED_LAYOUT, PARTITIONED_LAYOUT

# First draws for seed 1234, pinned once generated.
GOLDEN_RANDOM_LOOP = [14, 3, 0, 2, 18, 1, 2, 3, 11, 7, 0, 0, 0, 11, 19, 15, 19, 14, 4, 2, 5, 3, 0, 16]


def random_loop_draw(prng: random.Random) -> int:
    """One random_loop request's loop count; every draw checks its cost."""
    rep = cm.apply(cm.Kind.RANDOM_LOOP, prng)
    assert rep.extra_cycles == 3800 + 7 * rep.loop_count
    return rep.loop_count


def prefetch_next(state: cm.PrefetchState) -> list[tuple[int, int]]:
    """Oracle: the current 16-entry window across Te0..Te3, then advance.

    One window is 64 accesses (16 consecutive indices on each of the
    four main-round tables); 16 consecutive windows sweep every index
    of every table exactly once.
    """
    start = state.window_start
    window = [(tid, (start + i) % 256) for tid in range(4) for i in range(16)]
    state.window_start = (start + 16) % 256
    return window


def test_specified_loop_first_six():
    st = cm.SpecifiedLoopState()
    assert [cm.specified_loop_next(st) for _ in range(6)] == [104, 6, 0, 104, 6, 0]


def test_specified_loop_period_three():
    st = cm.SpecifiedLoopState()
    seq = [cm.specified_loop_next(st) for _ in range(300)]
    assert seq == [104, 6, 0] * 100


def test_specified_loop_hand_trace():
    assert 1777 // 17 == 104
    assert 104 // 17 == 6
    assert 6 // 17 == 0 < 6  # triggers the reset and a zero count


def test_specified_loop_cost():
    st = cm.SpecifiedLoopState()
    first = cm.apply(cm.Kind.SPECIFIED_LOOP, st)
    assert first.extra_cycles == 20 + 104 * 7 == 748
    assert first.loop_count == st.gen == 104
    assert cm.apply(cm.Kind.SPECIFIED_LOOP, st).extra_cycles == 20 + 6 * 7
    assert cm.apply(cm.Kind.SPECIFIED_LOOP, st).extra_cycles == 20


def test_random_loop_range_and_golden_sequence():
    prng = random.Random(1234)
    seq = [random_loop_draw(prng) for _ in range(len(GOLDEN_RANDOM_LOOP))]
    assert seq == GOLDEN_RANDOM_LOOP
    prng = random.Random(999)
    for _ in range(2000):
        assert 0 <= random_loop_draw(prng) < 20


def test_random_loop_uniformity_five_sigma():
    prng = random.Random(20250101)
    n = 200_000
    freq = [0] * 20
    for _ in range(n):
        freq[random_loop_draw(prng)] += 1
    expected = n / 20
    sigma = (n * (1 / 20) * (19 / 20)) ** 0.5
    for f in freq:
        assert abs(f - expected) <= 5 * sigma


def test_random_loop_cost_formula():
    # random_loop_draw pins the formula on every draw; these reach both ends
    prng = random.Random(42)
    counts = {random_loop_draw(prng) for _ in range(500)}
    assert min(counts) == 0 and max(counts) == 19


def test_prefetch_window_contents():
    st = cm.make_state(cm.Kind.PREFETCH)
    w = prefetch_next(st)
    assert len(w) == 64
    assert w[:3] == [(0, 0), (0, 1), (0, 2)]
    assert [t for t, _ in w] == [0] * 16 + [1] * 16 + [2] * 16 + [3] * 16
    assert st.window_start == 16
    w2 = prefetch_next(st)
    assert w2[0] == (0, 16)


def test_prefetch_wraps_and_covers_every_index():
    st = cm.PrefetchState(cm.PREFETCH_RUNS, window_start=240)
    w = prefetch_next(st)
    assert (0, 255) in w and (0, 240) in w
    assert st.window_start == 0
    seen: dict[int, list[int]] = {t: [] for t in range(4)}
    for _ in range(16):
        for t, i in prefetch_next(st):
            seen[t].append(i)
    for t in range(4):
        assert sorted(seen[t]) == list(range(256))


def test_prefetch_apply_five_windows():
    st = cm.make_state(cm.Kind.PREFETCH)
    rep = cm.apply(cm.Kind.PREFETCH, st)
    assert len(rep.extra_accesses) == 320
    assert rep.extra_cycles == 0 and rep.loop_count == 0
    assert st.window_start == 80  # advanced five windows


@pytest.mark.parametrize("start", range(0, 256, 16))
def test_prefetch_run_is_five_successive_windows(start):
    oracle = cm.PrefetchState(cm.PREFETCH_RUNS, window_start=start)
    expected = [entry for _ in range(5) for entry in prefetch_next(oracle)]
    st = cm.PrefetchState(cm.PREFETCH_RUNS, window_start=start)
    rep = cm.apply(cm.Kind.PREFETCH, st)
    assert list(rep.extra_accesses) == expected
    assert st.window_start == oracle.window_start == (start + 80) % 256


def test_none_report_is_empty():
    rep = cm.apply(cm.Kind.NONE)
    assert rep == cm.DisturbanceReport(0, (), 0)
    assert rep is cm.NO_DISTURBANCE is cm.apply(cm.Kind.CACHE_PARTITION)


def test_partition_overrides_layout_only():
    assert cm.apply(cm.Kind.CACHE_PARTITION) == cm.DisturbanceReport()
    assert cm.table_layout(cm.Kind.CACHE_PARTITION) is PARTITIONED_LAYOUT
    for kind in cm.Kind:
        if kind is not cm.Kind.CACHE_PARTITION:
            assert cm.table_layout(kind) is PACKED_LAYOUT


def test_make_state():
    assert cm.make_state(cm.Kind.NONE) is None
    assert isinstance(cm.make_state(cm.Kind.SPECIFIED_LOOP), cm.SpecifiedLoopState)
    assert isinstance(cm.make_state(cm.Kind.PREFETCH), cm.PrefetchState)
    for seed in (1, 1234):
        state, oracle = cm.make_state(cm.Kind.RANDOM_LOOP, seed), random.Random(seed)
        assert [state.random() for _ in range(50)] == [oracle.random() for _ in range(50)]
    for layout in (PACKED_LAYOUT, PARTITIONED_LAYOUT):
        placed = cm.make_state(cm.Kind.PREFETCH, record=layout.rows).runs
        assert len(placed) == len(cm.PREFETCH_RUNS) == 16
        for got, run in zip(placed, cm.PREFETCH_RUNS):
            assert list(got) == [layout.bases[t] + 4 * i for t, i in run]
    assert cm.make_state(cm.Kind.PREFETCH).runs == cm.PREFETCH_RUNS

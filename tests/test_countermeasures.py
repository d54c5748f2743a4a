"""Countermeasure disturbance generators: sequences, costs, windows."""

from __future__ import annotations

import random

import pytest

from ctlab import countermeasures as cm
from ctlab.cachesim import PACKED_LAYOUT, PARTITIONED_LAYOUT

# First draws for seed 1234, pinned once generated.
GOLDEN_RANDOM_LOOP = [14, 3, 0, 2, 18, 1, 2, 3, 11, 7, 0, 0, 0, 11, 19, 15, 19, 14, 4, 2, 5, 3, 0, 16]


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
    assert cm.apply(cm.Kind.SPECIFIED_LOOP, st).extra_cycles == 20 + 6 * 7
    assert cm.apply(cm.Kind.SPECIFIED_LOOP, st).extra_cycles == 20
    assert cm.specified_loop_cycles(104) == 748


def test_random_loop_range_and_golden_sequence():
    prng = random.Random(1234)
    seq = [cm.random_loop_next(prng) for _ in range(len(GOLDEN_RANDOM_LOOP))]
    assert seq == GOLDEN_RANDOM_LOOP
    prng = random.Random(999)
    for _ in range(2000):
        assert 0 <= cm.random_loop_next(prng) < 20


def test_random_loop_uniformity_five_sigma():
    prng = random.Random(20250101)
    n = 200_000
    freq = [0] * 20
    for _ in range(n):
        freq[cm.random_loop_next(prng)] += 1
    expected = n / 20
    sigma = (n * (1 / 20) * (19 / 20)) ** 0.5
    for f in freq:
        assert abs(f - expected) <= 5 * sigma


def test_random_loop_cost_formula():
    # Formula pinned at the bound itself and at real draw values.
    assert cm.random_loop_cycles(20) == 3800 + 20 * 7 == 3940
    assert cm.random_loop_cycles(0) == 3800
    prng = random.Random(42)
    rep = cm.apply(cm.Kind.RANDOM_LOOP, prng)
    assert 3800 <= rep.extra_cycles <= 3800 + 19 * 7
    assert (rep.extra_cycles - 3800) % 7 == 0


def test_prefetch_window_contents():
    st = cm.PrefetchState()
    w = cm.prefetch_next(st)
    assert len(w) == 64
    assert w[:3] == [(0, 0), (0, 1), (0, 2)]
    assert [t for t, _ in w] == [0] * 16 + [1] * 16 + [2] * 16 + [3] * 16
    assert st.window_start == 16
    w2 = cm.prefetch_next(st)
    assert w2[0] == (0, 16)


def test_prefetch_wraps_and_covers_every_index():
    st = cm.PrefetchState(window_start=240)
    w = cm.prefetch_next(st)
    assert (0, 255) in w and (0, 240) in w
    assert st.window_start == 0
    seen: dict[int, list[int]] = {t: [] for t in range(4)}
    for _ in range(16):
        for t, i in cm.prefetch_next(st):
            seen[t].append(i)
    for t in range(4):
        assert sorted(seen[t]) == list(range(256))


def test_prefetch_apply_five_windows():
    st = cm.PrefetchState()
    rep = cm.apply(cm.Kind.PREFETCH, st)
    assert len(rep.extra_accesses) == 320
    assert rep.extra_cycles == 0 and rep.loop_count == 0
    assert st.window_start == 80  # advanced five windows


@pytest.mark.parametrize("start", range(0, 256, 16))
def test_prefetch_run_is_five_successive_windows(start):
    oracle = cm.PrefetchState(window_start=start)
    expected = [entry for _ in range(5) for entry in cm.prefetch_next(oracle)]
    st = cm.PrefetchState(window_start=start)
    rep = cm.apply(cm.Kind.PREFETCH, st)
    assert list(rep.extra_accesses) == expected
    assert st.window_start == oracle.window_start == (start + 80) % 256


def test_none_report_is_empty():
    rep = cm.apply(cm.Kind.NONE)
    assert rep == cm.DisturbanceReport(0, (), 0)


def test_partition_overrides_layout_only():
    assert cm.apply(cm.Kind.CACHE_PARTITION) == cm.DisturbanceReport()
    assert cm.table_layout(cm.Kind.CACHE_PARTITION) is PARTITIONED_LAYOUT
    for kind in cm.Kind:
        if kind is not cm.Kind.CACHE_PARTITION:
            assert cm.table_layout(kind) is PACKED_LAYOUT


def test_state_kind_mismatch_errors():
    with pytest.raises(cm.StateError):
        cm.apply(cm.Kind.SPECIFIED_LOOP, state=None)
    with pytest.raises(cm.StateError):
        cm.apply(cm.Kind.PREFETCH, state=cm.SpecifiedLoopState())
    with pytest.raises(cm.StateError):
        cm.apply(cm.Kind.NONE, state=cm.PrefetchState())
    with pytest.raises(cm.StateError):
        cm.apply(cm.Kind.RANDOM_LOOP, state=None)


# For each kind, a state object of the wrong type (None where one is required).
WRONG_STATE = {
    cm.Kind.NONE: cm.PrefetchState(),
    cm.Kind.RANDOM_LOOP: cm.SpecifiedLoopState(),
    cm.Kind.SPECIFIED_LOOP: cm.PrefetchState(),
    cm.Kind.PREFETCH: None,
    cm.Kind.CACHE_PARTITION: cm.SpecifiedLoopState(),
}


@pytest.mark.parametrize("kind", list(cm.Kind), ids=lambda k: k.value)
def test_native_and_simulated_reject_the_same_states(kind):
    with pytest.raises(cm.StateError):
        cm.apply(kind, WRONG_STATE[kind])
    with pytest.raises(cm.StateError):
        cm.execute_disturbance(kind, WRONG_STATE[kind])


def test_make_state():
    assert cm.make_state(cm.Kind.NONE) is None
    assert isinstance(cm.make_state(cm.Kind.SPECIFIED_LOOP), cm.SpecifiedLoopState)
    assert isinstance(cm.make_state(cm.Kind.PREFETCH), cm.PrefetchState)
    for seed in (1, 1234):
        state, oracle = cm.make_state(cm.Kind.RANDOM_LOOP, seed), random.Random(seed)
        assert [state.random() for _ in range(50)] == [oracle.random() for _ in range(50)]
    for layout in (PACKED_LAYOUT, PARTITIONED_LAYOUT):
        placed = cm.make_state(cm.Kind.PREFETCH, layout=layout).runs
        assert len(placed) == len(cm.PREFETCH_RUNS) == 16
        for got, run in zip(placed, cm.PREFETCH_RUNS):
            assert list(got) == layout.resolve(run)
    assert cm.make_state(cm.Kind.PREFETCH).runs == cm.PREFETCH_RUNS


def test_execute_disturbance_runs_and_advances_state():
    st = cm.PrefetchState()
    cm.execute_disturbance(cm.Kind.PREFETCH, st)
    assert st.window_start == 80
    st2 = cm.SpecifiedLoopState()
    cm.execute_disturbance(cm.Kind.SPECIFIED_LOOP, st2)
    assert st2.gen == 104
    cm.execute_disturbance(cm.Kind.RANDOM_LOOP, random.Random(1))
    cm.execute_disturbance(cm.Kind.NONE)
    cm.execute_disturbance(cm.Kind.CACHE_PARTITION)

"""Countermeasure disturbance generators: sequences, costs, windows."""

from __future__ import annotations

import random
from itertools import islice

import pytest

from ctlab import countermeasures as cm
from ctlab.cachesim import PACKED_LAYOUT, PARTITIONED_LAYOUT

# First draws for seed 1234, pinned once generated.
GOLDEN_RANDOM_LOOP = [14, 3, 0, 2, 18, 1, 2, 3, 11, 7, 0, 0, 0, 11, 19, 15, 19, 14, 4, 2, 5, 3, 0, 16]


def random_loop_draws(seed: int, n: int) -> list[int]:
    """n random_loop requests' loop counts, drawn by a parallel
    Random(seed); every request's cost is checked against its count."""
    state, oracle = cm.make_state(cm.Kind.RANDOM_LOOP, seed), random.Random(seed)
    counts = []
    for _ in range(n):
        count = oracle.randrange(20)
        assert cm.apply(cm.Kind.RANDOM_LOOP, state).extra_cycles == 3800 + 7 * count
        counts.append(count)
    return counts


def window(w: int) -> list[tuple[int, int]]:
    """Oracle: prefetch window w (mod 16) across Te0..Te3.

    One window is 64 accesses (16 consecutive indices from 16w on each of
    the four main-round tables); 16 consecutive windows sweep every index
    of every table exactly once.
    """
    start = 16 * (w % 16)
    return [(tid, start + i) for tid in range(4) for i in range(16)]


def request_windows(k: int) -> list[tuple[int, int]]:
    """Oracle: what prefetch request k injects, windows 5k .. 5k+4."""
    return [entry for w in range(5 * k, 5 * k + 5) for entry in window(w)]


def prefetch_requests(n: int, **kw) -> list[list]:
    """The extra accesses of a fresh prefetch server's first n requests."""
    state = cm.make_state(cm.Kind.PREFETCH, **kw)
    return [list(cm.apply(cm.Kind.PREFETCH, state).extra_accesses) for _ in range(n)]


def test_specified_loop_first_six():
    assert list(islice(cm.make_state(cm.Kind.SPECIFIED_LOOP), 6)) == [104, 6, 0, 104, 6, 0]


def test_specified_loop_period_three():
    seq = list(islice(cm.make_state(cm.Kind.SPECIFIED_LOOP), 300))
    assert seq == [104, 6, 0] * 100


def test_specified_loop_hand_trace():
    assert 1777 // 17 == 104
    assert 104 // 17 == 6
    assert 6 // 17 == 0 < 6  # triggers the reset and a zero count


def test_specified_counts_are_one_period_of_the_rule():
    # start at 1777, divide by 17; a quotient below 6 reloads 1777 and counts 0
    gen, period = 1777, []
    while not period or gen != 1777:
        gen //= 17
        if gen < 6:
            gen = 1777
            period.append(0)
        else:
            period.append(gen)
    assert tuple(period) == cm.SPECIFIED_COUNTS


def test_specified_loop_cost():
    st = cm.make_state(cm.Kind.SPECIFIED_LOOP)
    assert cm.apply(cm.Kind.SPECIFIED_LOOP, st).extra_cycles == 20 + 104 * 7 == 748
    assert cm.apply(cm.Kind.SPECIFIED_LOOP, st).extra_cycles == 20 + 6 * 7
    assert cm.apply(cm.Kind.SPECIFIED_LOOP, st).extra_cycles == 20


def test_random_loop_range_and_golden_sequence():
    assert random_loop_draws(1234, len(GOLDEN_RANDOM_LOOP)) == GOLDEN_RANDOM_LOOP
    for count in random_loop_draws(999, 2000):
        assert 0 <= count < 20


def test_random_loop_uniformity_five_sigma():
    n = 200_000
    freq = [0] * 20
    for count in random_loop_draws(20250101, n):
        freq[count] += 1
    expected = n / 20
    sigma = (n * (1 / 20) * (19 / 20)) ** 0.5
    for f in freq:
        assert abs(f - expected) <= 5 * sigma


def test_random_loop_cost_formula():
    # random_loop_draws pins the formula on every draw; these reach both ends
    counts = set(random_loop_draws(42, 500))
    assert min(counts) == 0 and max(counts) == 19


def test_prefetch_window_contents():
    w = window(0)
    assert len(w) == 64
    assert w[:3] == [(0, 0), (0, 1), (0, 2)]
    assert [t for t, _ in w] == [0] * 16 + [1] * 16 + [2] * 16 + [3] * 16
    assert window(1)[0] == (0, 16)
    first = prefetch_requests(1)[0]
    assert first[:64] == w and first[64] == (0, 16)


def test_prefetch_wraps_and_covers_every_index():
    assert (0, 255) in window(15) and (0, 240) in window(15)
    assert window(16) == window(0)
    # request 3 starts on window 15, so its second window wraps to 0
    assert prefetch_requests(4)[3][64:128] == window(0)
    seen: dict[int, list[int]] = {t: [] for t in range(4)}
    for w in range(16):
        for t, i in window(w):
            seen[t].append(i)
    for t in range(4):
        assert sorted(seen[t]) == list(range(256))


def test_prefetch_apply_five_windows():
    st = cm.make_state(cm.Kind.PREFETCH)
    rep = cm.apply(cm.Kind.PREFETCH, st)
    assert len(rep.extra_accesses) == 320
    assert rep.extra_cycles == 0
    # the next request starts five windows on
    assert list(cm.apply(cm.Kind.PREFETCH, st).extra_accesses[:64]) == window(5)


@pytest.mark.parametrize("start", range(0, 256, 16))
def test_prefetch_run_is_five_successive_windows(start):
    # of the first 32 requests (so the stream wraps once), two start on
    # the window at index start
    requests = prefetch_requests(32)
    starting_here = [k for k in range(32) if 16 * (5 * k % 16) == start]
    assert len(starting_here) == 2
    for k in starting_here:
        assert requests[k] == request_windows(k)


def test_none_report_is_empty():
    rep = cm.apply(cm.Kind.NONE)
    assert rep == cm.DisturbanceReport(0, ())
    assert rep is cm.NO_DISTURBANCE is cm.apply(cm.Kind.CACHE_PARTITION)


def test_partition_overrides_layout_only():
    assert cm.apply(cm.Kind.CACHE_PARTITION) == cm.DisturbanceReport()
    assert cm.table_layout(cm.Kind.CACHE_PARTITION) is PARTITIONED_LAYOUT
    for kind in cm.Kind:
        if kind is not cm.Kind.CACHE_PARTITION:
            assert cm.table_layout(kind) is PACKED_LAYOUT


def test_make_state():
    assert cm.make_state(cm.Kind.NONE) is None
    assert cm.make_state(cm.Kind.CACHE_PARTITION) is None
    for seed in (1, 1234):
        oracle = random.Random(seed)
        assert list(islice(cm.make_state(cm.Kind.RANDOM_LOOP, seed), 50)) == [
            oracle.randrange(20) for _ in range(50)]
    expected = [request_windows(k) for k in range(16)]
    assert prefetch_requests(16) == expected
    for layout in (PACKED_LAYOUT, PARTITIONED_LAYOUT):
        placed = prefetch_requests(16, record=layout.rows)
        for got, run in zip(placed, expected):
            assert got == [layout.bases[t] + 4 * i for t, i in run]

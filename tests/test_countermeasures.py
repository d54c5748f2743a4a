"""Countermeasure disturbance streams: sequences, costs, windows, rows."""

from __future__ import annotations

import random
from itertools import islice

import pytest

from ctlab import countermeasures as cm

# First draws for seed 1234, pinned once generated.
GOLDEN_RANDOM_LOOP = [14, 3, 0, 2, 18, 1, 2, 3, 11, 7, 0, 0, 0, 11, 19, 15, 19, 14, 4, 2, 5, 3, 0, 16]

PACKED_BASES = (0x40000, 0x40400, 0x40800, 0x40C00, 0x41000)

# The most distinct reports each kind's stream ever yields.
DISTINCT_REPORTS = {
    cm.Kind.NONE: 1, cm.Kind.RANDOM_LOOP: 20, cm.Kind.SPECIFIED_LOOP: 3,
    cm.Kind.PREFETCH: 16, cm.Kind.CACHE_PARTITION: 1,
}


def stream(kind: cm.Kind, seed: int = 1):
    return cm.make_state(kind, seed)[1]


def loop_counts(kind: cm.Kind, flat: int, n: int, seed: int = 1) -> list[int]:
    """The loop counts behind a fresh server's first n reports, each
    recovered as (extra_cycles - flat) / 7; a loop adds no accesses."""
    counts = []
    for report in islice(stream(kind, seed), n):
        count, rest = divmod(report.extra_cycles - flat, 7)
        assert rest == 0 and report.extra_accesses == ()
        counts.append(count)
    return counts


def random_loop_draws(seed: int, n: int) -> list[int]:
    """n random_loop requests' loop counts, each checked against a
    parallel Random(seed)."""
    counts, oracle = loop_counts(cm.Kind.RANDOM_LOOP, 3800, n, seed), random.Random(seed)
    assert counts == [oracle.randrange(20) for _ in range(n)]
    return counts


def window(w: int) -> list[tuple[int, int]]:
    """Oracle: prefetch window w (mod 16) across Te0..Te3.

    One window is 64 accesses (16 consecutive indices from 16w on each of
    the four main-round tables); 16 consecutive windows sweep every index
    of every table exactly once.
    """
    start = 16 * (w % 16)
    return [(tid, start + i) for tid in range(4) for i in range(16)]


def placed(entries) -> list[int]:
    """Oracle: entry (t, i) sits 4 * i bytes past table t's packed base."""
    return [PACKED_BASES[t] + 4 * i for t, i in entries]


def request_windows(k: int) -> list[int]:
    """Oracle: what prefetch request k injects, windows 5k .. 5k+4, placed."""
    return placed([entry for w in range(5 * k, 5 * k + 5) for entry in window(w)])


def prefetch_requests(n: int) -> list[list[int]]:
    """The extra accesses of a fresh prefetch server's first n requests."""
    state = stream(cm.Kind.PREFETCH)
    return [list(cm.apply(cm.Kind.PREFETCH, state).extra_accesses) for _ in range(n)]


def test_specified_loop_first_six():
    assert loop_counts(cm.Kind.SPECIFIED_LOOP, 20, 6) == [104, 6, 0, 104, 6, 0]


def test_specified_loop_period_three():
    assert loop_counts(cm.Kind.SPECIFIED_LOOP, 20, 300) == [104, 6, 0] * 100


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
    st = stream(cm.Kind.SPECIFIED_LOOP)
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
    # loop_counts pins the formula on every draw; these reach both ends
    counts = set(random_loop_draws(42, 500))
    assert min(counts) == 0 and max(counts) == 19


def test_prefetch_window_contents():
    w = window(0)
    assert len(w) == 64
    assert w[:3] == [(0, 0), (0, 1), (0, 2)]
    assert [t for t, _ in w] == [0] * 16 + [1] * 16 + [2] * 16 + [3] * 16
    assert window(1)[0] == (0, 16)
    first = prefetch_requests(1)[0]
    assert first[:64] == placed(w) and first[64] == 0x40000 + 4 * 16


def test_prefetch_wraps_and_covers_every_index():
    assert (0, 255) in window(15) and (0, 240) in window(15)
    assert window(16) == window(0)
    # request 3 starts on window 15, so its second window wraps to 0
    assert prefetch_requests(4)[3][64:128] == placed(window(0))
    seen: dict[int, list[int]] = {t: [] for t in range(4)}
    for w in range(16):
        for t, i in window(w):
            seen[t].append(i)
    for t in range(4):
        assert sorted(seen[t]) == list(range(256))


def test_prefetch_apply_five_windows():
    st = stream(cm.Kind.PREFETCH)
    rep = cm.apply(cm.Kind.PREFETCH, st)
    assert len(rep.extra_accesses) == 320
    assert rep.extra_cycles == 0
    # the next request starts five windows on
    assert list(cm.apply(cm.Kind.PREFETCH, st).extra_accesses[:64]) == placed(window(5))


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
    for kind in (cm.Kind.NONE, cm.Kind.CACHE_PARTITION):
        rep = cm.apply(kind, stream(kind))
        assert rep == cm.DisturbanceReport(0, ())
        assert rep is cm.NO_DISTURBANCE


def test_partition_overrides_layout_only():
    rows, reports = cm.make_state(cm.Kind.CACHE_PARTITION)
    assert rows is cm.PARTITIONED_ROWS
    assert all(rep is cm.NO_DISTURBANCE for rep in islice(reports, 50))
    for kind in cm.Kind:
        if kind is not cm.Kind.CACHE_PARTITION:
            assert cm.make_state(kind)[0] is cm.PACKED_ROWS


def test_make_state():
    for seed in (1, 1234):
        oracle = random.Random(seed)
        assert loop_counts(cm.Kind.RANDOM_LOOP, 3800, 50, seed) == [
            oracle.randrange(20) for _ in range(50)]
    assert prefetch_requests(16) == [request_windows(k) for k in range(16)]


@pytest.mark.parametrize("kind", list(cm.Kind))
def test_every_stream_is_endless_reports_built_once(kind):
    reports = list(islice(stream(kind, 7), 2000))
    assert len(reports) == 2000
    assert all(type(rep) is cm.DisturbanceReport for rep in reports)
    assert len({id(rep) for rep in reports}) == DISTINCT_REPORTS[kind]


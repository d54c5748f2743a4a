"""Cache model: LRU semantics, table rows, replay arithmetic, layering."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from ctlab import aes, cachesim
from ctlab.cachesim import (
    CacheConfig,
    CacheState,
    WorkingSet,
    interleave_accesses,
    run_encryption,
)
from ctlab.countermeasures import PACKED_ROWS, PARTITIONED_ROWS
from cache_oracle import RecencyOracle

PACKED_BASES = (0x40000, 0x40400, 0x40800, 0x40C00, 0x41000)
PARTITION_BASES = (0x10, 0x1000, 0x10000, 0x100000, 0x1000000)


def place(bases, entries) -> list[int]:
    """Oracle placement: entry (t, i) sits 4 * i bytes into table t."""
    return [bases[t] + 4 * i for t, i in entries]


def test_cache_model_imports_nothing_from_ctlab():
    # the cache model is a pure address model: tables and countermeasures
    # place addresses before they reach it
    tree = ast.parse(Path(cachesim.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [m for m in imported if m.startswith(".") or m.split(".")[0] == "ctlab"]


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(line_size=48)
    with pytest.raises(ValueError):
        CacheConfig(num_sets=100)
    with pytest.raises(ValueError):
        CacheConfig(assoc=0)


def test_layout_disjointness():
    for rows in (PACKED_ROWS, PARTITIONED_ROWS):
        regions = [(row[0], row[-1] + 4) for row in rows]
        for i, (s1, e1) in enumerate(regions):
            assert s1 >= 0
            for s2, e2 in regions[i + 1 :]:
                assert e1 <= s2 or e2 <= s1


def test_element_address():
    for rows, bases in ((PACKED_ROWS, PACKED_BASES), (PARTITIONED_ROWS, PARTITION_BASES)):
        assert rows[0][0] == bases[0]
        assert rows[2][7] == bases[2] + 28
        assert rows == tuple(tuple(bases[t] + 4 * i for i in range(256)) for t in range(5))


def test_partitioned_set_ranges_disjoint_te0_to_te3():
    # A large outer cache separates the four alignment stripes.
    cfg = CacheConfig(line_size=64, num_sets=32768, assoc=1)
    ranges = []
    for base in PARTITION_BASES[:4]:
        sets = {((base + off) // cfg.line_size) % cfg.num_sets for off in range(0, 1024, 4)}
        ranges.append(sets)
    for i, a in enumerate(ranges):
        for b in ranges[i + 1 :]:
            assert not (a & b)


def test_basic_hit_miss_and_stats():
    st = CacheState(CacheConfig(line_size=64, num_sets=4, assoc=2))
    assert st.access_all((0,)) == 0
    assert st.access_all((0,)) == 1
    assert st.access_all((32,)) == 1  # same line
    assert (st.hits, st.misses, st.accesses) == (2, 1, 3)
    st.flush()
    assert st.access_all((0,)) == 0
    assert (st.hits, st.misses) == (2, 2)  # flush preserves statistics


def test_lru_eviction_round_robin():
    # Three lines into one 2-way set: steady state is all misses.
    st = CacheState(CacheConfig(line_size=64, num_sets=1, assoc=2))
    addrs = [0, 64, 128]
    for a in addrs:
        st.access_all((a,))
    for _ in range(10):
        for a in addrs:
            assert st.access_all((a,)) == 0


def test_direct_mapped_alternation():
    st = CacheState(CacheConfig(line_size=64, num_sets=2, assoc=1))
    a, b = 0, 128  # same set, different lines
    for _ in range(8):
        assert st.access_all((a,)) == 0
        assert st.access_all((b,)) == 0


def test_lru_matches_recency_oracle_randomized():
    rng = random.Random(1234)
    for _ in range(40):
        line = rng.choice([4, 16, 64])
        sets = rng.choice([1, 2, 4, 8])
        assoc = rng.choice([1, 2, 3, 4])
        st = CacheState(CacheConfig(line_size=line, num_sets=sets, assoc=assoc))
        oracle = RecencyOracle(line, sets, assoc)
        pool = [rng.randrange(0, 64) * line for _ in range(8)]
        for _ in range(300):
            addr = rng.choice(pool) + rng.randrange(line)
            assert st.access_all((addr,)) == oracle.access(addr)


def _random_trace(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(5), rng.randrange(256)) for _ in range(n)]


def test_more_ways_or_sets_never_hurt():
    rng = random.Random(77)
    for _ in range(20):
        trace = _random_trace(rng, 400)
        for base_cfg, grown_cfg in [
            (CacheConfig(64, 16, 1), CacheConfig(64, 16, 2)),
            (CacheConfig(64, 16, 2), CacheConfig(64, 16, 4)),
            (CacheConfig(64, 16, 2), CacheConfig(64, 32, 2)),
            (CacheConfig(4, 64, 1), CacheConfig(4, 128, 1)),
        ]:
            small, big = CacheState(base_cfg), CacheState(grown_cfg)
            run_encryption(small, place(PACKED_BASES, trace))
            run_encryption(big, place(PACKED_BASES, trace))
            assert big.misses <= small.misses


def test_cold_misses_equal_distinct_lines():
    rng = random.Random(5)
    cfg = CacheConfig(line_size=64, num_sets=64, assoc=8)
    for bases in (PACKED_BASES, PARTITION_BASES):
        for _ in range(25):
            key, pt = rng.randbytes(16), rng.randbytes(16)
            trace: list[tuple[int, int]] = []
            aes.encrypt(pt, aes.expand_key(key), trace=trace)
            cold = CacheState(cfg)
            addresses = place(bases, trace)
            run_encryption(cold, addresses)
            lines = {a // cfg.line_size for a in addresses}
            assert cold.misses == len(lines)
            assert cold.hits == len(trace) - len(lines)


def test_second_run_all_hits_when_capacity_fits():
    cfg = CacheConfig(line_size=64, num_sets=64, assoc=4, cold_flush=False)
    st = CacheState(cfg)
    trace: list[tuple[int, int]] = []
    aes.encrypt(bytes(16), aes.expand_key(bytes(16)), trace=trace)
    addresses = place(PACKED_BASES, trace)
    run_encryption(st, addresses)
    before = st.misses
    run_encryption(st, addresses)
    assert st.misses == before


def test_cold_flush_resets_each_run():
    cfg = CacheConfig(line_size=64, num_sets=64, assoc=4, cold_flush=True)
    st = CacheState(cfg)
    trace: list[tuple[int, int]] = []
    aes.encrypt(bytes(16), aes.expand_key(bytes(16)), trace=trace)
    addresses = place(PACKED_BASES, trace)
    run_encryption(st, addresses)
    first = st.misses
    run_encryption(st, addresses)
    assert first == st.misses - first > 0


def test_cycle_arithmetic_exact():
    cfg = CacheConfig(line_size=64, num_sets=64, assoc=4, hit_cycles=2, miss_cycles=50)
    st = CacheState(cfg)
    trace: list[tuple[int, int]] = []
    aes.encrypt(b"\x01" * 16, aes.expand_key(b"\x02" * 16), trace=trace)
    cycles = run_encryption(st, place(PACKED_BASES, trace))
    assert cycles == st.hits * 2 + st.misses * 50
    assert st.accesses == 160


def test_interleave_positions():
    trace = [(0, i % 256) for i in range(160)]
    extra = [(4, 255)] * 10  # 2 per injection point
    merged = interleave_accesses(trace, extra)
    assert len(merged) == 170
    for i in range(5):
        block_at = i * 34
        assert merged[block_at : block_at + 2] == [(4, 255)] * 2
    assert [e for e in merged if e != (4, 255)] == trace
    with pytest.raises(ValueError):
        interleave_accesses(trace, [(0, 0)] * 7)


def test_access_all_matches_single_access():
    rng = random.Random(9)
    cfg = CacheConfig(line_size=16, num_sets=8, assoc=2)
    a_state, b_state = CacheState(cfg), CacheState(cfg)
    addrs = [rng.randrange(0, 4096) for _ in range(500)]
    singles = sum(a_state.access_all((a,)) for a in addrs)
    assert b_state.access_all(addrs) == singles
    assert (a_state.hits, a_state.misses) == (b_state.hits, b_state.misses)


def _foreign_batch(rng, kind, cfg, walk_addrs, oracle):
    """Addresses outside the walk: MRU hits, aliases of walk sets, re-touches."""
    line, sets = cfg.line_size, cfg.num_sets
    if kind == "mru":
        batch = []
        for a in rng.sample(walk_addrs, 4):
            target = (a // line) % sets
            recent = [b for b in reversed(oracle.history) if b % sets == target]
            if recent:
                batch.append(recent[0] * line + rng.randrange(line))
        return batch
    if kind == "alias":
        return [a + rng.randrange(1, 4) * sets * line for a in rng.sample(walk_addrs, 3)]
    return rng.sample(walk_addrs, 5)


@pytest.mark.parametrize("assoc", [1, 2, 4])
def test_walk_matches_full_replay_and_oracle(assoc):
    rng = random.Random(100 + assoc)
    for _ in range(12):
        line = rng.choice([4, 16, 64])
        cfg = CacheConfig(line_size=line, num_sets=rng.choice([4, 8, 16]), assoc=assoc,
                          cold_flush=False)
        pool = [rng.randrange(0, 64) * line for _ in range(24)]
        walk_addrs = [rng.choice(pool) + rng.randrange(line) for _ in range(30)]
        ws = WorkingSet(cfg, walk_addrs)
        st, twin = CacheState(cfg), CacheState(cfg)
        oracle = RecencyOracle(line, cfg.num_sets, assoc)
        for _ in range(60):
            op = rng.choice(["walk", "walk", "mru", "alias", "retouch", "flush"])
            if op == "walk":
                got = st.walk(ws)
                assert got == twin.access_all(walk_addrs)
                assert got == sum(oracle.access(a) for a in walk_addrs)
            elif op == "flush":
                for cache in (st, twin, oracle):
                    cache.flush()
            else:
                batch = _foreign_batch(rng, op, cfg, walk_addrs, oracle)
                got = st.access_all(batch)
                assert got == twin.access_all(batch)
                assert got == sum(oracle.access(a) for a in batch)
                if op == "mru":
                    assert got == len(batch)
            assert (st.hits, st.misses) == (twin.hits, twin.misses)


def test_walk_pays_one_miss_for_one_evicted_line():
    cfg = CacheConfig(line_size=4, num_sets=16, assoc=1, cold_flush=False)
    ws = WorkingSet(cfg, [4 * i for i in range(8)])
    st = CacheState(cfg)
    assert (st.walk(ws), st.walk(ws)) == (0, 8)
    st.access_all([4 * 3])                  # MRU hit: changes nothing
    assert st.walk(ws) == 8
    st.access_all([4 * (16 + 3)])           # evicts the walk's line in set 3
    assert st.walk(ws) == 7
    assert cfg.cycles(7, 8) == 7 * 2 + 50 and cfg.cycles(8, 8) == 16
    assert st.walk(ws) == 8
    st.flush()
    assert st.walk(ws) == 0
    assert (st.hits, st.misses) == (8 + 8 + 7 + 8 + 1, 8 + 1 + 8 + 1)


def test_working_set_steady_hits():
    cfg = CacheConfig(line_size=64, num_sets=4, assoc=2)
    # set 0: three lines round-robin in two ways never hit; set 1: two lines always hit
    ws = WorkingSet(cfg, [0, 256, 512, 64, 320, 64])
    assert ws.steady == {0: 0, 1: 3}
    assert ws.by_set == {0: [0, 256, 512], 1: [64, 320, 64]}
    with pytest.raises(ValueError):
        CacheState(CacheConfig(line_size=64, num_sets=8, assoc=2)).walk(ws)

"""Acceptance criteria, one test per criterion, run in order.

Each test prints a single PASS line with its headline numbers when it
succeeds; tolerances are asserted, never widened.  Criteria 7 and 8 run
the committed seeded configs from configs/.
"""

from __future__ import annotations

import random
import struct
import time
from pathlib import Path

import pytest

from cache_oracle import RecencyOracle
from reference_aes import reference_encrypt

from ctlab import aes
from ctlab import attack as atk
from ctlab import channel as ch
from ctlab import harness as hn
from ctlab import keysearch as ks
from ctlab.cachesim import (
    PACKED_LAYOUT,
    PARTITIONED_LAYOUT,
    CacheConfig,
    CacheState,
    run_encryption,
)
from ctlab.channel import ChannelConfig, SimulatedBackend, UdpOracle, start_server_thread
from ctlab.countermeasures import (
    Kind,
    SpecifiedLoopState,
    specified_loop_next,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _load(name: str) -> hn.ExperimentConfig:
    return hn.config_from_mapping(hn.load_config_file(CONFIG_DIR / name))


def test_criterion_01_aes_known_answers_and_random_oracle():
    started = time.perf_counter()
    fips_key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    fips_pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert aes.encrypt(fips_pt, aes.expand_key(fips_key)) == bytes.fromhex(
        "69c4e0d86a7b0430d8cdb78070b4c55a"
    )
    assert aes.encrypt(bytes(16), aes.expand_key(bytes(16))) == bytes.fromhex(
        "66e94bd4ef8a2c3b884cfa59ca342b2e"
    )
    rng = random.Random(0xACCE)
    for _ in range(1000):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        assert aes.encrypt(pt, aes.expand_key(key)) == reference_encrypt(pt, key)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\ncriterion 1 PASS: known answers + 1000 random pairs vs oracle "
          f"({elapsed:.2f}s)")


def test_criterion_02_countermeasures_preserve_ciphertexts():
    cache = CacheConfig(line_size=4096, num_sets=8, assoc=1)
    rng = random.Random(0x5E11)
    kinds = (Kind.RANDOM_LOOP, Kind.SPECIFIED_LOOP, Kind.PREFETCH, Kind.CACHE_PARTITION)
    for kind in kinds:
        for _ in range(1000):
            key, pt = rng.randbytes(16), rng.randbytes(16)
            backend = SimulatedBackend(
                ChannelConfig(key=key, countermeasure=kind, cache=cache)
            )
            _, ct = backend.handle(pt)
            assert ct == aes.encrypt(pt, aes.expand_key(key))
    print("\ncriterion 2 PASS: 4 countermeasures x 1000 (key, pt) pairs, "
          "ciphertexts unchanged")


def test_criterion_03_specified_loop_sequence():
    state = SpecifiedLoopState()
    first_six = [specified_loop_next(state) for _ in range(6)]
    assert first_six == [104, 6, 0, 104, 6, 0]
    print(f"\ncriterion 3 PASS: iteration counts {first_six}")


def test_criterion_04_efficiency_reproduction():
    expected = {"random_loop": 3.80, "specified_loop": 7.20,
                "prefetch": 8.93, "cache_partition": 23.33}
    for row in hn.REFERENCE_ROWS:
        assert hn.efficiency(row.m, row.s) == pytest.approx(
            expected[row.countermeasure], abs=0.01
        )
    print(f"\ncriterion 4 PASS: efficiencies {sorted(expected.values())} within 0.01")


def test_criterion_05_slowdown_reproduction():
    expected = {"random_loop": 1.84, "specified_loop": 1.11,
                "prefetch": 1.12, "cache_partition": 0.60}
    for row in hn.REFERENCE_ROWS:
        assert hn.slowdown(row.c, hn.BASELINE_CYCLES) == pytest.approx(
            expected[row.countermeasure], abs=0.005
        )
    print(f"\ncriterion 5 PASS: slowdowns {sorted(expected.values())} within 0.005")


def test_criterion_06_search_rate_fit():
    alpha_ref = ks.fit_rate(ks.REFERENCE_SEARCH_TIMINGS)
    assert 2.2e-8 <= alpha_ref <= 2.7e-8

    started = time.perf_counter()
    # local rate extrapolated from smaller sizes; 10^9 keys outright would
    # take tens of minutes at this machine's measured rate
    points = ks.measure_search_rate([10**6, 3 * 10**6, 10**7])
    alpha_local = ks.fit_rate(points, min_size=10**6)
    r2 = ks.fit_residual_r2(points, alpha_local)
    elapsed = time.perf_counter() - started
    assert r2 >= 0.99
    assert elapsed < 60.0
    print(f"\ncriterion 6 PASS: reference alpha={alpha_ref:.4e}, local "
          f"alpha={alpha_local:.3e} r2={r2:.5f} ({elapsed:.1f}s)")


def test_criterion_07_end_to_end_key_recovery():
    started = time.perf_counter()
    config = _load("attack.cfg")
    assert config.countermeasure is Kind.NONE
    assert config.backend == "simulated"
    assert config.cache.line_size == 4
    report = hn.run_experiment(config)
    elapsed = time.perf_counter() - started
    assert report.failed_stage is None
    assert report.m == 0.0
    assert report.recovered is True
    assert report.found_key == config.attack_key.hex()
    assert elapsed < 300.0
    print(f"\ncriterion 7 PASS: recovered {report.found_key} "
          f"(keyspace 2^{report.keyspace_log2:.1f}, {elapsed:.1f}s)")


def test_criterion_08_countermeasure_ordering():
    started = time.perf_counter()
    config = _load("sweep.cfg")
    reports = hn.run_sweep(config)
    elapsed = time.perf_counter() - started
    none = reports[0]
    assert none.countermeasure == "none"
    assert none.failed_stage is None
    for r in reports[1:]:
        assert r.failed_stage is None
        assert r.m >= none.m
        assert r.keyspace_sizes[0] >= none.keyspace_sizes[0]
    assert any(r.m >= 1 for r in reports[1:])
    assert elapsed < 600.0
    summary = {r.countermeasure: r.m for r in reports}
    print(f"\ncriterion 8 PASS: m per countermeasure {summary} ({elapsed:.1f}s)")


def test_criterion_09_cache_simulator_oracle_equivalence():
    started = time.perf_counter()
    # exhaustive: every trace of length <= 12 over 4 addresses that share
    # one 2-way set, walked as a tree with undo so prefixes are reused
    cfg = CacheConfig(line_size=4, num_sets=1, assoc=2)
    state = CacheState(cfg)
    oracle = RecencyOracle(4, 1, 2)
    addresses = (0, 4, 8, 12)
    nodes = 0
    bucket = state._sets[0]

    def descend(depth: int) -> None:
        nonlocal nodes
        for address in addresses:
            saved = bucket.copy()
            hits, misses = state.hits, state.misses
            mark = len(oracle.history)
            assert state.access(address) == oracle.access(address)
            nodes += 1
            if depth > 1:
                descend(depth - 1)
            bucket[:] = saved
            state.hits, state.misses = hits, misses
            del oracle.history[mark:]

    descend(12)
    assert nodes == (4**13 - 4) // 3  # every non-empty prefix, exactly once

    # cold-start misses equal the distinct-line count of the trace
    deep = CacheConfig(line_size=64, num_sets=32768, assoc=8)
    rng = random.Random(0xC01D)
    for layout in (PACKED_LAYOUT, PARTITIONED_LAYOUT):
        for _ in range(100):
            key, pt = rng.randbytes(16), rng.randbytes(16)
            trace: list[tuple[int, int]] = []
            aes.encrypt(pt, aes.expand_key(key), trace=trace)
            cold = CacheState(deep)
            result = run_encryption(cold, layout.resolve(trace))
            lines = {layout.addresses[t, i] >> 6 for t, i in trace}
            assert result.misses == len(lines)
            assert result.hits == len(trace) - len(lines)
    elapsed = time.perf_counter() - started
    print(f"\ncriterion 9 PASS: {nodes} traces vs recency oracle + 200 cold "
          f"miss counts ({elapsed:.1f}s)")


def test_criterion_10_wire_roundtrip_and_live_loopback():
    rng = random.Random(0x31E0)
    for _ in range(10**4):
        pt = rng.randbytes(16)
        mtype = rng.choice((ch.MSG_TIMING, ch.MSG_CIPHERTEXT))
        size = rng.randrange(ch.HEADER_LEN, 1400)
        assert ch.decode_request(ch.encode_request(mtype, pt, size)) == (mtype, pt)
        payload = (
            struct.pack("<Q", rng.randrange(2**64))
            if mtype == ch.MSG_TIMING
            else rng.randbytes(16)
        )
        encoded = ch.encode_response(mtype, pt, payload)
        assert ch.decode_response(encoded) == (mtype, pt, payload)

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    server, thread = start_server_thread(ChannelConfig(key=key))
    mirror = SimulatedBackend(ChannelConfig(key=key))
    try:
        rk = aes.expand_key(key)
        with UdpOracle(server.address, retries=0) as oracle:
            for i in range(20):
                pt = rng.randbytes(16)
                cycles = oracle(pt)
                assert cycles == mirror.handle(pt)[0]
                assert cycles > 0
                assert oracle.ciphertext(pt) == aes.encrypt(pt, rk)
    finally:
        server.close()
        thread.join(timeout=2)
    print("\ncriterion 10 PASS: 10^4 wire round-trips + live loopback echo")

"""Search enumeration, the vectorized cipher kernel, and the rate model."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ctlab import aes
from ctlab import keysearch as ks
from ctlab.attack import CandidateReport


def test_batch_kernel_matches_scalar_cipher():
    rng = random.Random(404)
    keys = np.frombuffer(
        b"".join(rng.randbytes(16) for _ in range(300)), dtype=np.uint8
    ).reshape(300, 16)
    schedules = ks.expand_batch(keys)
    scalar = [aes.expand_key(keys[row].tobytes()) for row in range(300)]
    assert schedules.shape == (300, 44) and schedules.dtype == np.uint32
    assert schedules.tolist() == scalar
    for _ in range(3):
        pt = rng.randbytes(16)
        words = ks.encrypt_batch(pt, schedules)
        assert words.shape == (300, 4) and words.dtype == np.uint32
        for row in range(300):
            expected = aes.encrypt(pt, scalar[row])
            got = b"".join(int(words[row][i]).to_bytes(4, "big") for i in range(4))
            assert got == expected
    # FIPS-197 Appendix C.1
    fips_key = np.frombuffer(bytes(range(16)), dtype=np.uint8).reshape(1, 16)
    words = ks.encrypt_batch(bytes.fromhex("00112233445566778899aabbccddeeff"),
                             ks.expand_batch(fips_key))
    assert words.astype(">u4").tobytes() == bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    with pytest.raises(ValueError):
        ks.expand_batch(keys.astype(np.uint32))
    with pytest.raises(ValueError):
        ks.expand_batch(keys[:, :15])


def _report_for(values_per_position) -> CandidateReport:
    values = tuple(tuple(v) for v in values_per_position)
    scores = tuple(tuple(float(len(v) - i) for i in range(len(v))) for v in values)
    return CandidateReport(values, scores)


def _pairs_for(key: bytes, n: int = 2) -> list[tuple[bytes, bytes]]:
    rk = aes.expand_key(key)
    rng = random.Random(55)
    return [(pt, aes.encrypt(pt, rk)) for pt in (rng.randbytes(16) for _ in range(n))]


def test_singletons_found_after_one_test():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    report = _report_for([[key[j]] for j in range(16)])
    outcome = ks.brute_force(report, _pairs_for(key))
    assert outcome.found == key
    assert outcome.keys_tested == 1


def test_excluded_truth_exhausts_space():
    key = bytes(range(16))
    wrong = [[(key[j] + 1) % 256, (key[j] + 2) % 256] for j in range(16)]
    report = _report_for([wrong[j] if j < 3 else [key[j]] for j in range(16)])
    outcome = ks.brute_force(report, _pairs_for(key))
    assert outcome.found is None
    assert outcome.keys_tested == report.keyspace_size == 8


def test_four_candidates_rank_is_exact():
    rng = random.Random(1612)
    key = rng.randbytes(16)
    values = []
    for j in range(16):
        decoys = [v for v in range(256) if v != key[j]]
        rng.shuffle(decoys)
        column = decoys[:3]
        column.insert(0 if j < 14 else (2 if j == 14 else 3), key[j])
        values.append(column)
    report = _report_for(values)
    outcome = ks.brute_force(report, _pairs_for(key))
    assert outcome.found == key
    assert outcome.keys_tested == 2 * 4 + 3 + 1  # digits (.., 2, 3), 1-based
    assert outcome.keys_tested <= 4**16


def test_completeness_over_all_truth_placements():
    key = bytes(range(100, 116))
    spread_positions = (2, 5, 11, 14)
    for placement in range(16):
        values = []
        for j in range(16):
            if j in spread_positions:
                decoy = (key[j] + 17) % 256
                bit = (placement >> spread_positions.index(j)) & 1
                values.append([decoy, key[j]] if bit else [key[j], decoy])
            else:
                values.append([key[j]])
        outcome = ks.brute_force(_report_for(values), _pairs_for(key, n=1))
        assert outcome.found == key


def test_thread_count_does_not_change_result():
    rng = random.Random(9000)
    key = rng.randbytes(16)
    values = []
    for j in range(16):
        if j < 10:
            values.append([key[j]])
        else:
            column = [(key[j] + d) % 256 for d in range(1, 10)]
            column.insert(j - 9, key[j])  # digit j-9+... varies by position
            values.append(column)
    report = _report_for(values)
    pairs = _pairs_for(key)
    serial = ks.brute_force(report, pairs, chunk_size=4096)
    threaded = ks.brute_force(report, pairs, threads=4, chunk_size=4096)
    assert serial.found == threaded.found == key
    assert serial.keys_tested == threaded.keys_tested
    # soundness: the returned key really maps every pair
    rk = aes.expand_key(threaded.found)
    assert all(aes.encrypt(pt, rk) == ct for pt, ct in pairs)


def test_score_order_sets_rank():
    key = bytes([5] * 16)
    values = [[200, key[j], 90] if j == 15 else [key[j]] for j in range(16)]
    by_score = ks.brute_force(_report_for(values), _pairs_for(key))
    assert by_score.found == key
    assert by_score.keys_tested == 2  # score order: 200 first, then the truth


def test_brute_force_input_validation():
    report = _report_for([[0]] * 16)
    with pytest.raises(ValueError):
        ks.brute_force(report, [])
    with pytest.raises(ValueError):
        ks.brute_force(report, [(bytes(3), bytes(16))])
    with pytest.raises(ValueError):
        ks.brute_force(report, _pairs_for(bytes(16)), threads=0)


def test_space_past_2_62_is_refused_before_any_chunk(monkeypatch):
    def no_chunk(keys):
        raise AssertionError("a chunk was enumerated")

    monkeypatch.setattr(ks, "expand_batch", no_chunk)
    report = _report_for([range(16)] * 16)
    assert report.keyspace_size == 1 << 64
    with pytest.raises(ks.SearchError):
        ks.brute_force(report, _pairs_for(bytes(16)))


def test_no_match_space_shape():
    report = ks._no_match_space(10**6)
    assert report.keyspace_size == 10**6
    assert all(0xFF not in vals for vals in report.values)
    with pytest.raises(ks.SearchError):
        ks._no_match_space(0)


def test_measure_search_rate_exact_counts_and_monotone():
    points = ks.measure_search_rate([10**4, 10**6])
    assert [s for s, _ in points] == [10**4, 10**6]
    assert points[1][1] > points[0][1] >= 0.0


def test_fit_recovers_exact_line():
    points = [(10**k, 3e-8 * 10**k) for k in range(6, 13)]
    alpha = ks.fit_rate(points)
    assert abs(alpha - 3e-8) < 3e-18  # 10 significant digits


def test_fit_on_reference_timings():
    alpha = ks.fit_rate(ks.REFERENCE_SEARCH_TIMINGS)
    # independent route: exact rational arithmetic over the same points
    kept = [(s, t) for s, t in ks.REFERENCE_SEARCH_TIMINGS if s >= 10**8]
    num = sum(Fraction(s) * Fraction(str(t)) for s, t in kept)
    den = sum(Fraction(s) ** 2 for s, _ in kept)
    assert alpha == pytest.approx(float(num / den), rel=1e-12)
    assert 2.2e-8 <= alpha <= 2.7e-8


def test_fit_single_point_and_threshold_error():
    assert ks.fit_rate([(10**12, 24512.69)]) == pytest.approx(2.451269e-8)
    with pytest.raises(ks.FitError):
        ks.fit_rate([(10**5, 0.02)])


def test_fit_residual_r2():
    line = [(10**k, 2.5e-8 * 10**k) for k in range(6, 10)]
    assert ks.fit_residual_r2(line, 2.5e-8) == pytest.approx(1.0)
    assert ks.fit_residual_r2(line, 5.0e-8) < 0.5


def test_estimate_search_time():
    assert ks.estimate_search_time(10**12, 2.4e-8) == pytest.approx(24000.0)
    assert ks.estimate_search_time(0, 2.4e-8) == 0.0
    huge = ks.estimate_search_time(2**128, 2.4e-8)
    assert huge == pytest.approx(8.166e30, rel=1e-3)
    with pytest.raises(ValueError):
        ks.estimate_search_time(-1, 2.4e-8)

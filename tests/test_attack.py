"""Profile statistics, XOR-shift correlation, and leak recovery."""

from __future__ import annotations

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from ctlab import attack as atk
from ctlab import keysearch as ks
from ctlab.attack import ChannelError
from ctlab.channel import ChannelConfig, SimulatedBackend
from ctlab.cachesim import CacheConfig


def test_profile_accumulation_by_hand():
    p = atk.TimingProfile()
    a = bytes([1] + [0] * 15)
    b = bytes([1] + [2] * 15)
    p.add(a, 10)
    p.add(b, 20)
    assert p.counts[0][1] == 2
    assert p.sums[0][1] == 30
    assert p.sumsqs[0][1] == 100 + 400
    assert p.counts[1][0] == 1 and p.counts[1][2] == 1
    assert p.total_samples == 2
    with pytest.raises(atk.ProfileError):
        p.add(bytes(15), 5)
    with pytest.raises(atk.ProfileError):
        p.add(bytes(16), -1)


def test_profile_csv_roundtrip(tmp_path):
    rng = random.Random(11)
    p = atk.TimingProfile()
    for _ in range(300):
        p.add(rng.randbytes(16), rng.randrange(10**5))
    path = tmp_path / "profile.csv"
    atk.save_profile(p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "position,value,count,sum_cycles,sumsq_cycles"
    assert len(lines) == 1 + 16 * 256
    assert atk.load_profile(path) == p


def test_profile_csv_rejects_damage(tmp_path):
    p = atk.TimingProfile()
    p.add(bytes(16), 1)
    path = tmp_path / "profile.csv"
    atk.save_profile(p, path)
    text = path.read_text().splitlines()
    for broken in (
        ["bogus,header"] + text[1:],
        text[:-1],  # missing cell
        text + [text[-1]],  # duplicate cell
        text[:-1] + ["15,999,0,0,0"],
    ):
        path.write_text("\n".join(broken) + "\n")
        with pytest.raises(atk.ProfileError):
            atk.load_profile(path)


def _load_with_last_cell(tmp_path, cell: str):
    path = tmp_path / "profile.csv"
    atk.save_profile(atk.TimingProfile(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + ["15,255," + cell]) + "\n")
    return atk.load_profile(path)


@pytest.mark.parametrize("cell", ["-1,0,0", "1,-5,25", "1,5,-25"])
def test_profile_csv_rejects_negative_cells(tmp_path, cell):
    with pytest.raises(atk.ProfileError):
        _load_with_last_cell(tmp_path, cell)


@pytest.mark.parametrize("cell", ["0,5,0", "0,0,25"])
def test_profile_csv_rejects_sums_without_samples(tmp_path, cell):
    with pytest.raises(atk.ProfileError):
        _load_with_last_cell(tmp_path, cell)


def test_profile_csv_rejects_sumsq_below_square_of_sum(tmp_path):
    with pytest.raises(atk.ProfileError):
        _load_with_last_cell(tmp_path, "2,10,49")  # 49 * 2 < 10 * 10
    # one sample of 2^53 + 1 with sumsq one short: float arithmetic cannot tell
    big = 2**53 + 1
    with pytest.raises(atk.ProfileError):
        _load_with_last_cell(tmp_path, f"1,{big},{big * big - 1}")
    # the bounds themselves are possible cells
    assert _load_with_last_cell(tmp_path, f"1,{big},{big * big}").sumsqs[15][255] == big * big
    assert _load_with_last_cell(tmp_path, "2,10,50").counts[15][255] == 2


def test_simulated_profile_roundtrips(tmp_path):
    backend = SimulatedBackend(ChannelConfig(key=bytes(16), scratch_lines=16))
    profile = atk.collect_profile(lambda pt: backend.handle(pt)[0], 300, random.Random(5))
    path = tmp_path / "profile.csv"
    atk.save_profile(profile, path)
    assert atk.load_profile(path) == profile


def test_signature_arithmetic_by_hand():
    p = atk.TimingProfile()
    for j in range(16):
        for v in range(256):
            p.counts[j][v] = 1
            p.sums[j][v] = 100
            p.sumsqs[j][v] = 100 * 100
    p.sums[0][7] = 356
    sig = atk.signature(p)
    assert sig.empty_buckets == 0
    # position 0 mean rises to 101, so bucket 7 sits 255 above it
    assert sig.deviations[0][7] == pytest.approx(255.0)
    assert sig.deviations[0][8] == pytest.approx(-1.0)
    assert np.allclose(sig.deviations[1:], 0.0)


def test_signature_empty_bucket_is_neutral():
    p = atk.TimingProfile()
    for j in range(16):
        for v in range(256):
            if (j, v) == (3, 9):
                continue
            p.counts[j][v] = 2
            p.sums[j][v] = 40
            p.sumsqs[j][v] = 800
    sig = atk.signature(p)
    assert sig.empty_buckets == 1
    assert sig.deviations[3][9] == 0.0


def _synthetic_pair(seed: int) -> tuple[atk.SignatureMatrix, bytes, atk.SignatureMatrix, bytes]:
    rng = random.Random(seed)
    study_key = rng.randbytes(16)
    attack_key = rng.randbytes(16)
    curve = np.array([rng.gauss(0.0, 1.0) for _ in range(256)])
    curve -= curve.mean()
    dev_s = np.empty((16, 256))
    dev_a = np.empty((16, 256))
    for j in range(16):
        for v in range(256):
            dev_s[j][v] = curve[v ^ study_key[j]]
            dev_a[j][v] = curve[v ^ attack_key[j]]
    ones = np.ones((16, 256), dtype=np.int64)
    return (
        atk.SignatureMatrix(dev_s, ones, 0),
        study_key,
        atk.SignatureMatrix(dev_a, ones, 0),
        attack_key,
    )


def test_correlation_peaks_at_xor_shift():
    study, study_key, attacked, attack_key = _synthetic_pair(97)
    corr = atk.correlate(study, study_key, attacked)
    energy = float((study.deviations[0] ** 2).sum())
    for j in range(16):
        assert int(np.argmax(corr[j])) == attack_key[j]
        assert corr[j][attack_key[j]] == pytest.approx(energy)


def test_correlation_self_alignment():
    study, study_key, _, _ = _synthetic_pair(5)
    corr = atk.correlate(study, study_key, study)
    for j in range(16):
        assert int(np.argmax(corr[j])) == study_key[j]


def test_weighted_deviations_sum_to_zero():
    rng = random.Random(19)
    p = atk.TimingProfile()
    for _ in range(2000):
        p.add(rng.randbytes(16), rng.randrange(1000, 40000))
    sig = atk.signature(p)
    counts = np.array(p.counts, dtype=np.float64)
    weighted = (counts * sig.deviations).sum(axis=1)
    assert np.allclose(weighted, 0.0, atol=1e-6 * counts.sum())


def test_signature_scales_linearly():
    rng = random.Random(23)
    base, doubled = atk.TimingProfile(), atk.TimingProfile()
    for _ in range(500):
        pt, cyc = rng.randbytes(16), rng.randrange(100, 5000)
        base.add(pt, cyc)
        doubled.add(pt, 2 * cyc)
    assert np.allclose(
        2.0 * atk.signature(base).deviations, atk.signature(doubled).deviations
    )


def test_constant_oracle_gives_zero_signature():
    profile = atk.collect_profile(lambda pt: 777, 600, random.Random(2))
    sig = atk.signature(profile)
    assert np.all(sig.deviations == 0.0)


def test_zero_attack_signature_gives_zero_correlation():
    study, study_key, _, _ = _synthetic_pair(8)
    zero = atk.SignatureMatrix(
        np.zeros((16, 256)), np.ones((16, 256), dtype=np.int64), 0
    )
    assert np.all(atk.correlate(study, study_key, zero) == 0.0)


def test_relabeling_attack_key_shifts_argmax():
    study, study_key, attacked, attack_key = _synthetic_pair(61)
    delta = 0xA7
    shifted = atk.SignatureMatrix(
        attacked.deviations[:, np.arange(256) ^ delta], attacked.counts, 0
    )
    base = atk.correlate(study, study_key, attacked)
    moved = atk.correlate(study, study_key, shifted)
    for j in range(16):
        assert int(np.argmax(moved[j])) == int(np.argmax(base[j])) ^ delta


def test_candidate_sets_monotone_in_spread():
    study, study_key, attacked, _ = _synthetic_pair(77)
    corr = atk.correlate(study, study_key, attacked)
    previous = None
    for spread in (0.0, 0.5, 1.0, 2.0, 16.0):
        report = atk.candidate_sets(corr, spread)
        if previous is not None:
            for j in range(16):
                assert set(previous.values[j]) <= set(report.values[j])
        previous = report
    assert previous.sizes == (256,) * 16


def test_spread_zero_keeps_argmax_only():
    corr = np.zeros((16, 256))
    for j in range(16):
        corr[j][j * 3] = 5.0
    report = atk.candidate_sets(corr, spread=0.0)
    assert report.sizes == (1,) * 16
    assert all(report.values[j] == (j * 3,) for j in range(16))


def test_candidate_sets_threshold_and_order():
    corr = np.zeros((16, 256))
    corr[0][5] = 10.0
    corr[1][9] = 8.0
    corr[1][17] = 8.0
    report = atk.candidate_sets(corr, spread=1.0)
    assert report.values[0] == (5,)
    assert report.values[1] == (9, 17)  # tie broken by value
    assert report.scores[1] == (8.0, 8.0)
    # flat rows keep everything
    assert report.sizes[2] == 256
    assert report.keyspace_size == 1 * 2 * 256**14
    assert report.missing_bytes(bytes([5, 9] + [0] * 14)) == 0
    assert report.missing_bytes(bytes([6, 9] + [0] * 14)) == 1
    for spread in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            atk.candidate_sets(corr, spread=spread)
    with pytest.raises(atk.ProfileError):
        atk.candidate_sets(np.zeros((4, 4)))


def test_keyspace_size_is_exact_bigint():
    corr = np.zeros((16, 256))
    report = atk.candidate_sets(corr)
    assert report.keyspace_size == 2**128
    assert report.keyspace_log2 == 128.0


def test_candidate_csv_roundtrip(tmp_path):
    corr = np.zeros((16, 256))
    rng = random.Random(3)
    for j in range(16):
        for _ in range(rng.randrange(1, 6)):
            corr[j][rng.randrange(256)] = rng.uniform(1.0, 9.0)
    report = atk.candidate_sets(corr, spread=0.5)
    path = tmp_path / "cands.csv"
    atk.save_candidates(report, path)
    assert path.read_text().splitlines()[0] == "position,value,score"
    loaded = atk.load_candidates(path)
    assert loaded.values == report.values
    assert loaded.scores == report.scores


def test_candidate_csv_rejects_duplicate_value(tmp_path):
    rows = ["position,value,score"] + [f"{j},{j},1.0" for j in range(16)]
    path = tmp_path / "cands.csv"
    path.write_text("\n".join(rows) + "\n")
    assert atk.load_candidates(path).keyspace_size == 1
    # a repeated value would count the same key twice in the keyspace
    path.write_text("\n".join(rows + ["3,3,0.5"]) + "\n")
    with pytest.raises(atk.ProfileError, match="duplicate"):
        atk.load_candidates(path)


def test_collect_profile_deterministic():
    def oracle(pt: bytes) -> int:
        return pt[0] * 3 + pt[5]

    runs = []
    for _ in range(2):
        rng = random.Random(42)
        runs.append(atk.collect_profile(oracle, 400, rng))
    assert runs[0] == runs[1]
    assert runs[0].total_samples == 400


def test_collect_profile_survives_intermittent_failures():
    calls = {"n": 0}

    def flaky(pt: bytes) -> int:
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise ChannelError("dropped")
        return 100

    profile = atk.collect_profile(flaky, 200, random.Random(1), max_failures=1000)
    assert profile.total_samples == 200


def test_collect_profile_aborts_with_partial():
    calls = {"n": 0}

    def dying(pt: bytes) -> int:
        calls["n"] += 1
        if calls["n"] > 50:
            raise ChannelError("link down")
        return 7

    with pytest.raises(atk.CollectionError) as exc:
        atk.collect_profile(dying, 200, random.Random(1), max_failures=20)
    assert exc.value.failures == 20
    assert exc.value.partial.total_samples == 50


ATTACK_GEOMETRY = CacheConfig(
    line_size=4,
    num_sets=2048,
    assoc=1,
    cold_flush_per_encryption=False,
)


def _profile_pair(cfg_kw: dict, study_key: bytes, attack_key: bytes, n: int):
    study_cfg = ChannelConfig(key=study_key, **cfg_kw)
    attack_cfg = ChannelConfig(key=attack_key, **cfg_kw)
    study_backend = SimulatedBackend(study_cfg)
    attack_backend = SimulatedBackend(attack_cfg)
    study = atk.collect_profile(
        lambda pt: study_backend.handle(pt)[0], n, random.Random(1001)
    )
    attacked = atk.collect_profile(
        lambda pt: attack_backend.handle(pt)[0], n, random.Random(2002)
    )
    return atk.signature(study), atk.signature(attacked)


def test_persistent_contention_leaks_and_cold_flush_does_not():
    study_key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    attack_key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

    leaky = dict(cache=ATTACK_GEOMETRY, scratch_lines=320, scratch_seed=9)
    sig_s, sig_a = _profile_pair(leaky, study_key, attack_key, 30000)
    corr = atk.correlate(sig_s, study_key, sig_a)
    hits = sum(int(np.argmax(corr[j])) == attack_key[j] for j in range(16))
    assert hits == 16
    report = atk.candidate_sets(corr)
    assert report.missing_bytes(attack_key) == 0
    assert report.keyspace_size < 2**20

    # control: flushing before every encryption starves the channel
    flushed = dict(
        cache=CacheConfig(line_size=16, num_sets=512, assoc=2),
        scratch_lines=0,
    )
    sig_s, sig_a = _profile_pair(flushed, study_key, attack_key, 20000)
    corr = atk.correlate(sig_s, study_key, sig_a)
    hits = sum(int(np.argmax(corr[j])) == attack_key[j] for j in range(16))
    assert hits <= 4


@pytest.mark.parametrize("module", [atk, ks])
def test_statistics_and_search_import_no_channel(module):
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    assert not imported & {"socket", ".channel", "ctlab.channel"}

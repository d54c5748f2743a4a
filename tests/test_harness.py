"""Experiment orchestration, metric arithmetic, and report formats."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import pytest

from ctlab import attack as atk
from ctlab import harness as hn
from ctlab.attack import ChannelError
from ctlab.cachesim import CacheConfig
from ctlab.channel import ChannelConfig
from ctlab.countermeasures import Kind

STUDY_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
ATTACK_KEY = bytes.fromhex("8e73b0f7da0e6452c810f32b809079e5")


def test_slowdown_reference_values():
    assert hn.slowdown(9303, 5062) == pytest.approx(1.84, abs=0.005)
    assert hn.slowdown(5599, 5062) == pytest.approx(1.11, abs=0.005)
    assert hn.slowdown(5649, 5062) == pytest.approx(1.12, abs=0.005)
    assert hn.slowdown(3015, 5062) == pytest.approx(0.60, abs=0.005)
    assert hn.slowdown(5062, 5062) == 1.0
    with pytest.raises(ValueError):
        hn.slowdown(100, 0)


def test_efficiency_reference_values():
    published = {(7, 1.84): 3.80, (8, 1.11): 7.20, (10, 1.12): 8.93, (14, 0.60): 23.33}
    for (m, s), expected in published.items():
        assert hn.efficiency(m, s) == pytest.approx(expected, abs=0.01)
    assert hn.efficiency(0, 5.0) == 0.0
    with pytest.raises(ValueError):
        hn.efficiency(3, 0.0)


def test_reference_rows_are_consistent():
    for row in hn.REFERENCE_ROWS:
        assert hn.efficiency(row.m, row.s) == pytest.approx(row.efficiency, abs=0.01)
        assert hn.slowdown(row.c, hn.BASELINE_CYCLES) == pytest.approx(row.s, abs=0.005)


def test_parse_config_text():
    text = """
    # leading comment
    samples_study = 100   # trailing comment
    countermeasure=prefetch

    seed = 7
    """
    assert hn.parse_config_text(text) == {
        "samples_study": "100",
        "countermeasure": "prefetch",
        "seed": "7",
    }
    with pytest.raises(ValueError):
        hn.parse_config_text("just words\n")
    with pytest.raises(ValueError):
        hn.parse_config_text("a=1\na=2\n")


def _mapping(**extra) -> dict[str, str]:
    base = {
        "study_key": STUDY_KEY.hex(),
        "attack_key": ATTACK_KEY.hex(),
        "line_size": "16",
        "num_sets": "256",
        "assoc": "2",
        "cold_flush": "false",
        "scratch_lines": "32",
        "samples_study": "1500",
        "samples_attack": "1500",
        "runs": "1",
        "seed": "5",
    }
    base.update(extra)
    return base


def test_config_from_mapping():
    cfg = hn.config_from_mapping(_mapping(countermeasure="prefetch"))
    assert cfg.countermeasure is Kind.PREFETCH
    assert cfg.cache == CacheConfig(16, 256, 2, cold_flush=False)
    assert cfg.prng_seed == 1
    assert cfg.samples_attack == 1500
    with pytest.raises(ValueError):
        hn.config_from_mapping(_mapping(warp_drive="on"))
    with pytest.raises(ValueError, match="^unknown config key 'backend'"):
        hn.config_from_mapping(_mapping(backend="simulated"))
    with pytest.raises(ValueError, match="^prng_seed: "):
        hn.config_from_mapping(_mapping(prng_seed="none"))
    with pytest.raises(ValueError):
        hn.config_from_mapping({"study_key": STUDY_KEY.hex()})
    with pytest.raises(ValueError):
        hn.config_from_mapping(_mapping(cold_flush="maybe"))
    with pytest.raises(ValueError, match="^search_limit "):
        hn.config_from_mapping(_mapping(search_limit="-1"))
    with pytest.raises(ValueError, match="^search_threads "):
        hn.config_from_mapping(_mapping(search_threads="0"))

    # every accepted key, each off its default
    every = {
        "study_key": ATTACK_KEY.hex(), "attack_key": STUDY_KEY.hex(),
        "countermeasure": "cache_partition", "packet_size": "512",
        "timing_scope": "whole_handler", "scratch_lines": "7", "scratch_seed": "3",
        "prng_seed": "11", "samples_study": "900", "samples_attack": "901",
        "spread": "0.5", "seed": "13", "runs": "2", "search_limit": "17",
        "search_threads": "3", "line_size": "32", "num_sets": "128", "assoc": "8",
        "hit_cycles": "3", "miss_cycles": "70", "cold_flush": "no",
    }
    assert len(every) == 21
    cfg = hn.config_from_mapping(every)
    assert cfg == hn.ExperimentConfig(
        study_key=ATTACK_KEY, attack_key=STUDY_KEY, countermeasure=Kind.CACHE_PARTITION,
        packet_size=512, timing_scope="whole_handler", scratch_lines=7,
        scratch_seed=3, prng_seed=11, samples_study=900, samples_attack=901, spread=0.5,
        seed=13, runs=2, search_limit=17, search_threads=3,
        cache=CacheConfig(line_size=32, num_sets=128, assoc=8, hit_cycles=3,
                          miss_cycles=70, cold_flush=False),
    )


COMMITTED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
CONFIG_KEYS = {
    "study_key", "attack_key", "countermeasure", "packet_size", "timing_scope",
    "scratch_lines", "scratch_seed", "prng_seed", "samples_study", "samples_attack",
    "spread", "seed", "runs", "search_limit", "search_threads",
    "line_size", "num_sets", "assoc", "hit_cycles", "miss_cycles", "cold_flush",
}


def test_committed_configs_load():
    # A stale key in a shipped config fails here, not minutes into an experiment,
    # and each shipped config documents every accepted key.
    assert len(COMMITTED_CONFIGS) >= 2 and len(CONFIG_KEYS) == 21
    for path in COMMITTED_CONFIGS:
        mapping = hn.load_config_file(path)
        assert set(mapping) == CONFIG_KEYS, path.name
        cfg = hn.config_from_mapping(mapping)
        cfg.channel_config(cfg.attack_key, run=0)


# SHA-256 of save_profile's output and _mean_cycles for 4,097 samples from
# the attack.cfg server at plaintext seed 7, recorded from the per-sample
# Python-int profile that batch binning replaced. 4,097 crosses one batch.
PINNED_PROFILES = {
    Kind.NONE: ("61325353c9a64876d2c969f6d23a0b6a1e57974bc699fa23c00ca74ebbcae3b0",
                1551.691481571882),
    Kind.PREFETCH: ("b056749a9e98a708525830e7a586a8a93acf5514eaf2054cd25ac94956a1fd44",
                    4526.340248962656),
}


@pytest.mark.parametrize("kind", PINNED_PROFILES, ids=lambda kind: kind.value)
def test_profile_bytes_and_mean_cycles_are_pinned(tmp_path, kind):
    config = Path(__file__).resolve().parents[1] / "configs" / "attack.cfg"
    cfg = hn.config_from_mapping(hn.load_config_file(config))
    profile = hn._collect(cfg.channel_config(cfg.attack_key, 0, kind=kind), 4097, 7)
    path = tmp_path / "profile.csv"
    atk.save_profile(profile, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest(), hn._mean_cycles(profile)) == (
        PINNED_PROFILES[kind]
    )


def test_channel_config_carries_every_server_setting():
    cache = CacheConfig(line_size=32, num_sets=128, assoc=8, hit_cycles=3, miss_cycles=70,
                        cold_flush=False)
    cfg = hn.ExperimentConfig(
        study_key=STUDY_KEY, attack_key=ATTACK_KEY, countermeasure=Kind.RANDOM_LOOP,
        packet_size=512, timing_scope="whole_handler", cache=cache,
        scratch_lines=7, scratch_seed=3, prng_seed=11,
    )
    assert cfg.channel_config(ATTACK_KEY, 3) == ChannelConfig(
        key=ATTACK_KEY, countermeasure=Kind.RANDOM_LOOP, packet_size=512,
        timing_scope="whole_handler", cache=cache, scratch_lines=7, scratch_seed=3,
        prng_seed=14,
    )
    assert cfg.channel_config(ATTACK_KEY, 3, Kind.PREFETCH) == ChannelConfig(
        key=ATTACK_KEY, countermeasure=Kind.PREFETCH, packet_size=512,
        timing_scope="whole_handler", cache=cache, scratch_lines=7, scratch_seed=3,
        prng_seed=14,
    )


def test_report_csv_roundtrip_of_reference_rows():
    text = hn.emit_report(hn.REFERENCE_ROWS, "csv")
    lines = text.splitlines()
    assert lines[0] == "countermeasure,m,c,s,efficiency,keyspace_log2"
    rows = hn.parse_report_csv(text)
    assert rows == [
        hn.ReportRow(r.countermeasure, float(r.m), float(r.c), float(r.s),
                     float(r.efficiency), None)
        for r in hn.REFERENCE_ROWS
    ]
    assert hn.emit_report(rows, "csv") == text


def test_report_formats():
    assert hn.emit_report([], "csv") == "countermeasure,m,c,s,efficiency,keyspace_log2\n"
    table = hn.emit_report(hn.REFERENCE_ROWS, "table")
    assert "cache_partition" in table and "23.33" in table
    plot = hn.emit_report(hn.REFERENCE_ROWS, "plotdata")
    slowdown_block, missing_block = plot.split("# series: missing_bytes")
    assert "# series: slowdown" in slowdown_block
    assert "random_loop,1.84" in slowdown_block
    assert "random_loop,7.0" in missing_block
    with pytest.raises(ValueError):
        hn.emit_report([], "pie_chart")
    with pytest.raises(ValueError):
        hn.parse_report_csv("nope\n")


def _experiment_config(**overrides) -> hn.ExperimentConfig:
    cfg = hn.config_from_mapping(_mapping())
    return replace(cfg, **overrides) if overrides else cfg


def test_run_experiment_deterministic_and_baseline_exact():
    cfg = _experiment_config(runs=2)
    a = hn.run_experiment(cfg)
    b = hn.run_experiment(cfg)
    assert hn.emit_report([a], "csv") == hn.emit_report([b], "csv")
    assert a.failed_stage is None
    assert a.s == 1.0  # kind=None is its own baseline, exactly
    assert a.runs == 2 and len(a.m_runs) == 2


def test_constant_time_run_has_boundary_caveat():
    # lines as big as a whole table make every encryption cost exactly
    # 5 misses: a constant-time server, flat scores, all values retained
    cfg = hn.config_from_mapping(
        _mapping(line_size="4096", num_sets="8", assoc="1", cold_flush="true",
                 scratch_lines="0", samples_study="600", samples_attack="600")
    )
    report = hn.run_experiment(cfg)
    assert report.failed_stage is None
    assert report.m == 0.0
    assert report.keyspace_log2 == 128.0
    assert report.efficiency == 0.0
    assert report.caveat is not None
    assert report.found_key is None  # keyspace far beyond the search limit


def test_explicit_baseline_sets_slowdown():
    cfg = _experiment_config(countermeasure=Kind.SPECIFIED_LOOP, samples_study=800,
                             samples_attack=800)
    report = hn.run_experiment(cfg, baseline_cycles=1000.0)
    assert report.failed_stage is None
    assert report.s == pytest.approx(report.c / 1000.0)
    assert report.efficiency == pytest.approx(report.m / report.s)


def test_failed_stage_yields_partial_report(monkeypatch):
    with pytest.raises(ValueError):  # the channel settings are checked on load
        _experiment_config(scratch_lines=100000)

    class FailingBackend:
        def handle(self, plaintext):
            raise ChannelError("server went away")

    monkeypatch.setattr(hn, "make_backend", lambda cfg: FailingBackend())
    report = hn.run_experiment(_experiment_config())
    assert report.failed_stage is not None
    assert report.failed_stage.startswith("collect_study")
    assert report.m is None and report.s is None
    assert hn.parse_report_csv(hn.emit_report([report], "csv"))[0].m is None


def test_run_sweep_shares_one_baseline():
    cfg = hn.config_from_mapping(
        _mapping(samples_study="700", samples_attack="700")
    )
    reports = hn.run_sweep(cfg)
    assert [r.countermeasure for r in reports] == [k.value for k in Kind]
    none = reports[0]
    assert none.s == 1.0
    for r in reports[1:]:
        assert r.failed_stage is None
        assert r.s == pytest.approx(r.c / none.c)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        hn.ExperimentConfig(study_key=b"x", attack_key=ATTACK_KEY)
    with pytest.raises(ValueError):
        _experiment_config(runs=0)
    for spread in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            _experiment_config(spread=spread)
    with pytest.raises(ValueError):
        _experiment_config(samples_study=0)

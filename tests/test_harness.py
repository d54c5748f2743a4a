"""Experiment orchestration, metric arithmetic, and report formats."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from ctlab import harness as hn
from ctlab.cachesim import CacheConfig
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
    backend=simulated

    seed = 7
    """
    assert hn.parse_config_text(text) == {
        "samples_study": "100",
        "backend": "simulated",
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
    cfg = hn.config_from_mapping(_mapping(countermeasure="prefetch", prng_seed="none"))
    assert cfg.countermeasure is Kind.PREFETCH
    assert cfg.cache == CacheConfig(16, 256, 2, cold_flush_per_encryption=False)
    assert cfg.prng_seed is None
    assert cfg.samples_attack == 1500
    with pytest.raises(ValueError):
        hn.config_from_mapping(_mapping(warp_drive="on"))
    with pytest.raises(ValueError):
        hn.config_from_mapping({"study_key": STUDY_KEY.hex()})
    with pytest.raises(ValueError):
        hn.config_from_mapping(_mapping(cold_flush="maybe"))


COMMITTED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def test_committed_configs_load():
    # A stale key in a shipped config fails here, not minutes into an experiment.
    assert len(COMMITTED_CONFIGS) >= 2
    for path in COMMITTED_CONFIGS:
        cfg = hn.config_from_mapping(hn.load_config_file(path))
        cfg.channel_config(cfg.attack_key, run=0)


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
    from dataclasses import replace

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
    assert report.estimate_seconds == pytest.approx(2.4e-8 * 2**128, rel=1e-6)


def test_explicit_baseline_sets_slowdown():
    cfg = _experiment_config(countermeasure=Kind.SPECIFIED_LOOP, samples_study=800,
                             samples_attack=800)
    report = hn.run_experiment(cfg, baseline_cycles=1000.0)
    assert report.failed_stage is None
    assert report.s == pytest.approx(report.c / 1000.0)
    assert report.efficiency == pytest.approx(report.m / report.s)


def test_failed_stage_yields_partial_report():
    cfg = _experiment_config(scratch_lines=100000)  # rejected by the channel
    report = hn.run_experiment(cfg)
    assert report.failed_stage is not None
    assert report.failed_stage.startswith("setup")
    assert report.m is None and report.s is None
    row = report.as_row()
    assert hn.parse_report_csv(hn.emit_report([row], "csv"))[0].m is None


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

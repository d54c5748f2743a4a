"""Experiment orchestration: study/attack collection, scoring, reports.

An experiment runs the full pipeline against a pair of simulated
servers that differ only in their key: collect a profile per
phase, correlate, extract candidates, optionally brute-force, and score
the countermeasure by missing key bytes (m), cycle cost (c), slowdown
(s = c / baseline c), and efficiency (m / s).

ExperimentConfig extends channel.ServerSettings with its own settings;
channel_config copies the server's share into each run's ChannelConfig,
and the config keys are the fields of ExperimentConfig and CacheConfig.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace
from io import StringIO
from pathlib import Path
from random import Random

from . import attack as atk
from .cachesim import CacheConfig
from .channel import ChannelConfig, ServerSettings, make_backend
from .countermeasures import Kind
from .keysearch import brute_force

log = logging.getLogger("ctlab.harness")

REPORT_HEADER = ("countermeasure", "m", "c", "s", "efficiency", "keyspace_log2")

EFFICIENCY_CAVEAT = (
    "efficiency 0 is a boundary case: either every key byte survived in the "
    "candidate sets (m = 0, attack still feasible) or the variant is too slow "
    "to use (1/s = 0); judge it together with m and keyspace"
)


def slowdown(c_variant: float, c_baseline: float) -> float:
    if c_baseline <= 0:
        raise ValueError("baseline cycle count must be positive")
    return c_variant / c_baseline


def efficiency(m: float, s: float) -> float:
    if s <= 0:
        raise ValueError("slowdown must be positive")
    return m / s


@dataclass(frozen=True)
class ReportRow:
    """One emitted report line; the lossless CSV unit."""

    countermeasure: str
    m: float | None = None
    c: float | None = None
    s: float | None = None
    efficiency: float | None = None
    keyspace_log2: float | None = None


# Published per-countermeasure reference measurements (DEFAULT_PACKET_SIZE
# packets, baseline 5062 cycles per unprotected encryption).  Retained as
# fixture rows; the efficiency column holds the published rounded figures.
BASELINE_CYCLES = 5062
REFERENCE_ROWS: tuple[ReportRow, ...] = (
    ReportRow("random_loop", 7, 9303, 1.84, 3.80),
    ReportRow("specified_loop", 8, 5599, 1.11, 7.20),
    ReportRow("prefetch", 10, 5649, 1.12, 8.93),
    ReportRow("cache_partition", 14, 3015, 0.60, 23.33),
)

ALL_KINDS = tuple(Kind)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(ServerSettings):
    """A server's settings plus the keys, budgets and search of one experiment."""

    study_key: bytes
    attack_key: bytes
    samples_study: int = 32768
    samples_attack: int = 32768
    spread: float = 1.0
    seed: int = 1
    runs: int = 5
    search_limit: int = 1 << 24
    search_threads: int = 1

    def __post_init__(self) -> None:
        for name in ("study_key", "attack_key"):
            if len(getattr(self, name)) != 16:
                raise ValueError(f"{name} must be 16 bytes")
        if self.samples_study < 1 or self.samples_attack < 1:
            raise ValueError("sample budgets must be positive")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if not 0 <= self.spread < math.inf:
            raise ValueError("spread must be finite and non-negative")
        if self.search_limit < 0:
            raise ValueError("search_limit must be non-negative")
        if self.search_threads < 1:
            raise ValueError("search_threads must be positive")
        super().__post_init__()

    def channel_config(self, key: bytes, run: int, kind: Kind | None = None) -> ChannelConfig:
        settings = {f.name: getattr(self, f.name) for f in fields(ServerSettings)}
        if kind is not None:
            settings["countermeasure"] = kind
        settings["prng_seed"] = self.prng_seed + run
        return ChannelConfig(key=key, **settings)


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return word in ("true", "1", "yes")


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment, blanks ignored."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def load_config_file(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


# One parser per annotated field type; a field whose type has none
# (ExperimentConfig.cache) is not a config key.
_PARSERS = {
    "bytes": bytes.fromhex, "Kind": Kind, "str": str, "int": int, "float": float,
    "bool": _parse_bool,
}
_KEYS = {f.name: (cls, _PARSERS[f.type]) for cls in (ExperimentConfig, CacheConfig)
         for f in fields(cls) if f.type in _PARSERS}


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    kwargs: dict[type, dict] = {ExperimentConfig: {}, CacheConfig: {}}
    for key, value in mapping.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        cls, parse = _KEYS[key]
        try:
            kwargs[cls][key] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    config_kw = kwargs[ExperimentConfig]
    for name in ("study_key", "attack_key"):
        if name not in config_kw:
            raise ValueError(f"config is missing {name}")
    config_kw["cache"] = CacheConfig(**kwargs[CacheConfig])
    return ExperimentConfig(**config_kw)


@dataclass(frozen=True, kw_only=True)
class EfficiencyReport(ReportRow):
    """One experiment's report row, with its per-run detail and notes."""

    runs: int
    m_runs: tuple[int, ...] = ()
    keyspace_sizes: tuple[int, ...] = ()
    found_key: str | None = None
    recovered: bool | None = None
    keys_tested: int | None = None
    caveat: str | None = None
    failed_stage: str | None = None


def _derived_seeds(config: ExperimentConfig, run: int) -> tuple[int, int]:
    base = config.seed * 1_000_003 + 2 * run
    return base, base + 1


def _collect(cfg: ChannelConfig, samples: int, seed: int) -> atk.TimingProfile:
    """Profile a fresh backend for cfg with ``samples`` seeded plaintexts."""
    backend = make_backend(cfg)
    return atk.collect_profile(lambda pt: backend.handle(pt)[0], samples, Random(seed))


def _mean_cycles(profile: atk.TimingProfile) -> float:
    return int(profile.sums[0].sum()) / profile.total_samples


def run_experiment(
    config: ExperimentConfig, *, baseline_cycles: float | None = None
) -> EfficiencyReport:
    """Full pipeline for one countermeasure; deterministic.

    ``baseline_cycles`` short-circuits the unprotected reference leg so a
    sweep can share one baseline; when absent it is collected here with
    identical seeds and kind=None.
    """
    label = config.countermeasure.value
    stage = "setup"
    try:
        reports: list[atk.CandidateReport] = []
        m_runs: list[int] = []
        cycle_means: list[float] = []
        baseline_means: list[float] = []

        for run in range(config.runs):
            study_seed, attack_seed = _derived_seeds(config, run)
            study_cfg = config.channel_config(config.study_key, run)
            attack_cfg = config.channel_config(config.attack_key, run)

            stage = "collect_study"
            study_profile = _collect(study_cfg, config.samples_study, study_seed)
            stage = "collect_attack"
            attack_profile = _collect(attack_cfg, config.samples_attack, attack_seed)
            cycle_means.append(_mean_cycles(attack_profile))

            stage = "correlate"
            corr = atk.correlate(
                atk.signature(study_profile), config.study_key, atk.signature(attack_profile)
            )
            report = atk.candidate_sets(corr, config.spread)
            reports.append(report)
            m_runs.append(report.missing_bytes(config.attack_key))

            if config.countermeasure is not Kind.NONE and baseline_cycles is None:
                stage = "baseline"
                base_cfg = config.channel_config(config.attack_key, run, kind=Kind.NONE)
                base_profile = _collect(base_cfg, config.samples_attack, attack_seed)
                baseline_means.append(_mean_cycles(base_profile))
            stage = "setup"

        stage = "score"
        m = sum(m_runs) / config.runs
        c = sum(cycle_means) / config.runs
        if config.countermeasure is Kind.NONE:
            s = 1.0  # the unprotected run is its own baseline, exactly
        else:
            base = baseline_cycles if baseline_cycles is not None else (
                sum(baseline_means) / len(baseline_means)
            )
            s = slowdown(c, base)
        eff = efficiency(m, s)
        keyspaces = tuple(r.keyspace_size for r in reports)
        keyspace_log2 = sum(math.log2(k) for k in keyspaces) / config.runs

        found_key = recovered = keys_tested = None
        if 0 < keyspaces[0] <= config.search_limit:
            stage = "search"
            pair_rng = Random(config.seed * 1_000_003 - 1)
            oracle = make_backend(config.channel_config(config.attack_key, 0))
            pairs = []
            for _ in range(2):
                pt = pair_rng.randbytes(16)
                pairs.append((pt, oracle.ciphertext(pt)))
            outcome = brute_force(
                reports[0], pairs, threads=config.search_threads
            )
            found_key = outcome.found.hex() if outcome.found else None
            recovered = outcome.found == config.attack_key
            keys_tested = outcome.keys_tested

        return EfficiencyReport(
            countermeasure=label,
            runs=config.runs,
            m=m,
            c=c,
            s=s,
            efficiency=eff,
            keyspace_log2=keyspace_log2,
            m_runs=tuple(m_runs),
            keyspace_sizes=keyspaces,
            found_key=found_key,
            recovered=recovered,
            keys_tested=keys_tested,
            caveat=EFFICIENCY_CAVEAT if eff == 0 else None,
        )
    except Exception as exc:  # noqa: BLE001 - partial report contract
        log.exception("experiment stage %s failed", stage)
        return EfficiencyReport(
            countermeasure=label,
            runs=config.runs,
            failed_stage=f"{stage}: {exc}",
        )


def run_sweep(config: ExperimentConfig) -> list[EfficiencyReport]:
    """One experiment per kind at a shared sample budget, baseline first."""
    baseline_report = run_experiment(replace(config, countermeasure=Kind.NONE))
    out = [baseline_report]
    for kind in ALL_KINDS[1:]:
        out.append(
            run_experiment(
                replace(config, countermeasure=kind),
                baseline_cycles=baseline_report.c,
            )
        )
    return out


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_report(rows, fmt: str = "table") -> str:
    """Render report rows as an aligned table, lossless CSV, or plot series."""
    if fmt == "csv":
        out = StringIO()
        out.write(",".join(REPORT_HEADER) + "\n")
        for r in rows:
            out.write(
                ",".join(
                    (r.countermeasure, _fmt(r.m), _fmt(r.c), _fmt(r.s),
                     _fmt(r.efficiency), _fmt(r.keyspace_log2))
                )
                + "\n"
            )
        return out.getvalue()
    if fmt == "table":
        header = REPORT_HEADER
        body = [
            (
                r.countermeasure,
                "-" if r.m is None else f"{r.m:.2f}",
                "-" if r.c is None else f"{r.c:.1f}",
                "-" if r.s is None else f"{r.s:.3f}",
                "-" if r.efficiency is None else f"{r.efficiency:.2f}",
                "-" if r.keyspace_log2 is None else f"{r.keyspace_log2:.1f}",
            )
            for r in rows
        ]
        widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
                  for i, h in enumerate(header)]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(b[i].ljust(widths[i]) for i in range(len(header))) for b in body]
        return "\n".join(lines) + "\n"
    if fmt == "plotdata":
        lines = ["# series: slowdown"]
        lines += [f"{r.countermeasure},{_fmt(r.s)}" for r in rows]
        lines.append("# series: missing_bytes")
        lines += [f"{r.countermeasure},{_fmt(r.m)}" for r in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report_csv(text: str) -> list[ReportRow]:
    """Rows of an ``emit_report(..., "csv")`` text; blank lines are skipped
    and not counted in the line numbers of an error."""
    lines = (ln for ln in text.splitlines() if ln)
    parsers = (str,) + (lambda p: None if p == "" else float(p),) * (len(REPORT_HEADER) - 1)
    return [ReportRow(*row) for row in atk.read_rows(lines, REPORT_HEADER, parsers, ValueError)]

"""Timing-profile statistics and first-round key-byte correlation.

The attack watches how a server's encryption latency depends on each
plaintext byte.  Averaging many samples per (position, byte value) cell
yields a 16x256 profile whose shape is a fingerprint of ``pt ^ key``:
profiles taken under two different keys are XOR-translates of each
other, so sliding one against the other recovers the XOR difference of
the keys, hence the unknown key when one of them is known.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import numpy as np

POSITIONS = 16
VALUES = 256

PROFILE_HEADER = ("position", "value", "count", "sum_cycles", "sumsq_cycles")
CANDIDATE_HEADER = ("position", "value", "score")


class ChannelError(RuntimeError):
    """An oracle could not deliver a measurement.

    This is the failure contract of any oracle passed to collect_profile,
    which counts it and draws a fresh plaintext.
    """


class ProfileError(ValueError):
    """Malformed profile or candidate data."""


class CollectionError(RuntimeError):
    """Too many failed measurements; partial data is preserved."""

    def __init__(self, message: str, partial: "TimingProfile", failures: int):
        super().__init__(message)
        self.partial = partial
        self.failures = failures


class TimingProfile:
    """Per-(position, value) accumulator of cycle counts.

    Sums are kept as Python ints so accumulation is exact regardless of
    sample count or timer magnitude.
    """

    __slots__ = ("counts", "sums", "sumsqs")

    def __init__(self) -> None:
        self.counts = [[0] * VALUES for _ in range(POSITIONS)]
        self.sums = [[0] * VALUES for _ in range(POSITIONS)]
        self.sumsqs = [[0] * VALUES for _ in range(POSITIONS)]

    def add(self, plaintext: bytes, cycles: int) -> None:
        if len(plaintext) != POSITIONS:
            raise ProfileError("plaintext must be 16 bytes")
        if cycles < 0:
            raise ProfileError("cycle count must be non-negative")
        sq = cycles * cycles
        for j in range(POSITIONS):
            v = plaintext[j]
            self.counts[j][v] += 1
            self.sums[j][v] += cycles
            self.sumsqs[j][v] += sq

    @property
    def total_samples(self) -> int:
        # every sample lands in exactly one bucket per position
        return sum(self.counts[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimingProfile):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.sums == other.sums
            and self.sumsqs == other.sumsqs
        )


def collect_profile(
    oracle: Callable[[bytes], int],
    num_samples: int,
    rng: Random,
    *,
    max_failures: int = 100,
) -> TimingProfile:
    """Query ``oracle`` with uniform random plaintexts and accumulate.

    Failed measurements are retried with fresh plaintexts; after
    ``max_failures`` of them the collection aborts, keeping what was
    gathered so far on the raised error.
    """
    profile = TimingProfile()
    failures = 0
    collected = 0
    while collected < num_samples:
        pt = rng.randbytes(16)
        try:
            cycles = oracle(pt)
        except ChannelError:
            failures += 1
            if failures >= max_failures:
                raise CollectionError(
                    f"aborted after {failures} failed measurements "
                    f"({collected}/{num_samples} collected)",
                    profile,
                    failures,
                )
            continue
        profile.add(pt, cycles)
        collected += 1
    return profile


@dataclass(frozen=True)
class SignatureMatrix:
    """Centered per-position timing curves: mean[j][v] - mean[j]."""

    deviations: np.ndarray
    counts: np.ndarray
    empty_buckets: int


def signature(profile: TimingProfile) -> SignatureMatrix:
    counts = np.array(profile.counts, dtype=np.float64)
    sums = np.array(profile.sums, dtype=np.float64)
    per_position = counts.sum(axis=1)
    if np.any(per_position == 0):
        raise ProfileError("profile has no samples")
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    overall = sums.sum(axis=1) / per_position
    deviations = np.where(counts > 0, means - overall[:, None], 0.0)
    empty = int((counts == 0).sum())
    return SignatureMatrix(deviations, counts.astype(np.int64), empty)


def correlate(
    study: SignatureMatrix, study_key: bytes, attack: SignatureMatrix
) -> np.ndarray:
    """Score every key-byte guess against the known-key reference.

    The study curve at input v reflects the table index v ^ study_key[j],
    so re-indexing it by v ^ g ^ study_key[j] aligns the two curves
    exactly when g equals the attacked key byte.  Returns a 16x256 score
    matrix: out[j][g] is the inner product under that alignment.
    """
    if len(study_key) != POSITIONS:
        raise ProfileError("study key must be 16 bytes")
    v = np.arange(VALUES)
    g = np.arange(VALUES)
    shift = v[None, :] ^ g[:, None]
    out = np.empty((POSITIONS, VALUES), dtype=np.float64)
    for j in range(POSITIONS):
        idx = shift ^ study_key[j]
        out[j] = study.deviations[j][idx] @ attack.deviations[j]
    return out


@dataclass(frozen=True)
class CandidateReport:
    """Surviving key-byte guesses per position, best score first."""

    values: tuple[tuple[int, ...], ...]
    scores: tuple[tuple[float, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(vals) for vals in self.values)

    @property
    def keyspace_size(self) -> int:
        return math.prod(self.sizes)

    @property
    def keyspace_log2(self) -> float:
        return math.log2(self.keyspace_size)

    def missing_bytes(self, key: bytes) -> int:
        return sum(1 for j in range(POSITIONS) if key[j] not in self.values[j])


def candidate_sets(correlation: np.ndarray, spread: float = 1.0) -> CandidateReport:
    """Keep every guess scoring within ``spread`` standard deviations of
    the per-position maximum."""
    if correlation.shape != (POSITIONS, VALUES):
        raise ProfileError("correlation matrix must be 16x256")
    if not 0 <= spread < math.inf:
        raise ValueError("spread must be finite and non-negative")
    values: list[tuple[int, ...]] = []
    scores: list[tuple[float, ...]] = []
    for j in range(POSITIONS):
        row = correlation[j]
        cut = float(row.max() - spread * row.std())
        kept = sorted(
            ((float(row[g]), g) for g in range(VALUES) if row[g] >= cut),
            key=lambda item: (-item[0], item[1]),
        )
        values.append(tuple(g for _, g in kept))
        scores.append(tuple(s for s, _ in kept))
    return CandidateReport(tuple(values), tuple(scores))


def save_profile(profile: TimingProfile, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_HEADER)
        for j in range(POSITIONS):
            for v in range(VALUES):
                writer.writerow(
                    (j, v, profile.counts[j][v], profile.sums[j][v], profile.sumsqs[j][v])
                )


def load_profile(path: str | Path) -> TimingProfile:
    profile = TimingProfile()
    seen = [[False] * VALUES for _ in range(POSITIONS)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != PROFILE_HEADER:
            raise ProfileError(f"bad profile header: {header!r}")
        for row in reader:
            if len(row) != 5:
                raise ProfileError(f"bad profile row: {row!r}")
            j, v, count, total, sumsq = (int(x) for x in row)
            if not (0 <= j < POSITIONS and 0 <= v < VALUES):
                raise ProfileError(f"profile cell out of range: {row!r}")
            if seen[j][v]:
                raise ProfileError(f"duplicate profile cell ({j}, {v})")
            if count < 0 or total < 0 or sumsq < 0:
                raise ProfileError(f"negative profile cell: {row!r}")
            if count == 0 and (total or sumsq):
                raise ProfileError(f"profile cell with no samples has sums: {row!r}")
            if sumsq * count < total * total:
                raise ProfileError(f"profile cell sumsq below sum^2/count: {row!r}")
            seen[j][v] = True
            profile.counts[j][v] = count
            profile.sums[j][v] = total
            profile.sumsqs[j][v] = sumsq
    if not all(all(row) for row in seen):
        raise ProfileError("profile is missing cells")
    return profile


def save_candidates(report: CandidateReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANDIDATE_HEADER)
        for j in range(POSITIONS):
            for value, score in zip(report.values[j], report.scores[j]):
                writer.writerow((j, value, repr(score)))


def load_candidates(path: str | Path) -> CandidateReport:
    values: list[list[int]] = [[] for _ in range(POSITIONS)]
    scores: list[list[float]] = [[] for _ in range(POSITIONS)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CANDIDATE_HEADER:
            raise ProfileError(f"bad candidate header: {header!r}")
        for row in reader:
            if len(row) != 3:
                raise ProfileError(f"bad candidate row: {row!r}")
            j, value, score = int(row[0]), int(row[1]), float(row[2])
            if not (0 <= j < POSITIONS and 0 <= value < VALUES):
                raise ProfileError(f"candidate out of range: {row!r}")
            if value in values[j]:
                raise ProfileError(f"duplicate candidate ({j}, {value})")
            values[j].append(value)
            scores[j].append(score)
    if any(not vals for vals in values):
        raise ProfileError("every position needs at least one candidate")
    return CandidateReport(
        tuple(tuple(v) for v in values), tuple(tuple(s) for s in scores)
    )

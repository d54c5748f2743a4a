"""Timing-profile statistics and first-round key-byte correlation.

The attack watches how a server's encryption latency depends on each
plaintext byte.  Averaging many samples per (position, byte value) cell
yields a 16x256 profile whose shape is a fingerprint of ``pt ^ key``:
profiles taken under two different keys are XOR-translates of each
other, so sliding one against the other recovers the XOR difference of
the keys, hence the unknown key when one of them is known.

A TimingProfile is three (16, 256) int64 arrays, filled in batches by its
add, which keeps every position's totals below MAX_TOTAL = 2^63.

Every lab CSV (profile, candidates, report) is read through read_rows,
which names the line of the first bad header, row width or cell.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Sequence

import numpy as np

POSITIONS = 16
VALUES = 256

PROFILE_HEADER = ("position", "value", "count", "sum_cycles", "sumsq_cycles")
CANDIDATE_HEADER = ("position", "value", "score")

# No position's total of counts, of sums or of sums of squares may reach
# this, so every int64 cell and every int64 sum over a profile is exact.
MAX_TOTAL = 1 << 63

# collect_profile bins its samples this many at a time.
BATCH = 4096


class ChannelError(RuntimeError):
    """An oracle could not deliver a measurement.

    This is the failure contract of any oracle passed to collect_profile,
    which counts it and draws a fresh plaintext.
    """


class ProfileError(ValueError):
    """Malformed profile or candidate data."""


class CollectionError(RuntimeError):
    """Too many failed measurements, or a refused batch; partial data is preserved."""

    def __init__(self, message: str, partial: "TimingProfile", failures: int):
        super().__init__(message)
        self.partial = partial
        self.failures = failures


class TimingProfile:
    """Per-(position, value) sample counts, cycle sums and sums of squared
    cycles: ``counts``, ``sums`` and ``sumsqs``, three (16, 256) int64 arrays.

    Samples enter only through ``add``, which keeps every position's totals
    below MAX_TOTAL, so int64 accumulation is exact.
    """

    __slots__ = ("counts", "sums", "sumsqs")

    def __init__(self) -> None:
        self.counts, self.sums, self.sumsqs = (
            np.zeros((POSITIONS, VALUES), dtype=np.int64) for _ in range(3)
        )

    def add(self, plaintexts: bytes, cycles: Sequence[int]) -> None:
        """Bin n samples: 16 * n plaintext bytes, sample i's at [16i, 16i + 16),
        and n cycle counts. A batch with a negative count, or one that would
        take a position's total of counts, sums or sumsqs to MAX_TOTAL, is
        refused whole, leaving the profile unchanged."""
        cycles = list(map(operator.index, cycles))
        if len(plaintexts) != POSITIONS * len(cycles):
            raise ProfileError("need 16 plaintext bytes per cycle count")
        if min(cycles, default=0) < 0:
            raise ProfileError("cycle count must be non-negative")
        # each sample adds once to every position, so max + more is the largest new total
        added = (len(cycles), sum(cycles), sum(map(operator.mul, cycles, cycles)))
        for name, table, more in zip(self.__slots__, (self.counts, self.sums, self.sumsqs), added):
            if int(table.sum(axis=1).max()) + more >= MAX_TOTAL:
                raise ProfileError(f"batch would take a position's {name} total to 2^63 or more")
        values = np.frombuffer(plaintexts, dtype=np.uint8).reshape(-1, POSITIONS)
        cells = (values + np.arange(0, POSITIONS * VALUES, VALUES)).ravel()  # flat (j, v)
        per_cell = np.array(cycles, dtype=np.int64).repeat(POSITIONS)
        np.add.at(self.counts.reshape(-1), cells, 1)
        np.add.at(self.sums.reshape(-1), cells, per_cell)
        np.add.at(self.sumsqs.reshape(-1), cells, per_cell * per_cell)

    @property
    def total_samples(self) -> int:
        # every sample lands in exactly one bucket per position
        return int(self.counts[0].sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimingProfile):
            return NotImplemented
        return (
            np.array_equal(self.counts, other.counts)
            and np.array_equal(self.sums, other.sums)
            and np.array_equal(self.sumsqs, other.sumsqs)
        )


def collect_profile(
    oracle: Callable[[bytes], int],
    num_samples: int,
    rng: Random,
    *,
    max_failures: int = 100,
) -> TimingProfile:
    """Query ``oracle`` with uniform random plaintexts and accumulate,
    binning BATCH samples at a time.

    Failed measurements are retried with fresh plaintexts; after
    ``max_failures`` of them, or when the profile refuses a batch, the
    collection aborts, keeping the samples binned so far on the raised error.
    """
    profile = TimingProfile()
    failures = 0
    while (binned := profile.total_samples) < num_samples:
        plaintexts: list[bytes] = []
        cycles: list[int] = []
        error = None
        while error is None and len(cycles) < min(BATCH, num_samples - binned):
            pt = rng.randbytes(16)
            try:
                sample = oracle(pt)
            except ChannelError as exc:
                failures += 1
                if failures >= max_failures:
                    error = (f"aborted after {failures} failed measurements "
                             f"({binned + len(cycles)}/{num_samples} collected); last: {exc}")
                continue
            plaintexts.append(pt)
            cycles.append(sample)
        try:
            profile.add(b"".join(plaintexts), cycles)
        except ProfileError as exc:
            error = f"profile refused a batch ({binned}/{num_samples} collected): {exc}"
        if error is not None:
            raise CollectionError(error, profile, failures)
    return profile


def signature(profile: TimingProfile) -> np.ndarray:
    """Centered per-position timing curves, (16, 256) float64:
    mean[j][v] - mean[j], and 0 for a cell with no samples."""
    counts, sums = profile.counts, profile.sums
    per_position = counts.sum(axis=1)
    if np.any(per_position == 0):
        raise ProfileError("profile has no samples")
    means = np.divide(sums, counts, out=np.zeros(sums.shape), where=counts > 0)
    overall = sums.sum(axis=1) / per_position
    return np.where(counts > 0, means - overall[:, None], 0.0)


def correlate(study: np.ndarray, study_key: bytes, attack: np.ndarray) -> np.ndarray:
    """Score every key-byte guess between two signature arrays.

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
        out[j] = study[j][idx] @ attack[j]
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
    tables = [table.tolist() for table in (profile.counts, profile.sums, profile.sumsqs)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_HEADER)
        for j in range(POSITIONS):
            for v in range(VALUES):
                writer.writerow((j, v, *(table[j][v] for table in tables)))


def read_rows(lines, header: tuple[str, ...], parsers, error: type[Exception]):
    """Yield each row after ``header`` as its cells passed through ``parsers``;
    a wrong header, width or cell, or a csv.Error, raises ``error`` naming its line."""
    reader = csv.reader(lines)
    try:
        row = next(reader, None)
        if row is None or tuple(row) != header:
            raise error(f"line 1: expected header {','.join(header)}, got {row!r}")
        for row in reader:
            if len(row) != len(parsers):
                raise error(f"line {reader.line_num}: expected {len(parsers)} cells, got {row!r}")
            try:
                cells = tuple(parse(cell) for parse, cell in zip(parsers, row))
            except ValueError:
                raise error(f"line {reader.line_num}: bad cell in {row!r}") from None
            yield cells
    except csv.Error as exc:
        raise error(f"line {reader.line_num}: {exc}") from None


def load_profile(path: str | Path) -> TimingProfile:
    profile = TimingProfile()
    seen = [[False] * VALUES for _ in range(POSITIONS)]
    totals = [[0, 0, 0] for _ in range(POSITIONS)]  # per position, in Python ints
    with open(path, newline="") as fh:
        rows = read_rows(fh, PROFILE_HEADER, (int,) * 5, ProfileError)
        for line, row in enumerate(rows, start=2):  # one row a line, as save_profile writes
            j, v, count, total, sumsq = row
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
            totals[j] = [t + cell for t, cell in zip(totals[j], (count, total, sumsq))]
            if max(totals[j]) >= MAX_TOTAL:
                raise ProfileError(f"line {line}: position {j} total reaches 2^63")
            seen[j][v] = True
            profile.counts[j, v] = count
            profile.sums[j, v] = total
            profile.sumsqs[j, v] = sumsq
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
        for j, value, score in read_rows(fh, CANDIDATE_HEADER, (int, int, float), ProfileError):
            if not (0 <= j < POSITIONS and 0 <= value < VALUES):
                raise ProfileError(f"candidate out of range: {(j, value, score)!r}")
            if value in values[j]:
                raise ProfileError(f"duplicate candidate ({j}, {value})")
            values[j].append(value)
            scores[j].append(score)
    if any(not vals for vals in values):
        raise ProfileError("every position needs at least one candidate")
    return CandidateReport(
        tuple(tuple(v) for v in values), tuple(tuple(s) for s in scores)
    )

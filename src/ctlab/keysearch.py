"""Brute-force search over reduced key spaces, with rate benchmarking.

Candidate keys are enumerated in a canonical mixed-radix order (position
0 most significant, best-scored value first) and tested in bulk with
aes.expand_batch and aes.encrypt_batch.  Any key that survives the bulk
screen is re-verified pair-by-pair with the scalar cipher before being
accepted, so the two kernels cross-check each other.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import aes
from .aes import encrypt_batch, expand_batch
from .attack import CandidateReport

log = logging.getLogger("ctlab.keysearch")

DEFAULT_CHUNK = 1 << 16
DEFAULT_FIT_THRESHOLD = 10**8

# Wall-clock measurements of this search on a slower baseline machine,
# kept as a fixture for the rate model.  The flat 0.01-0.02 s readings
# below 10^6 are timer-floor artifacts, which is why the default fit
# threshold starts at 10^8.
REFERENCE_SEARCH_TIMINGS: tuple[tuple[int, float], ...] = (
    (10**2, 0.01),
    (10**3, 0.02),
    (10**4, 0.02),
    (10**5, 0.02),
    (10**6, 0.09),
    (10**7, 0.53),
    (10**8, 4.58),
    (10**9, 40.23),
    (10**10, 348.23),
    (10**11, 2977.83),
    (10**12, 24512.69),
)


class SearchError(RuntimeError):
    """Search could not be carried out as requested."""


class FitError(ValueError):
    """No usable points for the rate fit."""


@dataclass(frozen=True)
class SearchOutcome:
    found: bytes | None
    keys_tested: int
    elapsed: float


def _chunk_keys(
    values: tuple[tuple[int, ...], ...], sizes: list[int], start: int, count: int
) -> np.ndarray:
    # mixed-radix decode: position 15 is the fastest-varying digit
    idx = np.uint64(start) + np.arange(count, dtype=np.uint64)
    out = np.empty((count, 16), dtype=np.uint8)
    for j in range(15, -1, -1):
        radix = np.uint64(sizes[j])
        digit = (idx % radix).astype(np.int64)
        out[:, j] = np.asarray(values[j], dtype=np.uint8)[digit]
        idx //= radix
    return out


def _check_pairs(pairs) -> list[tuple[bytes, bytes]]:
    if not pairs:
        raise ValueError("at least one (plaintext, ciphertext) pair is required")
    checked = []
    for pt, ct in pairs:
        if len(pt) != 16 or len(ct) != 16:
            raise ValueError("verification pairs must be 16-byte pt/ct")
        checked.append((bytes(pt), bytes(ct)))
    return checked


def _verify_scalar(key: bytes, pairs: list[tuple[bytes, bytes]]) -> bool:
    rk = aes.expand_key(key)
    return all(aes.encrypt(pt, rk) == ct for pt, ct in pairs)


def brute_force(
    cands: CandidateReport,
    pairs,
    *,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> SearchOutcome:
    """Search the candidate product for a key matching every pair.

    Deterministic regardless of ``threads``: the accepted key is the
    first full match in canonical enumeration order, and keys_tested is
    its 1-based rank (or the whole space size when nothing matches).
    """
    pairs = _check_pairs(pairs)
    if len(pairs) < 2:
        log.warning("single verification pair; a second removes any false-positive doubt")
    if threads < 1 or chunk_size < 1:
        raise ValueError("threads and chunk_size must be positive")
    values = cands.values
    sizes = [len(v) for v in values]
    total = math.prod(sizes)
    if total > 1 << 62:
        raise SearchError("key space too large to enumerate exhaustively")
    started = time.perf_counter()

    pt0, ct0 = pairs[0]
    expected = np.array(
        [int.from_bytes(ct0[4 * i : 4 * i + 4], "big") for i in range(4)],
        dtype=np.uint32,
    )

    def scan(start: int) -> list[tuple[int, bytes]]:
        keys = _chunk_keys(values, sizes, start, min(chunk_size, total - start))
        words = encrypt_batch(pt0, expand_batch(keys))
        matching = np.nonzero((words == expected).all(axis=1))[0]
        return [(start + int(i), keys[i].tobytes()) for i in matching]

    starts = iter(range(0, total, chunk_size))
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        mapper = map if pool is None else pool.map
        while wave := list(islice(starts, threads)):
            for rank, key in sorted(hit for part in mapper(scan, wave) for hit in part):
                if _verify_scalar(key, pairs):
                    return SearchOutcome(key, rank + 1, time.perf_counter() - started)
    return SearchOutcome(None, total, time.perf_counter() - started)


_BENCH_KEY = bytes([0xFF]) * 16
_BENCH_PT = bytes(range(16))


def _no_match_space(size: int) -> CandidateReport:
    """A candidate product of exactly ``size`` keys, none of them _BENCH_KEY."""
    if size < 1:
        raise SearchError("size must be >= 1")
    factors: list[int] = []
    remaining = size
    divisor = 2
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            factors.append(divisor)
            remaining //= divisor
        divisor += 1
    if remaining > 1:
        factors.append(remaining)
    radices = [1] * 16
    for f in sorted(factors, reverse=True):
        packed = False
        for j in range(16):
            if radices[j] * f <= 256:
                radices[j] *= f
                packed = True
                break
        if not packed:
            raise SearchError(f"cannot shape a key space of size {size}")
    if all(r == 256 for r in radices):
        raise SearchError("full key space cannot be made match-free")
    values = tuple(tuple(range(r)) for r in radices)  # 0xFF never included
    scores = tuple(tuple(float(r - i) for i in range(r)) for r in radices)
    return CandidateReport(values, scores)


def measure_search_rate(sizes, *, threads: int = 1) -> list[tuple[int, float]]:
    """Worst-case (no match) search wall time per key-space size."""
    schedule = aes.expand_key(_BENCH_KEY)
    second = bytes(reversed(_BENCH_PT))
    pairs = [
        (_BENCH_PT, aes.encrypt(_BENCH_PT, schedule)),
        (second, aes.encrypt(second, schedule)),
    ]
    points: list[tuple[int, float]] = []
    for raw in sizes:
        size = int(raw)
        outcome = brute_force(_no_match_space(size), pairs, threads=threads)
        if outcome.found is not None or outcome.keys_tested != size:
            raise SearchError("benchmark space unexpectedly produced a match")
        points.append((size, outcome.elapsed))
        log.info("bench size=%d elapsed=%.4fs (%.3g keys/s)",
                 size, outcome.elapsed, size / max(outcome.elapsed, 1e-9))
    return points


def fit_rate(points, min_size: float = DEFAULT_FIT_THRESHOLD) -> float:
    """Through-origin least squares on (size, seconds): Σxy / Σx²."""
    kept = [(s, t) for s, t in points if s >= min_size]
    if not kept:
        raise FitError(f"no points at or above size {min_size}")
    num = math.fsum(float(s) * t for s, t in kept)
    den = math.fsum(float(s) ** 2 for s, _ in kept)
    return num / den


def fit_residual_r2(points, alpha: float) -> float:
    """Through-origin coefficient of determination for the given slope."""
    xs = np.array([float(s) for s, _ in points])
    ys = np.array([t for _, t in points])
    residual = ys - alpha * xs
    total = float((ys**2).sum())
    if total == 0:
        raise FitError("all observations are zero")
    return 1.0 - float((residual**2).sum()) / total


def estimate_search_time(keyspace: int, alpha: float) -> float:
    if keyspace < 0:
        raise ValueError("keyspace must be non-negative")
    return alpha * float(keyspace)

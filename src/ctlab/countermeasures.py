"""Timing-attack countermeasures as pure disturbance generators.

make_state(kind, seed) is the one place a countermeasure kind decides
anything. It returns what a server fixes once, when it is built: its
table rows (rows[t][i] is the byte address of index i of table t;
cache_partition gives each table its own alignment, every other kind
packs the five) and its endless stream of DisturbanceReports, one per
request: flat extra cycles, or extra table accesses placed by the same
rows. Each distinct report is built once, and apply takes the next one.
Ciphertexts are never touched, so every variant is semantics-preserving
by construction.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import cycle, repeat

from .aes import TABLE_BYTES


class Kind(enum.Enum):
    NONE = "none"
    RANDOM_LOOP = "random_loop"
    SPECIFIED_LOOP = "specified_loop"
    PREFETCH = "prefetch"
    CACHE_PARTITION = "cache_partition"


def _rows(bases) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(b + 4 * i for i in range(256)) for b in bases)


# Five tables contiguous at a 64-byte-aligned base.
PACKED_ROWS = _rows(0x40000 + t * TABLE_BYTES for t in range(5))
# Partition alignments: Te0 on 0x10, then each further table on the next
# 16x coarser boundary, giving every table a private address stripe.
PARTITIONED_ROWS = _rows((0x10, 0x1000, 0x10000, 0x100000, 0x1000000))

# Flat cycle charges for disturbance work outside the cache model.
RNG_CYCLES = 3800       # one PRNG draw
LOOP_ITER_CYCLES = 7    # one dummy loop iteration
DIV_CYCLES = 20         # one integer division

RANDOM_LOOP_BOUND = 20

# One period of specified_loop's generator: it starts at 1777, divides
# by 17 (truncating) on each request and emits the quotient; a quotient
# below 6 reloads 1777 and emits a zero count instead.
SPECIFIED_COUNTS = (104, 6, 0)

PREFETCH_WINDOW = 16

# Window k is 16 consecutive indices from 16k on each of Te0..Te3; run w
# is windows w..w+4 (mod 16), one per main-loop iteration, sharing entries.
_WINDOWS = [[(t, w + i) for t in range(4) for i in range(PREFETCH_WINDOW)]
            for w in range(0, 256, PREFETCH_WINDOW)]
PREFETCH_RUNS = tuple(
    tuple(entry for k in range(w, w + 5) for entry in _WINDOWS[k % len(_WINDOWS)])
    for w in range(len(_WINDOWS))
)


@dataclass(frozen=True)
class DisturbanceReport:
    extra_cycles: int = 0
    extra_accesses: Sequence = ()  # byte addresses, placed by the server's rows


NO_DISTURBANCE = DisturbanceReport()


def make_state(kind: Kind, seed: int = 1):
    """A server's (rows, stream): its table rows and its endless stream of
    per-request DisturbanceReports.

    random_loop charges a loop count drawn by
    random.Random(seed).randrange(RANDOM_LOOP_BOUND), specified_loop
    cycles SPECIFIED_COUNTS, and prefetch cycles its runs, request k
    taking run 5k mod 16: each request moves on five windows. Each run
    entry (t, i) is placed as rows[t][i] (IndexError on an entry outside
    the tables). none and cache_partition add nothing.
    """
    rows = PARTITIONED_ROWS if kind is Kind.CACHE_PARTITION else PACKED_ROWS
    if kind is Kind.RANDOM_LOOP:
        reports = [DisturbanceReport(RNG_CYCLES + n * LOOP_ITER_CYCLES)
                   for n in range(RANDOM_LOOP_BOUND)]
        draws = map(random.Random(seed).randrange, repeat(RANDOM_LOOP_BOUND))
        return rows, map(reports.__getitem__, draws)
    if kind is Kind.SPECIFIED_LOOP:
        return rows, cycle([DisturbanceReport(DIV_CYCLES + n * LOOP_ITER_CYCLES)
                            for n in SPECIFIED_COUNTS])
    if kind is Kind.PREFETCH:
        runs = [DisturbanceReport(extra_accesses=tuple(rows[t][i] for t, i in run))
                for run in PREFETCH_RUNS]
        return rows, cycle([runs[5 * k % len(runs)] for k in range(len(runs))])
    return rows, repeat(NO_DISTURBANCE)


def apply(kind: Kind, state) -> DisturbanceReport:
    """The next request's report from state, the stream make_state built
    for kind. kind goes unread: it lets a profiler tell the kinds apart."""
    return next(state)

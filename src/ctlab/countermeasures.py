"""Timing-attack countermeasures as pure disturbance generators.

Each countermeasure describes what it would add to one encryption:
flat extra cycles or extra table accesses to interleave. Cache
partitioning instead fixes where a server places its tables, once
(table_layout). Ciphertexts are never touched, so every variant is
semantics-preserving by construction.

Each countermeasure's behaviour lives in two places. make_state builds,
once per server, an endless iterator of what the server draws for each
request: random_loop's and specified_loop's loop counts, prefetch's
access runs. apply takes one request's draw and prices it. make_state
places each prefetch entry (t, i) as record[t][i], the rule aes.encrypt
traces by: the default aes.PAIRS keeps (table, index) pairs, and a
layout's rows give byte addresses.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import cycle, repeat

from .aes import PAIRS
from .cachesim import PACKED_LAYOUT, PARTITIONED_LAYOUT, MemoryLayout


class Kind(enum.Enum):
    NONE = "none"
    RANDOM_LOOP = "random_loop"
    SPECIFIED_LOOP = "specified_loop"
    PREFETCH = "prefetch"
    CACHE_PARTITION = "cache_partition"


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
    extra_accesses: Sequence = ()  # entries of the record make_state placed runs by


NO_DISTURBANCE = DisturbanceReport()


def table_layout(kind: Kind) -> MemoryLayout:
    """Where a server running kind places its tables, for its whole life."""
    return PARTITIONED_LAYOUT if kind is Kind.CACHE_PARTITION else PACKED_LAYOUT


def make_state(kind: Kind, seed: int = 1, record: Sequence = PAIRS):
    """A server's endless stream of per-request draws; None for stateless kinds.

    random_loop draws random.Random(seed).randrange(RANDOM_LOOP_BOUND),
    specified_loop cycles SPECIFIED_COUNTS, and prefetch cycles its runs,
    request k taking run 5k mod 16: each request moves on five windows.
    Each run entry (t, i) is placed as record[t][i], the rule aes.encrypt
    traces by (IndexError on an entry outside the tables).
    """
    if kind is Kind.RANDOM_LOOP:
        return map(random.Random(seed).randrange, repeat(RANDOM_LOOP_BOUND))
    if kind is Kind.SPECIFIED_LOOP:
        return cycle(SPECIFIED_COUNTS)
    if kind is Kind.PREFETCH:
        runs = [tuple(record[t][i] for t, i in run) for run in PREFETCH_RUNS]
        return cycle([runs[5 * k % len(runs)] for k in range(len(runs))])
    return None


def apply(kind: Kind, state=None) -> DisturbanceReport:
    """Price the next draw of state, what make_state built for the same
    kind; none and cache_partition add nothing."""
    if kind is Kind.RANDOM_LOOP:
        return DisturbanceReport(RNG_CYCLES + next(state) * LOOP_ITER_CYCLES)
    if kind is Kind.SPECIFIED_LOOP:
        return DisturbanceReport(DIV_CYCLES + next(state) * LOOP_ITER_CYCLES)
    if kind is Kind.PREFETCH:
        return DisturbanceReport(extra_accesses=next(state))
    return NO_DISTURBANCE

"""Timing-attack countermeasures as pure disturbance generators.

Each countermeasure describes what it would add to one encryption:
flat extra cycles or extra table accesses to interleave. Cache
partitioning instead fixes where a server places its tables, once
(table_layout). Ciphertexts are never touched, so every variant is
semantics-preserving by construction.

Each countermeasure's behaviour lives in two places: make_state builds
the state a server keeps (random_loop's seeded PRNG, specified_loop's
generator, prefetch's 16 fixed runs), once, and apply adds what one
request costs. make_state places each prefetch entry (t, i) as
record[t][i], the rule aes.encrypt traces by: the default aes.PAIRS keeps
(table, index) pairs, and a layout's rows give byte addresses.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence
from dataclasses import dataclass

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

SPECIFIED_SEED = 1777
SPECIFIED_DIVISOR = 17
SPECIFIED_RESET_BELOW = 6

PREFETCH_WINDOW = 16

# Window k is 16 consecutive indices from 16k on each of Te0..Te3; the run
# apply() injects from window k is windows k..k+4 (mod 16), sharing entries.
_WINDOWS = [[(t, w + i) for t in range(4) for i in range(PREFETCH_WINDOW)]
            for w in range(0, 256, PREFETCH_WINDOW)]
PREFETCH_RUNS = tuple(
    tuple(entry for k in range(w, w + 5) for entry in _WINDOWS[k % len(_WINDOWS)])
    for w in range(len(_WINDOWS))
)


@dataclass
class SpecifiedLoopState:
    gen: int = SPECIFIED_SEED


@dataclass
class PrefetchState:
    runs: tuple  # the 16 runs apply() hands out, placed by make_state
    window_start: int = 0


@dataclass(frozen=True)
class DisturbanceReport:
    extra_cycles: int = 0
    extra_accesses: Sequence = ()  # entries of the record make_state placed runs by
    loop_count: int = 0  # dummy-loop iterations extra_cycles charges for


NO_DISTURBANCE = DisturbanceReport()


def specified_loop_next(state: SpecifiedLoopState) -> int:
    """Advance the deterministic loop-count generator.

    Each call divides the generator by 17 (truncating). A quotient below
    6 reloads the seed value and yields a zero count, so the emitted
    sequence is 104, 6, 0 repeating.
    """
    nxt = state.gen // SPECIFIED_DIVISOR
    if nxt < SPECIFIED_RESET_BELOW:
        state.gen = SPECIFIED_SEED
        return 0
    state.gen = nxt
    return nxt


def table_layout(kind: Kind) -> MemoryLayout:
    """Where a server running kind places its tables, for its whole life."""
    return PARTITIONED_LAYOUT if kind is Kind.CACHE_PARTITION else PACKED_LAYOUT


def make_state(kind: Kind, seed: int = 1, record: Sequence = PAIRS):
    """Fresh per-server countermeasure state; None for stateless kinds.

    random_loop's state is random.Random(seed). prefetch's runs hold
    record[t][i] for each entry (t, i), the rule aes.encrypt traces by
    (IndexError on an entry outside the tables).
    """
    if kind is Kind.RANDOM_LOOP:
        return random.Random(seed)
    if kind is Kind.SPECIFIED_LOOP:
        return SpecifiedLoopState()
    if kind is Kind.PREFETCH:
        return PrefetchState(tuple(tuple(record[t][i] for t, i in run) for run in PREFETCH_RUNS))
    return None


def apply(kind: Kind, state=None) -> DisturbanceReport:
    """Produce one encryption's disturbance for the given countermeasure.

    state is what make_state built for the same kind; none and
    cache_partition add nothing.
    """
    if kind is Kind.RANDOM_LOOP:
        n = state.randrange(RANDOM_LOOP_BOUND)
        return DisturbanceReport(RNG_CYCLES + n * LOOP_ITER_CYCLES, loop_count=n)
    if kind is Kind.SPECIFIED_LOOP:
        n = specified_loop_next(state)
        return DisturbanceReport(DIV_CYCLES + n * LOOP_ITER_CYCLES, loop_count=n)
    if kind is Kind.PREFETCH:
        run = state.runs[state.window_start // PREFETCH_WINDOW]
        # five windows, one per main-loop iteration
        state.window_start = (state.window_start + 5 * PREFETCH_WINDOW) % 256
        return DisturbanceReport(extra_accesses=run)
    return NO_DISTURBANCE

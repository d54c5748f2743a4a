"""Timing-attack countermeasures as pure disturbance generators.

Each countermeasure describes what it would add to one encryption:
flat extra cycles, extra table accesses to interleave, or the table
layout to replay under instead of the server's packed one. Ciphertexts
are never touched, so every variant is semantics-preserving by
construction.

In native mode the same reports drive real executed code (a busy loop,
actual table reads) inside the timed window; see execute_disturbance.
Cache partitioning is simulation-only there: CPython offers no control
over where list storage lands, so the native variant is a documented
no-op while the report's layout carries the semantics in the simulator.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from .aes import TTABLES
from .cachesim import PARTITIONED_LAYOUT, MemoryLayout


class Kind(enum.Enum):
    NONE = "none"
    RANDOM_LOOP = "random_loop"
    SPECIFIED_LOOP = "specified_loop"
    PREFETCH = "prefetch"
    CACHE_PARTITION = "cache_partition"


class StateError(ValueError):
    """Countermeasure state object does not match the requested kind."""


# Flat cycle charges for disturbance work outside the cache model.
RNG_CYCLES = 3800       # one PRNG draw
LOOP_ITER_CYCLES = 7    # one dummy loop iteration
DIV_CYCLES = 20         # one integer division

RANDOM_LOOP_BOUND = 20

SPECIFIED_SEED = 1777
SPECIFIED_DIVISOR = 17
SPECIFIED_RESET_BELOW = 6

PREFETCH_WINDOW = 16


@dataclass
class SpecifiedLoopState:
    gen: int = SPECIFIED_SEED


@dataclass
class PrefetchState:
    window_start: int = 0

    def __post_init__(self) -> None:
        if self.window_start % PREFETCH_WINDOW or not 0 <= self.window_start < 256:
            raise ValueError("window_start must be a multiple of 16 below 256")


@dataclass
class DisturbanceReport:
    extra_cycles: int = 0
    extra_accesses: Sequence[tuple[int, int]] = field(default_factory=list)
    layout: MemoryLayout | None = None
    loop_count: int = 0  # dummy-loop iterations the native path executes


def random_loop_next(prng: random.Random) -> int:
    """Draw the per-encryption dummy-loop iteration count, 0..19."""
    return prng.randrange(RANDOM_LOOP_BOUND)


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


def prefetch_next(state: PrefetchState) -> list[tuple[int, int]]:
    """Return the current 16-entry window across Te0..Te3, then advance.

    One window is 64 accesses (16 consecutive indices on each of the
    four main-round tables); 16 consecutive windows sweep every index
    of every table exactly once.
    """
    start = state.window_start
    window = [
        (tid, (start + i) % 256) for tid in range(4) for i in range(PREFETCH_WINDOW)
    ]
    state.window_start = (start + PREFETCH_WINDOW) % 256
    return window


# The five-window run apply() injects, for each of the 16 window starts.
# Runs share the (table, index) entries of the windows instead of copying them.
_WINDOWS = [prefetch_next(PrefetchState(w)) for w in range(0, 256, PREFETCH_WINDOW)]
PREFETCH_RUNS = tuple(
    tuple(entry for k in range(w, w + 5) for entry in _WINDOWS[k % len(_WINDOWS)])
    for w in range(len(_WINDOWS))
)


def random_loop_cycles(n: int) -> int:
    return RNG_CYCLES + n * LOOP_ITER_CYCLES


def specified_loop_cycles(count: int) -> int:
    return DIV_CYCLES + count * LOOP_ITER_CYCLES


# The state object each stateful kind carries between encryptions.
_STATE_TYPES = {Kind.SPECIFIED_LOOP: SpecifiedLoopState, Kind.PREFETCH: PrefetchState}


def make_state(kind: Kind):
    """Fresh per-server countermeasure state; None for stateless kinds."""
    state_type = _STATE_TYPES.get(kind)
    return None if state_type is None else state_type()


def apply(
    kind: Kind,
    state=None,
    prng: random.Random | None = None,
) -> DisturbanceReport:
    """Produce one encryption's disturbance for the given countermeasure."""
    expected = _STATE_TYPES.get(kind)
    if expected is None and state is not None:
        raise StateError(f"{kind.value} takes no state, got {type(state).__name__}")
    if expected is not None and not isinstance(state, expected):
        raise StateError(f"{kind.value} requires {expected.__name__}")
    if kind is Kind.NONE:
        return DisturbanceReport()
    if kind is Kind.RANDOM_LOOP:
        if prng is None:
            raise StateError("random_loop requires a PRNG")
        n = random_loop_next(prng)
        return DisturbanceReport(extra_cycles=random_loop_cycles(n), loop_count=n)
    if kind is Kind.SPECIFIED_LOOP:
        count = specified_loop_next(state)
        return DisturbanceReport(extra_cycles=specified_loop_cycles(count), loop_count=count)
    if kind is Kind.PREFETCH:
        run = PREFETCH_RUNS[state.window_start // PREFETCH_WINDOW]
        # five windows, one per main-loop iteration
        state.window_start = (state.window_start + 5 * PREFETCH_WINDOW) % 256
        return DisturbanceReport(extra_accesses=run)
    if kind is Kind.CACHE_PARTITION:
        return DisturbanceReport(layout=PARTITIONED_LAYOUT)
    raise StateError(f"unknown countermeasure kind {kind!r}")


def execute_disturbance(
    kind: Kind,
    state=None,
    prng: random.Random | None = None,
) -> None:
    """Run the countermeasure's real work for native timing.

    The busy loop and table reads execute here so a hardware timer sees
    them; what they do is apply()'s report for the same kind and state.
    """
    report = apply(kind, state, prng=prng)
    acc = 0
    for i in range(report.loop_count):
        acc += i
    sink = [0] * PREFETCH_WINDOW
    for tid, idx in report.extra_accesses:
        sink[idx % PREFETCH_WINDOW] = TTABLES[tid][idx]

"""Deterministic set-associative cache model with true-LRU replacement.

Addresses are plain byte addresses. A block number is address divided by
line_size; its set is block mod num_sets. Replacement state lives per
set as a most-recently-used-last list of block numbers, so equal blocks
are equal (tag, set) pairs and no separate tag math is needed. The
model counts hits; CacheConfig.cycles alone prices a hit count in cycles.

run_encryption replays one encryption's table byte addresses, optionally
interleaving extra addresses, and returns the replay's cycles: the model
prices cache accesses and nothing else. It is a pure address model and
imports nothing from ctlab: where the tables sit and what a countermeasure
adds are decided in countermeasures.make_state, and addresses arrive here
already placed.

CacheState.walk replays a fixed address sequence (a WorkingSet)
incrementally, and exactly. Under LRU, replaying a sequence on the state
that sequence itself left behind changes nothing, and each access hits
or misses the same way as on the previous replay: an access's outcome
depends only on the accesses since the previous touch of its block. So
a walk re-simulates only the cache sets that some access changed since
the last walk of the same WorkingSet, and every other set it covers adds
the hits and misses of that steady replay. access_all records the sets
it changes (every access except a hit on the most recent block); flush
invalidates the last walk.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    line_size: int = 64
    num_sets: int = 64
    assoc: int = 4
    hit_cycles: int = 2
    miss_cycles: int = 50
    cold_flush: bool = True  # empty the cache before each encryption

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_size):
            raise ValueError("line_size must be a power of two")
        if not _is_pow2(self.num_sets):
            raise ValueError("num_sets must be a power of two")
        if self.assoc < 1:
            raise ValueError("assoc must be at least 1")
        if self.hit_cycles < 0 or self.miss_cycles < 0:
            raise ValueError("cycle costs must be non-negative")

    def cycles(self, hits, accesses):
        """Cycles of accesses that hit hits times; elementwise on numpy arrays."""
        return hits * self.hit_cycles + (accesses - hits) * self.miss_cycles


class WorkingSet:
    """A fixed address sequence, grouped by cache set, for CacheState.walk.

    by_set maps each set the sequence touches to its addresses in walk
    order; steady maps it to the hits of a second replay of those
    addresses right after a first one, which is what every later replay
    on an untouched set yields.
    """

    def __init__(self, config: CacheConfig, addresses: Sequence[int]) -> None:
        self.config = config
        self.addresses = tuple(addresses)
        shift = config.line_size.bit_length() - 1
        mask = config.num_sets - 1
        by_set: dict[int, list[int]] = {}
        for address in self.addresses:
            by_set.setdefault((address >> shift) & mask, []).append(address)
        self.by_set = by_set
        self.sets = frozenset(by_set)
        probe = CacheState(replace(config, num_sets=1))
        self.steady: dict[int, int] = {}
        for s, seq in by_set.items():
            probe.flush()
            probe.access_all(seq)
            self.steady[s] = probe.access_all(seq)
        self.steady_hits = sum(self.steady.values())


class CacheState:
    """Mutable cache contents plus lifetime hit/miss statistics."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self.hits = 0
        self.misses = 0
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self._changed: set[int] = set()       # sets changed since the last walk
        self._last_walk: WorkingSet | None = None

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def flush(self) -> None:
        """Drop all cached lines; statistics are preserved."""
        for s in self._sets:
            s.clear()
        self._last_walk = None

    def access_all(self, addresses: Sequence[int]) -> int:
        """Touch a placed address list in order, LRU within each set;
        returns how many of the accesses hit."""
        shift, mask, assoc = self._line_shift, self._set_mask, self.config.assoc
        sets = self._sets
        changed = self._changed.add
        hits = 0
        for address in addresses:
            block = address >> shift
            index = block & mask
            lru = sets[index]
            if lru and lru[-1] == block:
                hits += 1
                continue
            changed(index)
            if block in lru:
                lru.remove(block)
                lru.append(block)
                hits += 1
            else:
                lru.append(block)
                if len(lru) > assoc:
                    del lru[0]
        self.hits += hits
        self.misses += len(addresses) - hits
        return hits

    def walk(self, ws: WorkingSet) -> int:
        """Touch ws's addresses in order; equal to access_all(ws.addresses).

        Replays only the sets changed since ws was last walked on this
        cache; each other set of ws repeats its steady hits and misses.
        """
        if self._last_walk is not ws:
            if ws.config != self.config:
                raise ValueError("working set was built for another cache geometry")
            hits = self.access_all(ws.addresses)
        else:
            dirty = self._changed & ws.sets
            by_set, steady = ws.by_set, ws.steady
            replayed = [a for s in dirty for a in by_set[s]]
            steady_hits = ws.steady_hits - sum(steady[s] for s in dirty)
            self.hits += steady_hits
            self.misses += len(ws.addresses) - len(replayed) - steady_hits
            hits = self.access_all(replayed) + steady_hits
        self._changed.clear()
        self._last_walk = ws
        return hits


def interleave_accesses(trace: Sequence[int], extra: Sequence[int]) -> Sequence[int]:
    """Weave countermeasure accesses into an encryption trace.

    Extra accesses arrive as one flat fragment carrying equal blocks for
    the five main-loop iterations. Each block lands ahead of its
    iteration's lookups: rounds (1,2), (3,4), (5,6), (7,8) and finally
    round 9 plus the Te4 round, mirroring where the main loop runs.
    """
    if not extra:
        return trace
    if len(extra) % 5:
        raise ValueError("extra accesses must split across 5 injection points")
    step = len(extra) // 5
    merged: list[int] = []
    for i in range(5):
        merged.extend(extra[i * step : (i + 1) * step])
        merged.extend(trace[i * 32 : (i + 1) * 32 if i < 4 else len(trace)])
    return merged


def run_encryption(state: CacheState, addresses: Sequence[int], extra: Sequence[int] = ()) -> int:
    """Replay one encryption's table addresses; returns the replay's cycles.

    addresses are the encryption's 160 lookups, already placed; extra
    are countermeasure addresses, interleaved by interleave_accesses.
    Flushes first when the config says each encryption starts cold.
    """
    if state.config.cold_flush:
        state.flush()
    replay = interleave_accesses(addresses, extra)
    return state.config.cycles(state.access_all(replay), len(replay))

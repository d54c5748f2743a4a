"""Deterministic set-associative cache model with true-LRU replacement.

Addresses are plain byte addresses. A block number is address divided by
line_size; its set is block mod num_sets. Replacement state lives per
set as a most-recently-used-last list of block numbers, so equal blocks
are equal (tag, set) pairs and no separate tag math is needed.

run_encryption replays one encryption's table addresses, already placed
under a layout (aes.encrypt records them from layout.rows), optionally
interleaving countermeasure accesses, and charges hit_cycles/miss_cycles
per access plus any flat disturbance cycles. MemoryLayout.resolve is the
one (table, index) -> address mapping, used for countermeasure accesses
and for pair traces; it resolves each tuple once, so a fixed prefetch
run costs one lookup per request. PACKED_LAYOUT and PARTITIONED_LAYOUT
are the only two layouts in use.

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
from dataclasses import dataclass, field, replace

from .aes import TABLE_BYTES, TABLE_IDS


class LayoutError(ValueError):
    """Raised for addresses or indices outside the configured table regions."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    line_size: int = 64
    num_sets: int = 64
    assoc: int = 4
    hit_cycles: int = 2
    miss_cycles: int = 50
    cold_flush_per_encryption: bool = True

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_size):
            raise ValueError("line_size must be a power of two")
        if not _is_pow2(self.num_sets):
            raise ValueError("num_sets must be a power of two")
        if self.assoc < 1:
            raise ValueError("assoc must be at least 1")
        if self.hit_cycles < 0 or self.miss_cycles < 0:
            raise ValueError("cycle costs must be non-negative")


@dataclass(frozen=True)
class MemoryLayout:
    """Byte base addresses for Te0..Te4; each table occupies 1024 bytes.

    rows[t][i] is the byte address of index i of table t, the record
    aes.encrypt takes to trace addresses; resolve maps (table, index)
    entries to the same addresses.
    """

    bases: tuple[int, int, int, int, int]
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # (table, index) -> byte address, for every valid trace entry
    addresses: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)
    # id(entries) -> (entries, addresses) for up to 64 tuples resolve has seen
    _resolved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        regions = sorted((b, b + TABLE_BYTES) for b in self.bases)
        for b, _ in regions:
            if b < 0:
                raise LayoutError("table base addresses must be non-negative")
        for (_, end), (nxt, _) in zip(regions, regions[1:]):
            if nxt < end:
                raise LayoutError("table regions overlap")
        rows = tuple(tuple(self.bases[t] + 4 * i for i in range(256)) for t in TABLE_IDS)
        object.__setattr__(self, "rows", rows)
        addresses = {(t, i): rows[t][i] for t in TABLE_IDS for i in range(256)}
        object.__setattr__(self, "addresses", addresses)

    def resolve(self, entries: Sequence[tuple[int, int]]) -> Sequence[int]:
        """Byte addresses of (table, index) entries; LayoutError on any outside the tables.

        A tuple's addresses are kept next to the tuple, whose id keys them:
        prefetch passes one of its 16 fixed runs on every request.
        """
        memo = self._resolved
        if type(entries) is tuple:
            kept = memo.get(id(entries))
            if kept is not None:
                return kept[1]
        table = self.addresses
        try:
            addresses = [table[entry] for entry in entries]
        except KeyError as exc:
            raise LayoutError(f"trace entry {exc.args[0]} outside table regions") from None
        if type(entries) is tuple and len(memo) < 64:
            addresses = tuple(addresses)
            memo[id(entries)] = (entries, addresses)
        return addresses


PACKED_BASE = 0x40000

# Partition alignments: Te0 on 0x10, then each further table on the next
# 16x coarser boundary, giving every table a private address stripe.
PARTITION_BASES = (0x10, 0x1000, 0x10000, 0x100000, 0x1000000)


# Five tables contiguous at a 64-byte-aligned base.
PACKED_LAYOUT = MemoryLayout(tuple(PACKED_BASE + i * TABLE_BYTES for i in range(5)))
# Each table isolated on its own progressively coarser alignment.
PARTITIONED_LAYOUT = MemoryLayout(PARTITION_BASES)


@dataclass
class SimResult:
    hits: int
    misses: int
    cycles: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


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
            self.steady[s] = probe.access_all(seq).hits
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

    def access(self, address: int) -> bool:
        """Touch one address; returns True on hit. LRU within the set."""
        return self.access_all((address,)).hits == 1

    def access_all(self, addresses: Sequence[int]) -> SimResult:
        """Touch a pre-resolved address list; returns the per-call delta."""
        h0, m0 = self.hits, self.misses
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
        misses = len(addresses) - hits
        self.hits = h0 + hits
        self.misses = m0 + misses
        cfg = self.config
        return SimResult(hits, misses, hits * cfg.hit_cycles + misses * cfg.miss_cycles)

    def walk(self, ws: WorkingSet) -> SimResult:
        """Touch ws's addresses in order; equal to access_all(ws.addresses).

        Replays only the sets changed since ws was last walked on this
        cache; each other set of ws repeats its steady hits and misses.
        """
        if self._last_walk is not ws:
            if ws.config != self.config:
                raise ValueError("working set was built for another cache geometry")
            res = self.access_all(ws.addresses)
        else:
            dirty = self._changed & ws.sets
            by_set, steady = ws.by_set, ws.steady
            res = self.access_all([a for s in dirty for a in by_set[s]])
            hits = res.hits + ws.steady_hits - sum(steady[s] for s in dirty)
            misses = len(ws.addresses) - hits
            self.hits += hits - res.hits
            self.misses += misses - res.misses
            cfg = self.config
            res = SimResult(hits, misses, hits * cfg.hit_cycles + misses * cfg.miss_cycles)
        self._changed.clear()
        self._last_walk = ws
        return res


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
        raise ValueError("disturbance fragment must split across 5 injection points")
    step = len(extra) // 5
    merged: list[int] = []
    for i in range(5):
        merged.extend(extra[i * step : (i + 1) * step])
        merged.extend(trace[i * 32 : (i + 1) * 32 if i < 4 else len(trace)])
    return merged


def run_encryption(
    state: CacheState,
    addresses: Sequence[int],
    layout: MemoryLayout,
    disturbance=None,
) -> SimResult:
    """Replay one encryption's table addresses through the cache.

    addresses are the encryption's 160 lookups already placed under
    layout: recorded by aes.encrypt from layout.rows, or layout.resolve
    of a (table, index) trace. disturbance is any object carrying
    extra_accesses, extra_cycles and layout (or None); its
    (table, index) extra_accesses are resolved under layout and
    interleaved, and its layout, when set, must be layout itself, since
    the addresses were placed before the replay. Flushes first when the
    config says each encryption starts cold.
    cycles = hits*hit + misses*miss + extras.
    """
    cfg = state.config
    if cfg.cold_flush_per_encryption:
        state.flush()
    extra = 0
    if disturbance is not None:
        if disturbance.layout not in (None, layout):
            raise LayoutError("disturbance layout differs from the replay layout")
        if disturbance.extra_accesses:
            addresses = interleave_accesses(addresses, layout.resolve(disturbance.extra_accesses))
        extra = disturbance.extra_cycles
    res = state.access_all(addresses)
    res.cycles += extra
    return res

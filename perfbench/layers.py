"""Which ctlab names the traced run wraps, and the per-layer metrics.

A request is one ``SimulatedBackend.handle`` call; its layers are the
countermeasure ``apply``, the handler's two ``CacheState.access_all``
walks (parse buffer, then scratch lines), the traced ``encrypt`` and the
``run_encryption`` replay.  Per-request figures are totals divided by
the number of requests, so they add up to the handle time.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from ctlab import attack as atk
from ctlab import cachesim, channel, harness, keysearch

PER_LAYER = {
    "aes.encrypt_traced_us": "us",
    "aes.calls": "count",
    "cachesim.replay_us": "us",
    "cachesim.walk_us": "us",
    "cachesim.parse_walk_us": "us",
    "cachesim.scratch_walk_us": "us",
    "cachesim.accesses_per_request": "count",
    "cachesim.hit_ratio": "ratio",
    "countermeasures.apply_us": "us",
    "countermeasures.apply_prefetch_us": "us",
    "countermeasures.extra_accesses_per_request": "count",
    "channel.handle_us_p50": "us",
    "channel.handle_us_p99": "us",
    "channel.handle_self_us": "us",
    "channel.transport_us_p50": "us",
    "channel.timeouts": "count",
    "channel.server_served": "count",
    "channel.server_dropped": "count",
    "attack.profile_add_us": "us",
    "attack.collect_s": "s",
    "attack.correlate_ms": "ms",
    "keysearch.expand_ms_per_chunk": "ms",
    "keysearch.encrypt_ms_per_chunk": "ms",
    "keysearch.scan_self_ms_per_chunk": "ms",
    "keysearch.chunks": "count",
    "harness.stage_s.collect_study": "s",
    "harness.stage_s.collect_attack": "s",
    "harness.stage_s.correlate": "s",
    "harness.stage_s.search": "s",
    "harness.stage_s.unattributed": "s",
    "trace.overhead_s": "s",
}

# Re-anchor measurements on attack.cfg (ROADMAP item 1), us per request.
ROADMAP_US = {
    "handle": 226, "encrypt": 48.5, "replay": 59.4, "parse": 38.4,
    "scratch": 64.7, "add": 4.0, "apply.prefetch": 104,
}

OP_SPAN = "bench.op"


def _traced_encrypt(args) -> str:
    return "aes.encrypt_traced" if len(args) > 3 and args[3] is not None else "aes.encrypt"


def install_tracing(patches, tracer) -> None:
    """Wrap each layer's public entry point with a span."""
    def wrap(owner, attr, name="", **kw):
        patches.wrap(owner, attr, lambda fn: tracer.wrap(fn, name, **kw))

    wrap(channel, "encrypt", name_of=_traced_encrypt)
    wrap(channel, "run_encryption", "cachesim.run_encryption")
    wrap(channel, "apply", name_of=lambda a: "countermeasures.apply." + a[0].value,
         count=lambda report: len(report.extra_accesses))
    wrap(channel.SimulatedBackend, "handle", request_root=True,
         name_of=lambda a: "channel.handle." + a[0].kind.value)
    wrap(cachesim.CacheState, "access_all", "cachesim.access_all")
    wrap(atk.TimingProfile, "add", "attack.TimingProfile.add")
    for name in ("collect_profile", "signature", "correlate", "candidate_sets"):
        wrap(atk, name, "attack." + name)
    wrap(keysearch, "expand_batch", "keysearch.expand_batch")
    wrap(keysearch, "encrypt_batch", "keysearch.encrypt_batch")
    wrap(keysearch, "brute_force", "keysearch.brute_force")
    wrap(harness, "brute_force", "keysearch.brute_force")


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if len(values) else 0.0


class LayerReport:
    """Per-layer metrics of one traced run, plus the tables that show them."""

    def __init__(self, workload, tracer, results) -> None:
        traced = [r for r in results if r.traced]
        untraced = [r for r in results if not r.traced]
        n_ops = len(traced)
        split = workload.server_spans_from
        client = tracer.spans(0, split)
        server = client if split is None else tracer.spans(split)
        self.kinds: dict[str, tuple[float, float]] = {}
        m: dict[str, float] = {}

        # request layers, in whichever process-local spans ran the handler
        handle = server.prefix_mask("channel.handle.")
        requests = server.count(handle)

        def per_request(mask) -> float:
            return server.total_us(mask) / requests if requests else 0.0

        encrypt = server.mask("aes.encrypt_traced")
        calls = server.count(encrypt | server.mask("aes.encrypt"))
        walk = server.mask("cachesim.access_all")
        parent = server.parent
        under_handle = np.zeros(len(parent), dtype=bool)
        has_parent = parent >= 0
        under_handle[has_parent] = handle[parent[has_parent]]
        walk &= under_handle
        first = np.zeros_like(walk)
        walk_idx = np.nonzero(walk)[0]
        _, first_of_handle = np.unique(parent[walk_idx], return_index=True)
        first[walk_idx[first_of_handle]] = True
        apply = server.prefix_mask("countermeasures.apply.")
        prefetch = server.mask("countermeasures.apply.prefetch")
        extra = sum(v for k, v in tracer.counts.items() if k.startswith("countermeasures.apply."))
        if split is None:
            hits = sum(r.cache_hits for r in traced)
            misses = sum(r.cache_misses for r in traced)
            server_ops = n_ops
        else:
            hits, misses, server_ops = workload.mirror_hits, workload.mirror_misses, 1
        handle_us = server.dur[handle]
        p50, p99 = np.percentile(handle_us, [50, 99]) if requests else (0.0, 0.0)
        counters = workload.counters(results)

        m["aes.encrypt_traced_us"] = _mean(server.dur[encrypt])
        m["aes.calls"] = calls / server_ops if server_ops else 0.0
        m["cachesim.replay_us"] = per_request(server.mask("cachesim.run_encryption"))
        m["cachesim.walk_us"] = per_request(walk)
        m["cachesim.parse_walk_us"] = per_request(first)
        m["cachesim.scratch_walk_us"] = per_request(walk & ~first)
        m["cachesim.accesses_per_request"] = (hits + misses) / requests if requests else 0.0
        m["cachesim.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["countermeasures.apply_us"] = per_request(apply)
        m["countermeasures.apply_prefetch_us"] = _mean(server.dur[prefetch])
        m["countermeasures.extra_accesses_per_request"] = extra / requests if requests else 0.0
        m["channel.handle_us_p50"] = float(p50)
        m["channel.handle_us_p99"] = float(p99)
        m["channel.handle_self_us"] = _mean(server.self_us[handle])
        m["channel.transport_us_p50"] = counters.get("transport_us_p50", 0.0)
        m["channel.timeouts"] = counters.get("timeouts", 0)
        m["channel.server_served"] = counters.get("served", 0)
        m["channel.server_dropped"] = counters.get("dropped", 0)

        # per-operation layers, in the client's spans
        def per_op(total_us: float) -> float:
            return total_us / n_ops if n_ops else 0.0

        add = client.mask("attack.TimingProfile.add")
        collects = np.nonzero(client.mask("attack.collect_profile"))[0]
        correlate = client.mask("attack.signature", "attack.correlate", "attack.candidate_sets")
        search = client.mask("keysearch.brute_force")
        chunks = client.count(client.mask("keysearch.expand_batch"))

        def per_chunk_ms(total_us: float) -> float:
            return total_us / chunks / 1e3 if chunks else 0.0

        collect_study = per_op(float(client.dur[collects[0::2]].sum())) / 1e6
        collect_attack = per_op(float(client.dur[collects[1::2]].sum())) / 1e6
        correlate_s = per_op(client.total_us(correlate)) / 1e6
        search_s = per_op(client.total_us(search)) / 1e6
        op_s = per_op(client.total_us(client.mask(OP_SPAN))) / 1e6
        m["attack.profile_add_us"] = _mean(client.dur[add])
        m["attack.collect_s"] = collect_study + collect_attack
        m["attack.correlate_ms"] = correlate_s * 1e3
        m["keysearch.expand_ms_per_chunk"] = per_chunk_ms(client.total_us(client.mask("keysearch.expand_batch")))
        m["keysearch.encrypt_ms_per_chunk"] = per_chunk_ms(client.total_us(client.mask("keysearch.encrypt_batch")))
        m["keysearch.scan_self_ms_per_chunk"] = per_chunk_ms(float(client.self_us[search].sum()))
        m["keysearch.chunks"] = chunks / n_ops if n_ops else 0.0
        m["harness.stage_s.collect_study"] = collect_study
        m["harness.stage_s.collect_attack"] = collect_attack
        m["harness.stage_s.correlate"] = correlate_s
        m["harness.stage_s.search"] = search_s
        m["harness.stage_s.unattributed"] = op_s - (collect_study + collect_attack + correlate_s + search_s)
        self.untraced_wall = median(r.wall for r in untraced) if untraced else 0.0
        m["trace.overhead_s"] = (
            median(r.wall for r in traced) - self.untraced_wall if traced and untraced else 0.0
        )
        self.metrics = m
        self.op_s = op_s
        self.requests = requests
        self.handle_us = per_request(handle)
        self.samples = client.count(add)
        oracle = client.prefix_mask("channel.handle.") | client.mask("channel.UdpOracle.request")
        self.oracle_us = _mean(client.dur[oracle])
        self.collect_us = float(client.dur[collects].sum()) / self.samples if self.samples else 0.0
        for name in sorted({n.rsplit(".", 1)[1] for n in server.names if n.startswith("channel.handle.")}):
            h = server.mask("channel.handle." + name)
            a = server.mask("countermeasures.apply." + name)
            self.kinds[name] = (_mean(server.dur[h]), _mean(server.dur[a]))

    def table(self) -> list[str]:
        """Human-readable per-request and per-operation breakdowns."""
        m = self.metrics
        lines = []
        if self.requests:
            rows = [
                ("SimulatedBackend.handle (total)", self.handle_us, ROADMAP_US["handle"]),
                ("  encrypt (traced)", m["aes.encrypt_traced_us"], ROADMAP_US["encrypt"]),
                ("  run_encryption replay", m["cachesim.replay_us"], ROADMAP_US["replay"]),
                ("  parse-buffer walk", m["cachesim.parse_walk_us"], ROADMAP_US["parse"]),
                ("  scratch walk", m["cachesim.scratch_walk_us"], ROADMAP_US["scratch"]),
                ("  countermeasures.apply", m["countermeasures.apply_us"], None),
                ("  handle self (unattributed)", m["channel.handle_self_us"], None),
            ]
            lines.append(f"per request ({self.requests} traced requests)       us/request   re-anchor")
            lines += [f"  {name:<40} {value:>9.1f}   {'' if ref is None else ref}" for name, value, ref in rows]
        if self.samples:
            add = m["attack.profile_add_us"]
            per_sample = [
                ("timing request (handle or UdpOracle)", self.oracle_us, None),
                ("TimingProfile.add", add, ROADMAP_US["add"]),
                ("collect_profile self (unattributed)", self.collect_us - self.oracle_us - add, None),
                ("= collect_profile per sample", self.collect_us, None),
            ]
            lines.append(f"per sample ({self.samples} traced samples)          us/sample")
            lines += [f"  {name:<40} {value:>9.1f}   {'' if ref is None else ref}" for name, value, ref in per_sample]
        if len(self.kinds) > 1 or "prefetch" in self.kinds:
            lines.append("per countermeasure                         handle us   apply us   re-anchor apply")
            for kind, (h, a) in self.kinds.items():
                ref = ROADMAP_US.get("apply." + kind, "")
                lines.append(f"  {kind:<40} {h:>9.1f}  {a:>9.1f}   {ref}")
        stages = [
            ("collect_study", m["harness.stage_s.collect_study"]),
            ("collect_attack", m["harness.stage_s.collect_attack"]),
            ("correlate (signature+correlate+candidate_sets)", m["harness.stage_s.correlate"]),
            ("search (brute_force)", m["harness.stage_s.search"]),
            ("unattributed", m["harness.stage_s.unattributed"]),
            ("= traced operation wall", self.op_s),
        ]
        lines.append("per operation                                        s/op")
        lines += [f"  {name:<48} {value:>9.4f}" for name, value in stages]
        if self.untraced_wall:
            share = m["trace.overhead_s"] / self.untraced_wall
            lines.append(f"tracing overhead: {m['trace.overhead_s']:.4f} s per operation "
                         f"({share:.1%} of the untraced {self.untraced_wall:.4f} s)")
        return lines

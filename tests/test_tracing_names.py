"""The names the benchmark's traced runs wrap exist and are the ones called.

perfbench/layers.py times each layer by wrapping public ctlab names at
run time. This loads that file and perfbench/tracer.py as they are,
installs the tracing, serves one request under each countermeasure,
correlates a small profile with itself and runs one tiny key search, and
checks that every wrapped layer recorded a span. A refactor that renames
or bypasses one of those names fails here.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from ctlab import aes, channel, keysearch
from ctlab import attack as atk
from ctlab.attack import CandidateReport
from ctlab.countermeasures import Kind

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_spans_cover_a_request_and_a_search():
    layers, tracing = _load("layers"), _load("tracer")
    rk = aes.expand_key(KEY)
    pairs = [(pt, aes.encrypt(pt, rk)) for pt in (bytes(16), bytes(range(16)))]
    values = tuple((b,) for b in KEY[:15]) + ((KEY[15] ^ 1, KEY[15]),)
    report = CandidateReport(values, tuple(tuple(1.0 for _ in v) for v in values))
    patches, tracer = tracing.Patches(), tracing.Tracer()
    layers.install_tracing(patches, tracer)
    try:
        for kind in Kind:
            backend = channel.SimulatedBackend(channel.ChannelConfig(key=KEY, countermeasure=kind))
            backend.handle(bytes(16))
        # the last server built, cache_partition's, answers the profile
        profile = atk.collect_profile(lambda pt: backend.handle(pt)[0], 64, random.Random(3))
        sig = atk.signature(profile)
        atk.candidate_sets(atk.correlate(sig, KEY, sig))
        outcome = keysearch.brute_force(report, pairs)
    finally:
        patches.undo()
    assert outcome.found == KEY and outcome.keys_tested == 2
    apply_spans = {"countermeasures.apply." + kind.value for kind in Kind}
    assert apply_spans | {
        "aes.encrypt_traced",
        "cachesim.access_all",
        "cachesim.run_encryption",
        "attack.collect_profile",
        "attack.TimingProfile.add",
        "attack.signature",
        "attack.correlate",
        "attack.candidate_sets",
        "keysearch.expand_batch",
        "keysearch.encrypt_batch",
    } <= set(tracer.names)
    # each kind's apply span counts the accesses it injected, the count
    # behind countermeasures.extra_accesses_per_request: 320 for the one
    # prefetch request, none for the others
    assert {span: tracer.counts[span] for span in apply_spans} == {
        span: 320 if span.endswith(".prefetch") else 0 for span in apply_spans
    }
    assert channel.encrypt is aes.encrypt
    assert keysearch.expand_batch is aes.expand_batch
    assert keysearch.encrypt_batch is aes.encrypt_batch

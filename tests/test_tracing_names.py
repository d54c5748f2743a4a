"""The names the benchmark's traced runs wrap exist and are the ones called.

perfbench/layers.py times each layer by wrapping public ctlab names at
run time. This loads that file and perfbench/tracer.py as they are,
installs the tracing, serves one prefetch request and runs one tiny key
search, and checks that every wrapped layer recorded a span. A refactor
that renames or bypasses one of those names fails here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from ctlab import aes, channel, keysearch
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
        backend = channel.SimulatedBackend(
            channel.ChannelConfig(key=KEY, countermeasure=Kind.PREFETCH)
        )
        backend.handle(bytes(16))
        outcome = keysearch.brute_force(report, pairs)
    finally:
        patches.undo()
    assert outcome.found == KEY and outcome.keys_tested == 2
    assert {
        "aes.encrypt_traced",
        "cachesim.run_encryption",
        "countermeasures.apply.prefetch",
        "keysearch.expand_batch",
        "keysearch.encrypt_batch",
    } <= set(tracer.names)
    assert channel.encrypt is aes.encrypt
    assert keysearch.expand_batch is aes.expand_batch
    assert keysearch.encrypt_batch is aes.encrypt_batch

"""The benchmark's four workloads and their golden-output gate.

Every workload repeats one operation on inputs drawn from the workload
seed, so a run's operations must all produce the same simulated output.
The default seed runs the committed configs' own seeds and keys, and its
outputs must match ``golden.json``, recorded from the seed code.  Any
other seed draws the plaintext-stream seed, the countermeasure PRNG seed
and the attacked key from ``Random(seed)``; its outputs are checked by
invariants and by agreement between operations instead.

Importing this module imports ctlab; that import is part of what
``setup_probe.py`` times.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import signal
import subprocess
import sys
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from time import perf_counter, perf_counter_ns

import numpy as np
from ctlab import aes, harness, keysearch
from ctlab import attack as atk
from ctlab.channel import ChannelError, ChannelTimeout, SimulatedBackend, UdpOracle, make_backend
from ctlab.countermeasures import PREFETCH_WINDOW, Kind

from layers import install_tracing
from tracer import Patches

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 1

# Smallest per-phase budget at which every seed tried recovered its key
# (at 24576, one seed in eight missed a byte); attack.cfg itself uses 65536.
ATTACK_SAMPLES = 32768
SWEEP_SAMPLES = 4096
UDP_SAMPLES = 4096
# 120,960 keys: two brute_force chunks, the second one partial.
KEYSEARCH_RADICES = (7, 6, 5, 4, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1)
SETUP_REPEATS = 7
UDP_LAUNCHES = 3
SERVER_STOP_TIMEOUT = 20.0
# Failed udp measurements before an operation gives up.
UDP_MAX_FAILURES = 3
# Client timeout per datagram: host stalls of over a second were seen on a
# shared machine, and a spurious retry would leave a stale response behind.
UDP_TIMEOUT_S = 5.0
# An operation still running after this long is abandoned as failed, so a
# run ends well within three minutes whatever the servers do.
UDP_OP_DEADLINE_S = 60.0
PREFETCH_ACCESSES = 5 * 4 * PREFETCH_WINDOW  # per encryption, countermeasures.apply


@dataclass
class OpResult:
    """One timed operation and what it produced."""

    wall: float                       # host seconds
    units: int                        # timing samples collected, or keys tested
    digest: dict
    latency_ns: array                 # one entry per request
    problems: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    traced: bool = False


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def profile_csv(profile: atk.TimingProfile) -> str:
    path = OUT / "profile.csv"
    atk.save_profile(profile, path)
    return path.read_text()


def candidates_csv(report: atk.CandidateReport) -> str:
    path = OUT / "candidates.csv"
    atk.save_candidates(report, path)
    return path.read_text()


def timed(fn, sink: array):
    """``fn`` with each call's duration appended to ``sink``."""
    def call(*args):
        t0 = perf_counter_ns()
        result = fn(*args)
        sink.append(perf_counter_ns() - t0)
        return result
    return call


def experiment_config(path: str, seed: int, samples: int, search_limit: int | None = None):
    config = harness.config_from_mapping(harness.load_config_file(ROOT / path))
    changes: dict = {"samples_study": samples, "samples_attack": samples}
    if search_limit is not None:
        changes["search_limit"] = search_limit
    if seed != DEFAULT_SEED:
        rng = Random(seed)
        changes.update(
            seed=rng.randrange(1, 1 << 30),
            prng_seed=rng.randrange(1, 1 << 30),
            attack_key=rng.randbytes(16),
        )
    return replace(config, **changes)


def accesses_per_request(backend: SimulatedBackend) -> int:
    extra = PREFETCH_ACCESSES if backend.kind is Kind.PREFETCH else 0
    return len(backend.parse_addrs) + len(backend.scratch_addrs) + aes.TRACE_LEN + extra


class Workload:
    name = ""
    # Set by workloads whose server-side layers run in another process and
    # are replayed in-process: index of the first span of that replay.
    server_spans_from: int | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        """The set-up after ``import ctlab`` that ``setup_s`` times."""

    def setup(self) -> list[float]:
        """Set up several times; returns each set-up's seconds."""
        cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
               self.name, str(self.seed)]
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            subprocess.run(cmd, cwd=ROOT, check=True)
            times.append(perf_counter() - t0)
        return times

    def op(self, tracer) -> OpResult:
        raise NotImplementedError

    def expected(self, results: list[OpResult], tracer) -> list[dict]:
        """The digest each operation must produce: the first one's."""
        return [results[0].digest] * len(results)

    def golden_record(self, results: list[OpResult]) -> dict:
        """What golden.json holds for this workload at the default seed."""
        return results[0].digest

    def counters(self, results: list[OpResult]) -> dict:
        return {}

    def final_problems(self) -> list[str]:
        """Checks that can only run after ``close``."""
        return []

    def close(self) -> None:
        pass


class Capture:
    """Keeps what harness builds and returns during one operation."""

    def __init__(self) -> None:
        self.profiles: list[atk.TimingProfile] = []
        self.reports: list[atk.CandidateReport] = []
        self.backends: list[tuple[SimulatedBackend, array]] = []

    def install(self, patches: Patches) -> None:
        patches.wrap(atk, "collect_profile", lambda fn: self._keep(fn, self.profiles))
        patches.wrap(atk, "candidate_sets", lambda fn: self._keep(fn, self.reports))
        patches.wrap(harness, "make_backend", self._backend)

    @staticmethod
    def _keep(fn, sink: list):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return kept

    def _backend(self, fn):
        def build(config):
            backend = fn(config)
            latency = array("q")
            backend.handle = timed(backend.handle, latency)
            self.backends.append((backend, latency))
            return backend
        return build


class HarnessWorkload(Workload):
    """An operation is one harness call on a committed config."""

    config_file = ""
    samples = 0
    search_limit: int | None = None

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = experiment_config(self.config_file, seed, self.samples, self.search_limit)

    def kinds(self) -> tuple[Kind, ...]:
        return (self.config.countermeasure,)

    def build(self) -> None:
        for kind in self.kinds():
            for key in (self.config.study_key, self.config.attack_key):
                make_backend(self.config.channel_config(key, 0, kind))

    def call(self) -> list[harness.EfficiencyReport]:
        raise NotImplementedError

    def op(self, tracer) -> OpResult:
        capture = Capture()
        patches = Patches()
        capture.install(patches)
        try:
            t0 = perf_counter()
            reports = self.call()
            wall = perf_counter() - t0
        finally:
            patches.undo()
        latency = array("q")
        for _, calls in capture.backends:
            latency.extend(calls)
        profiles = capture.profiles
        hits = sum(b.cache.hits for b, _ in capture.backends)
        misses = sum(b.cache.misses for b, _ in capture.backends)
        result = OpResult(
            wall=wall,
            units=sum(p.total_samples for p in profiles),
            digest={
                "study_profiles": sha("".join(profile_csv(p) for p in profiles[0::2])),
                "attack_profiles": sha("".join(profile_csv(p) for p in profiles[1::2])),
                "candidates": sha("".join(candidates_csv(r) for r in capture.reports)),
                "report_csv": sha(harness.emit_report(reports, "csv")),
                "found_key": [r.found_key for r in reports],
                "keys_tested": [r.keys_tested for r in reports],
                "cache_hits": hits,
                "cache_misses": misses,
            },
            latency_ns=latency,
            cache_hits=hits,
            cache_misses=misses,
        )
        for r in reports:
            if r.failed_stage:
                result.problems.append(f"{r.countermeasure} failed: {r.failed_stage}")
        for backend, calls in capture.backends:
            if backend.cache.accesses != len(calls) * accesses_per_request(backend):
                result.problems.append(
                    f"{backend.kind.value} backend simulated {backend.cache.accesses} "
                    f"accesses for {len(calls)} requests"
                )
        self.check(reports, result)
        return result

    def check(self, reports, result: OpResult) -> None:
        pass


class AttackWorkload(HarnessWorkload):
    name = "attack"
    config_file = "configs/attack.cfg"
    samples = ATTACK_SAMPLES

    def call(self):
        return [harness.run_experiment(self.config)]

    def check(self, reports, result: OpResult) -> None:
        if reports[0].found_key != self.config.attack_key.hex():
            result.problems.append(f"key not recovered (found {reports[0].found_key})")


class SweepWorkload(HarnessWorkload):
    name = "sweep"
    config_file = "configs/sweep.cfg"
    samples = SWEEP_SAMPLES
    # No search stage: at this budget its size, hence its time and memory,
    # would depend on the seed, and the sweep measures collection.
    search_limit = 0

    def kinds(self):
        return harness.ALL_KINDS

    def call(self):
        return harness.run_sweep(self.config)

    def check(self, reports, result: OpResult) -> None:
        names = tuple(r.countermeasure for r in reports)
        if names != tuple(k.value for k in harness.ALL_KINDS):
            result.problems.append(f"sweep rows {names}")
        elif reports[0].s != 1.0:
            result.problems.append(f"baseline slowdown {reports[0].s}")


class KeysearchWorkload(Workload):
    """An operation is one brute_force call; the true key is enumerated last."""

    name = "keysearch"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = Random(seed)
        values = tuple(tuple(rng.sample(range(256), r)) for r in KEYSEARCH_RADICES)
        scores = tuple(tuple(float(r - i) for i in range(r)) for r in KEYSEARCH_RADICES)
        self.key = bytes(v[-1] for v in values)
        self.size = math.prod(KEYSEARCH_RADICES)
        self.candidates = atk.CandidateReport(values, scores)
        schedule = aes.expand_key(self.key)
        self.pairs = [(pt, aes.encrypt(pt, schedule)) for pt in (rng.randbytes(16), rng.randbytes(16))]

    def op(self, tracer) -> OpResult:
        t0 = perf_counter_ns()
        outcome = keysearch.brute_force(self.candidates, self.pairs)
        elapsed = perf_counter_ns() - t0
        found = outcome.found.hex() if outcome.found else None
        result = OpResult(
            wall=elapsed / 1e9,
            units=outcome.keys_tested,
            digest={"found_key": found, "keys_tested": outcome.keys_tested},
            latency_ns=array("q", [elapsed]),
        )
        if found != self.key.hex() or outcome.keys_tested != self.size:
            result.problems.append(
                f"planted key {self.key.hex()} at rank {self.size}, "
                f"found {found} at {outcome.keys_tested}"
            )
        return result


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``ctlab serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, role: str, config_file: str, sets: list[str]) -> None:
        cmd = [sys.executable, "-m", "ctlab.cli", "serve", "--config", config_file,
               "--role", role, "--port", "0"]
        for item in sets:
            cmd += ["--set", item]
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.role = role
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE, text=True,
            # a shell starts background jobs with SIGINT ignored, and Python
            # then never raises KeyboardInterrupt; stop() depends on it
            preexec_fn=_default_sigint,
        )
        self.endpoint: tuple[str, int] | None = None
        self.served: int | None = None
        self.dropped: int | None = None

    def wait_ready(self) -> None:
        line = self.proc.stdout.readline()
        match = re.search(r" on (\S+):(\d+)$", line.strip())
        if match is None:
            raise RuntimeError(f"ctlab serve ({self.role}) did not start: {line!r}")
        self.endpoint = (match.group(1), int(match.group(2)))

    def stop(self, counters: bool = True) -> None:
        """SIGINT, not SIGTERM, when the counters are wanted: only an
        interrupt runs the block that prints ``served=N dropped=M``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT if counters else signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=SERVER_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        match = re.search(r"served=(\d+) dropped=(\d+)", out or "")
        if match:
            self.served, self.dropped = int(match.group(1)), int(match.group(2))


class UdpWorkload(Workload):
    """README's distributed pipeline against two long-lived servers.

    The servers' caches persist across operations, so the first operation
    starts cold and every later one starts from the same warm state: it
    replays the same plaintexts.  After the timed loop an in-process
    SimulatedBackend pair replays the cold and the warm operation, and
    every operation's outputs must equal its replay's.
    """

    name = "udp"
    config_file = "configs/attack.cfg"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = experiment_config(self.config_file, seed, UDP_SAMPLES)
        base = self.config.seed * 1_000_003  # the seeds harness derives for run 0
        self.study_seed, self.attack_seed, self.pair_seed = base, base + 1, base - 1
        self.sets = [] if seed == DEFAULT_SEED else [
            f"attack_key={self.config.attack_key.hex()}",
            f"prng_seed={self.config.prng_seed}",
        ]
        self.servers: list[Server] = []
        self.oracles: list[UdpOracle] = []
        self.sent = [0, 0]          # datagrams sent to the study and attack servers
        self.mirror_handle_ns = array("q")
        self.mirror_hits = 0
        self.mirror_misses = 0
        self.records: list[dict] = []

    def setup(self) -> list[float]:
        times = []
        for launch in range(UDP_LAUNCHES):
            t0 = perf_counter()
            pair = [Server(role, self.config_file, self.sets) for role in ("study", "attack")]
            self.servers.extend(pair)
            for server in pair:
                server.wait_ready()
            times.append(perf_counter() - t0)
            if launch < UDP_LAUNCHES - 1:
                for server in pair:
                    # SIGINT could land before serve_forever's try block
                    server.stop(counters=False)
                    self.servers.remove(server)
        packet = self.config.packet_size
        self.oracles = [UdpOracle(s.endpoint, packet_size=packet, timeout=UDP_TIMEOUT_S)
                        for s in self.servers]
        return times

    def pipeline(self, study_oracle, attack_oracle, ciphertext) -> tuple[dict, int]:
        """Collect both profiles, correlate, query the ciphertexts of the search pairs.

        At this budget the key space is far too large to search, so the
        pipeline stops where the search would start.
        """
        cfg = self.config
        study = atk.collect_profile(study_oracle, UDP_SAMPLES, Random(self.study_seed),
                                    max_failures=UDP_MAX_FAILURES)
        attacked = atk.collect_profile(attack_oracle, UDP_SAMPLES, Random(self.attack_seed),
                                       max_failures=UDP_MAX_FAILURES)
        corr = atk.correlate(atk.signature(study), cfg.study_key, atk.signature(attacked))
        report = atk.candidate_sets(corr, cfg.spread)
        pair_rng = Random(self.pair_seed)
        pairs = [ciphertext(pair_rng.randbytes(16)).hex() for _ in range(2)]
        digest = {
            "study_profile": sha(profile_csv(study)),
            "attack_profile": sha(profile_csv(attacked)),
            "candidates": sha(candidates_csv(report)),
            "keyspace_size": report.keyspace_size,
            "pair_ciphertexts": pairs,
        }
        return digest, study.total_samples + attacked.total_samples

    def _client(self, index: int, latency: array, errors: list[int], deadline: float, tracer):
        oracle = self.oracles[index]

        def request(pt: bytes) -> int:
            if perf_counter() > deadline:
                raise RuntimeError(f"operation still running after {UDP_OP_DEADLINE_S} s")
            t0 = perf_counter_ns()
            try:
                cycles = oracle(pt)
            except ChannelTimeout:
                raise  # every attempt is in oracle.timeouts
            except ChannelError:
                errors[0] += 1
                self.sent[index] += 1
                raise
            latency.append(perf_counter_ns() - t0)
            self.sent[index] += 1
            return cycles

        if tracer is None:
            return request
        return tracer.wrap(request, "channel.UdpOracle.request", request_root=True)

    def op(self, tracer) -> OpResult:
        latency = array("q")
        errors = [0]
        deadline = perf_counter() + UDP_OP_DEADLINE_S
        study = self._client(0, latency, errors, deadline, tracer)
        attacked = self._client(1, latency, errors, deadline, tracer)
        before = sum(o.timeouts for o in self.oracles)

        def ciphertext(pt: bytes) -> bytes:
            self.sent[1] += 1
            return self.oracles[1].ciphertext(pt)

        t0 = perf_counter()
        digest, samples = self.pipeline(study, attacked, ciphertext)
        wall = perf_counter() - t0
        result = OpResult(wall=wall, units=samples, digest=digest, latency_ns=latency)
        failures = errors[0] + sum(o.timeouts for o in self.oracles) - before
        if failures:
            result.problems.append(
                f"{failures} failed or retried timing requests in {wall:.1f} s"
            )
        return result

    def replay(self, backends: list[SimulatedBackend], latency: array | None) -> dict:
        def oracle(backend):
            handle = backend.handle if latency is None else timed(backend.handle, latency)
            return lambda pt: handle(pt)[0]

        h0 = sum(b.cache.hits for b in backends)
        m0 = sum(b.cache.misses for b in backends)
        digest, samples = self.pipeline(oracle(backends[0]), oracle(backends[1]), backends[1].ciphertext)
        self.mirror_hits = sum(b.cache.hits for b in backends) - h0
        self.mirror_misses = sum(b.cache.misses for b in backends) - m0
        return digest

    def expected(self, results, tracer) -> list[dict]:
        """Replay the cold and the warm operation in-process; the warm
        replay is traced in a traced run, for the server-side layers."""
        cfg = self.config
        mirror = [SimulatedBackend(cfg.channel_config(key, 0)) for key in (cfg.study_key, cfg.attack_key)]
        cold = self.replay(mirror, self.mirror_handle_ns)
        self.records = [dict(cold, cache_hits=self.mirror_hits, cache_misses=self.mirror_misses)]
        patches = Patches()
        if tracer is not None:
            self.server_spans_from = len(tracer)
            install_tracing(patches, tracer)
        try:
            warm = self.replay(mirror, None)
        finally:
            patches.undo()
        self.records.append(dict(warm, cache_hits=self.mirror_hits, cache_misses=self.mirror_misses))
        return [cold] + [warm] * (len(results) - 1)

    def golden_record(self, results) -> dict:
        return {"cold": self.records[0], "warm": self.records[1]}

    def counters(self, results) -> dict:
        latency = np.concatenate(
            [np.frombuffer(r.latency_ns, dtype=np.int64) for r in results if not r.traced]
        )
        transport = 0.0
        if len(latency) and len(self.mirror_handle_ns):
            transport = float(np.median(latency) - np.median(self.mirror_handle_ns)) / 1e3
        return {
            "transport_us_p50": transport,
            "timeouts": sum(o.timeouts for o in self.oracles),
            "served": sum(s.served or 0 for s in self.servers),
            "dropped": sum(s.dropped or 0 for s in self.servers),
        }

    def close(self) -> None:
        for oracle in self.oracles:
            oracle.close()
        for server in self.servers:
            server.stop()

    def final_problems(self) -> list[str]:
        """After ``close``: each server served exactly what was sent to it."""
        problems = []
        timeouts = [o.timeouts for o in self.oracles]
        for server, sent, retried in zip(self.servers, self.sent, timeouts):
            if server.served is None:
                problems.append(f"{server.role} server printed no counters")
            elif server.served != sent + retried or server.dropped:
                problems.append(
                    f"{server.role} server served={server.served} dropped={server.dropped}, "
                    f"client sent {sent + retried}"
                )
        return problems


WORKLOADS = {
    w.name: w for w in (AttackWorkload, SweepWorkload, KeysearchWorkload, UdpWorkload)
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

"""Wire format, backends, and live loopback sessions."""

from __future__ import annotations

import contextlib
import random
import socket
import struct
import threading
import time

import pytest

from loopback import start_server_thread

from ctlab import aes
from ctlab import attack as atk
from ctlab import channel as ch
from ctlab.cachesim import CacheConfig
from ctlab.countermeasures import Kind

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def test_request_roundtrip_many():
    rng = random.Random(31337)
    for _ in range(2000):
        mtype = rng.choice([ch.MSG_TIMING, ch.MSG_CIPHERTEXT])
        pt = rng.randbytes(16)
        size = rng.randrange(17, 1200)
        datagram = ch.encode_request(mtype, pt, size)
        assert len(datagram) == size
        assert ch.decode_request(datagram) == (mtype, pt)


def test_response_roundtrip_many():
    rng = random.Random(4242)
    for _ in range(2000):
        pt = rng.randbytes(16)
        if rng.random() < 0.5:
            cycles = rng.randrange(0, 2**64)
            datagram = ch.encode_response(ch.MSG_TIMING, pt, struct.pack("<Q", cycles))
            assert ch.decode_response(datagram) == (ch.MSG_TIMING, pt, struct.pack("<Q", cycles))
        else:
            ct = rng.randbytes(16)
            datagram = ch.encode_response(ch.MSG_CIPHERTEXT, pt, ct)
            assert ch.decode_response(datagram) == (ch.MSG_CIPHERTEXT, pt, ct)


def test_wire_error_cases():
    with pytest.raises(ch.WireError):
        ch.decode_request(b"\x01" + b"x" * 10)
    with pytest.raises(ch.WireError):
        ch.decode_request(b"\x07" + bytes(16))
    with pytest.raises(ch.WireError):
        ch.encode_request(0x03, bytes(16))
    with pytest.raises(ch.WireError):
        ch.encode_request(0x01, bytes(15))
    with pytest.raises(ch.WireError):
        ch.decode_response(bytes(17))  # flag missing
    with pytest.raises(ch.WireError):
        ch.decode_response(bytes([0x81]) + bytes(16) + bytes(7))
    with pytest.raises(ch.WireError):
        ch.decode_response(bytes([0x82]) + bytes(16) + bytes(8))


def _cfg(**kw) -> ch.ChannelConfig:
    return ch.ChannelConfig(key=KEY, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        ch.ChannelConfig(key=b"short")
    with pytest.raises(ValueError):
        _cfg(packet_size=5)
    # the largest UDP payload over IPv4; settings only, so no buffer is built
    assert ch.ServerSettings(packet_size=65507).packet_size == ch.MAX_PACKET_SIZE
    with pytest.raises(ValueError, match="packet_size"):
        ch.ServerSettings(packet_size=65508)
    with pytest.raises(ValueError):
        _cfg(scratch_lines=100000)
    with pytest.raises(ValueError):
        _cfg(timing_scope="sometimes")
    with pytest.raises(ValueError, match="address map"):
        _cfg(cache=CacheConfig(line_size=64, num_sets=65536))


def test_simulated_backend_deterministic():
    rng = random.Random(8)
    pts = [rng.randbytes(16) for _ in range(64)]
    runs = []
    for _ in range(2):
        backend = ch.SimulatedBackend(_cfg(scratch_lines=20))
        runs.append([backend.handle(pt)[0] for pt in pts])
    assert runs[0] == runs[1]


BARE_GEOMETRIES = {
    # configs/attack.cfg: direct-mapped, persistent, 200 parse + 320 scratch lines
    "attack": dict(cache=CacheConfig(line_size=4, num_sets=2048, assoc=1,
                                     cold_flush=False),
                   scratch_lines=320, scratch_seed=9),
    "assoc4": dict(cache=CacheConfig(line_size=16, num_sets=128, assoc=4,
                                     cold_flush=False),
                   scratch_lines=96),
    "cold": dict(cache=CacheConfig(line_size=4, num_sets=2048, assoc=1), scratch_lines=320),
    "whole": dict(cache=CacheConfig(line_size=16, num_sets=256, assoc=2,
                                    cold_flush=False),
                  scratch_lines=64, timing_scope="whole_handler"),
}


def test_every_kind_is_bit_identical_to_bare_pipeline():
    """handle's incremental walk equals replaying every handler line, for all kinds."""
    from ctlab.cachesim import CacheState, run_encryption
    from ctlab.countermeasures import apply, make_state

    rk = aes.expand_key(KEY)
    for name, geometry in BARE_GEOMETRIES.items():
        for kind in Kind:
            cfg = _cfg(countermeasure=kind, **geometry)
            backend = ch.SimulatedBackend(cfg)
            bare_cache = CacheState(cfg.cache)
            # rows and a report stream of its own; the (table, index) trace
            # is placed by the rows below on each request
            rows, cm_state = make_state(kind, cfg.prng_seed)
            rng = random.Random(12)
            for _ in range(40):
                pt = rng.randbytes(16)
                got, _ = backend.handle(pt)
                disturbance = apply(kind, cm_state)
                parse = bare_cache.access_all(backend.parse_addrs)
                scratch = bare_cache.access_all(backend.scratch_addrs)
                trace: list[tuple[int, int]] = []
                aes.encrypt(pt, rk, trace=trace)
                want = run_encryption(
                    bare_cache, [rows[t][i] for t, i in trace], disturbance.extra_accesses
                ) + disturbance.extra_cycles
                if cfg.timing_scope == "whole_handler":
                    want += cfg.cache.cycles(parse, len(backend.parse_addrs))
                    want += cfg.cache.cycles(scratch, len(backend.scratch_addrs))
                assert got == want, (name, kind)
            assert (backend.cache.hits, backend.cache.misses) == (
                bare_cache.hits, bare_cache.misses), (name, kind)


def test_bad_countermeasure_access_fails_when_the_server_is_built(monkeypatch):
    from ctlab import countermeasures as cm

    bad = ((0, 1),) * 319 + ((0, 300),)
    monkeypatch.setattr(cm, "PREFETCH_RUNS", (bad,) * 16)
    with pytest.raises(IndexError):
        ch.SimulatedBackend(_cfg(countermeasure=Kind.PREFETCH))


@pytest.mark.parametrize("kind", list(Kind))
def test_ciphertexts_unchanged_by_countermeasures(kind):
    backend = ch.SimulatedBackend(_cfg(countermeasure=kind))
    rk = aes.expand_key(KEY)
    rng = random.Random(hash(kind.value) & 0xFFFF)
    for _ in range(60):
        pt = rng.randbytes(16)
        _, ct = backend.handle(pt)
        assert ct == aes.encrypt(pt, rk)
        assert backend.ciphertext(pt) == ct


def test_specified_loop_adds_exact_flat_cost():
    base = ch.SimulatedBackend(_cfg())
    slow = ch.SimulatedBackend(_cfg(countermeasure=Kind.SPECIFIED_LOOP))
    pt = bytes(16)
    diffs = [slow.handle(pt)[0] - base.handle(pt)[0] for _ in range(6)]
    assert diffs == [748, 62, 20, 748, 62, 20]


def test_whole_handler_scope_counts_packet_walk():
    small = ch.SimulatedBackend(_cfg(timing_scope="whole_handler", packet_size=100))
    large = ch.SimulatedBackend(_cfg(timing_scope="whole_handler", packet_size=800))
    narrow = ch.SimulatedBackend(_cfg(timing_scope="encrypt_only", packet_size=800))
    pt = bytes(16)
    c_small = small.handle(pt)[0]
    c_large = large.handle(pt)[0]
    c_narrow = narrow.handle(pt)[0]
    assert c_large > c_small > c_narrow


def test_loopback_simulated_session():
    server, thread = start_server_thread(_cfg(scratch_lines=8))
    try:
        endpoint = server.address
        rng = random.Random(3)
        rk = aes.expand_key(KEY)
        mirror = ch.SimulatedBackend(_cfg(scratch_lines=8))
        with ch.UdpOracle(endpoint, packet_size=256) as oracle:
            for _ in range(20):
                pt = rng.randbytes(16)
                cycles = oracle(pt)
                assert cycles == mirror.handle(pt)[0]  # the reply to this plaintext
                assert cycles > 0
                assert oracle.ciphertext(pt) == aes.encrypt(pt, rk)
    finally:
        server.close()
        thread.join(timeout=2)


@pytest.mark.parametrize("kind", [Kind.RANDOM_LOOP, Kind.PREFETCH])
def test_retransmitted_request_gets_the_same_reply_and_moves_no_state(kind):
    """A byte-identical repeat of the last datagram gets the stored reply, so
    every later reply still equals a mirror backend that served it once."""
    cfg = _cfg(countermeasure=kind, **BARE_GEOMETRIES["attack"])
    server, thread = start_server_thread(cfg)
    mirror = ch.SimulatedBackend(cfg)
    rng = random.Random(8)
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(5)
            for i in range(30):
                pt = rng.randbytes(16)
                datagram = ch.encode_request(ch.MSG_TIMING, pt, cfg.packet_size)
                sends = 2 if i == 10 else 1
                replies = []
                for _ in range(sends):
                    sock.sendto(datagram, server.address)
                    replies.append(sock.recvfrom(65535)[0])
                cycles = struct.pack("<Q", mirror.handle(pt)[0])
                assert replies == [ch.encode_response(ch.MSG_TIMING, pt, cycles)] * sends, i
    finally:
        server.close()
        thread.join(timeout=2)
    assert (server.requests_served, server.errors) == (31, 0)


def test_server_survives_malformed_datagrams():
    server, thread = start_server_thread(_cfg())
    try:
        with ch.UdpOracle(server.address) as oracle:
            for junk in (b"", b"\x01", b"\x09" + bytes(16), b"a" * 5):
                oracle.sock.sendto(junk, server.address)
            assert oracle(bytes(16)) > 0
        assert server.dropped >= 3  # empty datagrams may not be delivered
    finally:
        server.close()
        thread.join(timeout=2)


class _FailingOnce:
    """Wraps a backend (or socket); the named method raises on its first call."""

    def __init__(self, inner, method: str, error: Exception) -> None:
        self.inner, self.method, self.error = inner, method, error

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name != self.method or self.error is None:
            return attr

        def fail_once(*args):
            error, self.error = self.error, None
            raise error
        return fail_once


def test_server_survives_a_failing_request():
    cfg = _cfg(scratch_lines=8)
    server, thread = start_server_thread(cfg)
    server.backend = _FailingOnce(server.backend, "handle", RuntimeError("boom"))
    mirror = ch.SimulatedBackend(cfg)
    try:
        with ch.UdpOracle(server.address, timeout=0.2, retries=0) as oracle:
            with pytest.raises(ch.ChannelTimeout):
                oracle(bytes(16))
            pt = bytes(range(16))
            assert oracle(pt) == mirror.handle(pt)[0]
    finally:
        server.close()
        thread.join(timeout=2)
    assert not thread.is_alive()
    assert (server.requests_served, server.errors) == (1, 1)


@pytest.mark.parametrize("method, lost", [("recvfrom", 0), ("sendto", 1)])
def test_server_keeps_serving_after_a_socket_error(method, lost):
    server = ch.TimingServer(_cfg(), port=0)
    server.sock = _FailingOnce(server.sock, method, OSError("transient"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ch.UdpOracle(server.address, timeout=0.5, retries=1) as oracle:
            assert oracle(bytes(16)) > 0
            assert oracle.timeouts == lost
    finally:
        server.close()
        thread.join(timeout=2)
    assert not thread.is_alive()  # an error after close() still ends the loop
    assert (server.requests_served, server.errors) == (1, 1)


def test_key_never_on_the_wire():
    key = bytes(range(16, 32))
    cfg = ch.ChannelConfig(key=key)
    backend = ch.SimulatedBackend(cfg)
    pt = bytes(16)
    cycles, ct = backend.handle(pt)
    for datagram in (
        ch.encode_request(ch.MSG_TIMING, pt),
        ch.encode_response(ch.MSG_TIMING, pt, struct.pack("<Q", cycles)),
        ch.encode_response(ch.MSG_CIPHERTEXT, pt, ct),
    ):
        assert key not in datagram


def test_timeout_raises_channel_timeout():
    with ch.UdpOracle(("127.0.0.1", 1), timeout=0.05, retries=0) as oracle:
        with pytest.raises(ch.ChannelTimeout):
            oracle(bytes(16))


def test_negative_retries_rejected():
    with pytest.raises(ValueError):
        ch.UdpOracle(("127.0.0.1", 1), retries=-1)


def _fake_cycles(pt: bytes) -> int:
    # two bytes, so a profile of these keeps its sums of squares below 2^63
    return int.from_bytes(pt[:2], "little")


def _fake_ciphertext(pt: bytes) -> bytes:
    return pt[::-1]


@contextlib.contextmanager
def fake_server(before_reply):
    """A UDP peer that answers timing requests with _fake_cycles and
    ciphertext requests with _fake_ciphertext.

    before_reply(n, sock, peer) runs ahead of the reply to the n-th
    request, to delay it or to send the client other datagrams first; when
    it returns True, the request goes unanswered.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(0.05)
    stop = threading.Event()

    def serve():
        n = 0
        while not stop.is_set():
            try:
                datagram, peer = sock.recvfrom(65535)
            except socket.timeout:
                continue
            msg_type, pt = ch.decode_request(datagram)
            drop = before_reply(n, sock, peer)
            n += 1
            if drop:
                continue
            if msg_type == ch.MSG_TIMING:
                payload = struct.pack("<Q", _fake_cycles(pt))
            else:
                payload = _fake_ciphertext(pt)
            sock.sendto(ch.encode_response(msg_type, pt, payload), peer)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield sock.getsockname()
    finally:
        stop.set()
        thread.join(timeout=2)
        sock.close()
    assert not thread.is_alive()


def test_oracle_resyncs_after_a_late_reply():
    def delay_first(n, sock, peer):
        if n == 0:
            time.sleep(0.15)  # past the client timeout: the reply arrives during a retry

    rng = random.Random(5)
    with fake_server(delay_first) as endpoint:
        with ch.UdpOracle(endpoint, timeout=0.1, retries=2) as oracle:
            for _ in range(50):
                pt = rng.randbytes(16)
                assert oracle(pt) == _fake_cycles(pt)
            assert oracle.timeouts >= 1


def test_collection_survives_junk_datagrams():
    def junk(n, sock, peer):
        sock.sendto(b"a" * 5, peer)  # does not parse
        stray = ch.encode_response(ch.MSG_CIPHERTEXT, bytes(16), bytes(16))
        sock.sendto(stray, peer)  # parses, but answers no request of the client

    with fake_server(junk) as endpoint:
        with ch.UdpOracle(endpoint, timeout=1.0) as oracle:
            profile = atk.collect_profile(oracle, 64, random.Random(2))
            assert oracle.timeouts == 0
    assert profile == atk.collect_profile(_fake_cycles, 64, random.Random(2))


def test_oracle_ciphertext_retries_a_lost_request():
    with fake_server(lambda n, sock, peer: n == 0) as endpoint:
        with ch.UdpOracle(endpoint, timeout=0.1, retries=2) as oracle:
            pt = bytes(range(16))
            assert oracle.ciphertext(pt) == _fake_ciphertext(pt)
            assert oracle.timeouts == 1


def test_one_shot_queries_make_a_single_attempt():
    seen = []

    def drop_all(n, sock, peer):
        seen.append(n)
        return True

    with fake_server(drop_all) as endpoint:
        with ch.UdpOracle(endpoint, timeout=0.1, retries=0) as oracle:
            with pytest.raises(ch.ChannelTimeout):
                oracle.ciphertext(bytes(16))
            with pytest.raises(ch.ChannelTimeout):
                oracle(bytes(16))
            assert oracle.timeouts == 2
    assert seen == [0, 1]

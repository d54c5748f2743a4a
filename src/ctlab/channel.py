"""UDP timing channel: wire format, victim server, measurement client.

Wire format (datagrams):
  request   = type(1) || plaintext(16) || zero padding to packet_size
  response  = (type | 0x80)(1) || plaintext echo(16) || payload
  payload   : type 0x01 -> cycles as 8-byte little-endian unsigned
              type 0x02 -> 16-byte ciphertext
Anything shorter than 17 bytes or with an unknown type is dropped and
logged; the server never dies on malformed input.

Two interchangeable backends answer timing requests. The native backend
times real encryptions with the highest-resolution monotonic counter
available (perf_counter_ns). The simulated backend traces the encryption
as byte addresses under the packed table layout (or the countermeasure's
own layout), recorded by aes.encrypt from the layout's rows, replays
them through the deterministic cache model with run_encryption, and
reports exactly the SimResult cycles under encrypt_only scope.

The simulated handler also walks its own working set through the same
cache on every request: the datagram buffer (packet_size bytes at a
fixed base) and scratch_lines fixed scattered lines. With per-request
cold flushing this is invisible in encrypt_only timings; with a
persistent cache it evicts table lines set by set between encryptions,
which is the deterministic stand-in for the ambient eviction a real
victim's memory traffic causes. whole_handler scope adds the working
set's own hit/miss cycles, so packet size shows up in timings the way
it does on hardware. The walk (parse buffer, then scratch lines) is one
CacheState.walk over a WorkingSet shared by every backend of the same
geometry: it re-simulates only the cache sets that changed since the
previous request's walk, and its hits, misses and cycles are exactly
those of replaying every address.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass
from functools import lru_cache

from .aes import encrypt, expand_key
from .attack import ChannelError
from .cachesim import PACKED_LAYOUT, CacheConfig, CacheState, WorkingSet, run_encryption
from .countermeasures import Kind, apply, execute_disturbance, make_state

log = logging.getLogger("ctlab.channel")

MSG_TIMING = 0x01
MSG_CIPHERTEXT = 0x02
RESP_FLAG = 0x80
HEADER_LEN = 17
DEFAULT_PACKET_SIZE = 800

PARSE_BASE = 0xA01800    # receive buffer
SCRATCH_BASE = 0x800000  # other per-request handler state


def default_port() -> int:
    return int(os.environ.get("CTLAB_PORT", "41717"))


class WireError(ValueError):
    """Datagram does not parse under the channel wire format."""


class ChannelTimeout(ChannelError):
    """No response arrived within the client timeout."""


def encode_request(msg_type: int, plaintext: bytes, packet_size: int = DEFAULT_PACKET_SIZE) -> bytes:
    if msg_type not in (MSG_TIMING, MSG_CIPHERTEXT):
        raise WireError(f"unknown request type {msg_type:#x}")
    if len(plaintext) != 16:
        raise WireError("plaintext must be 16 bytes")
    if packet_size < HEADER_LEN:
        raise WireError("packet_size below header length")
    return bytes([msg_type]) + plaintext + bytes(packet_size - HEADER_LEN)


def decode_request(datagram: bytes) -> tuple[int, bytes]:
    if len(datagram) < HEADER_LEN:
        raise WireError(f"short datagram ({len(datagram)} bytes)")
    msg_type = datagram[0]
    if msg_type not in (MSG_TIMING, MSG_CIPHERTEXT):
        raise WireError(f"unknown request type {msg_type:#x}")
    return msg_type, datagram[1:17]


def encode_response(msg_type: int, plaintext: bytes, payload: bytes) -> bytes:
    return bytes([msg_type | RESP_FLAG]) + plaintext + payload


def decode_response(datagram: bytes) -> tuple[int, bytes, bytes]:
    if len(datagram) < HEADER_LEN:
        raise WireError(f"short response ({len(datagram)} bytes)")
    rtype = datagram[0]
    if not rtype & RESP_FLAG:
        raise WireError("response flag missing")
    msg_type = rtype & ~RESP_FLAG
    payload = datagram[17:]
    if msg_type == MSG_TIMING and len(payload) != 8:
        raise WireError("timing payload must be 8 bytes")
    if msg_type == MSG_CIPHERTEXT and len(payload) != 16:
        raise WireError("ciphertext payload must be 16 bytes")
    if msg_type not in (MSG_TIMING, MSG_CIPHERTEXT):
        raise WireError(f"unknown response type {rtype:#x}")
    return msg_type, datagram[1:17], payload


@dataclass(frozen=True)
class ChannelConfig:
    """Everything a timing server needs; the key never crosses the wire."""

    key: bytes
    countermeasure: Kind = Kind.NONE
    backend: str = "simulated"            # simulated | native
    packet_size: int = DEFAULT_PACKET_SIZE
    timing_scope: str = "encrypt_only"    # encrypt_only | whole_handler
    cache: CacheConfig = CacheConfig()
    scratch_lines: int = 0
    scratch_seed: int = 1
    prng_seed: int | None = 1             # None -> wall-clock seeding (native live mode)

    def __post_init__(self) -> None:
        if len(self.key) != 16:
            raise ValueError("key must be 16 bytes")
        if self.backend not in ("simulated", "native"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.timing_scope not in ("encrypt_only", "whole_handler"):
            raise ValueError(f"unknown timing_scope {self.timing_scope!r}")
        if self.packet_size < HEADER_LEN:
            raise ValueError("packet_size below header length")
        if self.scratch_lines < 0 or self.scratch_lines > self.cache.num_sets:
            raise ValueError("scratch_lines must be within 0..num_sets")


@lru_cache(maxsize=64)
def _handler_working_set(
    cache: CacheConfig, packet_size: int, scratch_lines: int, scratch_seed: int
) -> tuple[tuple[int, ...], tuple[int, ...], WorkingSet]:
    """Parse-buffer lines, scratch lines and their walk, built once per geometry."""
    line = cache.line_size
    if SCRATCH_BASE + line * cache.num_sets > PARSE_BASE:
        raise ValueError("cache period too large for the fixed handler address map")
    n_parse = -(-packet_size // line)
    parse_addrs = [PARSE_BASE + i * line for i in range(n_parse)]
    scatter = random.Random(scratch_seed)
    offsets = sorted(scatter.sample(range(cache.num_sets), scratch_lines))
    scratch_addrs = [SCRATCH_BASE + o * line for o in offsets]
    return tuple(parse_addrs), tuple(scratch_addrs), WorkingSet(cache, parse_addrs + scratch_addrs)


class SimulatedBackend:
    """Serial request handler over the deterministic cache model."""

    def __init__(self, config: ChannelConfig) -> None:
        self.config = config
        self.round_keys = expand_key(config.key)
        self.cache = CacheState(config.cache)
        self.kind = config.countermeasure
        self.cm_state = make_state(config.countermeasure)
        self.prng = random.Random(config.prng_seed)
        parse, scratch, self.working_set = _handler_working_set(
            config.cache, config.packet_size, config.scratch_lines, config.scratch_seed
        )
        self.parse_addrs = list(parse)
        self.scratch_addrs = list(scratch)

    def handle(self, plaintext: bytes) -> tuple[int, bytes]:
        """Serve one timing request; returns (cycles, ciphertext)."""
        disturbance = apply(self.kind, self.cm_state, self.prng)
        walk = self.cache.walk(self.working_set)
        layout = disturbance.layout or PACKED_LAYOUT
        trace: list[int] = []
        ct = encrypt(plaintext, self.round_keys, trace, layout.rows)
        sim = run_encryption(self.cache, trace, layout, disturbance)
        cycles = sim.cycles
        if self.config.timing_scope == "whole_handler":
            cycles += walk.cycles
        return cycles, ct

    def ciphertext(self, plaintext: bytes) -> bytes:
        return encrypt(plaintext, self.round_keys)


class NativeBackend:
    """Times real encryptions with the monotonic nanosecond counter."""

    def __init__(self, config: ChannelConfig) -> None:
        self.config = config
        self.round_keys = expand_key(config.key)
        self.kind = config.countermeasure
        self.cm_state = make_state(config.countermeasure)
        self.prng = random.Random(config.prng_seed)

    def handle(self, plaintext: bytes) -> tuple[int, bytes]:
        whole = self.config.timing_scope == "whole_handler"
        buf = bytes(self.config.packet_size)
        start = time.perf_counter_ns()
        if whole:
            acc = 0
            for b in buf:
                acc ^= b
        execute_disturbance(self.kind, self.cm_state, self.prng)
        ct = encrypt(plaintext, self.round_keys)
        return time.perf_counter_ns() - start, ct

    def ciphertext(self, plaintext: bytes) -> bytes:
        return encrypt(plaintext, self.round_keys)


def make_backend(config: ChannelConfig):
    if config.backend == "simulated":
        return SimulatedBackend(config)
    return NativeBackend(config)


class TimingServer:
    """Strictly serial UDP victim; one request, one response."""

    def __init__(self, config: ChannelConfig, host: str = "127.0.0.1", port: int | None = None) -> None:
        self.config = config
        self.backend = make_backend(config)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((host, default_port() if port is None else port))
        self.sock.settimeout(0.2)
        self.address: tuple[str, int] = self.sock.getsockname()
        self.requests_served = 0
        self.dropped = 0
        self.errors = 0  # requests that failed in the backend or on send
        self._stop = threading.Event()

    def serve_forever(self) -> None:
        """Answer requests until stop() or close(); a failing request is
        logged and counted in errors, and the loop keeps serving."""
        while not self._stop.is_set():
            try:
                datagram, peer = self.sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                if self._stop.is_set() or self.sock.fileno() < 0:
                    break  # close() shut the socket
                self.errors += 1
                log.exception("receive failed")
                continue
            try:
                msg_type, pt = decode_request(datagram)
            except WireError as exc:
                self.dropped += 1
                log.warning("dropped datagram from %s: %s", peer, exc)
                continue
            try:
                if msg_type == MSG_TIMING:
                    cycles, _ = self.backend.handle(pt)
                    payload = struct.pack("<Q", cycles)
                else:
                    payload = self.backend.ciphertext(pt)
            except Exception:
                self.errors += 1
                log.exception("request from %s failed", peer)
                continue
            # counted before the reply leaves, so a stop that follows the
            # client's receipt of the reply cannot miss it
            self.requests_served += 1
            try:
                self.sock.sendto(encode_response(msg_type, pt, payload), peer)
            except OSError:
                self.requests_served -= 1
                self.errors += 1
                log.exception("reply to %s failed", peer)

    def stop(self) -> None:
        self._stop.set()

    def close(self) -> None:
        self.stop()
        self.sock.close()

    def __enter__(self) -> "TimingServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_server_thread(config: ChannelConfig, host: str = "127.0.0.1", port: int = 0):
    """Spawn a server on an ephemeral port; returns (server, thread)."""
    server = TimingServer(config, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


class UdpOracle:
    """Callable plaintext -> cycles against a server, reusing one socket."""

    def __init__(
        self,
        endpoint: tuple[str, int],
        packet_size: int = DEFAULT_PACKET_SIZE,
        timeout: float = 1.0,
        retries: int = 2,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        host, port = endpoint
        try:
            # resolved once here, so sendto never looks a host name up again
            info = socket.getaddrinfo(host, port, socket.AF_INET, socket.SOCK_DGRAM)
        except socket.gaierror as exc:
            raise ChannelError(f"cannot resolve {host}:{port}: {exc}") from None
        self.endpoint = endpoint
        self.address = info[0][4]
        self.packet_size = packet_size
        self.timeout = timeout
        self.retries = retries
        self.timeouts = 0
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def _request(self, msg_type: int, plaintext: bytes) -> bytes:
        """Send one request, resending on each timeout; drop late replies to
        earlier requests and junk until a reply to this one arrives."""
        datagram = encode_request(msg_type, plaintext, self.packet_size)
        for _ in range(self.retries + 1):
            self.sock.sendto(datagram, self.address)
            deadline = time.monotonic() + self.timeout
            while (remaining := deadline - time.monotonic()) > 0:
                self.sock.settimeout(remaining)
                try:
                    reply, _ = self.sock.recvfrom(65535)
                except socket.timeout:
                    break
                try:
                    rtype, echo, payload = decode_response(reply)
                except WireError as exc:
                    log.warning("dropped malformed response: %s", exc)
                    continue
                if rtype == msg_type and echo == plaintext:
                    return payload
            self.timeouts += 1
        raise ChannelTimeout(f"no response from {self.endpoint}")

    def __call__(self, plaintext: bytes) -> int:
        return struct.unpack("<Q", self._request(MSG_TIMING, plaintext))[0]

    def ciphertext(self, plaintext: bytes) -> bytes:
        return self._request(MSG_CIPHERTEXT, plaintext)

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "UdpOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

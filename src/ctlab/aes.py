"""T-table AES-128 encryption core with an access-trace hook.

Word convention, fixed once for the whole package: state and round-key
words are big-endian 32-bit integers. Te0[x] packs the column
(2*S[x], S[x], S[x], 3*S[x]) with the 2*S[x] byte in the high lane, and
Te1..Te3 are successive 8-bit right rotations of Te0. Te4 replicates
S[x] into all four lanes and serves the final round.

Encryption only. Ten rounds, 44-word key schedule. When a trace sink is
supplied, every lookup of index i in table t appends record[t][i]; one
encryption always produces exactly 160 entries (16 lookups per round for
rounds 1..9 on Te0..Te3, then 16 final-round Te4 lookups). The default
record, PAIRS, yields (table_id, index) pairs; the simulator passes the
rows countermeasures.make_state gave its server instead and so records
byte addresses directly.

expand_batch and encrypt_batch run the same cipher over numpy for key
search (many keys, one plaintext, no trace). They store words as '<u4', so
lane 3 of a word's uint8 view is its high byte on every host, and they
read every table index as such a byte lane, with no shift or mask: every
table gather, Te4's included, is a take. Every S-box word, scalar or batch,
comes from _sbox_word, which masks one byte out of each of four Te4 words
the caller looked up.
"""

from __future__ import annotations

import numpy as np

TE0, TE1, TE2, TE3, TE4 = 0, 1, 2, 3, 4
TABLE_IDS = (TE0, TE1, TE2, TE3, TE4)
TABLE_BYTES = 1024          # 256 entries of 4 bytes each
TRACE_LEN = 160

# PAIRS[t][i] is the shared (t, i) trace entry for index i of table t.
PAIRS = tuple(tuple((t, i) for i in range(256)) for t in TABLE_IDS)

SBOX = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
)

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def xtime(b: int) -> int:
    """Multiply by x in GF(2^8) with the AES reduction polynomial."""
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b


def _ror8(w: int) -> int:
    return ((w >> 8) | (w << 24)) & 0xFFFFFFFF


def generate_ttables() -> tuple[tuple[int, ...], ...]:
    """Derive (Te0, Te1, Te2, Te3, Te4) from the S-box and xtime."""
    te0, te4 = [], []
    for x in range(256):
        s = SBOX[x]
        s2 = xtime(s)
        s3 = s2 ^ s
        te0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        te4.append((s << 24) | (s << 16) | (s << 8) | s)
    te1 = [_ror8(w) for w in te0]
    te2 = [_ror8(w) for w in te1]
    te3 = [_ror8(w) for w in te2]
    return tuple(te0), tuple(te1), tuple(te2), tuple(te3), tuple(te4)


TTABLES = generate_ttables()


def _check16(data: bytes, what: str) -> None:
    if not isinstance(data, (bytes, bytearray)) or len(data) != 16:
        raise ValueError(f"{what} must be exactly 16 bytes")


def _sbox_word(w0, w1, w2, w3):
    """The S-box bytes of four looked-up Te4 words packed high lane first,
    w0's in the high lane; ints, or elementwise on uint32 arrays."""
    return (w0 & 0xFF000000) ^ (w1 & 0x00FF0000) ^ (w2 & 0x0000FF00) ^ (w3 & 0xFF)


def expand_key(key: bytes) -> list[int]:
    """Expand a 16-byte key into the 44-word round-key schedule."""
    _check16(key, "key")
    te4 = TTABLES[TE4]
    w = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:  # SubWord(RotWord(t)) ^ Rcon
            t = _sbox_word(te4[(t >> 16) & 0xFF], te4[(t >> 8) & 0xFF], te4[t & 0xFF], te4[t >> 24])
            t ^= RCON[i // 4 - 1] << 24
        w.append(w[i - 4] ^ t)
    return w


def encrypt(
    plaintext: bytes,
    round_keys: list[int],
    trace: list | None = None,
    record: tuple[tuple, ...] = PAIRS,
) -> bytes:
    """Encrypt one block; optionally record every table lookup into trace.

    The trace sink is an append-only list. Each round computes its 16
    indices once, extends the trace with record[t][i] for each lookup
    when a sink is given, then XORs the looked-up words; the untraced
    path pays one ``is not None`` test per round for the hook. record
    holds five 256-entry rows, one per table: PAIRS by default, or a
    server's rows from countermeasures.make_state to record byte addresses.
    """
    _check16(plaintext, "plaintext")
    if len(round_keys) != 44:
        raise ValueError("round_keys must hold 44 words")
    te0, te1, te2, te3, te4 = TTABLES
    rk = round_keys
    if trace is not None:
        r0, r1, r2, r3, r4 = record
    s0 = int.from_bytes(plaintext[0:4], "big") ^ rk[0]
    s1 = int.from_bytes(plaintext[4:8], "big") ^ rk[1]
    s2 = int.from_bytes(plaintext[8:12], "big") ^ rk[2]
    s3 = int.from_bytes(plaintext[12:16], "big") ^ rk[3]
    for k in range(4, 44, 4):
        # Column c reads byte 3-j of word c+j for j = 0..3 (ShiftRows).
        a0 = (s0 >> 24) & 0xFF; a1 = (s1 >> 16) & 0xFF; a2 = (s2 >> 8) & 0xFF; a3 = s3 & 0xFF
        b0 = (s1 >> 24) & 0xFF; b1 = (s2 >> 16) & 0xFF; b2 = (s3 >> 8) & 0xFF; b3 = s0 & 0xFF
        c0 = (s2 >> 24) & 0xFF; c1 = (s3 >> 16) & 0xFF; c2 = (s0 >> 8) & 0xFF; c3 = s1 & 0xFF
        d0 = (s3 >> 24) & 0xFF; d1 = (s0 >> 16) & 0xFF; d2 = (s1 >> 8) & 0xFF; d3 = s2 & 0xFF
        if k == 40:
            break  # the final round looks these indices up in Te4
        if trace is not None:
            trace += (
                r0[a0], r1[a1], r2[a2], r3[a3],
                r0[b0], r1[b1], r2[b2], r3[b3],
                r0[c0], r1[c1], r2[c2], r3[c3],
                r0[d0], r1[d1], r2[d2], r3[d3],
            )
        s0 = te0[a0] ^ te1[a1] ^ te2[a2] ^ te3[a3] ^ rk[k]
        s1 = te0[b0] ^ te1[b1] ^ te2[b2] ^ te3[b3] ^ rk[k + 1]
        s2 = te0[c0] ^ te1[c1] ^ te2[c2] ^ te3[c3] ^ rk[k + 2]
        s3 = te0[d0] ^ te1[d1] ^ te2[d2] ^ te3[d3] ^ rk[k + 3]
    if trace is not None:
        trace += (
            r4[a0], r4[a1], r4[a2], r4[a3],
            r4[b0], r4[b1], r4[b2], r4[b3],
            r4[c0], r4[c1], r4[c2], r4[c3],
            r4[d0], r4[d1], r4[d2], r4[d3],
        )
    s0 = _sbox_word(te4[a0], te4[a1], te4[a2], te4[a3]) ^ rk[40]
    s1 = _sbox_word(te4[b0], te4[b1], te4[b2], te4[b3]) ^ rk[41]
    s2 = _sbox_word(te4[c0], te4[c1], te4[c2], te4[c3]) ^ rk[42]
    s3 = _sbox_word(te4[d0], te4[d1], te4[d2], te4[d3]) ^ rk[43]
    return ((s0 << 96) | (s1 << 64) | (s2 << 32) | s3).to_bytes(16, "big")


# The same five tables as one (5, 256) array of '<u4' words, for the batch kernel.
_WORD = np.dtype("<u4")
_TABLES = np.array(TTABLES, dtype=_WORD)


def _lanes(words: np.ndarray) -> np.ndarray:
    """The (..., 4) uint8 byte lanes of an array of '<u4' words."""
    return words.view(np.uint8).reshape(*words.shape, 4)


def expand_batch(keys: np.ndarray) -> np.ndarray:
    """Vectorized key schedule: (n, 16) uint8 keys -> (n, 44) uint32 words,
    the transposed view of a column-major (44, n) schedule."""
    if keys.ndim != 2 or keys.shape[1] != 16 or keys.dtype != np.uint8:
        raise ValueError("keys must be an (n, 16) uint8 array")
    te4 = _TABLES[TE4]
    w = np.empty((44, len(keys)), dtype=_WORD)
    w[:4] = np.ascontiguousarray(keys).view(">u4").T
    lanes = _lanes(w)
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:  # SubWord(RotWord(t)) ^ Rcon
            t = _sbox_word(*(te4.take(lanes[i - 1, :, j]) for j in (2, 1, 0, 3)))
            t ^= RCON[i // 4 - 1] << 24
        np.bitwise_xor(w[i - 4], t, out=w[i])
    return w.T


def encrypt_batch(plaintext: bytes, schedule: np.ndarray) -> np.ndarray:
    """Encrypt one plaintext under many (n, 44) uint32 schedules; returns
    (n, 4) uint32 ciphertext words. Any other schedule is refused, since
    its byte lanes would not be the words' bytes."""
    _check16(plaintext, "plaintext")
    if (not isinstance(schedule, np.ndarray) or schedule.ndim != 2
            or schedule.shape[1] != 44 or schedule.dtype != _WORD):
        raise ValueError("schedule must be an (n, 44) little-endian uint32 array")
    te0, te1, te2, te3, te4 = _TABLES
    rk = schedule.T
    s = np.empty((4, rk.shape[1]), dtype=_WORD)
    t = np.empty_like(s)
    for c in range(4):
        np.bitwise_xor(rk[c], int.from_bytes(plaintext[4 * c : 4 * c + 4], "big"), out=s[c])
    for k in range(4, 40, 4):
        # Column c reads lane 3-j of word c+j for j = 0..3 (ShiftRows).
        lanes = _lanes(s)
        for c in range(4):
            np.take(te0, lanes[c, :, 3], out=t[c])
            t[c] ^= te1.take(lanes[(c + 1) & 3, :, 2])
            t[c] ^= te2.take(lanes[(c + 2) & 3, :, 1])
            t[c] ^= te3.take(lanes[(c + 3) & 3, :, 0])
            t[c] ^= rk[k + c]
        s, t = t, s
    lanes = _lanes(s)
    for c in range(4):
        word = _sbox_word(*(te4.take(lanes[(c + j) & 3, :, 3 - j]) for j in range(4)))
        np.bitwise_xor(word, rk[40 + c], out=t[c])
    return t.T

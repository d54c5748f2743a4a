"""T-table core: known answers, oracle cross-checks, trace shape."""

from __future__ import annotations

import random

import pytest

from ctlab import aes
from ctlab.countermeasures import PACKED_ROWS, PARTITIONED_ROWS
from reference_aes import (
    REF_SBOX,
    _add_round_key,
    _expand,
    _mix_columns,
    _shift_rows,
    _sub_bytes,
    reference_encrypt,
)

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

ZERO16 = bytes(16)
ZERO_CT = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")


def _enc(pt: bytes, key: bytes) -> bytes:
    return aes.encrypt(pt, aes.expand_key(key))


def test_known_answer_vectors():
    assert _enc(FIPS_PT, FIPS_KEY) == FIPS_CT
    assert _enc(ZERO16, ZERO16) == ZERO_CT


def test_sbox_matches_field_construction():
    assert tuple(REF_SBOX) == aes.SBOX


def test_table_word_packing():
    # Te0[0] packs (2*0x63, 0x63, 0x63, 3*0x63) high byte first.
    s = 0x63
    assert aes.TTABLES[aes.TE0][0] == (0xC6 << 24) | (s << 16) | (s << 8) | 0xA5
    assert aes.TTABLES[aes.TE4][0] == 0x63636363


def test_table_rotation_chain():
    t = aes.TTABLES
    for x in range(256):
        w = t[aes.TE0][x]
        for nxt in (t[aes.TE1], t[aes.TE2], t[aes.TE3]):
            w = ((w >> 8) | (w << 24)) & 0xFFFFFFFF
            assert nxt[x] == w


def test_te4_replicates_sbox():
    for x in range(256):
        s = aes.SBOX[x]
        assert aes.TTABLES[aes.TE4][x] == s * 0x01010101


def test_key_schedule_shape_and_prefix():
    rk = aes.expand_key(FIPS_KEY)
    assert len(rk) == 44
    assert b"".join(w.to_bytes(4, "big") for w in rk[:4]) == FIPS_KEY


def test_key_schedule_zero_key_word4():
    rk = aes.expand_key(ZERO16)
    assert rk[4] == 0x62636363


def test_random_pairs_match_reference_oracle():
    rng = random.Random(20240817)
    for _ in range(300):
        key = rng.randbytes(16)
        pt = rng.randbytes(16)
        assert _enc(pt, key) == reference_encrypt(pt, key)


def test_traced_and_plain_agree():
    rng = random.Random(7)
    for _ in range(50):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        rk = aes.expand_key(key)
        trace: list[tuple[int, int]] = []
        assert aes.encrypt(pt, rk, trace=trace) == aes.encrypt(pt, rk)


def test_address_trace_is_the_resolved_pair_trace():
    rng = random.Random(0xADD5)
    for rows in (PACKED_ROWS, PARTITIONED_ROWS):
        for _ in range(500):
            key, pt = rng.randbytes(16), rng.randbytes(16)
            rk = aes.expand_key(key)
            pairs: list[tuple[int, int]] = []
            addresses: list[int] = []
            ct = aes.encrypt(pt, rk, pairs)
            assert aes.encrypt(pt, rk, addresses, rows) == ct
            assert addresses == [rows[t][0] + 4 * i for t, i in pairs]


def test_trace_shape_and_table_sequence():
    trace: list[tuple[int, int]] = []
    aes.encrypt(FIPS_PT, aes.expand_key(FIPS_KEY), trace=trace)
    assert len(trace) == aes.TRACE_LEN == 160
    for i, (tid, idx) in enumerate(trace):
        assert 0 <= idx < 256
        if i < 144:
            assert tid == i % 4
        else:
            assert tid == aes.TE4


# Round-1 lookups walk the shifted state column by column.
SHIFT_ORDER = (0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)


def test_first_round_trace_indices_are_pt_xor_key():
    rng = random.Random(99)
    for _ in range(40):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        trace: list[tuple[int, int]] = []
        aes.encrypt(pt, aes.expand_key(key), trace=trace)
        leak = [p ^ k for p, k in zip(pt, key)]
        got = [idx for _, idx in trace[:16]]
        assert got == [leak[j] for j in SHIFT_ORDER]


def test_whole_trace_matches_reference_round_states():
    # Every round looks up the bytes of the state entering it, in the
    # shifted column order; rounds 1..9 cycle Te0..Te3, round 10 uses Te4.
    rng = random.Random(0x7ACE)
    for _ in range(40):
        key, pt = rng.randbytes(16), rng.randbytes(16)
        words = _expand(key)
        state = [[pt[r + 4 * c] for c in range(4)] for r in range(4)]
        _add_round_key(state, words, 0)
        expected: list[tuple[int, int]] = []
        for rnd in range(1, 11):
            flat = [state[i % 4][i // 4] for i in range(16)]
            tables = [aes.TE4] * 16 if rnd == 10 else [j % 4 for j in range(16)]
            expected += zip(tables, (flat[i] for i in SHIFT_ORDER))
            _sub_bytes(state)
            _shift_rows(state)
            if rnd < 10:
                _mix_columns(state)
            _add_round_key(state, words, rnd)
        trace: list[tuple[int, int]] = []
        ct = aes.encrypt(pt, aes.expand_key(key), trace=trace)
        assert len(expected) == aes.TRACE_LEN
        assert trace == expected
        assert ct == bytes(state[r][c] for c in range(4) for r in range(4))


def test_input_validation():
    rk = aes.expand_key(FIPS_KEY)
    with pytest.raises(ValueError):
        aes.encrypt(b"short", rk)
    with pytest.raises(ValueError):
        aes.encrypt(FIPS_PT, rk[:-1])
    with pytest.raises(ValueError):
        aes.expand_key(b"short")

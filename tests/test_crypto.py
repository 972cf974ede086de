import random

import pytest

from nvmsim.crypto import (
    KeySet,
    _pad,
    decrypt,
    encrypt,
    hash_node,
    mac_tag,
    open_block,
    payload_block,
    seal_block,
    verify_mac,
)

KEYS = KeySet.from_seed(0)
PLAIN = payload_block(42)
ADDR = 0x2000


def test_keys_are_128_bit():
    with pytest.raises(ValueError):
        KeySet(b"short", b"short")
    assert KeySet.from_seed(1) != KeySet.from_seed(2)


def test_encrypt_decrypt_round_trip():
    ct = encrypt(PLAIN, ADDR, (3, 7), KEYS)
    assert ct != PLAIN
    assert decrypt(ct, ADDR, (3, 7), KEYS) == PLAIN


def test_counter_gives_temporal_uniqueness():
    assert encrypt(PLAIN, ADDR, (0, 1), KEYS) != encrypt(PLAIN, ADDR, (0, 2), KEYS)


def test_address_gives_spatial_uniqueness():
    assert encrypt(PLAIN, 0x1000, (0, 1), KEYS) != encrypt(PLAIN, 0x2000, (0, 1), KEYS)


def test_wrong_counter_garbles_plaintext():
    ct = encrypt(PLAIN, ADDR, (0, 2), KEYS)
    assert decrypt(ct, ADDR, (0, 1), KEYS) != PLAIN


def test_seed_uniqueness_over_run():
    # pad seeds are (addr, counter) pairs; no collision across a run's set
    seeds = set()
    for addr in range(0, 64 * 256, 64):
        for ctr in [(0, 0), (0, 1), (1, 0)]:
            seeds.add((addr, ctr))
    assert len(seeds) == 256 * 3


def test_mac_deterministic():
    ct = encrypt(PLAIN, ADDR, (0, 1), KEYS)
    assert mac_tag(ct, ADDR, (0, 1), KEYS) == mac_tag(ct, ADDR, (0, 1), KEYS)


def test_mac_tamper_trials():
    # 10^4 single-bit flips; zero undetected at 64-bit tags expected
    rng = random.Random(99)
    ct = encrypt(PLAIN, ADDR, (0, 1), KEYS)
    tag = mac_tag(ct, ADDR, (0, 1), KEYS)
    undetected = 0
    for _ in range(10_000):
        i = rng.randrange(len(ct))
        bit = 1 << rng.randrange(8)
        tampered = bytearray(ct)
        tampered[i] ^= bit
        if verify_mac(tag, bytes(tampered), ADDR, (0, 1), KEYS):
            undetected += 1
    assert undetected == 0


def test_stale_counter_fails_verification():
    ct = encrypt(PLAIN, ADDR, (0, 2), KEYS)
    tag = mac_tag(ct, ADDR, (0, 2), KEYS)
    assert not verify_mac(tag, ct, ADDR, (0, 1), KEYS)


def test_hash_node_deterministic_and_order_sensitive():
    rng = random.Random(5)
    children = [rng.randrange(2**64).to_bytes(8, "little") for _ in range(8)]
    payload = b"".join(children)
    assert hash_node(payload, KEYS) == hash_node(payload, KEYS)
    collisions = 0
    for _ in range(10_000):
        perm = children[:]
        rng.shuffle(perm)
        if perm == children:
            continue
        if hash_node(b"".join(perm), KEYS) == hash_node(payload, KEYS):
            collisions += 1
    assert collisions == 0


def test_hash_node_rejects_bad_payload():
    with pytest.raises(ValueError):
        hash_node(b"", KEYS)
    with pytest.raises(ValueError):
        hash_node(b"\x00" * 13, KEYS)


def test_payload_block_deterministic():
    assert payload_block(7) == payload_block(7)
    assert payload_block(7) != payload_block(8)
    assert len(payload_block(7)) == 64


def test_encrypt_matches_per_byte_xor():
    rng = random.Random(11)
    for i in range(2000):
        plain = rng.randbytes(64)
        addr = rng.randrange(1 << 40) * 64
        counter = (rng.randrange(1 << 20), rng.randrange(1 << 7))
        reference = bytes(p ^ q for p, q in zip(plain, _pad(KEYS, addr, counter)))
        assert encrypt(plain, addr, counter, KEYS) == reference


def test_open_block_matches_decrypt_and_mac_tag():
    rng = random.Random(12)
    for _ in range(500):
        ct = rng.randbytes(64)
        addr = rng.randrange(1 << 40) * 64
        counter = (rng.randrange(1 << 20), rng.randrange(1 << 7))
        assert open_block(ct, addr, counter, KEYS) == (
            decrypt(ct, addr, counter, KEYS),
            mac_tag(ct, addr, counter, KEYS),
        )


def test_seal_block_matches_encrypt_and_mac_tag_and_opens():
    rng = random.Random(13)
    for _ in range(500):
        plain = rng.randbytes(64)
        addr = rng.randrange(1 << 40) * 64
        counter = (rng.randrange(1 << 20), rng.randrange(1 << 7))
        ct, tag = seal_block(plain, addr, counter, KEYS)
        assert (ct, tag) == (encrypt(plain, addr, counter, KEYS), mac_tag(ct, addr, counter, KEYS))
        assert open_block(ct, addr, counter, KEYS) == (plain, tag)
    with pytest.raises(ValueError):
        seal_block(bytes(63), 0, (0, 0), KEYS)

"""Functional crypto layer: counter-mode encryption, stateful MACs and the
keyed digest used for tree nodes.

All three primitives are built on one keyed PRF (BLAKE2b) so recovery
verification is real rather than mocked.  Timing is charged separately by
the clock model; nothing here costs simulated cycles.  The simulator seals
data blocks (``seal_block``) and hashes tree nodes only when a crash or a
view reads them, never while it runs; its node digests replayed from the
update log copy ``node_hasher``, the keyed state ``hash_node`` starts from.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from .model_core import BLOCK_SIZE, BlockAddr

TAG_BITS = 64
TAG_BYTES = TAG_BITS // 8

# PRF seed: 8-byte address, 8-byte major counter, 2-byte minor counter
_SEED = struct.Struct("<QQH")


@dataclass(frozen=True)
class KeySet:
    """Fixed per-run 128-bit encryption and MAC keys."""

    enc: bytes
    mac: bytes

    def __post_init__(self) -> None:
        if len(self.enc) != 16 or len(self.mac) != 16:
            raise ValueError("keys must be 128-bit")

    @classmethod
    def from_seed(cls, seed: int) -> "KeySet":
        raw = hashlib.blake2b(seed.to_bytes(8, "little", signed=False), digest_size=32).digest()
        return cls(enc=raw[:16], mac=raw[16:])


def _seed_bytes(addr, counter) -> bytes:
    value = addr.value if isinstance(addr, BlockAddr) else int(addr)
    return _SEED.pack(value, *counter)


def _seed_pad(seed: bytes, keys: KeySet) -> bytes:
    # one-time pad: PRF(key, addr || counter); spatial uniqueness from the
    # address, temporal uniqueness from the counter
    return hashlib.blake2b(seed, key=keys.enc, digest_size=BLOCK_SIZE).digest()


def _pad(keys: KeySet, addr, counter) -> bytes:
    return _seed_pad(_seed_bytes(addr, counter), keys)


def _xor(block: bytes, pad: bytes) -> bytes:
    mixed = int.from_bytes(block, "little") ^ int.from_bytes(pad, "little")
    return mixed.to_bytes(BLOCK_SIZE, "little")


def _seed_tag(ciphertext: bytes, seed: bytes, keys: KeySet) -> int:
    digest = hashlib.blake2b(b"mac" + seed + ciphertext, key=keys.mac, digest_size=TAG_BYTES).digest()
    return int.from_bytes(digest, "little")


def encrypt(plaintext: bytes, addr, counter, keys: KeySet) -> bytes:
    if len(plaintext) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes")
    return _xor(plaintext, _pad(keys, addr, counter))


def decrypt(ciphertext: bytes, addr, counter, keys: KeySet) -> bytes:
    # XOR pad: decryption is the same operation with the same seed
    return encrypt(ciphertext, addr, counter, keys)


def mac_tag(ciphertext: bytes, addr, counter, keys: KeySet) -> int:
    """Stateful MAC over (ciphertext, address, counter), truncated to 64 bits."""
    return _seed_tag(ciphertext, _seed_bytes(addr, counter), keys)


def verify_mac(tag: int, ciphertext: bytes, addr, counter, keys: KeySet) -> bool:
    return tag == mac_tag(ciphertext, addr, counter, keys)


def open_block(ciphertext: bytes, addr: int, counter, keys: KeySet) -> tuple:
    """Decrypt one 64-byte block and compute the MAC tag it should carry,
    both from one seed: returns ``(plaintext, tag)``."""
    if len(ciphertext) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes")
    seed = _SEED.pack(addr, *counter)
    return _xor(ciphertext, _seed_pad(seed, keys)), _seed_tag(ciphertext, seed, keys)


def seal_block(plaintext: bytes, addr: int, counter, keys: KeySet) -> tuple:
    """Encrypt one 64-byte block and compute its MAC tag, both from one
    seed: returns ``(ciphertext, tag)``, what ``encrypt`` and ``mac_tag``
    give, and the inverse of ``open_block``."""
    if len(plaintext) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes")
    seed = _SEED.pack(addr, *counter)
    ciphertext = _xor(plaintext, _seed_pad(seed, keys))
    return ciphertext, _seed_tag(ciphertext, seed, keys)


def hash_node(payload: bytes, keys: KeySet) -> int:
    """Keyed digest of a tree node's child payload.

    The payload is either the concatenation of child tags (8 bytes each)
    or one 64-byte counter block for a leaf.
    """
    if not payload or len(payload) % TAG_BYTES != 0:
        raise ValueError(f"payload length must be a positive multiple of {TAG_BYTES}")
    digest = hashlib.blake2b(b"node" + payload, key=keys.mac, digest_size=TAG_BYTES).digest()
    return int.from_bytes(digest, "little")


def node_hasher(keys: KeySet):
    """The BLAKE2b state ``hash_node`` reaches before its payload: keyed and
    ``b"node"`` absorbed.  A copy updated with a payload digests as
    ``hash_node(payload, keys)`` does, without keying a new object."""
    return hashlib.blake2b(b"node", key=keys.mac, digest_size=TAG_BYTES)


def payload_block(seed: int) -> bytes:
    """Deterministic 64-byte payload for a store, derived from its seed."""
    return hashlib.blake2b(
        b"payload" + seed.to_bytes(8, "little", signed=False), digest_size=BLOCK_SIZE
    ).digest()

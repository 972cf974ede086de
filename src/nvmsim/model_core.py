"""Core data model: block addresses, split counters and the golden
(oracle) plaintext memory.

Everything here is functional state shared by the rest of the simulator;
no timing lives in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

BLOCK_SIZE = 64
PAGE_SIZE = 4096
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE
MINOR_MAX = 127  # 7-bit per-block minor counters
_MINOR_BITS = 7


class MisalignedAddress(ValueError):
    """Raised for addresses that are not 64-byte block aligned."""


@dataclass(frozen=True)
class BlockAddr:
    """A 64-bit, block-aligned physical address of one 64-byte block."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0 or self.value >= 1 << 64:
            raise MisalignedAddress(f"address out of 64-bit range: {self.value:#x}")
        if self.value % BLOCK_SIZE != 0:
            raise MisalignedAddress(f"address not {BLOCK_SIZE}B aligned: {self.value:#x}")

    @property
    def page(self) -> int:
        return self.value // PAGE_SIZE

    @property
    def block_in_page(self) -> int:
        return (self.value // BLOCK_SIZE) % BLOCKS_PER_PAGE


@dataclass(frozen=True, slots=True)
class SplitCounter:
    """One counter block: a per-page major counter plus 64 per-block minors.

    A bump increments the target minor; when the minor is already at its
    7-bit maximum the major is incremented and every minor of the page
    resets to zero.  The effective counter of a block is the
    (major, minor) pair, totally ordered as major * 128 + minor, and it
    never repeats for a given block across any bump sequence.

    ``packed`` is the block layout itself: minor ``i`` sits in bits
    ``7*i .. 7*i+6`` of one 448-bit int, exactly the 56 bytes that follow
    the 8-byte major in ``to_block_bytes``.
    """

    major: int = 0
    packed: int = 0

    @classmethod
    def from_minors(cls, major: int, minors) -> "SplitCounter":
        """Counter block from 64 explicit minors, each within 0..MINOR_MAX."""
        minors = tuple(minors)
        if len(minors) != BLOCKS_PER_PAGE:
            raise ValueError(f"need {BLOCKS_PER_PAGE} minors, got {len(minors)}")
        packed = 0
        for i, m in enumerate(minors):
            if not 0 <= m <= MINOR_MAX:
                raise ValueError(f"minor {i} out of range 0..{MINOR_MAX}: {m}")
            packed |= m << (_MINOR_BITS * i)
        return cls(major, packed)

    @property
    def minors(self) -> tuple:
        return tuple((self.packed >> (_MINOR_BITS * i)) & MINOR_MAX for i in range(BLOCKS_PER_PAGE))

    def bump(self, block_in_page: int) -> "SplitCounter":
        if not 0 <= block_in_page < BLOCKS_PER_PAGE:
            raise IndexError(f"minor index out of range: {block_in_page}")
        shift = _MINOR_BITS * block_in_page
        if (self.packed >> shift) & MINOR_MAX == MINOR_MAX:
            return SplitCounter(self.major + 1)
        return SplitCounter(self.major, self.packed + (1 << shift))

    def effective(self, block_in_page: int) -> tuple:
        """(major, minor) freshness value for one block of the page."""
        return (self.major, (self.packed >> (_MINOR_BITS * block_in_page)) & MINOR_MAX)

    def to_block_bytes(self) -> bytes:
        """Pack into exactly one 64-byte metadata block: 8 bytes of major
        counter followed by the 56-byte packed minors, the layout that makes
        the whole page's counters fit a single cache block."""
        return self.major.to_bytes(8, "little") + self.packed.to_bytes(56, "little")


@dataclass(frozen=True, slots=True)
class StoreRecord:
    persist_id: int
    addr: BlockAddr
    plaintext: bytes
    epoch: int


class GoldenMemory:
    """Plaintext shadow memory plus an append-only persist-order log.

    The log order equals trace order of stores; recovery checks compare
    durable state against replayed prefixes of this log.
    """

    def __init__(self) -> None:
        self.log: list = []

    def apply_store(self, addr: BlockAddr, data: bytes, epoch: int = 0) -> int:
        if not isinstance(addr, BlockAddr):
            addr = BlockAddr(int(addr))
        if len(data) != BLOCK_SIZE:
            raise ValueError(f"payload must be {BLOCK_SIZE} bytes, got {len(data)}")
        persist_id = len(self.log)
        self.log.append(StoreRecord(persist_id, addr, data, epoch))
        return persist_id

    def state_at_epoch_end(self, epoch: int) -> dict:
        """Plaintext state after every store of epochs <= ``epoch``."""
        state: dict = {}
        for rec in self.log:
            if rec.epoch <= epoch:
                state[rec.addr.value] = rec.plaintext
        return state

    def __len__(self) -> int:
        return len(self.log)

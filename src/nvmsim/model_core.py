"""Core data model: block addresses, split counters and the golden
(oracle) plaintext memory.

Everything here is functional state shared by the rest of the simulator;
no timing lives in this module.  Per-persist history is kept in ``array``
columns indexed by persist id, and read through ``Rows``, read-only
sequences whose rows are built on demand.  Blocks that only a crash reads
are derived when first read, into plain lists.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import eq

BLOCK_SIZE = 64
PAGE_SIZE = 4096
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE
MINOR_MAX = 127  # 7-bit per-block minor counters
NEVER = (1 << 63) - 1  # a cycle column's value until its event happens: no cut reaches it
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


class Rows(Sequence):
    """A read-only sequence of ``row(i)`` for ``i < size()``, each row built
    when it is read.  It equals any sequence with equal rows."""

    __slots__ = ("_size", "_row")

    def __init__(self, size, row) -> None:
        self._size = size
        self._row = row

    def __len__(self) -> int:
        return self._size()

    def __getitem__(self, i):
        n = self._size()
        if isinstance(i, slice):
            return [self._row(j) for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range ({n} rows)")
        return self._row(i)

    def __iter__(self):
        return map(self._row, range(self._size()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


@dataclass(frozen=True, slots=True)
class StoreRecord:
    persist_id: int
    addr: BlockAddr
    plaintext: bytes
    epoch: int


def _plaintexts(seeds: array, plain: list, n: int) -> list:
    """``plain``, the plaintexts derived so far, extended to the first ``n`` stores that exist."""
    if len(plain) < n:
        from .crypto import payload_block  # crypto imports this module

        plain.extend(map(payload_block, seeds[len(plain):n]))
    return plain


def _store_record(addrs: array, epochs: array, seeds: array, plain: list, pid: int) -> StoreRecord:
    return StoreRecord(pid, BlockAddr(addrs[pid]), _plaintexts(seeds, plain, pid + 1)[pid], epochs[pid])


class GoldenMemory:
    """Plaintext shadow memory plus an append-only persist-order log.

    The log order equals trace order of stores; recovery checks compare
    durable state against replayed prefixes of this log.  It is kept as
    columns indexed by persist id: ``addr``, ``epoch`` and ``seed``, each
    store's payload seed (``array``), and ``plain``, a list of the
    plaintexts derived from the seeds (``crypto.payload_block``) so far,
    which ``plaintexts`` extends in log order.  ``log`` reads them as
    ``StoreRecord`` rows.  Epochs never decrease along the log, so the
    stores of the epochs up to any one are a prefix of it.
    """

    def __init__(self) -> None:
        self.addr = array("Q")
        self.epoch = array("q")
        self.seed = array("Q")
        self.plain: list = []
        # the function holds the columns, not self, so no cycle keeps a run alive
        self.log = Rows(self.addr.__len__, partial(_store_record, self.addr, self.epoch, self.seed, self.plain))

    def apply_store(self, addr: BlockAddr, payload_seed: int, epoch: int = 0) -> int:
        """Log a store of the payload ``crypto.payload_block(payload_seed)``."""
        if not isinstance(addr, BlockAddr):
            addr = BlockAddr(int(addr))
        if not 0 <= payload_seed < 1 << 64:
            raise ValueError(f"payload seed out of 64-bit range: {payload_seed}")
        if self.epoch and epoch < self.epoch[-1]:
            raise ValueError(f"epoch {epoch} after epoch {self.epoch[-1]}: epochs must not decrease")
        persist_id = len(self.addr)
        self.addr.append(addr.value)
        self.epoch.append(epoch)
        self.seed.append(payload_seed)
        return persist_id

    def plaintexts(self, n: int) -> list:
        """A list whose first ``n`` items are the plaintexts of the first
        ``n`` stores; it may be longer, and is shared, so only read it."""
        return _plaintexts(self.seed, self.plain, n)

    def state_at_epoch_end(self, epoch: int) -> dict:
        """Plaintext state after every store of epochs <= ``epoch``: each
        address's last write in the log prefix of those epochs."""
        n = bisect_right(self.epoch, epoch)
        return dict(zip(islice(self.addr, n), self.plaintexts(n)))

    def __len__(self) -> int:
        return len(self.addr)

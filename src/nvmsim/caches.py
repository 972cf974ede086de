"""Set-associative metadata caches (counter, MAC and tree-node caches).

LRU replacement.  Persists in this model always flow through the
write-pending queue, so the caches only decide hit or fill latency and
never hold dirty metadata.  Crash semantics are a flush: cached state is
volatile and lost with power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model_core import BLOCK_SIZE


def cache_sets(capacity_bytes: int, associativity: int) -> int:
    """Number of sets of a cache of that shape; ValueError unless the
    capacity is a positive multiple of ``associativity * BLOCK_SIZE``."""
    set_bytes = associativity * BLOCK_SIZE
    if set_bytes <= 0 or capacity_bytes <= 0 or capacity_bytes % set_bytes != 0:
        raise ValueError(f"capacity {capacity_bytes} B is not a positive multiple of "
                         f"associativity {associativity} * block size {BLOCK_SIZE} B")
    return capacity_bytes // set_bytes


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": round(self.hit_ratio, 6),
        }


class MetadataCache:
    """One set-associative cache with LRU order per set.

    ``ideal`` turns every access into a hit and holds no lines, so
    ``contains()`` is False for every key (used to reproduce closed-form
    timing where fill latency must not disturb the arithmetic).
    """

    def __init__(self, capacity_bytes: int, associativity: int, ideal: bool = False) -> None:
        self.associativity = associativity
        self._num_sets = cache_sets(capacity_bytes, associativity)
        # per set: list of keys, most-recent last; an ideal cache keeps none
        self._sets = None if ideal else [[] for _ in range(self._num_sets)]
        self.stats = CacheStats()

    def access(self, key: int) -> bool:
        """Look up one block; returns True on hit.

        On a miss the line is filled immediately (the caller charges the
        fill latency) and the LRU victim of the set is evicted.
        """
        self.stats.accesses += 1
        if self._sets is not None:
            lines = self._sets[key % self._num_sets]
            if key not in lines:
                self.stats.misses += 1
                if len(lines) >= self.associativity:
                    lines.pop(0)
                    self.stats.evictions += 1
                lines.append(key)
                return False
            lines.remove(key)
            lines.append(key)
        self.stats.hits += 1
        return True

    def contains(self, key: int) -> bool:
        return self._sets is not None and key in self._sets[key % self._num_sets]

    def flush_volatile(self) -> None:
        """Crash semantics: all cached metadata is gone. Idempotent."""
        if self._sets is not None:
            self._sets = [[] for _ in range(self._num_sets)]

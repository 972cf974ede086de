"""Bonsai Merkle Tree over counter blocks.

Nodes are labeled breadth-first with the root at 0, so parent and
ancestor arithmetic is pure integer math: parent(n) = (n - 1) // arity.
Leaves hash counter blocks; interior nodes hash their children's tags.
Only the root lives in the persist domain (the ``root_register``);
interior nodes are volatile and rebuilt from counters at recovery.

The tree is stored sparsely: an absent node has the well-defined value of
an all-zero-counter subtree, so incremental updates over a huge address
space stay cheap and still agree with full recomputation.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count, repeat
from operator import add, floordiv, lshift, or_, sub
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .crypto import KeySet, hash_node, node_hasher
from .model_core import SplitCounter


@dataclass(frozen=True)
class BmtGeometry:
    """Tree shape: arity and level count (root = level 1, leaves = level `levels`)."""

    arity: int = 8
    levels: int = 9

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise ValueError("arity must be >= 2")
        if self.levels < 2:
            raise ValueError("levels must be >= 2")

    @cached_property
    def leaf_count(self) -> int:
        return self.arity ** (self.levels - 1)

    @cached_property
    def first_leaf(self) -> int:
        return (self.arity ** (self.levels - 1) - 1) // (self.arity - 1)

    @cached_property
    def node_count(self) -> int:
        return (self.arity ** self.levels - 1) // (self.arity - 1)

    def parent(self, label: int) -> int:
        if label <= 0:
            raise ValueError("root has no parent")
        return (label - 1) // self.arity

    def children(self, label: int) -> range:
        return range(self.arity * label + 1, self.arity * label + self.arity + 1)

    @cached_property
    def _level_starts(self) -> tuple:
        """First label of each level, root level first."""
        return tuple((self.arity ** i - 1) // (self.arity - 1) for i in range(self.levels))

    def level_of(self, label: int) -> int:
        if label < 0 or label >= self.node_count:
            raise ValueError(f"label out of range: {label}")
        return bisect_right(self._level_starts, label)

    def is_leaf(self, label: int) -> bool:
        return self.first_leaf <= label < self.first_leaf + self.leaf_count

    def leaf_for_page(self, page: int) -> int:
        if not 0 <= page < self.leaf_count:
            raise ValueError(f"page {page} outside protected capacity ({self.leaf_count} pages)")
        return self.first_leaf + page

    def update_path(self, leaf_label: int) -> list:
        """Labels from the leaf to the root, inclusive; length == levels."""
        if not self.is_leaf(leaf_label):
            raise ValueError(f"label {leaf_label} is not a leaf")
        path = [leaf_label]
        node = leaf_label
        while node > 0:
            node = (node - 1) // self.arity
            path.append(node)
        return path

    def path_node(self, page: int, level: int) -> int:
        """Label at ``level`` on the update path of ``page``'s leaf, without
        walking the path: the node's index within its level is the page
        number divided by the leaves under each node of that level."""
        if not 1 <= level <= self.levels:
            raise ValueError(f"level out of range: {level}")
        return self._level_starts[level - 1] + page // self.arity ** (self.levels - level)

    def path_nodes(self, pages: Iterable[int], levels: Sequence[int]) -> Iterator[int]:
        """``path_node(page, level)`` of each page and its level in
        ``levels``, unchecked, computed a whole column at a time."""
        starts = (None, *self._level_starts)  # by level
        spans = tuple(self.arity ** (self.levels - level) for level in range(self.levels + 1))
        return map(add, map(starts.__getitem__, levels), map(floordiv, pages, map(spans.__getitem__, levels)))

    def merge_level(self, path_a: list, path_b: list) -> int:
        """Level of the deepest node two update paths (leaf first) share."""
        idx = 0
        while path_a[idx] != path_b[idx]:  # both end at the root
            idx += 1
        return self.levels - idx


_ZERO_COUNTER_BLOCK = SplitCounter().to_block_bytes()


@lru_cache(maxsize=64)
def _default_digests(geometry: BmtGeometry, enc: bytes, mac: bytes) -> tuple:
    """Value of an untouched node at each level (index 0 unused), computed
    once per tree shape and key pair: every ``BmtState`` of a run, and every
    tree a crash sweep rebuilds, starts from the same defaults."""
    keys = KeySet(enc, mac)
    pack = struct.Struct(f"<{geometry.arity}Q").pack
    # leaves first; a loop, not recursion, so any depth works
    value = hash_node(_ZERO_COUNTER_BLOCK, keys)
    defaults = [value]
    for _ in range(geometry.levels - 1):
        value = hash_node(pack(*[value] * geometry.arity), keys)
        defaults.append(value)
    return (None, *reversed(defaults))


class BmtState:
    """Sparse node values plus the always-persistent root register."""

    def __init__(self, geometry: BmtGeometry, keys: KeySet, digest: Optional[Callable[[bytes], int]] = None) -> None:
        self.geometry = geometry
        self._levels, self._arity = geometry.levels, geometry.arity
        self.values: dict = {}
        # one little-endian 8-byte tag (crypto.TAG_BYTES) per child
        self._pack_tags = struct.Struct(f"<{geometry.arity}Q").pack
        self._hasher = node_hasher(keys)  # copied per node: keyed once per tree
        self._digest = digest  # payload -> value in place of hashing; recovery passes a memo
        self._defaults = _default_digests(geometry, keys.enc, keys.mac)  # by level, root first
        self.root_register = self._defaults[1]

    def default_value(self, level: int) -> int:
        """Value of any untouched node at `level` (all-zero-counter subtree)."""
        return self._defaults[level]

    def node_value(self, label: int) -> int:
        stored = self.values.get(label)
        if stored is not None:
            return stored
        return self.default_value(self.geometry.level_of(label))

    def compute_node(self, label: int, level: int, leaf_block: Optional[bytes] = None) -> int:
        """Recompute the value of node ``label`` at ``level`` from its current
        children, or a leaf's from ``leaf_block``, its counter block in
        ``SplitCounter.to_block_bytes`` layout, which the caller passes for
        every leaf.  The digest is ``hash_node``'s.

        This is the tree's digest rule: recovery's rebuild and
        ``apply_node_update`` hash through it, and ``replay`` inlines it.
        Committing the value is separate (``commit_node``).
        """
        if level == self._levels:
            payload = leaf_block
        else:
            child = label * self._arity + 1  # the first of ``geometry.children(label)``
            tags = map(self.values.get, range(child, child + self._arity), repeat(self._defaults[level + 1]))
            payload = self._pack_tags(*tags)
        if self._digest is not None:
            return self._digest(payload)
        digest = self._hasher.copy()
        digest.update(payload)
        return int.from_bytes(digest.digest(), "little")

    def commit_node(self, label: int, value: int) -> None:
        self.values[label] = value

    def replay(self, labels: Sequence[int], levels: Sequence[int], leaf_block: Callable[[int], bytes],
               before: Sequence[int]) -> array:
        """Replay node updates listed in commit order; returns the values the
        root took, in commit order.

        Update ``u`` computes node ``labels[u]`` at ``levels[u]`` as
        ``compute_node`` does, from ``leaf_block(u)`` for a leaf, and
        otherwise from the children that the first ``before[u]`` updates
        left, ``before[u] <= u``; then every update commits, in order, as
        ``commit_node`` does.  So the reads are taken in order of ``before``
        (``_read_order``), each after the commits it follows.  The digest is
        inlined, not called through ``compute_node``: the call costs about
        a tenth of the pass.
        """
        values, get, arity, leaf_level = self.values, self.values.get, self._arity, self._levels
        copy, pack, defaults, from_bytes = self._hasher.copy, self._pack_tags, self._defaults, int.from_bytes
        held = [None] * len(labels)  # each update's value, from its read to its commit
        roots, applied = array("Q"), 0
        for reads in _read_order(before):
            for key in reads:
                first, u = key >> 32, key & 0xFFFFFFFF
                while applied < first:
                    node, value, held[applied] = labels[applied], held[applied], None
                    values[node] = value
                    if not node:
                        roots.append(value)
                    applied += 1
                digest, level = copy(), levels[u]
                if level == leaf_level:
                    digest.update(leaf_block(u))
                else:
                    child = labels[u] * arity + 1
                    digest.update(pack(*map(get, range(child, child + arity), repeat(defaults[level + 1]))))
                held[u] = from_bytes(digest.digest(), "little")
        for u in range(applied, len(labels)):
            values[labels[u]] = held[u]
            if not labels[u]:
                roots.append(held[u])
        return roots

    def apply_node_update(self, label: int, counter_block: Optional[SplitCounter] = None) -> int:
        level = self.geometry.level_of(label)
        value = self.compute_node(label, level, counter_block and counter_block.to_block_bytes())
        self.commit_node(label, value)
        return value

    def root(self) -> int:
        return self.node_value(0)


def _read_order(before: Sequence[int], chunk: int = 1024):
    """``before[u] << 32 | u`` of each index ``u`` below ``2**32``, sorted,
    in lists of about ``chunk``.  No index is more than ``window`` past its
    ``before``, so once the scan is that far past a count, no later index
    can precede it: the keys are sorted a chunk at a time, and only those
    that a later index may still precede wait for the next.  The keys are
    ints, which the garbage collector does not track."""
    window = max(map(sub, count(), before), default=0)
    pending: list = []
    for start in range(0, len(before), chunk):
        end = min(start + chunk, len(before))
        pending += map(or_, map(lshift, before[start:end], repeat(32)), range(start, end))
        pending.sort()
        final = bisect_left(pending, end - window << 32) if end < len(before) else len(pending)
        yield pending[:final]
        del pending[:final]


@lru_cache(maxsize=1 << 15)  # one entry per distinct node payload, about 0.3 KB each
def recovery_digest(payload: bytes, enc: bytes, mac: bytes) -> int:
    """``hash_node`` memoized by its full input, the keys as raw bytes."""
    return hash_node(payload, KeySet(enc, mac))


def rebuild_from_counters(
    counters: Mapping[int, SplitCounter], geometry: BmtGeometry, keys: KeySet
) -> BmtState:
    """Reconstruct the volatile tree bottom-up from durable counter blocks.

    This is the recovery path: interior nodes are never persisted, so the
    post-crash verifier recomputes them from whatever counters survived and
    compares the resulting root against the root register.  ``compute_node``
    hashes every node through ``recovery_digest``, keyed by its payload bytes
    and keys, so successive crash points reuse the subtrees they share; the
    run's own node values, replayed once from its update log
    (``BmtState.replay``), are not memoized.
    """
    enc, mac = keys.enc, keys.mac
    state = BmtState(geometry, keys, lambda payload: recovery_digest(payload, enc, mac))
    values, compute, levels = state.values, state.compute_node, geometry.levels
    for page in counters:
        leaf = geometry.leaf_for_page(page)
        values[leaf] = compute(leaf, levels, counters[page].to_block_bytes())
    frontier = {geometry.parent(leaf) for leaf in values}
    for level in range(levels - 1, 0, -1):
        for label in frontier:  # a level's nodes depend only on the level below
            values[label] = compute(label, level)
        frontier = {geometry.parent(label) for label in frontier if label > 0}
    return state

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Mapping, Optional

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

    def __init__(self, geometry: BmtGeometry, keys: KeySet) -> None:
        self.geometry = geometry
        self.values: dict = {}
        # one little-endian 8-byte tag (crypto.TAG_BYTES) per child
        self._pack_tags = struct.Struct(f"<{geometry.arity}Q").pack
        self._hasher = node_hasher(keys)  # copied per node: keyed once per tree
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

        Reads happen here, at issue time; committing the value is separate
        so overlapped updates observe pre-update children.
        """
        digest = self._hasher.copy()
        if level == self.geometry.levels:
            digest.update(leaf_block)
        else:
            tags = map(self.values.get, self.geometry.children(label), repeat(self._defaults[level + 1]))
            digest.update(self._pack_tags(*tags))
        return int.from_bytes(digest.digest(), "little")

    def commit_node(self, label: int, value: int) -> None:
        self.values[label] = value

    def apply_node_update(self, label: int, counter_block: Optional[SplitCounter] = None) -> int:
        level = self.geometry.level_of(label)
        value = self.compute_node(label, level, counter_block and counter_block.to_block_bytes())
        self.commit_node(label, value)
        return value

    def root(self) -> int:
        return self.node_value(0)


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
    compares the resulting root against the root register.  Leaf and
    interior digests go through ``recovery_digest``, keyed by their payload
    bytes and keys, so successive crash points reuse the subtrees they share;
    the engine's ``compute_node`` path is not memoized.
    """
    state = BmtState(geometry, keys)
    values, enc, mac = state.values, keys.enc, keys.mac
    for page in counters:
        values[geometry.leaf_for_page(page)] = recovery_digest(counters[page].to_block_bytes(), enc, mac)
    frontier = {geometry.parent(leaf) for leaf in values}
    for level in range(geometry.levels - 1, 0, -1):
        default = state.default_value(level + 1)
        for label in frontier:  # a level's nodes depend only on the level below
            tags = map(values.get, geometry.children(label), repeat(default))
            values[label] = recovery_digest(state._pack_tags(*tags), enc, mac)
        frontier = {geometry.parent(label) for label in frontier if label > 0}
    return state

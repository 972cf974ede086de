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
from functools import cached_property, lru_cache, partial
from itertools import chain, count, islice, repeat, tee
from operator import add, and_, floordiv, lshift, mod, or_, rshift, sub
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .crypto import KeySet, hash_node, node_hasher
from .model_core import PAGE_SIZE, SplitCounter


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

    def leaf_for_page(self, page: int) -> int:
        if not 0 <= page < self.leaf_count:
            raise ValueError(f"page {page} outside protected capacity ({self.leaf_count} pages)")
        return self.first_leaf + page

    def update_path(self, leaf_label: int) -> list:
        """Labels from the leaf to the root, inclusive; length == levels."""
        if not self.first_leaf <= leaf_label < self.first_leaf + self.leaf_count:
            raise ValueError(f"label {leaf_label} is not a leaf")
        path, node = [leaf_label], leaf_label
        while node > 0:
            node = (node - 1) // self.arity
            path.append(node)
        return path

    def path_nodes(self, pages: Iterable[int], levels: Iterable[int]) -> Iterator[int]:
        """The label at each level of ``levels`` on the update path of the
        matching page's leaf, unchecked and without walking the path: the
        node's index within its level is the page number divided by the
        leaves under each node of that level."""
        starts = (None, *self._level_starts)  # by level
        spans = tuple(self.arity ** (self.levels - level) for level in range(self.levels + 1))
        levels, again = tee(levels)  # read in step, so the copy buffers one level
        return map(add, map(starts.__getitem__, levels), map(floordiv, pages, map(spans.__getitem__, again)))

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
    defaults = [hash_node(_ZERO_COUNTER_BLOCK, keys)]
    for _ in range(geometry.levels - 1):
        defaults.append(hash_node(pack(*[defaults[-1]] * geometry.arity), keys))
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
        return stored if stored is not None else self.default_value(self.geometry.level_of(label))

    def compute_node(self, label: int, level: int, leaf_block: Optional[bytes] = None) -> int:
        """Recompute the value of node ``label`` at ``level`` from its current
        children, or a leaf's from ``leaf_block``, its counter block in
        ``SplitCounter.to_block_bytes`` layout, which the caller passes for
        every leaf.  The digest is ``hash_node``'s.

        This is the tree's digest rule: recovery's rebuild hashes through
        it, and ``replay`` inlines it.  Committing the value is separate
        (``commit_node``).
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


# a record's key holds pid * levels + level - 1 below bit 48 and, above it, k.  A persist's own
# previous update may be among the k commits, and at a MAC latency of 0 a persist climbs several
# levels in one cycle, so the PTT capacity does not bound k: the int64 key refuses 2**15
_K_SHIFT = 48
_KEY_MASK = (1 << _K_SHIFT) - 1
_START_MASK = (1 << 32) - 1  # while every end is below 2**31, a record's cycles share an int64: end << 32 | start


class UpdateLog:
    """A run's node updates in commit order, one 16-byte record each, and
    the tree they leave, replayed from the records on first read.

    A record is a key that packs its persist, its level and ``k``, the
    commits of ``start`` before its issue, then the cycles it issued and
    committed, ``start`` and ``end``, in one int64 (each in its own once an
    end passes ``2**31 - 1``).  All share one array: two that grow in step
    leave a run's resident peak to where the allocator puts each.  Only
    ``append`` writes a record and only this class reads a key.  ``rows``
    decodes the records as the event log, and ``replay`` computes the
    values of the nodes they update.
    """

    def __init__(self, geometry: BmtGeometry, keys: KeySet, addrs: Sequence[int], epochs: Sequence[int],
                 counter_blocks: Callable[[int], Sequence[SplitCounter]]) -> None:
        self.geometry, self.keys, self._levels = geometry, keys, geometry.levels
        self._addrs, self._epochs = addrs, epochs  # each persist's block address and epoch
        self._counter_blocks = counter_blocks  # n -> the counter blocks of the first n persists
        self._records, self._stride = array("q"), 2  # each update's key and cycles, and the slots they take
        # a deep tree's labels pass int64, so it replays them from a list
        self._label_column = partial(array, "q") if geometry.node_count <= 1 << 63 else list
        self._replayed = (-1, None, None)  # the log length, the tree and the root values of the last replay

    def append(self, start: int, end: int, pid: int, level: int, k: int) -> None:
        """Log an update of persist ``pid`` at ``level``, issued at ``start``
        after ``k`` of that cycle's commits and committed at ``end``."""
        key = pid * self._levels + level - 1 | k << _K_SHIFT  # goes in first: an overflowing k logs nothing
        if end >> 31 and self._stride == 2:  # once per log: give each record's cycles their own slots
            self._records, self._stride = array("q", chain.from_iterable(zip(*map(self._column, range(3))))), 3
        self._records.extend((key, end << 32 | start) if self._stride == 2 else (key, start, end))

    def _column(self, slot: int) -> Iterator[int]:  # the keys (slot 0), start cycles (1) or end cycles (2)
        column = islice(self._records, min(slot, self._stride - 1), None, self._stride)
        if slot == 0 or self._stride == 3:
            return column
        return map(and_, column, repeat(_START_MASK)) if slot == 1 else map(rshift, column, repeat(32))

    def _decode(self) -> tuple:
        """The persist, level and node label of each record, as lazy columns
        that share one pass over the keys.  The node is the one at that level
        on the persist's update path, under coalescing too: a trailing persist
        carries the shared path above the merge point, which is its own."""
        levels = self._levels
        codes, again = tee(map(and_, self._column(0), repeat(_KEY_MASK)))
        pids, of_page = tee(map(floordiv, codes, repeat(levels)))
        pages = map(floordiv, map(self._addrs.__getitem__, of_page), repeat(PAGE_SIZE))
        level_column, of_label = tee(map(add, map(mod, again, repeat(levels)), repeat(1)))
        return pids, level_column, self.geometry.path_nodes(pages, of_label)

    def rows(self) -> Iterator[tuple]:
        """Each update as ``(start, end, pid, epoch, label, level)``, in
        commit order, decoded as it is read."""
        pids, levels, labels = self._decode()
        pids, owners = tee(pids)
        return zip(self._column(1), self._column(2), pids, map(self._epochs.__getitem__, owners), labels, levels)

    def replay(self) -> tuple:
        """The tree as the logged updates left it (node ``values`` and the
        ``root_register``) and the value of each root update, in commit
        order, as hashing at issue and committing at completion would leave
        them: one pass (``BmtState.replay``), repeated from the first record
        once the log has grown.

        An update reads the tree as the commits before its issue left it:
        those that ended before its start cycle, ``bisect_left(ends,
        start)``, and the first ``k`` of its start cycle.  Counting takes a
        list of the commit cycles, dropped before the pass; the pass holds
        22 bytes per update: the count (below ``2**32``, as ``_read_order``
        needs), the node and its level in arrays, and a slot for its value
        from read to commit.
        """
        records, stride, levels = self._records, self._stride, self._levels
        if self._replayed[0] == len(records):
            return self._replayed[1:]
        blocks = self._counter_blocks(len(self._addrs))
        ends = list(self._column(2))  # a list bisects faster than an array
        before = array("I", map(add, map(partial(bisect_left, ends), self._column(1)),
                                map(rshift, self._column(0), repeat(_K_SHIFT))))
        del ends
        level_column, labels = self._decode()[1:]
        labels = self._label_column(labels)  # first, so only small level ints wait for level_column
        level_column = array("H", level_column)

        def leaf_block(u: int) -> bytes:  # its persist's counter block
            return blocks[(records[stride * u] & _KEY_MASK) // levels].to_block_bytes()

        tree = BmtState(self.geometry, self.keys)
        roots = tree.replay(labels, level_column, leaf_block, before)
        if roots:
            tree.root_register = roots[-1]
        self._replayed = (len(records), tree, roots)
        return tree, roots


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

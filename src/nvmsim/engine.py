"""Persist engine: write-pending queue, persist/epoch tracking tables and
the four BMT update schedulers.

Every persist waits in one queue, ``ptt_order`` (the persist tracking
table in submission order, persisted entries popped from its head).  Two
dispatch policies, one per persistency model, pick which queued persists
issue their next node update.  A policy runs on every kick, after every
node update and, under strict persistency (SP), when the tuple of a head
that waits at the root arrives:

* ``pipeline``    - SP, lockstep waves: when no update is in flight, the
  ready head of the unstarted persists joins and every started persist
  issues, so each sits on a distinct tree level and root updates retire
  at one per MAC latency.  Persists reach the root in the order they
  joined, so the started ones are always a prefix of ``ptt_order`` and
  the first unstarted entry is the next to join.
* ``sequential``  - the SP wave policy with waves of one: the first
  unstarted persist joins only an empty wave, so one persist owns the
  whole tree update path at a time.
* ``ooo``         - epoch persistency: persists of the same epoch climb
  independently, but a younger epoch's update issues only strictly deeper
  than every level an older live epoch holds (the level of an update in
  flight or, while a plan lasts, of the next to issue), which kills
  cross-epoch write-after-write hazards.  One pass over ``waiting``, the
  persists whose next update has not issued, in pid order, decides it:
  issuing leaves a persist on the level it held, so each epoch's ``older``
  bound holds for the pass; no level's last issue is after now, so a kick
  is due next cycle exactly when an eligible persist did not issue; and at
  most one update issues per level per cycle, in pid order, up to ``mac_units``.
* ``coalesce``    - the ooo policy plus paired update coalescing at
  submission: a new persist adopts its predecessor's remaining path at
  their least common ancestor, found on the two update paths the entries
  hold; the leading persist stops below the merge point and the trailing
  one carries the update from there to the root.  The trailer's update at
  the merge level waits until the leader's plan below it has committed,
  which the leader's ``next_idx`` and ``inflight`` show.

Under SP a persist's root update issues only once its tuple has arrived:
the wave, of one persist or many, waits for it while its first member is
at the root.  So a root effect never covers a counter block that is not
yet durable, and an SP persist completes, and may drain, at its root
effect.

Node updates read their inputs at issue time and commit the new value at
completion.  That matches a hardware dataflow pipeline and is what keeps
strict-persistency roots exactly equal to persist-order prefixes even
while younger persists overwrite shared state underneath.  No scheduling
decision reads a node value, so the engine computes none: each update's
log record keeps where its reads fall in the commit order, and the value
plane replays every value from the log when one is first read.

Under epoch persistency the epoch tracking table (ETT), ``ett``, holds an
``EttEntry`` per live epoch with members, oldest first; an epoch's stores
are consecutive persists, so its members are ``range(first_pid, end_pid)``.
Only ``ett[0]`` can unlock, drain or complete: it is unlocked once
``last_epoch_done``, the completion cycle of its predecessor, is before now,
and it completes, no earlier than that, when a fence or the end of the trace
has closed its membership and the record shows every member's tuple
completed, which its cursor ``done_pid`` reads in pid order.  Epochs thus
complete in order at strictly increasing cycles; a completed epoch leaves the
table and only its cycle stays, in ``epoch_completion``.  Once the next
epoch starts, an epoch counts the deepest level its members hold and how
many hold it, and counts again when the last of them moves up; that sets
``older`` of the epochs after it.
A WPQ entry survives power loss from its ``durable_cycle``, when it may
drain: under SP once its tuple completed, under EP at the later of its
arrival and its epoch's unlock.

What a run keeps of each persist is one 64-byte row of columns: five
cycles in the ``PersistRecord``, and the address, epoch and payload seed in
the golden log; plus a 24-byte record per node update and 16 bytes per
root update.  No scheduling decision reads the tuple's data, so a run
computes none of it: a persist's plaintext, ciphertext, counter block and
MAC are sealed, in pid order and once, into plain lists when a crash or a
view first reads them
(``PersistRecord.seal``).  Nor does it compute a tree node's digest: the
first read of ``bmt``, ``root_history`` or ``root_values()`` replays the
whole tree from the update log (``_replay_values``), over the counter
blocks of that same fill.  Only the tracking tables hold objects, one
``PttEntry`` per persist still climbing the tree, so no per-persist
object outlives its persist, and ``trace`` lets each event go as it is
submitted.  ``wpq_entries``, ``root_history`` and ``golden.log`` read the
columns as read-only ``Rows`` of ``WpqEntry`` views, tuples and
``StoreRecord``s; crash folding and recovery checks read the columns
themselves.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import islice, repeat
from operator import add, and_, attrgetter, floordiv, itemgetter, mod, rshift
from typing import Optional

from .bmt import BmtGeometry, BmtState
from .caches import MetadataCache, cache_sets
# the engine encrypts nothing; hostbench/test_hostbench.py wraps and restores the name engine.encrypt
from .crypto import KeySet, encrypt, seal_block  # noqa: F401
from .model_core import BLOCK_SIZE, NEVER, PAGE_SIZE, BlockAddr, GoldenMemory, Rows, SplitCounter
from .timing import (
    ARRIVAL,
    DRAIN,
    FILL_DONE,
    KICK,
    MAC_DONE,
    SUBMIT,
    EventQueue,
    LatencyConfig,
)
from .trace import Fence, Store

SCHEMES = ("sequential", "pipeline", "ooo", "coalesce")
EPOCH_SCHEMES = ("ooo", "coalesce")

COMPONENTS = ("ciphertext", "counter", "mac")

_PID = attrgetter("pid")
# an update log key holds pid * levels + level - 1 below bit 48 (KEY_MASK) and, above it, k: how
# many commits of the update's start cycle came before its issue.  A persist's own previous update
# may be one of them, and at a MAC latency of 0 a persist climbs several levels in one cycle, so the
# PTT capacity does not bound k; the 15 bits that keep the key a positive int64 must
_K_SHIFT = 48
_K_LIMIT = 1 << 63 - _K_SHIFT
KEY_MASK = (1 << _K_SHIFT) - 1
_ZERO_COUNTER = SplitCounter()  # an untouched page's counter block


@dataclass(frozen=True)
class SimParams:
    """Flat bundle of every knob a single simulation needs."""

    scheme: str = "sequential"
    arity: int = 8
    levels: int = 9
    latency: LatencyConfig = LatencyConfig()
    wpq_capacity: int = 128
    ptt_capacity: int = 64
    ett_capacity: int = 2
    mac_units: int = 0  # 0 = one pipelined unit per tree level (ooo/coalesce)
    cache_kb: int = 128
    cache_assoc: int = 8
    ideal_caches: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if min(self.wpq_capacity, self.ptt_capacity, self.ett_capacity) < 1:
            raise ValueError("capacities must be >= 1")
        if self.mac_units < 0:
            raise ValueError("mac units must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in 0 .. 2**64-1")
        self.geometry()
        try:
            cache_sets(self.cache_kb * 1024, self.cache_assoc)
        except ValueError as exc:
            raise ValueError(f"cache_kb {self.cache_kb} with cache_assoc {self.cache_assoc}: {exc}") from None

    def geometry(self) -> BmtGeometry:
        return BmtGeometry(self.arity, self.levels)


class PersistRecord:
    """Every persist's history, one column per field, indexed by pid.

    ``submit`` holds the submission cycle.  The other cycle columns hold
    ``NEVER``, a cycle no cut reaches, until their event happens: the
    tuple's ``arrival`` in the WPQ (its three components are ready at one
    cycle and arrive together), its root effect (``root_done``),
    ``durable`` (queued to drain: it survives power loss from here on) and
    its drain.  A persist completes at the later of its arrival and its
    root effect (``completion``).  ``addr`` and ``epoch`` are the golden
    log's own columns.  The root history is three more columns, one row per
    root update in commit order; the run fills ``root_cycle`` and
    ``root_pid``, and ``Simulator._replay_values`` fills ``root_value``.

    The tuple's data is sealed on its first read, by ``seal``: a run keeps
    none of it, and no scheduling decision reads it.  ``ciphertext`` and
    ``counter_block`` are then lists of each sealed pid's ciphertext and
    the ``SplitCounter`` snapshot it carried, and ``mac`` holds the tags.
    """

    __slots__ = ("addr", "epoch", "submit", "arrival", "root_done", "durable", "drained",
                 "root_cycle", "root_pid", "root_value",
                 "plaintexts", "keys", "ciphertext", "counter_block", "mac", "_counters")

    def __init__(self, golden: GoldenMemory, keys: KeySet) -> None:
        self.addr, self.epoch = golden.addr, golden.epoch
        self.submit, self.arrival, self.root_done = array("q"), array("q"), array("q")
        self.durable, self.drained = array("q"), array("q")
        self.root_cycle, self.root_pid, self.root_value = array("q"), array("q"), array("Q")
        self.plaintexts, self.keys = golden.plaintexts, keys
        self.ciphertext, self.counter_block, self.mac = [], [], array("Q")
        self._counters: dict = {}  # page -> counter block after the last filled pid

    def append(self, submit: int) -> None:
        """A new persist, after the golden log took its address and epoch."""
        self.submit.append(submit)
        self.arrival.append(NEVER)
        self.root_done.append(NEVER)
        self.durable.append(NEVER)
        self.drained.append(NEVER)

    def completion(self, pid: int) -> int:
        """The cycle persist ``pid`` completed its whole tuple, or ``NEVER``."""
        return max(self.arrival[pid], self.root_done[pid])

    def fill_counters(self, n: int) -> None:
        """Fill ``counter_block`` for the first ``n`` pids, in pid order, each
        once: each page's counter block replays its bumps.  ``seal`` and the
        tree's value replay both read this one fill."""
        start, end = len(self.counter_block), min(n, len(self.submit))
        addrs, counters, blocks = self.addr, self._counters, self.counter_block
        for pid in range(start, end):
            page, offset = divmod(addrs[pid], PAGE_SIZE)
            counter = counters[page] = counters.get(page, _ZERO_COUNTER).bump(offset // BLOCK_SIZE)
            blocks.append(counter)

    def seal(self, n: int) -> None:
        """Fill ``ciphertext``, ``counter_block`` and ``mac`` for the first
        ``n`` pids, in pid order, each once, as the persists' own stores
        sealed them: the plaintext is encrypted and tagged under the counter
        its page's block reached (``fill_counters``)."""
        start, end = len(self.mac), min(n, len(self.submit))
        if start >= end:
            return
        self.fill_counters(end)
        addrs, keys, plain = self.addr, self.keys, self.plaintexts(end)
        blocks, ciphertexts, tags = self.counter_block, self.ciphertext, self.mac
        for pid in range(start, end):
            addr = addrs[pid]
            counter = blocks[pid].effective(addr % PAGE_SIZE // BLOCK_SIZE)
            ciphertext, tag = seal_block(plain[pid], addr, counter, keys)
            ciphertexts.append(ciphertext)
            tags.append(tag)

    def __len__(self) -> int:
        return len(self.submit)


def _cycle(column: str) -> property:
    """A cycle column of the record read as an attribute: None until it happens."""
    get = attrgetter(column)

    def read(view):
        cycle = get(view[0])[view[1]]
        return None if cycle == NEVER else cycle
    return property(read)


class WpqEntry(tuple):
    """One persist's row of the record, read-only: ``Simulator.wpq_entries``
    builds one on each read, with the attribute names of the write-pending
    queue slot that gathered the persist's memory tuple.  It is the pair
    ``(record, pid)``, so two views of one row are equal."""

    __slots__ = ()

    def __new__(cls, record: PersistRecord, pid: int) -> "WpqEntry":
        return tuple.__new__(cls, (record, pid))

    pid = property(itemgetter(1))
    submit_cycle = _cycle("submit")
    arrival_cycle = _cycle("arrival")
    root_done_cycle = _cycle("root_done")
    durable_cycle = _cycle("durable")
    drained_cycle = _cycle("drained")

    @property
    def complete_cycle(self) -> Optional[int]:
        cycle = self[0].completion(self[1])
        return None if cycle == NEVER else cycle

    @property
    def addr(self) -> BlockAddr:
        return BlockAddr(self[0].addr[self[1]])

    @property
    def epoch(self) -> int:
        return self[0].epoch[self[1]]

    def _sealed(self) -> PersistRecord:
        record, pid = self
        record.seal(pid + 1)
        return record

    @property
    def ciphertext(self) -> bytes:
        return self._sealed().ciphertext[self[1]]

    @property
    def counter_block(self) -> SplitCounter:
        return self._sealed().counter_block[self[1]]

    @property
    def mac(self) -> int:
        return self._sealed().mac[self[1]]

    @property
    def arrivals(self) -> dict:
        """Arrival cycle of each component."""
        arrival = self.arrival_cycle
        return {} if arrival is None else dict.fromkeys(COMPONENTS, arrival)

    def __repr__(self) -> str:
        return f"WpqEntry(pid={self[1]})"


class PttEntry:
    """Persist tracking table entry: one persist's walk up the tree."""

    __slots__ = (
        "pid",
        "epoch",
        "path",
        "ready_cycle",
        "next_idx",
        "inflight",
        "gate_count",
        "obligations",
        "ett",
        "__weakref__",
    )

    def __init__(self, pid, epoch, path, ready_cycle):
        self.pid = pid
        self.epoch = epoch
        self.path = path  # update path, leaf first: one node per level
        self.ready_cycle = ready_cycle
        self.next_idx = 0  # next path index to issue; issued count == next_idx
        self.inflight = False
        self.gate_count = len(path)  # plan nodes below the merge point (< len(path) once it leads a pair)
        # its plan is path[:gate_count or 1]: a leader that merges at its own leaf keeps the leaf
        self.obligations = []  # [(level, leader)] merge points inherited from leaders
        self.ett = None  # its epoch's EttEntry (ooo/coalesce)

    @property
    def below_done(self) -> bool:
        """Every update of its plan below the merge point has committed: the
        plan issues in path order, so ``next_idx - inflight`` have."""
        return self.next_idx - self.inflight >= self.gate_count


class EttEntry:
    """One live epoch with members: its persists ``range(first_pid, end_pid)``.
    It leaves ``Simulator.ett`` when it completes."""

    __slots__ = ("epoch", "first_pid", "end_pid", "done_pid", "deepest", "at_deepest", "older", "__weakref__")

    def __init__(self, epoch, first_pid):
        self.epoch = epoch
        self.first_pid = first_pid
        self.end_pid = self.done_pid = first_pid  # every member before done_pid has completed
        # deepest level its members hold (0: none), how many hold it, and older live epochs' deepest
        self.deepest = self.at_deepest = self.older = 0


class Simulator:
    """Single-threaded, deterministic event-driven persist-path model."""

    def __init__(self, params: SimParams, trace_events) -> None:
        self.params = params
        self.scheme = params.scheme
        self.is_ep = params.scheme in EPOCH_SCHEMES
        self.geometry = params.geometry()
        self.latency = params.latency
        self.keys = KeySet.from_seed(params.seed)

        self.clock = 0
        self.events = EventQueue()
        self.golden = GoldenMemory()
        self.counters: dict = {}
        self._bmt, self._replayed = None, -1  # the replayed tree, and the log length it covers

        kb = params.cache_kb * 1024
        self.counter_cache = MetadataCache(kb, params.cache_assoc, params.ideal_caches)
        self.mac_cache = MetadataCache(kb, params.cache_assoc, params.ideal_caches)
        self.bmt_cache = MetadataCache(kb, params.cache_assoc, params.ideal_caches)

        self.trace = list(trace_events)  # events not submitted yet, the next last
        self.trace.reverse()
        self.current_epoch = 0  # global epoch counter
        self.page_ready: dict = {}

        self.record = PersistRecord(self.golden, self.keys)
        # read-only views of the record: those not drained yet occupy the WPQ
        self.wpq_entries = Rows(self.record.__len__, partial(WpqEntry, self.record))
        self.ptt_order: deque = deque()
        self.ett: list = []  # EttEntry per live epoch with members, oldest first
        self.epoch_completion: dict = {}  # epoch -> completion cycle
        self.last_epoch_done = -1  # completion cycle of the last completed epoch

        # (start, end, pid * levels + level - 1 | k << _K_SHIFT) per node update, in commit order,
        # where k counts the commits of cycle `start` before the update issued
        self._updates = array("q")

        # scheduler state; the policy is a plain function, called as
        # self._dispatch(self, now), so no bound method refers back to self
        self._dispatch = Simulator._ooo_kick if self.is_ep else Simulator._sp_dispatch
        self.inflight_updates = 0
        self.node_commit_horizon: dict = {}  # label -> its last commit, while an update of it is in flight
        self._commit_cycle, self._commits_now = -1, 0  # the last cycle with a commit, and its commits so far
        self._committed_now: set = set()  # nodes committed in that cycle with no later update in flight
        self.waiting: list = []  # entries waiting to issue their next update, in pid order (ooo/coalesce)
        # the ooo policy's issue counts: per level its last issue cycle, and the issues of the last cycle with one
        self.level_last_issue: dict = {}
        self._issue_cycle, self._issues_this_cycle = -1, 0

        self.drain_eligible: list = []  # heap of pids (drain in persist order)
        self.next_drain_free = 0
        self.drain_scheduled = False

        self._kick_cycles: set = set()
        self._submit_waiting = False
        self._stall_start = None  # (cycle, causes)

        self.stats = {  # stats_dict() reads the persist counts off the record, bmt_fills off the BMT cache
            "node_updates": 0,
            "coalesce_pairs": 0,
            "counter_overflows": 0,
            "drains": 0,
            "stall_cycles": {"wpq_full": 0, "ptt_full": 0, "ett_full": 0},
        }

        self.events.push(0, SUBMIT, self._ev_submit)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def _ev_submit(self, _payload) -> None:
        now = self.clock
        trace = self.trace
        while trace and isinstance(trace[-1], Fence):
            trace.pop()
            self.epoch_boundary(now)
        if not trace:
            self.epoch_boundary(now)  # the end of the trace closes the last epoch
            return
        store = trace[-1]
        epoch = self.current_epoch

        causes = []
        if len(self.record.submit) - self.stats["drains"] >= self.params.wpq_capacity:
            causes.append("wpq_full")
        if len(self.ptt_order) >= self.params.ptt_capacity:
            causes.append("ptt_full")
        if self.is_ep and len(self.ett) >= self.params.ett_capacity and self.ett[-1].epoch != epoch:
            causes.append("ett_full")
        if causes:
            if self._stall_start is None:
                self._stall_start = (now, causes)
            self._submit_waiting = True
            return

        if self._stall_start is not None:
            start, stalled_causes = self._stall_start
            for cause in stalled_causes:
                self.stats["stall_cycles"][cause] += now - start
            self._stall_start = None

        trace.pop()
        self._submit_store(store, epoch, now)
        self.events.push(now + 1, SUBMIT, self._ev_submit)

    def epoch_boundary(self, now: int) -> None:
        """Persist fence: subsequent stores belong to the next epoch."""
        closed = self.current_epoch
        self.current_epoch += 1
        if self.ett and self.ett[0].epoch == closed:
            self._epoch_maybe_complete(now)

    def _submit_store(self, store: Store, epoch: int, now: int) -> None:
        addr = store.addr
        page = addr.page
        pid = self.golden.apply_store(addr, store.payload_seed, epoch)

        old_block = self.counters.get(page, _ZERO_COUNTER)
        new_block = old_block.bump(addr.block_in_page)
        if new_block.major != old_block.major:
            self.stats["counter_overflows"] += 1
        self.counters[page] = new_block
        self.record.append(now)

        # counter block access decides when the new counter (and thus the
        # leaf update and tuple components) is available; bumps to one page
        # chain on the same block, so readiness is non-decreasing per page
        hit = self.counter_cache.access(page)
        if hit:
            ready = now + self.latency.cache_hit
        else:
            ready = now + self.latency.cache_fill + self.latency.mac_latency
        ready = max(ready, self.page_ready.get(page, 0))
        self.page_ready[page] = ready
        self.mac_cache.access((addr.value // BLOCK_SIZE) // 8)

        self.events.push(ready + self.latency.wpq_enqueue, ARRIVAL, self._ev_arrival, pid)

        path = self.geometry.update_path(self.geometry.leaf_for_page(page))
        entry = PttEntry(pid, epoch, path, ready)
        self.ptt_order.append(entry)
        if self.is_ep:
            if not self.ett or self.ett[-1].epoch != epoch:
                self.ett.append(EttEntry(epoch, pid))
                if len(self.ett) > 1:
                    self._count_deepest(self.ett[-2])
            ett = entry.ett = self.ett[-1]
            ett.end_pid = pid + 1
            self.waiting.append(entry)

        if self.scheme == "coalesce" and len(self.ptt_order) > 1:
            # a predecessor that has left ptt_order has persisted, and a
            # persisted predecessor never pairs
            self.coalesce_pair(entry, self.ptt_order[-2])
        self._schedule_kick(ready)

    def _wake_submit(self, now: int) -> None:
        if self._submit_waiting:
            self._submit_waiting = False
            self.events.push(now, SUBMIT, self._ev_submit)

    # ------------------------------------------------------------------
    # coalescing
    # ------------------------------------------------------------------

    def coalesce_pair(self, new_entry: PttEntry, prev: PttEntry) -> None:
        """Pair a new persist with its predecessor at their LCA if legal.

        The predecessor becomes the leading persist: its plan stops below
        the merge level, the level of the LCA of the two held update paths
        (it always keeps at least its own leaf update, which has usually
        already issued), and the new, trailing persist carries the shared
        path from the LCA to the root.  The leader's ``gate_count`` is then
        the number of plan nodes below the merge level; the trailer's
        update at that level waits until ``below_done`` says they all
        committed, and its commit persists the leader.  It pairs unless
        ``prev.next_idx > (levels - lca_level or 1)``: issued past its new plan.
        That covers a persisted non-leader, whose ``next_idx == levels`` tops every bound.
        """
        if prev.epoch != new_entry.epoch:
            return
        levels = self.geometry.levels
        if prev.gate_count < levels:  # it leads a pair
            return
        lca_level = self.geometry.merge_level(prev.path, new_entry.path)
        if prev.next_idx > (levels - lca_level or 1):
            return

        prev.gate_count = levels - lca_level
        if not prev.inflight and prev.next_idx >= (prev.gate_count or 1):  # its plan ends where it waits
            self.waiting.remove(prev)

        new_entry.obligations.append((lca_level, prev))
        keep = []
        for ob_level, leader in prev.obligations:
            if ob_level <= lca_level:
                new_entry.obligations.append((ob_level, leader))
            else:
                keep.append((ob_level, leader))
        prev.obligations = keep
        self.stats["coalesce_pairs"] += 1

    # ------------------------------------------------------------------
    # node updates
    # ------------------------------------------------------------------

    def _issue_update(self, entry: PttEntry, now: int) -> None:
        idx = entry.next_idx
        label = entry.path[idx]
        level = self.geometry.levels - idx
        entry.next_idx = idx + 1
        entry.inflight = True
        self.inflight_updates += 1
        # the update reads the tree as the commits before it left it: those of
        # earlier cycles and the first `k` of this one (see _replay_values)
        k = self._commits_now if self._commit_cycle == now else 0
        assert k < _K_LIMIT, f"{k} commits in cycle {now} before an issue overflow the update log key"

        hit = self.bmt_cache.access(label)
        if hit:
            duration = self.latency.mac_latency
        else:
            # fetch, verify the fetched node (one MAC), then compute the update
            duration = self.latency.cache_fill + 2 * self.latency.mac_latency
        # overlapped updates of one node write back in issue order: a fast
        # later update must not overtake a slow earlier one with stale inputs
        last = now if self._commit_cycle == now and label in self._committed_now else -1
        commit = max(now + duration, self.node_commit_horizon.get(label, last) + 1)
        self.node_commit_horizon[label] = commit
        payload = (entry, label, level, k, now, commit)
        if hit:
            self.events.push(commit, MAC_DONE, self._ev_mac_done, payload)
        else:
            self.events.push(now + self.latency.cache_fill, FILL_DONE, self._ev_fill_done, payload)

    def _ev_fill_done(self, payload) -> None:
        self.events.push(payload[5], MAC_DONE, self._ev_mac_done, payload)

    def _ev_mac_done(self, payload) -> None:
        entry, label, level, k, start, _commit = payload
        now = self.clock
        if self._commit_cycle != now:
            self._commit_cycle, self._commits_now = now, 0
            self._committed_now.clear()
        self._commits_now += 1
        # with no later update of this node in flight, it can delay only a
        # commit that an update issued in this cycle makes in this cycle,
        # which takes a MAC latency of 0: _committed_now keeps those nodes
        if self.node_commit_horizon[label] == now:
            del self.node_commit_horizon[label]
            if not self.latency.mac_latency:
                self._committed_now.add(label)
        self.stats["node_updates"] += 1
        self._updates.extend((start, now, entry.pid * self.geometry.levels + level - 1 | k << _K_SHIFT))

        entry.inflight = False
        self.inflight_updates -= 1
        ett = entry.ett
        if ett is not None:
            # the entry leaves `level` for the next level of its plan, if any
            if entry.next_idx < (entry.gate_count or 1):
                insort(self.waiting, entry, key=_PID)
            if ett.deepest == level:
                ett.at_deepest -= 1
                if not ett.at_deepest:
                    self._count_deepest(ett)

        if label == 0:
            self.record.root_cycle.append(now)
            self.record.root_pid.append(entry.pid)
            self._mark_persisted(entry, now)

        # a trailing persist passing a merge point releases its leader
        if entry.obligations:
            remaining = []
            for ob_level, leader in entry.obligations:
                if ob_level == level:
                    self._mark_persisted(leader, now)
                else:
                    remaining.append((ob_level, leader))
            entry.obligations = remaining

        self._dispatch(self, now)

    def _mark_persisted(self, entry: PttEntry, now: int) -> None:
        # marked once: a leader stops below its merge point, in one obligation list
        self.record.root_done[entry.pid] = now
        self._dealloc_ptt(now)
        if self.is_ep:
            if entry.pid < self.ett[0].end_pid and self.record.arrival[entry.pid] != NEVER:
                self._epoch_maybe_complete(now)
        else:
            self._queue_drain(entry.pid, now)  # its root waited for its tuple, so it completed

    def _dealloc_ptt(self, now: int) -> None:
        freed = False
        root_done = self.record.root_done
        while self.ptt_order and root_done[self.ptt_order[0].pid] != NEVER:
            self.ptt_order.popleft()
            freed = True
        if freed:
            self._wake_submit(now)

    # ------------------------------------------------------------------
    # dispatch policies over ptt_order, one per persistency model
    # ------------------------------------------------------------------

    def _schedule_kick(self, cycle: int) -> None:
        cycle = max(cycle, self.clock)
        if cycle not in self._kick_cycles:
            self._kick_cycles.add(cycle)
            self.events.push(cycle, KICK, self._ev_kick)

    def _ev_kick(self, _payload) -> None:
        self._kick_cycles.discard(self.clock)
        self._dispatch(self, self.clock)

    # strict persistency: sequential and pipeline -----------------------

    def _waits_at_root(self, entry: PttEntry) -> bool:
        """Its next update is the root's and its tuple has not arrived: under
        SP a root effect lands no earlier than the tuple it covers."""
        return entry.next_idx == self.geometry.levels - 1 and self.record.arrival[entry.pid] == NEVER

    def _sp_dispatch(self, now: int) -> None:
        if self.inflight_updates or (self.ptt_order and self._waits_at_root(self.ptt_order[0])):
            return
        # the started persists are a prefix of ptt_order; the first
        # unstarted one joins the wave once it is ready, and under
        # sequential only an empty wave admits it
        wave = []
        for entry in self.ptt_order:
            if entry.next_idx == 0:
                if not wave or self.scheme == "pipeline":
                    if entry.ready_cycle <= now:
                        wave.append(entry)
                    else:
                        self._schedule_kick(entry.ready_cycle)
                break
            wave.append(entry)
        for entry in wave:
            self._issue_update(entry, now)

    # out-of-order / coalescing ----------------------------------------

    def _ooo_kick(self, now: int) -> None:
        waiting = self.waiting
        levels = self.geometry.levels
        units = self.params.mac_units
        last_issue = self.level_last_issue
        blocked = False  # an eligible entry does not issue in this cycle
        for entry in tuple(waiting):
            # Fact 1: issuing keeps an entry on the level it held, so no `older` moves in a dispatch
            level = levels - entry.next_idx
            if level <= entry.ett.older or entry.ready_cycle > now or (entry.obligations and any(
                    ob_level == level and not leader.below_done for ob_level, leader in entry.obligations)):
                continue
            # Fact 3: at most one update issues per level per cycle, in pid
            # order, and the MAC units cap how many issue in a cycle
            if last_issue.get(level) == now or (
                    units and self._issue_cycle == now and self._issues_this_cycle >= units):
                blocked = True
                continue
            waiting.remove(entry)
            last_issue[level] = now
            if self._issue_cycle != now:
                self._issue_cycle, self._issues_this_cycle = now, 0
            self._issues_this_cycle += 1
            self._issue_update(entry, now)
        # Fact 2: no level's last issue is after now, so an eligible entry
        # that did not issue may issue from now + 1
        if blocked:
            self._schedule_kick(now + 1)

    def _count_deepest(self, ett: EttEntry) -> None:
        """Count ``ett``'s deepest held level over its queued members; pass it on to later epochs."""
        order = self.ptt_order
        head = order[0].pid if order else ett.end_pid
        levels = self.geometry.levels
        held = []
        for entry in islice(order, max(ett.first_pid - head, 0), max(ett.end_pid - head, 0)):
            idx = entry.next_idx - 1 if entry.inflight else entry.next_idx
            if idx < (entry.gate_count or 1):
                held.append(levels - idx)
        ett.deepest = max(held, default=0)
        ett.at_deepest = held.count(ett.deepest)
        live = self.ett
        for i in range(live.index(ett) + 1, len(live)):
            live[i].older = max(live[i - 1].older, live[i - 1].deepest)

    # ------------------------------------------------------------------
    # WPQ lifecycle
    # ------------------------------------------------------------------

    def _ev_arrival(self, pid) -> None:
        now, record = self.clock, self.record
        record.arrival[pid] = now
        if self.is_ep:
            if pid < self.ett[0].end_pid and record.root_done[pid] != NEVER:  # a member of ett[0] completed
                self._epoch_maybe_complete(now)
            ett = self._unlocked(now)  # an entry of the unlocked epoch drains as it arrives
            if ett is not None and ett.epoch == record.epoch[pid]:
                self._queue_drain(pid, now)
        elif self.ptt_order:
            head = self.ptt_order[0]
            if head.pid == pid and head.next_idx == self.geometry.levels - 1 and not head.inflight:
                self._dispatch(self, now)  # the head waited at the root for this tuple

    def _unlocked(self, now: int) -> Optional[EttEntry]:
        """The live epoch whose WPQ entries may drain at ``now``, if any: the
        oldest, from the cycle after its predecessor completed."""
        return self.ett[0] if self.ett and self.last_epoch_done < now else None

    def _epoch_maybe_complete(self, now: int) -> None:
        """Complete the oldest live epoch if it is unlocked, its membership is
        closed and every member's tuple completed.  Called when one of these
        changes for that epoch, not for a younger one: a younger epoch whose
        tuples all arrived early waits for every older boundary, and for its
        own unlock, when the unlock sweep completes it."""
        ett = self._unlocked(now)
        if ett is None or ett.epoch >= self.current_epoch:
            return
        arrival, root_done = self.record.arrival, self.record.root_done
        pid, end = ett.done_pid, ett.end_pid
        while pid < end and arrival[pid] != NEVER and root_done[pid] != NEVER:
            pid += 1
        ett.done_pid = pid
        if pid < end:
            return
        del self.ett[0]
        self.epoch_completion[ett.epoch] = self.last_epoch_done = now
        self._wake_submit(now)
        self._drain_arrived(ett, now)
        # the waiting persists dispatch at now + 1 before that cycle's unlock sweep,
        # whose drains or completion may admit a store that takes a MAC unit first
        self._schedule_kick(now + 1)
        self.events.push(now + 1, KICK, self._ev_unlock_sweep)

    def _ev_unlock_sweep(self, _payload) -> None:
        # the oldest live epoch unlocks now: its arrived entries drain, and it
        # may have been waiting only on its unlock to complete
        ett = self._unlocked(self.clock)
        if ett is not None:
            self._drain_arrived(ett, self.clock)
            self._epoch_maybe_complete(self.clock)

    @property
    def epoch_members(self) -> dict:
        """Persist ids of every epoch with members (read-only view)."""
        if not self.is_ep:
            return {}
        epochs = self.record.epoch
        return {e: range(bisect_left(epochs, e), bisect_right(epochs, e)) for e in dict.fromkeys(epochs)}

    def unlock_cycle(self, epoch: int) -> Optional[int]:
        """Cycle from which this epoch's WPQ entries stop being invalidatable.

        The oldest epoch is unlocked from the start; epoch e unlocks one
        cycle after the last older epoch completed.  None while still locked.
        Because epochs complete in order at increasing cycles, that is the
        completion cycle of the nearest older epoch with members, plus 1.
        Under SP no epoch locks, so it is 0.
        """
        epochs = self.record.epoch
        pid = bisect_left(epochs, epoch) if self.is_ep else 0
        if pid == 0:
            return 0
        done = self.epoch_completion.get(epochs[pid - 1])
        return None if done is None else done + 1

    # drains -------------------------------------------------------------

    def _drain_arrived(self, ett: EttEntry, now: int) -> None:
        """Queue every arrived member of an unlocked epoch to drain, in pid order."""
        durable, arrival = self.record.durable, self.record.arrival
        for pid in range(ett.first_pid, ett.end_pid):
            if durable[pid] == NEVER and arrival[pid] != NEVER:
                self._queue_drain(pid, now)

    def _queue_drain(self, pid: int, now: int) -> None:
        self.record.durable[pid] = now
        heappush(self.drain_eligible, pid)
        self._schedule_drain(now)

    def _schedule_drain(self, now: int) -> None:
        if self.drain_scheduled or not self.drain_eligible:
            return
        self.drain_scheduled = True
        self.events.push(max(now, self.next_drain_free), DRAIN, self._ev_drain)

    def _ev_drain(self, _payload) -> None:
        now = self.clock
        self.drain_scheduled = False  # _schedule_drain pushes one drain at a time, onto a non-empty heap
        self.record.drained[heappop(self.drain_eligible)] = now
        self.stats["drains"] += 1
        self.next_drain_free = now + self.latency.drain_interval
        self._wake_submit(now)
        self._schedule_drain(now)

    # ------------------------------------------------------------------
    # the value plane: node values replayed from the update log
    # ------------------------------------------------------------------

    @property
    def bmt(self) -> BmtState:
        """The tree as the run's committed updates left it: node ``values``
        and the ``root_register``, replayed from the update log on first read."""
        self._replay_values()
        return self._bmt

    def root_values(self) -> array:
        """The record's ``root_value`` column, one value per root update in
        commit order, replayed from the update log on first read."""
        self._replay_values()
        return self.record.root_value

    @property
    def root_history(self) -> Rows:
        """Each root update as a read-only ``(cycle, pid, value)`` row, in
        commit order; a run keeps no reference to the view it returns."""
        return Rows(self.record.root_cycle.__len__, self._root_row)

    def _root_row(self, i: int) -> tuple:
        record = self.record
        return (record.root_cycle[i], record.root_pid[i], self.root_values()[i])

    def _replay_values(self) -> None:
        """Compute every committed update's value, as hashing at issue and
        committing at completion would, in one pass over the log.

        An update reads the tree as the commits before its issue left it:
        those that ended before its start cycle, ``bisect_left(ends, start)``,
        and the first ``k`` of its start cycle, which its key carries.  So
        the pass (``BmtState.replay``) takes the reads in order of that
        count, applying each commit, in log order, before the first read
        that follows it.  Counting takes a list of the commit cycles,
        dropped before the pass; the pass holds 26 bytes per update: the
        count, the node and its level in arrays, and a slot for its value
        from read to commit.  A run that went on since the last replay is
        replayed from its first commit.
        """
        log = self._updates
        if self._replayed == len(log):
            return
        record, levels = self.record, self.geometry.levels
        record.fill_counters(len(record))
        blocks, ends = record.counter_block, log[1::3].tolist()  # a list bisects faster than an array
        before = array("q", map(add, map(partial(bisect_left, ends), islice(log, 0, None, 3)),
                                map(rshift, islice(log, 2, None, 3), repeat(_K_SHIFT))))
        del ends
        # each update's node, decoded as iter_update_log does, a column at a time
        codes = array("q", map(and_, islice(log, 2, None, 3), repeat(KEY_MASK)))  # pid * levels + level - 1
        level_of = array("H", map(add, map(mod, codes, repeat(levels)), repeat(1)))
        pages = map(floordiv, map(record.addr.__getitem__, map(floordiv, codes, repeat(levels))), repeat(PAGE_SIZE))
        labels = array("q", self.geometry.path_nodes(pages, level_of))
        del codes, pages

        def leaf_block(u: int) -> bytes:
            return blocks[(log[3 * u + 2] & KEY_MASK) // levels].to_block_bytes()

        state = BmtState(self.geometry, self.keys)
        record.root_value = roots = state.replay(labels, level_of, leaf_block, before)
        if roots:
            state.root_register = roots[-1]
        self._bmt, self._replayed = state, len(log)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def iter_update_log(self):
        """Each node update as ``(start, end, pid, epoch, label, level)``,
        in completion order.

        The run keeps one 24-byte record ``(start, end, key)`` per update,
        whose key's low bits (``KEY_MASK``) are ``pid * levels + level - 1``;
        the epoch comes from the persist record and the label is the node at
        ``level`` on the persist's own update path, which is the node it
        updated, under coalescing too (a trailing persist carries the shared
        path above the merge point, which is its own path).
        """
        addrs, epochs = self.record.addr, self.record.epoch
        node_at = self.geometry.path_node
        levels = self.geometry.levels
        fields = iter(self._updates)
        for start, end, key in zip(fields, fields, fields):
            pid, level = divmod(key & KEY_MASK, levels)
            yield (start, end, pid, epochs[pid], node_at(addrs[pid] // PAGE_SIZE, level + 1), level + 1)

    @property
    def update_log(self) -> tuple:
        """Every node update as ``(start, end, pid, epoch, label, level)``,
        built from the run's 24-byte records (``iter_update_log``) on each
        read.  The run keeps none of it: the tuple and its ints take about 200
        bytes per update, eight times the record."""
        return tuple(self.iter_update_log())

    def completion_cycle(self, pid: int) -> Optional[int]:
        cycle = self.record.completion(pid)
        return None if cycle == NEVER else cycle

    def outstanding_persists(self) -> list:
        arrival, root_done = self.record.arrival, self.record.root_done
        if NEVER not in arrival and NEVER not in root_done:  # two C-level scans
            return []
        return [pid for pid, cycle in enumerate(map(max, arrival, root_done)) if cycle == NEVER]

    def pending_trace_events(self) -> int:
        return len(self.trace)

    def dump_tables(self) -> str:
        """The tracking tables, one line per entry, for a deadlock report."""
        return "\n".join(
            [f"ptt pid {e.pid} epoch {e.epoch} next_idx {e.next_idx} inflight {e.inflight} ready_cycle "
             f"{e.ready_cycle} obligation levels {[lv for lv, _ in e.obligations]}" for e in self.ptt_order]
            + [f"ett epoch {t.epoch} pids {t.first_pid}..{t.end_pid - 1} done_pid {t.done_pid} deepest "
               f"{t.deepest} held by {t.at_deepest} older {t.older}" for t in self.ett]
            + [f"waiting pids {[e.pid for e in self.waiting]}", f"wpq {len(self.record) - self.stats['drains']} of "
               f"{self.params.wpq_capacity} occupied, {len(self.drain_eligible)} in the drain heap"])

    @property
    def submit_overhead_cycles(self) -> int:
        """Constant per-persist cost before the leaf update can start
        (counter-cache hit), reported so closed-form checks can subtract it."""
        return self.latency.cache_hit

    def last_completion_cycle(self) -> int:
        return max(filter(NEVER.__ne__, map(max, self.record.arrival, self.record.root_done)), default=0)

    def stats_dict(self) -> dict:
        record = self.record
        out = dict(self.stats, persists_submitted=len(record), root_updates=len(record.root_cycle),
                   persists_completed=len(record) - len(self.outstanding_persists()),
                   bmt_fills=self.bmt_cache.stats.misses)
        out["stall_cycles"] = dict(self.stats["stall_cycles"])
        out["total_cycles"] = self.clock
        out["last_completion_cycle"] = self.last_completion_cycle()
        out["submit_overhead_cycles"] = self.submit_overhead_cycles
        out["scheme"] = self.scheme
        out["caches"] = {
            "counter": self.counter_cache.stats.as_dict(),
            "mac": self.mac_cache.stats.as_dict(),
            "bmt": self.bmt_cache.stats.as_dict(),
        }
        return out

"""Crash injection and recovery verification.

``crash`` cuts a finished simulation at a chosen point and reconstructs
exactly what the persist domain held: NVMM images folded from the
write-pending-queue entries the engine had let drain by then (by their
``durable_cycle``), plus the root register.  The run computed none of the
tuples' data: the first cut that reads a persist's blocks seals them, and
every persist before it, once per run (``PersistRecord.seal``).  The point
is a cycle, an epoch's completion or a persist's durable completion with one
tuple item dropped (modes ``at-cycle``, ``epoch-boundary``, ``tuple-omission``).
``recover`` then replays what a real controller could do after power loss
- rebuild the integrity tree from durable counters, check every MAC,
decrypt - and reports each block's failures (``wrong-plaintext``,
``mac-failure``, ``bmt-failure``) with the snapshot it judged; ``as_dict``
tags the snapshot's ``excluded_addrs`` ``incomplete-epoch``.
``check_prefix_consistency`` is the recovery observer: under strict
persistency the recovered state must equal some prefix of the persist-order
log; under epoch persistency it must match the last completed epoch boundary
outside the crashed epoch's footprint.  Durable state only grows as the cut
moves later, so recovery memoizes block openings and tree digests by their
full inputs in bounded LRU memos; every check still runs at every point.
The root register at a cut comes from the run's root values, which the
first cut replays from the run's update log (``UpdateLog.replay``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import floordiv
from typing import Optional

from .bmt import BmtGeometry, rebuild_from_counters
from .crypto import KeySet, open_block
from .model_core import BLOCK_SIZE, BLOCKS_PER_PAGE, NEVER, PAGE_SIZE, GoldenMemory

CRASH_MODES = ("at-cycle", "epoch-boundary", "tuple-omission")
TUPLE_COMPONENTS = ("ciphertext", "counter", "mac", "root")
# a block's verdict, indexed by its failures as bits in this order
_VERDICTS = tuple(frozenset(name for bit, name in enumerate(("wrong-plaintext", "mac-failure", "bmt-failure"))
                            if i >> bit & 1) for i in range(8))
_ZERO_BLOCK = bytes(BLOCK_SIZE)


@lru_cache(maxsize=1 << 14)  # one entry per distinct durable block image, about 0.4 KB each
def open_durable(ciphertext: bytes, addr: int, counter: tuple, enc: bytes, mac: bytes) -> tuple:
    """``open_block`` memoized by its full input, the keys as raw bytes."""
    return open_block(ciphertext, addr, counter, KeySet(enc, mac))


@dataclass(frozen=True)
class CrashPlan:
    """One injection: a crash point, or a crash plus one dropped tuple item.

    A tuple-omission plan takes no ``cycle``: it cuts at the later of its
    persist's completion and durable cycle, once its tuple is durable."""

    mode: str
    cycle: Optional[int] = None
    persist_id: Optional[int] = None
    epoch: Optional[int] = None
    component: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in CRASH_MODES:
            raise ValueError(f"unknown crash mode {self.mode!r}")
        if self.mode == "at-cycle" and self.cycle is None:
            raise ValueError("at-cycle plan needs a cycle")
        if self.mode == "tuple-omission" and self.persist_id is None:
            raise ValueError("tuple-omission plan needs a persist id")
        if self.mode == "tuple-omission" and self.cycle is not None:
            raise ValueError("a tuple-omission plan cuts where its tuple is durable and takes no cycle")
        if self.mode == "epoch-boundary" and self.epoch is None:
            raise ValueError("epoch-boundary plan needs an epoch")
        if self.mode == "tuple-omission" and self.component not in TUPLE_COMPONENTS:
            raise ValueError(f"omission component must be one of {TUPLE_COMPONENTS}")


@dataclass
class DurableSnapshot:
    """Everything that survived the crash, and nothing that did not."""

    crash_cycle: int
    persistency: str  # "SP" | "EP"
    data: dict  # addr value -> ciphertext
    counters: dict  # page -> SplitCounter snapshot
    macs: dict  # addr value -> tag
    root_register: int
    expected_plain: dict  # addr with any durable per-block component -> plaintext it should decode to
    completed_epochs: set
    incomplete_epochs: set
    excluded_addrs: set


@dataclass
class RecoveryReport:
    """Recovery of one ``snapshot``, which the report holds for its cut,
    persistency and epochs.  Each durable block's failures:
    ``wrong-plaintext`` (not the write it claims to hold), ``mac-failure``
    (MAC missing or wrong), ``bmt-failure`` (the tree rebuilt from durable
    counters misses the root register); a block with none is recovered.
    ``as_dict`` adds ``incomplete-epoch`` to the snapshot's ``excluded_addrs``."""

    snapshot: DurableSnapshot
    bmt_ok: bool
    verdicts: dict  # addr -> frozenset of failure names
    plaintexts: dict  # addr -> decrypted bytes (all durable blocks)
    matched_prefix: Optional[int] = None

    def verdict_set(self, addr: int) -> frozenset:
        """The failures of the block at ``addr``, which must have a durable component at the cut."""
        try:
            return self.verdicts[addr]
        except KeyError:
            raise ValueError(f"block {addr:#x} has no durable component at the cut, "
                             f"cycle {self.snapshot.crash_cycle}") from None

    def as_dict(self) -> dict:
        return {
            "crash_cycle": self.snapshot.crash_cycle,
            "persistency": self.snapshot.persistency,
            "bmt_ok": self.bmt_ok,
            "matched_prefix": self.matched_prefix,
            "blocks": {
                f"0x{addr:x}": sorted(failures) + ["incomplete-epoch"] * (addr in self.snapshot.excluded_addrs)
                for addr, failures in sorted(self.verdicts.items())
            },
            "recovered_blocks": sum(not failures for failures in self.verdicts.values()),
            "completed_epochs": sorted(self.snapshot.completed_epochs),
            "incomplete_epochs": sorted(self.snapshot.incomplete_epochs),
        }


@dataclass
class Violation:
    block: Optional[int]
    invariant: str
    detail: str


@dataclass
class ConsistencyResult:
    ok: bool
    matched: Optional[int] = None
    violation: Optional[Violation] = None


def _resolve_cut(sim, plan: CrashPlan) -> int:
    if plan.mode == "at-cycle":
        return plan.cycle
    if plan.mode == "tuple-omission":
        if plan.persist_id is None or not 0 <= plan.persist_id < len(sim.record):
            raise ValueError(f"no such persist: {plan.persist_id}")
        cycle = max(sim.record.completion(plan.persist_id), sim.record.durable[plan.persist_id])
        if cycle == NEVER:
            raise ValueError(f"persist {plan.persist_id} never completed with its tuple durable")
        return cycle
    if plan.epoch not in sim.epoch_completion:
        raise ValueError(f"epoch {plan.epoch} never completed")
    return sim.epoch_completion[plan.epoch]


def _last_writes(keys: list, values: list, pids: list) -> dict:
    """``{keys[pid]: values[pid]}`` over ``pids`` in ascending order, so each
    key holds what the last of them writing it left."""
    return dict(zip(map(keys.__getitem__, pids), map(values.__getitem__, pids)))


def crash(sim, plan: CrashPlan) -> DurableSnapshot:
    """Cut the run at the plan's point and fold the durable state.

    The run is only read, never changed, and volatile state (metadata
    caches, tracking tables) is left out.  An entry survives if and only if
    its ``durable_cycle`` is not after the cut, so a cut is defined for the
    cycles the run has fully processed.  In tuple-omission mode the named
    component of the named persist is deleted after the cut.  The fold
    reads the run's persist record column by column: each block, page and
    register holds what its highest durable writer left.
    """
    cut = _resolve_cut(sim, plan)
    omitted, skip = (plan.persist_id, plan.component) if plan.mode == "tuple-omission" else (None, None)
    is_ep, record, golden = sim.is_ep, sim.record, sim.golden

    # the three components arrive together, so they are durable together;
    # a cycle column holds NEVER, which no cut reaches, until its event happens
    durable = [pid for pid, cycle in enumerate(record.durable) if cycle <= cut]
    end = durable[-1] + 1 if durable else 0
    addrs = record.addr[:end].tolist()
    # the omitted component keeps what the persist's earlier durable writers left
    kept = [pid for pid in durable if pid != omitted] if skip else durable

    record.seal(end)  # the tuples' data, sealed once per run by the first cut that reads it
    # touched even with one component omitted: its ciphertext or MAC is durable
    expected_plain = _last_writes(addrs, golden.plaintexts(end), durable)
    data = _last_writes(addrs, record.ciphertext, kept if skip == "ciphertext" else durable)
    macs = _last_writes(addrs, record.mac, kept if skip == "mac" else durable)
    counters = _last_writes(list(map(floordiv, addrs, repeat(PAGE_SIZE))), record.counter_block,
                            kept if skip == "counter" else durable)

    # root updates commit in cycle order: those by the cut are a prefix
    roots = bisect_right(record.root_cycle, cut)
    root_pids = record.root_pid[:roots]
    root_values = sim.root_values()  # replayed from the update log, once per run
    if skip == "root":
        kept = [i for i in range(roots) if root_pids[i] != omitted]
        root_register = root_values[kept[-1]] if kept else sim.bmt.default_value(1)
        root_pids = [root_pids[i] for i in kept]
    else:
        root_register = root_values[roots - 1] if roots else sim.bmt.default_value(1)

    completed_epochs: set = set()
    incomplete_epochs: set = set()
    excluded_addrs: set = set()
    if is_ep:
        epochs = record.epoch
        completed_epochs = {e for e, c in sim.epoch_completion.items() if c <= cut}
        # epochs with a durable tuple or a root effect by the cut: a root
        # effect from a still-running epoch marks it in flight even when
        # none of its tuple components became durable yet
        cut_epochs = set(map(epochs.__getitem__, durable)) | set(map(epochs.__getitem__, root_pids))
        incomplete_epochs = cut_epochs - completed_epochs
        tainted_pages = set()
        submit, addr_of = record.submit, record.addr
        for epoch in incomplete_epochs:  # an epoch's persists are consecutive
            for pid in range(bisect_left(epochs, epoch), bisect_right(epochs, epoch)):
                if submit[pid] <= cut:
                    excluded_addrs.add(addr_of[pid])
                    tainted_pages.add(addr_of[pid] // PAGE_SIZE)
        if tainted_pages:
            excluded_addrs.update(addr for addr in expected_plain if addr // PAGE_SIZE in tainted_pages)

    return DurableSnapshot(
        crash_cycle=cut,
        persistency="EP" if is_ep else "SP",
        data=data,
        counters=counters,
        macs=macs,
        root_register=root_register,
        expected_plain=expected_plain,
        completed_epochs=completed_epochs,
        incomplete_epochs=incomplete_epochs,
        excluded_addrs=excluded_addrs,
    )


def recover(snapshot: DurableSnapshot, keys: KeySet, geometry: BmtGeometry) -> RecoveryReport:
    """Post-crash verification from durable state, keys and the root register.

    The tree is rebuilt bottom-up from durable counter blocks and its root
    compared with the root register; each durable data block's MAC is
    checked over (ciphertext, address, counter) and the block decrypted.
    The wrong-plaintext verdict compares against the recorded write the
    durable image claims to hold - an oracle label for tests, not an input
    any real recovery would have.  Blocks are opened through
    ``open_durable``, keyed by their full input, so a tampered ciphertext,
    counter or key is a new entry; every comparison runs on every call.
    """
    bmt_ok = rebuild_from_counters(snapshot.counters, geometry, keys).root() == snapshot.root_register

    bmt_bit = 0 if bmt_ok else 4
    enc, mac = keys.enc, keys.mac
    verdicts: dict = {}
    plaintexts: dict = {}
    for addr, expected in sorted(snapshot.expected_plain.items()):
        # a block whose new ciphertext never persisted reads as NVMM zeros
        ciphertext = snapshot.data.get(addr, _ZERO_BLOCK)
        page, block_in_page = divmod(addr // BLOCK_SIZE, BLOCKS_PER_PAGE)
        ctr_block = snapshot.counters.get(page)
        counter = ctr_block.effective(block_in_page) if ctr_block else (0, 0)
        plain, tag = open_durable(ciphertext, addr, counter, enc, mac)
        verdicts[addr] = _VERDICTS[(plain != expected) | (snapshot.macs.get(addr) != tag) << 1 | bmt_bit]
        plaintexts[addr] = plain

    return RecoveryReport(
        snapshot=snapshot,
        bmt_ok=bmt_ok,
        verdicts=verdicts,
        plaintexts=plaintexts,
    )


def _first_matching_prefix(target: dict, golden: GoldenMemory) -> Optional[int]:
    """The shortest persist-log prefix whose plaintext state equals
    ``target``, or None.  A prefix's addresses only grow, so no prefix
    matches before the first that writes every target address, nor once
    one writes another address; from there on, each write changes whether
    its own address matches."""
    if not target:
        return 0
    plain = golden.plaintexts(len(golden))
    state: dict = {}
    size = len(target)
    for pid, addr in enumerate(golden.addr):
        state[addr] = plain[pid]
        if len(state) == size:
            break
    if state.keys() != target.keys():  # the log ended first, or wrote another address
        return None
    if state == target:
        return pid + 1
    differ = sum(state[addr] != want for addr, want in target.items())  # addresses whose state differs
    for pid in range(pid + 1, len(golden)):
        addr = golden.addr[pid]
        if addr not in target:
            return None
        want = target[addr]
        differ += (plain[pid] != want) - (state[addr] != want)
        state[addr] = plain[pid]
        if not differ:
            return pid + 1
    return None


def check_prefix_consistency(report: RecoveryReport, golden: GoldenMemory) -> ConsistencyResult:
    """The crash recovery observer's pass/fail call.

    SP: the recovered state must equal the golden state after some prefix
    of the persist log, with every block verifying.  EP: every block
    outside the crashed epoch's footprint must verify and match the last
    completed epoch boundary; crashed-epoch blocks are classified, not
    judged.
    """
    if report.snapshot.persistency == "SP":
        for addr, failures in report.verdicts.items():
            if failures:
                return ConsistencyResult(
                    False,
                    violation=Violation(
                        addr,
                        "crash-recovery-tuple",
                        f"block 0x{addr:x} failed {sorted(failures)} at a plain crash point",
                    ),
                )
        matched = _first_matching_prefix(report.plaintexts, golden)
        if matched is not None:
            report.matched_prefix = matched
            return ConsistencyResult(True, matched=matched)
        return ConsistencyResult(
            False,
            violation=Violation(
                None,
                "persist-order",
                f"recovered state matches no persist-log prefix (blocks={len(report.plaintexts)})",
            ),
        )

    # EP
    boundary = max(report.snapshot.completed_epochs) if report.snapshot.completed_epochs else None
    expected = golden.state_at_epoch_end(boundary) if boundary is not None else {}
    excluded, verdicts, plaintexts = report.snapshot.excluded_addrs, report.verdicts, report.plaintexts
    for addr in sorted(expected.keys() | plaintexts.keys()):
        if addr in excluded:
            continue
        if "mac-failure" in verdicts.get(addr, ()):
            return ConsistencyResult(
                False,
                violation=Violation(addr, "epoch-order", f"block 0x{addr:x} MAC failed outside crashed epoch"),
            )
        if plaintexts.get(addr) != expected.get(addr):
            return ConsistencyResult(
                False,
                violation=Violation(
                    addr, "epoch-order", f"block 0x{addr:x} does not match epoch {boundary} boundary state"
                ),
            )
    if not report.snapshot.incomplete_epochs and not report.bmt_ok:
        return ConsistencyResult(
            False,
            violation=Violation(None, "epoch-order", "tree root mismatch at a clean epoch boundary"),
        )
    report.matched_prefix = boundary if boundary is not None else -1
    return ConsistencyResult(True, matched=report.matched_prefix)

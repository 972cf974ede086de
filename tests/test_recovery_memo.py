"""Recovery's memos and the crash fold against references, tampering and the engine.

``crash.open_durable`` and ``bmt.recovery_digest`` memoize block openings
and tree digests by their full inputs.  The reference recovery here opens
every block with ``crypto.decrypt`` and ``crypto.mac_tag`` and checks the
tree with the dense ``oracles.full_root``, so it shares no memo and no
traversal with the library.  ``crash``, ``GoldenMemory.state_at_epoch_end``
and the strict-persistency prefix walk read the run's columns; their
references here fold the read-only ``wpq_entries``, ``golden.log`` and
``root_history`` views one row at a time.
"""

import importlib
import itertools
from dataclasses import replace
from functools import lru_cache

import pytest

from nvmsim import (SCHEMES, CrashPlan, GenSpec, KeySet, SimParams, Simulator, check_prefix_consistency, crash,
                    generate, rebuild_from_counters, recover, run_until_idle)
from nvmsim.crash import TUPLE_COMPONENTS, DurableSnapshot, RecoveryReport
from nvmsim.crypto import decrypt, mac_tag
from nvmsim.model_core import BLOCK_SIZE, BLOCKS_PER_PAGE, PAGE_SIZE, SplitCounter

from oracles import full_root, replay_plaintext_prefix
from test_schedule_lock import case_id, case_simulator, cases

crash_module = importlib.import_module("nvmsim.crash")
bmt_module = importlib.import_module("nvmsim.bmt")
open_durable = crash_module.open_durable
recovery_digest = bmt_module.recovery_digest


def clear_memos() -> None:
    open_durable.cache_clear()
    recovery_digest.cache_clear()


def reference_recovery(snapshot, keys, geometry) -> RecoveryReport:
    bmt_ok = full_root(snapshot.counters, geometry, keys) == snapshot.root_register
    verdicts, plaintexts = {}, {}  # by address: the SP check reports the lowest failing block
    for addr, expected in sorted(snapshot.expected_plain.items()):
        page, block = divmod(addr // BLOCK_SIZE, BLOCKS_PER_PAGE)
        counter = snapshot.counters.get(page, SplitCounter()).effective(block)
        ciphertext = snapshot.data.get(addr, bytes(BLOCK_SIZE))
        plaintexts[addr] = decrypt(ciphertext, addr, counter, keys)
        failures = set()
        if plaintexts[addr] != expected:
            failures.add("wrong-plaintext")
        if snapshot.macs.get(addr) != mac_tag(ciphertext, addr, counter, keys):
            failures.add("mac-failure")
        if not bmt_ok:
            failures.add("bmt-failure")
        verdicts[addr] = frozenset(failures)
    return RecoveryReport(snapshot=snapshot, bmt_ok=bmt_ok, verdicts=verdicts, plaintexts=plaintexts)


def state_cuts(sim) -> list:
    """Every cycle at which a crash's durable state can change: an at-cycle
    cut anywhere else folds the same state as the latest of these before it."""
    cycles = {0, *sim.epoch_completion.values()}
    cycles |= {cycle for cycle, _, _ in sim.root_history}
    for entry in sim.wpq_entries:
        cycles |= {entry.submit_cycle, entry.durable_cycle} - {None}
    return sorted(cycles)


def plans(sim) -> list:
    cuts = [CrashPlan("at-cycle", cycle=cycle) for cycle in state_cuts(sim)]
    targets = {0, len(sim.wpq_entries) // 2, len(sim.wpq_entries) - 1}
    return cuts + [CrashPlan("tuple-omission", persist_id=pid, component=component)
                   for pid, component in itertools.product(sorted(targets), TUPLE_COMPONENTS)]


def outcome(report, golden) -> tuple:
    result = check_prefix_consistency(report, golden)
    return report.as_dict(), report.verdicts, report.plaintexts, (result.ok, result.matched, result.violation)


# every 18th schedule-lock case of each scheme: under the epoch schemes,
# capacities of 1, one of the drain path and two with a binding ETT; under
# SP, whose shorter grid does not cross the MAC units, ideal caches with
# roomy tables and a zero-latency run on real caches
DIFF_CASES = [case for scheme in SCHEMES for case in itertools.islice(cases(scheme), 5, None, 18)]


@pytest.mark.parametrize("case", DIFF_CASES, ids=case_id)
def test_recovery_matches_the_reference_cold_and_warm(case):
    sim = case_simulator(case)
    run_until_idle(sim)
    snapshots = [crash(sim, plan) for plan in plans(sim)]
    want = [outcome(reference_recovery(s, sim.keys, sim.geometry), sim.golden) for s in snapshots]
    for warm in (False, True):
        for snapshot, expected in zip(snapshots, want):
            if not warm:
                clear_memos()
            got = outcome(recover(snapshot, sim.keys, sim.geometry), sim.golden)
            assert got == expected, (warm, snapshot.crash_cycle)
    assert open_durable.cache_info().hits and recovery_digest.cache_info().hits


def small_run(scheme: str = "sequential", fence_interval: int = 0) -> Simulator:
    sim = Simulator(SimParams(scheme=scheme, levels=4, ideal_caches=True),
                    generate(GenSpec(store_count=24, pages=4, run_length=2, fence_interval=fence_interval, seed=3)))
    run_until_idle(sim)
    return sim


def test_tampered_copies_fail_with_a_warm_memo():
    sim = small_run()
    clean = crash(sim, CrashPlan("at-cycle", cycle=sim.clock))
    clear_memos()
    report = recover(clean, sim.keys, sim.geometry)
    assert report.bmt_ok and not any(report.verdicts.values())
    addr = min(clean.expected_plain)
    page, block = divmod(addr // BLOCK_SIZE, BLOCKS_PER_PAGE)
    counter = clean.counters[page]
    flipped = bytes([clean.data[addr][0] ^ 1]) + clean.data[addr][1:]
    tampered = {
        "ciphertext": (replace(clean, data={**clean.data, addr: flipped}),
                       {addr: {"wrong-plaintext", "mac-failure"}}, set()),
        "mac": (replace(clean, macs={**clean.macs, addr: clean.macs[addr] ^ 1}), {addr: {"mac-failure"}}, set()),
        "counter": (replace(clean, counters={**clean.counters, page: SplitCounter(
                        counter.major, counter.packed ^ 1 << 7 * block)}),
                    {addr: {"wrong-plaintext", "mac-failure", "bmt-failure"}}, {"bmt-failure"}),
        "root": (replace(clean, root_register=clean.root_register ^ 1), {}, {"bmt-failure"}),
    }
    for name, (snapshot, at_addr, elsewhere) in tampered.items():
        got = recover(snapshot, sim.keys, sim.geometry).verdicts
        want = {a: frozenset(at_addr.get(a, elsewhere)) for a in clean.expected_plain}
        assert got == want, name
        assert got == reference_recovery(snapshot, sim.keys, sim.geometry).verdicts, name
    # the tampered copies left the clean snapshot's entries as they were
    assert not any(recover(clean, sim.keys, sim.geometry).verdicts.values())


def test_other_keys_fail_every_mac_cold_and_warm():
    sim = small_run()
    clean = crash(sim, CrashPlan("at-cycle", cycle=sim.clock))
    recover(clean, sim.keys, sim.geometry)
    other = KeySet.from_seed(sim.params.seed + 1)
    clear_memos()
    for _ in ("cold", "warm"):
        report = recover(clean, other, sim.geometry)
        assert not report.bmt_ok
        assert all("mac-failure" in failures for failures in report.verdicts.values())
        assert len(report.verdicts) == len(clean.expected_plain)
        # the tree under the other keys, not the digests memoized under the run's
        rebuilt = rebuild_from_counters(clean.counters, sim.geometry, other).root()
        assert rebuilt == full_root(clean.counters, sim.geometry, other)


def test_the_engine_never_uses_the_memos():
    clear_memos()
    for scheme in SCHEMES:
        small_run(scheme, fence_interval=3)
    for memo in (open_durable, recovery_digest):
        assert memo.cache_info().currsize == memo.cache_info().hits == memo.cache_info().misses == 0


def test_memos_are_bounded(monkeypatch):
    # the real bounds: more distinct inputs than each holds
    keys = KeySet.from_seed(0)
    clear_memos()
    for i in range(open_durable.cache_info().maxsize + 10):
        open_durable(bytes(BLOCK_SIZE), i * BLOCK_SIZE, (0, 0), keys.enc, keys.mac)
    for i in range(recovery_digest.cache_info().maxsize + 10):
        recovery_digest(i.to_bytes(8, "little"), keys.enc, keys.mac)
    for memo in (open_durable, recovery_digest):
        info = memo.cache_info()
        assert info.misses > info.maxsize and info.currsize == info.maxsize
    clear_memos()
    # a sweep that evicts at every point still recovers exactly
    small_open = lru_cache(maxsize=16)(open_durable.__wrapped__)
    small_digest = lru_cache(maxsize=16)(recovery_digest.__wrapped__)
    monkeypatch.setattr(crash_module, "open_durable", small_open)
    monkeypatch.setattr(bmt_module, "recovery_digest", small_digest)
    sim = case_simulator(DIFF_CASES[0])
    run_until_idle(sim)
    for plan in plans(sim):
        snapshot = crash(sim, plan)
        got = outcome(recover(snapshot, sim.keys, sim.geometry), sim.golden)
        assert got == outcome(reference_recovery(snapshot, sim.keys, sim.geometry), sim.golden)
    for memo in (small_open, small_digest):
        info = memo.cache_info()
        assert info.misses > info.maxsize and info.currsize == info.maxsize


def test_a_warm_rebuild_hashes_nothing(monkeypatch):
    sim = small_run()
    counters = crash(sim, CrashPlan("at-cycle", cycle=sim.clock)).counters
    rebuild_from_counters(counters, sim.geometry, sim.keys)
    calls = []
    hash_node = bmt_module.hash_node
    monkeypatch.setattr(bmt_module, "hash_node", lambda *args: calls.append(args) or hash_node(*args))
    assert rebuild_from_counters(counters, sim.geometry, sim.keys).root() == sim.bmt.root_register
    assert calls == []


# ----------------------------------------------------------------------
# the crash fold, epoch-boundary states and prefix walk against slow folds
# ----------------------------------------------------------------------


def reference_snapshot(sim, plan) -> DurableSnapshot:
    """``crash`` as a fold over the views, entry by entry in pid order."""
    entries, log = list(sim.wpq_entries), list(sim.golden.log)
    if plan.mode == "at-cycle":
        cut = plan.cycle
    else:  # an omission cuts once the persist has completed and its tuple is durable
        cut = max(entries[plan.persist_id].complete_cycle, entries[plan.persist_id].durable_cycle)
    omitted = (plan.persist_id, plan.component) if plan.mode == "tuple-omission" else (None, None)
    data, counters, macs, expected_plain = {}, {}, {}, {}
    cut_epochs = set()
    for entry in entries:
        if entry.durable_cycle is None or entry.durable_cycle > cut:
            continue
        cut_epochs.add(entry.epoch)
        skip = omitted[1] if entry.pid == omitted[0] else None
        addr = entry.addr.value
        expected_plain[addr] = log[entry.pid].plaintext
        if skip != "ciphertext":
            data[addr] = entry.ciphertext
        if skip != "counter":
            counters[entry.addr.page] = entry.counter_block
        if skip != "mac":
            macs[addr] = entry.mac
    root_register = full_root({}, sim.geometry, sim.keys)
    for cycle, pid, value in sim.root_history:
        if cycle <= cut and (pid, "root") != omitted:
            root_register = value
            cut_epochs.add(log[pid].epoch)
    completed, incomplete, excluded = set(), set(), set()
    if sim.is_ep:
        completed = {epoch for epoch, done in sim.epoch_completion.items() if done <= cut}
        incomplete = cut_epochs - completed
        excluded = {e.addr.value for e in entries if e.epoch in incomplete and e.submit_cycle <= cut}
        tainted = {addr // PAGE_SIZE for addr in excluded}
        excluded |= {addr for addr in expected_plain if addr // PAGE_SIZE in tainted}
    return DurableSnapshot(crash_cycle=cut, persistency="EP" if sim.is_ep else "SP", data=data, counters=counters,
                           macs=macs, root_register=root_register, expected_plain=expected_plain,
                           completed_epochs=completed, incomplete_epochs=incomplete, excluded_addrs=excluded)


def reference_matched_prefix(golden, target):
    """The first persist-log prefix whose state equals ``target``, comparing whole states."""
    state = {}
    for n, rec in enumerate(golden.log):
        if state == target:
            return n
        state[rec.addr.value] = rec.plaintext
    return len(golden.log) if state == target else None


def path_label(sim, page, level):
    """The node at ``level`` on ``page``'s update path, by parent steps from its leaf."""
    arity, levels = sim.geometry.arity, sim.geometry.levels
    label = (arity ** (levels - 1) - 1) // (arity - 1) + page
    for _ in range(levels - level):
        label = (label - 1) // arity
    return label


@pytest.mark.parametrize("case", DIFF_CASES, ids=case_id)
def test_columnar_readers_match_slow_folds_over_the_views(case):
    sim = case_simulator(case)
    run_until_idle(sim)
    golden = sim.golden
    for plan in plans(sim):
        snapshot = crash(sim, plan)
        assert snapshot == reference_snapshot(sim, plan), plan
        if not sim.is_ep and plan.mode == "at-cycle":
            report = recover(snapshot, sim.keys, sim.geometry)
            if not any(report.verdicts.values()):
                want = reference_matched_prefix(golden, report.plaintexts)
                assert check_prefix_consistency(report, golden).matched == want, plan
    log = list(golden.log)
    for epoch in range(-1, log[-1].epoch + 2):
        want = {rec.addr.value: rec.plaintext for rec in log if rec.epoch <= epoch}
        assert golden.state_at_epoch_end(epoch) == want
        assert want == replay_plaintext_prefix(golden, sum(rec.epoch <= epoch for rec in log))
    # the root history and the update log against the dense oracle and the path math
    entries = list(sim.wpq_entries)
    assert sim.root_history[-1][2] == sim.bmt.root_register == full_root(
        {e.addr.page: e.counter_block for e in entries}, sim.geometry, sim.keys)
    if not sim.is_ep and sim.geometry.arity == 2:  # strict persistency: each root covers its persist-order prefix
        assert [pid for _cycle, pid, _value in sim.root_history] == list(range(len(entries)))
        for cycle, pid, value in sim.root_history:
            assert cycle == entries[pid].root_done_cycle
            assert value == full_root({e.addr.page: e.counter_block for e in entries[:pid + 1]}, sim.geometry, sim.keys)
    updates = sim.update_log
    assert len(updates) == sim.stats["node_updates"]
    for _start, _end, pid, epoch, label, level in updates:
        assert epoch == log[pid].epoch and label == path_label(sim, log[pid].addr.page, level)

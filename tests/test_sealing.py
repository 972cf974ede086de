"""Blocks are sealed on demand, exactly as eager sealing at submission would.

A run keeps each store's payload seed, not its plaintext, ciphertext,
counter block or MAC: the golden log derives a plaintext when one is read,
and the persist record seals a persist's tuple when a crash or a view
reads it, in pid order, each pid once.  The reference below is eager
sealing: at each store, in trace order, derive the payload, bump the
page's counter block, encrypt and tag.  Every filled row must equal it,
whatever read fills it first.  The tree's node digests use a copy of one
pre-keyed BLAKE2b state; they must equal ``crypto.hash_node``.
"""

import random
import struct

import pytest

from nvmsim import (
    SCHEMES,
    CrashPlan,
    GenSpec,
    SimParams,
    Simulator,
    check_prefix_consistency,
    crash,
    generate,
    recover,
    run_until_idle,
)
from nvmsim import crash as crash_module, crypto, engine, model_core
from nvmsim.bmt import BmtGeometry, BmtState
from nvmsim.crypto import KeySet, encrypt, hash_node, mac_tag, payload_block
from nvmsim.model_core import SplitCounter
from nvmsim.trace import Store

from test_epoch_watermark import step
from test_schedule_lock import case_simulator, cases

COMPONENTS = ("ciphertext", "counter", "mac", "root")


class Eager:
    """Each store's plaintext, ciphertext, counter block and MAC, sealed at
    submission in trace order, with one counter block per page."""

    def __init__(self, events, keys: KeySet) -> None:
        self.plain, self.ciphertext, self.counter_block, self.mac = [], [], [], []
        counters = {}
        for store in events:
            if not isinstance(store, Store):
                continue
            addr = store.addr
            payload = payload_block(store.payload_seed)
            block = counters[addr.page] = counters.get(addr.page, SplitCounter()).bump(addr.block_in_page)
            counter = block.effective(addr.block_in_page)
            ciphertext = encrypt(payload, addr, counter, keys)
            self.plain.append(payload)
            self.ciphertext.append(ciphertext)
            self.counter_block.append(block)
            self.mac.append(mac_tag(ciphertext, addr, counter, keys))

    def row(self, pid: int) -> tuple:
        return self.plain[pid], self.ciphertext[pid], self.counter_block[pid], self.mac[pid]

    def fold(self, sim, cut: int, omitted=None, component=None) -> tuple:
        """``crash``'s per-block state at ``cut`` from these rows:
        ``(data, counters, macs, expected_plain)``."""
        data, counters, macs, expected = {}, {}, {}, {}
        for pid, durable in enumerate(sim.record.durable):
            if durable > cut:
                continue
            addr = sim.record.addr[pid]
            skip = component if pid == omitted else None
            expected[addr] = self.plain[pid]
            if skip != "ciphertext":
                data[addr] = self.ciphertext[pid]
            if skip != "counter":
                counters[addr // 4096] = self.counter_block[pid]
            if skip != "mac":
                macs[addr] = self.mac[pid]
        return data, counters, macs, expected


def filled_row(sim, pid: int) -> tuple:
    entry = sim.wpq_entries[pid]
    return sim.golden.log[pid].plaintext, entry.ciphertext, entry.counter_block, entry.mac


def snapshot_state(snapshot) -> tuple:
    return snapshot.data, snapshot.counters, snapshot.macs, snapshot.expected_plain


def assert_rows_match(sim, eager: Eager) -> None:
    assert len(sim.record) == len(eager.mac)
    for pid in range(len(sim.record)):
        assert filled_row(sim, pid) == eager.row(pid), pid
    record = sim.record
    assert record.ciphertext == eager.ciphertext
    assert record.counter_block == eager.counter_block
    assert list(record.mac) == eager.mac


def case_and_trace(case) -> tuple:
    """A schedule-lock case's simulator and its trace events."""
    sim = case_simulator(case)
    return sim, sim.trace[::-1]  # the queue holds the events last first


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_schedule_lock_case_seals_as_eager_sealing(scheme):
    for i, case in enumerate(cases(scheme)):
        sim, events = case_and_trace(case)
        eager = Eager(events, sim.keys)
        run_until_idle(sim)
        assert len(sim.record.mac) == len(sim.golden.plain) == 0, "a run seals nothing"
        # the first read is a cut at a persist's completion with one component
        # dropped: it seals up to the highest durable pid only
        pid = (len(sim.record) // 2 + i) % len(sim.record)
        component = COMPONENTS[i % 4]
        snapshot = crash(sim, CrashPlan("tuple-omission", persist_id=pid, component=component))
        sealed = len(sim.record.mac)
        assert sealed == max((p + 1 for p, c in enumerate(sim.record.durable) if c <= snapshot.crash_cycle),
                             default=0)
        assert snapshot_state(snapshot) == eager.fold(sim, snapshot.crash_cycle, pid, component), case
        assert_rows_match(sim, eager)


def random_params(rng: random.Random) -> SimParams:
    arity = rng.choice((2, 3, 8))
    ideal = rng.random() < 0.5
    return SimParams(scheme=rng.choice(SCHEMES), arity=arity, levels={2: 6, 3: 5, 8: 4}[arity],
                     mac_units=rng.randrange(3), ideal_caches=ideal, cache_kb=1, seed=rng.randrange(1 << 64),
                     wpq_capacity=rng.choice((4, 128)), ptt_capacity=rng.choice((4, 64)))


@pytest.mark.parametrize("seed", range(12))
def test_reads_that_start_mid_run_seal_as_eager_sealing(seed):
    rng = random.Random(seed)
    params = random_params(rng)
    events = generate(GenSpec(store_count=rng.randrange(40, 120), pages=rng.choice((2, 8, 32)),
                              run_length=rng.randrange(1, 5), fence_interval=rng.randrange(5), seed=seed))
    eager = Eager(events, KeySet.from_seed(params.seed))
    sim = Simulator(params, events)
    while len(sim.record) < len(eager.mac) // 2:
        step(sim)
    # the first read is of a middle persist, before pid 0 has a sealed row
    pid = len(sim.record) - 1 - rng.randrange(len(sim.record) // 2)
    first = rng.choice(("ciphertext", "counter_block", "mac", "plaintext"))
    if first == "plaintext":
        assert sim.golden.log[pid].plaintext == eager.plain[pid]
        assert len(sim.golden.plain) == pid + 1 and len(sim.record.mac) == 0
    else:
        assert getattr(sim.wpq_entries[pid], first) == getattr(eager, first)[pid]
        assert len(sim.record.mac) == len(sim.golden.plain) == pid + 1
    cut = sim.clock - 1  # the last cycle the run has fully processed
    mid = crash(sim, CrashPlan("at-cycle", cycle=cut))
    assert snapshot_state(mid) == eager.fold(sim, cut)
    # the run goes on and the rows sealed so far stay as they were
    run_until_idle(sim)
    assert_rows_match(sim, eager)
    assert snapshot_state(crash(sim, CrashPlan("at-cycle", cycle=cut))) == snapshot_state(mid)
    last = len(sim.record) - 1
    for component in COMPONENTS:
        plan = CrashPlan("tuple-omission", persist_id=last, component=component)
        snapshot = crash(sim, plan)
        assert snapshot_state(snapshot) == eager.fold(sim, snapshot.crash_cycle, last, component)


def test_a_run_that_goes_on_after_all_was_sealed_seals_as_eager_sealing():
    events = generate(GenSpec(store_count=70, pages=3, run_length=2, fence_interval=3, seed=4))
    sim = Simulator(SimParams(scheme="pipeline", levels=4, cache_kb=1), events)
    eager = Eager(events, sim.keys)
    while len(sim.record) < 30:
        step(sim)
    assert sim.wpq_entries[-1].mac == eager.mac[29] and len(sim.record.mac) == 30
    run_until_idle(sim)
    assert_rows_match(sim, eager)


def test_no_pid_is_sealed_twice(monkeypatch):
    sealed = []
    seal_block = engine.seal_block
    monkeypatch.setattr(engine, "seal_block", lambda *args: sealed.append(args[1]) or seal_block(*args))
    events = generate(GenSpec(store_count=80, pages=4, run_length=3, fence_interval=4, seed=7))
    sim = Simulator(SimParams(scheme="coalesce", levels=4), events)
    run_until_idle(sim)
    for cycle in (sim.clock // 3, sim.clock // 4, sim.clock):
        crash(sim, CrashPlan("at-cycle", cycle=cycle))
    list(sim.wpq_entries[10].mac for _ in range(3))
    crash(sim, CrashPlan("tuple-omission", persist_id=40, component="mac"))
    assert [entry.ciphertext for entry in sim.wpq_entries] == Eager(events, sim.keys).ciphertext
    assert sealed == list(sim.record.addr)


@pytest.mark.parametrize("arity,levels", [(2, 5), (3, 4), (8, 3)])
def test_pre_keyed_node_digest_is_hash_node(arity, levels):
    rng = random.Random(arity)
    keys = KeySet.from_seed(arity)
    geometry = BmtGeometry(arity, levels)
    state = BmtState(geometry, keys)
    for label in rng.sample(range(geometry.node_count), geometry.node_count // 2):
        state.values[label] = rng.randrange(1 << 64)
    pack = struct.Struct(f"<{arity}Q").pack
    for label in range(geometry.first_leaf):
        level = geometry.level_of(label)
        children = [state.node_value(child) for child in geometry.children(label)]
        assert state.compute_node(label, level) == hash_node(pack(*children), keys), label
    for page in rng.sample(range(geometry.leaf_count), min(geometry.leaf_count, 6)):
        block = SplitCounter.from_minors(rng.randrange(9), [rng.randrange(128) for _ in range(64)])
        payload = block.to_block_bytes()
        leaf = geometry.leaf_for_page(page)
        assert state.compute_node(leaf, levels, payload) == hash_node(payload, keys)
    # a copy is all the engine takes: the pre-keyed state itself never moves
    assert state.compute_node(0, 1) == state.compute_node(0, 1)


def verdicts(sim) -> list:
    out = []
    for cycle in (0, sim.clock // 3, sim.clock // 2, sim.clock):
        report = recover(crash(sim, CrashPlan("at-cycle", cycle=cycle)), sim.keys, sim.geometry)
        result = check_prefix_consistency(report, sim.golden)
        out.append([report.as_dict(), report.plaintexts, result.ok, result.matched])
    last = len(sim.record) - 1
    for component in COMPONENTS:
        plan = CrashPlan("tuple-omission", persist_id=last, component=component)
        out.append(recover(crash(sim, plan), sim.keys, sim.geometry).as_dict())
    return out


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_engine_never_seals(scheme, monkeypatch):
    params = SimParams(scheme=scheme, levels=4, cache_kb=1)
    events = generate(GenSpec(store_count=90, pages=6, run_length=3, fence_interval=5, seed=3))
    reference = Simulator(params, events)
    run_until_idle(reference)

    def refuse(*_args):
        raise AssertionError("the engine sealed a block")

    for name in ("encrypt", "mac_tag", "payload_block", "seal_block", "open_block"):
        for module in (crypto, engine, model_core, crash_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    sim = Simulator(params, events)
    run_until_idle(sim)
    assert not sim.outstanding_persists() and sim.stats_dict() == reference.stats_dict()
    assert sim.bmt.root_register == reference.bmt.root_register and sim.update_log == reference.update_log
    monkeypatch.undo()
    assert verdicts(sim) == verdicts(reference)

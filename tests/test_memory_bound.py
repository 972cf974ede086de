"""A run keeps a constant number of bytes per persist, and its history is read-only.

Each persist's history is one row of the run's columns (the persist record,
the golden log and the update log); the blocks of its tuple are sealed only
when a crash or a view reads them, each once, into plain lists.  Besides the trace events not yet
submitted, the only objects a run keeps are a persist tracking table entry
per persist in flight and an epoch tracking table entry per live epoch;
``wpq_entries``, ``golden.log`` and ``root_history`` build read-only rows
on demand.
"""

import gc
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import nvmsim
from nvmsim import SCHEMES, CrashPlan, GenSpec, SimParams, Simulator, Store, crash, generate, run_until_idle
from nvmsim.cli import event_log_digest
from nvmsim.engine import EttEntry, PttEntry, WpqEntry

from test_epoch_watermark import step

LIBRARY = str(Path(nvmsim.__file__).parent / "*")


def coalesce_trace(stores: int) -> list:
    return generate(GenSpec(store_count=stores, pages=4, run_length=4, fence_interval=8, seed=0))


def coalesce_run(stores: int) -> Simulator:
    return Simulator(SimParams(scheme="coalesce"), coalesce_trace(stores))


def retained_bytes_per_store(stores: int) -> float:
    """Bytes a finished run holds beyond what it held when built (its
    caches and its queue of trace events), per store, by tracemalloc."""
    events = coalesce_trace(stores)
    gc.collect()
    gc.disable()  # a run frees its objects by refcount; collections would only slow the trace
    tracemalloc.start()
    try:
        sim = Simulator(SimParams(scheme="coalesce"), events)
        base = tracemalloc.get_traced_memory()[0]
        run_until_idle(sim)
        gc.collect()  # which also empties the free lists of small objects
        return (tracemalloc.get_traced_memory()[0] - base) / stores
    finally:
        tracemalloc.stop()
        gc.enable()


def test_retained_bytes_per_store_do_not_grow_with_the_run():
    short, long = retained_bytes_per_store(1024), retained_bytes_per_store(8192)
    assert abs(long - short) <= 0.05 * short, (short, long)
    # a 64-byte row (five cycles, an address, an epoch and a payload seed),
    # about two 16-byte update records and at most one 16-byte root update
    # per store, with the columns' growth slack: no block of the tuple's
    # data, which is sealed only when a crash reads it
    assert long < 200, long


def bytes_left_per_store(stores: int, read) -> float:
    """Bytes that ``read(sim)`` leaves in a finished run of ``stores``
    stores, per store, by tracemalloc.  The tree's shape caches its level
    starts on first use; that is read first, so it is not counted."""
    sim = coalesce_run(stores)
    run_until_idle(sim)
    sim.geometry.level_of(0)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read(sim)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - base) / stores
    finally:
        tracemalloc.stop()
        gc.enable()


def sealed_bytes_per_store(stores: int) -> float:
    """Bytes that a crash at the end of a finished run leaves sealed in the
    run, per store: every persist's plaintext, ciphertext, counter block
    and MAC."""
    return bytes_left_per_store(stores, lambda sim: crash(sim, CrashPlan("at-cycle", cycle=sim.clock)))


def test_sealed_bytes_per_store_are_each_block_once():
    short, long = sealed_bytes_per_store(1024), sealed_bytes_per_store(8192)
    assert abs(long - short) <= 0.05 * short, (short, long)
    # a 64-byte plaintext and ciphertext as bytes objects (112 B each), a
    # SplitCounter snapshot, an 8-byte MAC and three list slots: no second,
    # packed copy of any block
    assert long < 400, long


def test_the_event_log_digest_keeps_nothing():
    # the digest reads the update log record by record, decoded as it goes.
    # Only the library's own allocations count: a test plugin may keep a few
    # bytes across the collection, as hypothesis's collector timing does
    sim = coalesce_run(1024)
    run_until_idle(sim)
    sim.geometry.level_of(0)  # which caches the tree's level starts
    gc.collect()
    tracemalloc.start()
    try:
        event_log_digest(sim)
        gc.collect()
        kept = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, LIBRARY)])
    finally:
        tracemalloc.stop()
    assert kept.statistics("lineno") == []


def test_the_first_tree_read_keeps_bytes_per_store_that_do_not_grow():
    # the replayed tree's node values, the root's values and each persist's
    # counter block; no column decoded for the replay outlives it
    short, long = (bytes_left_per_store(stores, lambda sim: sim.bmt) for stores in (1024, 8192))
    assert abs(long - short) <= 0.05 * short, (short, long)


def test_no_tracking_entry_outlives_its_persist():
    # with the cyclic collector off, every entry is freed by refcount alone
    gc.disable()
    try:
        sim = coalesce_run(200)
        entries, epochs = {}, {}
        while sim.events:
            step(sim)
            entries.update((entry.pid, weakref.ref(entry)) for entry in sim.ptt_order if entry.pid not in entries)
            epochs.update((ett.epoch, weakref.ref(ett)) for ett in sim.ett if ett.epoch not in epochs)
            # a completed epoch's entry is freed as it completes
            assert [epoch for epoch in sim.epoch_completion if epochs[epoch]() is not None] == []
        assert not sim.outstanding_persists() and len(entries) == 200 and len(epochs) == 25
        assert [pid for pid, ref in entries.items() if ref() is not None] == []
        assert not [obj for obj in gc.get_objects() if isinstance(obj, (PttEntry, WpqEntry, EttEntry))]
    finally:
        gc.enable()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_run_keeps_no_store_of_a_trace_its_caller_dropped(scheme):
    # each event is read once, at submission, so the run lets it go there
    events = coalesce_trace(64)
    stores = [weakref.ref(event) for event in events if isinstance(event, Store)]
    sim = Simulator(SimParams(scheme=scheme), events)
    del events
    run_until_idle(sim)
    assert len(stores) == 64 and [ref for ref in stores if ref() is not None] == []


def test_history_views_are_read_only():
    sim = coalesce_run(40)
    run_until_idle(sim)
    entry = sim.wpq_entries[-1]
    assert entry.pid == 39 and entry == sim.wpq_entries[39] and entry != sim.wpq_entries[38]
    for name in ("pid", "addr", "epoch", "ciphertext", "counter_block", "mac", "submit_cycle",
                 "arrival_cycle", "root_done_cycle", "complete_cycle", "durable_cycle", "drained_cycle"):
        with pytest.raises(AttributeError):
            setattr(entry, name, None)
    with pytest.raises(AttributeError):
        entry.note = "x"
    with pytest.raises(TypeError):
        sim.wpq_entries[0] = entry
    with pytest.raises(FrozenInstanceError):
        sim.golden.log[0].plaintext = bytes(64)
    with pytest.raises(TypeError):
        sim.root_history[0] = (0, 0, 0)
    # the views equal the same rows as plain lists
    assert sim.root_history == list(sim.root_history) and list(sim.golden.log) == sim.golden.log

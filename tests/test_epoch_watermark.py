"""The epoch watermark against full scans of every epoch, and bounded tracking state.

``unlock_cycle`` looks at one epoch only, because epochs complete in order
at cycles that never decrease.  The reference function below scans every
epoch seen so far and needs no such invariant; the two must agree at every
event of a run.  The epoch table itself is checked against the WPQ entries
at every event too.
"""

import gc
import random
import weakref

import pytest

from nvmsim import SCHEMES, SimParams, Simulator, parse, run_until_idle

from conftest import page_addr, trace_text


def reference_unlock_cycle(sim, epoch):
    latest = 0
    for older in sim.epoch_members:
        if older >= epoch:
            break
        done = sim.epoch_completion.get(older)
        if done is None:
            return None
        latest = max(latest, done + 1)
    return latest


def members_by_epoch(sim):
    grouped = {}
    for entry in sim.wpq_entries:
        grouped.setdefault(entry.epoch, []).append(entry.pid)
    return grouped


def check_epoch_table(sim):
    grouped = members_by_epoch(sim)
    assert {epoch: list(pids) for epoch, pids in sim.epoch_members.items()} == grouped
    live = sim.epochs[sim.open_idx:]
    assert [e.epoch for e in live] == [e for e in grouped if e not in sim.epoch_completion]
    for ett in live:
        assert ett.incomplete == sum(
            sim.wpq_entries[pid].complete_cycle is None for pid in grouped[ett.epoch]
        )


def ep_trace(rng, fence_every):
    """Random stores with a fence every `fence_every` stores, plus runs of
    extra fences that leave epochs empty (``F F F``)."""
    items = []
    for i in range(rng.randrange(6, 40)):
        if i and i % fence_every == 0:
            items.extend(["F"] * rng.choice((1, 1, 2, 3)))
        items.append(page_addr(rng.randrange(6), rng.randrange(64)))
    if rng.random() < 0.3:
        items = ["F", "F"] + items
    return trace_text(*items)


def step(sim):
    """Fire the next event exactly as run_until_idle does."""
    cycle, _kind, _seq, handler, payload = sim.events.pop()
    sim.clock = cycle
    handler(payload)


@pytest.mark.parametrize("scheme", ["ooo", "coalesce"])
def test_watermark_matches_full_scan_at_every_event(scheme):
    rng = random.Random(2 if scheme == "ooo" else 3)
    for trial in range(30):
        fence_every = 1 + trial % 9
        ett_capacity = 1 + trial % 3
        text = ep_trace(rng, fence_every)
        sim = Simulator(
            SimParams(scheme=scheme, levels=4, ideal_caches=trial % 2 == 0, ett_capacity=ett_capacity),
            parse(text),
        )
        while sim.events:
            step(sim)
            for entry in sim.wpq_entries:
                assert sim.unlock_cycle(entry.epoch) == reference_unlock_cycle(sim, entry.epoch)
            check_epoch_table(sim)
        assert not sim.outstanding_persists()
        # the invariant the watermark rests on
        assert list(sim.epoch_completion) == list(sim.epoch_members)
        cycles = [sim.epoch_completion[e] for e in sorted(sim.epoch_completion)]
        assert cycles == sorted(cycles)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tracking_state_is_freed_after_persist(scheme):
    # with the cyclic collector off, everything below is freed by refcount
    # alone: a reference cycle would keep each finished run alive until the
    # next collection
    gc.disable()
    try:
        text = trace_text(*[page_addr(i % 5, i % 17) for i in range(40)], "F", page_addr(1))
        sim = Simulator(SimParams(scheme=scheme, levels=4, ideal_caches=True, ett_capacity=1), parse(text))
        while not sim.ptt_order:
            step(sim)
        first = weakref.ref(sim.ptt_order[0])
        while sim.pending_trace_events():
            step(sim)
        last = weakref.ref(sim.ptt_order[-1])
        run_until_idle(sim)
        assert first() is None
        assert last() is None
        assert sim.open_idx == len(sim.epochs)
        # a commit cycle below the clock can no longer delay a commit
        assert all(cycle >= sim.clock for cycle in sim.node_commit_horizon.values())
        finished = weakref.ref(sim)
        del sim
        assert finished() is None
    finally:
        gc.enable()

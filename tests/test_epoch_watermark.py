"""The live epoch tracking table against full scans of every epoch, and bounded tracking state.

``unlock_cycle`` looks at one epoch only, the nearest older one with
members, because epochs complete in order at strictly increasing cycles.
The reference function below scans every epoch seen so far and needs no
such invariant; the two must agree at every event of a run.  The live
table itself is checked against the WPQ entries at every event too, and so
is the rule the ooo walk enforces: an update in flight sits strictly deeper
than every level an older epoch occupies.
"""

import gc
import random
import weakref

import pytest

from nvmsim import SCHEMES, GenSpec, LatencyConfig, SimParams, Simulator, generate, parse, run_until_idle

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
    # the ETT holds exactly the epochs with members that have not completed
    assert [e.epoch for e in sim.ett] == [e for e in grouped if e not in sim.epoch_completion]
    for ett in sim.ett:
        assert ett.first_pid <= ett.done_pid <= ett.end_pid
        assert all(sim.wpq_entries[pid].complete_cycle is not None for pid in range(ett.first_pid, ett.done_pid))


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
        assert all(a < b for a, b in zip(cycles, cycles[1:])), cycles
        # an epoch completes no earlier than its unlock
        assert all(done >= sim.unlock_cycle(e) for e, done in sim.epoch_completion.items())


def occupied_levels(sim):
    """``(epoch, level, in flight)`` of each unpersisted persist: the level of
    its update in flight, or of the next update its plan still holds."""
    out = []
    levels = sim.geometry.levels
    for entry in sim.ptt_order:
        if sim.wpq_entries[entry.pid].root_done_cycle is not None:  # persisted
            continue
        if entry.inflight:
            out.append((entry.epoch, levels - entry.next_idx + 1, True))
        elif entry.next_idx < (entry.gate_count or 1):
            out.append((entry.epoch, levels - entry.next_idx, False))
    return out


def epoch_order_violations(sim):
    """In-flight updates that are not strictly deeper than a level an older
    epoch occupies, as ``(younger level, older level)`` pairs."""
    held = occupied_levels(sim)
    return [(level, older_level)
            for epoch, level, inflight in held if inflight
            for older_epoch, older_level, _ in held
            if older_epoch < epoch and level <= older_level]


@pytest.mark.parametrize("scheme", ["ooo", "coalesce"])
def test_younger_updates_stay_below_older_epochs_at_every_event(scheme):
    rng = random.Random(7 if scheme == "ooo" else 8)
    latencies = (LatencyConfig(), LatencyConfig(mac_latency=0, cache_hit=0))
    for trial in range(24):
        params = SimParams(scheme=scheme, arity=(2, 3, 8)[trial % 3], levels=4,
                           ideal_caches=trial % 2 == 0, cache_kb=1, ett_capacity=1 + trial % 3,
                           mac_units=trial % 3, latency=latencies[trial // 12])
        sim = Simulator(params, parse(ep_trace(rng, 1 + trial % 4)))
        while sim.events:
            step(sim)
            assert not epoch_order_violations(sim), (trial, sim.clock)
        assert not sim.outstanding_persists()


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
        assert sim.ett == []
        # a commit cycle below the clock can no longer delay a commit
        assert all(cycle >= sim.clock for cycle in sim.node_commit_horizon.values())
        finished = weakref.ref(sim)
        del sim
        assert finished() is None
    finally:
        gc.enable()


def test_commit_horizon_is_pruned_with_a_zero_mac_latency():
    # with a MAC latency of 0 a node can commit and issue again in one cycle,
    # which the horizon must still order, on a tree footprint of 4,096 stores
    trace = generate(GenSpec(store_count=4096, pages=16384, run_length=8, fence_interval=32, seed=0))
    sim = Simulator(SimParams(scheme="sequential", latency=LatencyConfig(mac_latency=0)), trace)
    run_until_idle(sim)
    assert all(cycle >= sim.clock for cycle in sim.node_commit_horizon.values())


def test_waiting_persists_dispatch_before_the_unlock_sweep():
    # epoch 0 completes at cycle 2.  At cycle 3 the persists already waiting
    # dispatch before that cycle's unlock sweep, so persist 1 takes both MAC
    # units for its last two updates and epoch 1 completes at cycle 3.  Swept
    # first, persist 1 would drain, its freed WPQ slot would admit persist 2,
    # whose leaf update takes a unit in cycle 3, and epoch 1 would complete
    # at cycle 4.
    params = SimParams(scheme="coalesce", arity=2, levels=4, wpq_capacity=1, ptt_capacity=2, ett_capacity=3,
                       mac_units=2, ideal_caches=True,
                       latency=LatencyConfig(mac_latency=0, cache_hit=0, cache_fill=0, drain_interval=1))
    sim = Simulator(params, parse(trace_text(0xC0, "F", 0x1980, "F", 0xDC0)))
    run_until_idle(sim)
    assert sim.epoch_completion == {0: 2, 1: 3, 2: 5}


def test_a_younger_members_completion_leaves_the_oldest_epoch_to_its_sweep():
    # epoch 0 completes at cycle 90, and epoch 1 (persists 9-12) then waits
    # only for its unlock at 91.  At 91, before the unlock sweep, persist 14
    # of epoch 2 arrives and completes its tuple; that is no change to epoch
    # 1, which completes in the sweep.  Completed at the arrival, epoch 1
    # would drain first, the freed WPQ slot would admit persist 17 before the
    # dispatch of cycle 91, its updates would take both MAC units, and
    # persist 16's root update would slip to 92.
    latency = LatencyConfig(mac_latency=0, cache_hit=0, cache_fill=5, wpq_enqueue=40, drain_interval=1)
    params = SimParams(scheme="coalesce", arity=3, levels=3, wpq_capacity=8, ett_capacity=3, mac_units=2,
                       latency=latency)
    text = trace_text(0xD00, 0x2400, 0x2B00, 0xA40, 0x4200, 0x39C0, 0x2980, 0x3600, 0x1D80, "F",
                      0x3F80, 0x2FC0, 0x1200, 0x2980, "F", 0x4A00, 0x3340, 0x4BC0, 0x100, 0x3700)
    sim = Simulator(params, parse(text))
    run_until_idle(sim)
    assert sim.epoch_completion == {0: 90, 1: 91, 2: 131}
    assert [sim.wpq_entries[pid].root_done_cycle for pid in (14, 16, 17)] == [62, 91, 92]

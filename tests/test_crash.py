import random

import pytest

from nvmsim import (
    SCHEMES,
    CrashPlan,
    GenSpec,
    LatencyConfig,
    SimParams,
    Simulator,
    check_prefix_consistency,
    crash,
    generate,
    parse,
    recover,
    run_until_idle,
)
from nvmsim.bmt import rebuild_from_counters
from nvmsim.crash import TUPLE_COMPONENTS, DurableSnapshot, Violation
from nvmsim.engine import EPOCH_SCHEMES

from conftest import page_addr, random_trace_text, run_sim, trace_text
from oracles import replay_plaintext_prefix
from test_schedule_lock import case_simulator, cases

# each tuple-omission row's failures at the omitted block
OMISSION_EXPECTED = {
    "root": {"bmt-failure"},
    "mac": {"mac-failure"},
    "counter": {"wrong-plaintext", "mac-failure", "bmt-failure"},
    "ciphertext": {"wrong-plaintext", "mac-failure"},
}


def test_omission_needs_a_completed_persist():
    sim = Simulator(SimParams(scheme="sequential", levels=4, ideal_caches=True), parse("S 0x0\nS 0x1000\n"))
    while len(sim.wpq_entries) < 2:
        cycle, _kind, _seq, handler, payload = sim.events.pop()
        sim.clock = cycle
        handler(payload)
    assert sim.wpq_entries[1].complete_cycle is None and sim.outstanding_persists() == [0, 1]
    with pytest.raises(ValueError, match="never completed"):
        crash(sim, CrashPlan("tuple-omission", persist_id=1, component="mac"))
    with pytest.raises(ValueError, match="no such persist"):
        crash(sim, CrashPlan("tuple-omission", persist_id=2, component="mac"))


def test_omission_plan_takes_no_cycle():
    sim = run_sim("sequential", trace_text(page_addr(0), page_addr(1)))
    # under strict persistency a tuple is durable from its persist's completion
    plan = CrashPlan("tuple-omission", persist_id=0, component="mac")
    assert crash(sim, plan).crash_cycle == sim.completion_cycle(0)
    with pytest.raises(ValueError, match="takes no cycle"):
        CrashPlan("tuple-omission", cycle=5, persist_id=0, component="mac")


def test_ep_omission_cuts_once_the_tuple_is_durable():
    # persist 1 completes at cycle 1, but its epoch unlocks only at cycle 2,
    # so a cut at its completion holds no component of its tuple
    sim = case_simulator(dict(scheme="ooo", arity=2, capacity=64, cache_kb=0, mac_units=0, fence=1, latency="enq0"))
    run_until_idle(sim)
    entry = sim.wpq_entries[1]
    addr = entry.addr.value
    assert (entry.complete_cycle, entry.durable_cycle) == (1, 2)
    at_completion = recover(crash(sim, CrashPlan("at-cycle", cycle=1)), sim.keys, sim.geometry)
    with pytest.raises(ValueError, match=f"block {addr:#x} has no durable component at the cut, cycle 1"):
        at_completion.verdict_set(addr)
    for comp, want in OMISSION_EXPECTED.items():
        snapshot = crash(sim, CrashPlan("tuple-omission", persist_id=1, component=comp))
        assert snapshot.crash_cycle == 2, comp
        assert want <= recover(snapshot, sim.keys, sim.geometry).verdict_set(addr), comp


@pytest.mark.parametrize("scheme", EPOCH_SCHEMES)
def test_every_ep_omission_plan_has_a_verdict(scheme):
    # every persist of every epoch-scheme schedule-lock case, every component
    for case in cases(scheme):
        sim = case_simulator(case)
        run_until_idle(sim)
        for entry in sim.wpq_entries:
            for comp in TUPLE_COMPONENTS:
                snapshot = crash(sim, CrashPlan("tuple-omission", persist_id=entry.pid, component=comp))
                assert snapshot.crash_cycle == max(entry.complete_cycle, entry.durable_cycle)
                recover(snapshot, sim.keys, sim.geometry).verdict_set(entry.addr.value)


def test_crash_plan_validation():
    with pytest.raises(ValueError):
        CrashPlan("bogus")
    with pytest.raises(ValueError):
        CrashPlan("at-cycle")
    with pytest.raises(ValueError):
        CrashPlan("tuple-omission", persist_id=0, component="x")
    with pytest.raises(ValueError):
        CrashPlan("epoch-boundary")


def test_crash_after_everything_is_final_state():
    sim = run_sim("sequential", trace_text(page_addr(0), page_addr(1), page_addr(0, 2)))
    snap = crash(sim, CrashPlan("at-cycle", cycle=sim.clock))
    report = recover(snap, sim.keys, sim.geometry)
    assert report.bmt_ok
    recovered = {addr: plain for addr, plain in report.plaintexts.items() if not report.verdicts[addr]}
    assert recovered == replay_plaintext_prefix(sim.golden, len(sim.golden))


def test_sp_mid_persist_crash_is_atomic():
    sim = run_sim("sequential", trace_text(page_addr(0), page_addr(1)))
    # crash while persist 1 is mid-path: after its submission, before completion
    cut = sim.completion_cycle(0) + 10
    assert cut < sim.completion_cycle(1)
    snap = crash(sim, CrashPlan("at-cycle", cycle=cut))
    addr1 = sim.golden.log[1].addr.value
    assert addr1 not in snap.data
    assert addr1 not in snap.macs
    report = recover(snap, sim.keys, sim.geometry)
    assert report.bmt_ok
    assert check_prefix_consistency(report, sim.golden).matched == 1


def test_nonexistent_persist_rejected():
    sim = run_sim("sequential", trace_text(page_addr(0)))
    with pytest.raises(ValueError):
        crash(sim, CrashPlan("tuple-omission", persist_id=99, component="root"))


def test_omission_matrix_rows():
    sim = run_sim("sequential", trace_text(page_addr(0), page_addr(1), page_addr(2)))
    target = 2
    addr = sim.golden.log[target].addr.value
    for comp, want in OMISSION_EXPECTED.items():
        plan = CrashPlan("tuple-omission", persist_id=target, component=comp)
        report = recover(crash(sim, plan), sim.keys, sim.geometry)
        assert report.verdict_set(addr) == want, comp
        # the other blocks never gain MAC or plaintext failures
        for other in (sim.golden.log[0].addr.value, sim.golden.log[1].addr.value):
            assert "mac-failure" not in report.verdict_set(other)
            assert "wrong-plaintext" not in report.verdict_set(other)


def test_verdict_of_a_block_with_nothing_durable_names_it_and_the_cut():
    sim = run_sim("sequential", trace_text(page_addr(0), page_addr(1)))
    cut = sim.completion_cycle(0) + 10  # persist 1 is mid-path: none of its tuple is durable
    report = recover(crash(sim, CrashPlan("at-cycle", cycle=cut)), sim.keys, sim.geometry)
    addr = sim.golden.log[1].addr.value
    assert report.verdict_set(sim.golden.log[0].addr.value) == frozenset()
    with pytest.raises(ValueError, match=f"block {addr:#x} has no durable component at the cut, cycle {cut}"):
        report.verdict_set(addr)


def test_omitted_component_leaves_rest_durable():
    sim = run_sim("sequential", trace_text(page_addr(0)))
    snap = crash(sim, CrashPlan("tuple-omission", persist_id=0, component="mac"))
    addr = sim.golden.log[0].addr.value
    assert addr in snap.data
    assert addr not in snap.macs
    assert snap.counters


def test_sp_prefix_sweep_random(rng):
    for trial in range(5):
        text = random_trace_text(rng, 20, 4)
        sim = run_sim("sequential", text)
        last_matched = -1
        for cycle in sorted(rng.randrange(sim.clock + 1) for _ in range(60)):
            report = recover(
                crash(sim, CrashPlan("at-cycle", cycle=cycle)), sim.keys, sim.geometry
            )
            res = check_prefix_consistency(report, sim.golden)
            assert res.ok, res.violation
            assert report.plaintexts == replay_plaintext_prefix(sim.golden, res.matched)
            assert res.matched >= last_matched  # prefix index non-decreasing
            last_matched = res.matched


def test_ep_boundary_crash_recovers_boundary_state(rng):
    text = random_trace_text(rng, 24, 4, fence_every=6)
    sim = run_sim("ooo", text)
    for epoch in sim.epoch_completion:
        snap = crash(sim, CrashPlan("epoch-boundary", epoch=epoch))
        report = recover(snap, sim.keys, sim.geometry)
        assert report.bmt_ok
        assert not report.snapshot.incomplete_epochs
        assert report.plaintexts == sim.golden.state_at_epoch_end(epoch)
        res = check_prefix_consistency(report, sim.golden)
        assert res.ok and res.matched == epoch


def test_ep_random_crashes_never_violate(rng):
    for trial in range(4):
        text = random_trace_text(rng, 30, 5, fence_every=7)
        sim = run_sim("coalesce" if trial % 2 else "ooo", text)
        for _ in range(80):
            cycle = rng.randrange(sim.clock + 1)
            report = recover(
                crash(sim, CrashPlan("at-cycle", cycle=cycle)), sim.keys, sim.geometry
            )
            res = check_prefix_consistency(report, sim.golden)
            assert res.ok, (cycle, res.violation)


def test_recovery_ignores_volatile_state(rng):
    # cut a coalesce run that is still in flight: an epoch has completed,
    # two are live and the younger live one already has a tuple in the WPQ
    text = random_trace_text(rng, 40, 3, fence_every=4)
    sim = Simulator(SimParams(scheme="coalesce", levels=4, ideal_caches=True), parse(text))

    def in_flight():
        live = sim.ett
        return (sim.epoch_completion and len(live) >= 2 and sim.ptt_order
                and any(sim.wpq_entries[pid].arrival_cycle is not None
                        for pid in range(live[1].first_pid, live[1].end_pid)))

    while not in_flight():
        cycle, _kind, _seq, handler, payload = sim.events.pop()
        sim.clock = cycle
        handler(payload)
    cuts = (sim.clock // 2, sim.clock)
    before = [recover(crash(sim, CrashPlan("at-cycle", cycle=cut)), sim.keys, sim.geometry) for cut in cuts]
    assert any(r.snapshot.incomplete_epochs for r in before)
    # wreck every volatile structure, then recover again
    sim.counter_cache.flush_volatile()
    sim.bmt_cache.flush_volatile()
    sim.mac_cache.flush_volatile()
    sim.ptt_order.clear()
    sim.ett.clear()
    sim.bmt.values.clear()
    after = [recover(crash(sim, CrashPlan("at-cycle", cycle=cut)), sim.keys, sim.geometry) for cut in cuts]
    for report_a, report_b in zip(before, after):
        assert report_a.as_dict() == report_b.as_dict()
        assert report_a.plaintexts == report_b.plaintexts


@pytest.mark.parametrize("scheme", ["sequential", "coalesce"])
def test_crash_leaves_the_run_unchanged(scheme):
    text = trace_text(*[page_addr(i % 3, i) for i in range(9)])
    sim = run_sim(scheme, text, ideal_caches=False)
    page = sim.golden.log[0].addr.page
    assert sim.counter_cache.contains(page)
    before = sim.stats_dict()
    for cycle in (0, sim.clock // 2, sim.clock):
        crash(sim, CrashPlan("at-cycle", cycle=cycle))
    crash(sim, CrashPlan("tuple-omission", persist_id=0, component="counter"))
    assert sim.counter_cache.contains(page)
    assert sim.stats_dict() == before


def younger_tuple_only(sim, root_register=None):
    """The durable state a scheduler leaves that persisted the younger of two
    tuples and nothing of the older one; by default under the run's final root."""
    rec1 = sim.golden.log[1]
    entry1 = sim.wpq_entries[1]
    counters = {rec1.addr.page: entry1.counter_block}
    return DurableSnapshot(
        crash_cycle=sim.clock,
        persistency="SP",
        data={rec1.addr.value: entry1.ciphertext},
        counters=counters,
        macs={rec1.addr.value: entry1.mac},
        root_register=sim.bmt.root_register if root_register is None else root_register,
        expected_plain={rec1.addr.value: rec1.plaintext},
        completed_epochs=set(),
        incomplete_epochs=set(),
        excluded_addrs=set(),
    )


def test_adversarial_root_reorder_detected():
    # a scheduler that persisted the younger tuple but not the older one:
    # recovered state matches no persist-order prefix
    sim = run_sim("sequential", trace_text(page_addr(0), page_addr(1)))
    report = recover(younger_tuple_only(sim), sim.keys, sim.geometry)
    res = check_prefix_consistency(report, sim.golden)
    assert not res.ok
    assert isinstance(res.violation, Violation)


def test_clean_blocks_out_of_persist_order_violate_persist_order():
    # the same state under a root over the younger counter alone: every block
    # verifies, yet the recovered state matches no persist-order prefix
    sim = run_sim("sequential", trace_text(page_addr(0), page_addr(1)))
    counters = younger_tuple_only(sim).counters
    root = rebuild_from_counters(counters, sim.geometry, sim.keys).root()
    report = recover(younger_tuple_only(sim, root), sim.keys, sim.geometry)
    assert report.bmt_ok and not any(report.verdicts.values())
    res = check_prefix_consistency(report, sim.golden)
    assert not res.ok and res.matched is None
    assert res.violation.invariant == "persist-order" and "blocks=1" in res.violation.detail


def verdict_at(params, spec, cut):
    sim = Simulator(params, generate(spec))
    run_until_idle(sim)
    report = recover(crash(sim, CrashPlan("at-cycle", cycle=cut)), sim.keys, sim.geometry)
    return check_prefix_consistency(report, sim.golden)


def test_sp_root_lands_no_earlier_than_its_tuple():
    # with a MAC latency of 0 a root could commit a cycle before its tuple
    # arrived, so a cut between the two held a root over a counter block not
    # yet durable; the root update now waits for the tuple
    params = SimParams(scheme="sequential", arity=2, levels=4, cache_kb=1, latency=LatencyConfig(
        mac_latency=0, cache_hit=0, cache_fill=0, wpq_enqueue=1, drain_interval=1))
    result = verdict_at(params, GenSpec(store_count=36, pages=8, run_length=2, fence_interval=3, seed=8), 1)
    assert result.ok, result.violation  # failed with crash-recovery-tuple


@pytest.mark.parametrize("scheme", ["sequential", "pipeline"])
def test_sp_recovers_a_prefix_at_every_cut(scheme):
    # seeded small configurations, mostly at a MAC latency of 0 and with
    # tuples that arrive late, cut at every cycle where durable state changes
    for seed in range(100):
        rng = random.Random(seed)
        arity = rng.choice((2, 3, 8))
        latency = LatencyConfig(mac_latency=rng.choice((0, 0, 1, 40)), cache_hit=rng.choice((0, 2)),
                                cache_fill=rng.choice((0, 5, 200)), wpq_enqueue=rng.choice((0, 1, 3, 10)),
                                drain_interval=rng.choice((1, 8)))
        params = SimParams(scheme=scheme, arity=arity, levels={2: 6, 3: 5, 8: 4}[arity], latency=latency,
                           ideal_caches=rng.random() < 0.5, cache_kb=1, wpq_capacity=rng.choice((2, 8, 128)),
                           ptt_capacity=rng.choice((1, 4, 64)), seed=seed)
        spec = GenSpec(store_count=rng.randrange(5, 41), pages=rng.choice((2, 8, 32)),
                       run_length=rng.randrange(1, 4), fence_interval=rng.randrange(4), seed=seed)
        sim = Simulator(params, generate(spec))
        run_until_idle(sim)
        record = sim.record
        assert all(cycle >= record.arrival[pid] for cycle, pid in zip(record.root_cycle, record.root_pid)), seed
        for cut in sorted({0, sim.clock, *record.durable, *record.root_cycle}):
            report = recover(crash(sim, CrashPlan("at-cycle", cycle=cut)), sim.keys, sim.geometry)
            result = check_prefix_consistency(report, sim.golden)
            assert result.ok, (seed, cut, result.violation)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an older epoch's root update reads a node a younger, locked epoch committed")
def test_ep_root_covers_no_locked_epoch():
    # persist 24 (epoch 12) commits its leaf at 46, persist 23 (epoch 11, the
    # sibling leaf) reads it from 47 and commits the root at 51, when epoch 11
    # completes; persist 24 is durable only from its unlock at 52
    params = SimParams(scheme="ooo", arity=2, levels=4, wpq_capacity=4, ptt_capacity=5, ett_capacity=4,
                       mac_units=2, ideal_caches=True,
                       latency=LatencyConfig(mac_latency=1, cache_hit=0, wpq_enqueue=0, drain_interval=1))
    result = verdict_at(params, GenSpec(store_count=34, pages=8, run_length=1, fence_interval=2, seed=5846), 51)
    assert result.ok, result.violation  # fails with tree root mismatch at a clean epoch boundary


def test_report_serializable():
    sim = run_sim("sequential", trace_text(page_addr(0)))
    report = recover(crash(sim, CrashPlan("at-cycle", cycle=sim.clock)), sim.keys, sim.geometry)
    check_prefix_consistency(report, sim.golden)
    d = report.as_dict()
    import json

    assert json.loads(json.dumps(d)) == d


def reference_durable_pids(sim, cut):
    """Pids durable at ``cut``, folded from the run's record by a walk over
    the epochs: under SP an entry is durable once its tuple completed,
    under EP once its tuple arrived and its epoch is unlocked, which the
    oldest epoch with members is from the start and every later one a cycle
    after its predecessor completed.  The record's cycle columns read
    ``NEVER``, later than any cut, until their event happens."""
    record = sim.record
    durable = set()
    epoch = done = None
    unlocked = False
    for pid, (entry_epoch, arrival, root_done) in enumerate(zip(record.epoch, record.arrival, record.root_done)):
        if sim.is_ep:
            if entry_epoch != epoch:
                unlocked = epoch is None or (done is not None and done + 1 <= cut)
                epoch = entry_epoch
                done = sim.epoch_completion.get(epoch)
            if unlocked and arrival <= cut:
                durable.add(pid)
        elif max(arrival, root_done) <= cut:
            durable.add(pid)
    return durable


@pytest.mark.parametrize("scheme", SCHEMES)
def test_durable_cycle_matches_the_epoch_walk(scheme):
    for case in cases(scheme):
        sim = case_simulator(case)
        last = set()

        def check(cut):
            nonlocal last
            want = reference_durable_pids(sim, cut)
            got = {pid for pid, durable in enumerate(sim.record.durable) if durable <= cut}
            assert got == want, (case, cut)
            if want != last:
                # the youngest durable writer of each block is what crash() keeps
                image = {entry.addr.value: entry.ciphertext for entry in map(sim.wpq_entries.__getitem__, sorted(want))}
                assert crash(sim, CrashPlan("at-cycle", cycle=cut)).data == image, (case, cut)
                last = want

        while sim.events:
            cycle, _kind, _seq, handler, payload = sim.events.pop()
            if cycle > sim.clock:
                check(sim.clock)  # every event of that cycle has fired
            sim.clock = cycle
            handler(payload)
        check(sim.clock)
        for entry in sim.wpq_entries:
            if sim.is_ep:
                assert entry.durable_cycle == max(entry.arrival_cycle, sim.unlock_cycle(entry.epoch))
            else:
                # an SP root update waits for its tuple, so the persist
                # completes, and is queued to drain, at its root effect
                assert entry.root_done_cycle >= entry.arrival_cycle
                assert entry.durable_cycle == entry.root_done_cycle == entry.complete_cycle
            assert entry.drained_cycle >= entry.durable_cycle

from collections import defaultdict

import pytest

from nvmsim import DeadlockError, LatencyConfig, SimParams, Simulator, parse, run_until_idle

from conftest import page_addr, run_sim, trace_text


def test_single_epoch_gap_one_cycle():
    sim = run_sim("ooo", trace_text(*[page_addr(i) for i in range(12)]), levels=9)
    comps = [sim.completion_cycle(i) for i in range(12)]
    gaps = {b - a for a, b in zip(comps, comps[1:])}
    assert gaps == {1}


def _prewarm_page(sim, page):
    sim.counter_cache.access(page)
    for label in sim.geometry.update_path(sim.geometry.leaf_for_page(page)):
        sim.bmt_cache.access(label)


def test_miss_does_not_delay_independent_persist():
    # same epoch: persist 0 is cold (page 0), persist 1's whole path is warm
    # (page 64, a disjoint subtree); out-of-order lets the warm one finish
    # first while in-order pipelining keeps it stuck behind the miss
    text = trace_text(page_addr(0), page_addr(64))
    sim = Simulator(SimParams(scheme="ooo", levels=4, ideal_caches=False), parse(text))
    _prewarm_page(sim, 64)
    run_until_idle(sim)
    assert sim.completion_cycle(1) < sim.completion_cycle(0)

    pipe = Simulator(SimParams(scheme="pipeline", levels=4, ideal_caches=False), parse(text))
    _prewarm_page(pipe, 64)
    run_until_idle(pipe)
    assert pipe.completion_cycle(1) > pipe.completion_cycle(0)


def test_intra_epoch_root_deterministic():
    text = trace_text(page_addr(0), page_addr(1), page_addr(0, 3))
    a = run_sim("ooo", text)
    b = run_sim("sequential", text)
    assert a.bmt.root_register == b.bmt.root_register


def test_levels_never_shared_across_epochs():
    text = trace_text(
        page_addr(0), page_addr(1), "F", page_addr(2), page_addr(3), "F", page_addr(0, 5)
    )
    sim = run_sim("ooo", text, levels=4)
    per_level = defaultdict(list)
    for start, end, _pid, epoch, _label, level in sim.update_log:
        per_level[level].append((start, end, epoch))
    for level, records in per_level.items():
        records.sort()
        for (s1, e1, ep1), (s2, e2, ep2) in zip(records, records[1:]):
            if ep1 != ep2:
                assert ep1 < ep2
                assert s2 >= e1  # older epoch fully vacated the level first


def test_epoch_blocked_until_level_vacated():
    text = trace_text(page_addr(0), "F", page_addr(1))
    sim = run_sim("ooo", text, levels=4)
    logs = {(pid, level): (start, end) for start, end, pid, _e, _l, level in sim.update_log}
    for level in range(2, sim.geometry.levels + 1):
        # epoch 1's update of a level starts only after epoch 0 left it
        assert logs[(1, level)][0] >= logs[(0, level)][1]


def test_ett_capacity_stalls_third_epoch():
    text = trace_text(page_addr(0), "F", page_addr(1), "F", page_addr(2))
    sim = run_sim("ooo", text, levels=4, ett_capacity=2)
    assert sim.stats["stall_cycles"]["ett_full"] > 0
    # with room for three epochs there is no such stall
    sim2 = run_sim("ooo", text, levels=4, ett_capacity=3)
    assert sim2.stats["stall_cycles"]["ett_full"] == 0


def test_empty_epoch_retires_immediately():
    text = "S 0x0\nF\nF\nF\nS 0x1000\n"
    sim = run_sim("ooo", text, levels=4)
    assert sim.stats_dict()["persists_completed"] == 2
    assert sorted(sim.epoch_members) == [0, 3]


def test_mid_epoch_entry_drains_before_epoch_completes():
    # one epoch, many persists: early entries drain while later ones are
    # still climbing; next-epoch entries wait for the boundary
    text = trace_text(*([page_addr(i % 2, i % 11) for i in range(10)] + ["F", page_addr(3)]))
    sim = run_sim("ooo", text, levels=4, latency=LatencyConfig(drain_interval=1))
    first_epoch_drains = [e.drained_cycle for e in sim.wpq_entries if e.epoch == 0]
    assert min(d for d in first_epoch_drains if d is not None) < sim.epoch_completion[0]
    late = sim.wpq_entries[-1]
    assert late.epoch == 1
    assert late.drained_cycle is None or late.drained_cycle > sim.epoch_completion[0]


def test_sp_entry_never_drains_incomplete():
    sim = run_sim("sequential", trace_text(page_addr(0), page_addr(1)))
    for entry in sim.wpq_entries:
        assert entry.drained_cycle is None or entry.drained_cycle >= entry.complete_cycle


def test_wpq_backpressure_stalls_submission():
    text = trace_text(*[page_addr(i % 2, i % 13) for i in range(24)])
    sim = run_sim(
        "ooo",
        text,
        levels=4,
        wpq_capacity=4,
        latency=LatencyConfig(drain_interval=64),
    )
    assert sim.stats["stall_cycles"]["wpq_full"] > 0
    assert sim.stats_dict()["persists_completed"] == 24  # backpressure, no loss


def test_ptt_backpressure():
    sim = run_sim("ooo", trace_text(*[page_addr(i % 3) for i in range(12)]), levels=4, ptt_capacity=2)
    assert sim.stats["stall_cycles"]["ptt_full"] > 0
    assert sim.stats_dict()["persists_completed"] == 12


class LostTupleSimulator(Simulator):
    """A run whose memory tuples never reach the WPQ."""

    def _ev_arrival(self, pid) -> None:
        pass


def test_deadlock_detector_fires_on_orphan():
    # a stuck tuple: the root update persists the store, its tuple never arrives
    sim = LostTupleSimulator(SimParams(scheme="ooo", levels=4, ideal_caches=True), parse("S 0x0\n"))
    with pytest.raises(DeadlockError):
        run_until_idle(sim)
    assert sim.wpq_entries[0].root_done_cycle is not None and sim.outstanding_persists() == [0]


def test_deadlock_report_dumps_the_tables():
    # a persist lost from the ready set never issues again; the report
    # names it in the PTT dump, next to the ETT, ready set and WPQ
    sim = Simulator(SimParams(scheme="ooo", levels=4, ideal_caches=True), parse("S 0x0\nS 0x1000\n"))
    while not sim.waiting:
        cycle, _kind, _seq, handler, payload = sim.events.pop()
        sim.clock = cycle
        handler(payload)
    stuck = sim.waiting.pop(0)
    with pytest.raises(DeadlockError) as info:
        run_until_idle(sim)
    report = str(info.value)
    assert f"ptt pid {stuck.pid} epoch 0 next_idx 0 inflight False" in report
    assert "ett epoch 0" in report and "waiting pids" in report and "drain heap" in report

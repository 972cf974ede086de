import random

import pytest

from nvmsim import LatencyConfig, SCHEMES, SimParams, Simulator, parse, rebuild_from_counters, run_until_idle
from nvmsim.timing import DeadlockError

from conftest import page_addr, random_trace_text, run_sim, trace_text


def test_sim_params_validation():
    import pytest

    for bad in (dict(scheme="warp"), dict(wpq_capacity=0), dict(ptt_capacity=0),
                dict(ett_capacity=0), dict(mac_units=-1)):
        with pytest.raises(ValueError):
            SimParams(**bad)
    params = SimParams(scheme="ooo")
    assert params.scheme == "ooo" and params.ett_capacity == 2


def test_pad_seeds_unique_over_run(rng):
    # temporal + spatial uniqueness: no (addr, counter) pair is ever reused
    text = random_trace_text(rng, 60, 3)
    sim = run_sim("ooo", text)
    seeds = [(e.addr.value, e.counter_block.effective(e.addr.block_in_page)) for e in sim.wpq_entries]
    assert len(seeds) == len(set(seeds))


def test_sp_drain_order_respects_persist_order():
    sim = run_sim("sequential", trace_text(*[page_addr(i % 4) for i in range(10)]))
    drains = [(e.drained_cycle, e.pid) for e in sim.wpq_entries]
    assert all(d is not None for d, _ in drains)
    assert drains == sorted(drains)
    # one drain per interval
    cycles = sorted(d for d, _ in drains)
    assert all(b - a >= sim.latency.drain_interval for a, b in zip(cycles, cycles[1:]))


def test_mac_unit_count_throttles_ooo():
    # short MAC latency makes issues at different levels collide in a cycle,
    # so a single shared unit is a real bottleneck
    text = trace_text(*[page_addr(i) for i in range(20)])
    lat = LatencyConfig(mac_latency=10)
    free = run_sim("ooo", text, levels=4, latency=lat)
    throttled = run_sim("ooo", text, levels=4, latency=lat, mac_units=1)
    assert throttled.last_completion_cycle() > free.last_completion_cycle()
    assert throttled.bmt.root_register == free.bmt.root_register


def test_wpq_entry_states():
    sim = run_sim("sequential", trace_text(page_addr(0)))
    entry = sim.wpq_entries[0]
    assert entry.arrival_cycle is not None
    assert entry.complete_cycle is not None
    assert entry.root_done_cycle is not None
    assert entry.drained_cycle is not None


def test_stress_fuzz_all_schemes_terminate_and_agree():
    # random capacities, real caches, fences: every scheme terminates, roots
    # agree with a full rebuild, and reruns are bit-identical
    rng = random.Random(77)
    for trial in range(15):
        text = random_trace_text(rng, rng.randrange(5, 40), rng.randrange(1, 6),
                                 fence_every=rng.choice([0, 3, 7]))
        params = dict(
            levels=rng.choice([3, 4]),
            ideal_caches=rng.random() < 0.5,
            wpq_capacity=rng.choice([4, 16, 128]),
            ptt_capacity=rng.choice([2, 8, 64]),
            ett_capacity=rng.choice([2, 3]),
            latency=LatencyConfig(
                mac_latency=rng.choice([10, 40]),
                drain_interval=rng.choice([1, 8, 32]),
            ),
            seed=trial,
        )
        roots = set()
        for scheme in SCHEMES:
            sim = Simulator(SimParams(scheme=scheme, **params), parse(text))
            run_until_idle(sim)
            rebuilt = rebuild_from_counters(sim.counters, sim.geometry, sim.keys)
            assert sim.bmt.root_register == rebuilt.root(), (scheme, trial)
            roots.add(sim.bmt.root_register)
            again = Simulator(SimParams(scheme=scheme, **params), parse(text))
            run_until_idle(again)
            assert again.update_log == sim.update_log
        assert len(roots) == 1, trial


def test_deep_tree_update_log_follows_the_update_path():
    # labels near 8**1099 do not fit a machine word; the log view rebuilds them
    sim = run_sim("sequential", trace_text(page_addr(12345, 3)), levels=1100)
    leaf = sim.geometry.leaf_for_page(12345)
    log = sim.update_log
    assert len(log) == 1100
    assert [label for *_, label, _level in log] == sim.geometry.update_path(leaf)
    assert [level for *_, level in log] == list(range(1100, 0, -1))
    assert log[-1][4] == 0 and log[0][4] > 8 ** 1098
    assert {(pid, epoch) for _s, _e, pid, epoch, _l, _lv in log} == {(0, 0)}


def test_update_log_view_follows_a_run_in_flight(rng):
    text = random_trace_text(rng, 20, 4, fence_every=3)
    whole = run_sim("coalesce", text)
    sim = Simulator(SimParams(scheme="coalesce", levels=4, ideal_caches=True), parse(text))
    seen = []
    while sim.events:
        cycle, _kind, _seq, handler, payload = sim.events.pop()
        sim.clock = cycle
        handler(payload)
        seen.append(len(sim.update_log))
    assert 0 < seen[len(seen) // 2] < seen[-1]
    assert sim.update_log == whole.update_log


def test_deadlock_report_dumps_the_tracking_tables():
    # with no tuple ever arriving, no epoch completes: two fill the ETT and
    # the third epoch's stores are never submitted
    text = random_trace_text(random.Random(1), 12, 4, fence_every=4)
    sim = Simulator(SimParams(scheme="ooo", levels=4, ideal_caches=True), parse(text))
    sim._ev_arrival = lambda pid: None
    with pytest.raises(DeadlockError) as raised:
        run_until_idle(sim)
    lines = str(raised.value).splitlines()
    assert "with 8 persists outstanding ([0, 1, 2, 3, 4, 5, 6, 7]) and 4 trace events unsubmitted" in lines[0]
    assert [line for line in lines if line.startswith("ett epoch")] == [
        "ett epoch 0 pids 0..3 done_pid 0 deepest 0 held by 0 older 0",
        "ett epoch 1 pids 4..7 done_pid 4 deepest 0 held by 0 older 0",
    ]
    assert lines[-2:] == ["waiting pids []", "wpq 8 of 128 occupied, 0 in the drain heap"]

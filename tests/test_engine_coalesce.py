import random

from nvmsim import LatencyConfig, SimParams, Simulator, parse, rebuild_from_counters, run_until_idle
from nvmsim.bmt import BmtGeometry
from nvmsim.engine import PttEntry

from conftest import page_addr, random_trace_text, run_sim, trace_text
from oracles import dedup_update_count
from test_epoch_watermark import step
from test_schedule_lock import case_simulator, cases

G4 = BmtGeometry(arity=8, levels=4)


def leaves_of(sim, pids):
    return [sim.geometry.leaf_for_page(sim.golden.log[pid].addr.page) for pid in pids]


def test_three_persist_merge_scenario():
    # pages 0 and 1 merge one level above the leaves, page 8 merges one level
    # higher: 7 node updates instead of 12
    text = trace_text(page_addr(0), page_addr(1), page_addr(8))
    sim = run_sim("coalesce", text)
    assert sim.stats["node_updates"] == 7
    assert sim.stats["coalesce_pairs"] == 2
    base = run_sim("ooo", text)
    assert base.stats["node_updates"] == 12
    assert sim.stats_dict()["root_updates"] == 1
    assert base.stats_dict()["root_updates"] == 3


def test_same_page_pair_single_traversal():
    text = trace_text(page_addr(0, 1), page_addr(0, 2))
    sim = run_sim("coalesce", text)
    # one full leaf-to-root traversal plus the leading persist's leaf update
    assert sim.stats["node_updates"] == sim.geometry.levels + 1
    assert sim.stats_dict()["root_updates"] == 1


def test_disjoint_subtrees_share_only_root():
    text = trace_text(page_addr(0), page_addr(64))
    sim = run_sim("coalesce", text)
    assert sim.stats["node_updates"] == 2 * (sim.geometry.levels - 1) + 1
    assert sim.stats_dict()["root_updates"] == 1


def test_no_coalescing_across_epochs():
    text = trace_text(page_addr(0, 1), "F", page_addr(0, 2))
    sim = run_sim("coalesce", text)
    assert sim.stats["coalesce_pairs"] == 0
    assert sim.stats["node_updates"] == 2 * sim.geometry.levels


def test_coalesce_count_matches_dedup_oracle(rng):
    for _ in range(30):
        stores = [page_addr(rng.randrange(12), rng.randrange(8)) for _ in range(rng.randrange(1, 12))]
        text = trace_text(*stores)
        sim = run_sim("coalesce", text)
        leaves = leaves_of(sim, range(len(stores)))
        assert sim.stats["node_updates"] == dedup_update_count(leaves, G4)


def test_coalesce_count_oracle_multi_epoch(rng):
    for _ in range(15):
        items = []
        for i in range(rng.randrange(4, 16)):
            if i and i % 4 == 0:
                items.append("F")
            items.append(page_addr(rng.randrange(6), rng.randrange(8)))
        sim = run_sim("coalesce", trace_text(*items))
        expected = 0
        by_epoch = {}
        for rec in sim.golden.log:
            by_epoch.setdefault(rec.epoch, []).append(
                sim.geometry.leaf_for_page(rec.addr.page)
            )
        for leaves in by_epoch.values():
            expected += dedup_update_count(leaves, G4)
        assert sim.stats["node_updates"] == expected


def test_conservation_vs_ooo(rng):
    for _ in range(20):
        items = []
        for i in range(rng.randrange(2, 20)):
            if i and rng.random() < 0.2:
                items.append("F")
            items.append(page_addr(rng.randrange(8), rng.randrange(16)))
        text = trace_text(*items)
        co = run_sim("coalesce", text)
        oo = run_sim("ooo", text)
        assert co.bmt.root_register == oo.bmt.root_register
        assert co.stats["node_updates"] <= oo.stats["node_updates"]


def test_final_root_matches_rebuild(rng):
    for _ in range(10):
        items = [page_addr(rng.randrange(5), rng.randrange(10)) for _ in range(12)]
        sim = run_sim("coalesce", trace_text(*items))
        rebuilt = rebuild_from_counters(sim.counters, sim.geometry, sim.keys)
        assert sim.bmt.root_register == rebuilt.root()


def test_leading_persist_completes_when_trailing_passes_merge():
    text = trace_text(page_addr(0), page_addr(1))  # merge at the shared parent
    sim = run_sim("coalesce", text)
    # the leading persist's root effect is delegated: it completes when the
    # trailing persist finishes the merge node, before the root is written
    root_cycle = sim.root_history[-1][0]
    assert sim.completion_cycle(0) < root_cycle
    assert sim.completion_cycle(1) == root_cycle


def test_trailing_waits_for_leader_below_merge():
    text = trace_text(page_addr(0), page_addr(1))
    sim = run_sim("coalesce", text)
    leader_leaf_end = next(
        end for _s, end, pid, _e, _label, level in sim.update_log if pid == 0 and level == 4
    )
    merge_start = next(
        start for start, _e, pid, _ep, label, _l in sim.update_log if pid == 1 and label == 9
    )
    assert merge_start >= leader_leaf_end


def test_chain_delegation_three_same_page():
    text = trace_text(page_addr(0, 1), page_addr(0, 2), page_addr(0, 3))
    sim = run_sim("coalesce", text)
    assert sim.stats["node_updates"] == sim.geometry.levels + 2
    assert sim.stats_dict()["root_updates"] == 1
    assert sim.stats["coalesce_pairs"] == 2


def below_done_runs():
    """Fresh coalesce simulators: every schedule-lock case, then seeded
    random shapes over arity, depth, capacities, caches, MAC units and fences."""
    yield from (case_simulator(case) for case in cases("coalesce"))
    rng = random.Random(31)
    latencies = (LatencyConfig(), LatencyConfig(mac_latency=0, cache_hit=0), LatencyConfig(mac_latency=10))
    for _ in range(24):
        params = SimParams(scheme="coalesce", arity=rng.choice((2, 3, 8)), levels=rng.choice((3, 4, 5)),
                           ptt_capacity=rng.choice((1, 2, 8, 64)), ett_capacity=rng.choice((1, 2, 3)),
                           ideal_caches=rng.random() < 0.5, cache_kb=1, mac_units=rng.randrange(3),
                           latency=rng.choice(latencies))
        pages = rng.randrange(1, min(9, params.geometry().leaf_count + 1))
        text = random_trace_text(rng, rng.randrange(8, 48), pages, rng.choice((0, 2, 5)))
        yield Simulator(params, parse(text))


def test_below_done_matches_the_update_log_at_every_event():
    # below_done is read from next_idx and inflight; the reference counts the
    # entry's committed updates, as the update log takes them, that lie deeper
    # than its merge level
    seen = set()
    for sim in below_done_runs():
        committed = {}  # pid -> levels of its committed updates

        def append(start, end, pid, level, k, log=sim.log.append, committed=committed):
            committed.setdefault(pid, []).append(level)
            log(start, end, pid, level, k)
        sim.log.append = append
        while sim.events:
            step(sim)
            for entry in sim.ptt_order:
                merge_level = sim.geometry.levels - entry.gate_count
                below = sum(level > merge_level for level in committed.get(entry.pid, ()))
                assert entry.below_done == (below >= entry.gate_count), (sim.params, sim.clock, entry.pid)
                if entry.gate_count < sim.geometry.levels:  # it leads a pair
                    seen.add(entry.below_done)
        assert not sim.outstanding_persists()
    assert seen == {False, True}


def three_branch_rule_pairs(prev, persisted, lca_level, levels):
    """The pairing rule before it became one comparison: no pair with a
    persisted predecessor, nor once its shallowest issued update is above
    the merge level, or at it unless the merge point is the leaf."""
    if persisted:
        return False
    if prev.next_idx > 0:
        shallowest_issued = levels - (prev.next_idx - 1)
        if shallowest_issued < lca_level:
            return False
        if shallowest_issued == lca_level and lca_level != levels:
            return False
    return True


def test_pairing_rule_matches_the_three_branch_rule():
    counts = {True: 0, False: 0}
    for levels in range(2, 7):
        sim = Simulator(SimParams(scheme="coalesce", arity=2, levels=levels, ideal_caches=True), [])
        geometry = sim.geometry
        paths = [geometry.update_path(geometry.leaf_for_page(page)) for page in range(geometry.leaf_count)]
        for lca_level in range(1, levels + 1):
            # the page whose leaf meets page 0's at lca_level
            other = next(p for p in paths if geometry.merge_level(paths[0], p) == lca_level)
            # every issued count, its last update in flight (so ``waiting`` is
            # not touched), then a persisted predecessor that issued its root
            for next_idx, persisted in [(n, False) for n in range(levels + 1)] + [(levels, True)]:
                prev = PttEntry(0, 0, paths[0], 0)
                prev.next_idx, prev.inflight = next_idx, not persisted
                new = PttEntry(1, 0, other, 0)
                want = three_branch_rule_pairs(prev, persisted, lca_level, levels)
                pairs_before = sim.stats["coalesce_pairs"]
                sim.coalesce_pair(new, prev)
                paired = sim.stats["coalesce_pairs"] > pairs_before
                assert paired == want, (levels, lca_level, next_idx, persisted)
                assert prev.gate_count == (levels - lca_level if paired else levels)
                assert new.obligations == ([(lca_level, prev)] if paired else [])
                counts[want] += 1
    assert counts == {True: 60, False: 70}

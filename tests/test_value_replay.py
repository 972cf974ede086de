"""Node values replayed from the update log against hashing at issue.

The engine computes no node value: each node update keeps its 24-byte log
record, whose key also counts the commits of its start cycle that came
before it issued, and ``Simulator._replay_values`` rebuilds every value
from the log on first read.  ``EagerTree`` is the engine's former value
path, kept here as the reference: it hashes each update from the live tree
when it issues (a leaf from its persist's counter block, as bumped at
submission) and commits the value when the update completes.  Root values,
``bmt.values``, the root register and crash verdicts must equal it.
"""

import random
from dataclasses import replace

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
    recover,
    run_until_idle,
)
from nvmsim.bmt import BmtState, _read_order
from nvmsim.cli import event_log_digest
from nvmsim.engine import KEY_MASK

from test_epoch_watermark import step
from test_schedule_lock import case_id, case_simulator, cases


class EagerTree:
    """Hashes every node update of ``sim`` at issue and commits it at
    completion, by wrapping the engine's submission, issue and commit."""

    def __init__(self, sim: Simulator) -> None:
        self.state = BmtState(sim.geometry, sim.keys)
        self.roots = []  # each root update's value, in commit order
        self.leaf_blocks = {}  # pid -> its counter block at submission, as bytes
        self.issued = {}  # (pid, level) -> value hashed at issue
        submit, issue, commit = sim._submit_store, sim._issue_update, sim._ev_mac_done
        levels = sim.geometry.levels

        def submit_store(store, epoch, now):
            submit(store, epoch, now)
            self.leaf_blocks[len(sim.record) - 1] = sim.counters[store.addr.page].to_block_bytes()

        def issue_update(entry, now):
            idx = entry.next_idx
            leaf = self.leaf_blocks[entry.pid] if idx == 0 else None
            self.issued[entry.pid, levels - idx] = self.state.compute_node(entry.path[idx], levels - idx, leaf)
            issue(entry, now)

        def mac_done(payload):
            entry, label, level = payload[:3]
            value = self.issued.pop((entry.pid, level))
            self.state.commit_node(label, value)
            if label == 0:
                self.state.root_register = value
                self.roots.append(value)
            commit(payload)

        sim._submit_store, sim._issue_update, sim._ev_mac_done = submit_store, issue_update, mac_done

    def register(self, sim: Simulator, cut: int, omitted=None) -> int:
        """The root register at ``cut``: the last root update committed by
        then, skipping those of persist ``omitted``."""
        kept = [value for cycle, pid, value in zip(sim.record.root_cycle, sim.record.root_pid, self.roots)
                if cycle <= cut and pid != omitted]
        return kept[-1] if kept else self.state.default_value(1)


def crash_verdicts(sim: Simulator, eager=None) -> list:
    """The register and recovery verdicts at three seeded cuts and, once the
    run has finished, at the last persist's root omission: as ``crash``
    folds them, from the replayed root values, or under the register
    ``eager`` hashed at issue.  A cut mid-run is before the current cycle,
    the last that the run has fully processed."""
    rng = random.Random(len(sim.record))
    horizon = sim.clock - 1 if sim.events else sim.clock
    plans = [CrashPlan("at-cycle", cycle=rng.randrange(horizon + 1)) for _ in range(3)]
    if len(sim.record) and not sim.events:
        plans.append(CrashPlan("tuple-omission", persist_id=len(sim.record) - 1, component="root"))
    out = []
    for plan in plans:
        snapshot = crash(sim, plan)
        if eager is not None:
            register = eager.register(sim, snapshot.crash_cycle, plan.persist_id)
            snapshot = replace(snapshot, root_register=register)
        report = recover(snapshot, sim.keys, sim.geometry)
        result = check_prefix_consistency(report, sim.golden)
        out.append([snapshot.root_register, report.as_dict(), result.ok, result.matched])
    return out


def assert_replay_matches(sim: Simulator, eager: EagerTree, label) -> None:
    assert list(sim.root_values()) == eager.roots, label
    assert [value for _cycle, _pid, value in sim.root_history] == eager.roots, label
    assert sim.bmt.values == eager.state.values, label
    assert sim.bmt.root_register == eager.state.root_register, label
    assert crash_verdicts(sim) == crash_verdicts(sim, eager), label


def run_with_reference(sim: Simulator) -> EagerTree:
    eager = EagerTree(sim)
    run_until_idle(sim)
    return eager


@pytest.mark.parametrize("scheme", SCHEMES)
def test_replay_matches_hashing_at_issue_on_schedule_lock_cases(scheme):
    for case in cases(scheme):
        sim = case_simulator(case)
        eager = run_with_reference(sim)
        assert_replay_matches(sim, eager, case_id(case))


def random_simulator(seed: int) -> Simulator:
    rng = random.Random(seed)
    arity = rng.choice((2, 3, 8))
    latency = LatencyConfig(mac_latency=rng.choice((0, 0, 1, 3, 40)), cache_hit=rng.choice((0, 2)),
                            cache_fill=rng.choice((0, 5, 200)), wpq_enqueue=rng.choice((0, 0, 1, 3)),
                            drain_interval=rng.choice((1, 8)))
    params = SimParams(scheme=rng.choice(SCHEMES), arity=arity, levels={2: 6, 3: 5, 8: 4}[arity],
                       latency=latency, wpq_capacity=rng.randint(1, 8), ptt_capacity=rng.randint(1, 8),
                       ett_capacity=rng.randint(1, 3), mac_units=rng.randrange(3), cache_kb=1,
                       ideal_caches=rng.random() < 0.5, seed=seed)
    spec = GenSpec(store_count=rng.randrange(5, 41), pages=rng.choice((1, 2, 8, 32)),
                   run_length=rng.randrange(1, 5), fence_interval=rng.randrange(6), seed=seed)
    return Simulator(params, generate(spec))


def test_replay_matches_hashing_at_issue_on_random_configurations():
    # a MAC latency of 0 and no enqueue delay let several commits land in
    # the cycle an update issues, before or after it
    same_cycle = 0
    for seed in range(240):
        sim = random_simulator(seed)
        eager = run_with_reference(sim)
        assert_replay_matches(sim, eager, (seed, sim.params))
        same_cycle += any(key & ~KEY_MASK for key in sim._updates[2::3])
    assert same_cycle >= 50, same_cycle


def test_read_order_sorts_a_chunk_at_a_time():
    # each count is at most its index and at least the index less a window,
    # which may span several chunks
    rng = random.Random(5)
    for _ in range(400):
        n, window, chunk = rng.randrange(60), rng.randrange(12), rng.randint(1, 9)
        before = [rng.randint(max(0, u - window), u) for u in range(n)]
        keys = [key for reads in _read_order(before, chunk) for key in reads]
        assert [(key >> 32, key & 0xFFFFFFFF) for key in keys] == sorted(zip(before, range(n)))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_replay_matches_hashing_at_issue_over_several_chunks_of_reads(scheme):
    # a MAC latency of 40 keeps many updates in flight, and the log is
    # longer than the 1,024 reads that the replay sorts at a time
    params = SimParams(scheme=scheme, levels=5, cache_kb=1, latency=LatencyConfig(mac_latency=40))
    sim = Simulator(params, generate(GenSpec(store_count=800, pages=64, run_length=3, fence_interval=6, seed=4)))
    eager = run_with_reference(sim)
    assert len(sim._updates) // 3 > 1024
    assert_replay_matches(sim, eager, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_read_while_updates_are_in_flight_replays_the_committed_ones(scheme):
    params = SimParams(scheme=scheme, arity=2, levels=5, ptt_capacity=4, cache_kb=1,
                       latency=LatencyConfig(mac_latency=0, cache_hit=0, wpq_enqueue=0, drain_interval=1))
    sim = Simulator(params, generate(GenSpec(store_count=60, pages=8, run_length=2, fence_interval=3, seed=9)))
    eager = EagerTree(sim)
    reads = 0
    while sim.events:
        step(sim)
        if sim.inflight_updates and len(sim.record.root_cycle) > reads * 5:
            # a read mid-run replays the commits so far; the run then goes on
            assert_replay_matches(sim, eager, (scheme, sim.clock))
            reads += 1
    assert reads >= 3 and not sim.outstanding_persists()
    assert_replay_matches(sim, eager, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_run_hashes_no_node(scheme, monkeypatch):
    events = generate(GenSpec(store_count=120, pages=16, run_length=3, fence_interval=5, seed=2))
    params = SimParams(scheme=scheme, levels=5, cache_kb=1)
    reference = Simulator(params, events)
    run_until_idle(reference)

    def refuse(*_args):
        raise AssertionError("a node was hashed")

    monkeypatch.setattr(BmtState, "compute_node", refuse)
    monkeypatch.setattr(BmtState, "replay", refuse)
    sim = Simulator(params, events)
    run_until_idle(sim)
    stats, digest = sim.stats_dict(), event_log_digest(sim)
    monkeypatch.undo()
    assert stats == reference.stats_dict() and digest == event_log_digest(reference)
    assert sim.bmt.root_register == reference.bmt.root_register

"""The ooo/coalesce dispatch against the PTT walk it replaced.

The engine dispatches from ``waiting``, the persists whose next update has
not issued, bounded by each epoch's ``older`` level.  ``reference_ooo_dispatch``
is the walk over the whole persist tracking table that it replaced, made
free of side effects.  At every dispatch of a run, the two must issue the
same updates in the same order and agree on whether a kick follows at
``now + 1``.  ``run_against_reference`` takes any such reference, so the
SP wave policy is checked the same way (``test_sp_dispatch.py``).
"""

import random

import pytest

from nvmsim import GenSpec, LatencyConfig, SimParams, Simulator, generate, run_until_idle
from nvmsim.engine import EPOCH_SCHEMES

from test_schedule_lock import case_id, case_simulator, cases


def reference_ooo_dispatch(sim, now):
    """What the PTT walk would do at ``now``: the ``(pid, level)`` updates it
    issues, in issue order, and the kicks it schedules: ``[now + 1]`` or none."""
    units = sim.params.mac_units
    levels = sim.geometry.levels
    last_issue = dict(sim.level_last_issue)
    issues = sim._issues_this_cycle if sim._issue_cycle == now else 0
    issued, kick = [], False
    # ptt_order is in epoch order, so one pass finds `older`, the deepest
    # level occupied by an epoch older than the entry's own
    epoch = None
    older = deepest = 0
    for entry in sim.ptt_order:
        if entry.epoch != epoch:
            epoch = entry.epoch
            older = deepest
            if older == levels:
                break  # no younger update can go deeper than a leaf
        # an unpersisted persist occupies the level of its update in
        # flight or, while its plan lasts, of the next one to issue
        idx = entry.next_idx - 1 if entry.inflight else entry.next_idx
        if idx >= (entry.gate_count or 1):  # past its plan
            continue
        level = levels - idx
        deepest = max(deepest, level)
        if entry.inflight or entry.ready_cycle > now or level <= older:
            continue
        if any(ob_level == level and not leader.below_done for ob_level, leader in entry.obligations):
            continue
        earliest = last_issue.get(level, -1) + 1
        if units > 0 and issues >= units:
            earliest = max(earliest, now + 1)
        if earliest > now:
            assert earliest == now + 1, (now, earliest)
            kick = True
            continue
        issued.append((entry.pid, level))
        last_issue[level] = now
        issues += 1
    return issued, [now + 1] if kick else []


def run_against_reference(sim, reference=reference_ooo_dispatch) -> int:
    """Run ``sim`` to idle, checking every dispatch against ``reference(sim,
    now)``, the ``(pid, level)`` updates it would issue, in issue order, and
    the cycles it would kick at; returns the number of dispatches that
    issued an update."""
    policy, issue, schedule_kick = sim._dispatch, sim._issue_update, sim._schedule_kick
    issued, kicks = [], []
    busy = 0

    def record_issue(entry, now):
        issued.append((entry.pid, sim.geometry.levels - entry.next_idx))
        issue(entry, now)

    def record_kick(cycle):
        kicks.append(cycle)
        schedule_kick(cycle)

    def dispatch(s, now):
        nonlocal busy
        expected = reference(s, now)
        issued.clear()
        kicks.clear()
        policy(s, now)
        assert (issued, kicks) == expected, (now, issued, kicks, expected)
        busy += bool(issued)

    sim._issue_update, sim._schedule_kick, sim._dispatch = record_issue, record_kick, dispatch
    run_until_idle(sim)
    assert not sim.waiting
    return busy


@pytest.mark.parametrize("scheme", EPOCH_SCHEMES)
def test_dispatch_matches_walk_on_schedule_lock_cases(scheme):
    for case in cases(scheme):
        assert run_against_reference(case_simulator(case)) > 0, case_id(case)


def random_simulator(seed: int) -> Simulator:
    rng = random.Random(seed)
    arity = rng.choice((2, 3, 8))
    params = SimParams(
        scheme=rng.choice(EPOCH_SCHEMES),
        arity=arity,
        levels={2: 5, 3: 4, 8: 4}[arity],
        wpq_capacity=rng.randint(2, 64),
        ptt_capacity=rng.randint(2, 64),
        ett_capacity=rng.randint(1, 4),
        mac_units=rng.randint(0, 2),
        cache_kb=1,
        ideal_caches=rng.random() < 0.5,
        latency=rng.choice((LatencyConfig(), LatencyConfig(mac_latency=0, cache_hit=0))),
    )
    trace = generate(GenSpec(store_count=rng.randint(20, 60), pages=rng.choice((4, 16)),
                             run_length=rng.randint(1, 4), fence_interval=rng.randint(0, 9),
                             seed=seed))
    return Simulator(params, trace)


def test_dispatch_matches_walk_on_random_configurations():
    for seed in range(200):
        assert run_against_reference(random_simulator(seed)) > 0, seed

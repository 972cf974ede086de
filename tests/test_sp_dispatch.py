"""The SP wave policy against the two policies it replaced.

``sequential`` and ``pipeline`` share one dispatch policy, ``_sp_dispatch``:
a wave of the started persists, which the first unstarted persist joins
only under ``pipeline`` or when the wave is empty.  The references below
are the two policies it replaced, made free of side effects.  At every
dispatch of a run, the policy must issue the same updates in the same
order and schedule the same kicks as the reference of its scheme.
"""

import random

import pytest

from nvmsim import GenSpec, LatencyConfig, SimParams, Simulator, generate
from nvmsim.model_core import NEVER

from test_ooo_dispatch import run_against_reference
from test_schedule_lock import case_id, case_simulator, cases

SP_SCHEMES = ("sequential", "pipeline")


def _waits_at_root(sim, entry) -> bool:
    return entry.next_idx == sim.geometry.levels - 1 and sim.record.arrival[entry.pid] == NEVER


def reference_sequential_dispatch(sim, now):
    """Only the head issues, once it is ready, and not while its update is in
    flight or its root update waits for its tuple: the ``(pid, level)``
    updates issued and the kick cycles scheduled."""
    if not sim.ptt_order:
        return [], []
    head = sim.ptt_order[0]
    if head.inflight or _waits_at_root(sim, head):
        return [], []
    if head.next_idx == 0 and head.ready_cycle > now:
        return [], [head.ready_cycle]
    return [(head.pid, sim.geometry.levels - head.next_idx)], []


def reference_pipeline_dispatch(sim, now):
    """When no update is in flight and the head does not wait at the root,
    every started persist issues and the first unstarted one joins once it
    is ready: the ``(pid, level)`` updates issued and the kick cycles
    scheduled."""
    order = sim.ptt_order
    # a walk, not the engine's in-flight counter, finds an update in flight
    if any(entry.inflight for entry in order) or (order and _waits_at_root(sim, order[0])):
        return [], []
    wave, kicks = [], []
    for entry in order:
        if entry.next_idx == 0:
            if entry.ready_cycle <= now:
                wave.append(entry)
            else:
                kicks.append(entry.ready_cycle)
            break
        wave.append(entry)
    return [(entry.pid, sim.geometry.levels - entry.next_idx) for entry in wave], kicks


REFERENCES = {"sequential": reference_sequential_dispatch, "pipeline": reference_pipeline_dispatch}


@pytest.mark.parametrize("scheme", SP_SCHEMES)
def test_sp_dispatch_matches_reference_on_schedule_lock_cases(scheme):
    for case in cases(scheme):
        assert run_against_reference(case_simulator(case), REFERENCES[scheme]) > 0, case_id(case)


def random_sp_simulator(seed: int) -> Simulator:
    rng = random.Random(seed)
    arity = rng.choice((2, 3, 8))
    params = SimParams(
        scheme=rng.choice(SP_SCHEMES),
        arity=arity,
        levels={2: 5, 3: 4, 8: 4}[arity],
        wpq_capacity=rng.randint(1, 64),
        ptt_capacity=rng.randint(1, 64),
        cache_kb=1,
        ideal_caches=rng.random() < 0.5,
        latency=LatencyConfig(mac_latency=rng.choice((0, 1, 3, 40)), cache_hit=rng.randint(0, 2),
                              cache_fill=rng.choice((0, 5, 200)), wpq_enqueue=rng.randint(0, 7),
                              drain_interval=rng.choice((1, 8))),
    )
    trace = generate(GenSpec(store_count=rng.randint(20, 60), pages=rng.choice((4, 16)),
                             run_length=rng.randint(1, 4), fence_interval=rng.randint(0, 9),
                             seed=seed))
    return Simulator(params, trace)


def test_sp_dispatch_matches_reference_on_random_configurations():
    for seed in range(200):
        sim = random_sp_simulator(seed)
        assert run_against_reference(sim, REFERENCES[sim.scheme]) > 0, seed

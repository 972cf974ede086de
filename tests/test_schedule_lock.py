"""Behaviour lock of the four schedulers over a grid of small configurations.

Every case runs 60 generated stores and is pinned by its last completion
cycle, node-update count, root register, a digest of the update log, a
digest of every persist's ``(complete_cycle, drained_cycle)``, a digest of
the epoch completion cycles and a digest of the recovery verdicts at three
seeded crash cycles.  The grid
covers what the benchmark's pins do not: capacities of 1, real 1 KB caches,
one shared MAC unit (under the epoch schemes, whose dispatch alone reads
it), binary trees and traces with and without fences,
plus a MAC latency of 0, under which a node update that hits the cache
commits in the cycle it issues, so a node can be re-issued in the cycle
its last update committed, and, under the epoch schemes, an ETT of 2 or
3 epochs that binds behind a 64-entry WPQ and PTT, with fences every
store or every fifth store and two shared MAC units.  The drain path has
its own cases: a WPQ that drains every cycle, fed by tuples that arrive
with no enqueue delay or 3 cycles after their counter is ready, so that
under the epoch schemes the tuple arrivals, not the tree climbs, can
decide when epochs complete.
Stall cycles are not pinned, so their accounting may change on its own.

Re-pin after an intended change of simulated behaviour with
``PYTHONPATH=src python tests/test_schedule_lock.py``.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

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
from nvmsim.engine import EPOCH_SCHEMES

PINS = Path(__file__).parent / "data" / "schedule_pins.json"

GRID = {
    "arity": (2, 8),
    "capacity": (1, 64),
    "cache_kb": (0, 1),  # 0 = ideal caches
    "mac_units": (0, 1),
    "fence": (0, 5),
}


LATENCIES = {
    "mac0": LatencyConfig(mac_latency=0, cache_hit=0),
    "zero": LatencyConfig(mac_latency=0, cache_hit=0, cache_fill=0),
    "enq0": LatencyConfig(mac_latency=0, cache_hit=0, wpq_enqueue=0, drain_interval=1),
    "enq3": LatencyConfig(mac_latency=0, cache_hit=2, cache_fill=0, wpq_enqueue=3, drain_interval=1),
}


def cases(scheme):
    # only the epoch schemes' dispatch policy reads mac_units
    grid = GRID if scheme in EPOCH_SCHEMES else {**GRID, "mac_units": (0,)}
    for values in itertools.product(*grid.values()):
        yield dict(zip(grid, values), scheme=scheme)
    for latency, arity, cache_kb in itertools.product(("mac0", "zero"), (2, 8), (0, 1)):
        yield dict(arity=arity, capacity=64, cache_kb=cache_kb, mac_units=0, fence=5,
                   scheme=scheme, latency=latency)
    # the drain path: a WPQ that drains every cycle, and tuples that arrive
    # with no enqueue delay or after a tree climb at a MAC latency of 0
    for latency, arity, cache_kb, fence in itertools.product(("enq0", "enq3"), (2, 8), (0, 1), (1, 5)):
        yield dict(arity=arity, capacity=64, cache_kb=cache_kb, mac_units=0, fence=fence,
                   scheme=scheme, latency=latency)
    if scheme not in EPOCH_SCHEMES:
        return
    # an ETT of 2 or 3 live epochs behind a roomy WPQ and PTT, with two MAC units
    for ett_capacity, arity, cache_kb, mac_units, fence in itertools.product(
            (2, 3), (2, 8), (0, 1), (0, 2), (1, 5)):
        yield dict(arity=arity, capacity=64, cache_kb=cache_kb, mac_units=mac_units, fence=fence,
                   scheme=scheme, ett_capacity=ett_capacity)


def case_id(case) -> str:
    return ",".join(f"{key}={case[key]}" for key in ("scheme", *GRID, "latency", "ett_capacity")
                    if key in case)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def crash_verdicts(sim) -> list:
    rng = random.Random(11)
    out = []
    for _ in range(3):
        cycle = rng.randrange(sim.clock + 1)
        report = recover(crash(sim, CrashPlan("at-cycle", cycle=cycle)), sim.keys, sim.geometry)
        result = check_prefix_consistency(report, sim.golden)
        out.append([report.as_dict(), result.ok, result.matched])
    return out


def case_simulator(case) -> Simulator:
    """A fresh, unstarted simulator for one case."""
    capacity = case["capacity"]
    params = SimParams(
        scheme=case["scheme"],
        arity=case["arity"],
        levels=5 if case["arity"] == 2 else 4,
        wpq_capacity=capacity,
        ptt_capacity=capacity,
        ett_capacity=case.get("ett_capacity", capacity),
        mac_units=case["mac_units"],
        cache_kb=case["cache_kb"] or 1,
        ideal_caches=case["cache_kb"] == 0,
        latency=LATENCIES.get(case.get("latency"), LatencyConfig()),
    )
    trace = generate(GenSpec(store_count=60, pages=16, run_length=3,
                             fence_interval=case["fence"], seed=5))
    return Simulator(params, trace)


def outcome(case) -> dict:
    sim = case_simulator(case)
    run_until_idle(sim)
    stats = sim.stats_dict()
    return {
        "last_completion_cycle": stats["last_completion_cycle"],
        "node_updates": stats["node_updates"],
        "root_register": f"{sim.bmt.root_register:016x}",
        "update_log": _digest(sim.update_log),
        "persists": _digest([(e.complete_cycle, e.drained_cycle) for e in sim.wpq_entries]),
        "epoch_completion": _digest(sorted(sim.epoch_completion.items())),
        "crashes": _digest(crash_verdicts(sim)),
    }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_schedule_matches_pins(scheme):
    pins = json.loads(PINS.read_text())
    mismatches = []
    keys = set()
    for case in cases(scheme):
        key = case_id(case)
        keys.add(key)
        got = outcome(case)
        if pins.get(key) != got:
            mismatches.append(f"{key}: pinned {pins.get(key)}, got {got}")
    assert not mismatches, "\n".join(mismatches)
    assert {key for key in pins if key.startswith(f"scheme={scheme},")} == keys  # no pin outlives its case


if __name__ == "__main__":
    pins = {case_id(c): outcome(c) for scheme in SCHEMES for c in cases(scheme)}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} cases in {PINS}")

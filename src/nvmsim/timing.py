"""Deterministic discrete-event clock.

Events fire in (cycle, kind-priority, sequence) order, so identical
configuration + trace + seed always replays the identical schedule.
Cycles are abstract processor cycles; every latency knob is expressed in
them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Callable

# kind priorities: completions settle before arrivals, bookkeeping and new
# work within one cycle; the numeric order below is the tie-break contract
FILL_DONE = 0
MAC_DONE = 1
ARRIVAL = 2
DRAIN = 3
SUBMIT = 4
KICK = 5

KIND_NAMES = {
    FILL_DONE: "fill-done",
    MAC_DONE: "mac-done",
    ARRIVAL: "tuple-arrived",
    DRAIN: "drain",
    SUBMIT: "submit",
    KICK: "kick",
}


@dataclass(frozen=True)
class LatencyConfig:
    """All timing knobs, in processor cycles."""

    mac_latency: int = 40
    cache_hit: int = 2
    cache_fill: int = 200
    wpq_enqueue: int = 1
    drain_interval: int = 8

    def __post_init__(self) -> None:
        if min(self.mac_latency, self.cache_hit, self.cache_fill, self.wpq_enqueue) < 0:
            raise ValueError("latencies must be >= 0")
        if self.drain_interval < 1:
            raise ValueError("drain interval must be >= 1")


class EventQueue:
    """Min-heap of ``(cycle, kind, seq, handler, payload)`` tuples.

    The unique sequence number decides every tie before the handler, so
    tuple comparison gives a deterministic total order.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, cycle: int, kind: int, handler: Callable, payload: Any = None) -> None:
        heapq.heappush(self._heap, (cycle, kind, self._seq, handler, payload))
        self._seq += 1

    def pop(self) -> tuple:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class DeadlockError(RuntimeError):
    """No event can fire but persists remain outstanding."""


def run_until_idle(sim) -> dict:
    """Drive a simulator's event queue until nothing is pending.

    Returns the simulator's stats dict.  Raises DeadlockError with its tracking
    tables when the queue drains while persists are still incomplete.
    """
    queue = sim.events
    # test the heap list itself: a Python-level truth test per event would
    # cost more than most handlers; pop stays a method, which tracers wrap
    heap = queue._heap
    while heap:
        cycle, kind, _seq, handler, payload = queue.pop()
        if cycle < sim.clock:
            raise AssertionError(f"{KIND_NAMES[kind]} event scheduled in the past: cycle {cycle}")
        sim.clock = cycle
        handler(payload)
    pending = sim.outstanding_persists()
    stalled = sim.pending_trace_events()
    if pending or stalled:
        raise DeadlockError(
            f"simulation idle at cycle {sim.clock} with {len(pending)} persists "
            f"outstanding ({sorted(pending)[:8]}) and {stalled} trace events unsubmitted\n"
            + sim.dump_tables()
        )
    return sim.stats_dict()


def throughput_probe(scheme: str, n_persists: int, params=None) -> float:
    """Steady-state inter-completion gap (cycles) on an all-hit trace.

    Builds a single-epoch trace of back-to-back stores to distinct pages,
    runs it with ideal metadata caches and measures the median completion
    gap over the middle of the run, past pipeline fill.
    """
    from .engine import SimParams, Simulator  # local import; engine depends on this module
    from .model_core import PAGE_SIZE
    from .trace import parse

    if n_persists < 3:
        raise ValueError("probe needs at least 3 persists")
    if params is None:
        params = SimParams()
    params = replace(params, scheme=scheme, ideal_caches=True)
    lines = "".join(f"S 0x{i * PAGE_SIZE:x}\n" for i in range(n_persists))
    sim = Simulator(params, parse(lines))
    run_until_idle(sim)
    completions = sorted(sim.completion_cycle(pid) for pid in range(n_persists))
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    mid = gaps[len(gaps) // 3 : max(len(gaps) // 3 + 1, 2 * len(gaps) // 3)]
    mid.sort()
    return float(mid[len(mid) // 2])

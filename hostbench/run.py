#!/usr/bin/env python3
"""Host-time benchmark of the nvmsim simulator, with a behaviour lock.

Measure one workload (run from the root of a checkout):

    python3 hostbench/run.py --workload ep-fence8 --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Check or re-record the pinned digests of simulated behaviour:

    python3 hostbench/run.py --check  [--workload W] [--seed N]
    python3 hostbench/run.py --record [--workload W] [--seed N]

The library is driven from outside as a closed loop: one process, one
caller, each call starting when the previous one returned.  Every
iteration is a complete job (import, trace generation, simulations, crash
checks), so set-up is measured as often as the rest.  See README.md next
to this file for the workloads and metrics.

Exit codes: 0 ok, 1 usage error, 2 check mode found a failure, 3 the
benchmark cannot run here (no nvmsim sources, unreadable pins).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = ROOT / ".bench_out"

EXIT_OK, EXIT_USAGE, EXIT_CHECK, EXIT_SETUP = 0, 1, 2, 3

clock = time.perf_counter

# On a shared machine, interference from other tenants slows a run by up to
# 2x (measured on a 2-vCPU virtual machine).  The slow share of time changes
# from one second to the next, and fast stretches last about a millisecond,
# so no timed call of 10 ms or more runs entirely at full speed and the
# fastest of its repetitions depends on luck.  Instead, a fixed calibration
# job that uses no nvmsim code is timed between the timed calls: each call
# is divided by the mean of the calibration times just before and after it,
# and the median of these ratios over the run's iterations is reported in
# reference seconds, ratio * REFERENCE_CALIBRATION_S.  A slower machine
# cancels out, a slower simulator does not.
REFERENCE_CALIBRATION_S = 0.006
CALIBRATION_STEPS = 4000
POINTS_PER_PROBE = 10  # crash points timed between two calibration probes
# Peak RSS grows in steps of up to about 128 KB as the allocator takes
# memory from the system; on a 4,096-store simulation that is 1% of the
# growth, on a 512-store one 10%.
MEMORY_STORES = 4096

LIBRARY_MODULES = ("model_core", "crypto", "bmt", "caches", "trace", "timing", "engine", "crash", "cli")

# the four tuple-omission rows, as `nvmsim crash-sweep --omission-matrix` expects them
OMISSION_EXPECTED = {
    "root": {"bmt-failure"},
    "mac": {"mac-failure"},
    "counter": {"wrong-plaintext", "mac-failure", "bmt-failure"},
    "ciphertext": {"wrong-plaintext", "mac-failure"},
}


@dataclass(frozen=True)
class Workload:
    """One trace shape and the two schemes run on it (roles first, second)."""

    name: str
    schemes: tuple
    stores: int  # long trace
    prefix: int  # short trace: the first `prefix` stores of the same trace
    pages: int
    run_length: int
    fence: int
    crash_points: int  # per scheme and iteration
    crash_cuts_long: bool  # crash points cut the long run (else the prefix run)


WORKLOADS = {
    w.name: w
    for w in (
        # many small epochs, every metadata access hits: epoch bookkeeping dominates
        Workload("ep-fence8", ("ooo", "coalesce"), 2048, 256, 64, 4, 8, 100, False),
        # strict persistency on a working set 8x the caches: tree fills, bmt and crypto
        Workload("sp-coldset", ("sequential", "pipeline"), 2048, 256, 16384, 8, 32, 100, False),
        # crash, recover and check dominate; the simulations are its set-up
        Workload("crash-sweep", ("sequential", "coalesce"), 512, 128, 1024, 8, 8, 100, True),
    )
}

ROLES = ("first", "second")

END_TO_END = {
    "stores_per_s.first": "stores/s",
    "stores_per_s.second": "stores/s",
    "scaling_ratio": "ratio",
    "mem_bytes_per_store": "B/store",
    "crash_points_per_s.first": "points/s",
    "crash_points_per_s.second": "points/s",
    "crash_point_ms.first.p50": "ms",
    "crash_point_ms.first.p90": "ms",
    "crash_point_ms.second.p50": "ms",
    "crash_point_ms.second.p90": "ms",
    "setup_s": "s",
}

SIM_STATS = {
    "cycles": "cycles",
    "node_updates": "count",
    "coalesce_pairs": "count",
    "bmt_fills": "count",
    "stall_cycles.wpq_full": "cycles",
    "stall_cycles.ptt_full": "cycles",
    "stall_cycles.ett_full": "cycles",
    "hit_ratio.counter": "ratio",
    "hit_ratio.mac": "ratio",
    "hit_ratio.bmt": "ratio",
}

PER_LAYER = {
    "engine.self_s": "s",
    "engine.self_us_per_store": "us/store",
    "timing.self_s": "s",
    "timing.events_per_store": "events/store",
    "timing.kick_events_per_store": "events/store",
    "bmt.self_s": "s",
    "bmt.compute_node_calls": "count",
    "bmt.rebuild_s": "s",
    "crypto.self_s": "s",
    "crypto.hash_node_calls": "count",
    "crypto.pad_calls": "count",
    "caches.self_s": "s",
    "caches.accesses": "count",
    "model_core.self_s": "s",
    "crash.self_s": "s",
    "crash.fold_s": "s",
    "crash.recover_s": "s",
    "crash.check_s": "s",
    "trace.self_s": "s",
    "trace.generate_s": "s",
    "bench.self_s": "s",
    "root_s": "s",
    "trace_overhead": "ratio",
    **{f"sim.{role}.{stat}": unit for role in ROLES for stat, unit in SIM_STATS.items()},
}


class UsageError(Exception):
    pass


class SetupError(Exception):
    pass


# ----------------------------------------------------------------------
# checks and the behaviour lock
# ----------------------------------------------------------------------


class Checks:
    """Counts checks attempted and keeps the failed ones; never raises."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


class Lock:
    """Expected digests of one (workload, seed): pinned, or else those of
    the run's first iteration, so later iterations must repeat them."""

    def __init__(self, pinned) -> None:
        self.pinned = pinned is not None
        self.cases = dict(pinned or {})

    def check(self, checks: Checks, key: str, got) -> None:
        want = self.cases.get(key)
        if want is None and not self.pinned:
            self.cases[key] = got
            return
        source = "pinned" if self.pinned else "first iteration"
        checks.expect(want == got, f"{key}: digest {got} differs from {source} {want}")


def sim_digest(sim) -> dict:
    """Simulated outcome of one run; the event-log digest follows cli.build_report."""
    stats = sim.stats_dict()
    return {
        "last_completion_cycle": stats["last_completion_cycle"],
        "node_updates": stats["node_updates"],
        "root_register": f"{sim.bmt.root_register:016x}",
        "event_log_digest": hashlib.sha256(json.dumps(sim.update_log).encode()).hexdigest()[:16],
    }


def load_pins(path: Path) -> dict:
    try:
        with open(path) as fh:
            pins = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read pins {path}: {exc}") from None
    if not isinstance(pins.get("workloads"), dict):
        raise SetupError(f"pins {path} has no 'workloads' table")
    return pins


def pinned_for(pins: dict, workload: str, seed: int):
    return pins["workloads"].get(workload, {}).get(str(seed))


# ----------------------------------------------------------------------
# one iteration: a complete job against a freshly imported library
# ----------------------------------------------------------------------


def use_checkout_sources() -> None:
    if not (SRC / "nvmsim" / "__init__.py").is_file():
        raise SetupError(f"no nvmsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_library() -> dict:
    """Import nvmsim from the checkout anew; returns short name -> module."""
    for name in [m for m in sys.modules if m == "nvmsim" or m.startswith("nvmsim.")]:
        del sys.modules[name]
    package = importlib.import_module("nvmsim")
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise SetupError(f"nvmsim was imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"nvmsim.{name}") for name in LIBRARY_MODULES}
    modules["package"] = package
    return modules


def run_config(lib: dict, wl: Workload, scheme: str, stores: int, seed: int):
    """The `nvmsim run` configuration of one case; its hash matches that report's."""
    return lib["cli"].RunConfig(
        scheme=scheme,
        seed=seed,
        gen_stores=stores,
        gen_pages=wl.pages,
        gen_run_length=wl.run_length,
        epoch_size=wl.fence,
    )


def calibration_job() -> float:
    """Seconds for a fixed pure-Python job that uses no nvmsim code, with the
    simulator's mix of work: dict and tuple churn, heap operations, small
    BLAKE2b digests and a growing list of small objects."""
    start = clock()
    heap, table, kept = [], {}, []
    for i in range(CALIBRATION_STEPS):
        key = (i * 2654435761) % 4093
        table[key] = (i, table.get(key, (0,))[0] + 1)
        heapq.heappush(heap, (i % 97, i, key))
        if len(heap) > 64:
            heapq.heappop(heap)
        kept.append([key, hashlib.blake2b(key.to_bytes(8, "little"), digest_size=8).digest()])
    return clock() - start


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def generate(lib: dict, wl: Workload, stores: int, seed: int):
    trace = lib["trace"]
    return trace.generate(trace.GenSpec(store_count=stores, pages=wl.pages, run_length=wl.run_length,
                                        fence_interval=wl.fence, seed=seed))


def memory_per_store(wl: Workload, seed: int) -> float:
    """Peak RSS growth across the first scheme's simulation of a
    MEMORY_STORES trace of the workload's shape, per store.  Measured once
    per run, before the timed iterations, with nothing else allocated or
    freed between the two readings."""
    lib = fresh_library()
    events = generate(lib, wl, MEMORY_STORES, seed)
    base_kb = max_rss_kb()
    simulate(lib, run_config(lib, wl, wl.schemes[0], MEMORY_STORES, seed), events, Checks(), "memory")
    return (max_rss_kb() - base_kb) * 1024 / MEMORY_STORES


class Probes:
    """Calibration times taken between timed calls.  `since()` returns the
    mean of the previous probe and a new one, the calibration of the call in
    between.  Disabled (None) in traced runs, whose layer times are raw."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.times: list = []
        self.last = self._probe()

    def _probe(self):
        if not self.enabled:
            return None
        self.times.append(calibration_job())
        return self.times[-1]

    def since(self):
        before, self.last = self.last, self._probe()
        return None if before is None else (before + self.last) / 2


@dataclass
class Iteration:
    """Host times as (seconds, calibration seconds) pairs; see Probes."""

    setup: list = field(default_factory=list)  # pairs whose ratios add up to set-up
    wall_s: float = 0.0
    calibration_s: list = field(default_factory=list)
    long: dict = field(default_factory=dict)  # scheme -> pair
    prefix: dict = field(default_factory=dict)
    points: dict = field(default_factory=dict)  # scheme -> [pair, seconds None if it raised, per crash point]
    stats: dict = field(default_factory=dict)  # scheme -> stats_dict() of the long run
    digests: dict = field(default_factory=dict)


def simulate(lib: dict, config, events, checks: Checks, key: str):
    start = clock()
    sim = lib["engine"].Simulator(config.sim_params(), events)
    try:
        lib["timing"].run_until_idle(sim)
    except lib["timing"].DeadlockError as exc:
        checks.expect(False, f"{key}: deadlock: {exc}")
    return sim, clock() - start


def verify_sim(lib: dict, sim, stores: int, key: str, checks: Checks, lock: Lock, it: Iteration) -> None:
    done = sim.stats_dict()["persists_completed"]
    checks.expect(done == stores and not sim.outstanding_persists(),
                  f"{key}: {done} of {stores} persists completed")
    rebuilt = lib["bmt"].rebuild_from_counters(sim.counters, sim.geometry, sim.keys).root()
    checks.expect(rebuilt == sim.bmt.root_register,
                  f"{key}: root register {sim.bmt.root_register:#x} != rebuilt root {rebuilt:#x}")
    it.digests[key] = sim_digest(sim)
    lock.check(checks, key, it.digests[key])


def crash_sample(lib: dict, sim, n_points: int, seed: int, key: str, checks: Checks, probes=None):
    """Seeded at-cycle crash points, then the omission matrix; returns a
    (seconds, calibration) pair per point and a digest of every verdict."""
    crash = lib["crash"]
    rng = random.Random(seed)
    horizon = max(sim.clock, 1)
    times, outcomes, pairs = [], [], []
    for i in range(n_points):
        if probes is not None and times and i % POINTS_PER_PROBE == 0:
            calibration = probes.since()
            pairs += [(t, calibration) for t in times[len(pairs):]]
        # one point in each equal slice of the run, so that percentiles
        # compare across seeds
        cycle = min(horizon, int((i + rng.random()) * (horizon + 1) / n_points))
        try:
            start = clock()
            report = crash.recover(crash.crash(sim, crash.CrashPlan("at-cycle", cycle=cycle)), sim.keys, sim.geometry)
            verdict = crash.check_prefix_consistency(report, sim.golden)
            times.append(clock() - start)
        except Exception as exc:  # a library failure is a failed check, never an abort
            checks.expect(False, f"{key}: crash at cycle {cycle} raised {exc!r}")
            times.append(None)
            continue
        checks.expect(verdict.ok, f"{key}: crash at cycle {cycle}: {verdict.violation}")
        outcomes.append([cycle, verdict.ok, verdict.matched])
    calibration = probes.since() if probes is not None else None
    pairs += [(t, calibration) for t in times[len(pairs):]]
    target = sim.wpq_entries[-1]
    # The omission cut is the target's completion.  Under epoch persistency
    # (ooo completes out of order) that cut can fall inside the target's
    # epoch, whose other root effects then fail the tree check on their own:
    # the verdicts must then contain the expected row, not equal it.
    exact = not sim.is_ep or sim.epoch_completion.get(target.epoch) == target.complete_cycle
    for component, want in OMISSION_EXPECTED.items():
        try:
            plan = crash.CrashPlan("tuple-omission", persist_id=target.pid, component=component)
            got = crash.recover(crash.crash(sim, plan), sim.keys, sim.geometry).verdict_set(target.addr.value)
        except Exception as exc:
            checks.expect(False, f"{key}: omission of {component} raised {exc!r}")
            continue
        checks.expect(got == want if exact else want <= got,
                      f"{key}: omission of {component}: got {sorted(got)}, expected {sorted(want)}"
                      + ("" if exact else " or more (cut inside the epoch)"))
        outcomes.append([component, sorted(got)])
    return pairs, hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()[:16]


def run_iteration(wl: Workload, seed: int, checks: Checks, lock: Lock, tracer=None) -> Iteration:
    it = Iteration()
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    start = clock()
    probes = Probes(enabled=tracer is None)  # traced runs report unscaled layer times
    setup_start = clock()
    lib = fresh_library()
    if tracer is not None:
        tracer.install(lib)
    events, prefix_events = generate(lib, wl, wl.stores, seed), generate(lib, wl, wl.prefix, seed)
    it.setup.append((clock() - setup_start, probes.since()))

    for scheme in wl.schemes:
        key = f"{scheme}/{wl.stores}"
        try:
            sim, seconds = simulate(lib, run_config(lib, wl, scheme, wl.stores, seed), events, checks, key)
            it.long[scheme] = (seconds, probes.since())
            if wl.crash_cuts_long:
                it.setup.append(it.long[scheme])
            with paused():
                verify_sim(lib, sim, wl.stores, key, checks, lock, it)
                it.stats[scheme] = sim.stats_dict()
            if not wl.crash_cuts_long:
                del sim
            pkey = f"{scheme}/{wl.prefix}"
            probes.since()  # the checks above are not timed
            psim, seconds = simulate(lib, run_config(lib, wl, scheme, wl.prefix, seed), prefix_events, checks, pkey)
            it.prefix[scheme] = (seconds, probes.since())
            with paused():
                verify_sim(lib, psim, wl.prefix, pkey, checks, lock, it)
            target = sim if wl.crash_cuts_long else psim
            ckey = f"{scheme}/crash"
            probes.since()  # nor these
            it.points[scheme], it.digests[ckey] = crash_sample(lib, target, wl.crash_points, seed, ckey, checks,
                                                               probes if tracer is None else None)
            with paused():
                lock.check(checks, ckey, it.digests[ckey])
            del target, psim
            if wl.crash_cuts_long:
                del sim
        except Exception as exc:  # keep measuring the other scheme; the run reports incorrect
            checks.expect(False, f"{key}: raised {exc!r}")
    if tracer is not None:
        tracer.uninstall()
    it.wall_s = clock() - start
    it.calibration_s = probes.times
    return it


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def percentile(values, q: float, grid: int = 32) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of all order statistics.  Its value moves less with the
    noise of single points than the one or two order statistics a plain
    percentile reads."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # weight of the i-th order statistic: the Beta mass on [i/n, (i+1)/n], by the midpoint rule
    weights = [sum(density((i + (k + 0.5) / grid) / n) for k in range(grid)) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def reference_s(pairs) -> float:
    """Median over repetitions of seconds / calibration, in reference seconds;
    None if no repetition completed."""
    ratios = [t / c for t, c in pairs if t is not None]
    return statistics.median(ratios) * REFERENCE_CALIBRATION_S if ratios else None


def end_to_end(wl: Workload, iterations: list, mem_bytes_per_store) -> dict:
    """Host times in reference seconds; see REFERENCE_CALIBRATION_S."""
    m = {}
    ratios = []
    for role, scheme in zip(ROLES, wl.schemes):
        long_s = reference_s(it.long[scheme] for it in iterations if scheme in it.long)
        prefix_s = reference_s(it.prefix[scheme] for it in iterations if scheme in it.prefix)
        m[f"stores_per_s.{role}"] = wl.stores / long_s if long_s else None
        if long_s and prefix_s:
            ratios.append((long_s / wl.stores) / (prefix_s / wl.prefix))
        # every iteration cuts the same points: take each point's time over
        # the iterations, then the distribution over points
        point_s = [
            t for t in (reference_s(column)
                        for column in zip(*(it.points[scheme] for it in iterations if scheme in it.points)))
            if t is not None
        ]
        m[f"crash_points_per_s.{role}"] = len(point_s) / sum(point_s) if point_s else None
        for q in (50, 90):
            m[f"crash_point_ms.{role}.p{q}"] = percentile(point_s, q / 100) * 1e3 if point_s else None
    m["scaling_ratio"] = max(ratios) if ratios else None
    m["mem_bytes_per_store"] = mem_bytes_per_store
    # set-up is a sum of timed calls: the median of its per-iteration sums
    m["setup_s"] = statistics.median(sum(t / c for t, c in it.setup) for it in iterations) * REFERENCE_CALIBRATION_S
    return {name: m[name] for name in END_TO_END}


def sim_stats(stats: dict) -> dict:
    return {
        "cycles": stats["last_completion_cycle"],
        "node_updates": stats["node_updates"],
        "coalesce_pairs": stats["coalesce_pairs"],
        "bmt_fills": stats["bmt_fills"],
        **{f"stall_cycles.{k}": v for k, v in stats["stall_cycles"].items()},
        **{f"hit_ratio.{k}": v["hit_ratio"] for k, v in stats["caches"].items()},
    }


def per_layer(wl: Workload, traced: list, untraced_wall: float, kick_kind: int) -> dict:
    """Layer metrics of the traced iteration with the median root time, so
    that its layer self times add up to its root span exactly."""
    traced = sorted(traced, key=lambda t: t["root_s"])
    t = traced[(len(traced) - 1) // 2]
    it, self_s, calls = t["iteration"], t["self_s"], t["calls"]
    stores = 2 * (wl.stores + wl.prefix)
    spans = t["spans"]

    def mean_span(name: str, own: bool) -> float:
        picked = [s[6] if own else s[5] - s[4] for s in spans if s[2] == name]
        return statistics.fmean(picked) if picked else 0.0

    m = {
        "engine.self_s": self_s["engine"],
        "engine.self_us_per_store": self_s["engine"] / stores * 1e6,
        "timing.self_s": self_s["timing"],
        "timing.events_per_store": calls["EventQueue.push"] / stores,
        "timing.kick_events_per_store": t["push_kinds"][kick_kind] / stores,
        "bmt.self_s": self_s["bmt"],
        "bmt.compute_node_calls": calls["BmtState.compute_node"],
        "bmt.rebuild_s": mean_span("rebuild_from_counters", own=False),
        "crypto.self_s": self_s["crypto"],
        "crypto.hash_node_calls": calls["hash_node"],
        "crypto.pad_calls": calls["encrypt"],
        "caches.self_s": self_s["caches"],
        "caches.accesses": calls["MetadataCache.access"],
        "model_core.self_s": self_s["model_core"],
        "crash.self_s": self_s["crash"],
        "crash.fold_s": mean_span("crash", own=True),
        "crash.recover_s": mean_span("recover", own=True),
        "crash.check_s": mean_span("check_prefix_consistency", own=True),
        "trace.self_s": self_s["trace"],
        "trace.generate_s": sum(s[5] - s[4] for s in spans if s[2] == "generate"),
        "bench.self_s": self_s["bench"],
        "root_s": t["root_s"],
        "trace_overhead": t["root_s"] / untraced_wall,
    }
    for role, scheme in zip(ROLES, wl.schemes):
        if scheme in it.stats:
            for stat, value in sim_stats(it.stats[scheme]).items():
                m[f"sim.{role}.{stat}"] = value
    return {name: m.get(name) for name in PER_LAYER}


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------


def measure(wl: Workload, seed: int, seconds: float, traced: bool, pinned) -> dict:
    """Run iterations until the next one would end past `seconds`; at least one."""
    checks, lock = Checks(), Lock(pinned)
    start = clock()
    iterations, traced_runs = [], []
    tracer = None
    mem_bytes_per_store = None if traced else memory_per_store(wl, seed)
    if traced:
        from spans import Tracer

        tracer = Tracer()
    while True:
        if not traced or not iterations:
            it = run_iteration(wl, seed, checks, lock)
        else:
            tracer.reset_totals()
            first_span = len(tracer.spans)
            with tracer.root("iteration") as root:
                it = run_iteration(wl, seed, checks, lock, tracer)
            traced_runs.append({
                "iteration": it,
                "root_s": root.duration,
                "self_s": tracer.self_s,  # fresh defaultdicts after each reset_totals
                "calls": tracer.calls,
                "push_kinds": tracer.push_kinds,
                "spans": tracer.spans[first_span:],
            })
        iterations.append(it)
        elapsed = clock() - start
        if traced and not traced_runs:
            continue
        recent = traced_runs[-1]["root_s"] if traced else statistics.median(i.wall_s for i in iterations)
        if elapsed + recent > seconds:
            break
    if traced:
        untraced_s = iterations[0].wall_s - sum(iterations[0].calibration_s)
        metrics = per_layer(wl, traced_runs, untraced_s, importlib.import_module("nvmsim.timing").KICK)
        tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(wl, iterations, mem_bytes_per_store)
    calibration_s = statistics.median(c for it in iterations for c in it.calibration_s)
    return {"checks": checks, "iterations": iterations, "metrics": metrics, "elapsed": clock() - start,
            "calibration_s": calibration_s}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(wl: Workload, seed: int, calibration_s: float) -> dict:
    lib = {"cli": importlib.import_module("nvmsim.cli")}
    return {
        "workload": wl.name,
        "seed": seed,
        "calibration_ms": calibration_s * 1e3,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "config_hash": {
            f"{scheme}/{n}": run_config(lib, wl, scheme, n, seed).config_hash()
            for scheme in wl.schemes
            for n in (wl.stores, wl.prefix)
        },
    }


def format_value(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cmd_measure(wl: Workload, seed: int, seconds: int, traced: bool, pins_path: Path) -> int:
    pinned = pinned_for(load_pins(pins_path), wl.name, seed)
    result = measure(wl, seed, seconds, traced, pinned)
    checks = result["checks"]
    units = PER_LAYER if traced else END_TO_END
    print(f"hostbench {wl.name} seed {seed}: {len(result['iterations'])} iterations in "
          f"{result['elapsed']:.1f} s; first={wl.schemes[0]} second={wl.schemes[1]}; "
          f"digests {'pinned' if pinned else 'not pinned for this seed'}")
    print(f"  calibration job median {result['calibration_s'] * 1e3:.2f} ms, reference "
          f"{REFERENCE_CALIBRATION_S * 1e3:.0f} ms"
          + ("" if traced else "; host times below are scaled to the reference"))
    for name, value in result["metrics"].items():
        print(f"  {name:32s} {format_value(value):>14s} {units[name]}")
    failed = len(checks.failures)
    print(f"  {'failed_ratio':32s} {format_value(failed / checks.attempted):>14s} "
          f"({failed} of {checks.attempted} checks)")
    for message in checks.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print("record " + json.dumps(run_record(wl, seed, result["calibration_s"]), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return EXIT_OK


def selected(workload, seed, pins: dict):
    for name, wl in WORKLOADS.items():
        if workload not in (None, name):
            continue
        seeds = sorted(int(s) for s in pins["workloads"].get(name, {})) if seed is None else [seed]
        for s in seeds:
            yield wl, s


def cmd_check(workload, seed, pins_path: Path) -> int:
    """One iteration per pinned (workload, seed); reports every failure."""
    pins = load_pins(pins_path)
    total, failed = 0, 0
    for wl, s in selected(workload, seed, pins):
        checks = Checks()
        pinned = pinned_for(pins, wl.name, s)
        if pinned is None:
            checks.expect(False, f"{wl.name}: no digests pinned for seed {s}")
        else:
            run_iteration(wl, s, checks, Lock(pinned))
        total += checks.attempted
        failed += len(checks.failures)
        for message in checks.failures:
            print(f"MISMATCH {wl.name} seed {s}: {message}")
        print(f"{wl.name} seed {s}: {checks.attempted - len(checks.failures)} of {checks.attempted} checks passed")
    print(f"check {'passed' if failed == 0 and total else 'FAILED'}: {failed} of {total} checks failed")
    return EXIT_OK if failed == 0 and total else EXIT_CHECK


def cmd_record(workload, seed, pins_path: Path) -> int:
    """Pin the digests of one iteration per (workload, seed); refuses on a failed check."""
    pins = load_pins(pins_path)
    seeds = [seed] if seed is not None else sorted({int(s) for w in pins["workloads"].values() for s in w} or {0})
    for name, wl in WORKLOADS.items():
        if workload not in (None, name):
            continue
        for s in seeds:
            checks = Checks()
            it = run_iteration(wl, s, checks, Lock(None))
            if checks.failures:
                for message in checks.failures:
                    print(f"FAILED {wl.name} seed {s}: {message}", file=sys.stderr)
                return EXIT_CHECK
            pins["workloads"].setdefault(name, {})[str(s)] = it.digests
            print(f"{wl.name} seed {s}: pinned {len(it.digests)} digests")
    with open(pins_path, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1 with a message, never argparse's 2
        raise UsageError(message)


def parse_args(argv):
    parser = _Parser(prog="hostbench/run.py", description="Host-time benchmark of nvmsim.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare pinned digests, one iteration each")
    mode.add_argument("--record", action="store_true", help="rewrite pinned digests")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if not (args.check or args.record):
        missing = [flag for flag in ("workload", "seed", "seconds") if getattr(args, flag) is None]
        if missing:
            raise UsageError("measuring needs " + ", ".join(f"--{m}" for m in missing))
        if args.seconds < 1:
            raise UsageError("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        use_checkout_sources()
        if args.check:
            return cmd_check(args.workload, args.seed, PINS)
        if args.record:
            return cmd_record(args.workload, args.seed, PINS)
        return cmd_measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), PINS)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return EXIT_SETUP


if __name__ == "__main__":
    sys.exit(main())

"""Command-line tool: single runs, crash sweeps, config sweeps, trace tools.

Exit codes: 0 ok, 1 usage error, 2 invariant violation, 3 internal deadlock.
Reports are JSON for single runs and CSV for sweeps; both embed the
resolved configuration (and its hash) so results are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import asdict, dataclass, fields, replace as _dc_replace
from typing import Optional

from .crash import CrashPlan, check_prefix_consistency, crash, recover
from .engine import SCHEMES, SimParams, Simulator
from .timing import DeadlockError, LatencyConfig, run_until_idle
from .trace import GenSpec, TraceParseError, generate, parse, refence, render, stores_in

ENV_PREFIX = "NVMSIM_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_DEADLOCK = 3


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one simulation run."""

    scheme: str = "sequential"
    arity: int = 8
    levels: int = 9
    mac_latency: int = 40
    cache_hit: int = 2
    cache_fill: int = 200
    wpq_enqueue: int = 1
    drain_interval: int = 8
    wpq_capacity: int = 128
    ptt_capacity: int = 64
    ett_capacity: int = 2
    epoch_size: int = 32
    mac_units: int = 0
    cache_kb: int = 128
    cache_assoc: int = 8
    ideal_caches: bool = False
    event_log: bool = True
    seed: int = 0
    trace_file: Optional[str] = None
    gen_stores: int = 64
    gen_pages: int = 8
    gen_run_length: int = 1

    def replace(self, **kw) -> "RunConfig":
        return _dc_replace(self, **kw)

    def _fields_of(self, cls) -> dict:
        """This config's values of the fields it shares with dataclass ``cls``."""
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name in self.__dataclass_fields__}

    def sim_params(self) -> SimParams:
        return SimParams(latency=LatencyConfig(**self._fields_of(LatencyConfig)),
                         **self._fields_of(SimParams))

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def gen_spec(self) -> GenSpec:
        return GenSpec(
            store_count=self.gen_stores,
            pages=self.gen_pages,
            run_length=self.gen_run_length,
            fence_interval=self.epoch_size,
            seed=self.seed,
        )

    def load_trace(self):
        """The configured trace; every store must fall inside the tree's capacity."""
        if self.trace_file is not None:
            with open(self.trace_file) as fh:
                events = parse(fh.read())
        else:
            events = generate(self.gen_spec())
        geometry = self.sim_params().geometry()
        for i, store in enumerate(stores_in(events)):
            if store.addr.page >= geometry.leaf_count:
                raise UsageError(f"store {i} is on page {store.addr.page}, outside the protected "
                                 f"capacity of {geometry.leaf_count} pages")
        return events


def build_report(config: RunConfig, sim: Simulator, baseline_cycles: Optional[int] = None) -> dict:
    stats = sim.stats_dict()
    report = {
        "config": asdict(config),
        "config_hash": config.config_hash(),
        "stats": stats,
    }
    if baseline_cycles is not None and baseline_cycles > 0:
        report["normalized_slowdown"] = round(
            stats["last_completion_cycle"] / baseline_cycles, 6
        )
    if config.event_log:
        report["event_log_digest"] = event_log_digest(sim)
    return report


def event_log_digest(sim: Simulator) -> str:
    """sha256 of ``json.dumps(sim.update_log)``, hashed record by record
    so the whole list of tuples is never built."""
    digest = hashlib.sha256(b"[")
    separator = b""
    for record in sim.iter_update_log():
        # the records hold ints only, which json writes in decimal
        digest.update(separator + b"[%d, %d, %d, %d, %d, %d]" % record)
        separator = b", "
    digest.update(b"]")
    return digest.hexdigest()[:16]


def run_simulation(config: RunConfig):
    events = config.load_trace()
    sim = Simulator(config.sim_params(), events)
    run_until_idle(sim)
    return sim


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_run(config: RunConfig, baseline_scheme: Optional[str], out) -> int:
    sim = run_simulation(config)
    baseline_cycles = None
    if baseline_scheme:
        base = run_simulation(config.replace(scheme=baseline_scheme))
        baseline_cycles = base.stats_dict()["last_completion_cycle"]
    report = build_report(config, sim, baseline_cycles)
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def cmd_crash_sweep(config: RunConfig, n_points: int, seed: int, omission_matrix: bool, out) -> int:
    if n_points < 1 and not omission_matrix:
        raise UsageError("crash sweep needs n-points >= 1")
    sim = run_simulation(config)
    results = {"config_hash": config.config_hash(), "points": 0, "violations": []}

    if omission_matrix:
        if not sim.wpq_entries:
            raise UsageError("the omission matrix needs a trace with at least one store")
        expected = {
            "root": {"bmt-failure"},
            "mac": {"mac-failure"},
            "counter": {"wrong-plaintext", "mac-failure", "bmt-failure"},
            "ciphertext": {"wrong-plaintext", "mac-failure"},
        }
        target = sim.wpq_entries[-1]
        # the cut is the target's completion; when that falls inside its epoch,
        # the epoch's other root effects fail the tree check on their own
        exact = not sim.is_ep or sim.epoch_completion.get(target.epoch) == target.complete_cycle
        matrix = {}
        for comp, want in expected.items():
            plan = CrashPlan("tuple-omission", persist_id=target.pid, component=comp)
            report = recover(crash(sim, plan), sim.keys, sim.geometry)
            got = report.verdict_set(target.addr.value)
            match = got == want if exact else want <= got
            matrix[comp] = {
                "expected": sorted(want),
                "got": sorted(got),
                "comparison": "exact" if exact else "contains",
                "match": match,
            }
            if not match:
                results["violations"].append(f"omission {comp}: got {sorted(got)}")
        results["omission_matrix"] = matrix
        results["points"] = len(expected)
    else:
        rng = random.Random(seed)
        horizon = max(sim.clock, 1)
        for _ in range(n_points):
            cycle = rng.randrange(horizon + 1)
            report = recover(crash(sim, CrashPlan("at-cycle", cycle=cycle)), sim.keys, sim.geometry)
            verdict = check_prefix_consistency(report, sim.golden)
            results["points"] += 1
            if not verdict.ok:
                results["violations"].append(
                    f"cycle {cycle}: {verdict.violation.invariant}: {verdict.violation.detail}"
                )

    results["ok"] = not results["violations"]
    json.dump(results, out, indent=2, sort_keys=True)
    out.write("\n")
    return EXIT_OK if results["ok"] else EXIT_VIOLATION


SWEEP_AXES = ("epoch-size", "mac-latency", "cache-kb")


def cmd_sweep(config: RunConfig, axis: str, values, out) -> int:
    if axis not in SWEEP_AXES:
        raise UsageError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise UsageError("sweep needs at least one axis value")
    base_events = config.load_trace()
    writer = csv.writer(out)
    writer.writerow(
        ["axis", "value", "scheme", "last_completion_cycle", "total_cycles",
         "node_updates", "coalesce_pairs", "persists", "config_hash"]
    )
    for value in values:
        for scheme in SCHEMES:
            cfg = config.replace(scheme=scheme)
            events = base_events
            if axis == "epoch-size":
                cfg = cfg.replace(epoch_size=value)
                events = refence(base_events, value)
            elif axis == "mac-latency":
                cfg = cfg.replace(mac_latency=value)
            else:
                cfg = cfg.replace(cache_kb=value)
            try:
                params = cfg.sim_params()
            except ValueError as exc:
                raise UsageError(f"sweep value {value} for {axis}: {exc}") from exc
            sim = Simulator(params, events)
            run_until_idle(sim)
            stats = sim.stats_dict()
            writer.writerow(
                [axis, value, scheme, stats["last_completion_cycle"], stats["total_cycles"],
                 stats["node_updates"], stats["coalesce_pairs"], stats["persists_completed"],
                 cfg.config_hash()]
            )
    return EXIT_OK


def cmd_gen_trace(config: RunConfig, out) -> int:
    out.write(render(generate(config.gen_spec())))
    return EXIT_OK


def cmd_verify_trace(path: str, out) -> int:
    with open(path) as fh:
        events = parse(fh.read())
    stores = stores_in(events)
    pages = {s.addr.page for s in stores}
    summary = {
        "events": len(events),
        "stores": len(stores),
        "fences": len(events) - len(stores),
        "pages": len(pages),
    }
    json.dump(summary, out, indent=2, sort_keys=True)
    out.write("\n")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--mac-latency", type=int, default=None)
    p.add_argument("--cache-hit", type=int, default=None)
    p.add_argument("--cache-fill", type=int, default=None)
    p.add_argument("--wpq-enqueue", type=int, default=None)
    p.add_argument("--drain-interval", type=int, default=None)
    p.add_argument("--wpq-capacity", type=int, default=None)
    p.add_argument("--ptt-capacity", type=int, default=None)
    p.add_argument("--ett-capacity", type=int, default=None)
    p.add_argument("--epoch-size", type=int, default=None)
    p.add_argument("--mac-units", type=int, default=None)
    p.add_argument("--cache-kb", type=int, default=None)
    p.add_argument("--cache-assoc", type=int, default=None)
    p.add_argument("--ideal-caches", action="store_true", default=None)
    p.add_argument("--no-event-log", dest="event_log", action="store_false", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", dest="trace_file", default=None)
    p.add_argument("--gen-stores", type=int, default=None)
    p.add_argument("--gen-pages", type=int, default=None)
    p.add_argument("--gen-run-length", type=int, default=None)
    p.add_argument("--config", dest="config_file", default=None,
                   help="key=value config file with [section] headers")


_CONFIG_FIELDS = set(RunConfig.__dataclass_fields__)


def _config_from_file(path: str) -> dict:
    import configparser

    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path}")
    out = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            key = key.replace("-", "_")
            if key not in _CONFIG_FIELDS:
                raise UsageError(f"unknown config key {key!r} in {path}")
            out[key] = raw
    return out


def _coerce(field_name: str, raw):
    typ = RunConfig.__dataclass_fields__[field_name].type
    if isinstance(raw, str):
        if typ in ("int", int):
            return int(raw)
        if typ in ("bool", bool):
            return raw.lower() in ("1", "true", "yes", "on")
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < environment < command-line flags.

    The simulation parameters and the generator spec are built here too, so
    an out-of-range value is a usage error before anything runs.
    """
    values: dict = {}
    try:
        config_file = getattr(args, "config_file", None)
        if config_file:
            for key, raw in _config_from_file(config_file).items():
                values[key] = _coerce(key, raw)
        for field_name in _CONFIG_FIELDS:
            env = os.environ.get(ENV_PREFIX + field_name.upper())
            if env is not None:
                values[field_name] = _coerce(field_name, env)
        for field_name in _CONFIG_FIELDS:
            flag = getattr(args, field_name, None)
            if flag is not None:
                values[field_name] = flag
        config = RunConfig(**values)
        config.sim_params()
        config.gen_spec()
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return config


def make_parser() -> _Parser:
    parser = _Parser(prog="nvmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation, emit a JSON report")
    _add_config_flags(p_run)
    p_run.add_argument("--baseline", choices=SCHEMES, default=None,
                       help="also run this scheme and report normalized slowdown")
    p_run.add_argument("--out", default=None)

    p_crash = sub.add_parser("crash-sweep", help="random crash injections + recovery checks")
    _add_config_flags(p_crash)
    p_crash.add_argument("--points", type=int, default=100)
    p_crash.add_argument("--sweep-seed", type=int, default=1)
    p_crash.add_argument("--omission-matrix", action="store_true",
                         help="run the four tuple-omission injections instead")
    p_crash.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="sweep one axis across all schemes, emit CSV")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 0,20,40,80")
    p_sweep.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen-trace", help="write a synthetic trace")
    _add_config_flags(p_gen)
    p_gen.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify-trace", help="parse a trace file and summarize it")
    p_verify.add_argument("trace_path")
    p_verify.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        out_path = getattr(args, "out", None)
        out = open(out_path, "w") if out_path else sys.stdout
        try:
            if args.command == "run":
                config = resolve_config(args)
                return cmd_run(config, args.baseline, out)
            if args.command == "crash-sweep":
                config = resolve_config(args)
                return cmd_crash_sweep(config, args.points, args.sweep_seed, args.omission_matrix, out)
            if args.command == "sweep":
                config = resolve_config(args)
                try:
                    values = [int(v) for v in args.values.split(",") if v.strip()]
                except ValueError:
                    raise UsageError(f"sweep values must be integers, got {args.values!r}") from None
                return cmd_sweep(config, args.axis, values, out)
            if args.command == "gen-trace":
                config = resolve_config(args)
                return cmd_gen_trace(config, out)
            if args.command == "verify-trace":
                return cmd_verify_trace(args.trace_path, out)
            raise UsageError(f"unknown command {args.command!r}")
        finally:
            if out_path:
                out.close()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceParseError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DeadlockError as exc:
        print(f"deadlock: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line tool: single runs, crash sweeps, config sweeps, trace tools.

Exit codes: 0 ok, 1 usage error, 2 invariant violation, 3 internal deadlock.
Reports are JSON for single runs and CSV for sweeps; both embed the
resolved configuration (and its hash) so results are reproducible.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import random
import sys
from dataclasses import asdict, field, fields, make_dataclass, replace
from typing import Optional

from .crash import CrashPlan, check_prefix_consistency, crash, recover
from .engine import SCHEMES, SimParams, Simulator
from .timing import DeadlockError, LatencyConfig, run_until_idle
from .trace import GEN_MINIMUMS, GenSpec, TraceParseError, generate, read_text, read_trace, refence, render, stores_in

ENV_PREFIX = "NVMSIM_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_DEADLOCK = 3


class UsageError(Exception):
    pass


# GenSpec's fields under the names `nvmsim run` gives them; the seed is SimParams' own
GEN_FIELDS = {"epoch_size": "fence_interval", "gen_stores": "store_count",
              "gen_pages": "pages", "gen_run_length": "run_length"}


class _RunConfigMethods:
    """Fully resolved configuration of one simulation run.

    Its fields and their defaults come from ``SimParams`` (all but
    ``latency``) and ``LatencyConfig``, then ``trace_file`` and
    ``event_log``, which only the report reads, then the ``GenSpec`` fields
    named in ``GEN_FIELDS``.  Building one validates it: an out-of-range
    value raises ValueError.
    """

    def __post_init__(self) -> None:
        self.sim_params()
        for name, spec in GEN_FIELDS.items():  # named as the user typed them, not as GenSpec's fields
            if getattr(self, name) < GEN_MINIMUMS[spec]:
                raise ValueError(f"{name} must be >= {GEN_MINIMUMS[spec]}, got {getattr(self, name)}")

    def sim_params(self) -> SimParams:
        values = {f.name: getattr(self, f.name) for f in fields(SimParams) if f.name != "latency"}
        latency = LatencyConfig(**{f.name: getattr(self, f.name) for f in fields(LatencyConfig)})
        return SimParams(latency=latency, **values)

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def gen_spec(self) -> GenSpec:
        return GenSpec(seed=self.seed, **{spec: getattr(self, name) for name, spec in GEN_FIELDS.items()})

    def load_trace(self):
        """The configured trace; every store must fall inside the tree's capacity."""
        events = read_trace(self.trace_file) if self.trace_file is not None else generate(self.gen_spec())
        geometry = self.sim_params().geometry()
        for i, store in enumerate(stores_in(events)):
            if store.addr.page >= geometry.leaf_count:
                raise UsageError(f"store {i} is on page {store.addr.page}, outside the protected "
                                 f"capacity of {geometry.leaf_count} pages")
        return events


def _knobs(pairs) -> list:
    """``(name, type, field)`` of each ``(name, source field)`` pair, with the source's default."""
    return [(name, type(source.default), field(default=source.default)) for name, source in pairs]


_GEN_SOURCES = {f.name: f for f in fields(GenSpec)}

RunConfig = make_dataclass(
    "RunConfig",
    _knobs((f.name, f) for f in (*fields(SimParams), *fields(LatencyConfig)) if f.name != "latency")
    + [("trace_file", Optional[str], field(default=None)),
       # the report carries the update log's digest; the run keeps the log either way
       ("event_log", bool, field(default=True))]
    + _knobs((name, _GEN_SOURCES[spec]) for name, spec in GEN_FIELDS.items()),
    bases=(_RunConfigMethods,),
    frozen=True,
    namespace={"__module__": __name__, "__doc__": _RunConfigMethods.__doc__},
)


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
    for record in sim.log.rows():
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
        base = run_simulation(replace(config, scheme=baseline_scheme))
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
        if not len(sim.golden):
            raise UsageError("the omission matrix needs a trace with at least one store")
        expected = {
            "root": {"bmt-failure"},
            "mac": {"mac-failure"},
            "counter": {"wrong-plaintext", "mac-failure", "bmt-failure"},
            "ciphertext": {"wrong-plaintext", "mac-failure"},
        }
        target = len(sim.golden) - 1
        snapshots = {comp: crash(sim, CrashPlan("tuple-omission", persist_id=target, component=comp))
                     for comp in expected}
        # a cut inside an epoch fails the tree check on the epoch's other root effects
        exact = not snapshots["mac"].incomplete_epochs
        # the target's root write can repeat a register value another persist
        # of its epoch already wrote; dropping it then leaves nothing to detect
        register = snapshots["mac"].root_register
        matrix = {}
        for comp, want in expected.items():
            snapshot = snapshots[comp]
            row = {}
            if comp == "root":
                row["root_register_changed"] = snapshot.root_register != register
                want = want if row["root_register_changed"] else set()
            got = recover(snapshot, sim.keys, sim.geometry).verdict_set(sim.golden.addr[target])
            match = got == want if exact else want <= got
            matrix[comp] = row | {
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
    field_name = axis.replace("-", "_")
    axis_configs = []
    for value in values:
        try:
            axis_configs.append(replace(config, **{field_name: value}))
        except ValueError as exc:
            raise UsageError(f"sweep value {value} for {axis}: {exc}") from exc
    base_events = config.load_trace()
    writer = csv.writer(out)
    writer.writerow(
        ["axis", "value", "scheme", "last_completion_cycle", "total_cycles",
         "node_updates", "coalesce_pairs", "persists", "config_hash"]
    )
    for value, axis_config in zip(values, axis_configs):
        events = refence(base_events, value) if axis == "epoch-size" else base_events
        for scheme in SCHEMES:
            cfg = replace(axis_config, scheme=scheme)
            sim = Simulator(cfg.sim_params(), events)
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
    events = read_trace(path)
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


# the flags not spelled --field-name with an int, or store_true for a bool
_FLAG_EXCEPTIONS = {
    "scheme": ("--scheme", {"choices": SCHEMES}),
    "event_log": ("--no-event-log", {"action": "store_false"}),
    "trace_file": ("--trace", {}),
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(RunConfig):
        flag, kw = _FLAG_EXCEPTIONS.get(f.name) or (
            "--" + f.name.replace("_", "-"),
            {"action": "store_true"} if f.type is bool else {"type": int},
        )
        p.add_argument(flag, dest=f.name, default=None, **kw)
    p.add_argument("--config", dest="config_file", default=None,
                   help="key=value config file with [section] headers")


_CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _config_from_file(path: str) -> dict:
    """The file's values, coerced, by field name."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(read_text(path), source=path)
        items = [item for section in cp.sections() for item in cp.items(section)]
    except OSError:
        raise UsageError(f"cannot read config file {path}") from None
    except (TraceParseError, configparser.Error) as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    out = {}
    for key, raw in items:
        key = key.replace("-", "_")
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"unknown config key {key!r} in {path}")
        out[key] = _coerce(key, raw, f"config file {path}")
    return out


def _coerce(field_name: str, raw: str, source: str):
    """``raw`` as the field's type; ``source`` names where it was read."""
    typ = _CONFIG_FIELDS[field_name]
    if typ is bool:
        word = raw.strip().lower()
        if word not in configparser.ConfigParser.BOOLEAN_STATES:
            raise UsageError(f"{field_name} in {source} must be 1/true/yes/on or 0/false/no/off, got {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[word]
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"{field_name} in {source} must be an integer, got {raw!r}") from None
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < environment < command-line flags.

    Building the config validates it, so an out-of-range value is a usage
    error before anything runs.
    """
    try:
        values = _config_from_file(args.config_file) if args.config_file else {}
        for field_name in _CONFIG_FIELDS:
            env = ENV_PREFIX + field_name.upper()
            if env in os.environ:
                values[field_name] = _coerce(field_name, os.environ[env], f"environment variable {env}")
            if getattr(args, field_name) is not None:
                values[field_name] = getattr(args, field_name)
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def make_parser() -> _Parser:
    parser = _Parser(prog="nvmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation, emit a JSON report")
    _add_config_flags(p_run)
    p_run.add_argument("--baseline", choices=SCHEMES, default=None,
                       help="also run this scheme and report normalized slowdown")

    p_crash = sub.add_parser("crash-sweep", help="random crash injections + recovery checks")
    _add_config_flags(p_crash)
    p_crash.add_argument("--points", type=int, default=100)
    p_crash.add_argument("--sweep-seed", type=int, default=1)
    p_crash.add_argument("--omission-matrix", action="store_true",
                         help="run the four tuple-omission injections instead")

    p_sweep = sub.add_parser("sweep", help="sweep one axis across all schemes, emit CSV")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 0,20,40,80")

    p_gen = sub.add_parser("gen-trace", help="write a synthetic trace")
    _add_config_flags(p_gen)

    p_verify = sub.add_parser("verify-trace", help="parse a trace file and summarize it")
    p_verify.add_argument("trace_path")

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        out_path = getattr(args, "out", None)
        out = open(out_path, "w") if out_path else sys.stdout
        try:
            if args.command == "verify-trace":
                return cmd_verify_trace(args.trace_path, out)
            config = resolve_config(args)
            if args.command == "run":
                return cmd_run(config, args.baseline, out)
            if args.command == "crash-sweep":
                return cmd_crash_sweep(config, args.points, args.sweep_seed, args.omission_matrix, out)
            if args.command == "sweep":
                try:
                    values = [int(v) for v in args.values.split(",") if v.strip()]
                except ValueError:
                    raise UsageError(f"sweep values must be integers, got {args.values!r}") from None
                return cmd_sweep(config, args.axis, values, out)
            return cmd_gen_trace(config, out)
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

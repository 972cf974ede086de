import hashlib
import json
import os
import random
from dataclasses import fields

import pytest

from nvmsim.cli import (
    EXIT_DEADLOCK,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    GEN_FIELDS,
    RunConfig,
    event_log_digest,
    main,
    make_parser,
    run_simulation,
)
from nvmsim.engine import SCHEMES, SimParams, Simulator
from nvmsim.timing import LatencyConfig
from nvmsim.trace import GenSpec

from conftest import page_addr, random_trace_text, run_sim, trace_text

BASE = ["--levels", "4", "--ideal-caches", "--gen-stores", "12", "--gen-pages", "4"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_reports_json(capsys):
    code, out, _ = run_cli(capsys, "run", "--scheme", "sequential", *BASE)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["stats"]["persists_completed"] == 12
    assert report["stats"]["node_updates"] >= report["stats"]["persists_completed"]
    assert report["config"]["scheme"] == "sequential"
    assert "config_hash" in report


def test_run_deterministic_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "run", "--scheme", "coalesce", "--seed", "7", *BASE)
    _, out2, _ = run_cli(capsys, "run", "--scheme", "coalesce", "--seed", "7", *BASE)
    assert out1 == out2


def test_run_pipeline_beats_sequential(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "pipeline", "--baseline", "sequential", *BASE
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["normalized_slowdown"] < 1.0


def test_unknown_scheme_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--scheme", "bogus", *BASE)
    assert code == EXIT_USAGE


def test_unknown_axis_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis", "nope", "--values", "1,2", *BASE)
    assert code == EXIT_USAGE
    assert "axis" in err


def test_sweep_mac_latency_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "mac-latency", "--values", "0,20,40,80", *BASE
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("axis,value,scheme")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4 * 4  # four values x four schemes
    seq = {int(r[1]): int(r[3]) for r in rows if r[2] == "sequential"}
    assert seq[0] < seq[20] < seq[40] < seq[80]


def test_sweep_epoch_size_refences_trace(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "epoch-size", "--values", "1,4,12", *BASE
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    coalesce = {int(r[1]): int(r[5]) for r in rows if r[2] == "coalesce"}
    assert coalesce[1] >= coalesce[4] >= coalesce[12]


def test_sweep_cache_sizes(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "cache-kb", "--values", "32,64,128,256", *BASE
    )
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 4 * 4


def test_crash_sweep_clean(capsys):
    code, out, _ = run_cli(
        capsys, "crash-sweep", "--scheme", "sequential", "--points", "40", *BASE
    )
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["ok"] and result["points"] == 40


def test_crash_sweep_omission_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "crash-sweep", "--scheme", "sequential", "--omission-matrix", *BASE
    )
    assert code == EXIT_OK
    result = json.loads(out)
    assert all(row["match"] for row in result["omission_matrix"].values())
    assert {row["comparison"] for row in result["omission_matrix"].values()} == {"exact"}
    assert result["omission_matrix"]["root"]["root_register_changed"] is True


def test_deadlock_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(Simulator, "_ev_arrival", lambda self, pid: None)  # no tuple ever arrives
    code, out, err = run_cli(capsys, "run", "--scheme", "ooo", "--epoch-size", "4", *BASE)
    assert code == EXIT_DEADLOCK and out == ""
    assert err.startswith("deadlock: simulation idle at cycle") and "ett epoch 0 pids 0.." in err


def test_crash_sweep_zero_points_usage_error(capsys):
    code, _, _ = run_cli(capsys, "crash-sweep", "--points", "0", *BASE)
    assert code == EXIT_USAGE


def test_gen_and_verify_trace_round_trip(tmp_path, capsys):
    path = tmp_path / "t.trace"
    code, out, _ = run_cli(capsys, "gen-trace", "--gen-stores", "20", "--gen-pages", "4",
                           "--epoch-size", "5", "--seed", "3")
    assert code == EXIT_OK
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify-trace", str(path))
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["stores"] == 20
    assert summary["fences"] == 3


def test_verify_trace_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text("S 0x1001\n")
    code, _, err = run_cli(capsys, "verify-trace", str(path))
    assert code == EXIT_USAGE
    assert "line 1" in err


def test_trace_file_input(tmp_path, capsys):
    path = tmp_path / "in.trace"
    path.write_text(trace_text(page_addr(0), page_addr(1), "F", page_addr(2)))
    code, out, _ = run_cli(
        capsys, "run", "--scheme", "ooo", "--levels", "4", "--ideal-caches",
        "--trace", str(path),
    )
    assert code == EXIT_OK
    assert json.loads(out)["stats"]["persists_completed"] == 3


def test_config_file_and_env_override(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nscheme = pipeline\nlevels = 4\nideal-caches = true\n"
                   "[trace]\ngen-stores = 6\ngen-pages = 2\n")
    monkeypatch.setenv("NVMSIM_SEED", "9")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["config"]["scheme"] == "pipeline"
    assert report["config"]["seed"] == 9
    # command-line flag wins over env and file
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "4")
    assert json.loads(out)["config"]["seed"] == 4


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nwarp-drive = on\n")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == EXIT_USAGE


def test_missing_trace_file(capsys):
    code, _, err = run_cli(capsys, "run", "--trace", "/nonexistent/x.trace", *BASE)
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, named",
    [
        (("run", "--mac-latency", "-1", *BASE), ()),
        (("run", "--wpq-capacity", "0", *BASE), ()),
        (("run", "--arity", "1", *BASE), ("arity",)),
        (("run", "--cache-assoc", "0", *BASE), ("cache_kb 128", "cache_assoc 0")),
        (("run", "--mac-units", "-1", *BASE), ()),
        (("sweep", "--axis", "mac-latency", "--values", "a,b", *BASE), ("'a,b'",)),
        (("sweep", "--axis", "cache-kb", "--values", "0", *BASE), ("cache_kb 0", "cache_assoc 8")),
        (("crash-sweep", "--omission-matrix", *BASE, "--gen-stores", "0"), ()),
        (("run", "--seed", "-1", *BASE), ("seed",)),
        (("run", "--seed", str(2**64), *BASE), ("seed",)),
        (("sweep", "--axis", "epoch-size", "--values", "-3", *BASE), ("epoch_size", "got -3")),
        (("run", "--cache-kb", "1", "--cache-assoc", "3", *BASE), ("cache_kb 1", "cache_assoc 3")),
        (("run", "--epoch-size", "-1", *BASE), ("epoch_size", "got -1")),
        (("run", "--gen-run-length", "0", *BASE), ("gen_run_length", "got 0")),
        (("run", *BASE, "--gen-pages", "0"), ("gen_pages", "got 0")),
        (("run", *BASE, "--gen-stores", "-1"), ("gen_stores", "got -1")),
        (("gen-trace", "--gen-pages", "-2"), ("gen_pages", "got -2")),
    ],
    ids=["negative-mac-latency", "zero-wpq-capacity", "arity-one", "zero-cache-assoc",
         "negative-mac-units", "non-integer-sweep-values", "zero-cache-kb-sweep-value",
         "omission-matrix-without-stores", "negative-seed", "seed-above-64-bits",
         "negative-epoch-size-sweep-value", "cache-kb-not-a-multiple-of-assoc", "negative-epoch-size",
         "zero-gen-run-length", "zero-gen-pages", "negative-gen-stores", "gen-trace-negative-gen-pages"],
)
def test_bad_input_is_usage_error_with_message(capsys, argv, named):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("usage error: ")
    # a value out of range names its knob and the value
    assert all(word in err for word in named), err
    # a generator knob is named as typed, never by its GenSpec field
    assert "generator spec" not in err, err


@pytest.mark.parametrize(
    "setting, named",
    [
        ("scheme = ooo\n", ()),
        ("[run]\nseed = 1\nseed = 2\n", ()),
        ("[run]\nseed\n", ()),
        ("[run]\nscheme = %(x)s\n", ()),
        ("[run]\nideal_caches = maybe\n", ("ideal_caches", "config file")),
        ("[run]\nseed = -1\n", ()),
        (("NVMSIM_SEED", "-1"), ()),
        (("NVMSIM_SEED", str(2**64)), ()),
        (("NVMSIM_IDEAL_CACHES", "maybe"), ("ideal_caches", "NVMSIM_IDEAL_CACHES")),
        ("[run]\nlevels = abc\n", ("levels", "config file", "'abc'")),
        (("NVMSIM_SEED", "x"), ("seed", "NVMSIM_SEED", "'x'")),
        (b"\xff[a]\nseed=1\n", ("config file", "bad.cfg", "line 1", "byte 0xff is not UTF-8 text")),
    ],
    ids=["file-without-section", "file-duplicate-key", "file-key-without-value",
         "file-interpolation", "file-bool-maybe", "file-negative-seed",
         "env-negative-seed", "env-seed-above-64-bits", "env-bool-maybe",
         "file-non-integer", "env-non-integer", "file-not-utf8"],
)
def test_bad_config_source_is_usage_error_with_message(tmp_path, capsys, monkeypatch, setting, named):
    if isinstance(setting, tuple):
        monkeypatch.setenv(*setting)
        argv = BASE
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(setting if isinstance(setting, bytes) else setting.encode())
        argv = [*BASE, "--config", str(cfg)]
    code, _, err = run_cli(capsys, "run", *argv)
    assert code == EXIT_USAGE
    assert err.startswith("usage error: ")
    # a value of the wrong type names its knob and where it was read
    assert all(word in err for word in named), err


@pytest.mark.parametrize("command", ["run", "verify-trace"])
def test_trace_that_is_not_utf8_is_a_trace_error(tmp_path, capsys, command):
    path = tmp_path / "binary.trace"
    path.write_bytes(b"S 0x0\nS 0x\xff40\n")
    argv = ("run", "--trace", str(path), *BASE) if command == "run" else ("verify-trace", str(path))
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("trace error: line 2: ")


def test_trace_path_that_is_a_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify-trace", str(tmp_path))
    assert code == EXIT_USAGE
    assert err.startswith("error: ")


def test_deep_tree_runs(capsys):
    # tree defaults are built by a loop: 1,100 levels once overflowed the stack
    code, out, _ = run_cli(capsys, "run", "--levels", "1100", "--ideal-caches", "--gen-stores", "1")
    assert code == EXIT_OK
    assert json.loads(out)["stats"]["node_updates"] == 1100


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("stores", [0, 30])
def test_streamed_event_log_digest_matches_json(scheme, stores):
    text = random_trace_text(random.Random(stores), stores, 5, fence_every=4) if stores else ""
    sim = run_sim(scheme, text, levels=5)
    assert len(sim.update_log) >= stores
    want = hashlib.sha256(json.dumps(sim.update_log).encode()).hexdigest()[:16]
    assert event_log_digest(sim) == want


@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_event_log_keeps_every_stat_and_verdict(capsys, scheme):
    # event_log decides only whether the report carries the update log's
    # digest: turning it off changes no stat, root value or crash verdict
    argv = ["--scheme", scheme, "--gen-stores", "200", "--gen-pages", "16", "--gen-run-length", "3",
            "--epoch-size", "8"]
    sims = [run_simulation(RunConfig(scheme=scheme, gen_stores=200, gen_pages=16, gen_run_length=3, epoch_size=8,
                                     event_log=event_log)) for event_log in (True, False)]
    assert list(sims[1].root_history) == list(sims[0].root_history)
    assert sims[1].bmt.root_register == sims[0].bmt.root_register
    _, logged, _ = run_cli(capsys, "run", *argv)
    _, unlogged, _ = run_cli(capsys, "run", "--no-event-log", *argv)
    logged, unlogged = json.loads(logged), json.loads(unlogged)
    assert unlogged["stats"] == logged["stats"]
    assert "event_log_digest" in logged and "event_log_digest" not in unlogged
    sweeps = []
    for flags in ([], ["--no-event-log"]):
        code, out, _ = run_cli(capsys, "crash-sweep", *flags, "--points", "50", *argv)
        sweep = json.loads(out)
        del sweep["config_hash"]  # the hash covers the event_log knob
        sweeps.append((code, sweep))
    assert sweeps[0] == sweeps[1]
    assert sweeps[0][1]["points"] == 50


def test_trace_page_beyond_capacity_is_usage_error(tmp_path, capsys):
    path = tmp_path / "far.trace"
    path.write_text("S 0x258000\n")  # page 600; 4 levels of arity 8 protect 512 pages
    code, _, err = run_cli(capsys, "run", "--levels", "4", "--trace", str(path))
    assert code == EXIT_USAGE
    assert "page 600" in err and "512 pages" in err


def test_omission_matrix_cut_inside_the_epoch_needs_only_contain_the_row(capsys):
    # seed 13: the last persist completes before the rest of its epoch, so the
    # other root effects of that epoch add a bmt-failure to some rows
    code, out, _ = run_cli(
        capsys, "crash-sweep", "--omission-matrix", "--scheme", "ooo", "--seed", "13",
        "--gen-stores", "512", "--gen-pages", "64", "--gen-run-length", "4", "--epoch-size", "8",
    )
    assert code == EXIT_OK
    rows = json.loads(out)["omission_matrix"]
    assert {row["comparison"] for row in rows.values()} == {"contains"}
    assert all(row["match"] for row in rows.values())
    assert any(row["got"] != row["expected"] for row in rows.values())


def test_omission_root_row_expects_no_failure_when_the_register_is_unchanged(capsys):
    # default settings: another persist of the last persist's epoch carries
    # its change to the root first, so its own root write repeats the
    # register value and dropping it is undetectable
    code, out, _ = run_cli(capsys, "crash-sweep", "--omission-matrix", "--scheme", "ooo", "--seed", "0")
    assert code == EXIT_OK
    root = json.loads(out)["omission_matrix"]["root"]
    assert root["root_register_changed"] is False
    assert root["expected"] == root["got"] == [] and root["match"]


def test_omission_matrix_cuts_once_the_last_tuple_is_durable(capsys):
    # the last persist completes at cycle 2, but its epoch unlocks, and its
    # tuple becomes durable, only at 3: a cut at 2 holds no component of its block
    code, out, _ = run_cli(
        capsys, "crash-sweep", "--omission-matrix", "--scheme", "ooo", "--epoch-size", "2", "--seed", "681",
        "--gen-stores", "3", "--gen-pages", "64", "--arity", "8", "--levels", "4", "--mac-latency", "0",
        "--wpq-enqueue", "0", "--cache-hit", "0", "--cache-fill", "200", "--ett-capacity", "2",
        "--mac-units", "0", "--drain-interval", "1", "--ideal-caches",
    )
    assert code == EXIT_OK
    rows = json.loads(out)["omission_matrix"]
    assert {row["comparison"] for row in rows.values()} == {"exact"}
    assert all(row["match"] for row in rows.values())


def test_omission_matrix_of_small_ep_configurations_exits_with_a_verdict(capsys):
    rng = random.Random(22)
    for _ in range(400):
        arity = rng.choice((2, 8))
        argv = ["crash-sweep", "--omission-matrix", "--scheme", rng.choice(("ooo", "coalesce")),
                "--epoch-size", rng.randrange(5), "--seed", rng.randrange(1000), "--gen-stores", rng.randrange(1, 41),
                "--gen-pages", rng.choice((2, 8, 64)), "--arity", arity, "--levels", {2: 7, 8: 4}[arity],
                "--mac-latency", rng.choice((0, 1, 40)), "--wpq-enqueue", rng.choice((0, 1, 3)),
                "--cache-hit", rng.choice((0, 2)), "--cache-fill", rng.choice((0, 200)),
                "--ett-capacity", rng.randrange(1, 4), "--mac-units", rng.randrange(3),
                "--drain-interval", rng.choice((1, 8))] + ["--ideal-caches"] * (rng.random() < 0.5)
        argv = list(map(str, argv))
        code, _, err = run_cli(capsys, *argv)
        assert code in (EXIT_OK, EXIT_VIOLATION), (argv, err)


def test_run_config_fields_are_derived_from_their_sources():
    sources = {f.name: f.default for f in fields(SimParams) if f.name != "latency"}
    sources.update((f.name, f.default) for f in fields(LatencyConfig))
    sources.update(trace_file=None, event_log=True)
    gen_defaults = {f.name: f.default for f in fields(GenSpec)}
    sources.update((name, gen_defaults[spec]) for name, spec in GEN_FIELDS.items())
    assert {f.name: f.default for f in fields(RunConfig)} == sources
    assert len(sources) == 22


def test_config_hash_pins():
    assert RunConfig().config_hash() == "74f6aae778a712f2"
    config = RunConfig(scheme="ooo", seed=3, gen_stores=2048, gen_pages=64, gen_run_length=4, epoch_size=8)
    assert config.config_hash() == "499f3f36279bbc61"


def test_run_option_strings_pin():
    run = make_parser()._subparsers._group_actions[0].choices["run"]
    assert sorted(s for action in run._actions for s in action.option_strings) == [
        "--arity", "--baseline", "--cache-assoc", "--cache-fill", "--cache-hit", "--cache-kb",
        "--config", "--drain-interval", "--epoch-size", "--ett-capacity", "--gen-pages",
        "--gen-run-length", "--gen-stores", "--help", "--ideal-caches", "--levels",
        "--mac-latency", "--mac-units", "--no-event-log", "--out", "--ptt-capacity", "--scheme",
        "--seed", "--trace", "--wpq-capacity", "--wpq-enqueue", "-h",
    ]


SMALL = {"levels": 4, "ideal_caches": True, "gen_stores": 8, "gen_pages": 4}


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type is int])
def test_every_int_field_reaches_the_report(tmp_path, capsys, monkeypatch, name, source):
    value = 2 * SMALL.get(name, RunConfig.__dataclass_fields__[name].default) or 1
    argv = ["run"]
    for other, setting in SMALL.items():
        if other != name:
            argv += [f"--{other.replace('_', '-')}"] + ([] if setting is True else [str(setting)])
    if source == "flag":
        argv += [f"--{name.replace('_', '-')}", str(value)]
    elif source == "env":
        monkeypatch.setenv(f"NVMSIM_{name.upper()}", str(value))
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\n{name} = {value}\n")
        argv += ["--config", str(cfg)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["config"][name] == value

"""Tests of the benchmark itself: python3 -m pytest hostbench -q"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as hb  # noqa: E402
from spans import Tracer  # noqa: E402

hb.use_checkout_sources()

SELF_METRICS = [name for name in hb.PER_LAYER if name.endswith(".self_s")]


def small(name: str) -> hb.Workload:
    return replace(hb.WORKLOADS[name], stores=192, prefix=48, crash_points=4)


def run_script(*args, cwd=hb.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("traced", [False, True], ids=["end-to-end", "traced"])
@pytest.mark.parametrize("name", sorted(hb.WORKLOADS))
def test_smoke_every_workload(name, traced):
    result = hb.measure(small(name), seed=3, seconds=1, traced=traced, pinned=None)
    assert result["checks"].failures == []
    assert result["checks"].attempted > 0
    metrics = result["metrics"]
    assert list(metrics) == list(hb.PER_LAYER if traced else hb.END_TO_END)
    assert all(isinstance(v, (int, float)) for v in metrics.values()), metrics
    if traced:
        # every layer's self time plus the benchmark's own adds up to the root span
        assert sum(metrics[m] for m in SELF_METRICS) == pytest.approx(metrics["root_s"], rel=1e-9)
        assert metrics["bmt.compute_node_calls"] > 0 and metrics["crash.fold_s"] > 0
    else:
        timed = [m for m, unit in hb.END_TO_END.items() if unit != "B/store"]
        assert all(metrics[m] > 0 for m in timed), metrics


def test_tracer_restores_library():
    lib = hb.fresh_library()
    original = lib["engine"].encrypt
    tracer = Tracer()
    tracer.install(lib)
    assert lib["engine"].encrypt is not original and lib["crypto"].encrypt is lib["engine"].encrypt
    tracer.uninstall()
    assert lib["engine"].encrypt is original and lib["crypto"].encrypt is original


def test_perturbed_pin_fails_the_check():
    wl = small("crash-sweep")
    recorded = hb.run_iteration(wl, 5, hb.Checks(), hb.Lock(None)).digests
    checks = hb.Checks()
    hb.run_iteration(wl, 5, checks, hb.Lock(recorded))
    assert checks.failures == []

    key = f"coalesce/{wl.stores}"
    perturbed = json.loads(json.dumps(recorded))
    perturbed[key]["event_log_digest"] = "0" * 16
    checks = hb.Checks()
    hb.run_iteration(wl, 5, checks, hb.Lock(perturbed))
    assert len(checks.failures) == 1 and checks.failures[0].startswith(key)


def test_check_mode_passes_then_fails_on_altered_pin(tmp_path, capsys):
    pins = json.loads(hb.PINS.read_text())
    seed = sorted(pins["workloads"]["sp-coldset"], key=int)[0]
    ok = run_script("--check", "--workload", "sp-coldset", "--seed", seed)
    assert ok.returncode == hb.EXIT_OK, ok.stdout + ok.stderr
    assert "check passed" in ok.stdout

    case = pins["workloads"]["sp-coldset"][seed]
    key = sorted(k for k in case if not k.endswith("/crash"))[0]
    case[key]["last_completion_cycle"] += 1
    altered = tmp_path / "pins.json"
    altered.write_text(json.dumps(pins))
    assert hb.cmd_check("sp-coldset", int(seed), altered) == hb.EXIT_CHECK
    assert f"MISMATCH sp-coldset seed {seed}: {key}" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--workload", "nope", "--seed", "0", "--seconds", "1"],
    ["--workload", "ep-fence8", "--seed", "0", "--seconds", "0"],
    ["--workload", "ep-fence8", "--seed", "-1", "--seconds", "1"],
    ["--workload", "ep-fence8", "--seed", "0", "--seconds", "1", "--trace", "2"],
    ["--workload", "ep-fence8", "--seconds", "1"],
    ["--seed", "x"],
])
def test_bad_argument_exits_1_without_traceback(args):
    result = run_script(*args)
    assert result.returncode == hb.EXIT_USAGE
    assert "usage error" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_fails_without_library_sources(tmp_path):
    shutil.copy(hb.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    result = run_script("--workload", "ep-fence8", "--seed", "0", "--seconds", "1", cwd=tmp_path,
                        script=tmp_path / HERE.name / "run.py")
    assert result.returncode == hb.EXIT_SETUP
    assert result.stdout == "" and "Traceback" not in result.stderr


def test_digest_and_config_hash_match_nvmsim_run():
    wl = small("ep-fence8")
    lib = hb.fresh_library()
    config = hb.run_config(lib, wl, "coalesce", wl.stores, 9)
    out = io.StringIO()
    with redirect_stdout(out):
        assert lib["cli"].main(["run", "--scheme", "coalesce", "--seed", "9", "--gen-stores", str(wl.stores),
                                "--gen-pages", str(wl.pages), "--gen-run-length", str(wl.run_length),
                                "--epoch-size", str(wl.fence)]) == 0
    report = json.loads(out.getvalue())
    digest = hb.run_iteration(wl, 9, hb.Checks(), hb.Lock(None)).digests[f"coalesce/{wl.stores}"]
    assert report["config_hash"] == config.config_hash()
    assert report["event_log_digest"] == digest["event_log_digest"]
    assert report["stats"]["last_completion_cycle"] == digest["last_completion_cycle"]
    assert report["stats"]["node_updates"] == digest["node_updates"]


def test_omission_cut_inside_an_epoch_needs_only_contain_the_row():
    # ooo on this trace completes its last persist before the rest of its
    # epoch; `nvmsim crash-sweep --omission-matrix` reports that as a violation
    lib = hb.fresh_library()
    wl = replace(hb.WORKLOADS["ep-fence8"], prefix=512)
    events = hb.generate(lib, wl, wl.prefix, 13)
    sim, _ = hb.simulate(lib, hb.run_config(lib, wl, "ooo", wl.prefix, 13), events, hb.Checks(), "ooo")
    target = sim.wpq_entries[-1]
    assert sim.epoch_completion[target.epoch] > target.complete_cycle
    checks = hb.Checks()
    hb.crash_sample(lib, sim, 0, 13, "ooo", checks)
    assert checks.attempted == len(hb.OMISSION_EXPECTED) and checks.failures == []


def test_omission_table_matches_cli():
    lib = hb.fresh_library()
    out = io.StringIO()
    with redirect_stdout(out):
        lib["cli"].main(["crash-sweep", "--omission-matrix", "--levels", "4", "--gen-stores", "8"])
    matrix = json.loads(out.getvalue())["omission_matrix"]
    assert {k: set(v["expected"]) for k, v in matrix.items()} == hb.OMISSION_EXPECTED


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((hb.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(hb.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == hb.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == hb.PER_LAYER

"""Tests of the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q perfbench/test_bench.py

They run each workload once untraced and once traced (about two minutes on
a 2-core machine) and cross-check the pinned big-orbit sizes against the
independent DFS oracle in tests/oracles.py.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import layertrace  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

DOMINANT = {"realize": "toddcoxeter", "big-orbit": "hurwitz", "cold-orbit": "groups", "scan": "hurwitz"}


def traced_pass(calls):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return tracer, worker.run_pass(calls, tracer)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_untraced_and_accounts_for_wall_time(workload):
    from hurwitzorbits import cli, equalities, hurwitz, toddcoxeter

    calls = workloads.setup(workload, 7)
    untraced = worker.run_pass(calls)
    tracer, traced = traced_pass(calls)
    assert cli.enumerate_cosets is toddcoxeter.enumerate_cosets
    assert equalities.orbit_size is hurwitz.orbit_size
    assert not hasattr(cli.enumerate_cosets, "__wrapped__")

    assert untraced[3] == [] and traced[3] == []
    assert traced[2] == untraced[2]

    layers = worker.layer_metrics(tracer, [traced], [untraced])
    self_total = sum(layers[f"{layer}.self_s"][0] for layer in layertrace.LAYERS)
    unaccounted = sum(traced[1]) - self_total
    # The overhead is a difference of two noisy timings, so it is floored.
    assert 0 <= unaccounted <= max(abs(layers["trace.overhead_s"][0]), 0.01 * sum(traced[1]))
    dominant = max(layertrace.LAYERS, key=lambda layer: layers[f"{layer}.self_s"][0])
    assert dominant == DOMINANT[workload]
    assert all(value is not None for value, _ in layers.values())


def test_planted_wrong_answers_are_all_counted():
    calls = [c for c in workloads.setup("cold-orbit", 1) if "g4" in c.label]
    calls += [c for c in workloads.setup("realize", 1) if c.label in ("realize q8-ab", "realize D6")]
    planted = [dataclasses.replace(c, expected=("planted",)) for c in calls[:2]] + calls[2:]

    def boom():
        raise RuntimeError("planted")

    planted.append(workloads.Call("raises", boom, 0))
    _, durations, _, failures = worker.run_pass(planted)
    assert len(durations) == len(planted)
    assert len(failures) == 3
    assert len(worker.run_pass(calls)[3]) == 0


def test_missing_entry_point_is_reported_absent(monkeypatch):
    from hurwitzorbits import groups

    monkeypatch.delattr(groups.Group, "conjugation_tables")
    calls = [c for c in workloads.setup("realize", 1) if c.label == "realize g4"]
    tracer, traced = traced_pass(calls)
    layers = worker.layer_metrics(tracer, [traced], [traced])
    assert layers["groups.tables_s"][0] is None
    assert layers["groups.tables_unavailable"][0] is None
    assert layers["toddcoxeter.elements"][0] == 24


def test_big_orbit_pins_match_oracle():
    from oracles import orbit_dfs

    inputs = workloads.big_orbit_inputs()
    for key, pinned in (("s5", workloads.S5_ORBIT), ("g6", workloads.G6_ORBIT), ("graph", workloads.G6_GRAPH_VERTICES)):
        members, capped = orbit_dfs(inputs[key].group, inputs[key].factors)
        assert not capped and len(members) == pinned


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "slowest_call_s", "peak_rss_mb", "setup_s"}
    calls = [c for c in workloads.setup("realize", 1) if c.label == "realize g4"]
    tracer, traced = traced_pass(calls)
    layers = worker.layer_metrics(tracer, [traced], [traced])
    assert [m["name"] for m in spec["per_layer"]] == list(layers)

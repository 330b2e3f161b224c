"""Binding-site check for the benchmark's span tracer.

Runs a tiny instance of each workload under the tracer. Call counts that the
workload itself fixes must come out exactly, whatever the implementation, and
every traced function must be seen by at least one workload, so a binding
site the tracer misses fails here instead of under-reporting a layer.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import math
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SETUP = {"codebook_build": {"m": 16, "q": 4}}
TINY = {
    "sweep_nmse": {"trials": 2, "horizon": 20},
    "gain_hybrid": {"trials": 2, "horizon": 50},
    "codebook_build": {"books": 1},
    "rt_single": {"vehicles": 2, "steps": 30},
}


def _traced(name):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(**SETUP.get(name, {}))
    tr = tracer.Tracer()

    def mark(unit):
        tr.unit = unit

    with tr:
        t0 = time.perf_counter()
        work = wl.work(ctx, SEED, **TINY[name], mark=mark)
        wl.check(ctx, work)
        wall = time.perf_counter() - t0
    return ctx, tr, tr.metrics(wall), wall


@pytest.fixture(scope="module")
def runs():
    return {name: _traced(name) for name in workloads.WORKLOADS}


def test_workload_fixed_call_counts(runs):
    ctx, _, m, _ = runs["sweep_nmse"]
    powers = len(ctx["scenario"].tx_powers_dbm)
    assert powers == 3
    assert m["ekf.Tracker.step.calls"] == 2 * 20 * powers

    ctx, _, m, _ = runs["gain_hybrid"]
    omega = ctx["scenario"].omega
    assert m["ekf.Tracker.step.calls"] == 2 * 50
    assert m["selector.select.calls"] == 2 * math.ceil(50 / omega)

    _, _, m, _ = runs["codebook_build"]
    assert m["codebook.fit_codeword.calls"] == SETUP["codebook_build"]["q"]

    _, _, m, _ = runs["rt_single"]
    assert m["ekf.Tracker.step.calls"] == 2 * 30


def test_every_traced_function_is_called(runs):
    for _, tr, _, _ in runs.values():
        assert tr.missing == []
    unseen = [span for span in tracer.SPAN_NAMES
              if all(m[f"{span}.calls"] == 0 for _, _, m, _ in runs.values())]
    assert unseen == []


def test_module_self_times_cover_the_wall(runs):
    for name, (_, _, m, wall) in runs.items():
        covered = sum(tracer.module_self_s(m).values()) + m["unattributed"]
        assert covered == pytest.approx(wall, rel=1e-9, abs=1e-9), name
        assert m["unattributed"] >= 0.0, name


def test_no_module_keeps_an_unwrapped_binding():
    mods = {name: m for name, m in sys.modules.items()
            if name == "v2ibeam" or name.startswith("v2ibeam.")}
    targets = {id(getattr(sys.modules[f"v2ibeam.{span.split('.')[0]}"], span.split(".")[1]))
               for span in tracer.SPAN_NAMES if span.count(".") == 1}
    with tracer.Tracer():
        stale = [f"{name}.{key}" for name, m in mods.items()
                 for key, value in vars(m).items() if id(value) in targets]
    assert stale == []


def test_uninstall_restores_every_binding():
    from v2ibeam import ekf, harness, sounding

    before = (harness.run_trial, harness.Tracker.step, sounding.SteeringDictionary.__dict__["build"])
    with tracer.Tracer():
        assert harness.run_trial is not before[0]
        assert harness.Tracker.step is not before[1]
    assert (harness.run_trial, ekf.Tracker.step,
            sounding.SteeringDictionary.__dict__["build"]) == before


def test_registry_matches_the_tracer():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    registered = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert registered == tracer.metric_specs()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)

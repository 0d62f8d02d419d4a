"""Tests of the benchmark itself: metric names, failure gates, tracer hygiene.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture()
def mods():
    return run.load_spsim()


def test_unit_tables_match_benchmark_json():
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(run.NAMED) == sorted(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS) - {"plan"}


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    done = bench("--workload", "wide-ring", "--seed", "3", "--seconds", "0.5",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "plan", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_verify_fault_is_a_failed_request(mods, tmp_path):
    verify = workloads.Verify(mods, 0, tmp_path)
    config = tmp_path / "fault.json"
    config.write_text(json.dumps({"topology": {"nodes": 1, "gpus_per_node": 2},
                                  "workload": {"seq_len": 8}, "inject_fault_message": 0}))
    verify.items = [["verify", "--config", str(config)]]
    outcome = run.measure(verify, 0.0)
    assert (outcome["attempted"], outcome["failed"]) == (1, 1)
    assert "exited 1" in outcome["failures"][0]


def test_wide_ring_fault_is_a_failed_request(mods, tmp_path):
    wide = workloads.WideRing(mods, 0, tmp_path)
    clean = wide.items[0]
    wide.items = [clean, dict(clean, fault=mods.fabric.FaultInjection(5))]
    outcome = run.measure(wide, 0.0)  # one request: the clean input passes
    assert (outcome["attempted"], outcome["failed"]) == (1, 0)
    wide.items = wide.items[1:]
    outcome = run.measure(wide, 0.0)
    assert (outcome["attempted"], outcome["failed"]) == (1, 1)
    assert "oracle error" in outcome["failures"][0]


def test_tracer_restores_every_wrapped_name(mods, tmp_path):
    targets = tracer_module.wrap_targets(mods)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _n, _k in targets]
    tracer = tracer_module.Tracer(mods)
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        decode = workloads.Decode(mods, 0, tmp_path)
        tracer.request = 1
        decode.warm_up()
    finally:
        tracer.request = None
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    names = {span[1] for span in tracer.spans}
    assert {"inference.prefill", "inference.decode_step", "fabric.run",
            "fabric.handle", "numeric.step", "numeric.merge"} <= names


def test_layer_accounting_on_a_small_pass(mods, tmp_path):
    wide = workloads.WideRing(mods, 0, tmp_path)
    tracer = tracer_module.Tracer(mods)
    tracer.install()
    try:
        tracer.request = 1
        wide.warm_up()  # zigzag ring on 4 ranks, then 2D (2 x 2)
    finally:
        tracer.request = None
        tracer.uninstall()
    metrics = tracer.layer_metrics(requests=1)
    assert metrics["numeric.step.calls"] == 4 * 4 + 4 * 2
    assert metrics["fabric.programs"] == 2
    assert metrics["strategies.runs"] == 2
    # zigzag: 3 hops x 4 sends; 2D: a2a in, 1 ring hop, a2a out on every rank.
    assert metrics["fabric.rank_ops"] == 4 * 3 + 4 * 3
    assert metrics["fabric.messages"] == 4 * 3 + (4 + 4 + 4)
    run_s = metrics["fabric.run.s"]
    assert 0 < metrics["fabric.handoff.s"] < run_s
    assert metrics["numeric.step.s"] < run_s - metrics["fabric.handoff.s"]


def test_tail_index_keeps_ten_samples_beyond():
    assert run.tail_index(1000) == 899
    assert run.tail_index(100) == 89
    assert run.tail_index(50) == 39
    assert run.tail_index(5) == 0


def test_exception_in_a_request_is_a_failed_request(mods, tmp_path):
    plan = workloads.Plan(mods, 0, tmp_path)

    def crash(item, timings):
        raise RuntimeError("boom")

    plan.run = crash
    outcome = run.measure(plan, 0.0)
    assert outcome["attempted"] == outcome["failed"] == 1
    assert outcome["failures"] == ["RuntimeError: boom"]

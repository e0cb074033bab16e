"""Self-tests of the benchmark on tiny runs of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import pytest

import run  # first: pins BLAS threads and puts src/ on the path
import workloads
from tracing import Tracer, tensor_ops

from metalign import nn, optim
from metalign import tensor as T

SPEC = run.spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = 6


def tiny(name, trace, tmp_path, seed=1):
    return run.run_benchmark(name, seed, 0.001, trace, str(tmp_path),
                             setup_repeats=1, iterations=TINY)


def test_spec_names_the_workloads_defined():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric(name, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        metrics, detail = tiny(name, trace, tmp_path / kind)
        for m in SPEC[kind]:
            assert math.isfinite(metrics[m["name"]]), m["name"]
        assert detail["attempted"] >= 1 and detail["failed"] == 0
        assert detail["error_rate"] == 0.0
        assert (detail["grad_cos_gain"] is not None) == (name == "moons-sweep")


def test_main_prints_the_result_last(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(workloads.WORKLOADS["moons-meta-dann"].overrides,
                        "iterations", TINY)
    assert run.main(["--workload", "moons-meta-dann", "--seed", "2",
                     "--seconds", "0.001", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, _ = tiny(name, True, tmp_path / "a")
    second, _ = tiny(name, True, tmp_path / "b")
    counts = [k for k in first if k.endswith(".calls") or k.startswith("tensor.nodes_")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["tensor.nodes_phase1"] > 0 and first["tensor.nodes_phase2"] > 0
    mmd = first["tensor.pairwise_sqdist.calls"]
    assert (mmd > 0) == (name == "gaussian-mmd-wide")


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_the_metrics_stream_unchanged(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    plain_dir = workloads.run_unit(workload, 5, 0, str(tmp_path / "plain"),
                                   workloads.Tally(), iterations=TINY)
    tracer = Tracer()
    with tracer.installed():
        traced_dir = workloads.run_unit(workload, 5, 0, str(tmp_path / "traced"),
                                        workloads.Tally(), iterations=TINY)
    assert tracer.name_id, "the tracer recorded nothing"
    streams = []
    for root, _, files in os.walk(plain_dir):
        if "metrics.jsonl" in files:
            rel = os.path.relpath(os.path.join(root, "metrics.jsonl"), plain_dir)
            streams.append(rel)
            with open(os.path.join(plain_dir, rel), "rb") as a, \
                    open(os.path.join(traced_dir, rel), "rb") as b:
                assert a.read() == b.read(), rel
    assert len(streams) == len(workload.arms or [None]) * workload.seeds_per_unit


def test_wrappers_are_removed_after_tracing():
    modules = [m for n, m in sys.modules.items()
               if n == "metalign" or n.startswith("metalign.")]
    before = [dict(vars(m)) for m in modules]
    activations = dict(nn._ACTIVATIONS)
    classes = {c: dict(vars(c)) for c in
               (nn.FeatureExtractor, nn.ClassifierHead, nn.DomainDiscriminator)}
    with Tracer().installed():
        assert T.matmul is not before[modules.index(T)]["matmul"]
        assert optim.backward is T.backward  # wrapped where it is imported
        assert nn._ACTIVATIONS["relu"] is T.relu
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items()), module.__name__
    assert nn._ACTIVATIONS == activations
    assert all(dict(vars(c)) == saved for c, saved in classes.items())


def test_every_op_metric_names_a_tensor_op():
    ops = set(tensor_ops())
    for m in SPEC["per_layer"]:
        if m["name"].endswith((".calls", ".fwd_us")):
            assert m["name"].split(".")[1] in ops, m["name"]


def _write_run(run_dir, summary, records):
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    with open(os.path.join(run_dir, "metrics.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


@pytest.mark.parametrize("summary, records, why", [
    ({"aborted": True, "steps": 2, "final_target_acc": 0.9},
     [{"L_cls": 1.0}, {"L_cls": 1.0}], "aborted"),
    ({"aborted": False, "steps": 2, "final_target_acc": 0.9},
     [{"L_cls": 1.0}, {"L_cls": float("nan"), "iteration": 1}], "non-finite L_cls"),
    ({"aborted": False, "steps": 2, "final_target_acc": 0.9},
     [{"L_cls": 1.0}], "1 lines"),
    ({"aborted": False, "steps": 1, "final_target_acc": 0.9},
     [{"L_cls": 1.0}], "ran 1 of 2"),
    ({"aborted": False, "steps": 2, "final_target_acc": None},
     [{"L_cls": 1.0}, {"L_dom_cls": None, "L_cls": 2.0}], "no final_target_acc"),
    ({"aborted": False, "steps": 2, "final_target_acc": 0.9},
     [{"L_cls": 1.0}, {"L_dom_cls": None, "L_cls": 2.0}], None),
])
def test_gate_run(tmp_path, summary, records, why):
    _write_run(tmp_path / "r", summary, records)
    reason, _ = workloads.gate_run(str(tmp_path / "r"), 2)
    assert (reason is None) if why is None else (why in reason)


def test_workload_checks():
    sweep = workloads.WORKLOADS["moons-sweep"]
    tally = workloads.Tally(attempted=4, accs=[0.7, 0.7],
                            cos_by_arm={"joint": [-0.2], "alternate": [-0.1]})
    assert workloads.failed_checks(sweep, tally) == []
    tally.cos_by_arm["alternate"] = [-0.3]
    assert "grad_cos_gain" in workloads.failed_checks(sweep, tally)[0]
    tally.accs = [0.1]
    tally.failed = 1
    assert len(workloads.failed_checks(sweep, tally)) == 3

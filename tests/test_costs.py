"""The cost ledger: counts of work that repeat exactly from run to run, so a
change in the work a step does shows as a diff here, with no timing noise.

It holds, for every shipped config and for the MMD config at the batch of
the benchmark's gaussian-mmd-wide workload, the tape's node count at each
backward of the first steps, the Python calls one training step makes, and
the calls of each tensor op in one step. Under the alternate role policy
step 0 is an alignment and step 1 a classification meta-train step; a joint
step runs the alignment tape, then the classification tape.

The counts live in costs.json, so a change in them shows as a diff of that
file. A change that alters them on purpose rewrites every entry for the
running Python and numpy, from the repository root, with

    PYTHONPATH=src:tests python -c "import test_costs; test_costs.write_entries()"
"""

import json
import os
import sys
import tempfile
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from metalign import optim, runner
from metalign import tensor as T
from metalign.config import load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
COSTS = os.path.join(ROOT, "tests", "costs.json")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from tracing import tensor_ops  # noqa: E402  the benchmark's rule for what an op is

# run name: (shipped config, overrides)
RUNS = {
    "moons_dann_metaalign": ("moons_dann_metaalign", {}),
    "moons_dannpe_metaalign": ("moons_dannpe_metaalign", {}),
    "gaussian_mmd_metaalign": ("gaussian_mmd_metaalign", {}),
    "gaussian_mmd_metaalign_batch256": ("gaussian_mmd_metaalign", {"batch_size": 256}),
    "moons_dann_joint": ("moons_dann_joint", {}),
}


def load_costs():
    """The ledger: "nodes" (run: the node counts at each backward, one list
    per step), "calls" (calls_key(): run: Python calls per counted step) and
    "ops" (run: op: calls per step)."""
    with open(COSTS, encoding="utf-8") as fh:
        return json.load(fh)


LEDGER = load_costs()
NODES, CALLS, OPS = LEDGER["nodes"], LEDGER["calls"], LEDGER["ops"]


def calls_key():
    return f"python {sys.version_info.major}.{sys.version_info.minor}, numpy {np.__version__}"

def run_config(run, iterations, out_dir):
    """Train the named run for the given steps; returns its summary."""
    config, overrides = RUNS[run]
    cfg = load_config(os.path.join(CONFIGS, f"{config}.json"))
    return runner.run_training(replace(cfg, iterations=iterations, **overrides),
                               str(out_dir))


def step_node_counts(config, steps, out_dir, monkeypatch):
    """The node count of every tape at its backward, per step, over the
    first steps of the run."""
    counts = []
    backward = optim.backward

    def counting(loss, wanted):
        counts.append(len(loss.tape.nodes))
        return backward(loss, wanted)

    monkeypatch.setattr(optim, "backward", counting)
    summary = run_config(config, steps, out_dir)
    assert summary["steps"] == steps
    per_step = len(counts) // steps
    return [counts[i:i + per_step] for i in range(0, len(counts), per_step)]


@pytest.mark.parametrize("config", sorted(NODES))
def test_tape_nodes_per_backward(config, tmp_path, monkeypatch):
    assert step_node_counts(config, len(NODES[config]), tmp_path,
                            monkeypatch) == NODES[config]


# Python calls (profiler "call" + "c_call" events) inside optim.*_step, one
# number per step for steps 4-9 after 4 warm-up steps. The counts include
# numpy's Python-level wrappers, so they are keyed by Python minor version
# and numpy version.
WARMUP, COUNTED = 4, 6


def step_call_counts(config, out_dir, monkeypatch):
    """The Python calls each training step of a short run makes, after the
    warm-up steps."""
    counts = []

    def counted(step):
        def run(*args, **kwargs):
            n = 0

            def profile(frame, event, arg):
                nonlocal n
                n += event == "call" or event == "c_call"

            sys.setprofile(profile)
            try:
                return step(*args, **kwargs)
            finally:
                sys.setprofile(None)
                counts.append(n)
        return run

    for name in ("joint_step", "metaalign_step"):
        monkeypatch.setattr(optim, name, counted(getattr(optim, name)))
    run_config(config, WARMUP + COUNTED, out_dir)
    return counts[WARMUP:]


@pytest.mark.parametrize("config", sorted(NODES))
def test_python_calls_per_step(config, tmp_path, monkeypatch):
    key = calls_key()
    got = step_call_counts(config, tmp_path, monkeypatch)
    want = CALLS.get(key, {}).get(config)
    if want is None:
        print(f"add to costs.json's calls[{key!r}]: {config!r}: {got},")
        pytest.skip(f"no call counts for {config} under {key}; the entry is printed")
    assert got == want


# Calls of each tensor op (perfbench's tensor_ops()) inside optim.*_step, the
# same on each of steps 4-9 after 4 warm-up steps; ops with no call are left out.


def step_op_counts(config, out_dir, monkeypatch):
    """The calls of each tensor op in each training step of a short run,
    after the warm-up steps; calls outside a step are not counted."""
    counts = []
    live = None  # the counter of the step that is running, if one is

    def counted(name, op):
        def run(*args, **kwargs):
            if live is not None:
                live[name] += 1
            return op(*args, **kwargs)
        return run

    for name in tensor_ops():
        monkeypatch.setattr(T, name, counted(name, getattr(T, name)))

    def stepped(step):
        def run(*args, **kwargs):
            nonlocal live
            live = Counter()
            try:
                return step(*args, **kwargs)
            finally:
                counts.append(dict(live))
                live = None
        return run

    for name in ("joint_step", "metaalign_step"):
        monkeypatch.setattr(optim, name, stepped(getattr(optim, name)))
    run_config(config, WARMUP + COUNTED, out_dir)
    return counts[WARMUP:]


@pytest.mark.parametrize("config", sorted(NODES))
def test_op_calls_per_step(config, tmp_path, monkeypatch):
    got = step_op_counts(config, tmp_path, monkeypatch)
    assert got == [OPS[config]] * COUNTED


def _dump(doc, indent=""):
    """JSON with each dict's entries on lines of their own and every other
    value on one line, so a changed count is a one-line diff."""
    if not isinstance(doc, dict):
        return json.dumps(doc)
    inner = indent + "  "
    items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in doc.items()]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


def write_entries():
    """Recount every run under this Python and numpy and write costs.json;
    a run keeps its number of node-count steps."""
    ledger = load_costs()
    calls = ledger["calls"].setdefault(calls_key(), {})

    def count(measure, *args):
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            return measure(*args, tmp, mp)

    for run in RUNS:
        steps = len(ledger["nodes"].get(run, [None, None]))
        ledger["nodes"][run] = count(step_node_counts, run, steps)
        calls[run] = count(step_call_counts, run)
        ledger["ops"][run] = dict(sorted(count(step_op_counts, run)[0].items()))
    with open(COSTS, "w", encoding="utf-8") as fh:
        fh.write(_dump(ledger) + "\n")

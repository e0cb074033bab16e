"""The cost ledger: counts of work that repeat exactly from run to run, so a
change in the work a step does shows as a diff here, with no timing noise.

It holds the tape's node count at each backward of the first steps of every
shipped config, and the Python calls one training step makes. Under the
alternate role policy step 0 is an alignment and step 1 a classification
meta-train step; a joint step runs the alignment tape, then the
classification tape.
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from metalign import optim, runner
from metalign.config import load_config

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")

# shipped config: the node counts at each backward, one tuple per step
NODES = {
    "moons_dann_metaalign": [(50, 39), (22, 67)],
    "moons_dannpe_metaalign": [(86, 61), (32, 115)],
    "gaussian_mmd_metaalign": [(23, 39), (22, 40)],
    "moons_dann_joint": [(50, 22)],
}


def step_node_counts(config, steps, out_dir, monkeypatch):
    """The node count of every tape at its backward, per step, over the
    first steps of the shipped config."""
    counts = []
    backward = optim.backward

    def counting(loss, wanted):
        counts.append(len(loss.tape.nodes))
        return backward(loss, wanted)

    monkeypatch.setattr(optim, "backward", counting)
    cfg = load_config(os.path.join(CONFIGS, f"{config}.json"))
    summary = runner.run_training(replace(cfg, iterations=steps), str(out_dir))
    assert summary["steps"] == steps
    per_step = len(counts) // steps
    return [tuple(counts[i:i + per_step]) for i in range(0, len(counts), per_step)]


@pytest.mark.parametrize("config", sorted(NODES))
def test_tape_nodes_per_backward(config, tmp_path, monkeypatch):
    assert step_node_counts(config, len(NODES[config]), tmp_path,
                            monkeypatch) == NODES[config]


# Python calls (profiler "call" + "c_call" events) inside optim.*_step, one
# number per step for steps 4-9 after 4 warm-up steps. The counts include
# numpy's Python-level wrappers, so they are keyed by Python minor version
# and numpy version.
CALLS = {
    "python 3.11, numpy 2.4.6": {
        "moons_dann_metaalign": [1477] * 6,
        "moons_dannpe_metaalign": [2453] * 6,
        "gaussian_mmd_metaalign": [1101] * 6,
        "moons_dann_joint": [1230] * 6,
    },
}
WARMUP, COUNTED = 4, 6


def step_call_counts(config, out_dir, monkeypatch):
    """The Python calls each training step of a short run of the shipped
    config makes, after the warm-up steps."""
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
    cfg = load_config(os.path.join(CONFIGS, f"{config}.json"))
    runner.run_training(replace(cfg, iterations=WARMUP + COUNTED), str(out_dir))
    return counts[WARMUP:]


@pytest.mark.parametrize("config", sorted(NODES))
def test_python_calls_per_step(config, tmp_path, monkeypatch):
    key = f"python {sys.version_info.major}.{sys.version_info.minor}, numpy {np.__version__}"
    got = step_call_counts(config, tmp_path, monkeypatch)
    want = CALLS.get(key, {}).get(config)
    if want is None:
        print(f"add to CALLS[{key!r}]: {config!r}: {got},")
        pytest.skip(f"no call counts for {config} under {key}; the entry is printed")
    assert got == want

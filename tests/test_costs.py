"""The cost ledger: counts of work that repeat exactly from run to run, so a
change in the work a step does shows as a diff here, with no timing noise.

Today it holds the tape's node count at each backward of the first steps of
every shipped config. Under the alternate role policy step 0 is an alignment
and step 1 a classification meta-train step; a joint step runs the alignment
tape, then the classification tape.
"""

import os
from dataclasses import replace

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

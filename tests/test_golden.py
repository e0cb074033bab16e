"""Golden bytes: the sha256 of what short runs of the shipped configs and a
short sweep write, against tests/golden.json.

The bits of a run depend on the BLAS kernels and numpy, so golden.json keys
its entries by OpenBLAS core name and numpy version. On a key with no entry
the test still checks that two runs agree and that runs at 1 and 2 BLAS
threads agree, then prints the entry to add. A change that alters bits on
purpose updates golden.json, so the change shows as a diff.
"""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np

from metalign import runner
from metalign.config import load_config

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
ITERATIONS = 30
RUN_FILES = ("metrics.jsonl", "summary.json", "checkpoint.npz")
# run name: (shipped config, TrainConfig fields replaced besides iterations)
RUNS = {
    "moons_dann_joint": ("moons_dann_joint.json", {}),
    "moons_dann_metaalign": ("moons_dann_metaalign.json", {}),
    "moons_dannpe_metaalign": ("moons_dannpe_metaalign.json", {}),
    "gaussian_mmd_metaalign": ("gaussian_mmd_metaalign.json", {}),
    "gaussian_mmd_metaalign_batch256": ("gaussian_mmd_metaalign.json",
                                        {"batch_size": 256}),
}
SWEEP_CONFIG, SWEEP_SEEDS = "moons_dann_metaalign.json", [1, 2, 3]


def shortened(config, **fields):
    # replace keeps cfg.raw, so the stored document and config_hash stay the shipped ones
    return replace(load_config(os.path.join(CONFIGS, config)),
                   iterations=ITERATIONS, **fields)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_hashes(base):
    """The sha256 of every golden file, written under base, by <run>/<file>."""
    out = {}
    for name, (config, fields) in RUNS.items():
        runner.run_training(shortened(config, **fields), str(base / name))
        out.update({f"{name}/{f}": sha256(base / name / f) for f in RUN_FILES})
    runner.run_sweep(shortened(SWEEP_CONFIG), SWEEP_SEEDS, str(base / "sweep"))
    out["sweep/aggregate.json"] = sha256(base / "sweep" / "aggregate.json")
    return out


def test_runs_match_golden_bytes(tmp_path, capsys):
    key = f"{runner.blas_core()} numpy {np.__version__}"
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    got = golden_hashes(tmp_path / "run")
    if key in golden:
        assert got == golden[key]
        return
    assert golden_hashes(tmp_path / "again") == got
    blas = runner.blas_threads()
    if blas is not None:
        get, put = blas
        before = get()
        try:
            for threads in (1, 2):
                put(threads)
                assert golden_hashes(tmp_path / f"threads_{threads}") == got
        finally:
            put(before)
    with capsys.disabled():
        print(f"\ntests/golden.json has no entry for {key!r}; add:\n"
              + json.dumps({key: got}, indent=2))

"""Golden bytes: the sha256 of what short runs of the shipped configs and a
short sweep write, against tests/golden.json.

The bits of a run depend on the BLAS kernels and numpy, so golden.json keys
its entries by OpenBLAS core name and numpy version. On a key with no entry
the test still checks that two runs agree and that runs at 1 and 2 BLAS
threads agree, then prints the entry to add. A change that alters bits on
purpose updates golden.json, so the change shows as a diff: recompute every
core's entry, from the repository root, with

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_entries()"

OpenBLAS chooses its kernels per process, by OPENBLAS_CORETYPE where it is
set, so one CPU can run the kernels of the older cores in CORES. A forced
core is expected to give the bits that core gives on its own hardware, since
it runs the same kernel code; that has not been checked on other hardware.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from metalign import runner
from metalign.config import load_config

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
GOLDEN = os.path.join(HERE, "golden.json")
# OPENBLAS_CORETYPE values of the keyed cores
CORES = ("SkylakeX", "Haswell", "SandyBridge", "Nehalem")
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


def entry_key(core):
    return f"{core} numpy {np.__version__}"


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def hashes_under(core, threads, base):
    """(the core OpenBLAS chose, golden_hashes(base)) from a child process
    started with OPENBLAS_CORETYPE=core and OPENBLAS_NUM_THREADS=threads."""
    code = ("import json, pathlib, sys, test_golden; from metalign import runner; "
            "print(json.dumps([runner.blas_core(), "
            "test_golden.golden_hashes(pathlib.Path(sys.argv[1]))]))")
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([os.path.join(os.path.dirname(HERE), "src"),
                                          HERE])}
    proc = subprocess.run([sys.executable, "-c", code, str(base)], env=env,
                          capture_output=True, text=True, check=True, timeout=600)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def write_entries(cores=CORES):
    """Recompute the entry of every core in cores, each in its own child
    process, and write them into golden.json."""
    golden = load_golden()
    for core in cores:
        with tempfile.TemporaryDirectory() as tmp:
            chosen, hashes = hashes_under(core, 1, tmp)
        golden[entry_key(chosen)] = hashes
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")


def test_two_blas_threads_on_a_forced_core_match_its_entry(tmp_path):
    """Under OpenBLAS's Nehalem kernels some products change bits with the
    thread count; a run still writes that core's golden bytes at 2 threads."""
    chosen, hashes = hashes_under("Nehalem", 2, tmp_path)
    if chosen != "Nehalem":
        pytest.skip(f"OpenBLAS chose {chosen!r}, not the forced Nehalem kernels")
    assert hashes == load_golden()[entry_key(chosen)]


def test_runs_match_golden_bytes(tmp_path, capsys):
    key = entry_key(runner.blas_core())
    golden = load_golden()
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

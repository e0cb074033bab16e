"""The benchmark's workloads: config documents made from the seed, units of
work run through the public API, and the correctness gate on every run.

A workload is a shipped config plus a few overrides. One unit of work is one
``runner.run_training`` call, or for a sweep workload one ``runner.run_sweep``
call per arm over the unit's seeds. The config seed of every run comes from
the benchmark seed and the unit index, so one benchmark seed always trains on
the same data with the same initialisation.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from metalign import runner
from metalign.config import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

# The four arms of acceptance criterion 7.
SWEEP_ARMS = (
    ("joint", {"kind": "joint"}),
    ("alternate", {"kind": "metaalign", "role_policy": "alternate"}),
    ("align_train", {"kind": "metaalign", "role_policy": "align_train"}),
    ("cls_train", {"kind": "metaalign", "role_policy": "cls_train"}),
)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each exists."""

    name: str
    config: str                 # file under configs/
    overrides: dict             # top-level keys replaced in the shipped doc
    acc_floor: float            # the mean final_target_acc must reach it
    seeds_per_unit: int = 1
    arms: Optional[tuple] = None  # set for sweep workloads


# Floors sit well below the mean final_target_acc seen over many seeds at the
# defining commit (about 0.79, 0.92 and 0.63) and, for the two-class moons,
# above chance; they catch a broken program, not a small quality change.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="moons-meta-dann",
        config="moons_dann_metaalign.json",
        overrides={},
        acc_floor=0.7),
    Workload(
        name="gaussian-mmd-wide",
        config="gaussian_mmd_metaalign.json",
        overrides={"batch_size": 256, "iterations": 120},
        acc_floor=0.75),
    Workload(
        name="moons-sweep",
        config="moons_dann_metaalign.json",
        overrides={"iterations": 200, "eval_every": 50},
        acc_floor=0.55,
        seeds_per_unit=2,
        arms=SWEEP_ARMS),
)}


def unit_seeds(workload: Workload, seed: int, unit: int) -> list[int]:
    first = seed * 1000 + unit * workload.seeds_per_unit
    return list(range(first, first + workload.seeds_per_unit))


def make_doc(workload: Workload, config_seed: int, out_dir: str,
             strategy: Optional[dict] = None,
             iterations: Optional[int] = None) -> dict:
    """The config document the program receives for one run or sweep arm."""
    with open(os.path.join(CONFIGS, workload.config), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(workload.overrides)
    doc["seed"] = config_seed
    doc["out_dir"] = out_dir
    if strategy is not None:
        doc["strategy"] = dict(strategy)
    if iterations is not None:
        doc["iterations"] = iterations
    return doc


@dataclass
class Tally:
    """What the units of one benchmark run attempted, completed and measured."""

    attempted: int = 0
    failed: int = 0
    steps: int = 0
    wall_s: float = 0.0
    accs: list = field(default_factory=list)
    cos_by_arm: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def fail(self, where: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{where}: {reason}")
        print(f"gate failed: {where}: {reason}", file=sys.stderr)


def gate_run(run_dir: str, iterations: int) -> tuple[Optional[str], dict]:
    """(why the run in run_dir is not correct or None, its summary.json)."""
    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary.get("aborted"):
        return "summary.json says aborted", summary
    if summary.get("steps") != iterations:
        return f"ran {summary.get('steps')} of {iterations} steps", summary
    lines = 0
    with open(os.path.join(run_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            lines += 1
            for key, value in rec.items():
                if key.startswith("L_") and value is not None \
                        and not math.isfinite(value):
                    return (f"non-finite {key} at iteration {rec.get('iteration')}",
                            summary)
    if lines != iterations:
        return f"metrics.jsonl has {lines} lines for {iterations} steps", summary
    if summary.get("final_target_acc") is None:
        return "no final_target_acc", summary
    return None, summary


def _record(tally: Tally, run_dir: str, iterations: int,
            arm: Optional[str] = None) -> None:
    try:
        reason, summary = gate_run(run_dir, iterations)
    except (OSError, ValueError) as e:
        tally.fail(run_dir, f"unreadable output: {e}")
        return
    tally.steps += int(summary.get("steps") or 0)
    if summary.get("final_target_acc") is not None:
        tally.accs.append(summary["final_target_acc"])
    if arm is not None and summary.get("mean_grad_cos") is not None:
        tally.cos_by_arm.setdefault(arm, []).append(summary["mean_grad_cos"])
    if reason is not None:
        tally.fail(run_dir, reason)


def run_unit(workload: Workload, seed: int, unit: int, work_dir: str,
             tally: Tally, iterations: Optional[int] = None) -> str:
    """Run one unit of work into work_dir/unit<k>, gate it, and return that dir.

    Only the calls into the runner count towards tally.wall_s. A run that
    raises is counted as failed and the unit goes on.
    """
    unit_dir = os.path.join(work_dir, f"unit{unit}")
    seeds = unit_seeds(workload, seed, unit)
    for arm, strategy in workload.arms or ((None, None),):
        out = unit_dir if arm is None else os.path.join(unit_dir, arm)
        cfg = parse_config(make_doc(workload, seeds[0], out, strategy, iterations))
        run_dirs = ([out] if arm is None
                    else [os.path.join(out, f"seed_{s}") for s in seeds])
        tally.attempted += len(run_dirs)
        error = None
        t0 = time.perf_counter()
        try:
            if arm is None:
                runner.run_training(cfg, out)
            else:
                runner.run_sweep(cfg, seeds, out)
        except Exception:  # one bad run must not end the benchmark
            error = traceback.format_exc()
        tally.wall_s += time.perf_counter() - t0
        for run_dir in run_dirs:
            if error is None:
                _record(tally, run_dir, cfg.iterations, arm)
            else:
                tally.fail(run_dir, error)
    return unit_dir


def run_for(workload: Workload, seed: int, seconds: float, work_dir: str,
            tally: Tally, iterations: Optional[int] = None,
            instrument=None, min_units: int = 1) -> None:
    """Run units while the next one is expected to end within `seconds`
    (always at least `min_units`). `instrument(unit)`, when given, is the
    context each unit runs in. Each unit's files are removed once it is gated."""
    start = time.perf_counter()
    unit, last = 0, 0.0
    while unit < min_units or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        with instrument(unit) if instrument else contextlib.nullcontext():
            unit_dir = run_unit(workload, seed, unit, work_dir, tally, iterations)
        shutil.rmtree(unit_dir, ignore_errors=True)
        last = time.perf_counter() - t0
        unit += 1


def grad_cos_gain(tally: Tally) -> Optional[float]:
    """Mean grad_cos of the alternate arm minus that of the joint arm."""
    alt, joint = tally.cos_by_arm.get("alternate"), tally.cos_by_arm.get("joint")
    if not alt or not joint:
        return None
    return sum(alt) / len(alt) - sum(joint) / len(joint)


def final_target_acc(tally: Tally) -> Optional[float]:
    return sum(tally.accs) / len(tally.accs) if tally.accs else None


def failed_checks(workload: Workload, tally: Tally) -> list[str]:
    """The workload-level gates: no run failed, the mean final_target_acc
    reaches the floor, and on a sweep the alternate arm's grad_cos beats the
    joint arm's (the direction acceptance criterion 7 asserts)."""
    failed = []
    if tally.failed:
        failed.append(f"{tally.failed} of {tally.attempted} runs failed")
    acc = final_target_acc(tally)
    if acc is None or not acc >= workload.acc_floor:
        failed.append(f"final_target_acc {acc} below floor {workload.acc_floor}")
    if workload.arms is not None:
        gain = grad_cos_gain(tally)
        if gain is None or not gain > 0.0:
            failed.append(f"grad_cos_gain {gain} is not above 0")
    return failed

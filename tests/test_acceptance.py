"""Acceptance suite: one test per release criterion, each at its stated
tolerance, reporting a PASS/FAIL line through the terminal summary."""

import itertools
import math
import os
import time

import numpy as np
import pytest

import _report
from metalign import losses, optim, runner
from metalign.config import load_config
from metalign.gradcheck import (TAYLOR_RATIO_BOUND, quadratic_toy, random_batch,
                                random_bundle, run_gradcheck, taylor_residuals)
from metalign.losses import mmd2_rbf
from metalign.optim import ALIGNMENT, CLASSIFICATION, joint_grads, metaalign_grads
from metalign.tensor import Tensor, finite_diff_grad

SEEDS = list(range(1, 11))
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def _double_loop_mmd(fs, ft, sigma):
    def kern(a, b):
        return math.exp(-sum((x - y) ** 2 for x, y in zip(a, b)) / (2.0 * sigma))

    ns, nt = len(fs), len(ft)
    ss = sum(kern(fs[i], fs[j]) for i in range(ns) for j in range(ns)) / ns ** 2
    tt = sum(kern(ft[i], ft[j]) for i in range(nt) for j in range(nt)) / nt ** 2
    cross = sum(kern(fs[i], ft[j]) for i in range(ns) for j in range(nt))
    return ss + tt - 2.0 * cross / (ns * nt)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    report = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max((r.err for r in report.results if r.tol > 0), default=0.0)
    ok = report.ok and elapsed < 60.0
    _report.record(
        "1 gradient correctness",
        ok, f"{len(report.results)} checks, worst scaled err {worst:.2e}, "
            f"{elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_2_taylor_identity():
    t0 = time.perf_counter()
    rows = taylor_residuals(seed=0)
    elapsed = time.perf_counter() - t0
    ratios = [r.ratio for r in rows if r.ratio is not None]
    ok = (len(ratios) >= 9 and all(r <= TAYLOR_RATIO_BOUND for r in ratios)
          and elapsed < 10.0)
    _report.record(
        "2 first-order expansion residual",
        ok, f"max |R(a/2)|/|R(a)| = {max(ratios):.3f} (<= 0.6) over "
            f"{len(ratios)} halvings, {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_3_alpha_zero_reduction():
    rng = np.random.default_rng(30)
    combos = itertools.cycle(
        (v, r) for v in losses.VARIANTS for r in (ALIGNMENT, CLASSIFICATION))
    worst = 0.0
    for _ in range(20):
        variant_name, role_name = next(combos)
        bundle, variant = random_bundle(rng, variant_name)
        batch = random_batch(rng)
        gj, _ = joint_grads(bundle, batch, variant)
        gm, _, _ = metaalign_grads(bundle, batch, variant, 0.0, role_name)
        nets = slice(0, bundle.slices["beta"].start)  # every parameter but beta
        worst = max(worst, float(np.max(np.abs(gj[nets] - gm[nets]))))
    ok = worst <= 1e-12
    _report.record("3 alpha=0 reduction to joint baseline", ok,
                   f"max inf-norm gradient gap {worst:.2e} over 20 nets "
                   f"(<= 1e-12)")
    assert ok


def test_criterion_4_beta_gradient_closed_form():
    rng = np.random.default_rng(40)
    alpha = 0.05
    worst_exact = 0.0
    worst_fd = 0.0
    for variant_name in losses.VARIANTS:
        for trial in range(3):
            bundle, variant = random_bundle(rng, variant_name)
            batch = random_batch(rng)
            applied, report, g_train = metaalign_grads(
                bundle, batch, variant, alpha, ALIGNMENT)
            applied = bundle.all_params(applied)
            gw = bundle
            sign = float(np.sign(gw.beta.sum() - gw.budget))
            closed = np.array([-alpha * d + sign
                               for d in report.grad_dot_per_group])
            worst_exact = max(worst_exact,
                              float(np.max(np.abs(applied["beta"] - closed))))
            fd = finite_diff_grad(
                lambda p: optim.meta_total_value(bundle, batch, variant, alpha,
                                                 p["beta"], g_train,
                                                 ALIGNMENT),
                {"beta": gw.beta.copy()}, h=1e-5)
            rel = np.abs(applied["beta"] - fd["beta"]) / (
                np.maximum(np.abs(applied["beta"]), np.abs(fd["beta"])) + 1e-8)
            worst_fd = max(worst_fd, float(np.max(rel)))
    ok = worst_exact == 0.0 and worst_fd <= 1e-6
    _report.record("4 beta gradient closed form", ok,
                   f"closed-form gap {worst_exact:.1e} (exact), "
                   f"fd relative err {worst_fd:.2e} (<= 1e-6)")
    assert ok


def test_criterion_5_mmd_oracle_equivalence():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(50):
        ns, nt = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        h = int(rng.integers(1, 17))
        sigma = float(rng.uniform(0.25, 4.0))
        fs, ft = rng.normal(size=(ns, h)), rng.normal(size=(nt, h))
        got = float(mmd2_rbf(Tensor(fs), Tensor(ft), sigma).values)
        worst = max(worst, abs(got - _double_loop_mmd(fs, ft, sigma)))
    f = rng.normal(size=(32, 8))
    self_val = abs(float(mmd2_rbf(Tensor(f), Tensor(f.copy()), 1.0).values))
    ok = worst <= 1e-10 and self_val <= 1e-12
    _report.record("5 mmd oracle equivalence", ok,
                   f"max |impl - double loop| {worst:.2e} (<= 1e-10), "
                   f"mmd(F,F) {self_val:.1e} (<= 1e-12)")
    assert ok


def test_criterion_6_quadratic_scalar_toy():
    worst = 0.0
    for alpha in (0.01, 0.1, 0.5):
        r = quadratic_toy(alpha)
        worst = max(worst, r["theta_err"], r["beta_err"])
    ok = worst <= 1e-12
    _report.record("6 analytic scalar toy", ok,
                   f"max |grad - hand value| {worst:.2e} over "
                   f"alpha in (0.01, 0.1, 0.5) (<= 1e-12)")
    assert ok


@pytest.fixture(scope="module")
def moons_sweeps(tmp_path_factory):
    """The directional experiment: the study arms over a common seed list."""
    base = tmp_path_factory.mktemp("moons")
    arms = runner.study_arms(
        load_config(os.path.join(CONFIGS, "moons_dann_metaalign.json")))
    # the arms criteria 7 and 8 read, each at full length
    assert {name: arm.iterations for name, arm in arms} == dict.fromkeys(
        ("joint", "alternate", "align_train", "cls_train"), 2000)
    out, seconds = {}, {}
    for name, arm in arms:
        t0 = time.perf_counter()
        out[name] = runner.run_sweep(arm, SEEDS, str(base / name))
        seconds[name] = time.perf_counter() - t0
        assert out[name]["seeds"] == list(range(1, 11))
    out["core_elapsed"] = seconds["joint"] + seconds["alternate"]  # criterion 7's
    return out


def test_criterion_7_directional_uda_experiment(moons_sweeps):
    base_acc = moons_sweeps["joint"]["final_target_acc"]["mean"]
    meta_acc = moons_sweeps["alternate"]["final_target_acc"]["mean"]
    base_cos = moons_sweeps["joint"]["mean_grad_cos"]["mean"]
    meta_cos = moons_sweeps["alternate"]["mean_grad_cos"]["mean"]
    elapsed = moons_sweeps["core_elapsed"]

    floor_ok = meta_acc >= base_acc - 0.01
    cos_ok = meta_cos > base_cos
    time_ok = elapsed < 300.0
    ok = floor_ok and cos_ok and time_ok
    improvement = 100.0 * (meta_acc - base_acc)
    _report.record(
        "7 desk-scale directional experiment", ok,
        f"target acc joint {base_acc:.4f} vs meta {meta_acc:.4f} "
        f"({improvement:+.2f}pp, floor -1pp; improvement expected, not gated), "
        f"grad cos {base_cos:+.4f} vs {meta_cos:+.4f} (hard gate), "
        f"{elapsed:.0f}s (< 300s)")
    assert ok


def test_criterion_8_role_swap_near_equivalence(moons_sweeps):
    accs = {p: moons_sweeps[p]["final_target_acc"]["mean"]
            for p in ("alternate", "align_train", "cls_train")}
    spread = max(accs.values()) - min(accs.values())
    ok = spread <= 0.02
    _report.record(
        "8 role-swap near-equivalence", ok,
        ", ".join(f"{p} {a:.4f}" for p, a in accs.items())
        + f"; spread {100 * spread:.2f}pp (<= 2pp)")
    assert ok


def test_criterion_9_determinism(tmp_path):
    cfg = load_config(os.path.join(CONFIGS, "moons_dann_metaalign.json"))
    import dataclasses
    cfg = dataclasses.replace(cfg, iterations=25)
    runner.run_training(cfg, str(tmp_path / "a"))
    runner.run_training(cfg, str(tmp_path / "b"))
    a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    ok = a == b and len(a) > 0
    _report.record("9 determinism", ok,
                   f"metrics streams byte-identical over {25} iterations "
                   f"({len(a)} bytes)")
    assert ok

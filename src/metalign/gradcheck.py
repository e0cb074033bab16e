"""Verification harness: every analytic gradient against central finite
differences, exactness contracts (detach, gradient reversal, the scalar
quadratic toy), and the first-order expansion residual test.

A check passes when |analytic - fd| <= tol * max(|analytic|, |fd|) + 0.01*tol
per coordinate; the reported error is the scaled form
|a - f| / (max(|a|, |f|) + 0.01), so "err <= tol" is the same condition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import analysis, losses, nn, optim, runner
from . import tensor as T
from .config import parse_config
from .data import PairedBatch
from .losses import AlignmentVariant
from .nn import ModelBundle
from .tensor import GradientMap, Tape, Tensor, backward, finite_diff_grad

FD_H = 1e-5
DEFAULT_TOL = 1e-4
BETA_TOL = 1e-6
EXACT_TOL = 1e-12

TAYLOR_ALPHA_MAX = 1e-2
TAYLOR_ALPHA_MIN = 1e-5
TAYLOR_RATIO_BOUND = 0.6


@dataclass
class CheckResult:
    name: str
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.err <= self.tol


@dataclass
class TaylorRow:
    alpha: float
    residual: float
    ratio: Optional[float]  # |R(alpha)| / |R(2*alpha)|, None for the first row


@dataclass
class GradcheckReport:
    results: list[CheckResult] = field(default_factory=list)
    taylor: list[TaylorRow] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def ok(self) -> bool:
        checks_ok = all(r.ok for r in self.results)
        taylor_ok = all(row.ratio is None or row.ratio <= TAYLOR_RATIO_BOUND
                        for row in self.taylor)
        return checks_ok and taylor_ok

    def failing(self) -> list[str]:
        names = [r.name for r in self.results if not r.ok]
        if any(row.ratio is not None and row.ratio > TAYLOR_RATIO_BOUND
               for row in self.taylor):
            names.append("taylor_residual_ratio")
        return names


def scaled_error(analytic: GradientMap, fd: GradientMap) -> float:
    worst = 0.0
    for pid in fd:
        a, f = np.asarray(analytic[pid]), np.asarray(fd[pid])
        denom = np.maximum(np.abs(a), np.abs(f)) + 0.01
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def _fd_compare(name: str, analytic: GradientMap,
                f: Callable[[dict[str, np.ndarray]], float],
                params: dict[str, np.ndarray], tol: float = DEFAULT_TOL,
                corrupt: Optional[str] = None) -> CheckResult:
    """Score analytic gradients against central finite differences of f over
    params; analytic may hold more ids than params."""
    fd = finite_diff_grad(f, params, h=FD_H)
    if corrupt == name:  # fault injection for the negative control
        analytic = {pid: analytic[pid] * 1.01 + 1e-3 for pid in fd}
    return CheckResult(name, scaled_error(analytic, fd), tol)


def _exact(name: str, err: float, tol: float,
           corrupt: Optional[str] = None) -> CheckResult:
    """An exactness contract with its measured error."""
    if corrupt == name:  # fault injection for the negative control
        err += 1.0
    return CheckResult(name, err, tol)


def _fd_check(name: str, params: dict[str, np.ndarray],
              build: Callable[[dict[str, Tensor]], Tensor],
              tol: float = DEFAULT_TOL, corrupt: Optional[str] = None) -> CheckResult:
    """Compare tape gradients of build(...) against finite differences."""
    tape = Tape()
    leaves = {pid: tape.param(arr, pid) for pid, arr in params.items()}
    analytic = backward(build(leaves), list(params))

    def f(work: dict[str, np.ndarray]) -> float:
        return float(build({pid: Tensor(arr) for pid, arr in work.items()}).values)

    return _fd_compare(name, analytic, f, params, tol, corrupt)


def _rng_arr(rng, *shape, lo=-2.0, hi=2.0, away=0.0):
    arr = rng.uniform(lo, hi, size=shape)
    if away > 0.0:
        arr = np.where(np.abs(arr) < away, away * np.sign(arr) + (arr == 0) * away, arr)
    return arr


def op_checks(seed: int, corrupt: Optional[str] = None) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    def k(*shape):
        return Tensor(rng.uniform(-1.0, 1.0, size=shape))

    # weighting each output by a random constant makes the upstream gradient
    # informative instead of all-ones
    cw = {"mm": k(3, 2), "bias": k(4, 3), "sq": k(3, 5), "ls": k(4, 5), "el": k(3, 4)}

    out.append(_fd_check(
        "matmul", {"a": _rng_arr(rng, 3, 4), "b": _rng_arr(rng, 4, 2)},
        lambda p: T.reduce_sum(T.mul(T.matmul(p["a"], p["b"]), cw["mm"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "add_bias", {"x": _rng_arr(rng, 4, 3), "b": _rng_arr(rng, 3)},
        lambda p: T.reduce_sum(T.mul(T.add_bias(p["x"], p["b"]), cw["bias"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "relu", {"x": _rng_arr(rng, 3, 4, away=0.05)},
        lambda p: T.reduce_sum(T.mul(T.relu(p["x"]), cw["el"])), corrupt=corrupt))
    out.append(_fd_check(
        "tanh", {"x": _rng_arr(rng, 3, 4)},
        lambda p: T.reduce_sum(T.mul(T.tanh(p["x"]), cw["el"])), corrupt=corrupt))
    out.append(_fd_check(
        "sigmoid", {"x": _rng_arr(rng, 3, 4)},
        lambda p: T.reduce_sum(T.mul(T.sigmoid(p["x"]), cw["el"])), corrupt=corrupt))
    out.append(_fd_check(
        "exp", {"x": _rng_arr(rng, 3, 4)},
        lambda p: T.reduce_sum(T.mul(T.exp(p["x"]), cw["el"])), corrupt=corrupt))
    out.append(_fd_check(
        "log", {"x": rng.uniform(0.3, 2.5, size=(3, 4))},
        lambda p: T.reduce_sum(T.mul(T.log(p["x"]), cw["el"])), corrupt=corrupt))
    out.append(_fd_check(
        "log_softmax", {"x": _rng_arr(rng, 4, 5)},
        lambda p: T.reduce_sum(T.mul(T.log_softmax(p["x"]), cw["ls"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "reduce_mean", {"x": _rng_arr(rng, 3, 4)},
        lambda p: T.add(T.reduce_mean(p["x"]),
                        T.reduce_sum(T.mul(T.reduce_mean(p["x"], axis=0), k1_mean))),
        corrupt=corrupt))
    out.append(_fd_check(
        "reduce_sum", {"x": _rng_arr(rng, 3, 4)},
        lambda p: T.add(T.scale(T.reduce_sum(p["x"]), 0.3),
                        T.reduce_sum(T.mul(T.reduce_sum(p["x"], axis=1), k1_sum))),
        corrupt=corrupt))
    out.append(_fd_check(
        "add", {"a": _rng_arr(rng, 3, 4), "b": _rng_arr(rng, 3, 4)},
        lambda p: T.reduce_sum(T.mul(T.add(p["a"], p["b"]), cw["el"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "sub", {"a": _rng_arr(rng, 3, 4), "b": _rng_arr(rng, 3, 4)},
        lambda p: T.reduce_sum(T.mul(T.sub(p["a"], p["b"]), cw["el"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "mul", {"a": _rng_arr(rng, 3, 4), "b": _rng_arr(rng, 3, 4)},
        lambda p: T.reduce_sum(T.mul(T.mul(p["a"], p["b"]), cw["el"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "scale", {"x": _rng_arr(rng, 3, 4)},
        lambda p: T.reduce_sum(T.mul(T.scale(p["x"], 1.7), cw["el"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "absolute", {"x": _rng_arr(rng, 3, 4, away=0.05)},
        lambda p: T.reduce_sum(T.mul(T.absolute(p["x"]), cw["el"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "clip", {"x": _rng_arr(rng, 3, 4, away=0.05)},
        lambda p: T.reduce_sum(T.mul(T.clip(p["x"], -1.05, 1.05), cw["el"])),
        corrupt=corrupt))
    labels = rng.integers(0, 5, size=4)
    out.append(_fd_check(
        "pick", {"x": _rng_arr(rng, 4, 5)},
        lambda p: T.reduce_mean(T.pick(p["x"], labels)), corrupt=corrupt))
    out.append(_fd_check(
        "pairwise_sqdist", {"a": _rng_arr(rng, 3, 4), "b": _rng_arr(rng, 5, 4)},
        lambda p: T.reduce_sum(T.mul(T.pairwise_sqdist(p["a"], p["b"]), cw["sq"])),
        corrupt=corrupt))
    out.append(_fd_check(
        "select1", {"x": _rng_arr(rng, 4)},
        lambda p: T.add(T.scale(T.mul(T.select1(p["x"], 2), T.select1(p["x"], 2)), 0.5),
                        T.scale(T.select1(p["x"], 0), 1.3)),
        corrupt=corrupt))
    out.append(_fd_check(
        "scale_by", {"x": _rng_arr(rng, 3, 2), "s": np.asarray(rng.uniform(0.5, 1.5))},
        lambda p: T.reduce_sum(T.mul(T.scale_by(p["x"], p["s"]), cw2_sb)),
        corrupt=corrupt))

    out.append(_detach_check(rng, corrupt))
    out.append(_grl_check(rng, corrupt))
    return out


# constants for the closures above; module-level so both calls see one value
_crng = np.random.default_rng(12345)
k1_mean = Tensor(_crng.uniform(-1, 1, size=4))
k1_sum = Tensor(_crng.uniform(-1, 1, size=3))
cw2_sb = Tensor(_crng.uniform(-1, 1, size=(3, 2)))


def _detach_check(rng, corrupt: Optional[str]) -> CheckResult:
    """d/dx sum(detach(x) * x) == x, and a leaf reached only through detach
    gets exactly zero gradient."""
    x = rng.uniform(-2, 2, size=6)
    tape = Tape()
    leaf = tape.param(x, "x")
    loss = T.reduce_sum(T.mul(T.detach(leaf), leaf))
    g = backward(loss, ["x"])["x"]
    err = float(np.max(np.abs(g - x)))

    a = rng.uniform(-2, 2, size=6)
    tape2 = Tape()
    a_leaf = tape2.param(a, "a")
    b_leaf = tape2.param(x, "b")
    g2 = backward(T.reduce_sum(T.mul(T.detach(a_leaf), b_leaf)), ["a", "b"])
    err = max(err, float(np.max(np.abs(g2["a"]))))
    err = max(err, float(np.max(np.abs(g2["b"] - a))))
    return _exact("detach", err, 0.0, corrupt)


def _grl_check(rng, corrupt: Optional[str]) -> CheckResult:
    """Gradients of parameters below a gradient reversal equal -lambda times
    the gradients without it, exactly (lambda restricted to powers of two so
    the scaling itself is exact); parameters above it are untouched."""
    lower = nn.MLP([3, 4, 3], "L", activation="relu")
    upper = nn.MLP([3, 2], "U", activation="relu")
    for net in (lower, upper):
        for layer in net.layers:
            layer.weight[...] = rng.uniform(-1, 1, size=layer.weight.shape)
            layer.bias[...] = rng.uniform(-0.5, 0.5, size=layer.bias.shape)
    x = rng.uniform(-2, 2, size=(5, 3))
    worst = 0.0
    for lam in (1.0, 2.0, 0.5):
        wanted = lower.param_ids + upper.param_ids

        def grads(use_grl: bool) -> GradientMap:
            tape = Tape()
            feats = lower.forward(tape.const(x))
            head_in = nn.grl(feats, lam) if use_grl else feats
            out = upper.forward(head_in)
            return backward(T.reduce_mean(T.mul(out, out)), wanted)

        g_flip, g_plain = grads(True), grads(False)
        for pid in lower.param_ids:
            worst = max(worst, float(np.max(np.abs(g_flip[pid] + lam * g_plain[pid]))))
        for pid in upper.param_ids:
            worst = max(worst, float(np.max(np.abs(g_flip[pid] - g_plain[pid]))))
    return _exact("grl", worst, 0.0, corrupt)


# ---------------------------------------------------------------------------
# loss and meta-step checks on randomized MLPs


def random_bundle(rng, variant_name: str, d: int = 4, width: int = 8,
                  num_classes: int = 3, num_groups: int = 2,
                  activation: str = "relu") -> tuple[ModelBundle, AlignmentVariant]:
    # parse_config needs a dataset section; build_bundle never reads it
    doc = {"seed": 0, "iterations": 1, "batch_size": 1,
           "dataset": {"generator": "two_moons"},
           "model": {"hidden": [width, width], "groups": num_groups,
                     "disc_hidden": [8, 8], "activation": activation},
           "variant": {"name": variant_name, "lambda": 1.3,
                       "sigma": 1.5 if variant_name == losses.MMD else None}}
    bundle, variant = runner.build_bundle(parse_config(doc), d, num_classes,
                                          init_seed=int(rng.integers(0, 2**31)))
    # nonzero biases make the finite-difference surface less symmetric
    nets = [bundle.extractor, bundle.classifier]
    if bundle.discriminator is not None:
        nets.append(bundle.discriminator.net)
    for net in nets:
        for layer in net.layers:
            layer.bias[...] = rng.uniform(-0.3, 0.3, size=layer.bias.shape)
    return bundle, variant


def random_batch(rng, d: int = 4, num_classes: int = 3, n: int = 6) -> PairedBatch:
    return PairedBatch(
        src_features=rng.uniform(-2, 2, size=(n, d)),
        src_labels=rng.integers(0, num_classes, size=n),
        tgt_features=rng.uniform(-2, 2, size=(n, d)))


def _frozen_weights(bundle, batch, theta_override=None):
    """Entropy weights at the current parameters; the analytic gradient treats
    them as constants, so finite differences must too."""
    fs = bundle.extractor.forward(Tensor(batch.src_features), theta_override)
    ft = bundle.extractor.forward(Tensor(batch.tgt_features), theta_override)
    ws = losses.entropy_weights(T.exp(T.log_softmax(bundle.classifier.forward(fs))))
    wt = losses.entropy_weights(T.exp(T.log_softmax(bundle.classifier.forward(ft))))
    return ws.values.copy(), wt.values.copy()


def loss_checks(seed: int, corrupt: Optional[str] = None) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 1)
    out: list[CheckResult] = []

    out.append(_fd_check(
        "cross_entropy", {"logits": _rng_arr(rng, 4, 5)},
        lambda p: losses.cross_entropy(p["logits"], np.array([0, 2, 4, 1])),
        corrupt=corrupt))
    wsrc = Tensor(rng.uniform(0.2, 1.5, size=5))
    wtgt = Tensor(rng.uniform(0.2, 1.5, size=4))
    out.append(_fd_check(
        "domain_cls_loss",
        {"ds": rng.uniform(0.05, 0.95, size=(5, 1)),
         "dt": rng.uniform(0.05, 0.95, size=(4, 1))},
        lambda p: losses.domain_cls_loss(p["ds"], p["dt"], wsrc, wtgt),
        corrupt=corrupt))
    out.append(_fd_check(
        "mmd2_rbf", {"fs": _rng_arr(rng, 5, 3), "ft": _rng_arr(rng, 4, 3)},
        lambda p: losses.mmd2_rbf(p["fs"], p["ft"], sigma=1.2), corrupt=corrupt))
    out.append(_fd_check(
        "beta_penalty", {"beta": rng.uniform(0.2, 1.8, size=4)},
        lambda p: losses.beta_penalty(p["beta"], budget=3.0), corrupt=corrupt))

    # full-model gradients, every parameter
    for variant_name in losses.VARIANTS:
        bundle, variant = random_bundle(rng, variant_name)
        batch = random_batch(rng)
        frozen = (_frozen_weights(bundle, batch)
                  if variant_name == losses.DANNPE else None)

        tape = Tape()
        cls_ids = bundle.theta_ids + bundle.classifier.param_ids
        analytic = backward(optim._cls_loss(bundle, batch, tape), cls_ids)
        out.append(_fd_compare(
            f"cls_loss_{variant_name}", analytic,
            lambda _: float(optim._cls_loss(bundle, batch, None).values),
            {pid: arr for pid, arr in bundle.network_params().items()
             if pid in cls_ids}, corrupt=corrupt))

        tape = Tape()
        align, _ = optim._align_loss(bundle, batch, variant, tape,
                                     weights_override=frozen)
        disc_ids = (bundle.discriminator.param_ids if variant.adversarial else [])
        analytic = backward(align, bundle.theta_ids + disc_ids)
        out.append(_fd_compare(
            f"align_theta_{variant_name}", analytic,
            lambda _: optim._task_value(bundle, batch, variant, optim.ALIGNMENT,
                                        weights_override=frozen),
            bundle.extractor.params(), corrupt=corrupt))
        if variant.adversarial:
            out.append(_fd_compare(
                f"align_disc_{variant_name}", analytic,
                lambda _: float(optim._align_loss(bundle, batch, variant, None,
                                                  weights_override=frozen)[0].values),
                bundle.discriminator.params(), corrupt=corrupt))
    return out


def meta_checks(seed: int, corrupt: Optional[str] = None) -> list[CheckResult]:
    """The meta step's theta and beta gradients against finite differences of
    optim.meta_total_value, L(theta, beta) with g_train frozen."""
    rng = np.random.default_rng(seed + 2)
    out: list[CheckResult] = []
    alpha = 0.05
    for variant_name in losses.VARIANTS:
        for role in (optim.Role(optim.ALIGNMENT), optim.Role(optim.CLASSIFICATION)):
            bundle, variant = random_bundle(rng, variant_name)
            batch = random_batch(rng)
            beta0 = bundle.group_weights.beta.copy()
            applied, report, g_train = optim.metaalign_grads(
                bundle, batch, variant, alpha, role)
            tag = f"{variant_name}_{role.meta_train}"

            frozen = None
            if variant_name == losses.DANNPE:
                # weights at the point where the alignment task is scored
                at = None
                if role.meta_test == optim.ALIGNMENT:
                    at = optim.theta_prime(bundle.extractor.params(), g_train,
                                           alpha, beta0, bundle.groups)
                frozen = _frozen_weights(bundle, batch, theta_override=at)

            def total(beta):
                return optim.meta_total_value(bundle, batch, variant, alpha, beta,
                                              g_train, role, weights_override=frozen)

            out.append(_fd_compare(f"meta_theta_{tag}", applied,
                                   lambda _: total(beta0),
                                   bundle.extractor.params(), corrupt=corrupt))
            out.append(_fd_compare(f"meta_beta_{tag}", applied,
                                   lambda p: total(p[nn.BETA_ID]),
                                   {nn.BETA_ID: beta0.copy()}, BETA_TOL, corrupt))

            # bookkeeping: applied beta gradient reproduces the closed form
            sign = float(np.sign(beta0.sum() - bundle.group_weights.budget))
            closed = np.array([-alpha * d + sign for d in report.grad_dot_per_group])
            out.append(_exact(f"meta_beta_closed_form_{tag}",
                              float(np.max(np.abs(applied[nn.BETA_ID] - closed))),
                              0.0, corrupt))
    return out


def quadratic_toy(alpha: float) -> dict[str, float]:
    """Scalar toy: train loss 0.5*t^2, test loss 0.5*(t-1)^2 at t=1, one group.

    Hand computation: g_train = 1, t' = 1 - alpha, applied t-gradient
    1 + (t' - 1) = 1 - alpha, beta-gradient -alpha*(t'-1) = alpha^2 (the
    budget penalty sits exactly at its kink, contributing subgradient 0).
    """
    theta = {"t": np.asarray(1.0)}
    tape1 = Tape()
    leaf = tape1.param(theta["t"], "t")
    train = T.scale(T.mul(leaf, leaf), 0.5)
    g_train = backward(train, ["t"])

    tape2 = Tape()
    beta_leaf = tape2.param(np.ones(1), "beta")
    prime = optim.virtual_update(tape2, theta, g_train, alpha, beta_leaf, [["t"]])
    gap = T.sub(prime["t"], Tensor(np.asarray(1.0)))
    test = T.scale(T.mul(gap, gap), 0.5)
    total = T.add(test, losses.beta_penalty(beta_leaf, 1.0))
    g2 = backward(total, ["t", "beta"])

    theta_grad = float(g_train["t"] + g2["t"])
    beta_grad = float(g2["beta"][0])
    return {
        "theta_grad": theta_grad,
        "beta_grad": beta_grad,
        "theta_err": abs(theta_grad - (1.0 - alpha)),
        "beta_err": abs(beta_grad - alpha * alpha),
    }


def toy_checks(corrupt: Optional[str] = None) -> list[CheckResult]:
    out = []
    for alpha in (0.01, 0.1, 0.5):
        r = quadratic_toy(alpha)
        out.append(_exact(f"toy_theta_alpha_{alpha}", r["theta_err"], EXACT_TOL,
                          corrupt))
        out.append(_exact(f"toy_beta_alpha_{alpha}", r["beta_err"], EXACT_TOL,
                          corrupt))
    return out


def taylor_residuals(seed: int = 0) -> list[TaylorRow]:
    """R(a) = L_cls(theta - a*g_dom) - L_cls(theta) + a*<grad L_cls, g_dom> on a
    smooth (tanh) configuration; halving a must shrink |R| by at least 0.6."""
    rng = np.random.default_rng(seed + 3)
    bundle, variant = random_bundle(rng, losses.DANN, activation="tanh")
    batch = random_batch(rng, n=8)

    tape = Tape()
    align, _ = optim._align_loss(bundle, batch, variant, tape)
    g_dom = backward(align, bundle.theta_ids)

    tape = Tape()
    cls = optim._cls_loss(bundle, batch, tape)
    base = float(cls.values)
    g_cls = backward(cls, bundle.theta_ids)
    dot, _, _ = analysis.grad_dot(g_cls, g_dom, bundle.groups)

    theta = bundle.extractor.params()
    unit = np.ones(len(bundle.groups))
    rows: list[TaylorRow] = []
    alpha = TAYLOR_ALPHA_MAX
    prev: Optional[float] = None
    while alpha >= TAYLOR_ALPHA_MIN / 2:
        prime = optim.theta_prime(theta, g_dom, alpha, unit, bundle.groups)
        moved = float(optim._cls_loss(bundle, batch, None,
                                      theta_override=prime).values)
        resid = abs(moved - base + alpha * dot)
        ratio = None if prev is None else (resid / prev if prev > 0 else 0.0)
        rows.append(TaylorRow(alpha=alpha, residual=resid, ratio=ratio))
        prev = resid
        alpha /= 2.0
    return rows


def run_gradcheck(seed: int = 0, corrupt: Optional[str] = None) -> GradcheckReport:
    t0 = time.perf_counter()
    report = GradcheckReport()
    report.results.extend(op_checks(seed, corrupt))
    report.results.extend(loss_checks(seed, corrupt))
    report.results.extend(meta_checks(seed, corrupt))
    report.results.extend(toy_checks(corrupt))
    report.taylor = taylor_residuals(seed)
    report.runtime_s = time.perf_counter() - t0
    return report


def format_report(report: GradcheckReport) -> str:
    lines = [f"{'check':40s} {'max scaled err':>14s} {'tol':>9s}  status"]
    for r in report.results:
        lines.append(f"{r.name:40s} {r.err:14.3e} {r.tol:9.0e}  "
                     f"{'ok' if r.ok else 'FAIL'}")
    lines.append("")
    lines.append(f"{'taylor residual':>20s} {'|R(alpha)|':>12s} {'ratio':>8s}")
    for row in report.taylor:
        ratio = "-" if row.ratio is None else f"{row.ratio:8.3f}"
        lines.append(f"{row.alpha:20.3e} {row.residual:12.3e} {ratio:>8s}")
    lines.append("")
    status = "all checks passed" if report.ok else \
        "FAILED: " + ", ".join(report.failing())
    lines.append(f"{status} ({report.runtime_s:.1f}s)")
    return "\n".join(lines)

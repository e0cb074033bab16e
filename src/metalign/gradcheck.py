"""Verification harness: every analytic gradient against central finite
differences, exactness contracts (gradient reversal, the scalar quadratic
toy), and the first-order expansion residual test.

A check passes when |analytic - fd| <= tol * max(|analytic|, |fd|) + 0.01*tol
per coordinate; the reported error is the scaled form
|a - f| / (max(|a|, |f|) + 0.01), so "err <= tol" is the same condition.
Each check carries its negative control, the same comparison with the
analytic side corrupted; GradcheckReport.with_fault(name) swaps it in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import analysis, losses, nn, optim, runner
from . import tensor as T
from .config import parse_config
from .data import PairedBatch
from .losses import AlignmentVariant
from .nn import ModelBundle, Params
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
    # the negative control: err of the same comparison with the analytic side
    # corrupted, which must fail
    corrupted: Callable[[], float] = field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.err <= self.tol


@dataclass
class TaylorRow:
    alpha: float
    residual: float
    ratio: Optional[float]  # |R(alpha)| / |R(2*alpha)|, None for the first row

    @property
    def ok(self) -> bool:
        return self.ratio is None or self.ratio <= TAYLOR_RATIO_BOUND


@dataclass
class GradcheckReport:
    results: list[CheckResult] = field(default_factory=list)
    taylor: list[TaylorRow] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        names = [r.name for r in self.results if not r.ok]
        if not all(row.ok for row in self.taylor):
            names.append("taylor_residual_ratio")
        return names

    def with_fault(self, name: str) -> GradcheckReport:
        """This report with the named check's error replaced by its negative
        control's; an unknown name raises KeyError."""
        hit = {r.name: r for r in self.results}[name]
        return replace(self, results=[replace(r, err=r.corrupted()) if r is hit else r
                                      for r in self.results])


def scaled_error(analytic: GradientMap, fd: GradientMap) -> float:
    worst = 0.0
    for pid in fd:
        a, f = np.asarray(analytic[pid]), np.asarray(fd[pid])
        denom = np.maximum(np.abs(a), np.abs(f)) + 0.01
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def _fd_compare(name: str, analytic: GradientMap,
                f: Callable[[dict[str, np.ndarray]], float],
                params: dict[str, np.ndarray], tol: float = DEFAULT_TOL) -> CheckResult:
    """Score analytic gradients against central finite differences of f over
    params; analytic may hold more ids than params."""
    fd = finite_diff_grad(f, params, h=FD_H)
    return CheckResult(name, scaled_error(analytic, fd), tol, lambda: scaled_error(
        {pid: analytic[pid] * 1.01 + 1e-3 for pid in fd}, fd))


def _exact(name: str, err: float, tol: float) -> CheckResult:
    """An exactness contract with its measured error."""
    return CheckResult(name, err, tol, lambda: err + 1.0)


def _fd_check(name: str, params: dict[str, np.ndarray],
              build: Callable[[dict[str, Tensor]], Tensor],
              tol: float = DEFAULT_TOL) -> CheckResult:
    """Compare tape gradients of build(...) against finite differences."""
    tape = Tape()
    leaves = {pid: tape.param(arr, pid) for pid, arr in params.items()}
    analytic = backward(build(leaves), list(params))

    def f(work: dict[str, np.ndarray]) -> float:
        return float(build({pid: Tensor(arr) for pid, arr in work.items()}).values)

    return _fd_compare(name, analytic, f, params, tol)


def _rng_arr(rng, *shape, lo=-2.0, hi=2.0, away=0.0):
    arr = rng.uniform(lo, hi, size=shape)
    if away > 0.0:
        arr = np.where(np.abs(arr) < away, away * np.sign(arr) + (arr == 0) * away, arr)
    return arr


# weights of the reduce_mean, reduce_sum and scale_by checks, the same for every seed
_consts = np.random.default_rng(12345)
_W_MEAN, _W_SUM, _W_SCALE_BY = (Tensor(_consts.uniform(-1, 1, size=shape))
                                for shape in (4, 3, (3, 2)))


def op_checks(seed: int) -> list[CheckResult]:
    """One check per tape op, in table order: (name, params, loss). The params
    are drawn from the seed's generator in that order."""
    rng = np.random.default_rng(seed)

    def k(*shape):
        return Tensor(rng.uniform(-1.0, 1.0, size=shape))

    def x(*shape, **kw):
        return {"x": _rng_arr(rng, *shape, **kw)}

    def ab(rows, cols):
        return {"a": _rng_arr(rng, 3, 4), "b": _rng_arr(rng, rows, cols)}

    def wsum(w, op):
        """sum(w * op(*params)); a random weight w makes the upstream gradient
        informative instead of all-ones."""
        return lambda p: T.reduce_sum(T.mul(op(*p.values()), w))

    mm, bias, sq, ls, el = k(3, 2), k(4, 3), k(3, 5), k(4, 5), k(3, 4)
    table = [
        ("matmul", ab(4, 2), wsum(mm, T.matmul)),
        ("add_bias", {"x": _rng_arr(rng, 4, 3), "b": _rng_arr(rng, 3)},
         wsum(bias, T.add_bias)),
        ("relu", x(3, 4, away=0.05), wsum(el, T.relu)),
        ("tanh", x(3, 4), wsum(el, T.tanh)),
        ("sigmoid", x(3, 4), wsum(el, T.sigmoid)),
        ("exp", x(3, 4), wsum(el, T.exp)),
        ("log", x(3, 4, lo=0.3, hi=2.5), wsum(el, T.log)),
        ("log_softmax", x(4, 5), wsum(ls, T.log_softmax)),
        ("reduce_mean", x(3, 4), lambda p: T.add(
            T.reduce_mean(p["x"]),
            T.reduce_sum(T.mul(T.reduce_mean(p["x"], axis=0), _W_MEAN)))),
        ("reduce_sum", x(3, 4), lambda p: T.add(
            T.scale(T.reduce_sum(p["x"]), 0.3),
            T.reduce_sum(T.mul(T.reduce_sum(p["x"], axis=1), _W_SUM)))),
        ("add", ab(3, 4), wsum(el, T.add)),
        ("sub", ab(3, 4), wsum(el, T.sub)),
        ("mul", ab(3, 4), wsum(el, T.mul)),
        ("scale", x(3, 4), wsum(el, lambda v: T.scale(v, 1.7))),
        ("absolute", x(3, 4, away=0.05), wsum(el, T.absolute)),
        ("clip", x(3, 4, away=0.05), wsum(el, lambda v: T.clip(v, -1.05, 1.05))),
    ]
    labels = rng.integers(0, 5, size=4)
    table += [
        ("pick", x(4, 5), lambda p: T.reduce_mean(T.pick(p["x"], labels))),
        ("pairwise_sqdist", ab(5, 4), wsum(sq, T.pairwise_sqdist)),
        ("select1", x(4), lambda p: T.add(
            T.scale(T.mul(T.select1(p["x"], 2), T.select1(p["x"], 2)), 0.5),
            T.scale(T.select1(p["x"], 0), 1.3))),
        ("scale_by", {"x": _rng_arr(rng, 3, 2), "s": np.asarray(rng.uniform(0.5, 1.5))},
         wsum(_W_SCALE_BY, T.scale_by)),
        ("rbf_mean", x(3, 5, lo=0.0, hi=3.0), lambda p: T.rbf_mean(p["x"], -0.4)),
    ]
    return ([_fd_check(name, params, loss) for name, params, loss in table + _fused_rows(seed)]
            + [_grl_check(rng)])


def _fused_rows(seed: int) -> list:
    """The op table's rows of the fused network and loss nodes and of the flat
    reads. They draw from a generator of their own, so every other check draws
    what it drew without them. Each loss is scaled so the upstream gradient is
    not 1, and one discriminator output of the bce rows lies outside the clip."""
    rng = np.random.default_rng((seed, 1))
    w_mlp = Tensor(rng.uniform(-1.0, 1.0, size=(4, 2)))
    rows = []
    for act in ("relu", "tanh", "identity"):
        # one layer, W (3 x 2) then b, read at their slices of one flat leaf
        x, w, b = _rng_arr(rng, 4, 3), _rng_arr(rng, 3, 2), _rng_arr(rng, 2, lo=-0.5, hi=0.5)
        rows.append(("mlp" if act == "relu" else f"mlp_{act}",
                     {"x": x, "p": np.concatenate([w.ravel(), b])},
                     lambda p, act=act: T.reduce_sum(T.mul(T.mlp(
                         p["x"], p["p"], [(slice(0, 6), slice(6, 8))], (act,)), w_mlp))))
    labels = rng.integers(0, 5, size=4)
    rows.append(("nll_mean", {"x": _rng_arr(rng, 4, 5)},
                 lambda p: T.scale(T.nll_mean(p["x"], labels), 1.3)))
    # two-domain stacks of the draws of four one-domain rows: source then target
    weights, ds = rng.uniform(0.2, 1.5, size=(5, 1)), []
    for _ in range(4):
        ds.append(rng.uniform(0.05, 0.95, size=(5, 1)))
        ds[-1][int(rng.integers(0, 5))] = 0.995  # clipped: zero gradient both ways
    for name, d, w in [("bce_mean", (ds[0], ds[2]), None),
                       ("bce_mean_weighted", (ds[1], ds[3]), np.stack((weights, weights[::-1])))]:
        rows.append((name, {"x": np.stack(d)}, lambda p, w=w: T.scale(
            T.bce_mean(p["x"], 0.02, 0.98, w), 0.7)))
    # theta' over the first 6 of 10 entries, in groups [2, 1] and [3], beta last
    d, w_step = rng.uniform(-1.0, 1.0, size=6), Tensor(rng.uniform(-1.0, 1.0, size=6))
    groups = [[slice(0, 2), slice(2, 3)], [slice(3, 6)]]
    rows.append(("group_step", {"p": _rng_arr(rng, 10, lo=0.5, hi=1.5)}, lambda p: T.reduce_sum(
        T.mul(T.tanh(T.group_step(p["p"], d, 0.3, groups, slice(8, 10))), w_step))))
    # drawn last: the discriminator's output layer, and 3 -> 4 -> 3 -> 2 at an offset
    three = [(slice(1, 13), slice(13, 17)), (slice(17, 29), slice(29, 32)),
             (slice(32, 38), slice(38, 40))]
    for name, layers, acts in [("mlp_sigmoid", [(slice(0, 6), slice(6, 8))], ("sigmoid",)),
                               ("mlp_three_layer", three, ("relu", "tanh", "sigmoid"))]:
        p = _rng_arr(rng, layers[-1][1].stop + 1, lo=-1.0, hi=1.0)
        rows.append((name, {"x": _rng_arr(rng, 4, 3), "p": p}, lambda p, layers=layers, acts=acts:
                     T.reduce_sum(T.mul(T.mlp(p["x"], p["p"], layers, acts), w_mlp))))
    # drawn after those: the two-domain stacks, 2 x n x k
    w_stack = Tensor(rng.uniform(-1.0, 1.0, size=(2, 4, 2)))
    x, p = _rng_arr(rng, 2, 4, 3), _rng_arr(rng, 41, lo=-1.0, hi=1.0)
    rows.append(("mlp_stacked", {"x": x, "p": p}, lambda p: T.reduce_sum(
        T.mul(T.mlp(p["x"], p["p"], three, ("relu", "tanh", "sigmoid")), w_stack))))
    w_soft = Tensor(rng.uniform(-1.0, 1.0, size=(2, 3, 4)))
    rows.append(("softmax", {"x": _rng_arr(rng, 2, 3, 4)},
                 lambda p: T.reduce_sum(T.mul(T.softmax(p["x"]), w_soft))))
    w_sel = [Tensor(rng.uniform(-1.0, 1.0, size=(3, 2))) for _ in range(2)]
    rows.append(("select1_stacked", {"x": _rng_arr(rng, 2, 3, 2)}, lambda p: T.add(
        T.reduce_sum(T.mul(T.tanh(T.select1(p["x"], 0)), w_sel[0])),
        T.reduce_sum(T.mul(T.mul(T.select1(p["x"], 1), T.select1(p["x"], 1)), w_sel[1])))))
    return rows


def _grl_check(rng) -> CheckResult:
    """Gradients of parameters below a gradient reversal equal -lambda times
    the gradients without it, exactly (lambda restricted to powers of two so
    the scaling itself is exact); parameters above it are untouched."""
    lower = nn.MLP([3, 4, 3], "L", activation="relu")
    upper = nn.MLP([3, 2], "U", activation="relu")
    flat, slices = nn.flatten({pid: rng.uniform(-0.5, 0.5, size=s) if pid.endswith(".b")
                               else rng.uniform(-1, 1, size=s)
                               for pid, s in {**lower.shapes, **upper.shapes}.items()})
    x = rng.uniform(-2, 2, size=(5, 3))
    cut = slices[lower.ids[-1][1]].stop  # lower's span of the flat leaf
    worst = 0.0
    for lam in (1.0, 2.0, 0.5):

        def grads(use_grl: bool) -> np.ndarray:
            params = Params(Tape().param(flat, nn.FLAT_ID), slices)
            feats = lower.forward(Tensor(x), params)
            head_in = nn.grl(feats, lam) if use_grl else feats
            out = upper.forward(head_in, params)
            return backward(T.reduce_mean(T.mul(out, out)), [nn.FLAT_ID])[nn.FLAT_ID]

        g_flip, g_plain = grads(True), grads(False)
        worst = max(worst, float(np.max(np.abs(g_flip[:cut] + lam * g_plain[:cut]))),
                    float(np.max(np.abs(g_flip[cut:] - g_plain[cut:]))))
    return _exact("grl", worst, 0.0)


# ---------------------------------------------------------------------------
# loss and meta-step checks on randomized MLPs


# input width and class count of every random bundle and batch
_DIM, _CLASSES = 4, 3


def random_bundle(rng, variant_name: str,
                  activation: str = "relu") -> tuple[ModelBundle, AlignmentVariant]:
    """Two hidden layers of 8 in 2 groups, with random biases."""
    # parse_config needs a dataset section; build_bundle never reads it
    doc = {"seed": 0, "iterations": 1, "batch_size": 1,
           "dataset": {"generator": "two_moons"},
           "model": {"hidden": [8, 8], "groups": 2,
                     "disc_hidden": [8, 8], "activation": activation},
           "variant": {"name": variant_name, "lambda": 1.3,
                       "sigma": 1.5 if variant_name == losses.MMD else None}}
    bundle, variant = runner.build_bundle(parse_config(doc), _DIM, _CLASSES,
                                          init_seed=int(rng.integers(0, 2**31)))
    # nonzero biases make the finite-difference surface less symmetric
    for pid, arr in bundle.all_params().items():
        if pid.endswith(".b"):
            arr[...] = rng.uniform(-0.3, 0.3, size=arr.shape)
    return bundle, variant


def random_batch(rng, n: int = 6) -> PairedBatch:
    src = rng.uniform(-2, 2, size=(n, _DIM))  # drawn before the labels, the target after
    labels = rng.integers(0, _CLASSES, size=n)
    return PairedBatch(np.stack((src, rng.uniform(-2, 2, size=(n, _DIM)))), labels)


def _fd_spans(name: str, g: np.ndarray, f: Callable[[dict[str, np.ndarray]], float],
              bundle: ModelBundle, *nets: nn.MLP) -> CheckResult:
    """_fd_compare of the gradient g, laid out like bundle.flat, over each
    net's span of bundle.flat, which finite differences perturb in place."""
    def parts(arr: np.ndarray) -> dict[str, np.ndarray]:
        return {net.ids[0][0]: arr[bundle.spans[net]] for net in nets}

    return _fd_compare(name, parts(g), f, parts(bundle.flat))


def _frozen_weights(bundle, batch, params: Params) -> np.ndarray:
    """Entropy weights at the given parameters, 2 x n, from one pass over the
    batch's source/target stack; the analytic gradient treats them as
    constants, so finite differences must too."""
    return losses.entropy_weights(T.softmax(bundle.classifier.forward(
        bundle.extractor.forward(Tensor(batch.features), params), params))).values


def loss_checks(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 1)
    out: list[CheckResult] = []

    out.append(_fd_check(
        "cross_entropy", {"logits": _rng_arr(rng, 4, 5)},
        lambda p: losses.cross_entropy(p["logits"], np.array([0, 2, 4, 1]))))
    # source and target stacked at 4 rows each, from draws of 5 and 4
    w = Tensor(np.stack((rng.uniform(0.2, 1.5, size=5)[:4], rng.uniform(0.2, 1.5, size=4))))
    d = np.stack((rng.uniform(0.05, 0.95, size=(5, 1))[:4], rng.uniform(0.05, 0.95, size=(4, 1))))
    out.append(_fd_check("domain_cls_loss", {"d": d},
                         lambda p: losses.domain_cls_loss(p["d"], w)))
    out.append(_fd_check(
        "mmd2_rbf", {"fs": _rng_arr(rng, 5, 3), "ft": _rng_arr(rng, 4, 3)},
        lambda p: losses.mmd2_rbf(p["fs"], p["ft"], sigma=1.2)))

    # full-model gradients, every parameter
    for variant_name in losses.VARIANTS:
        bundle, variant = random_bundle(rng, variant_name)
        batch = random_batch(rng)
        frozen = (_frozen_weights(bundle, batch, bundle.params())
                  if variant_name == losses.DANNPE else None)

        g = backward(optim._cls_loss(bundle, batch, bundle.params(Tape())), [nn.FLAT_ID])
        out.append(_fd_spans(
            f"cls_loss_{variant_name}", g[nn.FLAT_ID],
            lambda _: float(optim._cls_loss(bundle, batch, bundle.params()).values),
            bundle, bundle.extractor, bundle.classifier))

        align, _ = optim._align_loss(bundle, batch, variant, bundle.params(Tape()),
                                     weights_override=frozen)
        g = backward(align, [nn.FLAT_ID])[nn.FLAT_ID]
        out.append(_fd_spans(
            f"align_theta_{variant_name}", g,
            lambda _: optim._task_value(bundle, batch, variant, optim.ALIGNMENT,
                                        bundle.params(), weights_override=frozen),
            bundle, bundle.extractor))
        if variant.adversarial:
            out.append(_fd_spans(
                f"align_disc_{variant_name}", g,
                lambda _: float(optim._align_loss(bundle, batch, variant, bundle.params(),
                                                  weights_override=frozen)[0].values),
                bundle, bundle.discriminator))
    return out


def meta_checks(seed: int) -> list[CheckResult]:
    """The meta step's theta and beta gradients against finite differences of
    optim.meta_total_value, L(theta, beta) with g_train frozen."""
    rng = np.random.default_rng(seed + 2)
    out: list[CheckResult] = []
    alpha = 0.05
    for variant_name in losses.VARIANTS:
        for meta_train in (optim.ALIGNMENT, optim.CLASSIFICATION):
            bundle, variant = random_bundle(rng, variant_name)
            batch = random_batch(rng)
            beta0 = bundle.beta.copy()
            applied, record, g_train = optim.metaalign_grads(
                bundle, batch, variant, alpha, meta_train)
            g_beta = applied[bundle.slices[nn.BETA_ID]]
            tag = f"{variant_name}_{meta_train}"

            frozen = None
            if variant_name == losses.DANNPE:
                # weights at the point where the alignment task is scored
                at = bundle.params()
                if optim.META_TEST[meta_train] == optim.ALIGNMENT:
                    at = optim.virtual_update(at, g_train, alpha, bundle.group_slices)
                frozen = _frozen_weights(bundle, batch, at)

            def total(beta):
                return optim.meta_total_value(bundle, batch, variant, alpha, beta,
                                              g_train, meta_train,
                                              weights_override=frozen)

            out.append(_fd_spans(f"meta_theta_{tag}", applied, lambda _: total(beta0),
                                 bundle, bundle.extractor))
            out.append(_fd_compare(f"meta_beta_{tag}", {nn.BETA_ID: g_beta},
                                   lambda p: total(p[nn.BETA_ID]),
                                   {nn.BETA_ID: beta0.copy()}, BETA_TOL))

            # bookkeeping: applied beta gradient reproduces the closed form
            sign = float(np.sign(beta0.sum() - bundle.budget))
            closed = np.array([-alpha * d + sign for d in record.grad_dot_per_group])
            out.append(_exact(f"meta_beta_closed_form_{tag}",
                              float(np.max(np.abs(g_beta - closed))),
                              0.0))
    return out


def quadratic_toy(alpha: float) -> dict[str, float]:
    """Scalar toy: train loss 0.5*t^2, test loss 0.5*(t-1)^2 at t=1, one group.

    Hand computation: g_train = 1, t' = 1 - alpha, applied t-gradient
    1 + (t' - 1) = 1 - alpha, beta-gradient -alpha*(t'-1) = alpha^2 (beta = 1
    sits at the budget 1, the kink of the budget penalty, which adds 0).
    """
    theta = {"t": np.asarray(1.0)}
    tape1 = Tape()
    leaf = tape1.param(theta["t"], "t")
    train = T.scale(T.mul(leaf, leaf), 0.5)
    g_train = backward(train, ["t"])

    flat, slices = nn.flatten({**theta, "beta": np.ones(1)})
    prime = optim.virtual_update(Params(Tape().param(flat, nn.FLAT_ID), slices),
                                 g_train["t"].reshape(1), alpha, [[slice(0, 1)]])
    gap = T.sub(T.reduce_sum(prime.theta), Tensor(np.asarray(1.0)))
    g2 = backward(T.scale(T.mul(gap, gap), 0.5), [nn.FLAT_ID])[nn.FLAT_ID]  # [t, beta]

    theta_grad = float(g_train["t"] + g2[0])
    beta_grad = float(g2[1])
    return {
        "theta_grad": theta_grad,
        "beta_grad": beta_grad,
        "theta_err": abs(theta_grad - (1.0 - alpha)),
        "beta_err": abs(beta_grad - alpha * alpha),
    }


def toy_checks() -> list[CheckResult]:
    out = []
    for alpha in (0.01, 0.1, 0.5):
        r = quadratic_toy(alpha)
        out.append(_exact(f"toy_theta_alpha_{alpha}", r["theta_err"], EXACT_TOL))
        out.append(_exact(f"toy_beta_alpha_{alpha}", r["beta_err"], EXACT_TOL))
    return out


def taylor_residuals(seed: int = 0) -> list[TaylorRow]:
    """R(a) = L_cls(theta - a*g_dom) - L_cls(theta) + a*<grad L_cls, g_dom> on a
    smooth (tanh) configuration; halving a must shrink |R| by at least 0.6."""
    rng = np.random.default_rng(seed + 3)
    bundle, variant = random_bundle(rng, losses.DANN, activation="tanh")
    batch = random_batch(rng, n=8)

    align, _ = optim._align_loss(bundle, batch, variant, bundle.params(Tape()))
    g_dom = backward(align, [nn.FLAT_ID])[nn.FLAT_ID]
    direction = g_dom[bundle.spans[bundle.extractor]]

    cls = optim._cls_loss(bundle, batch, bundle.params(Tape()))
    base = float(cls.values)
    g_cls = backward(cls, [nn.FLAT_ID])[nn.FLAT_ID]
    dot, _, _ = analysis.grad_dot(g_cls, g_dom, bundle.group_slices)

    assert (bundle.beta == 1.0).all()  # so theta' is theta - alpha * g_dom
    theta = bundle.params()
    rows: list[TaylorRow] = []
    alpha = TAYLOR_ALPHA_MAX
    prev: Optional[float] = None
    while alpha >= TAYLOR_ALPHA_MIN / 2:
        prime = optim.virtual_update(theta, direction, alpha, bundle.group_slices)
        moved = float(optim._cls_loss(bundle, batch, prime).values)
        resid = abs(moved - base + alpha * dot)
        ratio = None if prev is None else (resid / prev if prev > 0 else 0.0)
        rows.append(TaylorRow(alpha=alpha, residual=resid, ratio=ratio))
        prev = resid
        alpha /= 2.0
    return rows


def run_gradcheck(seed: int = 0) -> GradcheckReport:
    t0 = time.perf_counter()
    results = op_checks(seed) + loss_checks(seed) + meta_checks(seed) + toy_checks()
    taylor = taylor_residuals(seed)
    return GradcheckReport(results, taylor, time.perf_counter() - t0)


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

"""Parameter updates and the two training step kinds.

joint_step realizes the usual combined objective (classification plus
alignment). metaalign_step realizes the meta-optimization: a virtual
first-order update of the shared parameters on the meta-train task, scored by
the meta-test task on the same batch, with learnable per-group scalars
weighting the virtual step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis, losses
from . import tensor as T
from .losses import AlignmentInfo, AlignmentVariant
from .nn import BETA_ID, ModelBundle
from .tensor import GradientMap, Tape, Tensor, backward

ALIGNMENT = "alignment"
CLASSIFICATION = "classification"

ROLE_POLICIES = ("align_train", "cls_train", "alternate")


class NonFiniteError(RuntimeError):
    """A loss or gradient left the finite range; the run must abort."""


@dataclass
class Role:
    meta_train: str

    def __post_init__(self) -> None:
        if self.meta_train not in (ALIGNMENT, CLASSIFICATION):
            raise ValueError(f"unknown meta-train task {self.meta_train!r}")

    @property
    def meta_test(self) -> str:
        return CLASSIFICATION if self.meta_train == ALIGNMENT else ALIGNMENT


def role_schedule(policy: str, iteration: int) -> Role:
    """Deterministic role assignment; "alternate" flips parity each step."""
    if policy == "align_train":
        return Role(ALIGNMENT)
    if policy == "cls_train":
        return Role(CLASSIFICATION)
    if policy == "alternate":
        return Role(ALIGNMENT if iteration % 2 == 0 else CLASSIFICATION)
    raise ValueError(f"unknown role policy {policy!r}")


@dataclass
class OptimState:
    """SGD with momentum, shared by every parameter set including beta."""

    lr: float = 0.01
    meta_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lr > 0.0:
            raise ValueError("lr must be positive")
        if self.meta_lr < 0.0:
            raise ValueError("meta_lr must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")


@dataclass
class StepReport:
    """Losses and gradient-consistency diagnostics for one step."""

    L_cls: float
    L_dom_cls: Optional[float]
    L_dom: float
    L_beta: float
    L_total: float
    grad_dot_per_group: list[float]
    grad_dot_total: float
    grad_cos: Optional[float]
    beta: list[float]
    clamped: bool = False


def sgd_update(params: dict[str, np.ndarray], grads: GradientMap,
               state: OptimState) -> None:
    """v <- momentum*v + g (+ weight decay, except on beta); p <- p - lr*v, in place."""
    if set(params) != set(grads):
        raise ValueError("grads must cover exactly the updated params")
    for pid, p in params.items():
        g = grads[pid]
        if g.shape != p.shape:
            raise T.DimensionError(f"grad shape {g.shape} vs param {p.shape} for {pid}")
        if state.weight_decay != 0.0 and pid != BETA_ID:
            decayed = state.weight_decay * p
            decayed += g  # the bits of g + weight_decay * p, one temporary
            g = decayed
        v = state.velocity.get(pid)
        if v is None:
            v = np.zeros_like(p)
            state.velocity[pid] = v
        v *= state.momentum
        v += g
        p -= state.lr * v


def virtual_update(tape: Tape, theta: dict[str, np.ndarray], g_train: GradientMap,
                   alpha: float, beta_leaf: Tensor,
                   groups: list[list[str]]) -> dict[str, Tensor]:
    """theta'_m = theta_m - alpha * beta_m * g_m, recorded on the tape.

    Backward through theta' sends gradient 1 to theta and
    -alpha * <g_m, upstream_m> to beta_m. Within each group, nodes are created
    in reversed id order so the tape accumulates the beta contribution in the
    same order analysis.grad_dot sums the per-group dots; the reported dots
    then reproduce the applied beta gradient bitwise.
    """
    grouped = [pid for group in groups for pid in group]
    if set(grouped) != set(theta) or len(grouped) != len(theta):
        raise ValueError("groups must partition the shared parameters")
    out: dict[str, Tensor] = {}
    for m, group in enumerate(groups):
        coeff = T.scale(T.select1(beta_leaf, m), -float(alpha))
        for pid in reversed(group):
            leaf = tape.param(theta[pid], pid)
            out[pid] = T.add(leaf, T.scale_by(Tensor(g_train[pid]), coeff))
    return out


def theta_prime(theta: dict[str, np.ndarray], g_train: GradientMap, alpha: float,
                beta_values: np.ndarray,
                groups: list[list[str]]) -> dict[str, Tensor]:
    """theta'_m = theta_m - alpha * beta_m * g_m as plain values (no tape)."""
    return {pid: Tensor(theta[pid] - alpha * beta_values[m] * g_train[pid])
            for m, group in enumerate(groups) for pid in group}


# ---------------------------------------------------------------------------
# loss builders shared by both step kinds (tape=None gives a plain forward)


def _const(tape: Optional[Tape], values: np.ndarray) -> Tensor:
    return tape.const(values) if tape is not None else Tensor(values)


def _cls_loss(bundle: ModelBundle, batch, tape: Optional[Tape],
              theta_override: Optional[dict[str, Tensor]] = None) -> Tensor:
    x = _const(tape, batch.src_features)
    feats = bundle.extractor.forward(x, theta_override)
    logits = bundle.classifier.forward(feats)
    return losses.cross_entropy(logits, batch.src_labels)


def _align_loss(bundle: ModelBundle, batch, variant: AlignmentVariant,
                tape: Optional[Tape],
                theta_override: Optional[dict[str, Tensor]] = None,
                weights_override=None) -> tuple[Tensor, AlignmentInfo]:
    fs = bundle.extractor.forward(_const(tape, batch.src_features), theta_override)
    ft = bundle.extractor.forward(_const(tape, batch.tgt_features), theta_override)
    return losses.alignment_loss(variant, fs, ft,
                                 classifier=bundle.classifier,
                                 discriminator=bundle.discriminator,
                                 weights_override=weights_override)


def _task_loss(bundle: ModelBundle, batch, variant: AlignmentVariant, task: str,
               tape: Optional[Tape],
               theta_override: Optional[dict[str, Tensor]] = None,
               weights_override=None) -> tuple[Tensor, Optional[AlignmentInfo]]:
    """The loss of one task; the alignment info is None for classification."""
    if task == CLASSIFICATION:
        return _cls_loss(bundle, batch, tape, theta_override), None
    return _align_loss(bundle, batch, variant, tape, theta_override,
                       weights_override=weights_override)


def _task_value(bundle: ModelBundle, batch, variant: AlignmentVariant, task: str,
                theta_override: Optional[dict[str, Tensor]] = None,
                weights_override=None) -> float:
    """Forward-only value of the objective the shared parameters descend.

    For an adversarial alignment task that is the effective objective
    lambda * (-L_dom_cls), which the gradient reversal turns the discriminator
    BCE into; otherwise it is the task's loss.
    """
    loss, info = _task_loss(bundle, batch, variant, task, None, theta_override,
                            weights_override=weights_override)
    if info is not None and variant.adversarial:
        return variant.grl_lambda * info.dom
    return float(loss.values)


def _check_finite(report_values: dict[str, float], grads: GradientMap) -> None:
    for name, v in report_values.items():
        if not np.isfinite(v):
            raise NonFiniteError(f"non-finite loss {name}={v}")
    flat = [g.ravel() for g in grads.values()]
    if flat and np.isfinite(np.concatenate(flat)).all():
        return  # one pass over every gradient; the per-id pass names the culprit
    for pid, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for {pid}")


def _task_param_ids(bundle: ModelBundle, task: str, variant: AlignmentVariant) -> list[str]:
    if task == CLASSIFICATION:
        return bundle.classifier.param_ids
    if variant.adversarial and bundle.discriminator is not None:
        return bundle.discriminator.param_ids
    return []


def joint_grads(bundle: ModelBundle, batch,
                variant: AlignmentVariant) -> tuple[GradientMap, StepReport]:
    """Gradients for one combined-objective step, without applying them.

    The two objectives run on separate tapes so the per-task gradients are
    available for the consistency diagnostics; their sum equals the gradient
    of the summed loss exactly.
    """
    theta_ids = bundle.theta_ids
    disc_ids = _task_param_ids(bundle, ALIGNMENT, variant)
    cls_ids = bundle.classifier.param_ids

    tape_a = Tape()
    align, info = _align_loss(bundle, batch, variant, tape_a)
    g_align = backward(align, theta_ids + disc_ids)

    tape_c = Tape()
    cls = _cls_loss(bundle, batch, tape_c)
    g_cls = backward(cls, theta_ids + cls_ids)

    gw = bundle.group_weights
    l_cls = float(cls.values)
    l_beta = float(abs(gw.beta.sum() - gw.budget))
    total_dot, cos, per_group = analysis.grad_dot(
        {pid: g_align[pid] for pid in theta_ids},
        {pid: g_cls[pid] for pid in theta_ids},
        bundle.groups)

    applied: GradientMap = {pid: g_align[pid] + g_cls[pid] for pid in theta_ids}
    for pid in cls_ids:
        applied[pid] = g_cls[pid]
    for pid in disc_ids:
        applied[pid] = g_align[pid]

    report = StepReport(
        L_cls=l_cls, L_dom_cls=info.dom_cls, L_dom=info.dom, L_beta=l_beta,
        L_total=l_cls + info.dom,
        grad_dot_per_group=per_group, grad_dot_total=total_dot, grad_cos=cos,
        beta=gw.beta.tolist(), clamped=info.clamped)
    return applied, report


def joint_step(bundle: ModelBundle, batch, variant: AlignmentVariant,
               state: OptimState) -> StepReport:
    """One combined-objective update of theta, phi_c and (if present) phi_d."""
    applied, report = joint_grads(bundle, batch, variant)
    _check_finite({"L_cls": report.L_cls, "L_dom": report.L_dom}, applied)
    params = bundle.network_params()
    sgd_update({pid: params[pid] for pid in applied}, applied, state)
    return report


def metaalign_grads(bundle: ModelBundle, batch, variant: AlignmentVariant,
                    alpha: float, role: Role) -> tuple[GradientMap, StepReport, GradientMap]:
    """First-order meta-step gradients, without applying them.

    Phase 1 computes the meta-train loss at theta and keeps its gradient both
    as the (detached) direction for the virtual update and as the live
    meta-train contribution to theta's update. Phase 2 scores the meta-test
    task at theta' on the same batch; a single backward on
    meta-test + budget-penalty yields the first-order gradients:
    theta gets g_train + grad(L_test at theta'), each task head gets its own
    loss gradient, and beta_m gets -alpha * <g_train_m, g_test_m> plus the
    budget subgradient.

    Returns (applied gradients, report, g_train over theta).
    """
    theta_ids = bundle.theta_ids
    gw = bundle.group_weights

    tape1 = Tape()
    train_loss, train_info = _task_loss(bundle, batch, variant, role.meta_train, tape1)
    extra1 = _task_param_ids(bundle, role.meta_train, variant)
    g1 = backward(train_loss, theta_ids + extra1)
    g_train = {pid: g1[pid] for pid in theta_ids}

    tape2 = Tape()
    beta_leaf = tape2.param(gw.beta, BETA_ID)
    prime = virtual_update(tape2, bundle.extractor.params(), g_train,
                           alpha, beta_leaf, bundle.groups)
    test_loss, test_info = _task_loss(bundle, batch, variant, role.meta_test,
                                      tape2, theta_override=prime)
    extra2 = _task_param_ids(bundle, role.meta_test, variant)
    l_beta_t = losses.beta_penalty(beta_leaf, gw.budget)
    total2 = T.add(test_loss, l_beta_t)
    g2 = backward(total2, theta_ids + extra2 + [BETA_ID])
    g_test = {pid: g2[pid] for pid in theta_ids}

    total_dot, cos, per_group = analysis.grad_dot(g_train, g_test, bundle.groups)

    applied: GradientMap = {pid: g_train[pid] + g_test[pid] for pid in theta_ids}
    for pid in extra1:
        applied[pid] = g1[pid]
    for pid in extra2:
        applied[pid] = g2[pid]
    applied[BETA_ID] = g2[BETA_ID]

    by_task = {role.meta_train: (train_loss, train_info),
               role.meta_test: (test_loss, test_info)}
    l_cls = float(by_task[CLASSIFICATION][0].values)
    info = by_task[ALIGNMENT][1]
    l_beta = float(l_beta_t.values)

    report = StepReport(
        L_cls=l_cls, L_dom_cls=info.dom_cls, L_dom=info.dom, L_beta=l_beta,
        L_total=l_cls + info.dom + l_beta,
        grad_dot_per_group=per_group, grad_dot_total=total_dot, grad_cos=cos,
        beta=gw.beta.tolist(), clamped=info.clamped)
    return applied, report, g_train


def metaalign_step(bundle: ModelBundle, batch, variant: AlignmentVariant,
                   state: OptimState, role: Role) -> StepReport:
    """One meta-optimization update of theta, phi_c, phi_d and beta."""
    applied, report, _ = metaalign_grads(bundle, batch, variant, state.meta_lr, role)
    _check_finite({"L_cls": report.L_cls, "L_dom": report.L_dom,
                   "L_beta": report.L_beta}, applied)
    params = bundle.all_params()
    sgd_update({pid: params[pid] for pid in applied}, applied, state)
    return report


def meta_total_value(bundle: ModelBundle, batch, variant: AlignmentVariant,
                     alpha: float, beta_values: np.ndarray,
                     g_train: GradientMap, role: Role,
                     weights_override=None) -> float:
    """Forward-only L(theta, beta) = L_train(theta) + L_test(theta') + |sum(beta) - B|,
    with theta' built from the frozen g_train.

    This is the function whose derivatives the meta step's theta and beta
    gradients must match; finite-difference checks differentiate it directly,
    over theta (reading the live extractor parameters) or over beta. Each task
    contributes the objective the shared parameters descend (_task_value).
    """
    beta_values = np.asarray(beta_values, dtype=np.float64)
    prime = theta_prime(bundle.extractor.params(), g_train, alpha, beta_values,
                        bundle.groups)
    train_val = _task_value(bundle, batch, variant, role.meta_train,
                            weights_override=weights_override)
    test_val = _task_value(bundle, batch, variant, role.meta_test,
                           theta_override=prime, weights_override=weights_override)
    budget = bundle.group_weights.budget
    return train_val + test_val + abs(float(beta_values.sum()) - budget)

"""Parameter updates and the two training step kinds.

joint_step realizes the usual combined objective (classification plus
alignment). metaalign_step realizes the meta-optimization: a virtual
first-order update of the shared parameters on the meta-train task, scored by
the meta-test task on the same batch, with learnable per-group scalars
weighting the virtual step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, losses
from . import tensor as T
from .analysis import MetricsRecord
from .losses import AlignmentInfo, AlignmentVariant
from .nn import BETA_ID, ModelBundle, Params
from .tensor import GradientMap, Tape, Tensor, backward

ALIGNMENT = "alignment"
CLASSIFICATION = "classification"

# Each policy's cycle of meta-train tasks: step `it` gives the meta-train role
# to cycle[it % len(cycle)] and scores META_TEST of it at the updated point.
ROLE_POLICIES = {"align_train": (ALIGNMENT,), "cls_train": (CLASSIFICATION,),
                 "alternate": (ALIGNMENT, CLASSIFICATION)}
META_TEST = {ALIGNMENT: CLASSIFICATION, CLASSIFICATION: ALIGNMENT}


class NonFiniteError(RuntimeError):
    """A loss or gradient left the finite range; the run must abort."""


@dataclass
class OptimState:
    """SGD with momentum, shared by every parameter set including beta; the
    velocity is one array laid out like the parameters it updates."""

    lr: float = 0.01
    meta_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not self.lr > 0.0:
            raise ValueError("lr must be positive")
        if self.meta_lr < 0.0:
            raise ValueError("meta_lr must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")


def sgd_update(params: np.ndarray, grads: np.ndarray, state: OptimState,
               decayed: int) -> None:
    """v <- momentum*v + g (+ weight_decay*p on params[:decayed], so not on
    beta's trailing slice); p <- p - lr*v, in place, as whole-array ops."""
    if grads.shape != params.shape:
        raise T.DimensionError(f"grad shape {grads.shape} vs params {params.shape}")
    if state.velocity is None:
        state.velocity = np.zeros_like(params)
    if state.weight_decay != 0.0:
        grads = grads.copy()  # the caller's gradient stays as it was
        grads[:decayed] += state.weight_decay * params[:decayed]
    v = state.velocity
    v *= state.momentum
    v += grads
    params -= state.lr * v


def virtual_update(theta: Params, g_train: GradientMap, alpha: float, beta: Tensor,
                   groups: list[list[str]]) -> dict[str, Tensor]:
    """theta'_m = theta_m + g_m * (beta_m * -alpha), the bits of
    theta_m - alpha * beta_m * g_m: plain values for constant theta and beta.

    With theta on a tape and beta a leaf of it, backward through theta' sends
    gradient 1 to theta and -alpha * <g_m, upstream_m> to beta_m. Within each
    group, nodes are created in reversed id order so the tape accumulates the
    beta contribution in the same order analysis.grad_dot sums the per-group
    dots; the reported dots then reproduce the applied beta gradient bitwise.
    """
    if sorted(pid for group in groups for pid in group) != sorted(theta.arrays):
        raise ValueError("groups must partition the shared parameters")
    out: dict[str, Tensor] = {}
    for m, group in enumerate(groups):
        coeff = T.scale(T.select1(beta, m), -float(alpha))
        for pid in reversed(group):
            out[pid] = T.add(theta[pid], T.scale_by(Tensor(g_train[pid]), coeff))
    return out


# ---------------------------------------------------------------------------
# loss builders shared by both step kinds (Params without a tape: a plain forward)


def _cls_loss(bundle: ModelBundle, batch, params: Params) -> Tensor:
    feats = bundle.extractor.forward(Tensor(batch.src_features), params)
    logits = bundle.classifier.forward(feats, params)
    return losses.cross_entropy(logits, batch.src_labels)


def _align_loss(bundle: ModelBundle, batch, variant: AlignmentVariant,
                params: Params, weights_override=None) -> tuple[Tensor, AlignmentInfo]:
    fs = bundle.extractor.forward(Tensor(batch.src_features), params)
    ft = bundle.extractor.forward(Tensor(batch.tgt_features), params)
    return losses.alignment_loss(variant, fs, ft, params,
                                 classifier=bundle.classifier,
                                 discriminator=bundle.discriminator,
                                 weights_override=weights_override)


def _task_loss(bundle: ModelBundle, batch, variant: AlignmentVariant, task: str,
               params: Params,
               weights_override=None) -> tuple[Tensor, Optional[AlignmentInfo]]:
    """The loss of one task; the alignment info is None for classification."""
    if task == CLASSIFICATION:
        return _cls_loss(bundle, batch, params), None
    return _align_loss(bundle, batch, variant, params, weights_override)


def _task_value(bundle: ModelBundle, batch, variant: AlignmentVariant, task: str,
                params: Params, weights_override=None) -> float:
    """Forward-only value of the objective the shared parameters descend.

    For an adversarial alignment task that is the effective objective
    lambda * (-L_dom_cls), which the gradient reversal turns the discriminator
    BCE into; otherwise it is the task's loss.
    """
    loss, info = _task_loss(bundle, batch, variant, task, params, weights_override)
    if info is not None and variant.adversarial:
        return variant.grl_lambda * info.dom
    return float(loss.values)


def _check_finite(report_values: dict[str, float], grads: np.ndarray,
                  slices: dict[str, slice]) -> None:
    """Raise on a non-finite loss, else name the id of the first non-finite gradient entry."""
    for name, v in report_values.items():
        if not np.isfinite(v):
            raise NonFiniteError(f"non-finite loss {name}={v}")
    finite = np.isfinite(grads)
    if finite.all():
        return
    first = int(finite.argmin())
    pid = next(pid for pid, s in slices.items() if first < s.stop)
    raise NonFiniteError(f"non-finite gradient for {pid}")


def _task_param_ids(bundle: ModelBundle, task: str, variant: AlignmentVariant) -> list[str]:
    if task == CLASSIFICATION:
        return bundle.classifier.param_ids
    if variant.adversarial and bundle.discriminator is not None:
        return bundle.discriminator.param_ids
    return []


def joint_grads(bundle: ModelBundle, batch,
                variant: AlignmentVariant) -> tuple[GradientMap, MetricsRecord]:
    """Gradients for one combined-objective step, without applying them.

    The two objectives run on separate tapes so the per-task gradients are
    available for the consistency diagnostics; their sum equals the gradient
    of the summed loss exactly.
    """
    theta_ids = bundle.theta_ids
    arrays = bundle.network_params()

    align, info = _align_loss(bundle, batch, variant, Params(arrays, Tape()))
    g_align = backward(align, theta_ids + _task_param_ids(bundle, ALIGNMENT, variant))

    cls = _cls_loss(bundle, batch, Params(arrays, Tape()))
    g_cls = backward(cls, theta_ids + bundle.classifier.param_ids)

    gw = bundle.group_weights
    l_cls = float(cls.values)
    l_beta = float(abs(gw.beta.sum() - gw.budget))
    total_dot, cos, per_group = analysis.grad_dot(
        {pid: g_align[pid] for pid in theta_ids},
        {pid: g_cls[pid] for pid in theta_ids},
        bundle.groups)

    applied = {**g_align, **g_cls,
               **{pid: g_align[pid] + g_cls[pid] for pid in theta_ids}}

    record = MetricsRecord(
        L_cls=l_cls, L_dom_cls=info.dom_cls, L_dom=info.dom, L_beta=l_beta,
        L_total=l_cls + info.dom,
        grad_dot_per_group=per_group, grad_dot_total=total_dot, grad_cos=cos,
        beta=gw.beta.tolist(), clamped=info.clamped)
    return applied, record


def _apply(bundle: ModelBundle, applied: GradientMap, record: MetricsRecord,
           state: OptimState) -> None:
    """End a step: raise on a non-finite loss or gradient, else apply the update."""
    grads = bundle.flat_grad(applied)
    _check_finite({"L_cls": record.L_cls, "L_dom": record.L_dom,
                   "L_beta": record.L_beta}, grads, bundle.slices)
    sgd_update(bundle.flat, grads, state, bundle.slices[BETA_ID].start)


def joint_step(bundle: ModelBundle, batch, variant: AlignmentVariant,
               state: OptimState) -> MetricsRecord:
    """One combined-objective update of theta, phi_c and (if present) phi_d."""
    applied, record = joint_grads(bundle, batch, variant)
    _apply(bundle, applied, record, state)
    return record


def metaalign_grads(bundle: ModelBundle, batch, variant: AlignmentVariant,
                    alpha: float,
                    meta_train: str) -> tuple[GradientMap, MetricsRecord, GradientMap]:
    """First-order meta-step gradients, without applying them.

    Phase 1 computes the meta_train task's loss at theta and keeps its gradient
    both as the (constant) direction for the virtual update and as the live
    meta-train contribution to theta's update. Phase 2 scores the meta-test
    task (the other one) at theta' on the same batch; a single backward on
    meta-test + budget-penalty yields the first-order gradients:
    theta gets g_train + grad(L_test at theta'), each task head gets its own
    loss gradient, and beta_m gets -alpha * <g_train_m, g_test_m> plus the
    budget subgradient. An unknown meta_train raises KeyError.

    Returns (applied gradients, record, g_train over theta).
    """
    meta_test = META_TEST[meta_train]
    theta_ids = bundle.theta_ids
    gw = bundle.group_weights
    arrays = bundle.network_params()

    train_loss, train_info = _task_loss(bundle, batch, variant, meta_train,
                                        Params(arrays, Tape()))
    g1 = backward(train_loss, theta_ids + _task_param_ids(bundle, meta_train, variant))
    g_train = {pid: g1[pid] for pid in theta_ids}

    tape2 = Tape()
    beta_leaf = tape2.param(gw.beta, BETA_ID)
    prime = virtual_update(Params(bundle.extractor.params(), tape2), g_train,
                           alpha, beta_leaf, bundle.groups)
    test_loss, test_info = _task_loss(bundle, batch, variant, meta_test,
                                      Params(arrays, tape2, given=prime))
    l_beta_t = losses.beta_penalty(beta_leaf, gw.budget)
    total2 = T.add(test_loss, l_beta_t)
    g2 = backward(total2, theta_ids + _task_param_ids(bundle, meta_test, variant)
                  + [BETA_ID])
    g_test = {pid: g2[pid] for pid in theta_ids}

    total_dot, cos, per_group = analysis.grad_dot(g_train, g_test, bundle.groups)

    applied = {**g1, **g2, **{pid: g_train[pid] + g_test[pid] for pid in theta_ids}}

    by_task = {meta_train: (train_loss, train_info),
               meta_test: (test_loss, test_info)}
    l_cls = float(by_task[CLASSIFICATION][0].values)
    info = by_task[ALIGNMENT][1]
    l_beta = float(l_beta_t.values)

    record = MetricsRecord(
        L_cls=l_cls, L_dom_cls=info.dom_cls, L_dom=info.dom, L_beta=l_beta,
        L_total=l_cls + info.dom + l_beta,
        grad_dot_per_group=per_group, grad_dot_total=total_dot, grad_cos=cos,
        beta=gw.beta.tolist(), clamped=info.clamped)
    return applied, record, g_train


def metaalign_step(bundle: ModelBundle, batch, variant: AlignmentVariant,
                   state: OptimState, meta_train: str) -> MetricsRecord:
    """One meta-optimization update of theta, phi_c, phi_d and beta."""
    applied, record, _ = metaalign_grads(bundle, batch, variant, state.meta_lr,
                                         meta_train)
    _apply(bundle, applied, record, state)
    return record


def meta_total_value(bundle: ModelBundle, batch, variant: AlignmentVariant,
                     alpha: float, beta_values: np.ndarray,
                     g_train: GradientMap, meta_train: str,
                     weights_override=None) -> float:
    """Forward-only L(theta, beta) = L_train(theta) + L_test(theta') + |sum(beta) - B|,
    with theta' built from the frozen g_train.

    This is the function whose derivatives the meta step's theta and beta
    gradients must match; finite-difference checks differentiate it directly,
    over theta (reading the live extractor parameters) or over beta. Each task
    contributes the objective the shared parameters descend (_task_value).
    """
    meta_test = META_TEST[meta_train]
    beta = Tensor(beta_values)
    arrays = bundle.network_params()
    prime = virtual_update(Params(bundle.extractor.params()), g_train, alpha, beta,
                           bundle.groups)
    train_val = _task_value(bundle, batch, variant, meta_train, Params(arrays),
                            weights_override)
    test_val = _task_value(bundle, batch, variant, meta_test,
                           Params(arrays, given=prime), weights_override)
    budget = bundle.group_weights.budget
    return train_val + test_val + abs(float(beta.values.sum()) - budget)

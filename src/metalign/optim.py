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
from .nn import BETA_ID, FLAT_ID, ModelBundle, Params
from .tensor import Tape, Tensor, backward

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


def virtual_update(params: Params, g_train: np.ndarray, alpha: float,
                   groups: list[list[slice]], dots: Optional[list] = None) -> Params:
    """params with theta' read by the extractor: theta_m + g_m * (beta_m * -alpha)
    on each group m, the bits of theta_m - alpha * beta_m * g_m, as one
    tensor.group_step node, which reads theta and beta from params.p. g_train
    is laid out like the extractor's part; groups lists each group's slices.
    A given list dots gets <grad at theta', g_train> per group in backward."""
    prime = T.group_step(params.p, g_train, alpha, groups, params.slices[BETA_ID], dots)
    return Params.over(params.p, params.slices, prime)


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
    """Forward-only value of the objective the shared parameters descend: the
    task's loss, or for an adversarial alignment task lambda * (-L_dom_cls),
    which the gradient reversal turns the discriminator BCE into."""
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


def _head_span(bundle: ModelBundle, task: str, variant: AlignmentVariant) -> Optional[slice]:
    """The part of flat of the net besides the extractor that the task trains, if any."""
    head = bundle.classifier if task == CLASSIFICATION else bundle.discriminator
    return bundle.spans[head] if task == CLASSIFICATION or variant.adversarial else None


def joint_grads(bundle: ModelBundle, batch,
                variant: AlignmentVariant) -> tuple[np.ndarray, MetricsRecord]:
    """Gradients for one combined-objective step, laid out like bundle.flat
    (beta's part the -0.0 no tape reaches), without applying them. The two
    objectives run on separate tapes so the per-task gradients are available
    for the consistency diagnostics; their sum is the summed loss's gradient, exactly."""
    align, info = _align_loss(bundle, batch, variant, bundle.params(Tape()))
    g_align = backward(align, [FLAT_ID])[FLAT_ID]

    cls = _cls_loss(bundle, batch, bundle.params(Tape()))
    applied = backward(cls, [FLAT_ID])[FLAT_ID]

    gw = bundle.group_weights
    l_cls = float(cls.values)
    l_beta = float(abs(gw.beta.sum() - gw.budget))
    total_dot, cos, per_group = analysis.grad_dot(g_align, applied, bundle.group_slices)

    theta, head = bundle.spans[bundle.extractor], _head_span(bundle, ALIGNMENT, variant)
    applied[theta] += g_align[theta]
    if head is not None:
        applied[head] = g_align[head]

    record = MetricsRecord(
        L_cls=l_cls, L_dom_cls=info.dom_cls, L_dom=info.dom, L_beta=l_beta,
        L_total=l_cls + info.dom,
        grad_dot_per_group=per_group, grad_dot_total=total_dot, grad_cos=cos,
        beta=gw.beta.tolist(), clamped=info.clamped)
    return applied, record


def _apply(bundle: ModelBundle, applied: np.ndarray, record: MetricsRecord,
           state: OptimState) -> None:
    """End a step: raise on a non-finite loss or gradient, else apply the update."""
    _check_finite({"L_cls": record.L_cls, "L_dom": record.L_dom,
                   "L_beta": record.L_beta}, applied, bundle.slices)
    sgd_update(bundle.flat, applied, state, bundle.slices[BETA_ID].start)


def joint_step(bundle: ModelBundle, batch, variant: AlignmentVariant,
               state: OptimState) -> MetricsRecord:
    """One combined-objective update of theta, phi_c and (if present) phi_d."""
    applied, record = joint_grads(bundle, batch, variant)
    _apply(bundle, applied, record, state)
    return record


def metaalign_grads(bundle: ModelBundle, batch, variant: AlignmentVariant, alpha: float,
                    meta_train: str) -> tuple[np.ndarray, MetricsRecord, np.ndarray]:
    """First-order meta-step gradients, laid out like bundle.flat, without
    applying them; returns them, the record and g_train (laid out like theta).

    Phase 1 computes the meta_train task's loss at theta and keeps its gradient
    both as the (constant) direction for the virtual update and as the live
    meta-train contribution to theta's update. Phase 2 scores the meta-test
    task (the other one) at theta' on the same batch; its backward yields the
    first-order gradients: theta gets g_train + grad(L_test at theta'), each
    task head its own loss gradient, and beta_m -alpha * <g_train_m, g_test_m>,
    plus the budget subgradient sign(sum(beta) - B) added here. An unknown
    meta_train raises KeyError.
    """
    meta_test = META_TEST[meta_train]
    gw, theta = bundle.group_weights, bundle.spans[bundle.extractor]

    train_loss, train_info = _task_loss(bundle, batch, variant, meta_train, bundle.params(Tape()))
    g1 = backward(train_loss, [FLAT_ID])[FLAT_ID]

    dots: list = []  # group_step's vjp puts the per-group dots here
    prime = virtual_update(bundle.params(Tape()), g1[theta], alpha, bundle.group_slices, dots)
    test_loss, test_info = _task_loss(bundle, batch, variant, meta_test, prime)
    applied = backward(test_loss, [FLAT_ID])[FLAT_ID]

    total_dot, cos, per_group = analysis.grad_dot(g1, applied, bundle.group_slices,
                                                  dots or None)

    gap, head = gw.beta.sum() - gw.budget, _head_span(bundle, meta_train, variant)
    applied[theta] += g1[theta]
    applied[bundle.slices[BETA_ID]] += np.sign(gap)
    if head is not None:
        applied[head] = g1[head]

    by_task = {meta_train: (train_loss, train_info),
               meta_test: (test_loss, test_info)}
    l_cls = float(by_task[CLASSIFICATION][0].values)
    info = by_task[ALIGNMENT][1]
    l_beta = float(abs(gap))

    record = MetricsRecord(
        L_cls=l_cls, L_dom_cls=info.dom_cls, L_dom=info.dom, L_beta=l_beta,
        L_total=l_cls + info.dom + l_beta,
        grad_dot_per_group=per_group, grad_dot_total=total_dot, grad_cos=cos,
        beta=gw.beta.tolist(), clamped=info.clamped)
    return applied, record, g1[theta]


def metaalign_step(bundle: ModelBundle, batch, variant: AlignmentVariant,
                   state: OptimState, meta_train: str) -> MetricsRecord:
    """One meta-optimization update of theta, phi_c, phi_d and beta."""
    applied, record, _ = metaalign_grads(bundle, batch, variant, state.meta_lr,
                                         meta_train)
    _apply(bundle, applied, record, state)
    return record


def meta_total_value(bundle: ModelBundle, batch, variant: AlignmentVariant,
                     alpha: float, beta_values: np.ndarray,
                     g_train: np.ndarray, meta_train: str,
                     weights_override=None) -> float:
    """Forward-only L(theta, beta) = L_train(theta) + L_test(theta') + |sum(beta) - B|,
    theta' built from the frozen g_train, each task's term by _task_value: the
    function whose theta derivatives (read from the live arrays) and beta
    derivatives the meta step's gradients must match."""
    meta_test = META_TEST[meta_train]
    params = Params({**bundle.all_params(), BETA_ID: beta_values})
    prime = virtual_update(params, g_train, alpha, bundle.group_slices)
    train_val = _task_value(bundle, batch, variant, meta_train, params,
                            weights_override)
    test_val = _task_value(bundle, batch, variant, meta_test, prime, weights_override)
    budget = bundle.group_weights.budget
    return train_val + test_val + abs(float(np.sum(beta_values)) - budget)

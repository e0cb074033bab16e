"""Scalar training objectives: source cross-entropy, adversarial domain
classification (plain and entropy-reweighted) and squared MMD with an RBF
kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor

# discriminator outputs are clamped into [EPS, 1-EPS] before the log
EPS = 1e-7

DANN = "dann"
DANNPE = "dannpe"
MMD = "mmd"
VARIANTS = (DANN, DANNPE, MMD)


@dataclass
class AlignmentVariant:
    """Which alignment objective to use and its knobs.

    grl_lambda scales the flipped gradient for the adversarial variants and
    acts as a plain loss weight for MMD. sigma is the RBF bandwidth; None
    means "resolve with the median heuristic on the first batch". The config
    schema checks all three where a config is parsed.
    """

    name: str
    grl_lambda: float = 1.0
    sigma: Optional[float] = None

    @property
    def adversarial(self) -> bool:
        return self.name in (DANN, DANNPE)


@dataclass
class AlignmentInfo:
    """Plain-float view of one alignment evaluation for reporting."""

    dom_cls: Optional[float]  # discriminator BCE; None for MMD
    dom: float                # alignment objective: -dom_cls, or mmd^2
    clamped: bool = False     # a discriminator output hit the EPS clamp


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true classes; each label lies in
    [0, K), as the classifier's K logits are sized by the labels it meets."""
    return T.nll_mean(logits, labels)


def entropy_weights(probs: Tensor) -> Tensor:
    """Per-sample weights exp(-entropy) of rows of softmax outputs, a constant,
    so no gradient reaches C; a non-finite row gives a non-finite weight."""
    p = probs.values
    if p.ndim != 2:
        raise ValueError("entropy_weights expects n x K probabilities")
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(p), 0.0)
    return Tensor(np.exp(plogp.sum(axis=1)))


def domain_cls_loss(d_src: Tensor, d_tgt: Tensor, w_src: Optional[Tensor] = None,
                    w_tgt: Optional[Tensor] = None,
                    clamped: Optional[list[bool]] = None) -> Tensor:
    """Two-domain BCE: -mean log d_src - mean log(1 - d_tgt).

    Optional nonnegative weights are normalized to mean one per domain batch
    and applied inside the means. Inputs are clamped to [EPS, 1-EPS] so the
    loss stays finite; a given list clamped gets one flag per domain, whether
    the clamp changed any output, NaN included.
    """
    term_s = _bce_term(d_src, w_src, True, clamped)
    term_t = _bce_term(d_tgt, w_tgt, False, clamped)
    return T.add(term_s, term_t)


def _bce_term(d: Tensor, w: Optional[Tensor], true_side: bool, clamped: Optional[list]) -> Tensor:
    if d.values.ndim != 2 or d.shape[1] != 1:
        raise ValueError(f"discriminator outputs must be n x 1, got {d.shape}")
    norm = None
    if w is not None:
        wv = w.values
        if np.any(wv < 0.0):
            raise ValueError("weights must be nonnegative")
        norm = (wv / wv.mean()).reshape(-1, 1)
        if norm.shape != d.shape:
            raise ValueError(f"weight shape {w.shape} does not match batch {d.shape}")
    return T.bce_mean(d, EPS, 1.0 - EPS, not true_side, norm, clamped)


def mmd2_rbf(fs: Tensor, ft: Tensor, sigma: float) -> Tensor:
    """Biased squared-MMD V-statistic with kernel exp(-||f - f'||^2 / (2 sigma))."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if fs.shape[0] == 0 or ft.shape[0] == 0:
        raise ValueError("mmd2_rbf needs at least one sample per domain")
    inv = -1.0 / (2.0 * sigma)
    k_ss = T.rbf_mean(T.pairwise_sqdist(fs, fs), inv)
    k_tt = T.rbf_mean(T.pairwise_sqdist(ft, ft), inv)
    k_st = T.rbf_mean(T.pairwise_sqdist(fs, ft), inv)
    return T.sub(T.add(k_ss, k_tt), T.scale(k_st, 2.0))


def median_sq_dist(fs: np.ndarray, ft: np.ndarray) -> float:
    """Median heuristic bandwidth: median pairwise squared distance over the
    pooled batch, off-diagonal pairs only."""
    pooled = Tensor(np.concatenate([fs, ft], axis=0))
    sq = T.pairwise_sqdist(pooled, pooled).values
    vals = sq[~np.eye(sq.shape[0], dtype=bool)]
    med = float(np.median(vals))
    return med if med > 0.0 else 1.0


def alignment_loss(variant: AlignmentVariant, fs: Tensor, ft: Tensor,
                   params: Optional[nn.Params] = None,
                   classifier: Optional[nn.ClassifierHead] = None,
                   discriminator: Optional[nn.DomainDiscriminator] = None,
                   weights_override: Optional[tuple[np.ndarray, np.ndarray]] = None,
                   ) -> tuple[Tensor, AlignmentInfo]:
    """Scalar alignment objective over source/target features: for MMD
    grl_lambda * mmd^2; for the adversarial variants the discriminator BCE on
    gradient-reversed inputs, which trains the discriminator while the shared
    parameters receive the flipped (alignment) gradient, scaled by grl_lambda.

    weights_override pins the entropy weights to given arrays, as the analytic
    gradient treats them as constants; finite-difference checks use it.
    """
    if variant.name == MMD:
        if variant.sigma is None:
            raise ValueError("sigma unresolved; call median_sq_dist on the first batch")
        raw = mmd2_rbf(fs, ft, variant.sigma)
        loss = T.scale(raw, variant.grl_lambda) if variant.grl_lambda != 1.0 else raw
        return loss, AlignmentInfo(dom_cls=None, dom=float(raw.values))

    if discriminator is None or params is None:
        raise ValueError("adversarial variants need a discriminator and params")
    w_src = w_tgt = None
    if variant.name == DANNPE:
        if classifier is None:
            raise ValueError("dannpe needs the classifier for probability inputs")
        zs = T.exp(T.log_softmax(classifier.forward(fs, params)))
        zt = T.exp(T.log_softmax(classifier.forward(ft, params)))
        if weights_override is not None:
            w_src, w_tgt = Tensor(weights_override[0]), Tensor(weights_override[1])
        else:
            w_src = entropy_weights(zs)
            w_tgt = entropy_weights(zt)
    else:
        zs, zt = fs, ft
    d_src = discriminator.forward(nn.grl(zs, variant.grl_lambda), params)
    d_tgt = discriminator.forward(nn.grl(zt, variant.grl_lambda), params)
    clamped: list[bool] = []
    loss = domain_cls_loss(d_src, d_tgt, w_src, w_tgt, clamped)
    dom_cls = float(loss.values)
    return loss, AlignmentInfo(dom_cls=dom_cls, dom=-dom_cls, clamped=any(clamped))

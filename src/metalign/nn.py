"""Model components: feature extractor with layer groups, classifier head,
domain discriminator, gradient reversal, and seeded initialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Linear:
    """Fully connected layer; weight is in x out, bias is out."""

    def __init__(self, in_dim: int, out_dim: int, name: str) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.name = name
        self.weight = np.zeros((in_dim, out_dim), dtype=np.float64)
        self.bias = np.zeros(out_dim, dtype=np.float64)
        self.weight_id = f"{name}.W"
        self.bias_id = f"{name}.b"

    @property
    def param_ids(self) -> list[str]:
        return [self.weight_id, self.bias_id]

    def params(self) -> dict[str, np.ndarray]:
        return {self.weight_id: self.weight, self.bias_id: self.bias}

    def forward(self, x: Tensor, override: Optional[dict[str, Tensor]] = None) -> Tensor:
        if override is not None and self.weight_id in override:
            w, b = override[self.weight_id], override[self.bias_id]
        elif x.tape is not None:
            w = x.tape.param(self.weight, self.weight_id)
            b = x.tape.param(self.bias, self.bias_id)
        else:
            w, b = Tensor(self.weight), Tensor(self.bias)
        return T.add_bias(T.matmul(x, w), b)


_ACTIVATIONS = {"relu": T.relu, "tanh": T.tanh, "identity": lambda t: t}


class MLP:
    """Stack of Linear layers with an activation between consecutive layers."""

    def __init__(self, widths: Sequence[int], name: str, activation: str = "relu") -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.widths = list(widths)
        self.activation = activation
        self.layers = [Linear(widths[i], widths[i + 1], f"{name}.l{i}")
                       for i in range(len(widths) - 1)]

    @property
    def param_ids(self) -> list[str]:
        return [pid for layer in self.layers for pid in layer.param_ids]

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            out.update(layer.params())
        return out

    def forward(self, x: Tensor, override: Optional[dict[str, Tensor]] = None) -> Tensor:
        act = _ACTIVATIONS[self.activation]
        out = x
        for i, layer in enumerate(self.layers):
            if i > 0:
                out = act(out)
            out = layer.forward(out, override)
        return out


class FeatureExtractor(MLP):
    """Shared network G; its layers are partitioned into gradient groups."""

    def __init__(self, widths: Sequence[int], activation: str = "relu") -> None:
        super().__init__(widths, "G", activation)

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def forward(self, x: Tensor, override: Optional[dict[str, Tensor]] = None) -> Tensor:
        if x.values.ndim != 2 or x.shape[1] != self.widths[0]:
            raise T.DimensionError(
                f"extractor expects n x {self.widths[0]} input, got {x.shape}")
        return super().forward(x, override)


class ClassifierHead(MLP):
    """Head C mapping features to K logits."""

    def __init__(self, feature_dim: int, num_classes: int,
                 hidden: Sequence[int] = (), activation: str = "relu") -> None:
        super().__init__([feature_dim, *hidden, num_classes], "C", activation)
        self.num_classes = num_classes


class DomainDiscriminator:
    """Three fully connected layers with ReLU, sigmoid output in (0, 1)."""

    def __init__(self, in_dim: int, hidden: Sequence[int] = (64, 64)) -> None:
        if len(hidden) != 2:
            raise ValueError("discriminator uses exactly two hidden widths")
        self.net = MLP([in_dim, hidden[0], hidden[1], 1], "D", activation="relu")

    @property
    def param_ids(self) -> list[str]:
        return self.net.param_ids

    def params(self) -> dict[str, np.ndarray]:
        return self.net.params()

    def forward(self, z: Tensor, override: Optional[dict[str, Tensor]] = None) -> Tensor:
        if z.values.ndim != 2 or z.shape[1] != self.net.widths[0]:
            raise T.DimensionError(
                f"discriminator expects n x {self.net.widths[0]} input, got {z.shape}")
        return T.sigmoid(self.net.forward(z, override))


# parameter id of the group weights in gradient maps, parameter dicts and
# checkpoints; the one parameter weight decay skips
BETA_ID = "beta"


@dataclass
class GroupWeights:
    """Learnable per-group scalars with an overall budget."""

    beta: np.ndarray
    budget: float

    @classmethod
    def init(cls, num_groups: int, budget: Optional[float] = None) -> "GroupWeights":
        b = float(num_groups) if budget is None else float(budget)
        return cls(beta=np.full(num_groups, b / num_groups, dtype=np.float64), budget=b)


@dataclass
class ModelBundle:
    """Everything a training step touches."""

    extractor: FeatureExtractor
    classifier: ClassifierHead
    discriminator: Optional[DomainDiscriminator]
    group_weights: GroupWeights
    groups: list[list[str]] = field(default_factory=list)

    @property
    def theta_ids(self) -> list[str]:
        return self.extractor.param_ids

    def network_params(self) -> dict[str, np.ndarray]:
        out = dict(self.extractor.params())
        out.update(self.classifier.params())
        if self.discriminator is not None:
            out.update(self.discriminator.params())
        return out

    def all_params(self) -> dict[str, np.ndarray]:
        out = self.network_params()
        out[BETA_ID] = self.group_weights.beta
        return out


def grl(x: Tensor, lam: float) -> Tensor:
    """Gradient reversal: identity forward, upstream gradient times -lam."""
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise ValueError(f"grl lambda must be finite and >= 0, got {lam}")
    return T.scale_grad(x, -lam)


def group_params(extractor: FeatureExtractor, num_groups: int) -> list[list[str]]:
    """Contiguous balanced partition of G's layers; earlier groups take the remainder."""
    n = len(extractor.layers)
    if not (1 <= num_groups <= n):
        raise ValueError(f"num_groups must be in [1, {n}], got {num_groups}")
    base, rem = divmod(n, num_groups)
    groups: list[list[str]] = []
    start = 0
    for m in range(num_groups):
        size = base + (1 if m < rem else 0)
        layer_slice = extractor.layers[start:start + size]
        groups.append([pid for layer in layer_slice for pid in layer.param_ids])
        start += size
    return groups


def default_group_count(num_layers: int) -> int:
    # one group per layer for shallow extractors, capped at the usual four
    return max(1, min(4, num_layers))


def init_params(bundle: ModelBundle, seed: int) -> None:
    """Glorot-uniform weights, zero biases, beta at budget/M; deterministic per seed."""
    rng = np.random.default_rng(seed)
    nets = [bundle.extractor, bundle.classifier]
    if bundle.discriminator is not None:
        nets.append(bundle.discriminator.net)
    for net in nets:
        for layer in net.layers:
            bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            layer.weight[...] = rng.uniform(-bound, bound, size=layer.weight.shape)
            layer.bias[...] = 0.0
    gw = bundle.group_weights
    gw.beta[...] = gw.budget / gw.beta.size

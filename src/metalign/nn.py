"""Model components: feature extractor with layer groups, classifier head,
domain discriminator, gradient reversal, and seeded initialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import GradientMap, Tape, Tensor


class Params(dict):
    """Parameter id -> Tensor, what one forward pass reads. The given tensors
    (say theta') are read as they are; any other id is entered from arrays on
    its first read, as a leaf of tape or else as a constant, and then kept."""

    __slots__ = ("arrays", "tape")

    def __init__(self, arrays: dict[str, np.ndarray], tape: Optional[Tape] = None,
                 given: Optional[dict[str, Tensor]] = None) -> None:
        super().__init__(given or ())
        self.arrays, self.tape = arrays, tape

    def __missing__(self, pid: str) -> Tensor:
        arr = self.arrays[pid]
        t = self[pid] = Tensor(arr) if self.tape is None else self.tape.param(arr, pid)
        return t


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

    def forward(self, x: Tensor, params: Params) -> Tensor:
        w, b = params[self.weight_id], params[self.bias_id]
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
        return {pid: arr for layer in self.layers for pid, arr in layer.params().items()}

    def forward(self, x: Tensor, params: Params) -> Tensor:
        act = _ACTIVATIONS[self.activation]
        out = x
        for i, layer in enumerate(self.layers):
            if i > 0:
                out = act(out)
            out = layer.forward(out, params)
        return out


class FeatureExtractor(MLP):
    """Shared network G; its layers are partitioned into gradient groups."""

    def __init__(self, widths: Sequence[int], activation: str = "relu") -> None:
        super().__init__(widths, "G", activation)

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def forward(self, x: Tensor, params: Params) -> Tensor:
        if x.values.ndim != 2 or x.shape[1] != self.widths[0]:
            raise T.DimensionError(
                f"extractor expects n x {self.widths[0]} input, got {x.shape}")
        return super().forward(x, params)


class ClassifierHead(MLP):
    """Head C mapping features to K logits."""

    def __init__(self, feature_dim: int, num_classes: int,
                 hidden: Sequence[int] = (), activation: str = "relu") -> None:
        super().__init__([feature_dim, *hidden, num_classes], "C", activation)
        self.num_classes = num_classes


class DomainDiscriminator(MLP):
    """Three fully connected layers with ReLU, sigmoid output in (0, 1)."""

    def __init__(self, in_dim: int, hidden: Sequence[int] = (64, 64)) -> None:
        if len(hidden) != 2:
            raise ValueError("discriminator uses exactly two hidden widths")
        super().__init__([in_dim, hidden[0], hidden[1], 1], "D", activation="relu")

    def forward(self, z: Tensor, params: Params) -> Tensor:
        if z.values.ndim != 2 or z.shape[1] != self.widths[0]:
            raise T.DimensionError(
                f"discriminator expects n x {self.widths[0]} input, got {z.shape}")
        return T.sigmoid(super().forward(z, params))


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
    """Everything a training step touches. Every parameter lives in one float64
    array, flat: each net's layers, W then b, then beta last. Each
    Linear.weight, Linear.bias and GroupWeights.beta is rebound to its view of
    flat, and slices maps each id to its part of flat."""

    extractor: FeatureExtractor
    classifier: ClassifierHead
    discriminator: Optional[DomainDiscriminator]
    group_weights: GroupWeights
    groups: list[list[str]] = field(default_factory=list)
    flat: np.ndarray = field(init=False, repr=False)
    slices: dict[str, slice] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        owners = [(layer, attr, pid) for net in self.nets for layer in net.layers
                  for attr, pid in (("weight", layer.weight_id), ("bias", layer.bias_id))]
        owners.append((self.group_weights, "beta", BETA_ID))
        arrays = [getattr(owner, attr) for owner, attr, _ in owners]
        self.flat = np.concatenate(arrays, axis=None, dtype=np.float64)
        self.slices, self._views, start = {}, {}, 0
        for (owner, attr, pid), arr in zip(owners, arrays):
            self.slices[pid] = slice(start, start + arr.size)
            self._views[pid] = self.flat[self.slices[pid]].reshape(arr.shape)
            setattr(owner, attr, self._views[pid])
            start += arr.size

    @property
    def nets(self) -> list[MLP]:
        return [net for net in (self.extractor, self.classifier, self.discriminator)
                if net is not None]

    @property
    def theta_ids(self) -> list[str]:
        return self.extractor.param_ids

    def network_params(self) -> dict[str, np.ndarray]:
        return {pid: arr for pid, arr in self._views.items() if pid != BETA_ID}

    def all_params(self) -> dict[str, np.ndarray]:
        return dict(self._views)

    def flat_grad(self, grads: GradientMap) -> np.ndarray:
        """grads laid out like flat, in a new array; an id grads leaves out gets 0."""
        return np.concatenate([grads[pid] if pid in grads else np.zeros(s.stop - s.start)
                               for pid, s in self.slices.items()], axis=None)


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
    for net in bundle.nets:
        for layer in net.layers:
            bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            layer.weight[...] = rng.uniform(-bound, bound, size=layer.weight.shape)
            layer.bias[...] = 0.0
    gw = bundle.group_weights
    gw.beta[...] = gw.budget / gw.beta.size

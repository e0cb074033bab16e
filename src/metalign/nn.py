"""Model components: feature extractor with layer groups, classifier head,
domain discriminator, gradient reversal, and seeded initialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor

FLAT_ID = "flat"  # tape id of the one leaf that holds every parameter of a pass


def flatten(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, slice]]:
    """arrays laid out in order in one new float64 array, and each id's slice of it."""
    ends = np.cumsum([0, *(arr.size for arr in arrays.values())]).tolist()
    return (np.concatenate([np.empty(0), *arrays.values()], axis=None),
            {pid: slice(a, b) for pid, a, b in zip(arrays, ends, ends[1:])})


class Params:
    """What one forward pass reads: every parameter in one 1-d tensor p (the
    tape's leaf FLAT_ID, or a constant) and slices, each id's part of p. The
    extractor reads theta, if set (theta'), in place of p's leading part."""

    __slots__ = ("p", "slices", "theta")

    def __init__(self, p: Tensor, slices: dict[str, slice],
                 theta: Optional[Tensor] = None) -> None:
        self.p, self.slices, self.theta = p, slices, theta


class Linear:
    """A fully connected layer's parameters, weight in x out and bias out."""

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


# the activations an MLP takes, by name (the config's enum reads the keys);
# MLP.forward hands the names to tensor.mlp, which applies them in its node
_ACTIVATIONS = {"relu": T.relu, "tanh": T.tanh, "identity": lambda t: t}


class MLP:
    """Stack of Linear layers with an activation between consecutive layers
    and output applied to the last layer's result."""

    def __init__(self, widths: Sequence[int], name: str, activation: str = "relu",
                 output: str = "identity") -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.widths = list(widths)
        self.layers = [Linear(widths[i], widths[i + 1], f"{name}.l{i}")
                       for i in range(len(widths) - 1)]
        self.acts = (activation,) * (len(self.layers) - 1) + (output,)  # for 1+ layers

    @property
    def param_ids(self) -> list[str]:
        return [pid for layer in self.layers for pid in layer.param_ids]

    def params(self) -> dict[str, np.ndarray]:
        return {pid: arr for layer in self.layers for pid, arr in layer.params().items()}

    def forward(self, x: Tensor, params: Params, flat: Optional[Tensor] = None) -> Tensor:
        """One tensor.mlp node, or x for no layers; each layer reads W and b
        at their slices of flat, params.p unless given."""
        if not self.layers:
            return x
        slices = params.slices
        return T.mlp(x, flat or params.p, [(slices[layer.weight_id], slices[layer.bias_id])
                                           for layer in self.layers], self.acts)


class FeatureExtractor(MLP):
    """Shared network G; its layers are partitioned into gradient groups."""

    def __init__(self, widths: Sequence[int], activation: str = "relu") -> None:
        super().__init__(widths, "G", activation)

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def forward(self, x: Tensor, params: Params) -> Tensor:
        if x.values.ndim not in (2, 3) or x.shape[-1] != self.widths[0]:
            raise T.DimensionError(
                f"extractor expects [2 x] n x {self.widths[0]} input, got {x.shape}")
        return super().forward(x, params, params.theta)


class ClassifierHead(MLP):
    """Head C mapping features to K logits."""

    def __init__(self, feature_dim: int, num_classes: int,
                 hidden: Sequence[int] = (), activation: str = "relu") -> None:
        super().__init__([feature_dim, *hidden, num_classes], "C", activation)
        self.num_classes = num_classes


class DomainDiscriminator(MLP):
    """Three fully connected layers with ReLU, sigmoid output in (0, 1)."""

    def __init__(self, in_dim: int, hidden: Sequence[int]) -> None:
        if len(hidden) != 2:
            raise ValueError("discriminator uses exactly two hidden widths")
        super().__init__([in_dim, hidden[0], hidden[1], 1], "D", "relu", output="sigmoid")

    def forward(self, z: Tensor, params: Params) -> Tensor:
        if z.values.ndim not in (2, 3) or z.shape[-1] != self.widths[0]:
            raise T.DimensionError(
                f"discriminator expects [2 x] n x {self.widths[0]} input, got {z.shape}")
        return super().forward(z, params)


BETA_ID = "beta"  # id of the group weights, the one parameter weight decay skips


@dataclass
class ModelBundle:
    """Everything a training step touches. Every parameter lives in one float64
    array, flat: each net's layers, W then b, then beta last, one learnable
    weight per group, budget/M each at the start; each Linear.weight,
    Linear.bias and beta is rebound to its view. velocity is the SGD
    momentum, zeros laid out like flat at the start. slices maps each id to
    its part of flat, spans each net; groups list the extractor's ids in
    order, tiling its leading part, as group_slices."""

    extractor: FeatureExtractor
    classifier: ClassifierHead
    discriminator: Optional[DomainDiscriminator]
    groups: list[list[str]]
    budget: float
    beta: np.ndarray = field(init=False)
    flat: np.ndarray = field(init=False, repr=False)
    velocity: np.ndarray = field(init=False, repr=False)
    slices: dict[str, slice] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if [pid for group in self.groups for pid in group] != self.extractor.param_ids:
            raise ValueError("groups must partition the extractor's parameters in order")
        owners = {pid: (layer, attr) for net in self.nets for layer in net.layers
                  for attr, pid in (("weight", layer.weight_id), ("bias", layer.bias_id))}
        owners[BETA_ID] = (self, "beta")
        self.beta = np.full(len(self.groups), self.budget / len(self.groups))
        arrays = {pid: getattr(*owner) for pid, owner in owners.items()}
        self.flat, self.slices = flatten(arrays)
        self.velocity = np.zeros_like(self.flat)
        self._views = {pid: self.flat[s].reshape(arrays[pid].shape)
                       for pid, s in self.slices.items()}
        for pid, view in self._views.items():
            setattr(*owners[pid], view)
        self.group_slices = [[self.slices[pid] for pid in group] for group in self.groups]
        self.spans = {net: slice(self.slices[net.param_ids[0]].start,
                                 self.slices[net.param_ids[-1]].stop) for net in self.nets}

    @property
    def nets(self) -> list[MLP]:
        return [net for net in (self.extractor, self.classifier, self.discriminator)
                if net is not None]

    def params(self, tape: Optional[Tape] = None) -> Params:
        """A pass over flat itself: a leaf of tape, or a constant of the live values."""
        return Params(Tensor(self.flat) if tape is None else tape.param(self.flat, FLAT_ID),
                      self.slices)

    def all_params(self, arr: Optional[np.ndarray] = None) -> dict[str, np.ndarray]:
        """The parameters by id: flat's views, or views of arr laid out like flat."""
        if arr is None:
            return dict(self._views)
        return {pid: arr[s].reshape(v.shape) for (pid, s), v in
                zip(self.slices.items(), self._views.values())}


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
    """Glorot-uniform weights and zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    for net in bundle.nets:
        for layer in net.layers:
            bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            layer.weight[...] = rng.uniform(-bound, bound, size=layer.weight.shape)
            layer.bias[...] = 0.0

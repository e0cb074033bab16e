"""Model components: feature extractor with layer groups, classifier head,
domain discriminator, gradient reversal, and seeded initialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor

FLAT_ID = "flat"  # tape id of the one leaf that holds every parameter of a pass


def layout(shapes: dict[str, tuple[int, ...]]) -> dict[str, slice]:
    """Each id's slice of one 1-d array that holds arrays of these shapes in order."""
    ends = np.cumsum([0, *(int(np.prod(shape)) for shape in shapes.values())]).tolist()
    return {pid: slice(a, b) for pid, a, b in zip(shapes, ends, ends[1:])}


def flatten(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, slice]]:
    """arrays laid out in order in one new float64 array, and each id's slice of it."""
    return (np.concatenate([np.empty(0), *arrays.values()], axis=None),
            layout({pid: arr.shape for pid, arr in arrays.items()}))


class Params:
    """What one forward pass reads: every parameter in one 1-d tensor p (the
    tape's leaf FLAT_ID, or a constant) and slices, each id's part of p. The
    extractor reads theta, if set (theta'), in place of p's leading part."""

    __slots__ = ("p", "slices", "theta")

    def __init__(self, p: Tensor, slices: dict[str, slice],
                 theta: Optional[Tensor] = None) -> None:
        self.p, self.slices, self.theta = p, slices, theta


# the activations an MLP takes, by name (the config's enum reads the keys);
# MLP.forward hands the names to tensor.mlp, which applies them in its node
_ACTIVATIONS = {"relu": T.relu, "tanh": T.tanh, "identity": lambda t: t}


class MLP:
    """Fully connected layers with an activation between consecutive layers
    and output applied to the last layer's result. A net holds no arrays:
    ids names each layer's (W, b), W in x out and b out, whose values live
    at those ids' slices of a Params' p."""

    def __init__(self, widths: Sequence[int], name: str, activation: str = "relu",
                 output: str = "identity") -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.widths = list(widths)
        self.ids = [(f"{name}.l{i}.W", f"{name}.l{i}.b") for i in range(len(widths) - 1)]
        self.acts = (activation,) * (len(self.ids) - 1) + (output,)  # for 1+ layers

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape by id, layer by layer, W then b."""
        return {pid: shape for (w, b), n_in, n_out in zip(self.ids, self.widths, self.widths[1:])
                for pid, shape in ((w, (n_in, n_out)), (b, (n_out,)))}

    def forward(self, x: Tensor, params: Params, flat: Optional[Tensor] = None) -> Tensor:
        """One tensor.mlp node, or x for no layers; each layer reads W and b
        at their slices of flat, params.p unless given."""
        if not self.ids:
            return x
        slices = params.slices
        return T.mlp(x, flat or params.p, [(slices[w], slices[b]) for w, b in self.ids],
                     self.acts)


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
    array, flat, zeros when built: each net's layers, W then b, then beta
    last, one learnable weight per group, budget/M each at the start and
    bundle.beta its view. all_params hands out the views of the others.
    velocity is the SGD momentum, zeros laid out like flat at the start.
    slices maps each id to its part of flat, spans each net; groups list the
    extractor's ids in order, tiling its leading part, as group_slices."""

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
        if [pid for group in self.groups for pid in group] != list(self.extractor.shapes):
            raise ValueError("groups must partition the extractor's parameters in order")
        shapes = {pid: shape for net in self.nets for pid, shape in net.shapes.items()}
        shapes[BETA_ID] = (len(self.groups),)
        self.slices = layout(shapes)
        self.flat = np.zeros(self.slices[BETA_ID].stop)
        self.velocity = np.zeros_like(self.flat)
        self._views = {pid: self.flat[s].reshape(shapes[pid]) for pid, s in self.slices.items()}
        self.beta = self._views[BETA_ID]
        self.beta[...] = self.budget / len(self.groups)
        self.group_slices = [[self.slices[pid] for pid in group] for group in self.groups]
        self.spans = {net: slice(self.slices[net.ids[0][0]].start,
                                 self.slices[net.ids[-1][1]].stop) for net in self.nets}

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
    n = len(extractor.ids)
    if not (1 <= num_groups <= n):
        raise ValueError(f"num_groups must be in [1, {n}], got {num_groups}")
    base, rem = divmod(n, num_groups)
    ends = [m * base + min(m, rem) for m in range(num_groups + 1)]
    return [[pid for pair in extractor.ids[a:b] for pid in pair] for a, b in zip(ends, ends[1:])]


def default_group_count(num_layers: int) -> int:
    # one group per layer for shallow extractors, capped at the usual four
    return max(1, min(4, num_layers))


def init_params(bundle: ModelBundle, seed: int) -> None:
    """Glorot-uniform weights and zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    views = bundle.all_params()
    for net in bundle.nets:
        for (w, b), n_in, n_out in zip(net.ids, net.widths, net.widths[1:]):
            bound = np.sqrt(6.0 / (n_in + n_out))
            views[w][...] = rng.uniform(-bound, bound, size=views[w].shape)
            views[b][...] = 0.0

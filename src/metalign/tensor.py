"""Minimal tape-based reverse-mode autodiff over dense float64 arrays.

One Tape records one forward pass; tensors created by ops are appended in
topological order, so a single reversed sweep propagates gradients. A tape
supports exactly one backward pass and is consumed by it. Tensors without a
tape behave as constants: ops on them still compute values eagerly, which is
how evaluation-only forward passes work.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

GradientMap = dict[str, np.ndarray]


class DimensionError(ValueError):
    """Shape or domain mismatch between operands."""


class GraphError(RuntimeError):
    """Misuse of the tape: non-scalar loss, reuse after backward, mixed tapes."""


class Tape:
    """Append-only record of one forward pass."""

    def __init__(self) -> None:
        self.nodes: list[Tensor] = []
        self.consumed = False
        self._params: dict[str, Tensor] = {}

    def _record(self, values: np.ndarray, parents: tuple["Tensor", ...],
                vjp: Optional[Callable], param_id: Optional[str] = None) -> "Tensor":
        if self.consumed:
            raise GraphError("tape already consumed by backward; build a new graph")
        t = Tensor(values, tape=self, param_id=param_id)
        t._parents = parents
        t._vjp = vjp
        t._index = len(self.nodes)
        self.nodes.append(t)
        return t

    def param(self, values: np.ndarray, param_id: str) -> "Tensor":
        """Enter a parameter leaf; repeated entries of one id share a node."""
        if param_id in self._params:
            return self._params[param_id]
        t = self._record(np.asarray(values, dtype=np.float64), (), None, param_id=param_id)
        self._params[param_id] = t
        return t

    def const(self, values) -> "Tensor":
        return self._record(np.asarray(values, dtype=np.float64), (), None)


class Tensor:
    """Dense float64 array, optionally attached to a tape."""

    __slots__ = ("values", "tape", "param_id", "_parents", "_vjp", "_index")

    def __init__(self, values, tape: Optional[Tape] = None,
                 param_id: Optional[str] = None) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.tape = tape
        self.param_id = param_id
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Optional[Callable] = None
        self._index: Optional[int] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        tag = f", param={self.param_id}" if self.param_id else ""
        return f"Tensor(shape={self.values.shape}{tag})"


def _result_tape(tensors: Iterable[Tensor]) -> Optional[Tape]:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise GraphError("operands belong to two different graphs")
    return tape


def _make(values: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    tape = _result_tape(parents)
    if tape is None:
        return Tensor(values)
    return tape._record(values, parents, vjp)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} vs {b.shape}")
    return _make(a.values + b.values, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shapes {a.shape} vs {b.shape}")
    return _make(a.values - b.values, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} vs {b.shape}")
    return _make(a.values * b.values, (a, b),
                 lambda g: (g * b.values, g * a.values))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(x.values * c, (x,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise DimensionError("matmul expects 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # divergence -> inf/NaN
        out = a.values @ b.values
    return _make(out, (a, b),
                 lambda g: (g @ b.values.T, a.values.T @ g))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias addition, the only broadcast this engine supports."""
    if x.values.ndim != 2 or b.values.ndim != 1 or x.shape[1] != b.shape[0]:
        raise DimensionError(f"add_bias: shapes {x.shape} vs {b.shape}")
    return _make(x.values + b.values[None, :], (x, b),
                 lambda g: (g, g.sum(axis=0)))


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0.0
    return _make(np.where(mask, x.values, 0.0), (x,), lambda g: (g * mask,))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.values)
    return _make(t, (x,), lambda g: (g * (1.0 - t * t),))


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.values))
    # keep output strictly inside (0, 1) even where float64 saturates
    s = np.clip(s, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return _make(s, (x,), lambda g: (g * s * (1.0 - s),))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        e = np.exp(x.values)
    return _make(e, (x,), lambda g: (g * e,))


def log(x: Tensor) -> Tensor:
    if np.any(x.values <= 0.0):
        raise DimensionError("log: nonpositive input")
    return _make(np.log(x.values), (x,), lambda g: (g / x.values,))


def absolute(x: Tensor) -> Tensor:
    sign = np.sign(x.values)  # sign(0) == 0: subgradient at the kink
    return _make(np.abs(x.values), (x,), lambda g: (g * sign,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    mask = (x.values >= lo) & (x.values <= hi)
    return _make(np.clip(x.values, lo, hi), (x,), lambda g: (g * mask,))


def log_softmax(logits: Tensor) -> Tensor:
    if logits.values.ndim != 2 or logits.shape[1] < 2:
        raise DimensionError("log_softmax expects n x K logits with K >= 2")
    z = logits.values
    with np.errstate(invalid="ignore"):  # divergent inputs propagate NaN
        m = z.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
        out = z - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=1, keepdims=True),)

    return _make(out, (logits,), vjp)


def reduce_sum(x: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(x, axis)
    out = x.values.sum(axis=axis)

    def vjp(g):
        return (_spread(g, x.shape, axis),)

    return _make(np.asarray(out, dtype=np.float64), (x,), vjp)


def reduce_mean(x: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(x, axis)
    count = x.values.size if axis is None else x.shape[axis]
    out = x.values.mean(axis=axis)

    def vjp(g):
        return (_spread(g, x.shape, axis) / count,)

    return _make(np.asarray(out, dtype=np.float64), (x,), vjp)


def _check_axis(x: Tensor, axis: Optional[int]) -> None:
    if axis is not None and not (0 <= axis < x.values.ndim):
        raise DimensionError(f"axis {axis} invalid for shape {x.shape}")


def _spread(g: np.ndarray, shape: tuple[int, ...], axis: Optional[int]) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    return np.broadcast_to(np.expand_dims(g, axis), shape).copy()


def pick(x: Tensor, index: np.ndarray) -> Tensor:
    """Per-row gather: result[i] = x[i, index[i]]."""
    idx = np.asarray(index)
    if x.values.ndim != 2 or idx.shape != (x.shape[0],):
        raise DimensionError(f"pick: shapes {x.shape} vs {idx.shape}")
    rows = np.arange(x.shape[0])

    def vjp(g):
        out = np.zeros_like(x.values)
        np.add.at(out, (rows, idx), g)
        return (out,)

    return _make(x.values[rows, idx], (x,), vjp)


def select1(x: Tensor, i: int) -> Tensor:
    """Scalar view of x[i] for a 1-d tensor; backward scatters into slot i."""
    if x.values.ndim != 1 or not (0 <= i < x.shape[0]):
        raise DimensionError(f"select1: index {i} into shape {x.shape}")

    def vjp(g):
        out = np.zeros_like(x.values)
        out[i] = g
        return (out,)

    return _make(np.asarray(x.values[i]), (x,), vjp)


def scale_by(x: Tensor, s: Tensor) -> Tensor:
    """Multiply x by a scalar tensor s; s receives <g, x> in backward."""
    if s.values.ndim != 0:
        raise DimensionError("scale_by expects a scalar second operand")

    def vjp(g):
        return (g * s.values, np.dot(g.ravel(), x.values.ravel()))

    return _make(x.values * s.values, (x, s), vjp)


def scale_grad(x: Tensor, factor: float) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by factor."""
    factor = float(factor)
    return _make(x.values, (x,), lambda g: (g * factor,))


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs squared euclidean distances between rows of a and b.

    Gram form ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j, clamped at 0: cancellation
    can leave a rounding-level negative where the true distance is about 0.
    """
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"pairwise_sqdist: shapes {a.shape} vs {b.shape}")
    av, bv = a.values, b.values
    with np.errstate(over="ignore", invalid="ignore"):  # divergence -> inf/NaN
        out = (av * av).sum(axis=1)[:, None] + (bv * bv).sum(axis=1)[None, :]
        out -= 2.0 * (av @ bv.T)
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        ga = 2.0 * (g.sum(axis=1)[:, None] * a.values - g @ b.values)
        gb = 2.0 * (g.sum(axis=0)[:, None] * b.values - g.T @ a.values)
        return (ga, gb)

    return _make(out, (a, b), vjp)


def detach(x: Tensor) -> Tensor:
    """Same values, no graph handle; gradients never flow through the result."""
    return Tensor(x.values.copy())


# ---------------------------------------------------------------------------
# backward and the finite-difference oracle


def backward(loss: Tensor, wanted: Iterable[str]) -> GradientMap:
    """Reverse accumulation from a scalar loss; consumes the tape.

    Returns gradients for the wanted parameter ids that participate in the
    graph; wanted ids whose parameter leaf was never touched by the loss get
    an explicit zero gradient.
    """
    tape = loss.tape
    if tape is None:
        raise GraphError("loss is not attached to a graph")
    if tape.consumed:
        raise GraphError("stale graph: backward already ran on this tape")
    if loss.values.shape != ():
        raise GraphError(f"loss must be scalar, got shape {loss.values.shape}")

    grads: list[Optional[np.ndarray]] = [None] * len(tape.nodes)
    grads[loss._index] = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        g = grads[node._index]
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if parent.tape is not tape:
                continue  # constant or detached operand: gradient stops here
            if grads[parent._index] is None:
                grads[parent._index] = np.array(pg, dtype=np.float64)
            else:
                grads[parent._index] = grads[parent._index] + pg
    tape.consumed = True

    out: GradientMap = {}
    for pid in wanted:
        leaf = tape._params.get(pid)
        if leaf is None:
            continue
        g = grads[leaf._index]
        out[pid] = np.zeros_like(leaf.values) if g is None else np.asarray(g)
    return out


def finite_diff_grad(f: Callable[[dict[str, np.ndarray]], float],
                     params: dict[str, np.ndarray],
                     h: float = 1e-5) -> GradientMap:
    """Central finite differences of a scalar function, one coordinate at a time.

    Independent of the tape machinery on purpose: this is the oracle the
    analytic gradients are verified against. Perturbs the given arrays in
    place (and restores them exactly), so f may read either the passed dict or
    the arrays through another alias such as live model parameters.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    for pid, arr in params.items():
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise TypeError(f"param {pid!r} must be a float64 ndarray")
    out: GradientMap = {}
    for pid, arr in params.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f(params)
            flat[i] = orig - h
            lo = f(params)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        out[pid] = grad
    return out

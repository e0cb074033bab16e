"""Minimal tape-based reverse-mode autodiff over dense float64 arrays.

One Tape records one forward pass; tensors created by ops are appended in
topological order, so a single reversed sweep propagates gradients. A tape
supports exactly one backward pass and is consumed by it: backward takes the
nodes off the tape and releases them as it sweeps.

The nodes of a tape are its parameter leaves and the results of ops on them;
only they take gradients. Every other tensor is a constant: it has no tape,
and an op whose operands are all constants computes a constant eagerly, which
is how evaluation-only forward passes work. A vjp returns None for a constant
operand instead of computing its gradient, and backward keeps no slot for it.
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
        if values.__class__ is not np.ndarray:
            values = np.asarray(values)  # 0-d results of ufuncs and sums are numpy scalars
        t = object.__new__(Tensor)
        t.values = values
        t.tape = self
        t.param_id = param_id
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


class Tensor:
    """Dense float64 array: a node of a tape (made by Tape), else a constant."""

    __slots__ = ("values", "tape", "param_id", "_parents", "_vjp", "_index")

    def __init__(self, values) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.tape: Optional[Tape] = None
        self.param_id: Optional[str] = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Optional[Callable] = None
        self._index: Optional[int] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        tag = f", param={self.param_id}" if self.param_id else ""
        return f"Tensor(shape={self.values.shape}{tag})"


def _make(values: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """The result of an op: a node of the operands' tape when an operand is a
    node, else a constant. Every operand is checked against that tape."""
    tape = None
    for parent in parents:
        other = parent.tape
        if other is not None and other is not tape:
            if tape is not None:
                raise GraphError("operands belong to two different graphs")
            tape = other
    if tape is None:
        return Tensor(values)
    return tape._record(values, parents, vjp)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} vs {b.shape}")
    return _make(a.values + b.values, (a, b),
                 lambda g: (None if a._index is None else g,
                            None if b._index is None else g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shapes {a.shape} vs {b.shape}")
    return _make(a.values - b.values, (a, b),
                 lambda g: (None if a._index is None else g,
                            None if b._index is None else -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} vs {b.shape}")
    return _make(a.values * b.values, (a, b),
                 lambda g: (None if a._index is None else g * b.values,
                            None if b._index is None else g * a.values))


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
                 lambda g: (None if a._index is None else g @ b.values.T,
                            None if b._index is None else a.values.T @ g))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias addition, the only broadcast this engine supports."""
    if x.values.ndim != 2 or b.values.ndim != 1 or x.shape[1] != b.shape[0]:
        raise DimensionError(f"add_bias: shapes {x.shape} vs {b.shape}")
    return _make(x.values + b.values, (x, b),
                 lambda g: (None if x._index is None else g,
                            None if b._index is None else g.sum(axis=0)))


def dense(x: Tensor, w: Tensor, b: Tensor, act: str = "identity") -> Tensor:
    """act(x @ w + b) as one node, act "relu", "tanh" or "identity", with the
    bits of matmul, add_bias and the activation op in value and gradients.
    The forward adds b and applies act in place; the vjp applies the relu
    mask or the tanh derivative once, then forms the three gradients."""
    xv, wv, bv = x.values, w.values, b.values
    if (xv.ndim != 2 or wv.ndim != 2 or bv.ndim != 1
            or xv.shape[1] != wv.shape[0] or wv.shape[1] != bv.shape[0]):
        raise DimensionError(f"dense: shapes {xv.shape}, {wv.shape}, {bv.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # divergence -> inf/NaN
        out = xv @ wv
    out += bv
    if act == "relu":
        mask = out > 0.0
        np.maximum(out, 0.0, out=out)  # a NaN stays NaN
    elif act == "tanh":
        np.tanh(out, out=out)
    elif act != "identity":
        raise ValueError(f"unknown activation {act!r}")

    def vjp(g):
        if act == "relu":
            g = g * mask
        elif act == "tanh":
            g = g * (1.0 - out * out)
        return (None if x._index is None else g @ wv.T,
                None if w._index is None else xv.T @ g,
                None if b._index is None else g.sum(axis=0))

    return _make(out, (x, w, b), vjp)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), so a NaN input stays NaN; the gradient passes where x > 0."""
    mask = x.values > 0.0
    return _make(np.maximum(x.values, 0.0), (x,), lambda g: (g * mask,))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.values)
    return _make(t, (x,), lambda g: (g * (1.0 - t * t),))


# sigmoid outputs stay strictly inside (0, 1) even where float64 saturates
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.values))
    s = np.minimum(np.maximum(s, _SIGMOID_LO), _SIGMOID_HI)
    return _make(s, (x,), lambda g: (g * s * (1.0 - s),))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        e = np.exp(x.values)
    return _make(e, (x,), lambda g: (g * e,))


def log(x: Tensor) -> Tensor:
    if (x.values <= 0.0).any():
        raise DimensionError("log: nonpositive input")
    return _make(np.log(x.values), (x,), lambda g: (g / x.values,))


def absolute(x: Tensor) -> Tensor:
    sign = np.sign(x.values)  # sign(0) == 0: subgradient at the kink
    return _make(np.abs(x.values), (x,), lambda g: (g * sign,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    mask = (x.values >= lo) & (x.values <= hi)
    return _make(np.clip(x.values, lo, hi), (x,), lambda g: (g * mask,))


def _log_softmax(z: np.ndarray, op: str) -> np.ndarray:
    if z.ndim != 2 or z.shape[1] < 2:
        raise DimensionError(f"{op} expects n x K logits with K >= 2")
    with np.errstate(invalid="ignore"):  # divergent inputs propagate NaN
        m = z.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
        return z - lse


def log_softmax(logits: Tensor) -> Tensor:
    out = _log_softmax(logits.values, "log_softmax")

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=1, keepdims=True),)

    return _make(out, (logits,), vjp)


def nll_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the labelled classes under the row-wise
    softmax of n x K logits, in one node: the bits of
    scale(reduce_mean(pick(log_softmax(logits), labels)), -1) in value and
    gradient."""
    out = _log_softmax(logits.values, "nll_mean")
    idx = np.asarray(labels)
    count = out.shape[0]
    if idx.shape != (count,):
        raise DimensionError(f"nll_mean: labels {idx.shape} for {count} rows")
    rows = np.arange(count)

    def vjp(g):
        # the chain's pick scattered gl into zeros, so each row summed to gl;
        # a -0 there, which the scatter turned +0, gives the same bits below
        gl = g * -1.0 / count
        gp = np.zeros_like(out)
        gp[rows, idx] = gl
        return (gp - np.exp(out) * gl,)

    return _make(out[rows, idx].sum() / count * -1.0, (logits,), vjp)


def bce_mean(d: Tensor, lo: float, hi: float, complement: bool,
             weights: Optional[np.ndarray] = None) -> Tensor:
    """-mean(weights * log(c)) with c = clip(d, lo, hi), or 1 - that clip when
    complement, over every element of d, 0 < lo <= hi < 1; weights is a
    constant of d's shape, or None for all ones. One node with the bits of
    the chain clip, sub from ones, log, mul, reduce_mean, scale(-1) in value
    and gradient; the clip passes gradient where lo <= d <= hi."""
    if not 0.0 < lo <= hi < 1.0:
        raise DimensionError(f"bce_mean: clip bounds [{lo}, {hi}] not inside (0, 1)")
    dv = d.values
    if weights is not None and weights.shape != dv.shape:
        raise DimensionError(f"bce_mean: weights {weights.shape} vs {dv.shape}")
    mask = (dv >= lo) & (dv <= hi)
    inner = np.clip(dv, lo, hi)
    if complement:
        inner = 1.0 - inner
    ll = np.log(inner)
    if weights is not None:
        ll *= weights
    count = ll.size

    def vjp(g):
        gd = g * -1.0 / count
        if weights is not None:
            gd = gd * weights
        gd = gd / inner
        if complement:
            np.negative(gd, out=gd)
        gd *= mask
        return (gd,)

    return _make(ll.sum() / count * -1.0, (d,), vjp)


def reduce_sum(x: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(x, axis)
    shape = x.shape
    return _make(x.values.sum(axis=axis), (x,),
                 lambda g: (_spread(g, shape, axis),))


def reduce_mean(x: Tensor, axis: Optional[int] = None) -> Tensor:
    _check_axis(x, axis)
    shape = x.shape
    count = x.values.size if axis is None else shape[axis]
    # sum / count has the bits of x.values.mean(axis); dividing g once before
    # spreading it gives each element the bits of dividing after spreading
    return _make(x.values.sum(axis=axis) / count, (x,),
                 lambda g: (_spread(g / count, shape, axis),))


def rbf_mean(d: Tensor, inv: float) -> Tensor:
    """mean(exp(inv * d)) over every element: the mean of an RBF kernel
    matrix in one node, with the bits of reduce_mean(exp(scale(d, inv))).

    The forward scales and exponentiates one array in place; the vjp forms
    e * (g / count) * inv, the old chain's (g / count) * e * inv with the
    factors commuted, so value and gradient keep their bits.
    """
    inv = float(inv)
    with np.errstate(over="ignore"):
        e = d.values * inv
        np.exp(e, out=e)
    count = e.size

    def vjp(g):
        out = e * (g / count)
        out *= inv
        return (out,)

    return _make(e.sum() / count, (d,), vjp)


def _check_axis(x: Tensor, axis: Optional[int]) -> None:
    if axis is not None and not (0 <= axis < x.values.ndim):
        raise DimensionError(f"axis {axis} invalid for shape {x.shape}")


def _spread(g: np.ndarray, shape: tuple[int, ...], axis: Optional[int]) -> np.ndarray:
    """A new array of the given shape holding g repeated along the reduced axis."""
    out = np.empty(shape)
    out[...] = g if axis is None else np.expand_dims(g, axis)
    return out


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
        return (None if x._index is None else g * s.values,
                None if s._index is None else np.dot(g.ravel(), x.values.ravel()))

    return _make(x.values * s.values, (x, s), vjp)


def scale_grad(x: Tensor, factor: float) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by factor."""
    factor = float(factor)
    return _make(x.values, (x,), lambda g: (g * factor,))


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs squared euclidean distances between rows of a and b.

    Gram form ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j, clamped at 0: cancellation
    can leave a rounding-level negative where the true distance is about 0.

    The cross term is (2a) @ b.T. Doubling is exact, so for distinct operands
    it has the bits of 2 * (a @ b.T). For a self-Gram (b is a) it also keeps
    numpy off its syrk path for a @ a.T, which is about twice as slow as gemm
    at the MMD shapes; syrk and gemm agree bit for bit at the shipped batch
    shapes (n = 64 to 1000, d <= 64) but differ at the rounding level at
    some others (n = 2, 32, 100).
    """
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"pairwise_sqdist: shapes {a.shape} vs {b.shape}")
    av, bv = a.values, b.values
    with np.errstate(over="ignore", invalid="ignore"):  # divergence -> inf/NaN
        na = (av * av).sum(axis=1)
        nb = na if bv is av else (bv * bv).sum(axis=1)
        out = na[:, None] + nb[None, :]
        # never av @ av.T for the self-Gram: numpy sends that to syrk, which
        # is slower and at some shapes rounds differently
        out -= (2.0 * av) @ bv.T
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        ga = gb = None
        if a._index is not None:
            ga = 2.0 * (g.sum(axis=1)[:, None] * a.values - g @ b.values)
        if b._index is not None:
            gb = 2.0 * (g.sum(axis=0)[:, None] * b.values - g.T @ a.values)
        return (ga, gb)

    return _make(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# backward and the finite-difference oracle


def backward(loss: Tensor, wanted: Iterable[str]) -> GradientMap:
    """Reverse accumulation from a scalar loss; consumes the tape.

    The sweep takes the nodes off the tape and pops them from the end. Once a
    node's vjp has run, its gradient slot, parents and vjp are dropped, so a
    consumed node keeps only its values and the graph is freed by reference
    counting as the sweep goes, not left in a Tape <-> Tensor cycle.
    Contributions are summed as existing + arriving into a new array, never in
    place, because a vjp may hand one array to several parents. An operand
    that takes no gradient gets None from the vjp and is skipped.

    Returns fresh gradient arrays for the wanted parameter ids that
    participate in the graph; wanted ids whose parameter leaf was never
    touched by the loss get an explicit zero gradient.
    """
    tape = loss.tape
    if tape is None:
        raise GraphError("loss is a constant: it reads no parameter")
    if tape.consumed:
        raise GraphError("stale graph: backward already ran on this tape")
    if loss.values.shape != ():
        raise GraphError(f"loss must be scalar, got shape {loss.values.shape}")
    nodes, tape.nodes = tape.nodes, []
    params, tape._params = tape._params, {}
    tape.consumed = True

    grads: list[Optional[np.ndarray]] = [None] * len(nodes)
    grads[loss._index] = np.ones((), dtype=np.float64)
    leaf_grads: GradientMap = {}
    pop_node, pop_grad = nodes.pop, grads.pop
    while nodes:
        node = pop_node()
        g = pop_grad()
        vjp = node._vjp
        if vjp is None:  # a parameter leaf: nothing to release
            if g is not None:
                leaf_grads[node.param_id] = g
            continue
        if g is not None:
            for parent, pg in zip(node._parents, vjp(g)):
                if pg is not None:
                    i = parent._index
                    prev = grads[i]
                    grads[i] = pg if prev is None else prev + pg
        node._parents = ()
        node._vjp = None

    out: GradientMap = {}
    for pid in wanted:
        leaf = params.get(pid)
        if leaf is None:
            continue
        g = leaf_grads.get(pid)
        out[pid] = np.zeros_like(leaf.values) if g is None else np.array(g, dtype=np.float64)
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

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


def mlp(x: Tensor, p: Tensor, layers: list, acts) -> Tensor:
    """A whole MLP pass as one node: layer i computes h @ W + b, W and b the
    views of the 1-d p at the slices layers[i] = (w, b), W row-major, then
    applies acts[i] in place: "relu", "tanh", "identity", or "sigmoid" with
    sigmoid's bits and clamp. Value and gradients have the bits of the chain
    matmul, add_bias, activation per layer. The vjp walks the layers in
    reverse and hands p slice-tagged pairs; a constant x gets no gradient.

    x is n x k, or a 2 x n x k stack of two batches (source, target): each
    product then runs one gemm per batch, and the two batches' W and b
    partials are added in one step, which is commutative, so the bits are
    those of one node per batch."""
    xv, pv = x.values, p.values
    if (pv.ndim != 1 or xv.ndim < 2 or xv.shape[:-2] not in ((), (2,))
            or not 0 < len(layers) == len(acts)):
        raise DimensionError(f"mlp: x {xv.shape}, p {pv.shape}, {len(layers)} layers")
    hs, ws = [xv], []  # each layer's input, then the last output; each W
    with np.errstate(over="ignore", invalid="ignore"):  # divergence -> inf/NaN
        for (w, b), act in zip(layers, acts):
            h, wv, bv = hs[-1], pv[w], pv[b]
            if wv.size != h.shape[-1] * bv.size:
                raise DimensionError(f"mlp: input {h.shape}, W at {w} and b at {b}")
            ws.append(wv.reshape(h.shape[-1], bv.size))
            out = h @ ws[-1]
            out += bv
            if act == "relu":
                np.maximum(out, 0.0, out=out)  # a NaN stays NaN
            elif act == "tanh":
                np.tanh(out, out=out)
            elif act == "sigmoid":  # 1 / (1 + exp(-out)), clamped
                np.exp(np.negative(out, out=out), out=out)
                np.divide(1.0, np.add(out, 1.0, out=out), out=out)
                np.minimum(np.maximum(out, _SIGMOID_LO, out=out), _SIGMOID_HI, out=out)
            elif act != "identity":
                raise ValueError(f"unknown activation {act!r}")
            hs.append(out)

    def vjp(g):
        parts, top = [], len(ws) - 1
        for i in range(top, -1, -1):
            out, act = hs[i + 1], acts[i]
            if act == "relu":  # out > 0 where the input was; below the top, g is our own
                g = g * (out > 0.0) if i == top else np.multiply(g, out > 0.0, out=g)
            elif act == "tanh":
                g = g * (1.0 - out * out)
            elif act == "sigmoid":
                g = g * out * (1.0 - out)
            if p._index is not None:
                if g.ndim == 2:
                    gw, gb = hs[i].T @ g, g.sum(axis=0)
                else:  # one gemm per batch, then the two partials' sum
                    gw, gb = hs[i].swapaxes(1, 2) @ g, g.sum(axis=1)
                    gw, gb = gw[0] + gw[1], gb[0] + gb[1]
                parts += ((layers[i][0], gw), (layers[i][1], gb))
            if i or x._index is not None:
                g = g @ ws[i].T
        return (None if x._index is None else g, None if p._index is None else tuple(parts))

    return _make(out, (x, p), vjp)


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
    """log_softmax over the last axis of n x K or 2 x n x K logits."""
    if z.ndim not in (2, 3) or z.shape[-1] < 2:
        raise DimensionError(f"{op} expects n x K or 2 x n x K logits with K >= 2")
    with np.errstate(invalid="ignore"):  # divergent inputs propagate NaN
        # numpy reduces a short inner axis row by row: take the max over the
        # rows of a contiguous (K, rows) copy instead
        m = np.maximum.reduce(z.reshape(-1, z.shape[-1]).T.copy()).reshape(*z.shape[:-1], 1)
        lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
        return z - lse


def log_softmax(logits: Tensor) -> Tensor:
    out = _log_softmax(logits.values, "log_softmax")

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _make(out, (logits,), vjp)


def softmax(logits: Tensor) -> Tensor:
    """Softmax over the last axis in one node, with the bits of
    exp(log_softmax(logits)) in value and gradient."""
    e = np.exp(_log_softmax(logits.values, "softmax"))

    def vjp(g):
        gl = g * e
        return (gl - e * gl.sum(axis=-1, keepdims=True),)

    return _make(e, (logits,), vjp)


def nll_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the labelled classes under the row-wise
    softmax of n x K logits, in one node: the bits of
    scale(reduce_mean(pick(log_softmax(logits), labels)), -1) in value and
    gradient."""
    out = _log_softmax(logits.values, "nll_mean")
    idx = np.asarray(labels)
    count = out.shape[0]
    if out.ndim != 2 or idx.shape != (count,):
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


def bce_mean(d: Tensor, lo: float, hi: float, weights: Optional[np.ndarray] = None,
             clamped: Optional[list] = None) -> Tensor:
    """The two-domain BCE over a 2 x n x 1 stack d of source and target
    discriminator outputs: -mean(w * log(c)) over the source plus
    -mean(w * log(1 - c)) over the target, c = clip(d, lo, hi),
    0 < lo <= hi < 1; weights is a constant of d's shape, or None for all
    ones. One node with the bits of the chain clip, (1 - c on the target),
    log, mul, reduce_mean, scale(-1) per domain and an add of the two, in
    value and gradient; the clip passes gradient where lo <= d <= hi. A given
    list clamped gets, per domain, whether any output lies outside [lo, hi]
    or is NaN."""
    if not 0.0 < lo <= hi < 1.0:
        raise DimensionError(f"bce_mean: clip bounds [{lo}, {hi}] not inside (0, 1)")
    dv = d.values
    if dv.ndim != 3 or dv.shape[0] != 2 or dv.shape[2] != 1:
        raise DimensionError(f"bce_mean: outputs {dv.shape}, not a 2 x n x 1 stack")
    if weights is not None and weights.shape != dv.shape:
        raise DimensionError(f"bce_mean: weights {weights.shape} vs {dv.shape}")
    mask = (dv >= lo) & (dv <= hi)
    if clamped is not None:
        clamped += (not mask[0].all(), not mask[1].all())
    inner = np.minimum(np.maximum(dv, lo), hi)
    np.subtract(1.0, inner[1], out=inner[1])
    ll = np.log(inner)
    if weights is not None:
        ll *= weights
    count = dv.shape[1]
    terms = ll.reshape(2, count).sum(axis=1) / count * -1.0

    def vjp(g):
        gd = g * -1.0 / count
        if weights is not None:
            gd = gd * weights
        gd = gd / inner
        np.negative(gd[1], out=gd[1])
        gd *= mask
        return (gd,)

    return _make(terms[0] + terms[1], (d,), vjp)


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
    """mean(exp(inv * d)) over every element, the mean of an RBF kernel
    matrix, in one node with the bits of reduce_mean(exp(scale(d, inv))): the
    forward scales and exponentiates one array in place, and the vjp forms
    e * (g / count) * inv in e, that chain's (g / count) * e * inv commuted."""
    inv = float(inv)
    with np.errstate(over="ignore"):
        e = d.values * inv
        np.exp(e, out=e)
    count = e.size

    def vjp(g):  # the vjp runs once, so it may take e over
        np.multiply(e, g / count, out=e)
        np.multiply(e, inv, out=e)
        return (e,)

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
    """x[i] along the leading axis, a view; backward scatters into slot i of
    an array of -0.0, the exact identity of addition, so the gradients of
    every slot's select1 add up to the stacked gradient bit for bit."""
    shape = x.shape
    if not shape or not (0 <= i < shape[0]):
        raise DimensionError(f"select1: index {i} into shape {shape}")

    def vjp(g):
        out = np.full(shape, -0.0)
        out[i] = g
        return (out,)

    return _make(x.values[i], (x,), vjp)


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


def group_step(p: Tensor, d: np.ndarray, alpha: float, groups: list, beta: slice) -> Tensor:
    """p[:n] + d * (p[beta][m] * -alpha) on group m's part as one node, n = d.size;
    groups[m] lists the slices of group m's ids, tiling [0, n) in order. The
    vjp hands p the upstream gradient at [0, n) and, at beta[m], -alpha times
    the dots <upstream, d> over group m's slices summed in order from the
    first."""
    c, theta, out = -float(alpha), slice(0, d.size), np.empty(d.size)
    for ids, coeff in zip(groups, p.values[beta] * c):
        at = slice(ids[0].start, ids[-1].stop)
        np.multiply(d[at], coeff, out=out[at])
    out += p.values[theta]

    def vjp(g):
        sums = [sum([np.dot(g[at], d[at]) for at in ids[1:]], np.dot(g[ids[0]], d[ids[0]]))
                for ids in groups]
        return (((theta, g), (beta, np.array(sums) * c)),)

    return _make(out, (p,), vjp)


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
    place, because a vjp may hand one array to several parents; (slice,
    partial) pairs are added in place into an array of the operand's own that
    starts at -0.0, the exact identity of addition. An operand that takes no
    gradient gets None from the vjp and is skipped.

    Returns gradient arrays no caller shares for the wanted leaf ids in the
    graph; a leaf the loss never touched gets zeros.
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
    owned: set[int] = set()  # slots holding an array backward made for them alone
    leaf_grads: GradientMap = {}
    pop_node, pop_grad = nodes.pop, grads.pop
    while nodes:
        node = pop_node()
        g = pop_grad()
        vjp = node._vjp
        if vjp is None:  # a parameter leaf: nothing to release
            if g is not None:
                leaf_grads[node.param_id] = g if node._index in owned else np.array(g)
            continue
        if g is not None:
            for parent, pg in zip(node._parents, vjp(g)):
                if pg is None:
                    continue
                i = parent._index
                prev = grads[i]
                if pg.__class__ is not tuple:
                    grads[i] = pg if prev is None else prev + pg
                    continue
                if i not in owned:
                    owned.add(i)
                    grads[i] = prev = -np.zeros(parent.shape) if prev is None else prev.copy()
                for at, part in pg:
                    view = prev[at]
                    view += part.ravel()
        node._parents = ()
        node._vjp = None

    out: GradientMap = {}
    for pid in wanted:
        if pid in params:
            g = leaf_grads.get(pid)
            out[pid] = np.zeros_like(params[pid].values) if g is None else g
    return out


def finite_diff_grad(f: Callable[[dict[str, np.ndarray]], float],
                     params: dict[str, np.ndarray],
                     h: float = 1e-5) -> GradientMap:
    """Central finite differences of a scalar function, one coordinate at a time.

    Independent of the tape on purpose: it is the oracle the analytic
    gradients are verified against. It perturbs the given arrays in place and
    restores them exactly, so f may read them through another alias too.
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

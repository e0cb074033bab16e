import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalign import tensor as T
from metalign.tensor import (DimensionError, GraphError, Tape, Tensor, backward,
                             finite_diff_grad)


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# signed zeros, infinities, subnormals and normal values of both signs
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                           2.2250738585072014e-308 / 3, -1e-310, 1e-300, -1e-300,
                           1.0, -1.0, 1e308, -1e308])


class TestMatmul:
    def test_identity(self):
        x = np.array([[3.0, -1.0], [0.5, 2.0]])
        out = T.matmul(Tensor(np.eye(2)), Tensor(x))
        np.testing.assert_array_equal(out.values, x)

    def test_zero_operand_gradients(self):
        tape = Tape()
        a = tape.param(np.array([[1.0, 2.0], [3.0, 4.0]]), "a")
        b = tape.param(np.zeros((2, 2)), "b")
        out = T.matmul(a, b)
        np.testing.assert_array_equal(out.values, np.zeros((2, 2)))
        g = backward(T.reduce_sum(out), ["a", "b"])
        # unit upstream: a-grad = 1 @ b.T, b-grad = a.T @ 1
        np.testing.assert_array_equal(g["a"], np.zeros((2, 2)))
        np.testing.assert_array_equal(g["b"], a.values.T @ np.ones((2, 2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        params = {"a": rand(rng, 3, 4), "b": rand(rng, 4, 2)}
        w = rand(rng, 3, 2)

        def build(p):
            return T.reduce_sum(T.mul(T.matmul(p["a"], p["b"]), Tensor(w)))

        tape = Tape()
        g = backward(build({k: tape.param(v, k) for k, v in params.items()}),
                     list(params))
        fd = finite_diff_grad(lambda p: float(build({k: Tensor(v) for k, v in p.items()}).values),
                              params)
        for k in params:
            np.testing.assert_allclose(g[k], fd[k], rtol=1e-6, atol=1e-9)

    def test_shape_mismatch(self):
        """Mismatched inner dimensions, and a 1-d operand on either side."""
        for a, b in [((2, 3), (2, 3)), ((3,), (3, 2)), ((2, 3), (3,))]:
            with pytest.raises(DimensionError):
                T.matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))

    def test_add_bias_shapes_checked(self):
        """x must be 2-d, b 1-d, and b as wide as x's rows; each alone fails."""
        for x, b in [((3,), (3,)), ((2, 3), (1, 3)), ((2, 3), (2,))]:
            with pytest.raises(DimensionError):
                T.add_bias(Tensor(np.ones(x)), Tensor(np.ones(b)))


class TestRelu:
    def test_sign_cases(self):
        out = T.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_masked_passthrough(self):
        tape = Tape()
        x = tape.param(np.array([-1.0, 2.0]), "x")
        g = backward(T.reduce_sum(T.mul(T.relu(x), Tensor([5.0, 5.0]))), ["x"])
        np.testing.assert_array_equal(g["x"], [0.0, 5.0])

    def test_subgradient_zero_at_zero(self):
        tape = Tape()
        x = tape.param(np.array([0.0]), "x")
        g = backward(T.reduce_sum(T.relu(x)), ["x"])
        assert g["x"][0] == 0.0

    @pytest.mark.parametrize("case", ["random", "special", "scalar"])
    def test_bitwise_equal_to_where_oracle(self, case):
        """np.maximum(x, 0) has the bits of np.where(x > 0, x, 0) off NaN, -0.0 included."""
        rng = np.random.default_rng(11)
        if case == "random":
            xs = [rng.normal(size=(n, m)) * 10.0 ** rng.integers(-300, 300)
                  for n, m in [(1, 1), (3, 5), (128, 64), (17, 33)]]
        elif case == "special":
            xs = [SPECIAL_VALUES, np.tile(SPECIAL_VALUES, (9, 3)), rng.permutation(SPECIAL_VALUES)]
        else:
            xs = [np.asarray(v) for v in SPECIAL_VALUES]
        for x in xs:
            assert_same_bits(T.relu(Tensor(x)).values, np.where(x > 0.0, x, 0.0))
            tape = Tape()
            assert_same_bits(T.relu(tape.param(x, "x")).values, np.where(x > 0.0, x, 0.0))

    def test_nan_propagates(self):
        """A NaN input gives NaN (np.where gave 0); its gradient is 0, as before."""
        tape = Tape()
        x = tape.param(np.array([np.nan, -1.0, 2.0]), "x")
        out = T.relu(x)
        assert np.isnan(out.values[0])
        np.testing.assert_array_equal(out.values[1:], [0.0, 2.0])
        g = backward(T.reduce_sum(T.mul(out, Tensor([0.0, 1.0, 1.0]))), ["x"])
        np.testing.assert_array_equal(g["x"], [0.0, 0.0, 1.0])


class TestSigmoid:
    @staticmethod
    def clip_oracle(x):
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-x))
        return np.clip(s, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

    @pytest.mark.parametrize("case", ["random", "saturating", "special"])
    def test_clamp_bitwise_equal_to_clip_oracle(self, case):
        rng = np.random.default_rng(12)
        if case == "random":
            x = rng.normal(size=(64, 5)) * 8.0
        elif case == "saturating":
            x = np.concatenate([np.linspace(-800.0, 800.0, 401),
                                rng.uniform(30.0, 40.0, 50), -rng.uniform(700.0, 760.0, 50)])
        else:
            x = np.append(SPECIAL_VALUES, np.nan)
        got = T.sigmoid(Tensor(x)).values
        assert_same_bits(got, self.clip_oracle(x))
        finite = ~np.isnan(x)
        assert np.all((got[finite] > 0.0) & (got[finite] < 1.0))


def test_log_rejects_zero_and_negative_inputs():
    for bad in ([0.0, 1.0], [2.0, -1e-300]):
        with pytest.raises(DimensionError, match="nonpositive"):
            T.log(Tensor(np.array(bad)))


def test_absolute_subgradient_is_zero_at_zero():
    tape = Tape()
    x = tape.param(np.array([0.0, -2.0, 3.0]), "x")
    g = backward(T.reduce_sum(T.absolute(x)), ["x"])["x"]
    assert_same_bits(g, np.array([0.0, -1.0, 1.0]))


def test_clip_passes_gradient_on_its_bounds():
    tape = Tape()
    x = tape.param(np.array([-1.5, -1.0, 0.25, 1.0, 1.5]), "x")
    g = backward(T.reduce_sum(T.clip(x, -1.0, 1.0)), ["x"])["x"]
    np.testing.assert_array_equal(g, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_pick_and_select1_check_their_operands():
    for shape, idx in [((4,), [0, 1, 2, 3]), ((4, 3), [0, 1]), ((4, 3), [[0], [1], [2], [0]])]:
        with pytest.raises(DimensionError):
            T.pick(Tensor(np.ones(shape)), np.array(idx))
    for shape, i in [((2, 2), 0), ((3,), 3), ((3,), -1)]:
        with pytest.raises(DimensionError):
            T.select1(Tensor(np.ones(shape)), i)


class TestLogSoftmax:
    def test_uniform_row(self):
        out = T.log_softmax(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.values, -math.log(4.0), rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rand(rng, 3, 5)
        shifted = x + 17.25
        a = T.log_softmax(Tensor(x)).values
        b = T.log_softmax(Tensor(shifted)).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_exponentiate_to_one(self):
        rng = np.random.default_rng(2)
        out = T.log_softmax(Tensor(rand(rng, 6, 4) * 30))
        np.testing.assert_allclose(np.exp(out.values).sum(axis=1), 1.0, atol=1e-12)

    def test_needs_two_classes(self):
        with pytest.raises(DimensionError):
            T.log_softmax(Tensor(np.ones((3, 1))))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_bitwise_equal_to_row_max_reference(self, k):
        """The max over the rows of a (K, n) copy gives the bits of the
        row-wise max, on ties, all-zero and signed-zero rows, NaN and inf."""
        rng = np.random.default_rng(13)
        z = rng.normal(size=(64, k)) * 10.0
        z[0], z[1], z[2], z[3] = 0.0, -0.0, 1.5, [-0.0] + [0.0] * (k - 1)
        z[4, :2], z[5, 0], z[6, 0], z[7, :] = 3.25, np.nan, np.inf, -np.inf
        z[8, :] = [800.0] + [-800.0] * (k - 1)
        with np.errstate(invalid="ignore"):
            m = z.max(axis=1, keepdims=True)
            want = z - (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))
        assert_same_bits(T.log_softmax(Tensor(z)).values, want)


class TestReduceOps:
    def test_mean_arithmetic(self):
        assert float(T.reduce_mean(Tensor([2.0, 4.0])).values) == 3.0

    def test_mean_of_constant(self):
        out = T.reduce_mean(Tensor(np.full((3, 3), 7.5)))
        assert float(out.values) == 7.5

    def test_mean_gradient_is_one_over_n(self):
        tape = Tape()
        x = tape.param(np.arange(6.0).reshape(2, 3), "x")
        g = backward(T.reduce_mean(x), ["x"])
        np.testing.assert_array_equal(g["x"], np.full((2, 3), 1.0 / 6.0))

    def test_invalid_axis(self):
        for op, axis in [(T.reduce_mean, 5), (T.reduce_mean, 2), (T.reduce_sum, -1)]:
            with pytest.raises(DimensionError):
                op(Tensor(np.ones((2, 2))), axis=axis)

    @staticmethod
    def spread_oracle(g, shape, axis):
        """The backward spread as it was: copy the broadcast, then divide."""
        g = g if axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    @pytest.mark.parametrize("op", ["reduce_mean", "reduce_sum"])
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_backward_bitwise_equal_to_spread_oracle(self, op, axis):
        """d/dx sum(w * reduce(x, axis)) is w spread over x (and divided by
        the count for the mean), with the bits of copy-then-divide."""
        rng = np.random.default_rng(13)
        for shape in [(1, 1), (3, 7), (128, 1), (10, 13)]:
            x = rng.normal(size=shape)
            reduced_shape = () if axis is None else shape[:axis] + shape[axis + 1:]
            w = rng.normal(size=reduced_shape) * 10.0 ** rng.integers(-5, 5)
            tape = Tape()
            out = getattr(T, op)(tape.param(x, "x"), axis=axis)
            g = backward(T.reduce_sum(T.mul(out, Tensor(w))), ["x"])["x"]
            want = self.spread_oracle(w, shape, axis)
            if op == "reduce_mean":
                want = want / (x.size if axis is None else shape[axis])
                assert_same_bits(out.values, x.mean(axis=axis))
            else:
                assert_same_bits(out.values, x.sum(axis=axis))
            assert_same_bits(g, want)


class TestRbfMean:
    @staticmethod
    def value_and_grad(build, x, w):
        tape = Tape()
        out = build(tape.param(x, "x"))
        g = backward(T.scale(out, w), ["x"])["x"]
        return out.values, g

    @pytest.mark.parametrize("source", ["direct", "self_sqdist", "cross_sqdist"])
    def test_bitwise_equal_to_scale_exp_mean_chain(self, source):
        """Value and gradient have the bits of reduce_mean(exp(scale(d, inv))),
        for d given directly or built by pairwise_sqdist on the tape."""
        rng = np.random.default_rng(17)
        for _ in range(30):
            n, m, k = (int(v) for v in rng.integers(1, 40, size=3))
            inv = -float(rng.uniform(0.01, 3.0))
            w = float(rng.normal() * 10.0 ** rng.integers(-3, 3))
            if source == "direct":
                x = rng.uniform(0.0, 5.0, size=(n, m))
                x[rng.random(size=x.shape) < 0.1] = 0.0
                x[rng.random(size=x.shape) < 0.05] = np.inf
            else:
                x = rng.normal(size=(n, k))
            other = rng.normal(size=(m, k))

            def dist(t):
                if source == "direct":
                    return t
                b = t if source == "self_sqdist" else Tensor(other)
                return T.pairwise_sqdist(t, b)

            got = self.value_and_grad(lambda t: T.rbf_mean(dist(t), inv), x, w)
            want = self.value_and_grad(
                lambda t: T.reduce_mean(T.exp(T.scale(dist(t), inv))), x, w)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    def test_on_constants_is_constant(self):
        out = T.rbf_mean(Tensor(np.zeros((2, 3))), -1.0)
        assert float(out.values) == 1.0 and out.tape is None


# (rows, in, out) of every layer the shipped configs run: moons at batch 128
# and at the 1000-row eval, the MMD config at batch 256
LAYER_SHAPES = [(128, 2, 64), (128, 64, 64), (128, 64, 32), (128, 32, 2), (128, 64, 16),
                (128, 16, 16), (128, 16, 1), (1000, 2, 64), (1000, 64, 64),
                (1000, 64, 32), (1000, 32, 2), (256, 4, 32), (256, 32, 32),
                (256, 32, 16), (256, 16, 3)]
CHAIN_ACTIVATIONS = {"relu": T.relu, "tanh": T.tanh, "identity": lambda t: t}


def chain_dense(tape, x, w, b, act):
    """The three-node layer one layer of mlp replaces, W and b leaves of their own."""
    return CHAIN_ACTIVATIONS[act](T.add_bias(T.matmul(x, tape.param(w, "w")),
                                             tape.param(b, "b")))


def flat_dense(tape, x, w, b, act):
    """One layer of mlp reading W, then b, from one leaf p."""
    p = tape.param(np.concatenate([w.ravel(), b]), "p")
    return T.mlp(x, p, [(slice(0, w.size), slice(w.size, None))], (act,))


def layer_value_and_grads(build, x, w, b, u, act, const_x=False):
    """The layer's output and the gradients of sum(u * output) it sends to
    x (unless x is a constant), W and b; p's gradient is split into W's and b's."""
    tape = Tape()
    xt = Tensor(x) if const_x else tape.param(x, "x")
    out = build(tape, xt, w, b, act)
    grads = backward(T.reduce_sum(T.mul(out, Tensor(u))), ["x", "w", "b", "p"])
    if "p" in grads:
        g = grads.pop("p")
        grads.update(w=g[:w.size].reshape(w.shape), b=g[w.size:])
    return out.values, grads


class TestDense:
    """One layer of mlp, a dense layer, against the matmul, add_bias and
    activation chain; TestMlp runs whole networks."""

    @staticmethod
    def layer(rng, n, k, m):
        x = rng.normal(size=(n, k))
        x[rng.random(size=n) < 0.05] = 0.0  # rows whose pre-activation is exactly b
        w = rng.uniform(-1.0, 1.0, size=(k, m)) * np.sqrt(6.0 / (k + m))
        b = rng.normal(size=m) * 0.1
        u = rng.normal(size=(n, m))
        u[rng.random(size=u.shape) < 0.1] = 0.0
        return x, w, b, u

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("const_x", [False, True])
    def test_bitwise_equal_to_matmul_add_bias_activation_chain(self, act, const_x):
        rng = np.random.default_rng(23)
        for n, k, m in LAYER_SHAPES:
            x, w, b, u = self.layer(rng, n, k, m)
            got = layer_value_and_grads(flat_dense, x, w, b, u, act, const_x)
            want = layer_value_and_grads(chain_dense, x, w, b, u, act, const_x)
            assert_same_bits(got[0], want[0])
            assert got[1].keys() == want[1].keys() == ({"w", "b"} if const_x
                                                       else {"x", "w", "b"})
            for pid in want[1]:
                assert_same_bits(got[1][pid], want[1][pid])

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    def test_nan_row_bitwise_equal_to_chain(self, act):
        """A NaN input row gives a NaN output row (relu keeps NaN, as
        np.maximum does) and the chain's gradient bits."""
        rng = np.random.default_rng(24)
        x, w, b, u = self.layer(rng, 128, 64, 16)
        x[5] = np.nan
        got = layer_value_and_grads(flat_dense, x, w, b, u, act)
        want = layer_value_and_grads(chain_dense, x, w, b, u, act)
        assert np.isnan(got[0][5]).all() and not np.isnan(got[0][:5]).any()
        assert_same_bits(got[0], want[0])
        for pid in ("x", "w", "b"):
            assert_same_bits(got[1][pid], want[1][pid])

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    def test_flat_read_bitwise_equal_to_tensor_operands(self, act):
        """A layer reading W and b at their slices of one flat leaf that holds
        more, twice, gives the gradients the chain gives W and b as leaves of
        their own, bit for bit: a first partial keeps its bits and a second
        adds as prev + partial does."""
        rng = np.random.default_rng(27)
        for n, k, m in LAYER_SHAPES:
            x, w, b, u = self.layer(rng, n, k, m)
            x2, u2 = rng.normal(size=x.shape), rng.normal(size=u.shape)
            flat = np.concatenate([rng.normal(size=3), w.ravel(), b, rng.normal(size=2)])
            ws, bs = slice(3, 3 + w.size), slice(3 + w.size, 3 + w.size + m)

            def loss(read):
                return T.add(T.reduce_sum(T.mul(read(Tensor(x)), Tensor(u))),
                             T.reduce_sum(T.mul(read(Tensor(x2)), Tensor(u2))))

            tape = Tape()
            want = backward(loss(lambda xt: chain_dense(tape, xt, w, b, act)), ["w", "b"])
            tape = Tape()
            p = tape.param(flat, "p")
            got = backward(loss(lambda xt: T.mlp(xt, p, [(ws, bs)], (act,))), ["p"])["p"]
            assert_same_bits(got[ws].reshape(w.shape), want["w"])
            assert_same_bits(got[bs], want["b"])
            assert_same_bits(got[:3], -np.zeros(3))  # no partial reaches them
            assert_same_bits(got[bs.stop:], -np.zeros(2))

    def test_constant_x_vjp_slot_is_none(self):
        rng = np.random.default_rng(25)
        x, w, b, u = self.layer(rng, 6, 3, 4)
        tape = Tape()
        c = Tensor(x)
        out = flat_dense(tape, c, w, b, "relu")
        assert all(n is not c for n in tape.nodes)
        gx, gp = out._vjp(u)
        (ws, gw), (bs, gb) = gp
        assert gx is None and (ws, bs) == (slice(0, 12), slice(12, None))
        mask = x @ w + b > 0.0
        assert_same_bits(gw, x.T @ (u * mask))
        assert_same_bits(gb, (u * mask).sum(axis=0))

    def test_on_constants_is_constant(self):
        p = Tensor(np.array([1.0] * 6 + [-4.0, 1.0]))
        out = T.mlp(Tensor(np.ones((2, 3))), p, [(slice(0, 6), slice(6, 8))], ("relu",))
        assert out.tape is None
        np.testing.assert_array_equal(out.values, [[0.0, 4.0], [0.0, 4.0]])

    @pytest.mark.parametrize("operand", ["x", "p"])
    def test_operand_from_another_tape_rejected(self, operand):
        """Each operand's tape is checked, the second one's too."""
        rng = np.random.default_rng(26)
        x, w, b, _ = self.layer(rng, 4, 3, 2)
        arrays = {"x": x, "p": np.concatenate([w.ravel(), b])}
        t1, t2 = Tape(), Tape()
        ops = {k: (t2 if k == operand else t1).param(v, k) for k, v in arrays.items()}
        with pytest.raises(GraphError, match="two different graphs"):
            T.mlp(ops["x"], ops["p"], [(slice(0, 6), slice(6, 8))], ("relu",))

    def test_bad_shapes_and_activation_rejected(self):
        x, p = Tensor(np.ones((4, 3))), Tensor(np.ones(9))
        for bad_x, bad_p, w, b in [(x, p, slice(0, 4), slice(6, 8)),   # W not 3 x 2
                                   (x, p, slice(0, 6), slice(6, 9)),   # W not 3 x 3
                                   (Tensor(np.ones(3)), p, slice(0, 6), slice(6, 8)),
                                   (x, Tensor(np.ones((9, 1))), slice(0, 6), slice(6, 8))]:
            with pytest.raises(DimensionError):
                T.mlp(bad_x, bad_p, [(w, b)], ("relu",))
        for layers, acts in [([], ()), ([(slice(0, 6), slice(6, 8))], ("relu", "relu"))]:
            with pytest.raises(DimensionError):
                T.mlp(x, p, layers, acts)
        with pytest.raises(ValueError, match="unknown activation"):
            T.mlp(x, p, [(slice(0, 6), slice(6, 8))], ("softplus",))


# the networks the shipped configs build, as widths: extractors, classifier
# heads and discriminators (dannpe's reads the 2 class probabilities)
NETS = [[2, 64, 64], [2, 32, 32, 32, 32], [4, 32, 32], [64, 32, 2], [32, 32, 2],
        [32, 16, 3], [64, 16, 16, 1], [2, 16, 16, 1], [2, 64, 64, 32, 2]]


def chain_net(tape, x, weights, acts):
    """A network as the per-layer chain: matmul, add_bias and the activation
    op, every W and b a leaf of its own (w0, b0, w1, ...)."""
    ops = {**CHAIN_ACTIVATIONS, "sigmoid": T.sigmoid}
    for i, ((w, b), act) in enumerate(zip(weights, acts)):
        x = ops[act](T.add_bias(T.matmul(x, tape.param(w, f"w{i}")), tape.param(b, f"b{i}")))
    return x


def flat_net(tape, x, weights, acts):
    """The network as one mlp node over one leaf p holding W0, b0, W1, ...
    after two leading entries no layer reads."""
    arrays = [np.zeros(2)] + [arr.ravel() for wb in weights for arr in wb]
    ends = np.cumsum([0] + [arr.size for arr in arrays]).tolist()
    spans = [slice(a, b) for a, b in zip(ends[1:], ends[2:])]
    p = tape.param(np.concatenate(arrays), "p")
    return T.mlp(x, p, list(zip(spans[::2], spans[1::2])), acts)


def net_value_and_grads(build, x, weights, acts, u, const_x):
    """The network's output and the gradients of sum(u * output) it sends
    to x (unless x is a constant) and to each W and b, p's split by layer."""
    tape = Tape()
    xt = Tensor(x) if const_x else tape.param(x, "x")
    out = build(tape, xt, weights, acts)
    ids = ["x", "p"] + [f"{k}{i}" for i in range(len(weights)) for k in "wb"]
    grads = backward(T.reduce_sum(T.mul(out, Tensor(u))), ids)
    if "p" in grads:
        g, at = grads.pop("p"), 2
        assert_same_bits(g[:2], -np.zeros(2))  # no layer reads them
        for i, (w, b) in enumerate(weights):
            grads[f"w{i}"] = g[at:at + w.size].reshape(w.shape)
            grads[f"b{i}"] = g[at + w.size:at + w.size + b.size]
            at += w.size + b.size
    return out.values, grads


class TestMlp:
    @staticmethod
    def net(rng, n, widths):
        x = rng.normal(size=(n, widths[0]))
        x[rng.random(size=n) < 0.05] = 0.0  # rows whose first pre-activation is b
        weights = [(rng.uniform(-1.0, 1.0, size=(k, m)) * np.sqrt(6.0 / (k + m)),
                    rng.normal(size=m) * 0.1) for k, m in zip(widths, widths[1:])]
        u = rng.normal(size=(n, widths[-1]))
        u[rng.random(size=u.shape) < 0.1] = 0.0
        return x, weights, u

    @staticmethod
    def assert_same(got, want, const_x):
        assert_same_bits(got[0], want[0])
        assert got[1].keys() == want[1].keys()
        assert ("x" in want[1]) != const_x
        for pid in want[1]:
            assert_same_bits(got[1][pid], want[1][pid])

    @pytest.mark.parametrize("hidden", ["relu", "tanh"])
    @pytest.mark.parametrize("output", ["identity", "sigmoid"])
    @pytest.mark.parametrize("const_x", [False, True])
    def test_bitwise_equal_to_per_layer_chain(self, hidden, output, const_x):
        """Every shipped network at batches 128, 256 and the 1000-row eval,
        in value and in the gradients of x, each W and each b."""
        rng = np.random.default_rng(29)
        for n in (128, 256, 1000):
            for widths in NETS:
                x, weights, u = self.net(rng, n, widths)
                acts = (hidden,) * (len(weights) - 1) + (output,)
                got = net_value_and_grads(flat_net, x, weights, acts, u, const_x)
                want = net_value_and_grads(chain_net, x, weights, acts, u, const_x)
                self.assert_same(got, want, const_x)

    @pytest.mark.parametrize("acts", [("relu", "relu", "sigmoid"), ("tanh", "tanh", "identity"),
                                      ("identity", "relu", "tanh")])
    def test_nan_row_bitwise_equal_to_chain(self, acts):
        """A NaN input row gives a NaN output row, the other rows stay
        finite, and the gradients keep the chain's bits."""
        rng = np.random.default_rng(30)
        x, weights, u = self.net(rng, 128, [64, 16, 16, 1])
        x[5] = np.nan
        got = net_value_and_grads(flat_net, x, weights, acts, u, False)
        want = net_value_and_grads(chain_net, x, weights, acts, u, False)
        assert np.isnan(got[0][5]).all() and not np.isnan(np.delete(got[0], 5, axis=0)).any()
        self.assert_same(got, want, False)

    def test_sigmoid_output_keeps_the_clamp(self):
        """Saturated pre-activations land on sigmoid's clamp, strictly
        inside (0, 1), with the bits of T.sigmoid."""
        x = np.array([[-800.0], [-40.0], [0.0], [40.0], [800.0]])
        p = Tensor(np.array([1.0, 0.0]))
        out = T.mlp(Tensor(x), p, [(slice(0, 1), slice(1, 2))], ("sigmoid",)).values
        assert_same_bits(out, T.sigmoid(Tensor(x)).values)
        assert out[0, 0] == np.nextafter(0.0, 1.0) and out[-1, 0] == np.nextafter(1.0, 0.0)

    def test_constant_p_gives_x_its_gradient_only(self):
        rng = np.random.default_rng(31)
        x, weights, u = self.net(rng, 6, [3, 4, 2])
        p = Tensor(np.concatenate([arr.ravel() for wb in weights for arr in wb]))
        tape = Tape()
        out = T.mlp(tape.param(x, "x"), p, [(slice(0, 12), slice(12, 16)),
                                            (slice(16, 24), slice(24, 26))], ("tanh", "identity"))
        gx, gp = out._vjp(u)
        want = net_value_and_grads(chain_net, x, weights, ("tanh", "identity"), u, False)
        assert gp is None
        assert_same_bits(gx, want[1]["x"])


# upstream factors on a loss node: 1, a negative, +0 and -0 (the chain's pick
# scatter turns a -0 gradient +0), a subnormal
UPSTREAM = [1.0, -2.5, 0.0, -0.0, 3e-310]


def loss_value_and_grad(build, x, factor):
    tape = Tape()
    out = build(tape.param(x, "x"))
    return out.values, backward(T.scale(out, factor), ["x"])["x"]


class TestNllMean:
    @staticmethod
    def chain(logits, labels):
        return T.scale(T.reduce_mean(T.pick(T.log_softmax(logits), labels)), -1.0)

    @pytest.mark.parametrize("factor", UPSTREAM)
    def test_bitwise_equal_to_log_softmax_pick_mean_chain(self, factor):
        rng = np.random.default_rng(27)
        for n, k in [(1, 2), (7, 3), (128, 2), (64, 3), (256, 3), (1000, 2)]:
            z = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-2, 3)
            if n > 2:
                z[1] = np.nan  # a divergent row
                z[2, 0] = 800.0
            labels = rng.integers(0, k, size=n)
            got = loss_value_and_grad(lambda t: T.nll_mean(t, labels), z, factor)
            want = loss_value_and_grad(lambda t: self.chain(t, labels), z, factor)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    def test_shapes_checked(self):
        with pytest.raises(DimensionError):
            T.nll_mean(Tensor(np.zeros((3, 1))), np.zeros(3, dtype=int))
        with pytest.raises(DimensionError):
            T.nll_mean(Tensor(np.zeros((3, 2))), np.zeros(2, dtype=int))


class TestBceMean:
    EPS = 1e-7

    @staticmethod
    def chain(d, lo, hi, complement, weights):
        """The chain losses._bce_term built before the fused node."""
        c = T.clip(d, lo, hi)
        inner = T.sub(Tensor(np.ones_like(c.values)), c) if complement else c
        ll = T.log(inner)
        if weights is not None:
            ll = T.mul(ll, Tensor(weights))
        return T.scale(T.reduce_mean(ll), -1.0)

    @pytest.mark.parametrize("factor", UPSTREAM)
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("complement", [False, True])
    def test_bitwise_equal_to_clip_log_mean_chain(self, complement, weighted, factor):
        """Sigmoid outputs of every range, some on or past the clamp at either
        end, one NaN; the weights are dannpe's, normalized to mean one."""
        rng = np.random.default_rng(28)
        lo, hi = self.EPS, 1.0 - self.EPS
        for n in (1, 7, 128, 1000):
            d = 1.0 / (1.0 + np.exp(-rng.normal(size=(n, 1)) * 10.0))
            if n > 4:
                d[:4, 0] = [0.0, 1e-12, 1.0, np.nextafter(1.0, 0.0)]
                d[-1, 0] = np.nan
            weights = None
            if weighted:
                wv = np.exp(-rng.uniform(0.0, np.log(3.0), size=n))
                weights = (wv / wv.mean()).reshape(-1, 1)
            got = loss_value_and_grad(
                lambda t: T.bce_mean(t, lo, hi, complement, weights), d, factor)
            want = loss_value_and_grad(
                lambda t: self.chain(t, lo, hi, complement, weights), d, factor)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    def test_clamped_outputs_take_no_gradient(self):
        tape = Tape()
        d = tape.param(np.array([[0.0], [0.5], [1.0]]), "d")
        g = backward(T.bce_mean(d, self.EPS, 1.0 - self.EPS, False), ["d"])["d"]
        # the mask multiplies the negative gradient of a clamped output to -0
        assert_same_bits(g, np.array([[-0.0], [-1.0 / 3.0 / 0.5], [-0.0]]))

    def test_bounds_and_weights_checked(self):
        d = Tensor(np.full((3, 1), 0.5))
        for lo, hi in [(0.0, 0.9), (0.1, 1.0), (0.6, 0.4)]:
            with pytest.raises(DimensionError):
                T.bce_mean(d, lo, hi, False)
        with pytest.raises(DimensionError):
            T.bce_mean(d, 0.1, 0.9, False, np.ones(3))
        assert float(T.bce_mean(d, 0.5, 0.5, False).values) == -math.log(0.5)  # lo == hi


class TestBackward:
    def test_sum_gives_ones(self):
        tape = Tape()
        w = tape.param(np.ones((2, 3)), "w")
        g = backward(T.reduce_sum(w), ["w"])
        np.testing.assert_array_equal(g["w"], np.ones((2, 3)))

    def test_half_squared_norm(self):
        tape = Tape()
        w = tape.param(np.array([1.0, -2.0, 0.5]), "w")
        g = backward(T.scale(T.reduce_sum(T.mul(w, w)), 0.5), ["w"])
        np.testing.assert_array_equal(g["w"], w.values)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        w = tape.param(np.ones(3), "w")
        with pytest.raises(GraphError):
            backward(T.mul(w, w), ["w"])

    def test_stale_graph_rejected(self):
        tape = Tape()
        w = tape.param(np.ones(3), "w")
        loss = T.reduce_sum(w)
        backward(loss, ["w"])
        with pytest.raises(GraphError):
            backward(loss, ["w"])
        with pytest.raises(GraphError):
            T.scale(w, 2.0)  # an op on a node of the consumed tape
        with pytest.raises(GraphError):
            tape.param(np.ones(3), "w")  # not the consumed leaf handed back

    def test_constant_operand_takes_no_gradient(self):
        """matmul(Tensor(x), W): no node and no input gradient for the
        constant, and W's gradient has the bits it has when x is a leaf too."""
        rng = np.random.default_rng(14)
        x, w, u = rng.normal(size=(9, 4)), rng.normal(size=(4, 6)), rng.normal(size=(9, 6))

        def loss(tape, x_entry):
            out = T.matmul(x_entry, tape.param(w, "w"))
            return out, T.reduce_sum(T.mul(out, Tensor(u)))

        tape = Tape()
        c = Tensor(x)
        out, total = loss(tape, c)
        assert c.tape is None and all(n is not c for n in tape.nodes)
        ga, gw = out._vjp(np.ones(out.shape))
        assert ga is None and gw is not None
        g_const = backward(total, ["w"])

        tape = Tape()
        _, total = loss(tape, tape.param(x, "x"))
        g_leaf = backward(total, ["w", "x"])
        assert_same_bits(g_const["w"], g_leaf["w"])
        assert_same_bits(g_const["w"], x.T @ u)
        assert g_const.keys() == {"w"}

    def test_ops_on_constants_are_constants(self):
        c = T.relu(T.scale(Tensor(np.array([1.0, -2.0])), 3.0))
        assert c.tape is None
        tape = Tape()
        w = tape.param(np.array([0.5, 0.25]), "w")
        g = backward(T.reduce_sum(T.mul(c, w)), ["w"])
        assert_same_bits(g["w"], np.array([3.0, 0.0]))

    def test_constant_loss_gives_zero_gradients(self):
        """A loss that reads no parameter is a constant with no graph, so
        backward refuses it rather than give every parameter a zero gradient."""
        tape = Tape()
        tape.param(np.ones(3), "w")
        loss = T.reduce_sum(Tensor(np.arange(3.0)))
        assert loss.tape is None
        with pytest.raises(GraphError, match="reads no parameter"):
            backward(loss, ["w"])

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.param(np.ones(2), "a")
        b = t2.param(np.ones(2), "b")
        with pytest.raises(GraphError):
            T.add(a, b)

    def test_slice_tagged_first_partial_keeps_its_bits(self):
        """A (slice, partial) pair lands in the operand's gradient with its own
        bits, a -0.0 included; entries no partial reaches read -0.0."""
        upstream = np.array([-0.0, 0.0, -2.5, 3e-310, -1.0])
        tape = Tape()
        p = tape.param(np.linspace(0.5, 1.5, 8), "p")
        prime = T.group_step(p, np.ones(5), 0.25, [[slice(0, 2)], [slice(2, 5)]], slice(6, 8))
        g = backward(T.reduce_sum(T.mul(prime, Tensor(upstream))), ["p"])["p"]
        assert_same_bits(g[:5], upstream)
        assert_same_bits(g[5:6], np.array([-0.0]))
        assert_same_bits(g[6:], np.array([-0.25 * (-0.0 + 0.0), -0.25 * (-2.5 + 3e-310 - 1.0)]))

    def test_whole_then_slice_tagged_partials_leave_shared_arrays_alone(self):
        """A 1-d node whose first partial is an array another parent also holds
        (add hands both operands the same one) copies it before slice-tagged
        partials are added in place."""
        rng = np.random.default_rng(8)
        x, u, w = rng.normal(size=(4, 2)), rng.normal(size=(4, 3)), rng.normal(size=9)
        tape = Tape()
        p, q = tape.param(rng.normal(size=9), "p"), tape.param(rng.normal(size=9), "q")
        y = T.mlp(Tensor(x), p, [(slice(0, 6), slice(6, 9))], ("identity",))
        loss = T.add(T.reduce_sum(T.mul(y, Tensor(u))),
                     T.reduce_sum(T.mul(T.add(p, q), Tensor(w))))
        g = backward(loss, ["p", "q"])
        assert_same_bits(g["q"], w)
        assert_same_bits(g["p"][:6], w[:6] + (x.T @ u).ravel())
        assert_same_bits(g["p"][6:], w[6:] + u.sum(axis=0))

    def test_param_reentry_shares_leaf(self):
        tape = Tape()
        w1 = tape.param(np.array([2.0]), "w")
        w2 = tape.param(np.array([2.0]), "w")
        assert w1 is w2
        g = backward(T.reduce_sum(T.add(w1, w2)), ["w"])
        np.testing.assert_array_equal(g["w"], [2.0])

    # Each case builds a loss on a tape from fixed input arrays; "p" and "q"
    # are parameter leaves, "c" is a constant (no node, no gradient).
    OWNERSHIP_CASES = {
        "fan_in_add_p_p": lambda t, x: T.reduce_sum(
            T.mul(T.add(t.param(x["p"], "p"), t.param(x["p"], "p")), Tensor(x["c"]))),
        "pass_through_add": lambda t, x: T.reduce_sum(
            T.add(t.param(x["p"], "p"), t.param(x["q"], "q"))),
        "pass_through_sub": lambda t, x: T.reduce_sum(
            T.sub(t.param(x["p"], "p"), t.param(x["q"], "q"))),
        "pass_through_scale_grad": lambda t, x: T.reduce_sum(
            T.add(T.scale_grad(t.param(x["p"], "p"), 1.0), t.param(x["q"], "q"))),
        "scale_by_0d": lambda t, x: T.reduce_sum(
            T.scale_by(t.param(x["p"], "p"), t.param(x["q"][0], "q"))),
        "const_operand_add": lambda t, x: T.reduce_sum(
            T.add(T.add(t.param(x["p"], "p"), Tensor(x["c"])), t.param(x["q"], "q"))),
    }

    @pytest.mark.parametrize("case", sorted(OWNERSHIP_CASES))
    def test_returned_gradients_are_owned(self, case):
        build = self.OWNERSHIP_CASES[case]
        rng = np.random.default_rng(7)
        inputs = {"p": rand(rng, 3), "q": rand(rng, 3), "c": rand(rng, 3)}
        snapshot = {k: v.copy() for k, v in inputs.items()}
        tape = Tape()
        loss = build(tape, inputs)
        node_values = [n.values for n in tape.nodes]
        grads = backward(loss, ["p", "q"])
        assert grads
        for pid, g in grads.items():
            assert isinstance(g, np.ndarray) and g.dtype == np.float64
            assert g.flags.writeable, pid
            others = [v for k, v in grads.items() if k != pid]
            for arr in node_values + list(inputs.values()) + others:
                assert not np.shares_memory(g, arr), pid
        expected = {pid: g.copy() for pid, g in grads.items()}
        written = set()
        for pid, g in grads.items():
            g[...] = 1e300
            written.add(pid)
            for other, h in grads.items():
                if other not in written:
                    np.testing.assert_array_equal(h, expected[other])
        for k, v in inputs.items():
            np.testing.assert_array_equal(v, snapshot[k])
        again = backward(build(Tape(), inputs), ["p", "q"])
        for pid, g in again.items():
            np.testing.assert_array_equal(g, expected[pid])
        assert again.keys() == expected.keys()

    def test_full_mlp_cross_entropy_matches_fd(self):
        from metalign import optim
        from metalign.gradcheck import random_batch, random_bundle
        from metalign.nn import FLAT_ID
        rng = np.random.default_rng(3)
        bundle, _ = random_bundle(rng, "dann")
        batch = random_batch(rng)
        g = backward(optim._cls_loss(bundle, batch, bundle.params(Tape())), [FLAT_ID])
        g = bundle.all_params(g[FLAT_ID])
        params = {**bundle.extractor.params(), **bundle.classifier.params()}
        fd = finite_diff_grad(
            lambda _: float(optim._cls_loss(bundle, batch, bundle.params()).values),
            params, h=1e-5)
        for pid in params:
            np.testing.assert_allclose(g[pid], fd[pid], rtol=1e-4, atol=1e-6)


class TestPairwiseSqdist:
    @staticmethod
    def broadcast_oracle(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e2, 1e3])
    @pytest.mark.parametrize("case", ["random", "one_row", "self"])
    def test_gram_form_matches_broadcast_oracle(self, case, offset):
        """Error within 1e-14 of the squared row norms, and never negative."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, m, d = (int(v) for v in rng.integers(1, 65, size=3))
            if case == "one_row":
                n = 1
            shift = offset * rng.normal(size=d)  # shared: distances << norms
            a = rng.normal(size=(n, d)) + shift
            b = rng.normal(size=(m, d)) + shift
            if case == "self":
                b = a.copy()
            got = T.pairwise_sqdist(Tensor(a), Tensor(b)).values
            scale = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] + 1.0
            assert np.all(np.abs(got - self.broadcast_oracle(a, b)) <= 1e-14 * scale)
            assert np.all(got >= 0.0)

    @staticmethod
    def old_self_gram_form(a):
        """The self-distances as computed before the doubled-operand product:
        2 * (a @ a.T), which numpy sends to syrk."""
        n = (a * a).sum(axis=1)
        out = n[:, None] + n[None, :]
        out -= 2.0 * (a @ a.T)
        return np.maximum(out, 0.0)

    def test_doubled_operand_product_is_bitwise_for_distinct_operands(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n, m, d = (int(v) for v in rng.integers(1, 130, size=3))
            a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
            assert_same_bits((2.0 * a) @ b.T, 2.0 * (a @ b.T))

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_self_gram_bitwise_at_shipped_shapes(self, n):
        """The MMD batch shapes (batch 64 and 256, pooled 128 and 512, width
        32) give the old syrk bits through the gemm path."""
        rng = np.random.default_rng(n)
        for _ in range(3):
            a = rng.normal(size=(n, 32)) * rng.uniform(0.1, 10.0)
            t = Tensor(a)
            assert_same_bits(T.pairwise_sqdist(t, t).values, self.old_self_gram_form(a))


class TestDeterminism:
    def test_identical_forward_passes_bitwise(self):
        rng = np.random.default_rng(4)
        x = rand(rng, 5, 3)
        w = rand(rng, 3, 4)

        def forward():
            tape = Tape()
            out = T.log_softmax(T.matmul(Tensor(x), tape.param(w, "w")))
            return T.reduce_mean(out).values.copy()

        a, b = forward(), forward()
        assert np.array_equal(a, b)


class TestFiniteDiff:
    def test_quadratic_at_three(self):
        g = finite_diff_grad(lambda p: float(p["p"][0] ** 2),
                             {"p": np.array([3.0])}, h=1e-5)
        assert abs(g["p"][0] - 6.0) < 1e-8

    def test_constant_function(self):
        g = finite_diff_grad(lambda p: 42.0, {"p": np.ones(4)})
        np.testing.assert_array_equal(g["p"], np.zeros(4))

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: 0.0, {"p": np.ones(1)}, h=0.0)

    def test_rejects_params_other_than_float64_arrays(self):
        for bad in (np.ones(2, dtype=np.float32), [1.0, 2.0]):
            with pytest.raises(TypeError):
                finite_diff_grad(lambda p: 0.0, {"p": bad})


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_op_gradients_match_finite_differences(seed):
    """Analytic gradients agree with central differences for a composite of
    every smooth op, inputs in [-2, 2], h=1e-5, 1e-4 relative / 1e-6 floor."""
    rng = np.random.default_rng(seed)
    params = {"w": rand(rng, 3, 4), "b": rng.uniform(-1, 1, size=4),
              "v": rand(rng, 4, 2)}
    x = rand(rng, 5, 3)
    c = rand(rng, 5, 2)

    def build(p):
        h1 = T.tanh(T.add_bias(T.matmul(Tensor(x), p["w"]), p["b"]))
        h2 = T.sigmoid(T.matmul(h1, p["v"]))
        pieces = T.add(T.mul(h2, Tensor(c)), T.exp(T.scale(h2, -0.7)))
        return T.add(T.reduce_mean(pieces),
                     T.scale(T.reduce_mean(T.pairwise_sqdist(h1, h1)), 0.1))

    tape = Tape()
    g = backward(build({k: tape.param(v, k) for k, v in params.items()}),
                 list(params))
    fd = finite_diff_grad(
        lambda p: float(build({k: Tensor(v) for k, v in p.items()}).values), params)
    for k in params:
        err = np.abs(g[k] - fd[k])
        bound = 1e-4 * np.maximum(np.abs(g[k]), np.abs(fd[k])) + 1e-6
        assert np.all(err <= bound), f"{k}: max err {err.max()}"

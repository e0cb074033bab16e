import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalign import tensor as T
from metalign.tensor import (DimensionError, GraphError, Tape, Tensor, backward,
                             detach, finite_diff_grad)


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
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


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
        with pytest.raises(DimensionError):
            T.reduce_mean(Tensor(np.ones((2, 2))), axis=5)

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
            g = backward(T.reduce_sum(T.mul(out, tape.const(w))), ["x"])["x"]
            want = self.spread_oracle(w, shape, axis)
            if op == "reduce_mean":
                want = want / (x.size if axis is None else shape[axis])
                assert_same_bits(out.values, x.mean(axis=axis))
            else:
                assert_same_bits(out.values, x.sum(axis=axis))
            assert_same_bits(g, want)


class TestDetach:
    def test_values_preserved(self):
        x = Tensor(np.array([1.0, -2.0]))
        np.testing.assert_array_equal(detach(x).values, x.values)
        assert detach(x).tape is None

    def test_stop_gradient_semantics(self):
        # d/dx sum(detach(x) * x) == x, not 2x
        tape = Tape()
        x = tape.param(np.array([3.0, -1.5]), "x")
        g = backward(T.reduce_sum(T.mul(detach(x), x)), ["x"])
        np.testing.assert_array_equal(g["x"], x.values)

    def test_first_order_quadratic_composition(self):
        # train objective 0.5 t^2 at t=1 with its gradient detached inside the
        # inner step reproduces the first-order total gradient 1 - alpha
        alpha = 0.3
        tape = Tape()
        t = tape.param(np.asarray(1.0), "t")
        t_prime = T.sub(t, T.scale(detach(t), alpha))  # inner grad of 0.5 t^2 is t
        gap = T.sub(t_prime, Tensor(np.asarray(1.0)))
        total = T.add(T.scale(T.mul(t, t), 0.5), T.scale(T.mul(gap, gap), 0.5))
        g = backward(total, ["t"])
        assert abs(float(g["t"]) - (1.0 - alpha)) < 1e-12


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
            tape.const(np.ones(1))
        with pytest.raises(GraphError):
            tape.param(np.ones(3), "w")  # not the consumed leaf handed back

    def test_constant_operand_takes_no_gradient(self):
        """matmul(tape.const(x), W): no node and no input gradient for the
        constant, and W's gradient has the bits it has when x is a leaf too."""
        rng = np.random.default_rng(14)
        x, w, u = rng.normal(size=(9, 4)), rng.normal(size=(4, 6)), rng.normal(size=(9, 6))

        def loss(tape, x_entry):
            out = T.matmul(x_entry, tape.param(w, "w"))
            return out, T.reduce_sum(T.mul(out, tape.const(u)))

        tape = Tape()
        c = tape.const(x)
        out, total = loss(tape, c)
        assert c.tape is tape and all(n is not c for n in tape.nodes)
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
        tape = Tape()
        c = T.relu(T.scale(tape.const(np.array([1.0, -2.0])), 3.0))
        assert c.tape is tape and not tape.nodes
        w = tape.param(np.array([0.5, 0.25]), "w")
        g = backward(T.reduce_sum(T.mul(c, w)), ["w"])
        assert_same_bits(g["w"], np.array([3.0, 0.0]))

    def test_constant_loss_gives_zero_gradients(self):
        tape = Tape()
        tape.param(np.ones(3), "w")
        loss = T.reduce_sum(tape.const(np.arange(3.0)))
        g = backward(loss, ["w"])
        np.testing.assert_array_equal(g["w"], np.zeros(3))
        with pytest.raises(GraphError):
            backward(loss, ["w"])

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.param(np.ones(2), "a")
        b = t2.param(np.ones(2), "b")
        with pytest.raises(GraphError):
            T.add(a, b)

    def test_param_reentry_shares_leaf(self):
        tape = Tape()
        w1 = tape.param(np.array([2.0]), "w")
        w2 = tape.param(np.array([2.0]), "w")
        assert w1 is w2
        g = backward(T.reduce_sum(T.add(w1, w2)), ["w"])
        np.testing.assert_array_equal(g["w"], [2.0])

    # Each case builds a loss on a tape from fixed input arrays; "p" and "q"
    # are parameter leaves, "c" is a tape constant (no node, no gradient).
    OWNERSHIP_CASES = {
        "fan_in_add_p_p": lambda t, x: T.reduce_sum(
            T.mul(T.add(t.param(x["p"], "p"), t.param(x["p"], "p")), t.const(x["c"]))),
        "pass_through_add": lambda t, x: T.reduce_sum(
            T.add(t.param(x["p"], "p"), t.param(x["q"], "q"))),
        "pass_through_sub": lambda t, x: T.reduce_sum(
            T.sub(t.param(x["p"], "p"), t.param(x["q"], "q"))),
        "pass_through_scale_grad": lambda t, x: T.reduce_sum(
            T.add(T.scale_grad(t.param(x["p"], "p"), 1.0), t.param(x["q"], "q"))),
        "scale_by_0d": lambda t, x: T.reduce_sum(
            T.scale_by(t.param(x["p"], "p"), t.param(x["q"][0], "q"))),
        "const_operand_add": lambda t, x: T.reduce_sum(
            T.add(T.add(t.param(x["p"], "p"), t.const(x["c"])), t.param(x["q"], "q"))),
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
        rng = np.random.default_rng(3)
        bundle, _ = random_bundle(rng, "dann")
        batch = random_batch(rng)
        wanted = bundle.theta_ids + bundle.classifier.param_ids
        tape = Tape()
        g = backward(optim._cls_loss(bundle, batch, tape), wanted)
        params = {pid: arr for pid, arr in bundle.network_params().items()
                  if pid in wanted}
        fd = finite_diff_grad(
            lambda _: float(optim._cls_loss(bundle, batch, None).values),
            params, h=1e-5)
        for pid in wanted:
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


class TestDeterminism:
    def test_identical_forward_passes_bitwise(self):
        rng = np.random.default_rng(4)
        x = rand(rng, 5, 3)
        w = rand(rng, 3, 4)

        def forward():
            tape = Tape()
            out = T.log_softmax(T.matmul(tape.const(x), tape.param(w, "w")))
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

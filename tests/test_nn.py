import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalign import nn
from metalign import tensor as T
from metalign.tensor import Tape, Tensor, backward, finite_diff_grad


def make_bundle(seed=0, hidden=(8, 8), d=3, k=4, variant="dann"):
    extractor = nn.FeatureExtractor([d, *hidden])
    classifier = nn.ClassifierHead(extractor.out_dim, k)
    disc_in = k if variant == "dannpe" else extractor.out_dim
    disc = None if variant == "mmd" else nn.DomainDiscriminator(disc_in, (8, 8))
    bundle = nn.ModelBundle(
        extractor=extractor, classifier=classifier, discriminator=disc,
        group_weights=nn.GroupWeights.init(2),
        groups=nn.group_params(extractor, 2))
    nn.init_params(bundle, seed)
    return bundle


class TestInit:
    def test_same_seed_bitwise_identical(self):
        b1, b2 = make_bundle(seed=9), make_bundle(seed=9)
        for pid, arr in b1.all_params().items():
            assert np.array_equal(arr, b2.all_params()[pid])

    def test_different_seed_differs(self):
        b1, b2 = make_bundle(seed=1), make_bundle(seed=2)
        assert not np.array_equal(b1.extractor.layers[0].weight,
                                  b2.extractor.layers[0].weight)

    def test_biases_zero(self):
        bundle = make_bundle()
        for layer in bundle.extractor.layers + bundle.classifier.layers:
            assert np.all(layer.bias == 0.0)

    def test_beta_init_budget_over_groups(self):
        gw = nn.GroupWeights.init(4, budget=4.0)
        np.testing.assert_array_equal(gw.beta, [1.0, 1.0, 1.0, 1.0])
        gw = nn.GroupWeights.init(2)  # budget defaults to group count
        np.testing.assert_array_equal(gw.beta, [1.0, 1.0])
        assert gw.budget == 2.0


class TestFeatureExtractor:
    def test_identity_config_passthrough(self):
        g = nn.FeatureExtractor([3])
        x = np.random.default_rng(0).uniform(-1, 1, size=(5, 3))
        np.testing.assert_array_equal(g.forward(Tensor(x)).values, x)

    def test_output_shape(self):
        bundle = make_bundle()
        for n in (1, 7):
            x = Tensor(np.zeros((n, 3)))
            assert bundle.extractor.forward(x).values.shape == (n, 8)

    def test_input_width_checked(self):
        bundle = make_bundle()
        with pytest.raises(T.DimensionError):
            bundle.extractor.forward(Tensor(np.zeros((2, 5))))

    def test_first_layer_gradient_matches_fd(self):
        bundle = make_bundle(seed=3)
        x = np.random.default_rng(1).uniform(-2, 2, size=(4, 3))
        wid = bundle.extractor.layers[0].weight_id

        def value():
            out = bundle.extractor.forward(Tensor(x))
            return float(T.reduce_mean(T.mul(out, out)).values)

        tape = Tape()
        out = bundle.extractor.forward(tape.const(x))
        g = backward(T.reduce_mean(T.mul(out, out)), [wid])
        fd = finite_diff_grad(lambda _: value(),
                              {wid: bundle.extractor.layers[0].weight})
        np.testing.assert_allclose(g[wid], fd[wid], rtol=1e-4, atol=1e-6)


class TestClassifier:
    def test_single_row_logit_count(self):
        bundle = make_bundle()
        f = Tensor(np.zeros((1, 8)))
        assert bundle.classifier.forward(f).values.shape == (1, 4)

    def test_softmax_rows_normalized(self):
        bundle = make_bundle(seed=5)
        f = Tensor(np.random.default_rng(2).uniform(-2, 2, size=(6, 8)))
        logits = bundle.classifier.forward(f)
        probs = np.exp(T.log_softmax(logits).values)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestDiscriminator:
    def test_zero_params_give_half(self):
        disc = nn.DomainDiscriminator(4, (8, 8))
        out = disc.forward(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        np.testing.assert_array_equal(out.values, np.full((5, 1), 0.5))

    def test_outputs_strictly_inside_unit_interval(self):
        bundle = make_bundle(seed=7)
        disc = bundle.discriminator
        extreme = Tensor(np.array([[1e6] * 8, [-1e6] * 8, [0.0] * 8]))
        out = disc.forward(extreme).values
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_gradient_matches_fd(self):
        bundle = make_bundle(seed=11)
        disc = bundle.discriminator
        z = np.random.default_rng(3).uniform(-2, 2, size=(5, 8))

        def build(tape):
            zt = tape.const(z) if tape else Tensor(z)
            out = disc.forward(zt)
            return T.reduce_mean(T.mul(out, out))

        tape = Tape()
        g = backward(build(tape), disc.param_ids)
        fd = finite_diff_grad(lambda _: float(build(None).values), disc.params())
        for pid in disc.param_ids:
            np.testing.assert_allclose(g[pid], fd[pid], rtol=1e-4, atol=1e-6)


class TestGrl:
    def test_forward_identity(self):
        x = Tensor(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(nn.grl(x, 1.0).values, [1.0, 2.0])

    def test_sign_flip_lambda_one(self):
        tape = Tape()
        x = tape.param(np.array([1.0, -2.0]), "x")
        g = backward(T.reduce_sum(T.mul(nn.grl(x, 1.0), Tensor([3.0, 4.0]))), ["x"])
        np.testing.assert_array_equal(g["x"], [-3.0, -4.0])

    def test_lambda_zero_kills_gradient(self):
        tape = Tape()
        x = tape.param(np.array([1.0, -2.0]), "x")
        g = backward(T.reduce_sum(T.mul(nn.grl(x, 0.0), Tensor([3.0, 4.0]))), ["x"])
        np.testing.assert_array_equal(g["x"], [0.0, 0.0])

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            nn.grl(Tensor(np.ones(2)), -1.0)

    def test_parameter_gradients_scale_by_minus_lambda(self):
        bundle = make_bundle(seed=13)
        x = np.random.default_rng(5).uniform(-2, 2, size=(4, 3))
        lam = 2.0  # power of two so the scaling itself is exact

        def grads(use_grl):
            tape = Tape()
            feats = bundle.extractor.forward(tape.const(x))
            z = nn.grl(feats, lam) if use_grl else feats
            out = bundle.discriminator.forward(z)
            return backward(T.reduce_mean(T.mul(out, out)), bundle.theta_ids)

        g_flip, g_plain = grads(True), grads(False)
        for pid in bundle.theta_ids:
            np.testing.assert_array_equal(g_flip[pid], -lam * g_plain[pid])


class TestGroups:
    def test_one_layer_per_group(self):
        g = nn.FeatureExtractor([3, 4, 4, 4, 4])
        groups = nn.group_params(g, 4)
        assert [len(grp) for grp in groups] == [2, 2, 2, 2]

    def test_single_group_contains_everything(self):
        g = nn.FeatureExtractor([3, 4, 4])
        groups = nn.group_params(g, 1)
        assert groups == [g.param_ids]

    def test_remainder_goes_to_earlier_groups(self):
        g = nn.FeatureExtractor([3, 4, 4, 4, 4, 4])  # 5 layers
        groups = nn.group_params(g, 4)
        assert [len(grp) // 2 for grp in groups] == [2, 1, 1, 1]

    def test_out_of_range_rejected(self):
        g = nn.FeatureExtractor([3, 4, 4])
        for m in (0, 3):
            with pytest.raises(ValueError):
                nn.group_params(g, m)

    def test_default_group_count(self):
        assert nn.default_group_count(2) == 2
        assert nn.default_group_count(4) == 4
        assert nn.default_group_count(9) == 4

    @settings(max_examples=20, deadline=None)
    @given(layers=st.integers(min_value=1, max_value=9), m=st.integers(1, 9))
    def test_partition_property(self, layers, m):
        if m > layers:
            return
        g = nn.FeatureExtractor([3] + [4] * layers)
        groups = nn.group_params(g, m)
        flat = [pid for grp in groups for pid in grp]
        assert sorted(flat) == sorted(g.param_ids)
        assert len(flat) == len(set(flat))
        assert nn.group_params(g, m) == groups  # stable across calls

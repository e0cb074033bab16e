import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalign import losses, nn, optim
from metalign import tensor as T
from metalign.gradcheck import random_batch, random_bundle
from metalign.losses import AlignmentVariant
from metalign.tensor import Tape, Tensor, backward


def mmd2_oracle(fs, ft, sigma):
    """Independent double-loop V-statistic; math.exp per pair."""
    def kern(a, b):
        d2 = sum((x - y) ** 2 for x, y in zip(a, b))
        return math.exp(-d2 / (2.0 * sigma))

    ns, nt = len(fs), len(ft)
    ss = sum(kern(fs[i], fs[j]) for i in range(ns) for j in range(ns)) / ns**2
    tt = sum(kern(ft[i], ft[j]) for i in range(nt) for j in range(nt)) / nt**2
    st_ = sum(kern(fs[i], ft[j]) for i in range(ns) for j in range(nt)) / (ns * nt)
    return ss + tt - 2.0 * st_


def domain_loss_oracle(ds, dt, ws=None, wt=None):
    """Scalar-loop oracle for the two-domain BCE with mean-one weights."""
    ds = [min(max(v, losses.EPS), 1 - losses.EPS) for v in ds]
    dt = [min(max(v, losses.EPS), 1 - losses.EPS) for v in dt]
    ws = [1.0] * len(ds) if ws is None else [w / (sum(ws) / len(ws)) for w in ws]
    wt = [1.0] * len(dt) if wt is None else [w / (sum(wt) / len(wt)) for w in wt]
    s = -sum(w * math.log(d) for w, d in zip(ws, ds)) / len(ds)
    t = -sum(w * math.log(1.0 - d) for w, d in zip(wt, dt)) / len(dt)
    return s + t


class TestCrossEntropy:
    def test_one_hot_prediction_is_zero(self):
        logits = Tensor(np.array([[500.0, 0.0, 0.0], [0.0, 500.0, 0.0]]))
        assert float(losses.cross_entropy(logits, np.array([0, 1])).values) == 0.0

    def test_uniform_prediction_k4(self):
        loss = losses.cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1, 3]))
        assert abs(float(loss.values) - math.log(4.0)) < 1e-12

    def test_direct_formula(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]])))
        loss = losses.cross_entropy(logits, np.array([0]))
        assert abs(float(loss.values) + math.log(0.7)) < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            losses.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ValueError):
            losses.cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))

    def test_nonnegative_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = Tensor(rng.uniform(-4, 4, size=(5, 3)))
            labels = rng.integers(0, 3, size=5)
            assert float(losses.cross_entropy(logits, labels).values) >= 0.0


class TestDomainClsLoss:
    def test_all_half_gives_two_log_two(self):
        loss = losses.domain_cls_loss(Tensor(np.full((4, 1), 0.5)),
                                      Tensor(np.full((3, 1), 0.5)))
        assert abs(float(loss.values) - 2.0 * math.log(2.0)) < 1e-12

    def test_perfect_discrimination_limit(self):
        # the EPS clamp floors the loss near -2*log(1 - EPS) ~ 2e-7
        loss = losses.domain_cls_loss(Tensor(np.full((4, 1), 1.0 - 1e-9)),
                                      Tensor(np.full((3, 1), 1e-9)))
        assert float(loss.values) < 1e-6

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ds = rng.uniform(0.01, 0.99, size=(6, 1))
            dt = rng.uniform(0.01, 0.99, size=(4, 1))
            got = float(losses.domain_cls_loss(Tensor(ds), Tensor(dt)).values)
            want = domain_loss_oracle(ds.ravel(), dt.ravel())
            assert abs(got - want) < 1e-12

    def test_weighted_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        ds = rng.uniform(0.05, 0.95, size=(5, 1))
        dt = rng.uniform(0.05, 0.95, size=(4, 1))
        ws = rng.uniform(0.1, 2.0, size=5)
        wt = rng.uniform(0.1, 2.0, size=4)
        got = float(losses.domain_cls_loss(Tensor(ds), Tensor(dt),
                                           Tensor(ws), Tensor(wt)).values)
        want = domain_loss_oracle(ds.ravel(), dt.ravel(), list(ws), list(wt))
        assert abs(got - want) < 1e-12

    def test_clamp_saturated_outputs_and_flag(self):
        tape = Tape()
        d = tape.param(np.array([[1.0], [0.5]]), "d")
        loss = losses.domain_cls_loss(d, Tensor(np.array([[0.5]])))
        assert np.isfinite(float(loss.values))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            losses.domain_cls_loss(Tensor(np.full((2, 1), 0.5)),
                                   Tensor(np.full((2, 1), 0.5)),
                                   Tensor(np.array([1.0, -0.1])))


class TestEntropyWeights:
    def test_one_hot_gives_one(self):
        w = losses.entropy_weights(Tensor(np.array([[1.0, 0.0, 0.0]])))
        assert float(w.values[0]) == 1.0

    def test_uniform_gives_one_over_k(self):
        for k in (2, 4, 5):
            w = losses.entropy_weights(Tensor(np.full((1, k), 1.0 / k)))
            assert abs(float(w.values[0]) - 1.0 / k) < 1e-12

    def test_half_half(self):
        w = losses.entropy_weights(Tensor(np.array([[0.5, 0.5, 0.0, 0.0]])))
        assert abs(float(w.values[0]) - 0.5) < 1e-12

    def test_detached(self):
        assert losses.entropy_weights(Tensor(np.array([[0.3, 0.7]]))).tape is None

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            losses.entropy_weights(Tensor(np.array([[0.9, 0.4]])))
        with pytest.raises(ValueError):
            losses.entropy_weights(Tensor(np.array([[-0.1, 1.1]])))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2,
                    max_size=6))
    def test_range_property(self, raw):
        row = np.array(raw) / np.sum(raw)
        w = float(losses.entropy_weights(Tensor(row[None, :])).values[0])
        assert 0.0 < w <= 1.0 + 1e-15


class TestMmd:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(10, 4))
        v = float(losses.mmd2_rbf(Tensor(f), Tensor(f.copy()), 1.0).values)
        assert abs(v) <= 1e-12

    def test_single_pair_closed_form(self):
        a, b = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        sigma = 2.0
        v = float(losses.mmd2_rbf(Tensor(a), Tensor(b), sigma).values)
        want = 2.0 - 2.0 * math.exp(-25.0 / (2.0 * sigma))
        assert abs(v - want) < 1e-12

    def test_distant_pair_approaches_two(self):
        a, b = np.array([[0.0]]), np.array([[1e6]])
        v = float(losses.mmd2_rbf(Tensor(a), Tensor(b), 1.0).values)
        assert abs(v - 2.0) < 1e-15

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            ns, nt = rng.integers(1, 65), rng.integers(1, 65)
            h = rng.integers(1, 17)
            sigma = float(rng.uniform(0.3, 4.0))
            fs = rng.normal(size=(ns, h))
            ft = rng.normal(size=(nt, h))
            got = float(losses.mmd2_rbf(Tensor(fs), Tensor(ft), sigma).values)
            assert abs(got - mmd2_oracle(fs, ft, sigma)) < 1e-10
            assert got >= -1e-12

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        fs, ft = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
        sigma = 1.7
        ab = float(losses.mmd2_rbf(Tensor(fs), Tensor(ft), sigma).values)
        ba = float(losses.mmd2_rbf(Tensor(ft), Tensor(fs), sigma).values)
        assert abs(ab - ba) < 1e-14
        perm = rng.permutation(7)
        pp = float(losses.mmd2_rbf(Tensor(fs[perm]), Tensor(ft), sigma).values)
        assert abs(ab - pp) < 1e-14

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            losses.mmd2_rbf(Tensor(np.zeros((0, 3))), Tensor(np.zeros((2, 3))), 1.0)

    def test_median_heuristic_positive(self):
        rng = np.random.default_rng(6)
        assert losses.median_sq_dist(rng.normal(size=(8, 3)),
                                     rng.normal(size=(5, 3))) > 0.0


class TestBetaPenalty:
    def test_budget_met(self):
        v = losses.beta_penalty(Tensor(np.ones(4)), 4.0)
        assert float(v.values) == 0.0

    def test_unit_deviation(self):
        v = losses.beta_penalty(Tensor(np.array([2.0, 1.0, 1.0, 1.0])), 4.0)
        assert float(v.values) == 1.0

    def test_subgradient_is_sign(self):
        for beta, want in ((np.array([2.0, 1.0]), 1.0),
                           (np.array([0.2, 0.3]), -1.0),
                           (np.array([1.0, 1.0]), 0.0)):
            tape = Tape()
            leaf = tape.param(beta, "beta")
            g = backward(losses.beta_penalty(leaf, 2.0), ["beta"])
            np.testing.assert_array_equal(g["beta"], np.full(2, want))


class TestAlignmentLoss:
    def test_mmd_identical_features_zero(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(6, 4))
        variant = AlignmentVariant("mmd", sigma=1.0)
        loss, info = losses.alignment_loss(variant, Tensor(f), Tensor(f.copy()))
        assert abs(float(loss.values)) <= 1e-12
        assert info.dom_cls is None

    def test_mmd_requires_sigma(self):
        with pytest.raises(ValueError):
            losses.alignment_loss(AlignmentVariant("mmd"), Tensor(np.ones((2, 2))),
                                  Tensor(np.ones((2, 2))))

    def test_dann_theta_gradient_is_minus_lambda_of_unflipped(self):
        rng = np.random.default_rng(8)
        bundle, variant = random_bundle(rng, "dann")
        variant.grl_lambda = 2.0  # power of two: scaling is exact
        batch = random_batch(rng)

        tape = Tape()
        loss, _ = optim._align_loss(bundle, batch, variant, tape)
        g_flip = backward(loss, bundle.theta_ids)

        # same objective without the reversal
        tape = Tape()
        fs = bundle.extractor.forward(tape.const(batch.src_features))
        ft = bundle.extractor.forward(tape.const(batch.tgt_features))
        plain = losses.domain_cls_loss(bundle.discriminator.forward(fs),
                                       bundle.discriminator.forward(ft))
        g_plain = backward(plain, bundle.theta_ids)
        for pid in bundle.theta_ids:
            np.testing.assert_array_equal(g_flip[pid], -2.0 * g_plain[pid])

    def test_sign_relation_between_dom_cls_and_dom(self):
        # larger discriminator BCE means smaller alignment objective: evaluate
        # both scalars across perturbed discriminators and compare orderings
        rng = np.random.default_rng(9)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        pairs = []
        for _ in range(5):
            for layer in bundle.discriminator.net.layers:
                layer.weight[...] += rng.normal(0, 0.3, size=layer.weight.shape)
            _, info = optim._align_loss(bundle, batch, variant, None)
            pairs.append((info.dom_cls, info.dom))
        pairs.sort()
        doms = [d for _, d in pairs]
        assert doms == sorted(doms, reverse=True)

    def test_dannpe_uses_probability_inputs(self):
        rng = np.random.default_rng(10)
        bundle, variant = random_bundle(rng, "dannpe")
        batch = random_batch(rng)
        assert bundle.discriminator.net.widths[0] == bundle.classifier.num_classes
        loss, info = optim._align_loss(bundle, batch, variant, None)
        assert np.isfinite(float(loss.values))
        assert info.dom == -info.dom_cls

    @pytest.mark.parametrize("last_bias,clamped", [
        (None, False), (50.0, True), (np.nan, True),
    ], ids=["plain", "saturated", "nan"])
    def test_info_reports_clamped_outputs(self, last_bias, clamped):
        rng = np.random.default_rng(11)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        if last_bias is not None:
            bundle.discriminator.net.layers[-1].bias[...] = last_bias
        _, info = optim._align_loss(bundle, batch, variant, Tape())
        assert info.clamped is clamped

    def test_all_loss_gradients_match_fd(self):
        # covered exhaustively by the gradcheck harness; spot-check one here
        from metalign.gradcheck import loss_checks
        for res in loss_checks(seed=123):
            assert res.ok, f"{res.name}: {res.err}"

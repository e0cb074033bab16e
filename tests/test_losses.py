import gc
import math
import weakref

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

    @pytest.mark.parametrize("value,clamped", [
        (losses.EPS, False), (1.0 - losses.EPS, False),
        (np.nextafter(losses.EPS, 0.0), True), (np.nextafter(1.0 - losses.EPS, 1.0), True),
        (np.nan, True),
    ], ids=["at_eps", "at_one_minus_eps", "below_eps", "above_one_minus_eps", "nan"])
    def test_clamped_flag_per_domain(self, value, clamped):
        """An output exactly at a clamp bound is not clamped; one past it or a
        NaN is, and the flag names the domain that holds it."""
        half = np.full((3, 1), 0.5)
        odd = half.copy()
        odd[1] = value
        for d_src, d_tgt, want in ((odd, half, [clamped, False]), (half, odd, [False, clamped])):
            flags = []
            losses.domain_cls_loss(Tensor(d_src), Tensor(d_tgt), clamped=flags)
            assert flags == want

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

    def test_records_nine_nodes_and_backward_frees_them(self):
        """One evaluation is 3 pairwise_sqdist, 3 rbf_mean, add, scale and
        sub; with gc disabled, backward leaves no node, array or tape alive."""
        rng = np.random.default_rng(8)
        tape = Tape()
        fs = tape.param(rng.normal(size=(6, 3)), "fs")
        ft = tape.param(rng.normal(size=(5, 3)), "ft")
        first = len(tape.nodes)
        loss = losses.mmd2_rbf(fs, ft, 1.3)
        nodes = tape.nodes[first:]
        kinds = sorted(node._vjp.__qualname__.split(".")[0] for node in nodes)
        assert kinds == sorted(["pairwise_sqdist"] * 3 + ["rbf_mean"] * 3
                               + ["add", "scale", "sub"])
        held = []
        for node in nodes[:-1]:
            held.append(weakref.ref(node.values))
            held.extend(weakref.ref(c.cell_contents) for c in node._vjp.__closure__
                        if isinstance(c.cell_contents, np.ndarray))
        del nodes, node
        tape_ref = weakref.ref(tape)
        gc.collect()
        gc.disable()
        try:
            grads = backward(loss, ["fs", "ft"])
            assert all(ref() is None for ref in held)  # while the loss still lives
            del tape, fs, ft, loss
            assert tape_ref() is None
        finally:
            gc.enable()
        assert set(grads) == {"fs", "ft"}

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            losses.mmd2_rbf(Tensor(np.zeros((0, 3))), Tensor(np.zeros((2, 3))), 1.0)

    def test_median_heuristic_positive(self):
        rng = np.random.default_rng(6)
        assert losses.median_sq_dist(rng.normal(size=(8, 3)),
                                     rng.normal(size=(5, 3))) > 0.0


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

        loss, _ = optim._align_loss(bundle, batch, variant, bundle.params(Tape()))
        g_flip = backward(loss, [nn.FLAT_ID])[nn.FLAT_ID]

        # same objective without the reversal
        params = bundle.params(Tape())
        fs = bundle.extractor.forward(Tensor(batch.src_features), params)
        ft = bundle.extractor.forward(Tensor(batch.tgt_features), params)
        plain = losses.domain_cls_loss(bundle.discriminator.forward(fs, params),
                                       bundle.discriminator.forward(ft, params))
        g_plain = backward(plain, [nn.FLAT_ID])[nn.FLAT_ID]
        theta = bundle.spans[bundle.extractor]
        np.testing.assert_array_equal(g_flip[theta], -2.0 * g_plain[theta])

    def test_sign_relation_between_dom_cls_and_dom(self):
        # larger discriminator BCE means smaller alignment objective: evaluate
        # both scalars across perturbed discriminators and compare orderings
        rng = np.random.default_rng(9)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        pairs = []
        for _ in range(5):
            for layer in bundle.discriminator.layers:
                layer.weight[...] += rng.normal(0, 0.3, size=layer.weight.shape)
            _, info = optim._align_loss(bundle, batch, variant,
                                        nn.Params(bundle.network_params()))
            pairs.append((info.dom_cls, info.dom))
        pairs.sort()
        doms = [d for _, d in pairs]
        assert doms == sorted(doms, reverse=True)

    def test_dannpe_uses_probability_inputs(self):
        rng = np.random.default_rng(10)
        bundle, variant = random_bundle(rng, "dannpe")
        batch = random_batch(rng)
        assert bundle.discriminator.widths[0] == bundle.classifier.num_classes
        loss, info = optim._align_loss(bundle, batch, variant,
                                       nn.Params(bundle.network_params()))
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
            bundle.discriminator.layers[-1].bias[...] = last_bias
        _, info = optim._align_loss(bundle, batch, variant,
                                    nn.Params(bundle.network_params(), Tape()))
        assert info.clamped is clamped

    def test_info_flags_a_clamp_in_either_domain(self):
        """Outputs clamped in one domain only still flag the step."""
        disc = nn.DomainDiscriminator(2, hidden=(2, 2))
        for layer in disc.layers[:-1]:
            layer.weight[...] = np.eye(2)
        disc.layers[-1].weight[...] = 100.0  # sigmoid(200) rounds to 1 for a ones row
        calm, saturated = np.zeros((3, 2)), np.ones((3, 2))
        for fs, ft in ((calm, saturated), (saturated, calm), (calm, calm)):
            _, info = losses.alignment_loss(AlignmentVariant("dann"), Tensor(fs), Tensor(ft),
                                            nn.Params(disc.params()), discriminator=disc)
            assert info.clamped is (fs is saturated or ft is saturated)

    def test_all_loss_gradients_match_fd(self):
        # covered exhaustively by the gradcheck harness; spot-check one here
        from metalign.gradcheck import loss_checks
        for res in loss_checks(seed=123):
            assert res.ok, f"{res.name}: {res.err}"

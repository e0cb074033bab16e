import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalign import losses, nn, runner
from metalign import tensor as T
from metalign.config import parse_config
from metalign.tensor import Tape, Tensor, backward, finite_diff_grad


def make_bundle(seed=0, variant="dann", hidden=(8, 8), groups=2, budget=None):
    """Hidden layers of 8 and 8 in 2 groups on 3 inputs and 4 classes, unless given."""
    doc = {"seed": 0, "iterations": 1, "batch_size": 1,
           "dataset": {"generator": "two_moons"},
           "model": {"hidden": list(hidden), "groups": groups, "disc_hidden": [8, 8]},
           "variant": {"name": variant}, "optimizer": {"budget": budget}}
    return runner.build_bundle(parse_config(doc), 3, 4, init_seed=seed)[0]


def plain(net):
    """Constant zero parameters of a forward pass through net alone, in one array."""
    flat, slices = nn.flatten({pid: np.zeros(shape) for pid, shape in net.shapes.items()})
    return nn.Params(Tensor(flat), slices)


def arrays_held(obj):
    """Every np.ndarray reachable from obj through attributes, lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [arr for item in obj for arr in arrays_held(item)]
    return arrays_held(vars(obj)) if hasattr(obj, "__dict__") else []


class TestParams:
    def test_one_leaf_holds_every_parameter_and_names_its_parts(self):
        """One leaf holds a copy of every array; slices name each id's part,
        and backward answers for the leaf alone."""
        bundle = make_bundle()
        tape = Tape()
        arrays = {pid: arr for pid, arr in bundle.all_params().items() if pid != nn.BETA_ID}
        flat, slices = nn.flatten(arrays)
        params = nn.Params(tape.param(flat, nn.FLAT_ID), slices)
        out = bundle.extractor.forward(Tensor(np.ones((2, 3))), params)
        leaves = [n for n in tape.nodes if n.param_id is not None]
        assert [n.param_id for n in leaves] == [nn.FLAT_ID] and leaves[0] is params.p
        assert not np.shares_memory(params.p.values, bundle.flat)
        for pid, arr in arrays.items():
            np.testing.assert_array_equal(params.p.values[params.slices[pid]], arr.ravel())
        g = backward(T.reduce_sum(out), [nn.FLAT_ID, "G.l1.b"])
        assert g.keys() == {nn.FLAT_ID} and g[nn.FLAT_ID].shape == params.p.shape
        np.testing.assert_array_equal(g[nn.FLAT_ID][params.slices["G.l1.b"]], np.full(8, 2.0))
        assert (g[nn.FLAT_ID][params.slices["C.l0.W"]] == 0.0).all()  # not read

    def test_without_a_tape_reads_constants_of_the_live_arrays(self):
        bundle = make_bundle()
        params = bundle.params()
        assert params.p.tape is None and params.p.values is bundle.flat
        assert params.slices is bundle.slices and params.theta is None
        tape = Tape()
        assert bundle.params(tape).p is tape.param(bundle.flat, nn.FLAT_ID)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        b1, b2 = make_bundle(seed=9), make_bundle(seed=9)
        for pid, arr in b1.all_params().items():
            assert np.array_equal(arr, b2.all_params()[pid])

    def test_different_seed_differs(self):
        b1, b2 = make_bundle(seed=1), make_bundle(seed=2)
        assert not np.array_equal(b1.all_params()["G.l0.W"], b2.all_params()["G.l0.W"])

    def test_biases_zero(self):
        bundle = make_bundle()
        for _, b in bundle.extractor.ids + bundle.classifier.ids:
            assert np.all(bundle.all_params()[b] == 0.0)

    def test_beta_init_budget_over_groups(self):
        bundle = make_bundle(hidden=(8, 8, 8, 8), groups=4, budget=4.0)
        np.testing.assert_array_equal(bundle.beta, [1.0, 1.0, 1.0, 1.0])
        bundle = make_bundle()  # budget defaults to group count
        np.testing.assert_array_equal(bundle.beta, [1.0, 1.0])
        assert bundle.budget == 2.0

    @pytest.mark.parametrize("groups,budget", [(3, None), (3, 1.7), (2, 0.3), (1, 5.0)])
    def test_beta_is_budget_over_groups_bitwise(self, groups, budget):
        """beta starts at budget/M in every group, with or without a configured
        budget; the budget is M when none is set, and init_params leaves beta be."""
        bundle = make_bundle(hidden=(8, 8, 8), groups=groups, budget=budget)
        want = float(groups) if budget is None else budget
        assert bundle.budget == want and type(bundle.budget) is float
        np.testing.assert_array_equal(bundle.beta.view(np.int64),
                                      np.full(groups, want / groups).view(np.int64))
        bundle.beta[...] = 0.5
        nn.init_params(bundle, seed=1)
        np.testing.assert_array_equal(bundle.beta, 0.5)


class TestLayout:
    """Every parameter is a view into bundle.flat: all_params() order, beta last."""

    @pytest.mark.parametrize("variant", losses.VARIANTS)
    def test_every_array_is_a_view_of_flat_in_order(self, variant):
        bundle = make_bundle(variant=variant)
        params = bundle.all_params()
        assert list(params)[-1] == nn.BETA_ID
        assert params[nn.BETA_ID] is bundle.beta
        base = bundle.flat.__array_interface__["data"][0]
        start = 0
        for pid, arr in params.items():
            assert np.shares_memory(arr, bundle.flat)
            assert arr.__array_interface__["data"][0] == base + arr.itemsize * start
            assert bundle.slices[pid] == slice(start, start + arr.size)
            start += arr.size
        assert start == bundle.flat.size and bundle.flat.dtype == np.float64

    @pytest.mark.parametrize("variant", losses.VARIANTS)
    def test_writes_in_place_land_in_flat(self, variant):
        bundle = make_bundle(seed=0, variant=variant)
        nn.init_params(bundle, seed=5)
        np.testing.assert_array_equal(bundle.flat, make_bundle(5, variant).flat)
        for pid, arr in bundle.all_params().items():
            arr[...] = 7.0
            assert np.all(bundle.flat[bundle.slices[pid]] == 7.0)
        bundle.all_params()["G.l0.b"][...] = -1.0
        assert np.all(bundle.flat[bundle.slices["G.l0.b"]] == -1.0)
        assert np.all(bundle.flat[bundle.slices["G.l0.W"]] == 7.0)

    @pytest.mark.parametrize("variant", losses.VARIANTS)
    def test_nets_hold_no_arrays(self, variant):
        """flat is the one owner of every parameter: no net of a built
        bundle keeps an array of its own, or a view."""
        bundle = make_bundle(variant=variant)
        assert len(bundle.nets) == (2 if variant == losses.MMD else 3)
        for net in bundle.nets:
            assert arrays_held(net) == []

    def test_all_params_views_an_array_laid_out_like_flat(self):
        bundle = make_bundle()
        arr = np.arange(bundle.flat.size, dtype=np.float64)
        views = bundle.all_params(arr)
        assert list(views) == list(bundle.slices)
        for pid, view in views.items():
            assert view.shape == bundle.all_params()[pid].shape
            assert np.shares_memory(view, arr)
            np.testing.assert_array_equal(view.ravel(), arr[bundle.slices[pid]])

    def test_group_mismatch_rejected(self):
        """The groups must list the extractor's ids in order: the theta' node
        relies on them tiling its part of flat."""
        bundle = make_bundle()
        for groups in ([["G.l0.W", "G.l0.b"]],
                       [["G.l1.W", "G.l1.b"], ["G.l0.W", "G.l0.b"]],
                       [["G.l0.W", "G.l0.b", "G.l1.W"], ["G.l1.b", "C.l0.W"]]):
            with pytest.raises(ValueError, match="partition"):
                nn.ModelBundle(bundle.extractor, bundle.classifier, bundle.discriminator,
                               groups, float(len(groups)))


class TestFeatureExtractor:
    def test_identity_config_passthrough(self):
        g = nn.FeatureExtractor([3])
        x = np.random.default_rng(0).uniform(-1, 1, size=(5, 3))
        np.testing.assert_array_equal(g.forward(Tensor(x), plain(g)).values, x)

    def test_output_shape(self):
        bundle = make_bundle()
        for n in (1, 7):
            x = Tensor(np.zeros((n, 3)))
            assert bundle.extractor.forward(x, bundle.params()).values.shape == (n, 8)

    def test_input_width_checked(self):
        bundle = make_bundle()
        with pytest.raises(T.DimensionError):
            bundle.extractor.forward(Tensor(np.zeros((2, 5))), bundle.params())

    def test_widths_of_unequal_layers(self):
        """out_dim is the last width and the input check names the first,
        with hidden widths that differ."""
        g = nn.FeatureExtractor([3, 8, 5])
        assert g.out_dim == 5
        with pytest.raises(T.DimensionError, match=r"n x 3 input, got \(2, 8\)"):
            g.forward(Tensor(np.zeros((2, 8))), plain(g))

    def test_takes_a_two_domain_stack(self):
        bundle = make_bundle()
        x = np.random.default_rng(4).uniform(-1, 1, size=(2, 5, 3))
        params = bundle.params()
        out = bundle.extractor.forward(Tensor(x), params).values
        assert out.shape == (2, 5, 8)
        for s in (0, 1):
            np.testing.assert_array_equal(out[s], bundle.extractor.forward(Tensor(x[s]), params).values)
        for shape in [(2, 5, 4), (3,), (1, 2, 5, 3)]:
            with pytest.raises(T.DimensionError):
                bundle.extractor.forward(Tensor(np.zeros(shape)), params)

    def test_first_layer_gradient_matches_fd(self):
        bundle = make_bundle(seed=3)
        x = np.random.default_rng(1).uniform(-2, 2, size=(4, 3))
        wid = bundle.extractor.ids[0][0]

        def value():
            out = bundle.extractor.forward(Tensor(x), bundle.params())
            return float(T.reduce_mean(T.mul(out, out)).values)

        out = bundle.extractor.forward(Tensor(x), bundle.params(Tape()))
        g = bundle.all_params(backward(T.reduce_mean(T.mul(out, out)), [nn.FLAT_ID])[nn.FLAT_ID])
        fd = finite_diff_grad(lambda _: value(),
                              {wid: bundle.all_params()[wid]})
        np.testing.assert_allclose(g[wid], fd[wid], rtol=1e-4, atol=1e-6)


class TestClassifier:
    def test_single_row_logit_count(self):
        bundle = make_bundle()
        f = Tensor(np.zeros((1, 8)))
        assert bundle.classifier.forward(f, bundle.params()).values.shape == (1, 4)

    def test_softmax_rows_normalized(self):
        bundle = make_bundle(seed=5)
        f = Tensor(np.random.default_rng(2).uniform(-2, 2, size=(6, 8)))
        logits = bundle.classifier.forward(f, bundle.params())
        probs = np.exp(T.log_softmax(logits).values)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestDiscriminator:
    def test_zero_params_give_half(self):
        disc = nn.DomainDiscriminator(4, (8, 8))
        out = disc.forward(Tensor(np.random.default_rng(0).normal(size=(5, 4))), plain(disc))
        np.testing.assert_array_equal(out.values, np.full((5, 1), 0.5))

    def test_outputs_strictly_inside_unit_interval(self):
        bundle = make_bundle(seed=7)
        disc = bundle.discriminator
        extreme = Tensor(np.array([[1e6] * 8, [-1e6] * 8, [0.0] * 8]))
        out = disc.forward(extreme, bundle.params()).values
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_hidden_widths_in_order(self):
        disc = nn.DomainDiscriminator(4, (8, 5))
        assert disc.widths == [4, 8, 5, 1]
        assert [disc.shapes[w] for w, _ in disc.ids] == [(4, 8), (8, 5), (5, 1)]
        with pytest.raises(T.DimensionError, match=r"n x 4 input, got \(3, 8\)"):
            disc.forward(Tensor(np.zeros((3, 8))), plain(disc))

    def test_takes_a_two_domain_stack(self):
        disc = nn.DomainDiscriminator(4, (8, 8))
        assert disc.forward(Tensor(np.zeros((2, 3, 4))), plain(disc)).values.shape == (2, 3, 1)
        for shape in [(2, 3, 5), (4,)]:
            with pytest.raises(T.DimensionError):
                disc.forward(Tensor(np.zeros(shape)), plain(disc))

    def test_gradient_matches_fd(self):
        bundle = make_bundle(seed=11)
        disc = bundle.discriminator
        z = np.random.default_rng(3).uniform(-2, 2, size=(5, 8))

        def build(tape):
            out = disc.forward(Tensor(z), bundle.params(tape))
            return T.reduce_mean(T.mul(out, out))

        g = bundle.all_params(backward(build(Tape()), [nn.FLAT_ID])[nn.FLAT_ID])
        fd = finite_diff_grad(lambda _: float(build(None).values),
                              {pid: bundle.all_params()[pid] for pid in disc.shapes})
        for pid in disc.shapes:
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
            params = bundle.params(Tape())
            feats = bundle.extractor.forward(Tensor(x), params)
            z = nn.grl(feats, lam) if use_grl else feats
            out = bundle.discriminator.forward(z, params)
            return backward(T.reduce_mean(T.mul(out, out)), [nn.FLAT_ID])[nn.FLAT_ID]

        g_flip, g_plain = grads(True), grads(False)
        theta = bundle.spans[bundle.extractor]
        np.testing.assert_array_equal(g_flip[theta], -lam * g_plain[theta])


class TestGroups:
    def test_one_layer_per_group(self):
        g = nn.FeatureExtractor([3, 4, 4, 4, 4])
        groups = nn.group_params(g, 4)
        assert [len(grp) for grp in groups] == [2, 2, 2, 2]

    def test_single_group_contains_everything(self):
        g = nn.FeatureExtractor([3, 4, 4])
        groups = nn.group_params(g, 1)
        assert groups == [list(g.shapes)]

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
        assert nn.default_group_count(1) == 1
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
        assert sorted(flat) == sorted(g.shapes)
        assert len(flat) == len(set(flat))
        assert nn.group_params(g, m) == groups  # stable across calls

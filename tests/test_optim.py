import gc
import glob
import json
import os
import types
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from metalign import data, losses, nn, optim
from metalign import tensor as T
from metalign.config import OptimizerConfig, load_config, parse_config
from metalign.gradcheck import quadratic_toy, random_batch, random_bundle
from metalign.optim import (ALIGNMENT, CLASSIFICATION, META_TEST, NonFiniteError,
                            ROLE_POLICIES, metaalign_grads,
                            metaalign_step, joint_grads, joint_step, sgd_update,
                            virtual_update)
from metalign.runner import build_bundle, run_training
from metalign.tensor import Tape, Tensor, backward, finite_diff_grad

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")
SHIPPED = sorted(os.path.basename(p) for p in glob.glob(os.path.join(CONFIGS, "*.json")))


def lay_out(arrays):
    """The arrays end to end in one float64 array, and each id's slice of it."""
    slices, start = {}, 0
    for pid, arr in arrays.items():
        slices[pid] = slice(start, start + arr.size)
        start += arr.size
    return np.concatenate(list(arrays.values()), axis=None), slices


def settings(lr=0.01, meta_lr=0.01, momentum=0.9, weight_decay=0.0):
    """A step's optimizer settings; budget is build_bundle's to read."""
    return OptimizerConfig(lr=lr, meta_lr=meta_lr, momentum=momentum,
                           weight_decay=weight_decay, budget=None)


def plain(arrays):
    """A leaf of a new tape holding arrays, laid out as nn.flatten does."""
    flat, slices = nn.flatten(arrays)
    return nn.Params(Tape().param(flat, nn.FLAT_ID), slices)


class TestSgd:
    def test_plain_descent_arithmetic(self):
        p = np.array([1.0])
        opt = settings(lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_update(p, np.array([2.0]), np.zeros(1), opt, 1)
        assert p[0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_gradient_fixed_point(self):
        p = np.array([3.0, -1.0])
        opt = settings(lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_update(p, np.zeros(2), np.zeros(2), opt, 2)
        np.testing.assert_array_equal(p, [3.0, -1.0])

    def test_momentum_matches_hand_unrolled_recurrence(self):
        eta, mu, g = 0.1, 0.9, 2.0
        p = np.array([1.0])
        opt, v = settings(lr=eta, momentum=mu, weight_decay=0.0), np.zeros(1)
        sgd_update(p, np.array([g]), v, opt, 1)
        sgd_update(p, np.array([g]), v, opt, 1)
        # v1 = g; p1 = p0 - eta v1; v2 = mu v1 + g; p2 = p1 - eta v2
        v1 = g
        p1 = 1.0 - eta * v1
        v2 = mu * v1 + g
        want = p1 - eta * v2
        assert p[0] == pytest.approx(want, abs=1e-15)

    def test_weight_decay_skips_exempt_params(self):
        p = np.array([1.0, 1.0])  # w, then beta after the decayed slice
        opt = settings(lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_update(p, np.zeros(2), np.zeros(2), opt, 1)
        assert p[0] == pytest.approx(1.0 - 0.1 * 0.5)
        assert p[1] == 1.0

    @staticmethod
    def sgd_oracle(params, grads, velocity, opt):
        """The update as it was written: v <- m*v + (g + wd*p); p <- p - lr*v,
        one parameter id at a time, with a velocity per id in the dict velocity."""
        for pid, p in params.items():
            g = grads[pid]
            if opt.weight_decay != 0.0 and pid != "beta":
                g = g + opt.weight_decay * p
            v = velocity.setdefault(pid, np.zeros_like(p))
            v *= opt.momentum
            v += g
            p -= opt.lr * v

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4, 0.37, 1.0])
    def test_bitwise_equal_to_oracle(self, weight_decay):
        rng = np.random.default_rng(21)
        shapes = {"G.l0.W": (2, 64), "G.l0.b": (64,), "C.l0.W": (64, 3), "beta": (2,)}
        want = {pid: rng.normal(size=shape) for pid, shape in shapes.items()}
        flat, slices = lay_out(want)
        opt = settings(lr=0.05, momentum=0.5, weight_decay=weight_decay)
        velocity, oracle = np.zeros_like(flat), {}
        for _ in range(5):
            grads = {pid: rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 3)
                     for pid, p in want.items()}
            sgd_update(flat, lay_out(grads)[0], velocity, opt, slices["beta"].start)
            self.sgd_oracle(want, grads, oracle, opt)
            for pid, s in slices.items():
                np.testing.assert_array_equal(flat[s].view(np.int64),
                                              want[pid].ravel().view(np.int64))
                np.testing.assert_array_equal(
                    velocity[s].view(np.int64),
                    oracle[pid].ravel().view(np.int64))

    def test_grads_must_cover_params(self):
        with pytest.raises(ValueError):
            sgd_update(np.ones(2), np.ones(1), np.zeros(2), settings(), 2)


class TestVelocity:
    """The SGD velocity lives in bundle.velocity, laid out like flat."""

    @pytest.mark.parametrize("step", ["joint", ALIGNMENT, CLASSIFICATION])
    def test_zeros_at_build_then_each_step_matches_the_oracle(self, step):
        doc = {"seed": 0, "iterations": 1, "batch_size": 1,
               "dataset": {"generator": "two_moons"},
               "model": {"hidden": [8, 8], "groups": 2, "disc_hidden": [8, 8]}}
        bundle, variant = build_bundle(parse_config(doc), 4, 3, init_seed=3)
        assert bundle.velocity.shape == bundle.flat.shape
        assert not np.shares_memory(bundle.velocity, bundle.flat)
        np.testing.assert_array_equal(bundle.velocity.view(np.int64), 0)
        opt = settings(lr=0.05, momentum=0.5, weight_decay=0.37)
        want, oracle = {pid: arr.copy() for pid, arr in bundle.all_params().items()}, {}
        rng = np.random.default_rng(13)
        for _ in range(2):
            batch = random_batch(rng)
            if step == "joint":
                grads = joint_grads(bundle, batch, variant)[0]
                joint_step(bundle, batch, variant, opt)
            else:
                grads = metaalign_grads(bundle, batch, variant, opt.meta_lr, step)[0]
                metaalign_step(bundle, batch, variant, opt, step)
            TestSgd.sgd_oracle(want, bundle.all_params(grads), oracle, opt)
            for pid, s in bundle.slices.items():
                np.testing.assert_array_equal(bundle.flat[s].view(np.int64),
                                              want[pid].ravel().view(np.int64))
                np.testing.assert_array_equal(bundle.velocity[s].view(np.int64),
                                              oracle[pid].ravel().view(np.int64))


class TestVirtualUpdate:
    def _setup(self, alpha, beta, theta=1.0, g=1.0):
        params = plain({"t": np.array([theta]), "beta": np.array([beta])})
        return virtual_update(params, np.array([g]), alpha, [[slice(0, 1)]])

    def test_alpha_zero_identity(self):
        prime = self._setup(alpha=0.0, beta=1.0, theta=0.7)
        assert prime.theta.values[0] == 0.7

    def test_zero_beta_group_unchanged(self):
        prime = self._setup(alpha=0.3, beta=0.0, theta=0.7, g=5.0)
        assert prime.theta.values[0] == 0.7

    def test_scalar_arithmetic(self):
        prime = self._setup(alpha=0.1, beta=1.0, theta=1.0, g=1.0)
        assert prime.theta.values[0] == pytest.approx(0.9, abs=1e-15)

    def test_backward_sends_one_to_theta_and_dot_to_beta(self):
        alpha = 0.25
        g_vec = np.array([2.0, -1.0])
        upstream = np.array([3.0, 5.0])
        params = plain({"t": np.array([1.0, 2.0]), "beta": np.array([1.5])})
        prime = virtual_update(params, g_vec, alpha, [[slice(0, 2)]])
        loss = T.reduce_sum(T.mul(prime.theta, Tensor(upstream)))
        g = backward(loss, [nn.FLAT_ID])[nn.FLAT_ID]  # [t, beta]
        np.testing.assert_array_equal(g[:2], upstream)
        assert g[2] == pytest.approx(-alpha * float(np.dot(g_vec, upstream)), abs=1e-15)


class TestRoleSchedule:
    def test_align_train_constant(self):
        assert ROLE_POLICIES["align_train"] == (ALIGNMENT,)

    def test_cls_train_constant(self):
        assert ROLE_POLICIES["cls_train"] == (CLASSIFICATION,)

    def test_alternate_parity(self):
        cycle = ROLE_POLICIES["alternate"]
        assert cycle == (ALIGNMENT, CLASSIFICATION)
        assert [cycle[i % len(cycle)] for i in range(3)] == [ALIGNMENT, CLASSIFICATION,
                                                             ALIGNMENT]

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            ROLE_POLICIES["sometimes"]

    def test_meta_test_is_other_task(self):
        assert META_TEST == {ALIGNMENT: CLASSIFICATION, CLASSIFICATION: ALIGNMENT}

    def test_unknown_meta_train_task(self):
        rng = np.random.default_rng(0)
        bundle, variant = random_bundle(rng, "dann")
        with pytest.raises(KeyError):
            metaalign_grads(bundle, random_batch(rng), variant, 0.1, "alignmnet")


class TestJointStep:
    def test_lambda_zero_matches_pure_supervised(self):
        rng = np.random.default_rng(0)
        bundle, variant = random_bundle(rng, "dann")
        variant.grl_lambda = 0.0
        batch = random_batch(rng)
        applied = bundle.all_params(joint_grads(bundle, batch, variant)[0])

        sup = backward(optim._cls_loss(bundle, batch, bundle.params(Tape())), [nn.FLAT_ID])
        sup = bundle.all_params(sup[nn.FLAT_ID])
        for pid in [*bundle.extractor.shapes, *bundle.classifier.shapes]:
            np.testing.assert_array_equal(applied[pid], sup[pid])

    def test_mmd_variant_has_no_discriminator(self):
        rng = np.random.default_rng(1)
        bundle, variant = random_bundle(rng, "mmd")
        assert bundle.discriminator is None
        applied, report = joint_grads(bundle, random_batch(rng), variant)
        assert all(not pid.startswith("D.") for pid in bundle.slices)
        assert applied.shape == bundle.flat.shape
        assert report.L_dom_cls is None

    def test_quadratic_toy_single_step(self):
        # one plain sgd step on a hand-checked quadratic: p <- p - eta*(p - 1)
        p = np.array([4.0])
        opt = settings(lr=0.25, momentum=0.0, weight_decay=0.0)
        tape = Tape()
        w = tape.param(p, "w")
        gap = T.sub(w, Tensor(np.array([1.0])))
        g = backward(T.scale(T.reduce_sum(T.mul(gap, gap)), 0.5), ["w"])
        sgd_update(p, g["w"], np.zeros(1), opt, 1)
        assert p[0] == pytest.approx(4.0 - 0.25 * 3.0, abs=1e-15)

    def test_beta_untouched(self):
        # the joint step leaves beta out: its slice of the step's gradient is
        # 0, so beta and its velocity keep their bits under momentum too
        for opt in (settings(momentum=0.0), settings()):
            rng = np.random.default_rng(2)
            bundle, variant = random_bundle(rng, "dann")
            before = bundle.beta.copy()
            for _ in range(3):
                joint_step(bundle, random_batch(rng), variant, opt)
            np.testing.assert_array_equal(bundle.beta.view(np.int64),
                                          before.view(np.int64))
            velocity = bundle.velocity[bundle.slices["beta"]]
            np.testing.assert_array_equal(velocity.view(np.int64), 0)


class TestMetaStep:
    @pytest.mark.parametrize("variant_name", losses.VARIANTS)
    @pytest.mark.parametrize("role_name", [ALIGNMENT, CLASSIFICATION])
    def test_alpha_zero_reduces_to_joint(self, variant_name, role_name):
        rng = np.random.default_rng(3)
        bundle, variant = random_bundle(rng, variant_name)
        batch = random_batch(rng)
        gj, _ = joint_grads(bundle, batch, variant)
        gm, _, _ = metaalign_grads(bundle, batch, variant, 0.0, role_name)
        beta = bundle.slices["beta"]
        assert float(np.max(np.abs(gj[:beta.start] - gm[:beta.start]))) <= 1e-12
        # beta receives only the budget subgradient
        sign = np.sign(bundle.beta.sum() - bundle.budget)
        np.testing.assert_array_equal(gm[beta], np.full(len(bundle.beta), sign))

    def test_alpha_to_zero_consistency(self):
        # the theta-gradient gap between the meta step and the joint step
        # shrinks linearly with alpha
        rng = np.random.default_rng(4)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        gj, _ = joint_grads(bundle, batch, variant)

        theta = bundle.spans[bundle.extractor]

        def gap(alpha):
            gm, _, _ = metaalign_grads(bundle, batch, variant, alpha,
                                       ALIGNMENT)
            return float(np.max(np.abs(gm[theta] - gj[theta])))

        g1, g2, g3 = gap(1e-2), gap(1e-3), gap(1e-4)
        c = g1 / 1e-2
        assert g2 <= 2.0 * c * 1e-3 + 1e-12
        assert g3 <= 2.0 * c * 1e-4 + 1e-12

    def test_role_symmetry_at_alpha_zero(self):
        rng = np.random.default_rng(5)
        bundle, variant = random_bundle(rng, "dannpe")
        batch = random_batch(rng)
        ga, _, _ = metaalign_grads(bundle, batch, variant, 0.0, ALIGNMENT)
        gc, _, _ = metaalign_grads(bundle, batch, variant, 0.0,
                                   CLASSIFICATION)
        assert float(np.max(np.abs(ga - gc))) <= 1e-12

    @pytest.mark.parametrize("variant_name", losses.VARIANTS)
    def test_beta_gradient_closed_form_exact(self, variant_name):
        rng = np.random.default_rng(6)
        bundle, variant = random_bundle(rng, variant_name)
        batch = random_batch(rng)
        alpha = 0.05
        applied, report, _ = metaalign_grads(bundle, batch, variant, alpha,
                                             ALIGNMENT)
        sign = float(np.sign(bundle.beta.sum() - bundle.budget))
        closed = np.array([-alpha * d + sign for d in report.grad_dot_per_group])
        np.testing.assert_array_equal(applied[bundle.slices["beta"]], closed)

    def test_beta_gradient_matches_fd_of_total(self):
        rng = np.random.default_rng(7)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        alpha = 0.05
        applied, _, g_train = metaalign_grads(bundle, batch, variant, alpha,
                                              ALIGNMENT)
        beta0 = bundle.beta.copy()
        fd = finite_diff_grad(
            lambda p: optim.meta_total_value(bundle, batch, variant, alpha,
                                             p["beta"], g_train, ALIGNMENT),
            {"beta": beta0}, h=1e-5)
        np.testing.assert_allclose(applied[bundle.slices["beta"]], fd["beta"],
                                   rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("beta,gap", [([1.5, 1.0], 0.5), ([0.25, 0.5], -1.25),
                                          ([1.25, 0.75], 0.0)],
                             ids=["above", "below", "at"])
    def test_budget_penalty_subgradient_and_value(self, beta, gap):
        """beta's gradient is -alpha times the group dots plus sign(sum(beta) - B),
        0 at the kink, and L_beta is |sum(beta) - B|; the budget is 2. Finite
        differences of meta_total_value, which holds the budget term, agree."""
        rng = np.random.default_rng(10)
        bundle, variant = random_bundle(rng, "dann")
        bundle.beta[...] = beta
        alpha, batch = 0.05, random_batch(rng)
        applied, record, g_train = metaalign_grads(bundle, batch, variant, alpha, ALIGNMENT)
        dots = np.array(record.grad_dot_per_group)
        np.testing.assert_array_equal(applied[bundle.slices["beta"]],
                                      -alpha * dots + np.sign(gap))
        assert record.L_beta == abs(gap)
        fd = finite_diff_grad(
            lambda p: optim.meta_total_value(bundle, batch, variant, alpha,
                                             p["beta"], g_train, ALIGNMENT),
            {"beta": np.array(beta)}, h=1e-5)
        np.testing.assert_allclose(applied[bundle.slices["beta"]], fd["beta"],
                                   rtol=1e-6, atol=1e-9)

    def test_closed_form_dots_are_formed_apart_from_the_tape(self, monkeypatch):
        """The record's group dots come from analysis.grad_dot, not from the
        sums group_step's vjp forms, so criterion 4's closed form checks the
        tape's beta gradient: a tensor-side np.dot one part in 2**30 too large
        moves that gradient away from -alpha * dots + sign(sum(beta) - B)."""
        skewed = types.ModuleType("numpy_skewed_dot")
        skewed.__getattr__ = lambda name: getattr(np, name)
        skewed.dot = lambda a, b: np.dot(a, b) * (1.0 + 2.0 ** -30)
        monkeypatch.setattr(T, "np", skewed)
        rng = np.random.default_rng(10)
        bundle, variant = random_bundle(rng, "dann")
        alpha = 0.05
        applied, record, _ = metaalign_grads(bundle, random_batch(rng), variant, alpha,
                                             ALIGNMENT)
        gap = bundle.beta.sum() - bundle.budget
        closed = -alpha * np.array(record.grad_dot_per_group) + np.sign(gap)
        got = applied[bundle.slices["beta"]]
        assert (got != closed).all()
        np.testing.assert_allclose(got, closed, rtol=1e-8)

    def test_total_dot_is_sum_of_group_dots(self):
        rng = np.random.default_rng(8)
        bundle, variant = random_bundle(rng, "dann")
        _, report, _ = metaalign_grads(bundle, random_batch(rng), variant, 0.1,
                                       ALIGNMENT)
        assert report.grad_dot_total == sum(report.grad_dot_per_group)

    def test_quadratic_toy_hand_values(self):
        for alpha in (0.01, 0.1, 0.5):
            r = quadratic_toy(alpha)
            assert r["theta_err"] <= 1e-12
            assert r["beta_err"] <= 1e-12

    def test_updates_all_parameter_sets(self):
        rng = np.random.default_rng(9)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        before = {pid: arr.copy() for pid, arr in bundle.all_params().items()}
        # ensure a nonzero beta gradient: move beta off the budget
        bundle.beta[0] += 0.2
        metaalign_step(bundle, batch, variant, settings(momentum=0.0),
                       ALIGNMENT)
        after = bundle.all_params()
        changed = [pid for pid in before if not np.array_equal(before[pid],
                                                               after[pid])]
        assert any(pid.startswith("G.") for pid in changed)
        assert any(pid.startswith("C.") for pid in changed)
        assert any(pid.startswith("D.") for pid in changed)
        assert "beta" in changed

    def test_non_finite_loss_aborts(self):
        rng = np.random.default_rng(10)
        bundle, variant = random_bundle(rng, "mmd")
        batch = random_batch(rng)
        opt = settings(lr=1e150, momentum=0.0, weight_decay=0.0)
        with pytest.raises(NonFiniteError):
            for _ in range(8):
                metaalign_step(bundle, batch, variant, opt, ALIGNMENT)

    @pytest.mark.parametrize("domain", [0, 1], ids=["src_features", "tgt_features"])
    @pytest.mark.parametrize("step", ["joint", ALIGNMENT, CLASSIFICATION])
    def test_nan_feature_aborts(self, step, domain):
        """relu propagates NaN, so a NaN input still ends the step in
        NonFiniteError before any parameter moves."""
        rng = np.random.default_rng(10)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        batch.features[domain, 1, 0] = np.nan
        before = {pid: arr.copy() for pid, arr in bundle.all_params().items()}
        with pytest.raises(NonFiniteError):
            if step == "joint":
                joint_step(bundle, batch, variant, settings())
            else:
                metaalign_step(bundle, batch, variant, settings(), step)
        for pid, arr in bundle.all_params().items():
            np.testing.assert_array_equal(arr, before[pid])

    @pytest.mark.parametrize("step", ["joint", ALIGNMENT, CLASSIFICATION])
    def test_non_finite_probabilities_abort_dannpe_step(self, step):
        """Softmax rows are the only input entropy_weights gets; a logit of
        inf makes them NaN, and the step ends in NonFiniteError before any
        parameter moves, without a check of the rows every step."""
        rng = np.random.default_rng(11)
        bundle, variant = random_bundle(rng, "dannpe")
        batch = random_batch(rng)
        bundle.all_params()[bundle.classifier.ids[-1][1]][1] = np.inf
        before = bundle.flat.copy()
        with pytest.raises(NonFiniteError):
            if step == "joint":
                joint_step(bundle, batch, variant, settings())
            else:
                metaalign_step(bundle, batch, variant, settings(), step)
        np.testing.assert_array_equal(bundle.flat, before)

    @pytest.mark.parametrize("config", ["moons_dann_metaalign.json", "moons_dann_joint.json"])
    def test_nan_batch_aborts_run_without_record(self, config, tmp_path, monkeypatch):
        cfg = replace(load_config(os.path.join(CONFIGS, config)), iterations=6)
        real_iter = data.batch_iter

        def poisoned(*args, **kwargs):
            for i, batch in enumerate(real_iter(*args, **kwargs)):
                if i == 3:
                    batch = data.PairedBatch(batch.features.copy(), batch.src_labels)
                    batch.features[0, 0, 0] = np.nan
                yield batch

        monkeypatch.setattr(data, "batch_iter", poisoned)
        out = tmp_path / "run"
        summary = run_training(cfg, str(out))
        assert summary["aborted"] is True and summary["steps"] == 3
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["iteration"] for line in lines] == [0, 1, 2]

    @pytest.mark.parametrize("step", ["joint", ALIGNMENT, CLASSIFICATION])
    @pytest.mark.parametrize("saturated", [False, True], ids=["plain", "saturated"])
    def test_report_flags_clamped_discriminator(self, step, saturated):
        rng = np.random.default_rng(12)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        if saturated:
            bundle.all_params()[bundle.discriminator.ids[-1][1]][...] = 50.0
        if step == "joint":
            _, report = joint_grads(bundle, batch, variant)
        else:
            _, report, _ = metaalign_grads(bundle, batch, variant, 0.1, step)
        assert report.clamped is saturated

    def test_taylor_residual_ratio(self):
        from metalign.gradcheck import taylor_residuals, TAYLOR_RATIO_BOUND
        rows = taylor_residuals(seed=0)
        assert len(rows) >= 10
        for row in rows:
            if row.ratio is not None:
                assert row.ratio <= TAYLOR_RATIO_BOUND


class TestCheckFinite:
    GRADS = {"G.l0.W": np.ones((2, 3)), "beta": np.zeros(2), "C.l0.b": np.full(4, -1e300)}

    def test_finite_passes(self):
        flat, slices = lay_out(self.GRADS)
        assert optim._check_finite({"L_cls": 0.5}, flat, slices) is None
        assert optim._check_finite({}, np.zeros(0), {}) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pid", ["G.l0.W", "beta", "C.l0.b"])
    def test_names_first_non_finite_gradient(self, pid, bad):
        grads = {k: v.copy() for k, v in self.GRADS.items()}
        grads[pid].flat[-1] = bad
        flat, slices = lay_out(grads)
        with pytest.raises(NonFiniteError, match=f"non-finite gradient for {pid}$"):
            optim._check_finite({"L_cls": 0.5}, flat, slices)

    @pytest.mark.parametrize("pid", ["beta", "C.l0.b"])
    def test_names_the_id_whose_slice_starts_at_the_entry(self, pid):
        """A bad entry at a slice's start belongs to that slice, not to the
        one that stops there."""
        grads = {k: v.copy() for k, v in self.GRADS.items()}
        grads[pid].flat[0] = np.nan
        flat, slices = lay_out(grads)
        with pytest.raises(NonFiniteError, match=f"non-finite gradient for {pid}$"):
            optim._check_finite({"L_cls": 0.5}, flat, slices)

    def test_loss_checked_first(self):
        flat, slices = lay_out({"beta": np.array([np.nan])})
        with pytest.raises(NonFiniteError, match="non-finite loss L_dom=inf"):
            optim._check_finite({"L_cls": 0.5, "L_dom": float("inf")}, flat, slices)


@contextmanager
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestGraphLifetime:
    """A step's tapes and arrays are freed by reference counting when the step
    returns, not left in a reference cycle for the cyclic collector."""

    @pytest.mark.parametrize("config", SHIPPED)
    def test_step_tapes_dead_when_step_returns(self, config, tmp_path, monkeypatch):
        cfg = replace(load_config(os.path.join(CONFIGS, config)), iterations=4)
        created: list[weakref.ref] = []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                created.append(weakref.ref(self))

        monkeypatch.setattr(optim, "Tape", RecordingTape)
        steps_checked = []
        for name in ("joint_step", "metaalign_step"):
            def checked(*args, _step=getattr(optim, name), **kwargs):
                first = len(created)
                report = _step(*args, **kwargs)
                tapes = created[first:]
                assert len(tapes) == 2
                assert all(ref() is None for ref in tapes)
                steps_checked.append(_step.__name__)
                return report

            monkeypatch.setattr(optim, name, checked)
        with gc_disabled():
            run_training(cfg, str(tmp_path / "run"))
        kind = "joint_step" if cfg.strategy.kind == "joint" else "metaalign_step"
        assert steps_checked == [kind] * 4

    def test_no_record_outlives_its_step(self, tmp_path, monkeypatch):
        """The run loop keeps no step's record: before each step, at most the
        loop's last record is still alive."""
        cfg = replace(load_config(os.path.join(CONFIGS, "moons_dann_metaalign.json")),
                      iterations=12)
        returned: list[weakref.ref] = []
        alive: list[int] = []
        step = optim.metaalign_step

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in returned))
            rec = step(*args, **kwargs)
            returned.append(weakref.ref(rec))
            return rec

        monkeypatch.setattr(optim, "metaalign_step", tracked)
        run_training(cfg, str(tmp_path / "run"))
        assert len(alive) == 12 and max(alive) <= 1

    @pytest.mark.parametrize("config", SHIPPED)
    def test_no_cyclic_garbage_grows_with_steps(self, config, tmp_path):
        cfg = load_config(os.path.join(CONFIGS, config))

        def garbage_after(steps: int) -> int:
            with gc_disabled():
                run_training(replace(cfg, iterations=steps),
                             str(tmp_path / f"run_{steps}"))
                return gc.collect()

        garbage_after(5)  # the first run in a process also pays one-off set-up
        assert garbage_after(5) == garbage_after(60)

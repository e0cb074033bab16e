import gc
import glob
import json
import os
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from metalign import data, losses, nn, optim
from metalign import tensor as T
from metalign.config import load_config
from metalign.gradcheck import quadratic_toy, random_batch, random_bundle
from metalign.optim import (ALIGNMENT, CLASSIFICATION, NonFiniteError, OptimState,
                            Role, metaalign_grads, metaalign_step, joint_grads,
                            joint_step, role_schedule, sgd_update, virtual_update)
from metalign.runner import run_training
from metalign.tensor import Tape, Tensor, backward, finite_diff_grad

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")
SHIPPED = sorted(os.path.basename(p) for p in glob.glob(os.path.join(CONFIGS, "*.json")))


class TestSgd:
    def test_plain_descent_arithmetic(self):
        p = {"w": np.array([1.0])}
        state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_update(p, {"w": np.array([2.0])}, state)
        assert p["w"][0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_gradient_fixed_point(self):
        p = {"w": np.array([3.0, -1.0])}
        state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_update(p, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(p["w"], [3.0, -1.0])

    def test_momentum_matches_hand_unrolled_recurrence(self):
        eta, mu, g = 0.1, 0.9, 2.0
        p = {"w": np.array([1.0])}
        state = OptimState(lr=eta, momentum=mu, weight_decay=0.0)
        sgd_update(p, {"w": np.array([g])}, state)
        sgd_update(p, {"w": np.array([g])}, state)
        # v1 = g; p1 = p0 - eta v1; v2 = mu v1 + g; p2 = p1 - eta v2
        v1 = g
        p1 = 1.0 - eta * v1
        v2 = mu * v1 + g
        want = p1 - eta * v2
        assert p["w"][0] == pytest.approx(want, abs=1e-15)

    def test_weight_decay_skips_exempt_params(self):
        p = {"w": np.array([1.0]), "beta": np.array([1.0])}
        state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_update(p, {"w": np.zeros(1), "beta": np.zeros(1)}, state)
        assert p["w"][0] == pytest.approx(1.0 - 0.1 * 0.5)
        assert p["beta"][0] == 1.0

    @staticmethod
    def sgd_oracle(params, grads, state):
        """The update as it was written: v <- m*v + (g + wd*p); p <- p - lr*v."""
        for pid, p in params.items():
            g = grads[pid]
            if state.weight_decay != 0.0 and pid != "beta":
                g = g + state.weight_decay * p
            v = state.velocity.setdefault(pid, np.zeros_like(p))
            v *= state.momentum
            v += g
            p -= state.lr * v

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4, 0.37])
    def test_bitwise_equal_to_oracle(self, weight_decay):
        rng = np.random.default_rng(21)
        shapes = {"G.l0.W": (2, 64), "G.l0.b": (64,), "C.l0.W": (64, 3), "beta": (2,)}
        params = {pid: rng.normal(size=shape) for pid, shape in shapes.items()}
        want = {pid: p.copy() for pid, p in params.items()}
        state = OptimState(lr=0.05, momentum=0.5, weight_decay=weight_decay)
        oracle = OptimState(lr=0.05, momentum=0.5, weight_decay=weight_decay)
        for _ in range(5):
            grads = {pid: rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 3)
                     for pid, p in params.items()}
            sgd_update(params, grads, state)
            self.sgd_oracle(want, grads, oracle)
            for pid in params:
                np.testing.assert_array_equal(params[pid].view(np.int64),
                                              want[pid].view(np.int64))
                np.testing.assert_array_equal(state.velocity[pid].view(np.int64),
                                              oracle.velocity[pid].view(np.int64))

    def test_grads_must_cover_params(self):
        state = OptimState()
        with pytest.raises(ValueError):
            sgd_update({"w": np.ones(1)}, {}, state)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            OptimState(lr=0.0)
        with pytest.raises(ValueError):
            OptimState(momentum=1.0)
        with pytest.raises(ValueError):
            OptimState(meta_lr=-0.1)


class TestVirtualUpdate:
    def _setup(self, alpha, beta, theta=1.0, g=1.0):
        tape = Tape()
        beta_leaf = tape.param(np.array([beta]), "beta")
        prime = virtual_update(tape, {"t": np.asarray(theta)},
                               {"t": np.asarray(g)}, alpha, beta_leaf, [["t"]])
        return tape, beta_leaf, prime

    def test_alpha_zero_identity(self):
        _, _, prime = self._setup(alpha=0.0, beta=1.0, theta=0.7)
        assert float(prime["t"].values) == 0.7

    def test_zero_beta_group_unchanged(self):
        _, _, prime = self._setup(alpha=0.3, beta=0.0, theta=0.7, g=5.0)
        assert float(prime["t"].values) == 0.7

    def test_scalar_arithmetic(self):
        _, _, prime = self._setup(alpha=0.1, beta=1.0, theta=1.0, g=1.0)
        assert float(prime["t"].values) == pytest.approx(0.9, abs=1e-15)

    def test_backward_sends_one_to_theta_and_dot_to_beta(self):
        alpha = 0.25
        g_vec = np.array([2.0, -1.0])
        upstream = np.array([3.0, 5.0])
        tape = Tape()
        beta_leaf = tape.param(np.array([1.5]), "beta")
        prime = virtual_update(tape, {"t": np.array([1.0, 2.0])},
                               {"t": g_vec}, alpha, beta_leaf, [["t"]])
        loss = T.reduce_sum(T.mul(prime["t"], Tensor(upstream)))
        g = backward(loss, ["t", "beta"])
        np.testing.assert_array_equal(g["t"], upstream)
        assert g["beta"][0] == pytest.approx(-alpha * float(np.dot(g_vec, upstream)),
                                             abs=1e-15)

    def test_group_mismatch_rejected(self):
        tape = Tape()
        beta_leaf = tape.param(np.ones(1), "beta")
        with pytest.raises(ValueError):
            virtual_update(tape, {"a": np.ones(1), "b": np.ones(1)},
                           {"a": np.ones(1), "b": np.ones(1)},
                           0.1, beta_leaf, [["a"]])


class TestRoleSchedule:
    def test_align_train_constant(self):
        assert all(role_schedule("align_train", i).meta_train == ALIGNMENT
                   for i in range(5))

    def test_cls_train_constant(self):
        assert all(role_schedule("cls_train", i).meta_train == CLASSIFICATION
                   for i in range(5))

    def test_alternate_parity(self):
        got = [role_schedule("alternate", i).meta_train for i in range(3)]
        assert got == [ALIGNMENT, CLASSIFICATION, ALIGNMENT]

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            role_schedule("sometimes", 0)

    def test_meta_test_is_other_task(self):
        assert Role(ALIGNMENT).meta_test == CLASSIFICATION
        assert Role(CLASSIFICATION).meta_test == ALIGNMENT


class TestJointStep:
    def test_lambda_zero_matches_pure_supervised(self):
        rng = np.random.default_rng(0)
        bundle, variant = random_bundle(rng, "dann")
        variant.grl_lambda = 0.0
        batch = random_batch(rng)
        applied, _ = joint_grads(bundle, batch, variant)

        tape = Tape()
        sup = backward(optim._cls_loss(bundle, batch, tape),
                       bundle.theta_ids + bundle.classifier.param_ids)
        for pid in bundle.theta_ids + bundle.classifier.param_ids:
            np.testing.assert_array_equal(applied[pid], sup[pid])

    def test_mmd_variant_has_no_discriminator(self):
        rng = np.random.default_rng(1)
        bundle, variant = random_bundle(rng, "mmd")
        assert bundle.discriminator is None
        applied, report = joint_grads(bundle, random_batch(rng), variant)
        assert all(not pid.startswith("D.") for pid in applied)
        assert report.L_dom_cls is None

    def test_quadratic_toy_single_step(self):
        # one plain sgd step on a hand-checked quadratic: p <- p - eta*(p - 1)
        p = {"w": np.array([4.0])}
        state = OptimState(lr=0.25, momentum=0.0, weight_decay=0.0)
        tape = Tape()
        w = tape.param(p["w"], "w")
        gap = T.sub(w, Tensor(np.array([1.0])))
        g = backward(T.scale(T.reduce_sum(T.mul(gap, gap)), 0.5), ["w"])
        sgd_update(p, g, state)
        assert p["w"][0] == pytest.approx(4.0 - 0.25 * 3.0, abs=1e-15)

    def test_beta_untouched(self):
        rng = np.random.default_rng(2)
        bundle, variant = random_bundle(rng, "dann")
        before = bundle.group_weights.beta.copy()
        joint_step(bundle, random_batch(rng), variant, OptimState(momentum=0.0))
        np.testing.assert_array_equal(bundle.group_weights.beta, before)


class TestMetaStep:
    @pytest.mark.parametrize("variant_name", losses.VARIANTS)
    @pytest.mark.parametrize("role_name", [ALIGNMENT, CLASSIFICATION])
    def test_alpha_zero_reduces_to_joint(self, variant_name, role_name):
        rng = np.random.default_rng(3)
        bundle, variant = random_bundle(rng, variant_name)
        batch = random_batch(rng)
        gj, _ = joint_grads(bundle, batch, variant)
        gm, _, _ = metaalign_grads(bundle, batch, variant, 0.0, Role(role_name))
        for pid in gj:
            assert float(np.max(np.abs(gj[pid] - gm[pid]))) <= 1e-12
        # beta receives only the budget subgradient
        gw = bundle.group_weights
        sign = np.sign(gw.beta.sum() - gw.budget)
        np.testing.assert_array_equal(gm["beta"], np.full(len(gw.beta), sign))

    def test_alpha_to_zero_consistency(self):
        # the theta-gradient gap between the meta step and the joint step
        # shrinks linearly with alpha
        rng = np.random.default_rng(4)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        gj, _ = joint_grads(bundle, batch, variant)

        def gap(alpha):
            gm, _, _ = metaalign_grads(bundle, batch, variant, alpha,
                                       Role(ALIGNMENT))
            return max(float(np.max(np.abs(gm[pid] - gj[pid])))
                       for pid in bundle.theta_ids)

        g1, g2, g3 = gap(1e-2), gap(1e-3), gap(1e-4)
        c = g1 / 1e-2
        assert g2 <= 2.0 * c * 1e-3 + 1e-12
        assert g3 <= 2.0 * c * 1e-4 + 1e-12

    def test_role_symmetry_at_alpha_zero(self):
        rng = np.random.default_rng(5)
        bundle, variant = random_bundle(rng, "dannpe")
        batch = random_batch(rng)
        ga, _, _ = metaalign_grads(bundle, batch, variant, 0.0, Role(ALIGNMENT))
        gc, _, _ = metaalign_grads(bundle, batch, variant, 0.0,
                                   Role(CLASSIFICATION))
        for pid in ga:
            assert float(np.max(np.abs(ga[pid] - gc[pid]))) <= 1e-12

    @pytest.mark.parametrize("variant_name", losses.VARIANTS)
    def test_beta_gradient_closed_form_exact(self, variant_name):
        rng = np.random.default_rng(6)
        bundle, variant = random_bundle(rng, variant_name)
        batch = random_batch(rng)
        alpha = 0.05
        applied, report, _ = metaalign_grads(bundle, batch, variant, alpha,
                                             Role(ALIGNMENT))
        gw = bundle.group_weights
        sign = float(np.sign(gw.beta.sum() - gw.budget))
        closed = np.array([-alpha * d + sign for d in report.grad_dot_per_group])
        np.testing.assert_array_equal(applied["beta"], closed)

    def test_beta_gradient_matches_fd_of_total(self):
        rng = np.random.default_rng(7)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        alpha = 0.05
        applied, _, g_train = metaalign_grads(bundle, batch, variant, alpha,
                                              Role(ALIGNMENT))
        beta0 = bundle.group_weights.beta.copy()
        fd = finite_diff_grad(
            lambda p: optim.meta_total_value(bundle, batch, variant, alpha,
                                             p["beta"], g_train, Role(ALIGNMENT)),
            {"beta": beta0}, h=1e-5)
        np.testing.assert_allclose(applied["beta"], fd["beta"],
                                   rtol=1e-6, atol=1e-9)

    def test_total_dot_is_sum_of_group_dots(self):
        rng = np.random.default_rng(8)
        bundle, variant = random_bundle(rng, "dann")
        _, report, _ = metaalign_grads(bundle, random_batch(rng), variant, 0.1,
                                       Role(ALIGNMENT))
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
        bundle.group_weights.beta[0] += 0.2
        metaalign_step(bundle, batch, variant, OptimState(momentum=0.0),
                       Role(ALIGNMENT))
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
        state = OptimState(lr=1e150, momentum=0.0, weight_decay=0.0)
        with pytest.raises(NonFiniteError):
            for _ in range(8):
                metaalign_step(bundle, batch, variant, state, Role(ALIGNMENT))

    @pytest.mark.parametrize("field", ["src_features", "tgt_features"])
    @pytest.mark.parametrize("step", ["joint", ALIGNMENT, CLASSIFICATION])
    def test_nan_feature_aborts(self, step, field):
        """relu propagates NaN, so a NaN input still ends the step in
        NonFiniteError before any parameter moves."""
        rng = np.random.default_rng(10)
        bundle, variant = random_bundle(rng, "dann")
        batch = random_batch(rng)
        getattr(batch, field)[1, 0] = np.nan
        before = {pid: arr.copy() for pid, arr in bundle.all_params().items()}
        with pytest.raises(NonFiniteError):
            if step == "joint":
                joint_step(bundle, batch, variant, OptimState())
            else:
                metaalign_step(bundle, batch, variant, OptimState(), Role(step))
        for pid, arr in bundle.all_params().items():
            np.testing.assert_array_equal(arr, before[pid])

    @pytest.mark.parametrize("config", ["moons_dann_metaalign.json", "moons_dann_joint.json"])
    def test_nan_batch_aborts_run_without_record(self, config, tmp_path, monkeypatch):
        cfg = replace(load_config(os.path.join(CONFIGS, config)), iterations=6)
        real_iter = data.batch_iter

        def poisoned(*args, **kwargs):
            for i, batch in enumerate(real_iter(*args, **kwargs)):
                if i == 3:
                    batch.src_features[0, 0] = np.nan
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
            bundle.discriminator.net.layers[-1].bias[...] = 50.0
        if step == "joint":
            _, report = joint_grads(bundle, batch, variant)
        else:
            _, report, _ = metaalign_grads(bundle, batch, variant, 0.1, Role(step))
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
        assert optim._check_finite({"L_cls": 0.5}, self.GRADS) is None
        assert optim._check_finite({}, {}) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pid", ["G.l0.W", "beta", "C.l0.b"])
    def test_names_first_non_finite_gradient(self, pid, bad):
        grads = {k: v.copy() for k, v in self.GRADS.items()}
        grads[pid].flat[-1] = bad
        with pytest.raises(NonFiniteError, match=f"non-finite gradient for {pid}$"):
            optim._check_finite({"L_cls": 0.5}, grads)

    def test_loss_checked_first(self):
        grads = {"beta": np.array([np.nan])}
        with pytest.raises(NonFiniteError, match="non-finite loss L_dom=inf"):
            optim._check_finite({"L_cls": 0.5, "L_dom": float("inf")}, grads)


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

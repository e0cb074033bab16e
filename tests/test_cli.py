import copy
import glob
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from metalign.checkpoint import load_checkpoint, save_checkpoint, CheckpointError
from metalign.cli import main
from metalign.config import ConfigError, config_hash, load_config, parse_config
from metalign.gradcheck import run_gradcheck
from metalign.runner import run_training


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def base_doc(tmp_path, **overrides):
    doc = {
        "seed": 3,
        "iterations": 6,
        "batch_size": 16,
        "eval_every": 3,
        "out_dir": str(tmp_path / "run"),
        "dataset": {"generator": "two_moons", "n_per_domain": 60,
                    "noise_std": 0.15, "rotation_deg": 45.0},
        "model": {"hidden": [8, 8], "groups": 2, "disc_hidden": [8, 8]},
        "variant": {"name": "dann", "lambda": 1.0},
        "optimizer": {"lr": 0.05, "meta_lr": 0.1, "momentum": 0.5},
        "strategy": {"kind": "joint"},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_unknown_top_level_key_named(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["iteractions"] = 5
        with pytest.raises(ConfigError, match="iteractions"):
            parse_config(doc)

    def test_unknown_nested_key_named(self, tmp_path, capsys):
        doc = base_doc(tmp_path)
        doc["optimizer"]["momentun"] = 0.9
        with pytest.raises(ConfigError, match="momentun"):
            parse_config(doc)
        doc = base_doc(tmp_path)
        doc["model"]["dropout"] = 0.0
        assert main(["run", write_config(tmp_path, doc)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "dropout" in err["detail"]

    def test_generator_param_mismatch_rejected(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["dataset"]["mean_shift"] = 1.0
        with pytest.raises(ConfigError, match="mean_shift"):
            parse_config(doc)

    def test_missing_required_key(self, tmp_path):
        doc = base_doc(tmp_path)
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)

    def test_metaalign_requires_positive_alpha(self, tmp_path):
        doc = base_doc(tmp_path, strategy={"kind": "metaalign"})
        doc["optimizer"]["meta_lr"] = 0.0
        with pytest.raises(ConfigError, match="meta_lr"):
            parse_config(doc)

    @pytest.mark.parametrize("section,key,value", [
        ("model", "groups", "2"),
        ("model", "groups", 1.5),
        ("model", "groups", True),
        ("model", "hidden", 5),
        ("model", "hidden", [64, 0]),
        ("model", "hidden", [8, True]),
        ("model", "hidden", [8.0]),
        ("model", "classifier_hidden", [0]),
        ("model", "disc_hidden", "8"),
        ("model", "disc_hidden", [8, -1]),
        ("variant", "sigma", "x"),
        ("variant", "sigma", True),
        ("variant", "sigma", float("inf")),
    ], ids=["groups_str", "groups_float", "groups_bool", "hidden_int", "hidden_zero",
            "hidden_bool", "hidden_float", "classifier_hidden_zero", "disc_hidden_str",
            "disc_hidden_negative", "sigma_str", "sigma_bool", "sigma_inf"])
    def test_mistyped_value_named(self, tmp_path, capsys, section, key, value):
        doc = base_doc(tmp_path)
        doc[section][key] = value
        assert main(["run", write_config(tmp_path, doc)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and f"{section}.{key}" in err["detail"]

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.json"))),
                             ids=os.path.basename)
    def test_shipped_config_parses(self, path):
        cfg = load_config(path)
        if cfg.strategy.kind == "metaalign":
            assert cfg.optimizer.meta_lr == 0.5
        if cfg.variant.name == "dannpe":
            assert cfg.model.groups == 4

    def test_hash_stable_under_key_reordering(self, tmp_path):
        doc = base_doc(tmp_path)
        reordered = json.loads(json.dumps(doc, sort_keys=True))
        order = list(reordered.items())[::-1]
        assert config_hash(doc) == config_hash(dict(order))

    def test_hash_changes_with_content(self, tmp_path):
        doc = base_doc(tmp_path)
        other = copy.deepcopy(doc)
        other["seed"] = 4
        assert config_hash(doc) != config_hash(other)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"G.l0.W": rng.normal(size=(3, 4)),
                  "beta": rng.normal(size=2)}
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, params, {"note": "x"})
        back, meta = load_checkpoint(path)
        for pid, arr in params.items():
            assert np.array_equal(back[pid], arr)
        assert meta["note"] == "x"

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(str(tmp_path / "no.npz"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a zipfile")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("meta_block", [
        json.dumps({"version": 2}), "{not json", json.dumps([1, 2]),
    ], ids=["no_param_shapes", "not_json", "not_object"])
    def test_bad_meta_block(self, tmp_path, capsys, meta_block):
        path = str(tmp_path / "ck.npz")
        np.savez(path, __meta__=np.array(meta_block))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        assert main(["eval", path, cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "checkpoint"


class TestCmdRun:
    def test_smoke_single_iteration(self, tmp_path, capsys):
        doc = base_doc(tmp_path, iterations=1)
        doc["variant"]["lambda"] = 0.0
        code = main(["run", write_config(tmp_path, doc)])
        assert code == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["steps"] == 1
        assert not summary["aborted"]
        assert (tmp_path / "run" / "metrics.jsonl").exists()
        _, meta = load_checkpoint(str(tmp_path / "run" / "checkpoint.npz"))
        assert config_hash(meta["config"]) == summary["config_hash"]

    def test_determinism_byte_identical_metrics(self, tmp_path):
        doc = base_doc(tmp_path, iterations=8)
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", cfg_path, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", cfg_path, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a == b

    def test_mmd_config_determinism_byte_identical_metrics(self, tmp_path):
        cfg = load_config(os.path.join(CONFIGS, "gaussian_mmd_metaalign.json"))
        cfg = replace(cfg, iterations=25, batch_size=256)
        run_training(cfg, str(tmp_path / "a"))
        run_training(cfg, str(tmp_path / "b"))
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a == b and len(a) > 0

    def test_config_error_exit_code_and_stderr(self, tmp_path, capsys):
        doc = base_doc(tmp_path)
        doc["optimizer"]["lr"] = -1.0
        code = main(["run", write_config(tmp_path, doc)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 2

    def test_non_finite_abort_exit_code(self, tmp_path, capsys):
        doc = base_doc(tmp_path, iterations=40)
        doc["optimizer"]["lr"] = 1e120
        doc["optimizer"]["momentum"] = 0.0
        code = main(["run", write_config(tmp_path, doc)])
        assert code == 3
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["aborted"]

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        doc = base_doc(tmp_path, iterations=1)
        monkeypatch.setenv("METALIGN_OUTPUT_DIR", str(tmp_path / "envout"))
        assert main(["run", write_config(tmp_path, doc)]) == 0
        assert (tmp_path / "envout" / "run" / "summary.json").exists()

    def test_alpha_zero_metaalign_matches_joint_trajectories(self, tmp_path):
        doc = base_doc(tmp_path, iterations=10)
        joint_path = write_config(tmp_path, doc, "joint.json")
        assert main(["run", joint_path, "--out", str(tmp_path / "j")]) == 0
        # a config cannot ask for alpha = 0; the meta arm sets it directly
        meta_doc = copy.deepcopy(doc)
        meta_doc["strategy"] = {"kind": "metaalign", "role_policy": "alternate"}
        cfg = parse_config(meta_doc)
        cfg = replace(cfg, optimizer=replace(cfg.optimizer, meta_lr=0.0))
        summary = run_training(cfg, str(tmp_path / "m"))
        assert not summary["aborted"]

        # final parameters identical within 1e-12
        pj, _ = load_checkpoint(str(tmp_path / "j" / "checkpoint.npz"))
        pm, _ = load_checkpoint(str(tmp_path / "m" / "checkpoint.npz"))
        for pid in pj:
            if pid == "beta":
                continue  # joint never updates beta; at B=M both stay put
            assert float(np.max(np.abs(pj[pid] - pm[pid]))) <= 1e-12
        np.testing.assert_array_equal(pm["beta"], pj["beta"])

        # per-step loss trajectories identical within 1e-12
        ja = [json.loads(l) for l in
              (tmp_path / "j" / "metrics.jsonl").read_text().splitlines()]
        ma = [json.loads(l) for l in
              (tmp_path / "m" / "metrics.jsonl").read_text().splitlines()]
        for rj, rm in zip(ja, ma):
            for key in ("L_cls", "L_dom", "grad_dot_total"):
                assert abs(rj[key] - rm[key]) <= 1e-12


class TestCmdSweep:
    def test_single_seed_aggregate_equals_summary(self, tmp_path, capsys):
        doc = base_doc(tmp_path, iterations=4)
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "sweep")
        assert main(["sweep", cfg, "--seeds", "5", "--out", out]) == 0
        agg = json.loads((tmp_path / "sweep" / "aggregate.json").read_text())
        single = json.loads(
            (tmp_path / "sweep" / "seed_5" / "summary.json").read_text())
        assert agg["final_target_acc"]["mean"] == single["final_target_acc"]
        assert agg["final_target_acc"]["std"] == 0.0

    def test_aggregate_mean_is_arithmetic_mean(self, tmp_path):
        doc = base_doc(tmp_path, iterations=4)
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "sweep")
        assert main(["sweep", cfg, "--seeds", "1,2,3", "--out", out]) == 0
        agg = json.loads((tmp_path / "sweep" / "aggregate.json").read_text())
        per_seed = [s["final_target_acc"] for s in agg["per_seed"]]
        assert len(per_seed) == 3
        assert agg["final_target_acc"]["mean"] == pytest.approx(
            sum(per_seed) / 3, abs=1e-15)

    def test_no_seeds_rejected(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        assert main(["sweep", cfg, "--seeds", ""]) == 2

    def test_repeated_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--seeds", "1,2,1", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "seed 1 " in err["detail"]
        assert not out.exists()


class TestCmdEval:
    @pytest.mark.parametrize("variant,activation,eval_hidden", [
        ("dann", "relu", None), ("dannpe", "relu", None), ("mmd", "relu", None),
        ("dann", "tanh", None), ("dann", "relu", [16]),
    ], ids=["dann", "dannpe", "mmd", "tanh", "eval_config_hidden_16"])
    def test_checkpoint_accuracy_matches_final_record(self, tmp_path, capsys,
                                                      variant, activation,
                                                      eval_hidden):
        doc = base_doc(tmp_path, iterations=6)
        doc["variant"]["name"] = variant
        doc["model"]["activation"] = activation
        cfg = write_config(tmp_path, doc)
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        records = [json.loads(l) for l in
                   (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        final = records[-1]
        if eval_hidden is not None:
            # the eval config only supplies data; the model comes from the checkpoint
            doc["model"]["hidden"] = eval_hidden
            cfg = write_config(tmp_path, doc, "eval.json")
        code = main(["eval", str(tmp_path / "run" / "checkpoint.npz"), cfg])
        assert code == 0
        got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert got["target_acc"] == pytest.approx(final["target_acc"], abs=1e-15)
        assert got["source_acc"] == pytest.approx(final["source_acc"], abs=1e-15)

    @pytest.mark.parametrize("damage,named", [
        ("missing", "G.l1.b"), ("shape", "G.l1.b"),
        ("no_config", "config"), ("bad_config", "iteractions"),
    ], ids=["missing", "shape", "no_config", "bad_config"])
    def test_checkpoint_not_matching_its_model_rejected(self, tmp_path, capsys,
                                                        damage, named):
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        assert main(["run", cfg]) == 0
        path = str(tmp_path / "run" / "checkpoint.npz")
        params, meta = load_checkpoint(path)
        if damage == "missing":
            del params["G.l1.b"]
        elif damage == "shape":
            params["G.l1.b"] = np.zeros(3)
        elif damage == "no_config":
            del meta["config"]
        else:
            meta["config"]["iteractions"] = 5
        save_checkpoint(path, params, meta)
        capsys.readouterr()
        assert main(["eval", path, cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "checkpoint"
        assert named in err["detail"]

    def test_missing_checkpoint_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        missing = str(tmp_path / "nothing.npz")
        assert main(["eval", missing, cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "nothing.npz" in err["detail"]

    def test_single_row_dataset_accuracy_binary(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        src.write_text("feature_0,feature_1,label,domain\n"
                       "0.5,1.0,0,source\n-0.5,0.5,1,source\n")
        tgt.write_text("feature_0,feature_1,label,domain\n0.25,0.5,1,target\n")
        doc = base_doc(tmp_path, iterations=2, batch_size=1)
        doc["dataset"] = {"source_csv": str(src), "target_csv": str(tgt)}
        cfg = write_config(tmp_path, doc)
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "run" / "checkpoint.npz"), cfg]) == 0
        got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert got["target_acc"] in (0.0, 1.0)


class TestCmdGradcheck:
    def test_cli_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "taylor residual" in out
        assert "all checks passed" in out

    def test_corrupted_op_fails_and_is_named(self):
        report = run_gradcheck(seed=0, corrupt="relu")
        assert not report.ok
        assert "relu" in report.failing()

    def test_corrupted_meta_beta_detected(self):
        report = run_gradcheck(seed=0, corrupt="meta_beta_dann_alignment")
        assert not report.ok
        assert "meta_beta_dann_alignment" in report.failing()

    @pytest.mark.parametrize("check", [
        "matmul", "detach", "grl", "mmd2_rbf", "cls_loss_mmd", "align_disc_dann",
        "meta_theta_dannpe_classification", "meta_beta_closed_form_mmd_alignment",
        "toy_beta_alpha_0.1",
    ])
    def test_negative_control_fails_only_its_check(self, check):
        assert run_gradcheck(seed=0, corrupt=check).failing() == [check]

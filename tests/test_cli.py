import copy
import glob
import inspect
import json
import os
import platform
import signal
import subprocess
import sys
import types
from dataclasses import fields, replace

import numpy as np
import pytest

from metalign import cli, data, optim, runner
from metalign import tensor as T
from metalign.checkpoint import load_checkpoint, save_checkpoint, CheckpointError
from metalign.cli import main
from metalign.config import SCHEMA, ConfigError, config_hash, load_config, parse_config
from metalign.gradcheck import TAYLOR_RATIO_BOUND, TaylorRow, run_gradcheck
from metalign.runner import run_sweep, run_training


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
SHIPPED = sorted(glob.glob(os.path.join(CONFIGS, "*.json")))

# Values outside most keys' domains, substituted for every key in the fuzz test.
BAD_VALUES = ["x", "2", True, [1], 1.7, float("nan"), float("inf"), float("-inf"),
              0, -1]
# Cases once reported as crashing or silently coerced; fuzzed on top of BAD_VALUES.
REPORTED_CASES = [
    ("", "standardize", "false"), ("", "seed", 1.7), ("", "eval_every", "5"),
    ("", "iterations", 1.7), ("dataset", "n_per_domain", "x"),
    ("variant", "lambda", -1), ("variant", "lambda", [1]),
    ("optimizer", "momentum", "0.5"), ("optimizer", "lr", [0.1]),
    ("optimizer", "budget", "2"),
]
# The fuzz values that lie inside their key's documented domain.
IN_DOMAIN = {
    ("", "seed"): [0], ("", "out_dir"): ["x", "2"], ("", "standardize"): [True],
    ("dataset", "noise_std"): [1.7, 0], ("dataset", "rotation_deg"): [1.7, 0, -1],
    ("dataset", "class_sep"): [1.7, 0, -1], ("dataset", "mean_shift"): [1.7, 0, -1],
    ("model", "hidden"): [[1]], ("model", "classifier_hidden"): [[1]],
    ("variant", "lambda"): [1.7, 0], ("variant", "sigma"): [1.7],
    ("optimizer", "lr"): [1.7], ("optimizer", "meta_lr"): [1.7],
    ("optimizer", "momentum"): [0], ("optimizer", "weight_decay"): [1.7, 0],
    ("optimizer", "budget"): [1.7],
}
# Annotations of numeric fields, and the type each value (or list item) must have.
NUMERIC = {"int": int, "Optional[int]": int, "list[int]": int, "float": float,
           "Optional[float]": float, "tuple[float, float]": float}


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


def cross_key_fault(tmp_path, fault):
    """A document that parses but fails a check made while building the run."""
    doc = base_doc(tmp_path)
    if fault == "batch_size":
        doc["batch_size"] = 5000  # larger than either domain
    else:
        doc["model"]["hidden"] = [8]  # one layer cannot form two groups
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def in_domain(doc, section, key, value):
    if (section, key, value) == ("optimizer", "meta_lr", 0) and type(value) is int:
        return doc["strategy"]["kind"] == "joint"  # metaalign needs meta_lr > 0
    return any(type(value) is type(ok) and value == ok
               for ok in IN_DOMAIN.get((section, key), ()))


def field_value(cfg, section, key):
    if section == "":
        return getattr(cfg, key)
    if section == "dataset":
        return cfg.dataset.params.get(key, getattr(cfg.dataset, key, None))
    return getattr(getattr(cfg, section), "grl_lambda" if key == "lambda" else key)


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

    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_shipped_config_parses(self, path):
        cfg = load_config(path)
        if cfg.strategy.kind == "metaalign":
            assert cfg.optimizer.meta_lr == 0.5
        if cfg.variant.name == "dannpe":
            assert cfg.model.groups == 4
        # every numeric value arrives with its annotated type, bool not an int;
        # dataset.params are typed by the generator's own signature
        leaves = [(f.name, getattr(part, f.name), f.type)
                  for part in (cfg, cfg.dataset, cfg.model, cfg.variant,
                               cfg.optimizer, cfg.strategy) for f in fields(part)]
        signature = inspect.signature(data.GENERATORS[cfg.dataset.generator])
        for key, value in cfg.dataset.params.items():
            assert signature.parameters[key].annotation in NUMERIC, key
            leaves.append((key, value, signature.parameters[key].annotation))
        for name, value, annotation in leaves:
            if annotation in NUMERIC and value is not None:
                items = value if isinstance(value, list) else [value]
                assert all(type(v) is NUMERIC[annotation] for v in items), name

    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_fuzzed_values_rejected_by_name(self, path, tmp_path, capsys, monkeypatch):
        """Every key of a shipped config, set to each bad value: a value in the
        key's domain parses as given; any other exits 2 naming section.key,
        before any run directory exists."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("METALIGN_OUTPUT_DIR", raising=False)
        with open(path, encoding="utf-8") as fh:
            shipped = json.load(fh)
        keys = [(s, k) for s, k, *_ in SCHEMA if s != "dataset" or k in shipped["dataset"]]
        grid = [(s, k, v) for s, k in keys for v in BAD_VALUES]
        grid += [case for case in REPORTED_CASES if case[:2] in keys]
        failures = []
        for section, key, value in grid:
            doc = copy.deepcopy(shipped)
            (doc.setdefault(section, {}) if section else doc)[key] = value
            case = f"{section}.{key}={json.dumps(value)}".lstrip(".")
            try:
                cfg = parse_config(doc)
            except ConfigError:
                cfg = None
            except Exception as e:  # would exit 1 through main
                failures.append(f"{case}: {type(e).__name__}: {e}")
                continue
            if in_domain(doc, section, key, value):
                if cfg is None or field_value(cfg, section, key) != value:
                    failures.append(f"{case}: in domain but parsed to {cfg}")
                continue
            if cfg is not None:
                failures.append(f"{case}: parsed, would run")
                continue
            code = main(["run", write_config(tmp_path, doc)])
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            where = f"{section}.{key}".lstrip(".")
            if code != 2 or err["error"] != "config" or where not in err["detail"]:
                failures.append(f"{case}: exit {code}, {err}")
            if os.listdir(tmp_path) != ["cfg.json"]:
                failures.append(f"{case}: left {sorted(os.listdir(tmp_path))}")
        assert failures == []

    def test_readme_config_example_parses(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("### Config format", 1)[1].split("```json", 1)[1]
        doc = json.loads(block.split("```", 1)[0])
        assert parse_config(doc).raw == doc

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

    @pytest.mark.parametrize("damage", ["empty", "truncated", "flipped_byte",
                                        "object_entry"])
    def test_damaged_archive(self, tmp_path, capsys, damage):
        path = tmp_path / "ck.npz"
        save_checkpoint(str(path), {"G.l0.W": np.full(8, 1.5)}, {"note": "x"})
        raw = path.read_bytes()
        if damage == "empty":
            path.write_bytes(b"")
        elif damage == "truncated":
            path.write_bytes(raw[:len(raw) // 2])
        elif damage == "flipped_byte":
            at = raw.index(np.full(8, 1.5).tobytes()) + 3
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:])
        else:
            meta = {"version": 2, "param_shapes": {"G.l0.W": [2]}}
            np.savez(path, __meta__=np.array(json.dumps(meta)),
                     **{"G.l0.W": np.array([1, "a"], dtype=object)})
        with pytest.raises(CheckpointError, match="ck.npz") as info:
            load_checkpoint(str(path))
        if damage == "object_entry":
            assert "'G.l0.W'" in str(info.value)
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        assert main(["eval", str(path), cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "checkpoint" and str(path) in err["detail"]

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

    @pytest.mark.parametrize("header", ["feature_0,lable,domain", "feat_0,label,domain",
                                        "label,feature_0,domain"])
    def test_csv_header_of_the_right_width_with_wrong_names_rejected(self, tmp_path,
                                                                     capsys, header):
        good = tmp_path / "tgt.csv"
        good.write_text("feature_0,label,domain\n0.5,0,target\n-0.5,1,target\n")
        bad = tmp_path / "src.csv"
        bad.write_text(header + "\n0.5,0,source\n-0.5,1,source\n")
        doc = base_doc(tmp_path, batch_size=1)
        doc["dataset"] = {"source_csv": str(bad), "target_csv": str(good)}
        assert main(["run", write_config(tmp_path, doc)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and str(bad) in err["detail"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("tags", [("target", "source"), ("target", "target"),
                                      ("source", "source")])
    def test_csv_domain_tags_must_match_their_files(self, tmp_path, tags):
        for name, tag in zip(("src", "tgt"), tags):
            (tmp_path / f"{name}.csv").write_text(
                f"feature_0,label,domain\n0.5,0,{tag}\n-0.5,1,{tag}\n")
        doc = base_doc(tmp_path, batch_size=1)
        doc["dataset"] = {"source_csv": str(tmp_path / "src.csv"),
                          "target_csv": str(tmp_path / "tgt.csv")}
        with pytest.raises(ConfigError, match="domain tags"):
            run_training(parse_config(doc))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name, given", [("mmd", 2.5), ("dann", None)])
    def test_resolve_sigma_keeps_a_given_or_unused_bandwidth(self, tmp_path, name, given):
        doc = base_doc(tmp_path)
        doc["variant"] = {"name": name, "lambda": 1.0}
        if given is not None:
            doc["variant"]["sigma"] = given
        cfg = parse_config(doc)
        src, tgt = runner.build_datasets(cfg)
        bundle, variant = runner.build_bundle(cfg, src.dim, src.num_classes, init_seed=0)
        batch = next(data.batch_iter(src, tgt, cfg.batch_size, seed=0, epochs=1))
        runner.resolve_sigma(bundle, variant, batch)
        assert variant.sigma == given

    @pytest.mark.parametrize("missing", ["get_num_threads", "set_num_threads"])
    def test_blas_without_one_thread_symbol_runs_without_setting_threads(
            self, tmp_path, monkeypatch, missing):
        """An OpenBLAS that lacks the getter or the setter gives no thread
        control, and a run then calls neither."""
        called = []
        lookup = runner._openblas

        def partial(name, restype, *argtypes):
            fn = None if name == missing else lookup(name, restype, *argtypes)
            return None if fn is None else lambda *args: called.append(name) or fn(*args)

        monkeypatch.setattr(runner, "_openblas", partial)
        assert runner.blas_threads() is None
        summary = run_training(parse_config(base_doc(tmp_path, iterations=2)),
                               str(tmp_path / "run"))
        assert summary["steps"] == 2 and not summary["aborted"] and called == []

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

    @pytest.mark.parametrize("fault", ["batch_size", "groups"])
    def test_config_rejected_after_parse_leaves_no_directory(self, tmp_path, capsys,
                                                             fault):
        code = main(["run", write_config(tmp_path, cross_key_fault(tmp_path, fault))])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
        assert not (tmp_path / "run").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 2
        assert "none.json" in json.loads(capsys.readouterr().err.strip())["detail"]

    @pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
    def test_unreadable_config_file_named(self, tmp_path, capsys, unreadable):
        path = tmp_path / "cfg.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"seed": "\xff"}')
        assert main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and str(path) in err["detail"]

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


# Allocates and frees 100 heap arrays of 64 KiB six times and prints the minor
# page faults of each round, after settle_heap when argv[1] is "settle".
HEAP_PROBE = """
import json, resource, sys
import numpy as np
from metalign import runner
settled = runner.settle_heap() if sys.argv[1] == "settle" else None
faults = []
for _ in range(6):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(8192) for _ in range(100)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
print(json.dumps({"settled": settled, "faults": faults}))
"""


class TestRunLoop:
    def test_evaluates_every_eval_every_steps_and_at_the_last(self, tmp_path):
        out = tmp_path / "run"
        summary = run_training(parse_config(base_doc(tmp_path, iterations=7)), str(out))
        lines = [json.loads(line) for line in
                 (out / "metrics.jsonl").read_text().splitlines()]
        for key in ("source_acc", "target_acc"):
            assert [r["iteration"] for r in lines if r[key] is not None] == [2, 5, 6]
        assert summary["final_target_acc"] == lines[-1]["target_acc"]

    def test_abort_at_the_first_step_reports_no_step(self, tmp_path, monkeypatch):
        real_iter = data.batch_iter

        def poisoned(*args, **kwargs):
            batches = real_iter(*args, **kwargs)
            first = next(batches)
            features = first.features.copy()
            features[0, 0, 0] = np.nan
            yield data.PairedBatch(features, first.src_labels)
            yield from batches

        monkeypatch.setattr(data, "batch_iter", poisoned)
        out = tmp_path / "run"
        summary = run_training(parse_config(base_doc(tmp_path)), str(out))
        assert summary["aborted"] is True and summary["steps"] == 0
        assert summary["final_target_acc"] is None and summary["mean_grad_cos"] is None
        assert (out / "metrics.jsonl").read_text() == ""

    @pytest.mark.parametrize("clamped_at", [(), (1, 4)])
    def test_warns_with_the_count_of_clamped_steps(self, tmp_path, monkeypatch, caplog,
                                                   clamped_at):
        step, calls = optim.joint_step, []

        def clamping(*args, **kwargs):
            rec = step(*args, **kwargs)
            rec.clamped = len(calls) in clamped_at
            calls.append(rec.clamped)
            return rec

        monkeypatch.setattr(optim, "joint_step", clamping)
        with caplog.at_level("WARNING", logger="metalign"):
            run_training(parse_config(base_doc(tmp_path)), str(tmp_path / "run"))
        assert len(calls) == 6
        warned = [r.getMessage() for r in caplog.records if "clamped" in r.getMessage()]
        assert warned == ([f"discriminator outputs were clamped in {len(clamped_at)} steps"]
                          if clamped_at else [])


class TestSettleHeap:
    @staticmethod
    def probe(mode: str) -> dict:
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run([sys.executable, "-c", HEAP_PROBE, mode], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        return json.loads(proc.stdout)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_freed_heap_is_reused_without_faults(self):
        # glibc's default trims the freed top of the heap, so every round
        # faults about 1500 pages in again; settled, only the first round does
        default, settled = self.probe("default"), self.probe("settle")
        assert min(default["faults"][1:]) > 1000
        assert settled["settled"] is True
        assert settled["faults"][0] > 1000 and max(settled["faults"][1:]) < 20

    @pytest.mark.parametrize("returns, settled", [((1, 1), True), ((0, 1), False),
                                                  ((1, 0), False)])
    def test_sets_trim_and_mmap_thresholds(self, monkeypatch, returns, settled):
        """malloc.h's M_TRIM_THRESHOLD (-1) goes to -1 (off), then
        M_MMAP_THRESHOLD (-3) to 32 MiB; a first call that fails skips the
        second, and settle_heap reports whether both took."""
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return returns[len(calls) - 1]

        monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: Libc)
        assert runner.settle_heap() is settled
        assert calls == [(-1, -1), (-3, 32 * 1024 * 1024)][:1 + returns[0]]

    def test_without_mallopt_reports_false(self, monkeypatch):
        monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: object())
        assert runner.settle_heap() is False

    def test_run_training_settles_heap(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "settle_heap", lambda: calls.append(1))
        run_training(parse_config(base_doc(tmp_path, iterations=1)))
        assert calls == [1]


RUN_PATH_MODULES = ["metalign", "metalign.analysis", "metalign.checkpoint",
                    "metalign.config", "metalign.data", "metalign.losses", "metalign.nn",
                    "metalign.optim", "metalign.runner", "metalign.tensor"]


def test_run_path_imports_only_its_modules():
    """Every run pays for importing the run path (and compiling it, where no
    bytecode is cached), so a module joins it only through an edit here."""
    code = ("import json, sys; from metalign import data, runner; print(json.dumps("
            "sorted(m for m in sys.modules if m.split('.')[0] == 'metalign')))")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == RUN_PATH_MODULES


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

    @pytest.mark.parametrize("seeds", ["1,-1", "1.5", "1,x", "2,true"],
                             ids=["negative", "float", "word", "bool"])
    def test_invalid_seed_rejected_before_any_run(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--seeds", seeds, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and err["detail"].startswith("seed must be")
        assert not out.exists()


    @pytest.mark.parametrize("fault", ["batch_size", "groups"])
    def test_config_rejected_after_parse_leaves_no_directory(self, tmp_path, capsys,
                                                             monkeypatch, fault):
        use_cpus(monkeypatch, 2)  # the caller and a forked worker both reject it
        cfg = write_config(tmp_path, cross_key_fault(tmp_path, fault))
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--seeds", "1,2", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize("unreadable", ["directory", "not_utf8", "long_field"])
    def test_unreadable_csv_named_by_run_and_sweep(self, tmp_path, capsys, monkeypatch,
                                                   unreadable):
        use_cpus(monkeypatch, 2)  # the caller and a forked worker both reject it
        good = tmp_path / "tgt.csv"
        good.write_text("feature_0,label,domain\n0.5,0,target\n-0.5,1,target\n")
        bad = tmp_path / "src.csv"
        if unreadable == "directory":
            bad.mkdir()
        elif unreadable == "not_utf8":
            bad.write_bytes(b"feature_0,label,domain\n0.5,0,sour\xffce\n")
        else:
            bad.write_text("feature_0,label,domain\n" + "1" * 200_000 + ",0,source\n")
        doc = base_doc(tmp_path, batch_size=1)
        doc["dataset"] = {"source_csv": str(bad), "target_csv": str(good)}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        for argv in (["run", cfg], ["sweep", cfg, "--seeds", "1,2", "--out", str(out)]):
            assert main(argv) == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "config" and str(bad) in err["detail"]
        assert not (tmp_path / "run").exists() and not out.exists()

    @pytest.mark.parametrize("source", ["csv", "generator"])
    def test_single_class_source_named_by_run_and_sweep(self, tmp_path, capsys,
                                                        monkeypatch, source):
        use_cpus(monkeypatch, 2)  # the caller and a forked worker both reject it
        doc = base_doc(tmp_path, batch_size=1)
        if source == "csv":
            src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
            src.write_text("feature_0,label,domain\n0.5,0,source\n-0.5,0,source\n")
            tgt.write_text("feature_0,label,domain\n0.5,0,target\n-0.5,1,target\n")
            doc["dataset"] = {"source_csv": str(src), "target_csv": str(tgt)}
            named = str(src)
        else:
            doc["dataset"] = {"generator": "gaussian_shift", "n": 1}
            named = "gaussian_shift"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        for argv in (["run", cfg], ["sweep", cfg, "--seeds", "1,2", "--out", str(out)]):
            assert main(argv) == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "config" and named in err["detail"]
        assert not (tmp_path / "run").exists() and not out.exists()


def use_cpus(monkeypatch, n):
    """Make n CPUs usable as runner sees them, so a sweep forks n - 1 workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def tree_bytes(root):
    """Every file under root by relative path, with its bytes."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_workers = pytest.mark.skipif(
    not hasattr(os, "fork") or runner.blas_threads() is None,
    reason="a sweep forks workers only with os.fork and a BLAS thread setter")


@pytest.fixture
def blas_count():
    """Set the BLAS thread count for a test; the count before comes back after."""
    get, put = runner.blas_threads()
    before = get()
    yield put
    put(before)


def sweep_doc(tmp_path):
    doc = base_doc(tmp_path, iterations=8)
    doc["strategy"] = {"kind": "metaalign", "role_policy": "alternate"}
    return doc


class TestWorkerPlumbing:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
    @pytest.mark.parametrize("n_seeds, cpus, workers", [(1, 4, 1), (2, 4, 2), (3, 4, 3),
                                                        (8, 4, 4), (8, 1, 1)])
    def test_sweep_workers_one_per_cpu_at_most_one_per_seed(self, monkeypatch, n_seeds,
                                                            cpus, workers):
        asked = []
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: asked.append(pid) or set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(runner, "blas_threads", lambda: (None, None))
        assert runner.sweep_workers(n_seeds) == workers
        assert asked == ([] if n_seeds < 2 else [0])  # this process's own mask

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
    @pytest.mark.parametrize("fd_ok, code", [(True, 0), (False, 1)], ids=["done", "raised"])
    def test_worker_exit_status(self, tmp_path, fd_ok, code):
        """A worker exits 0 when its share is done, 1 when its body raised."""
        cfg = parse_config(base_doc(tmp_path))
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            try:
                runner._worker(cfg, [], str(tmp_path), write_fd if fd_ok else -1)
            finally:
                os._exit(99)  # _worker must never return
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            assert pipe.read() == b""
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == code

    def test_worker_results_fail_seeds_of_a_clean_exit_that_left_them_unreported(self):
        assert runner._worker_results([5], b"", 0) == {
            5: {"error": "WorkerError: the worker running seed 5 exited with status 0"}}

    @pytest.mark.parametrize("name", [b"Haswell", None])
    def test_blas_core_names_the_chosen_core_or_none(self, monkeypatch, name):
        monkeypatch.setattr(runner, "_openblas",
                            lambda *args: None if name is None else (lambda: name))
        assert runner.blas_core() == (None if name is None else name.decode())

    @pytest.mark.skipif(runner.blas_threads() is None, reason="numpy links no OpenBLAS")
    def test_finds_openblas_where_numpy_keeps_its_core_in_np_core(self, monkeypatch):
        """NumPy 1.x has no np._core; its extension module is np.core's."""
        ext = next(m for name, m in sys.modules.items()
                   if name.endswith("._multiarray_umath"))
        monkeypatch.setattr(runner, "np", types.SimpleNamespace(
            core=types.SimpleNamespace(_multiarray_umath=ext)))
        assert runner.blas_threads() is not None


@needs_workers
class TestParallelSweep:
    @pytest.mark.parametrize("seeds", [[5, 1, 3], [2, 7, 4, 6]],
                             ids=["3_seeds", "4_seeds"])
    def test_byte_identical_to_serial(self, tmp_path, monkeypatch, blas_count, seeds):
        cfg = parse_config(sweep_doc(tmp_path))
        use_cpus(monkeypatch, 1)
        blas_count(2)  # the serial sweep keeps the caller's BLAS threads
        serial = run_sweep(cfg, seeds, str(tmp_path / "serial"))
        use_cpus(monkeypatch, 2)
        parallel = run_sweep(cfg, seeds, str(tmp_path / "parallel"))
        assert_no_child_left()
        assert parallel == serial
        assert [s["seed"] for s in parallel["per_seed"]] == seeds
        assert parallel["failed_seeds"] == [] and parallel["aborted_seeds"] == []
        a, b = tree_bytes(tmp_path / "serial"), tree_bytes(tmp_path / "parallel")
        names = {"aggregate.json"} | {f"seed_{s}/{f}" for s in seeds for f in
                                      ("metrics.jsonl", "summary.json",
                                       "checkpoint.npz")}
        assert set(a) == names and a == b

    @pytest.mark.parametrize("case", ["one_seed", "one_cpu", "no_fork", "no_blas_setter"])
    def test_serial_path_forks_nothing(self, tmp_path, monkeypatch, case):
        def fork():
            raise AssertionError("os.fork called")
        use_cpus(monkeypatch, 1 if case == "one_cpu" else 2)
        seeds = [4] if case == "one_seed" else [4, 8]
        if case == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", fork)
        if case == "no_blas_setter":
            monkeypatch.setattr(runner, "blas_threads", lambda: None)
        agg = run_sweep(parse_config(base_doc(tmp_path, iterations=2)), seeds,
                        str(tmp_path / "sweep"))
        assert [s["seed"] for s in agg["per_seed"]] == seeds

    def test_workers_run_one_blas_thread_and_caller_gets_its_count_back(
            self, tmp_path, monkeypatch, blas_count):
        """Every step runs at one BLAS thread: in a forked worker, in the
        caller's share of a sweep and in a run of its own."""
        get, _ = runner.blas_threads()
        blas_count(2)
        seen = tmp_path / "threads"
        step = optim.joint_step

        def recording(*args, **kwargs):
            with open(seen, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {get()}\n")
            return step(*args, **kwargs)

        monkeypatch.setattr(optim, "joint_step", recording)
        use_cpus(monkeypatch, 2)
        doc = base_doc(tmp_path, iterations=2)
        run_sweep(parse_config(doc), [1, 2, 3], str(tmp_path / "sweep"))
        assert_no_child_left()
        assert get() == 2
        run_training(parse_config(doc), str(tmp_path / "run"))
        lines = [line.split() for line in seen.read_text().splitlines()]
        assert len(lines) == 8  # four runs of two steps
        assert {threads for _, threads in lines} == {"1"}
        assert len({pid for pid, _ in lines}) == 2  # the caller and one worker
        assert get() == 2

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_raising_seed_is_failed_and_others_finish(self, tmp_path, monkeypatch,
                                                      capsys, where):
        # with two workers the caller runs seeds 1 and 3, the forked worker seed 2
        bad = 3 if where == "caller" else 2
        doc = sweep_doc(tmp_path)
        cfg_path = write_config(tmp_path, doc)
        use_cpus(monkeypatch, 2)
        run_sweep(parse_config(doc), [1, 2, 3], str(tmp_path / "clean"))
        train = runner.run_training

        def failing(cfg, out_dir=None):
            if cfg.seed == bad:
                raise RuntimeError("boom")
            return train(cfg, out_dir)

        monkeypatch.setattr(runner, "run_training", failing)
        out = tmp_path / "sweep"
        assert main(["sweep", cfg_path, "--seeds", "1,2,3", "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] \
            == "failed"
        assert_no_child_left()
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["failed_seeds"] == [{"seed": bad, "error": "RuntimeError: boom"}]
        good = [s for s in (1, 2, 3) if s != bad]
        assert [s["seed"] for s in agg["per_seed"]] == good
        assert agg["final_target_acc"]["mean"] == float(
            np.mean([s["final_target_acc"] for s in agg["per_seed"]]))
        clean = tree_bytes(tmp_path / "clean")
        got = tree_bytes(out)
        assert {k for k in got if k != "aggregate.json"} == \
            {k for k in clean if k.split("/")[0] in {f"seed_{s}" for s in good}}
        assert all(got[k] == clean[k] for k in got if k != "aggregate.json")
        # the serial sweep records the same failure in the same bytes
        use_cpus(monkeypatch, 1)
        run_sweep(parse_config(doc), [1, 2, 3], str(tmp_path / "serial"))
        assert (tmp_path / "serial" / "aggregate.json").read_bytes() == \
            (out / "aggregate.json").read_bytes()

    @pytest.mark.parametrize("death", ["sigkill", "exit_status"])
    def test_dead_worker_fails_only_its_unreported_seeds(self, tmp_path, monkeypatch,
                                                         death):
        # the worker runs seeds 2 and 4, reports 2, then dies in 4
        cfg = parse_config(sweep_doc(tmp_path))
        use_cpus(monkeypatch, 2)
        run_sweep(cfg, [1, 2, 3, 4], str(tmp_path / "clean"))
        caller, train = os.getpid(), runner.run_training

        def dying(cfg, out_dir=None):
            if cfg.seed == 4 and os.getpid() != caller:
                if death == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(7)
            return train(cfg, out_dir)

        monkeypatch.setattr(runner, "run_training", dying)
        out = tmp_path / "sweep"
        agg = run_sweep(cfg, [1, 2, 3, 4], str(out))
        assert_no_child_left()
        how = (f"killed by signal {int(signal.SIGKILL)}" if death == "sigkill"
               else "exited with status 7")
        assert agg["failed_seeds"] == [
            {"seed": 4, "error": f"WorkerError: the worker running seed 4 {how}"}]
        assert [s["seed"] for s in agg["per_seed"]] == [1, 2, 3]
        clean, got = tree_bytes(tmp_path / "clean"), tree_bytes(out)
        assert {k.split("/")[0] for k in got} == {"aggregate.json", "seed_1", "seed_2",
                                                  "seed_3"}
        assert all(got[k] == clean[k] for k in got if k != "aggregate.json")

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_input_error_ends_the_sweep(self, tmp_path, monkeypatch, where):
        # the caller runs seed 1, the forked worker seed 2
        bad = 1 if where == "caller" else 2
        train = runner.run_training

        def rejecting(cfg, out_dir=None):
            if cfg.seed == bad:
                raise ConfigError(f"model.groups: rejected in the {where}")
            return train(cfg, out_dir)

        monkeypatch.setattr(runner, "run_training", rejecting)
        use_cpus(monkeypatch, 2)
        with pytest.raises(ConfigError, match=f"rejected in the {where}"):
            run_sweep(parse_config(base_doc(tmp_path, iterations=2)), [1, 2],
                      str(tmp_path / "sweep"))
        assert_no_child_left()
        assert not (tmp_path / "sweep" / "aggregate.json").exists()


def shipped_doc(name, **overrides):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        return {**json.load(fh), **overrides}


class TestCmdStudy:
    ARMS = ["joint", "align_train", "cls_train", "alternate"]

    def test_each_arm_is_a_sweep_of_its_document(self, tmp_path):
        doc = shipped_doc("moons_dann_metaalign.json", iterations=3, eval_every=2)
        out = tmp_path / "study"
        assert main(["study", write_config(tmp_path, doc), "--seeds", "1,2",
                     "--out", str(out)]) == 0
        arms = runner.study_arms(parse_config(doc))
        assert [name for name, _ in arms] == self.ARMS
        assert sorted(os.listdir(out)) == sorted(self.ARMS)
        for name, arm in arms:
            assert arm.raw == {**doc, "strategy": arm.raw["strategy"]}
            path = write_config(tmp_path, arm.raw, f"{name}.json")
            assert main(["sweep", path, "--seeds", "1,2",
                         "--out", str(tmp_path / name)]) == 0
            assert tree_bytes(out / name) == tree_bytes(tmp_path / name), name

    def test_alternate_arm_is_a_sweep_of_the_config_itself(self, tmp_path):
        path = write_config(tmp_path, shipped_doc("moons_dann_metaalign.json",
                                                  iterations=3, eval_every=2))
        assert main(["study", path, "--seeds", "1,2",
                     "--out", str(tmp_path / "study")]) == 0
        assert main(["sweep", path, "--seeds", "1,2",
                     "--out", str(tmp_path / "sweep")]) == 0
        got, want = tree_bytes(tmp_path / "study" / "alternate"), \
            tree_bytes(tmp_path / "sweep")
        assert got == want and "seed_1/summary.json" in got

    def test_arm_rejected_before_any_arm_runs(self, tmp_path, capsys):
        doc = base_doc(tmp_path)  # joint parses with meta_lr 0, the meta arms do not
        doc["optimizer"]["meta_lr"] = 0
        out = tmp_path / "study"
        assert main(["study", write_config(tmp_path, doc), "--seeds", "1,2",
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "optimizer.meta_lr" in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["failed", "non_finite"])
    def test_faulty_seed_in_one_arm_exits_3(self, tmp_path, monkeypatch, capsys,
                                            fault):
        train = runner.run_training

        def faulty(cfg, out_dir=None):
            if cfg.strategy.role_policy == "cls_train" and cfg.seed == 2:
                if fault == "failed":
                    raise RuntimeError("boom")
                cfg = replace(cfg, optimizer=replace(cfg.optimizer, lr=1e120,
                                                     momentum=0.0))
            return train(cfg, out_dir)

        monkeypatch.setattr(runner, "run_training", faulty)
        out = tmp_path / "study"
        assert main(["study", write_config(tmp_path, base_doc(tmp_path)),
                     "--seeds", "1,2", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == fault
        assert err["detail"].startswith("cls_train: ") and ";" not in err["detail"]
        shown = json.loads(captured.out)
        assert list(shown) == self.ARMS
        key = "failed_seeds" if fault == "failed" else "aborted_seeds"
        assert [bool(shown[arm][key]) for arm in self.ARMS] == \
            [arm == "cls_train" for arm in self.ARMS]
        assert all((out / arm / "aggregate.json").exists() for arm in self.ARMS)

    @pytest.mark.parametrize("where", ["out", "env"])
    def test_output_directory_rule_is_sweeps(self, tmp_path, monkeypatch, where):
        path = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        monkeypatch.setenv("METALIGN_OUTPUT_DIR", str(tmp_path / "envout"))
        args = ["--out", str(tmp_path / "cli")] if where == "out" else []
        assert main(["study", path, "--seeds", "1", *args]) == 0
        assert main(["sweep", path, "--seeds", "1", *args]) == 0
        root = tmp_path / "cli" if where == "out" else tmp_path / "envout" / "run"
        assert sorted(os.listdir(root)) == sorted(
            self.ARMS + ["aggregate.json", "seed_1"])


class TestAtomicWrites:
    """A write that fails midway leaves neither the final file nor a temp file."""

    @staticmethod
    def failing_after_partial_write(target):
        if isinstance(target, str):  # np.savez also takes a path
            target = open(target, "wb")
        with target:
            target.write(b"{" if "b" in target.mode else "{")
        raise OSError("disk full")

    def test_summary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(json, "dump",
                            lambda doc, fh, **kw: self.failing_after_partial_write(fh))
        with pytest.raises(OSError, match="disk full"):
            run_training(parse_config(base_doc(tmp_path, iterations=2)))
        assert sorted(os.listdir(tmp_path / "run")) == ["metrics.jsonl"]

    def test_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np, "savez",
                            lambda fh, **arrays: self.failing_after_partial_write(fh))
        with pytest.raises(OSError, match="disk full"):
            run_training(parse_config(base_doc(tmp_path, iterations=2)))
        assert sorted(os.listdir(tmp_path / "run")) == ["metrics.jsonl", "summary.json"]

    def test_checkpoint_failure_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, {"w": np.arange(3.0)}, {})
        before = (tmp_path / "ck.npz").read_bytes()
        monkeypatch.setattr(np, "savez",
                            lambda fh, **arrays: self.failing_after_partial_write(fh))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.zeros(3)}, {})
        assert os.listdir(tmp_path) == ["ck.npz"]
        assert (tmp_path / "ck.npz").read_bytes() == before

    def test_aggregate(self, tmp_path, monkeypatch):
        dump = json.dump

        def dump_failing_on_aggregate(doc, fh, **kw):
            if "per_seed" in doc:
                self.failing_after_partial_write(fh)
            dump(doc, fh, **kw)

        monkeypatch.setattr(json, "dump", dump_failing_on_aggregate)
        out = tmp_path / "sweep"
        with pytest.raises(OSError, match="disk full"):
            run_sweep(parse_config(base_doc(tmp_path, iterations=2)), [1], str(out))
        assert sorted(os.listdir(out)) == ["seed_1"]
        assert sorted(os.listdir(out / "seed_1")) == ["checkpoint.npz", "metrics.jsonl",
                                                      "summary.json"]


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

    def test_data_of_another_width_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=3))
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        wide = write_config(tmp_path, shipped_doc("gaussian_mmd_metaalign.json"),
                            "wide.json")
        assert main(["eval", str(tmp_path / "run" / "checkpoint.npz"), wide]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "4 features" in err["detail"] and "takes 2" in err["detail"]

    def test_labels_outside_the_checkpoint_classes_rejected(self, tmp_path, capsys):
        """Source labels the checkpoint's classifier has no logit for exit 2
        as a config fault; cross_entropy no longer checks them every step."""
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=3))
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        doc = shipped_doc("gaussian_mmd_metaalign.json")
        doc["dataset"]["dim"] = 2
        three = write_config(tmp_path, doc, "three.json")
        assert main(["eval", str(tmp_path / "run" / "checkpoint.npz"), three]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "3 classes" in err["detail"] and "has 2" in err["detail"]

    def test_unsupported_version_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(tmp_path, iterations=1))
        assert main(["run", cfg]) == 0
        path = str(tmp_path / "run" / "checkpoint.npz")
        params, _ = load_checkpoint(path)
        np.savez(path, __meta__=np.array(json.dumps({"version": 1})), **params)
        capsys.readouterr()
        assert main(["eval", path, cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "checkpoint" and path in err["detail"]

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


@pytest.fixture(scope="module")
def gradcheck_report():
    return run_gradcheck(seed=0)


class TestCmdGradcheck:
    def test_cli_exit_zero(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "taylor residual" in out
        assert "all checks passed" in out

    def test_corrupted_op_fails_and_is_named(self, gradcheck_report):
        report = gradcheck_report.with_fault("relu")
        assert not report.ok
        assert "relu" in report.failing()

    def test_corrupted_meta_beta_detected(self, gradcheck_report):
        report = gradcheck_report.with_fault("meta_beta_dann_alignment")
        assert not report.ok
        assert "meta_beta_dann_alignment" in report.failing()

    @pytest.mark.parametrize("check", [
        "matmul", "rbf_mean", "mlp_sigmoid", "mlp_three_layer", "grl", "mmd2_rbf",
        "bce_mean_weighted", "mlp_stacked", "softmax", "select1_stacked",
        "cls_loss_mmd",
        "align_disc_dann",
        "meta_theta_dannpe_classification", "meta_beta_closed_form_mmd_alignment",
        "toy_beta_alpha_0.1",
    ])
    def test_negative_control_fails_only_its_check(self, gradcheck_report, check):
        assert gradcheck_report.with_fault(check).failing() == [check]

    def test_every_negative_control_fails_only_its_check(self, gradcheck_report):
        assert gradcheck_report.ok
        names = [r.name for r in gradcheck_report.results]
        assert [n for n in names
                if gradcheck_report.with_fault(n).failing() != [n]] == []
        assert gradcheck_report.ok  # with_fault leaves the report it is called on
        with pytest.raises(KeyError):
            gradcheck_report.with_fault("relu ")

    def test_every_tensor_op_has_a_check(self, gradcheck_report):
        # perfbench's rule for an op: a public function defined in metalign.tensor
        ops = [name for name, obj in vars(T).items()
               if inspect.isfunction(obj) and obj.__module__ == T.__name__
               and not name.startswith("_") and name not in ("backward",
                                                              "finite_diff_grad")]
        checked = {r.name for r in gradcheck_report.results}
        through = {"scale_grad": "grl"}  # nn.grl is scale_grad with a negative factor
        assert [op for op in ops if through.get(op, op) not in checked] == []

    def test_failed_check_exits_4_and_is_named(self, gradcheck_report, capsys,
                                               monkeypatch):
        monkeypatch.setattr(cli, "run_gradcheck",
                            lambda seed: gradcheck_report.with_fault("matmul"))
        assert main(["gradcheck"]) == 4
        assert "FAILED: matmul" in capsys.readouterr().out

    def test_taylor_ratio_above_bound_fails(self, gradcheck_report):
        assert TaylorRow(1e-3, 1e-8, TAYLOR_RATIO_BOUND).ok
        slow = replace(gradcheck_report,
                       taylor=gradcheck_report.taylor + [TaylorRow(1e-3, 1e-8, 0.7)])
        assert not slow.ok
        assert slow.failing()[-1] == "taylor_residual_ratio"

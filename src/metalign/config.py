"""Declarative experiment configuration: JSON documents parsed into
dataclasses, validated fail-fast with unknown keys rejected by name."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from . import losses
from .optim import ROLE_POLICIES


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


def _section(doc: dict, name: str, schema: dict[str, Any], required: tuple = ()) -> dict:
    got = doc.get(name, {})
    if not isinstance(got, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(got) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {name}")
    for key in required:
        if key not in got:
            raise ConfigError(f"missing required key {name}.{key}")
    out = dict(schema)
    out.update(got)
    return out


@dataclass
class DatasetConfig:
    generator: Optional[str]
    params: dict
    source_csv: Optional[str]
    target_csv: Optional[str]


@dataclass
class ModelConfig:
    hidden: list[int]
    groups: Optional[int]
    classifier_hidden: list[int]
    disc_hidden: list[int]
    activation: str
    dropout: float


@dataclass
class VariantConfig:
    name: str
    grl_lambda: float
    sigma: Optional[float]


@dataclass
class OptimizerConfig:
    lr: float
    meta_lr: float
    momentum: float
    weight_decay: float
    budget: Optional[float]


@dataclass
class StrategyConfig:
    kind: str
    role_policy: str


@dataclass
class TrainConfig:
    seed: int
    iterations: int
    batch_size: int
    eval_every: int
    out_dir: str
    standardize: bool
    dataset: DatasetConfig
    model: ModelConfig
    variant: VariantConfig
    optimizer: OptimizerConfig
    strategy: StrategyConfig
    raw: dict = field(default_factory=dict, repr=False)


TOP_KEYS = {"seed", "iterations", "batch_size", "eval_every", "out_dir",
            "standardize", "dataset", "model", "variant", "optimizer", "strategy"}

GENERATORS = ("two_moons", "gaussian_shift")

_DATASET_KEYS = {
    "generator": None, "source_csv": None, "target_csv": None,
    "n_per_domain": 1000, "noise_std": 0.15, "rotation_deg": 45.0,
    "translation": [0.0, 0.0],
    "n": 1000, "num_classes": 3, "dim": 4, "class_sep": 2.0, "mean_shift": 1.0,
}

_GENERATOR_PARAMS = {
    "two_moons": ("n_per_domain", "noise_std", "rotation_deg", "translation"),
    "gaussian_shift": ("n", "num_classes", "dim", "class_sep", "mean_shift"),
}


def parse_config(doc: dict) -> TrainConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} at top level")
    for key in ("seed", "iterations", "batch_size"):
        if key not in doc:
            raise ConfigError(f"missing required key {key}")

    doc = json.loads(json.dumps(doc))  # private copy, kept as cfg.raw

    ds = _section(doc, "dataset", _DATASET_KEYS)
    ds_given = set(doc.get("dataset", {}))
    generator = ds["generator"]
    if generator is None and ds["source_csv"] is None:
        raise ConfigError("dataset needs either generator or source_csv/target_csv")
    if generator is not None:
        if generator not in GENERATORS:
            raise ConfigError(f"unknown generator {generator!r}")
        allowed = {"generator"} | set(_GENERATOR_PARAMS[generator])
        extra = ds_given - allowed
        if extra:
            raise ConfigError(
                f"key {sorted(extra)[0]!r} does not apply to generator {generator!r}")
        params = {k: ds[k] for k in _GENERATOR_PARAMS[generator]}
    else:
        extra = ds_given - {"generator", "source_csv", "target_csv"}
        if extra:
            raise ConfigError(f"key {sorted(extra)[0]!r} does not apply to csv datasets")
        if ds["target_csv"] is None:
            raise ConfigError("missing required key dataset.target_csv")
        params = {}
    dataset = DatasetConfig(generator=generator, params=params,
                            source_csv=ds["source_csv"], target_csv=ds["target_csv"])

    mc = _section(doc, "model", {
        "hidden": [64, 64], "groups": None, "classifier_hidden": [],
        "disc_hidden": [64, 64], "activation": "relu", "dropout": 0.0})
    model = ModelConfig(hidden=list(mc["hidden"]), groups=mc["groups"],
                        classifier_hidden=list(mc["classifier_hidden"]),
                        disc_hidden=list(mc["disc_hidden"]),
                        activation=mc["activation"], dropout=float(mc["dropout"]))
    if not model.hidden:
        raise ConfigError("model.hidden must list at least one layer width")
    if model.groups is not None and model.groups < 1:
        raise ConfigError("model.groups must be >= 1")

    vc = _section(doc, "variant", {"name": "dann", "lambda": 1.0, "sigma": None})
    if vc["name"] not in losses.VARIANTS:
        raise ConfigError(f"unknown variant {vc['name']!r}")
    variant = VariantConfig(name=vc["name"], grl_lambda=float(vc["lambda"]),
                            sigma=vc["sigma"])

    oc = _section(doc, "optimizer", {
        "lr": 0.01, "meta_lr": 0.01, "momentum": 0.9,
        "weight_decay": 5e-4, "budget": None})
    optimizer = OptimizerConfig(lr=float(oc["lr"]), meta_lr=float(oc["meta_lr"]),
                                momentum=float(oc["momentum"]),
                                weight_decay=float(oc["weight_decay"]),
                                budget=oc["budget"])
    if optimizer.lr <= 0:
        raise ConfigError("optimizer.lr must be positive")
    if optimizer.budget is not None and not optimizer.budget > 0:
        raise ConfigError("optimizer.budget must be positive")

    sc = _section(doc, "strategy", {"kind": "joint", "role_policy": "alternate"})
    if sc["kind"] not in ("joint", "metaalign"):
        raise ConfigError(f"unknown strategy kind {sc['kind']!r}")
    if sc["role_policy"] not in ROLE_POLICIES:
        raise ConfigError(f"unknown role_policy {sc['role_policy']!r}")
    strategy = StrategyConfig(kind=sc["kind"], role_policy=sc["role_policy"])
    if strategy.kind == "metaalign" and optimizer.meta_lr <= 0:
        raise ConfigError("strategy.kind=metaalign requires optimizer.meta_lr > 0")

    iterations = int(doc["iterations"])
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    eval_every = int(doc.get("eval_every", 50))
    if eval_every < 1:
        raise ConfigError("eval_every must be >= 1")

    return TrainConfig(
        seed=int(doc["seed"]), iterations=iterations,
        batch_size=int(doc["batch_size"]), eval_every=eval_every,
        out_dir=str(doc.get("out_dir", "runs/run")),
        standardize=bool(doc.get("standardize", True)),
        dataset=dataset, model=model, variant=variant,
        optimizer=optimizer, strategy=strategy, raw=doc)


def load_config(path: str) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(doc)


def config_hash(doc: dict) -> str:
    """Hash of the canonicalized document: stable under key reordering."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

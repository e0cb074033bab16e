"""Declarative experiment configuration: JSON documents parsed into
dataclasses. One table, SCHEMA, gives every key's type, bounds and default;
parse_config walks it, so each error names the offending section.key."""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Optional

from . import data, losses, nn, optim


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


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
    variant: losses.AlignmentVariant
    optimizer: OptimizerConfig
    strategy: StrategyConfig
    raw: dict = field(default_factory=dict, repr=False)


REQUIRED = object()  # the default of a key every document must give

# One row per key: (section, key, type, bounds, default); section "" is the top
# level. Numbers are finite; an int passes as a float, not the reverse, and a
# bool as neither. Bounds: an interval for a number, the allowed names for a
# str, (length, item) bounds for a list of [type]. A None default admits null.
# The generator row comes first: it picks the dataset keys, its keyword
# parameters or, when it is null, the csv pair.
SCHEMA = (
    ("", "seed", int, "[0, inf)", REQUIRED),
    ("", "iterations", int, "[1, inf)", REQUIRED),
    ("", "batch_size", int, "[1, inf)", REQUIRED),
    ("", "eval_every", int, "[1, inf)", 50),
    ("", "out_dir", str, None, "runs/run"),
    ("", "standardize", bool, None, True),
    ("dataset", "generator", str, tuple(data.GENERATORS), None),
    ("dataset", "source_csv", str, None, REQUIRED),
    ("dataset", "target_csv", str, None, REQUIRED),
    ("dataset", "n_per_domain", int, "[2, inf)", 1000),
    ("dataset", "noise_std", float, "[0, inf)", 0.15),
    ("dataset", "rotation_deg", float, None, 45.0),
    ("dataset", "translation", [float], ("[2, 2]", None), [0.0, 0.0]),
    ("dataset", "n", int, "[1, inf)", 1000),
    ("dataset", "num_classes", int, "[2, inf)", 3),
    ("dataset", "dim", int, "[1, inf)", 4),
    ("dataset", "class_sep", float, None, 2.0),
    ("dataset", "mean_shift", float, None, 1.0),
    ("model", "hidden", [int], ("[1, inf)", "[1, inf)"), [64, 64]),
    ("model", "groups", int, "[1, inf)", None),
    ("model", "classifier_hidden", [int], ("[0, inf)", "[1, inf)"), []),
    ("model", "disc_hidden", [int], ("[2, 2]", "[1, inf)"), [64, 64]),
    ("model", "activation", str, tuple(nn._ACTIVATIONS), "relu"),
    ("variant", "name", str, losses.VARIANTS, "dann"),
    ("variant", "lambda", float, "[0, inf)", 1.0),
    ("variant", "sigma", float, "(0, inf)", None),
    ("optimizer", "lr", float, "(0, inf)", 0.01),
    ("optimizer", "meta_lr", float, "[0, inf)", 0.01),
    ("optimizer", "momentum", float, "[0, 1)", 0.9),
    ("optimizer", "weight_decay", float, "[0, inf)", 5e-4),
    ("optimizer", "budget", float, "(0, inf)", None),
    ("strategy", "kind", str, ("joint", "metaalign"), "joint"),
    ("strategy", "role_policy", str, tuple(optim.ROLE_POLICIES), "alternate"),
)

SECTIONS = ("dataset", "model", "variant", "optimizer", "strategy")
_ROWS = {(section, key): row for section, key, *row in SCHEMA}


def _within(v: Any, bounds: Any) -> bool:
    """Whether v lies in bounds: None, a tuple of allowed values or an interval."""
    if bounds is None or isinstance(bounds, tuple):
        return bounds is None or v in bounds
    lo, hi = (float(end) for end in bounds[1:-1].split(","))
    return ((lo <= v if bounds[0] == "[" else lo < v)
            and (v <= hi if bounds[-1] == "]" else v < hi))


def _value(v: Any, typ: Any, bounds: Any) -> Any:
    """v as typ, or None when it has another type or lies outside bounds."""
    if isinstance(typ, list):
        if not isinstance(v, list) or not _within(len(v), bounds[0]):
            return None
        out = [_value(x, typ[0], bounds[1]) for x in v]
        return None if None in out else out
    if typ is float and type(v) is int and abs(v) <= sys.float_info.max:
        v = float(v)  # an int past the float range stays an int and fails below
    if type(v) is not typ or typ is float and not math.isfinite(v):
        return None
    return v if _within(v, bounds) else None


def _describe(typ: Any, bounds: Any) -> str:
    if isinstance(typ, list):
        return f"a list of length in {bounds[0]}, each {_describe(typ[0], bounds[1])}"
    if isinstance(bounds, tuple):
        return "one of " + ", ".join(json.dumps(name) for name in bounds)
    return ({int: "an int", float: "a finite number", bool: "true or false",
             str: "a string"}[typ] + (f" in {bounds}" if bounds else ""))


def check_value(section: str, key: str, v: Any) -> Any:
    """v as the SCHEMA row (section, key) types it, or a ConfigError naming
    section.key (a bare key at top level) when v is outside the row's domain."""
    typ, bounds, default = _ROWS[section, key]
    where = f"{section}.{key}".lstrip(".")
    if v is REQUIRED:
        raise ConfigError(f"missing required key {where}")
    if v is None and default is None:
        return None
    out = _value(v, typ, bounds)
    if out is None:
        null = " or null" if default is None else ""
        raise ConfigError(f"{where} must be {_describe(typ, bounds)}{null}, "
                          f"got {json.dumps(v, default=repr)}")
    return out


def parse_config(doc: Any) -> TrainConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    doc = json.loads(json.dumps(doc))  # private copy, kept as cfg.raw
    values: dict[str, dict] = {section: {} for section in ("", *SECTIONS)}
    for section, key, _, _, default in SCHEMA:
        got = doc.get(section, {}) if section else doc
        if not isinstance(got, dict):
            raise ConfigError(f"{section} must be an object")
        if section == "dataset" and key != "generator" and key not in applies:
            if key in got:
                raise ConfigError(f"dataset.{key} does not apply to {applies_to}")
            continue
        values[section][key] = v = check_value(section, key, got.get(key, default))
        if key == "generator":
            applies = ({"source_csv", "target_csv"} if v is None else
                       inspect.signature(data.GENERATORS[v]).parameters)
            applies_to = f"generator {v!r}" if v else "csv datasets"
    for section, known in values.items():
        got = doc.get(section, {}) if section else doc
        for key in sorted(set(got) - set(known) - set(() if section else SECTIONS)):
            raise ConfigError("unknown key " + f"{section}.{key}".lstrip("."))
    if values["strategy"]["kind"] == "metaalign" and values["optimizer"]["meta_lr"] <= 0:
        raise ConfigError("strategy.kind=metaalign requires optimizer.meta_lr > 0")

    ds, var = values["dataset"], values["variant"]
    var["grl_lambda"] = var.pop("lambda")
    dataset = DatasetConfig(generator=ds.pop("generator"),
                            source_csv=ds.pop("source_csv", None),
                            target_csv=ds.pop("target_csv", None), params=ds)
    return TrainConfig(
        **values[""], dataset=dataset, model=ModelConfig(**values["model"]),
        variant=losses.AlignmentVariant(**var),
        optimizer=OptimizerConfig(**values["optimizer"]),
        strategy=StrategyConfig(**values["strategy"]), raw=doc)


def load_config(path: str) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise ConfigError(f"cannot read config file {path}: {reason}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    return parse_config(doc)


def config_hash(doc: dict) -> str:
    """Hash of the canonicalized document: stable under key reordering."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

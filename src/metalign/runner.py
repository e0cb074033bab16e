"""Experiment execution: dataset/model construction from a TrainConfig, the
training loop with metric streaming, and multi-seed sweeps."""

from __future__ import annotations

import json
import logging
import os
from dataclasses import replace
from typing import Optional

import numpy as np

from . import analysis, data, losses, nn, optim
from .checkpoint import save_checkpoint, write_atomic
from .config import ConfigError, TrainConfig, check_value, config_hash
from .losses import AlignmentVariant
from .optim import NonFiniteError, OptimState

log = logging.getLogger("metalign")


def derive_seed(base: int, key: int) -> int:
    """Stable per-purpose seed derivation from the experiment seed."""
    ss = np.random.SeedSequence(entropy=base, spawn_key=(key,))
    return int(ss.generate_state(1)[0])


def build_datasets(cfg: TrainConfig) -> tuple[data.Dataset, data.Dataset]:
    dc = cfg.dataset
    if dc.generator is not None:
        src, tgt = data.GENERATORS[dc.generator](**dc.params,
                                                 seed=derive_seed(cfg.seed, 0))
    else:
        src = data.load_csv(dc.source_csv)
        tgt = data.load_csv(dc.target_csv)
        if src.domain != data.SOURCE or tgt.domain != data.TARGET:
            raise ConfigError("source_csv/target_csv domain tags are swapped")
        if src.dim != tgt.dim:
            raise ConfigError("source and target feature dimensions differ")
    if cfg.standardize:
        scaler = data.Standardizer(src)
        src, tgt = scaler.apply(src), scaler.apply(tgt)
    return src, tgt


def build_bundle(cfg: TrainConfig, input_dim: int, num_classes: int,
                 init_seed: int) -> tuple[nn.ModelBundle, AlignmentVariant]:
    mc = cfg.model
    extractor = nn.FeatureExtractor([input_dim, *mc.hidden], activation=mc.activation)
    num_groups = mc.groups
    if num_groups is None:
        num_groups = nn.default_group_count(len(extractor.layers))
    try:
        groups = nn.group_params(extractor, num_groups)
    except ValueError as e:
        raise ConfigError(f"model.groups: {e}") from None
    classifier = nn.ClassifierHead(extractor.out_dim, num_classes,
                                   hidden=mc.classifier_hidden,
                                   activation=mc.activation)
    variant = AlignmentVariant(name=cfg.variant.name,
                               grl_lambda=cfg.variant.grl_lambda,
                               sigma=cfg.variant.sigma)
    discriminator = None
    if variant.adversarial:
        in_dim = num_classes if variant.name == losses.DANNPE else extractor.out_dim
        discriminator = nn.DomainDiscriminator(in_dim, hidden=mc.disc_hidden)
    budget = cfg.optimizer.budget
    bundle = nn.ModelBundle(
        extractor=extractor, classifier=classifier, discriminator=discriminator,
        group_weights=nn.GroupWeights.init(num_groups, budget), groups=groups)
    nn.init_params(bundle, init_seed)
    return bundle, variant


def resolve_sigma(bundle: nn.ModelBundle, variant: AlignmentVariant,
                  batch: data.PairedBatch) -> None:
    """Median-heuristic bandwidth from the first batch's features, then frozen."""
    if variant.name != losses.MMD or variant.sigma is not None:
        return
    from .tensor import Tensor
    fs = bundle.extractor.forward(Tensor(batch.src_features)).values
    ft = bundle.extractor.forward(Tensor(batch.tgt_features)).values
    variant.sigma = losses.median_sq_dist(fs, ft)
    log.info("resolved mmd bandwidth sigma=%.6g", variant.sigma)


def run_training(cfg: TrainConfig, out_dir: Optional[str] = None) -> dict:
    """Execute one configured run; returns the summary dict it also writes."""
    out = out_dir or cfg.out_dir
    src, tgt = build_datasets(cfg)
    if cfg.batch_size > min(len(src.features), len(tgt.features)):
        raise ConfigError("batch_size exceeds the smaller domain size")
    bundle, variant = build_bundle(cfg, src.dim, src.num_classes,
                                   init_seed=derive_seed(cfg.seed, 1))
    state = OptimState(lr=cfg.optimizer.lr, meta_lr=cfg.optimizer.meta_lr,
                       momentum=cfg.optimizer.momentum,
                       weight_decay=cfg.optimizer.weight_decay)
    # only once every config check has passed: a rejected config leaves no directory
    os.makedirs(out, exist_ok=True)

    epochs = (cfg.iterations * cfg.batch_size) // len(src.features) + 2
    batches = data.batch_iter(src, tgt, cfg.batch_size,
                              seed=derive_seed(cfg.seed, 2), epochs=epochs)

    run_doc = {**cfg.raw, "seed": cfg.seed}
    records: list[analysis.MetricsRecord] = []
    aborted = False
    steps_done = 0
    clamp_steps = 0

    with open(os.path.join(out, "metrics.jsonl"), "w", encoding="utf-8") as sink:
        for it in range(cfg.iterations):
            batch = next(batches)
            if it == 0:
                resolve_sigma(bundle, variant, batch)
            try:
                if cfg.strategy.kind == "joint":
                    report = optim.joint_step(bundle, batch, variant, state)
                else:
                    role = optim.role_schedule(cfg.strategy.role_policy, it)
                    report = optim.metaalign_step(bundle, batch, variant, state, role)
            except NonFiniteError as e:
                log.error("aborting at iteration %d: %s", it, e)
                aborted = True
                break
            steps_done = it + 1
            clamp_steps += int(report.clamped)

            rec = analysis.MetricsRecord(
                iteration=it, L_cls=report.L_cls, L_dom_cls=report.L_dom_cls,
                L_dom=report.L_dom, L_beta=report.L_beta, L_total=report.L_total,
                grad_dot_total=report.grad_dot_total, grad_cos=report.grad_cos,
                grad_dot_per_group=report.grad_dot_per_group, beta=report.beta)
            if (it + 1) % cfg.eval_every == 0 or it == cfg.iterations - 1:
                rec.source_acc = analysis.evaluate(bundle.extractor,
                                                   bundle.classifier, src)
                rec.target_acc = analysis.evaluate(bundle.extractor,
                                                   bundle.classifier, tgt)
            analysis.record_metrics(sink, rec)
            records.append(rec)

    if clamp_steps:
        log.warning("discriminator outputs were clamped in %d steps", clamp_steps)

    final_acc = None
    for rec in reversed(records):
        if rec.target_acc is not None:
            final_acc = rec.target_acc
            break

    summary = {
        "config_hash": config_hash(run_doc),
        "final_target_acc": final_acc,
        "mean_grad_cos": analysis.mean_grad_cos(records),
        "steps": steps_done,
        "aborted": aborted,
    }
    write_atomic(os.path.join(out, "summary.json"), lambda fh: _dump_json(summary, fh))

    meta = {"config": run_doc, "input_dim": src.dim, "num_classes": src.num_classes}
    save_checkpoint(os.path.join(out, "checkpoint.npz"), bundle.all_params(), meta)
    return summary


def run_sweep(cfg: TrainConfig, seeds: list[int],
              out_dir: Optional[str] = None) -> dict:
    """Independent per-seed runs plus a mean/std aggregate over completions."""
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    seeds = [check_value("", "seed", s) for s in seeds]
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ConfigError(f"seed {repeated[0]} is listed more than once")
    base = out_dir or cfg.out_dir
    per_seed: list[dict] = []
    aborted_seeds: list[int] = []
    for seed in seeds:
        run_cfg = replace(cfg, seed=seed)
        summary = run_training(run_cfg, os.path.join(base, f"seed_{seed}"))
        summary = {"seed": seed, **summary}
        per_seed.append(summary)
        if summary["aborted"]:
            aborted_seeds.append(seed)

    done = [s for s in per_seed if not s["aborted"]]

    def agg(key: str) -> dict:
        vals = [s[key] for s in done if s[key] is not None]
        if not vals:
            return {"mean": None, "std": None}
        return {"mean": float(np.mean(vals)), "std": float(np.std(vals))}

    aggregate = {
        "seeds": seeds,
        "per_seed": per_seed,
        "final_target_acc": agg("final_target_acc"),
        "mean_grad_cos": agg("mean_grad_cos"),
        "aborted_seeds": aborted_seeds,
    }
    os.makedirs(base, exist_ok=True)
    write_atomic(os.path.join(base, "aggregate.json"),
                 lambda fh: _dump_json(aggregate, fh))
    return aggregate


def _dump_json(doc: dict, fh) -> None:
    json.dump(doc, fh, indent=2)
    fh.write("\n")

"""Experiment execution: dataset/model construction from a TrainConfig, the
training loop with metric streaming, multi-seed sweeps and the arms of the
directional experiment."""

from __future__ import annotations

import ctypes
import json
import logging
import os
import signal
import sys
from dataclasses import replace
from typing import Iterator, Optional

import numpy as np

from . import analysis, data, losses, nn, optim
from .checkpoint import save_checkpoint, write_atomic
from .config import (ConfigError, TrainConfig, check_value, config_hash,
                     parse_config)
from .losses import AlignmentVariant
from .optim import NonFiniteError
from .tensor import Tensor

log = logging.getLogger("metalign")

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# the ceiling of glibc's own adaptive mmap threshold on 64-bit builds
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024


def settle_heap() -> bool:
    """Keep the memory a training step frees in the process heap.

    Every step allocates and frees its whole tape, about 1 MB on the moons
    configs and several MB on the MMD config at batch 256. With glibc's
    default settings free() hands the top of the heap back to the kernel once
    more than the trim threshold lies free there, and whether a step's arrays
    end up there depends on allocation order: in some runs every step then
    faults about 190 pages in again and the run slows by up to a quarter.
    Turning the trim off and fixing the mmap threshold at the ceiling glibc's
    adaptive rule would reach makes that cost the same in every run; arrays
    above 32 MB are still mapped and unmapped on their own. The heap then
    keeps its high-water mark until the process exits. Returns whether the
    settings were applied: False where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, -1)
                and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES))


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
    if src.num_classes < 2:  # the classifier's log_softmax needs two logits
        where = dc.source_csv if dc.generator is None else f"generator {dc.generator!r}"
        raise ConfigError(f"the source domain from {where} holds fewer than 2 classes")
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
        num_groups = nn.default_group_count(len(extractor.ids))
    try:
        groups = nn.group_params(extractor, num_groups)
    except ValueError as e:
        raise ConfigError(f"model.groups: {e}") from None
    classifier = nn.ClassifierHead(extractor.out_dim, num_classes,
                                   hidden=mc.classifier_hidden,
                                   activation=mc.activation)
    variant = replace(cfg.variant)  # resolve_sigma writes to it; seeds share cfg
    discriminator = None
    if variant.adversarial:
        in_dim = num_classes if variant.name == losses.DANNPE else extractor.out_dim
        discriminator = nn.DomainDiscriminator(in_dim, hidden=mc.disc_hidden)
    budget = cfg.optimizer.budget
    bundle = nn.ModelBundle(
        extractor=extractor, classifier=classifier, discriminator=discriminator,
        groups=groups, budget=float(num_groups) if budget is None else budget)
    nn.init_params(bundle, init_seed)
    return bundle, variant


def resolve_sigma(bundle: nn.ModelBundle, variant: AlignmentVariant,
                  batch: data.PairedBatch) -> None:
    """Median-heuristic bandwidth from the first batch's features, then frozen."""
    if variant.name != losses.MMD or variant.sigma is not None:
        return
    feats = bundle.extractor.forward(Tensor(batch.features), bundle.params()).values
    variant.sigma = losses.median_sq_dist(*feats)
    log.info("resolved mmd bandwidth sigma=%.6g", variant.sigma)


def run_training(cfg: TrainConfig, out_dir: Optional[str] = None) -> dict:
    """Execute one configured run; returns the summary dict it also writes.
    BLAS runs one thread for the whole run, as under some kernels (OpenBLAS's
    Nehalem) a product's bits change with the thread count."""
    blas = blas_threads()
    if blas is None:
        return _train(cfg, out_dir)
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        return _train(cfg, out_dir)
    finally:
        set_threads(threads)


def _train(cfg: TrainConfig, out_dir: Optional[str]) -> dict:
    settle_heap()
    out = out_dir or cfg.out_dir
    src, tgt = build_datasets(cfg)
    if cfg.batch_size > min(len(src.features), len(tgt.features)):
        raise ConfigError("batch_size exceeds the smaller domain size")
    bundle, variant = build_bundle(cfg, src.dim, src.num_classes,
                                   init_seed=derive_seed(cfg.seed, 1))
    # only once every config check has passed: a rejected config leaves no directory
    os.makedirs(out, exist_ok=True)

    epochs = (cfg.iterations * cfg.batch_size) // len(src.features) + 2
    batches = data.batch_iter(src, tgt, cfg.batch_size,
                              seed=derive_seed(cfg.seed, 2), epochs=epochs)

    run_doc = {**cfg.raw, "seed": cfg.seed}
    cycle = (None if cfg.strategy.kind == "joint"
             else optim.ROLE_POLICIES[cfg.strategy.role_policy])
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
                if cycle is None:
                    rec = optim.joint_step(bundle, batch, variant, cfg.optimizer)
                else:
                    rec = optim.metaalign_step(bundle, batch, variant, cfg.optimizer,
                                               cycle[it % len(cycle)])
            except NonFiniteError as e:
                log.error("aborting at iteration %d: %s", it, e)
                aborted = True
                break
            steps_done = it + 1
            clamp_steps += rec.clamped
            rec.iteration = it
            if (it + 1) % cfg.eval_every == 0 or it == cfg.iterations - 1:
                rec.source_acc = analysis.evaluate(bundle, src)
                rec.target_acc = analysis.evaluate(bundle, tgt)
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


def study_arms(cfg: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The arms of the directional experiment on cfg: the joint baseline, named
    "joint", then the meta step under each role policy, named by the policy.

    Each arm is cfg's document with only its strategy section replaced. Every
    arm is parsed here, so a document that one arm rejects fails before any
    arm runs.
    """
    strategies = [("joint", {"kind": "joint"})] + [
        (policy, {"kind": "metaalign", "role_policy": policy})
        for policy in optim.ROLE_POLICIES]
    return [(name, parse_config({**cfg.raw, "strategy": strategy}))
            for name, strategy in strategies]


# Faults of the sweep's input, raised before a run creates its directory and
# the same for every seed: they end the sweep instead of failing one seed.
_INPUT_ERRORS = (ConfigError, data.CsvFormatError)


def _openblas(name: str, restype, *argtypes):
    """The OpenBLAS function name (say "get_num_threads") that numpy links,
    typed with restype and argtypes, or None.

    Looked up by name in numpy's own extension module: the scipy-openblas
    wheels export the symbols with a 64_ suffix, older builds without one.
    """
    try:
        umath = getattr(np, "_core", None) or np.core
        lib = ctypes.CDLL(umath._multiarray_umath.__file__)
    except (AttributeError, OSError, TypeError):
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        fn = getattr(lib, f"{prefix}{name}{suffix}", None)
        if fn is not None:
            fn.argtypes, fn.restype = list(argtypes), restype
            return fn
    return None


def blas_threads():
    """(getter, setter) of the thread count of the OpenBLAS numpy links, or None."""
    get = _openblas("get_num_threads", ctypes.c_int)
    put = _openblas("set_num_threads", None, ctypes.c_int)
    return None if get is None or put is None else (get, put)


def blas_core() -> Optional[str]:
    """The CPU core OpenBLAS chose its kernels for (say "SkylakeX"), or None."""
    name = _openblas("get_corename", ctypes.c_char_p)
    return None if name is None else name().decode()


def sweep_workers(n_seeds: int) -> int:
    """How many processes share a sweep of n_seeds: one per usable CPU, at
    most one per seed, and 1 where there is no fork or no BLAS thread setter
    (two processes with a multi-threaded BLAS each would oversubscribe)."""
    if n_seeds < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    workers = min(n_seeds, len(os.sched_getaffinity(0)))
    return workers if workers > 1 and blas_threads() is not None else 1


def _run_share(cfg: TrainConfig, seeds: list[int], base: str) -> Iterator[tuple]:
    """Run seeds one after another, yielding (seed, result) for each. An input
    fault propagates; any other exception fails only its seed."""
    for seed in seeds:
        try:
            summary = run_training(replace(cfg, seed=seed),
                                   os.path.join(base, f"seed_{seed}"))
        except _INPUT_ERRORS:
            raise
        except Exception as e:  # one bad seed must not lose the sweep
            log.exception("seed %d failed", seed)
            yield seed, {"error": f"{type(e).__name__}: {e}"}
        else:
            yield seed, {"summary": summary}


def _worker(cfg: TrainConfig, seeds: list[int], base: str, fd: int) -> None:
    """Body of a forked worker: one JSON line per seed on fd, then _exit.

    os._exit keeps the parent's atexit handlers, test teardown and stdio
    buffers from running a second time in the child.
    """
    code = 1
    try:
        with os.fdopen(fd, "wb") as pipe:
            def send(seed, result):
                pipe.write(json.dumps([seed, result]).encode() + b"\n")
                pipe.flush()  # the line is out before the next seed starts
            try:
                for seed, result in _run_share(cfg, seeds, base):
                    send(seed, result)
            except _INPUT_ERRORS as e:
                send(None, {"input_error": [type(e).__name__, str(e)]})
        code = 0
    finally:
        os._exit(code)


def _worker_results(seeds: list[int], out: bytes, status: int) -> dict:
    """A finished worker's results by seed, from its pipe output and wait
    status; a seed it did not report (it died by a signal or a non-zero
    exit) is failed, and an input fault it reported is raised here."""
    # a line cut short by the worker's death has no newline and is dropped
    lines = [json.loads(line) for line in out.split(b"\n")[:-1]]
    for seed, result in lines:
        if seed is None:
            name, message = result["input_error"]
            raise {c.__name__: c for c in _INPUT_ERRORS}[name](message)
    results = dict(lines)
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
    for seed in seeds:
        results.setdefault(seed, {"error": f"WorkerError: the worker running "
                                           f"seed {seed} {how}"})
    return results


def _run_seeds(cfg: TrainConfig, seeds: list[int], base: str) -> dict:
    """Every seed's result, from sweep_workers(len(seeds)) processes.

    The caller is worker 0 and runs seeds[0::W]; worker k is a forked child
    that runs seeds[k::W], so the same process runs the same seeds every
    time. Each run sets its own BLAS thread count (run_training).
    """
    workers = sweep_workers(len(seeds))
    children: list[tuple] = []  # (pid, read end of its pipe, its seeds), not yet reaped
    try:
        # flushed now, so that a worker's logging does not write the caller's
        # pending output a second time
        sys.stdout.flush()
        sys.stderr.flush()
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _worker(cfg, seeds[k::workers], base, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), seeds[k::workers]))
        # a worker's lines (about 200 bytes a seed) wait in its pipe until the
        # caller's share is done; past the pipe's 64 KiB the worker waits too
        results = dict(_run_share(cfg, seeds[0::workers], base))
        while children:
            pid, pipe, share = children[0]
            with pipe:
                out = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            results.update(_worker_results(share, out, status))
    finally:
        for pid, pipe, _ in children:  # left only when something raised
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def run_sweep(cfg: TrainConfig, seeds: list[int],
              out_dir: Optional[str] = None) -> dict:
    """Independent per-seed runs plus a mean/std aggregate over completions.

    The seeds run in sweep_workers(len(seeds)) processes, and every file is
    byte-identical to a one-process sweep. A seed whose run raises (an input
    fault aside) or whose worker dies is listed in failed_seeds and, like an
    aborted seed, left out of the means; the other seeds finish.
    """
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    seeds = [check_value("", "seed", s) for s in seeds]
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ConfigError(f"seed {repeated[0]} is listed more than once")
    base = out_dir or cfg.out_dir
    results = _run_seeds(cfg, seeds, base)
    per_seed: list[dict] = []
    aborted_seeds: list[int] = []
    failed_seeds: list[dict] = []
    for seed in seeds:
        result = results[seed]
        if "error" in result:
            failed_seeds.append({"seed": seed, "error": result["error"]})
            continue
        summary = {"seed": seed, **result["summary"]}
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
        "failed_seeds": failed_seeds,
    }
    os.makedirs(base, exist_ok=True)
    write_atomic(os.path.join(base, "aggregate.json"),
                 lambda fh: _dump_json(aggregate, fh))
    return aggregate


def _dump_json(doc: dict, fh) -> None:
    json.dump(doc, fh, indent=2)
    fh.write("\n")

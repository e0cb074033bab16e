"""Command-line experiment runner.

Subcommands: run <config>, gradcheck, sweep <config> --seeds a,b,c,
study <config> --seeds a,b,c (a sweep of each arm of runner.study_arms into
<out>/<arm>), eval <checkpoint> <config>. METALIGN_OUTPUT_DIR overrides the
output directory. Exit codes: 0 ok, 2 config error (for study: in any arm,
before any arm runs), 3 runtime abort (for sweep and study: any seed aborted
or failed), 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

from . import analysis, runner
from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, load_config, parse_config
from .data import CsvFormatError
from .gradcheck import format_report, run_gradcheck

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_CHECK = 4

OUTPUT_ENV = "METALIGN_OUTPUT_DIR"


def _fail(kind: str, detail: str, code: int) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return code


def _out_dir(cfg_out: str, cli_out: Optional[str]) -> str:
    if cli_out:
        return cli_out
    env = os.environ.get(OUTPUT_ENV)
    if env:
        return os.path.join(env, os.path.basename(cfg_out.rstrip("/")) or "run")
    return cfg_out


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        summary = runner.run_training(cfg, _out_dir(cfg.out_dir, args.out))
    except (ConfigError, CsvFormatError, ValueError) as e:
        return _fail("config", str(e), EXIT_CONFIG)
    print(json.dumps(summary))
    if summary["aborted"]:
        return _fail("non_finite", f"run aborted at step {summary['steps']}",
                     EXIT_ABORT)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(seed=args.seed)
    print(format_report(report))
    return EXIT_OK if report.ok else EXIT_CHECK


# what a sweep prints of each aggregate
_HEADLINE = ("seeds", "final_target_acc", "mean_grad_cos", "aborted_seeds",
             "failed_seeds")


def _sweep_arms(args, arms) -> int:
    """Sweep --seeds over each (name, config) that arms makes of the loaded
    config, into <out>/<name>; every arm is made before any runs. Exit 3 names
    each arm with a failed or aborted seed."""
    try:
        # an entry that is not an integer stays text, for the seed rule to name
        seeds = [int(s) if s.strip().removeprefix("-").isdecimal() else s.strip()
                 for s in args.seeds.split(",") if s.strip() != ""]
        cfg = load_config(args.config)
        out = _out_dir(cfg.out_dir, args.out)
        aggregates = {name: runner.run_sweep(arm, seeds, os.path.join(out, name))
                      for name, arm in arms(cfg)}
    except (ConfigError, CsvFormatError, ValueError) as e:
        return _fail("config", str(e), EXIT_CONFIG)
    shown = {name: {k: agg[k] for k in _HEADLINE} for name, agg in aggregates.items()}
    print(json.dumps(shown[""] if "" in shown else shown))  # a sweep's one arm is bare
    faults = []
    for name, agg in aggregates.items():
        failed = [f["seed"] for f in agg["failed_seeds"]]
        if failed or agg["aborted_seeds"]:
            faults.append((f"{name}: " if name else "")
                          + (f"failed seeds: {failed}, " if failed else "")
                          + f"aborted seeds: {agg['aborted_seeds']}")
    if faults:
        kind = ("failed" if any(agg["failed_seeds"] for agg in aggregates.values())
                else "non_finite")
        return _fail(kind, "; ".join(faults), EXIT_ABORT)
    return EXIT_OK


def cmd_sweep(args) -> int:
    return _sweep_arms(args, lambda cfg: [("", cfg)])


def cmd_study(args) -> int:
    return _sweep_arms(args, runner.study_arms)


def _checkpoint_bundle(meta: dict):
    """The model a checkpoint was saved from, rebuilt from its stored config;
    a missing or invalid stored config is a fault of the checkpoint."""
    try:
        cfg = parse_config(meta["config"])
        bundle, _ = runner.build_bundle(cfg, meta["input_dim"], meta["num_classes"],
                                        init_seed=0)
    except KeyError as e:
        raise CheckpointError(f"checkpoint meta block lacks {e.args[0]!r}") from None
    except ConfigError as e:
        raise CheckpointError(f"checkpoint config: {e}") from None
    return bundle


def cmd_eval(args) -> int:
    """The architecture comes from the checkpoint's config, the data from args.config."""
    try:
        cfg = load_config(args.config)
        params, meta = load_checkpoint(args.checkpoint)
        src, tgt = runner.build_datasets(cfg)
        bundle = _checkpoint_bundle(meta)
        target = bundle.all_params()
        for pid in sorted(set(params) | set(target)):
            got = params[pid].shape if pid in params else "missing"
            want = target[pid].shape if pid in target else "missing"
            if got != want:
                raise CheckpointError(
                    f"checkpoint parameter {pid!r} is {got}, its model's is {want}")
        for pid, arr in target.items():
            arr[...] = params[pid]
        if src.dim != bundle.extractor.widths[0]:
            raise ConfigError(f"the config's data has {src.dim} features; the checkpoint's "
                              f"model takes {bundle.extractor.widths[0]}")
        # where labels meet a classifier they did not size: each must be one of its classes
        if src.num_classes > bundle.classifier.num_classes:
            raise ConfigError(f"the config's source data has {src.num_classes} classes; the "
                              f"checkpoint's model has {bundle.classifier.num_classes}")
    except (ConfigError, CsvFormatError, CheckpointError, ValueError) as e:
        kind = "checkpoint" if isinstance(e, CheckpointError) else "config"
        return _fail(kind, str(e), EXIT_CONFIG)
    result = {
        "source_acc": analysis.evaluate(bundle.extractor, bundle.classifier, src),
        "target_acc": analysis.evaluate(bundle.extractor, bundle.classifier, tgt),
    }
    print(json.dumps(result))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metalign",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one training run")
    p_run.add_argument("config", help="path to a JSON config")
    p_run.add_argument("--out", help="output directory override")
    p_run.set_defaults(fn=cmd_run)

    p_gc = sub.add_parser("gradcheck", help="run the gradient verification suite")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(fn=cmd_gradcheck)

    for name, fn, about in (
            ("sweep", cmd_sweep, "run one config over several seeds"),
            ("study", cmd_study, "sweep the joint baseline and the meta step "
                                 "under each role policy")):
        p = sub.add_parser(name, help=about)
        p.add_argument("config")
        p.add_argument("--seeds", required=True, help="comma-separated seed list")
        p.add_argument("--out", help="output directory override")
        p.set_defaults(fn=fn)

    p_ev = sub.add_parser("eval", help="evaluate a checkpoint on a config's data")
    p_ev.add_argument("checkpoint")
    p_ev.add_argument("config")
    p_ev.set_defaults(fn=cmd_eval)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""One set-up sample, in a fresh interpreter so that import time counts.

    python3 perfbench/setup_probe.py DOC.json

Times what a training run does before its first step: importing metalign
(and numpy with it), parse_config, build_datasets, build_bundle, the first
batch and resolve_sigma. Prints {"setup_s": seconds} as its last line.
"""

import json
import os
import sys
import time


def main(doc_path: str) -> None:
    with open(doc_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter()
    from metalign import data, runner
    from metalign.config import parse_config

    cfg = parse_config(doc)
    src, tgt = runner.build_datasets(cfg)
    bundle, variant = runner.build_bundle(cfg, src.dim, src.num_classes,
                                          init_seed=runner.derive_seed(cfg.seed, 1))
    batches = data.batch_iter(src, tgt, cfg.batch_size,
                              seed=runner.derive_seed(cfg.seed, 2), epochs=1)
    runner.resolve_sigma(bundle, variant, next(batches))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main(sys.argv[1])

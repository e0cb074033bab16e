#!/usr/bin/env python3
"""Benchmark of metalign training: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads and metrics are listed in
BENCHMARK.json. With --trace 0 the run is timed with only the step clock
installed and reports the end-to-end metrics; with --trace 1 its units
alternate between untraced and traced with every layer wrapper installed,
and it reports the per-layer metrics. Every run's outputs are gated (see
workloads.gate_run). The last line of stdout is the result as one JSON
object; the lines before it hold the environment record, a readable table
and the details behind each number.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import StepClock, Tracer  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
            for k, v in deps.items() if k in ("blas", "lapack")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                    if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": git_rev(),
    }


def measure_setup(workload, seed: int, repeats: int, work_dir: str) -> list[float]:
    """setup_s samples, each from a fresh interpreter (see setup_probe.py)."""
    doc_path = os.path.join(work_dir, "setup_doc.json")
    seeds = workloads.unit_seeds(workload, seed, 0)
    strategy = workload.arms[0][1] if workload.arms else None
    doc = workloads.make_doc(workload, seeds[0], os.path.join(work_dir, "setup"),
                             strategy=strategy)
    with open(doc_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), doc_path],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def ms_quantiles(samples_ns: list[int]) -> tuple[float, float]:
    arr = np.asarray(samples_ns, dtype=np.float64) / 1e6
    return float(np.median(arr)), float(np.percentile(arr, 90))


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  work_dir: str, setup_repeats: int,
                  iterations: int | None = None) -> tuple[dict, dict]:
    """Run one workload; return (all metrics by name, details)."""
    workload = workloads.WORKLOADS[name]
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    tally = workloads.Tally()
    metrics: dict = {}
    detail: dict = {"workload": name, "seed": seed}

    if not trace:
        setups = measure_setup(workload, seed, setup_repeats, work_dir)
        clock = StepClock()
        with clock.installed():
            workloads.run_for(workload, seed, seconds, work_dir, tally,
                              iterations=iterations)
        if not clock.samples_ns:
            raise RuntimeError("no training step was timed")
        p50, p90 = ms_quantiles(clock.samples_ns)
        metrics.update({
            "step_ms_p50": p50,
            "step_ms_p90": p90,
            "steps_per_s": tally.steps / tally.wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        detail.update(step_samples=len(clock.samples_ns), setup_samples=setups)
    else:
        plain, traced, tracer = StepClock(), StepClock(), Tracer()

        @contextlib.contextmanager
        def alternate(unit: int):
            # Even units untraced, odd units traced, so that both step clocks
            # sample the machine in the same stretch of time.
            if unit % 2 == 0:
                with plain.installed():
                    yield
            else:
                with traced.installed(), tracer.installed():
                    yield

        workloads.run_for(workload, seed, seconds, work_dir, tally,
                          iterations=iterations, instrument=alternate, min_units=2)
        tracer.save(os.path.join(work_dir, f"spans-{name}.npz"))
        metrics.update(tracer.layer_metrics())
        plain_p50 = ms_quantiles(plain.samples_ns)[0]
        traced_p50 = ms_quantiles(traced.samples_ns)[0]
        metrics["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1.0) * 100.0
        detail.update(step_samples=[len(plain.samples_ns), len(traced.samples_ns)],
                      spans=len(tracer.name_id))

    acc = workloads.final_target_acc(tally)
    if acc is None:
        raise RuntimeError("no run finished with a target accuracy")
    metrics["final_target_acc"] = acc
    failed_checks = workloads.failed_checks(workload, tally)
    detail.update(
        correct=not failed_checks, failed_checks=failed_checks,
        attempted=tally.attempted, failed=tally.failed,
        error_rate=tally.failed / tally.attempted, steps=tally.steps,
        wall_s=tally.wall_s, runs_with_acc=len(tally.accs),
        grad_cos_gain=workloads.grad_cos_gain(tally), failures=tally.failures)
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)

    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    env = environment()
    metrics, detail = run_benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace), WORK_DIR, SETUP_REPEATS)
    result = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    with open(os.path.join(WORK_DIR, f"result-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "detail": detail, "result": result}, fh, indent=2)

    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    rows = [(m["name"], metrics[m["name"]], m["unit"]) for m in wanted]
    if not args.trace:
        rows += [("error_rate", detail["error_rate"], "fraction")]
        if detail["grad_cos_gain"] is not None:
            rows += [("grad_cos_gain", detail["grad_cos_gain"], "cos")]
    for metric, value, unit in rows:
        print(f"{args.workload:18s} {metric:34s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Timing wrappers installed from outside the program, and the per-layer
numbers computed from the spans they record.

Wrappers are put where names are bound: ``optim`` imports ``backward`` by
name, ``runner`` imports ``save_checkpoint`` by name and ``nn`` keeps its
activation functions in a table, so every module-level binding of a wrapped
function is pointed at the wrapper. Everything is restored when the ``with``
block that installed it ends.

StepClock times only the calls into ``optim.*_step``; it is the single
instrument of an untraced run. Tracer records a span (name, start, end,
parent) around the public functions listed in ``Tracer.installed``; spans stay
in memory until ``Tracer.save`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from metalign import analysis, checkpoint, data, losses, nn, optim, runner
from metalign import tensor as T

STEP_FUNCTIONS = ("joint_step", "metaalign_step")
NOT_OPS = ("backward", "finite_diff_grad")


def tensor_ops() -> list[str]:
    """Public functions defined in metalign.tensor that build graph nodes."""
    return sorted(name for name, obj in vars(T).items()
                  if inspect.isfunction(obj) and obj.__module__ == T.__name__
                  and not name.startswith("_") and name not in NOT_OPS)


class Patches:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        if attr in vars(owner):
            old = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, old))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def set_item(self, table: dict, key, value) -> None:
        old = table[key]
        self._undo.append(lambda: table.__setitem__(key, old))
        table[key] = value

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class StepClock:
    """Durations in ns of every call into optim.joint_step / metaalign_step."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []

    @contextmanager
    def installed(self):
        patches = Patches()
        clock, samples = time.perf_counter_ns, self.samples_ns
        for attr in STEP_FUNCTIONS:
            fn = getattr(optim, attr)

            def timed(*args, _fn=fn, **kwargs):
                t0 = clock()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    samples.append(clock() - t0)

            patches.set(optim, attr, functools.wraps(fn)(timed))
        try:
            yield self
        finally:
            patches.restore()


class Tracer:
    """In-memory spans around the program's public functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.nodes: dict[int, int] = {}   # backward span -> len(tape.nodes)
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_backward(self, fn):
        nid = self._name("tensor.backward")

        @functools.wraps(fn)
        def traced(loss, *args, **kwargs):
            i = self._open(nid)
            if loss.tape is not None:
                self.nodes[i] = len(loss.tape.nodes)
            try:
                return fn(loss, *args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_batch_iter(self, fn):
        nid = self._name("data.batch")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            batches = fn(*args, **kwargs)

            def timed():
                while True:
                    i = self._open(nid)
                    try:
                        batch = next(batches)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    yield batch

            return timed()

        return traced

    @contextmanager
    def installed(self):
        patches = Patches()
        wrappers: dict = {}   # (id of original, span name) -> wrapper
        originals: dict = {}  # id of original -> (original, wrapper)

        def at(owner, attr: str, name: str, make=None) -> None:
            fn = getattr(owner, attr)
            key = (id(fn), name)
            if key not in wrappers:
                wrappers[key] = make(fn) if make else self.wrap(name, fn)
                originals.setdefault(id(fn), (fn, wrappers[key]))
            patches.set(owner, attr, wrappers[key])

        for op in tensor_ops():
            at(T, op, f"tensor.{op}")
        at(T, "backward", "tensor.backward", self._wrap_backward)
        at(nn.FeatureExtractor, "forward", "nn.extractor_fwd")
        at(nn.ClassifierHead, "forward", "nn.classifier_fwd")
        at(nn.DomainDiscriminator, "forward", "nn.discriminator_fwd")
        at(losses, "alignment_loss", "losses.alignment")
        at(losses, "cross_entropy", "losses.cross_entropy")
        for attr in STEP_FUNCTIONS:
            at(optim, attr, "optim.step")
        at(optim, "virtual_update", "optim.virtual_update")
        at(optim, "sgd_update", "optim.sgd_update")
        at(analysis, "grad_dot", "analysis.grad_dot")
        at(analysis, "evaluate", "analysis.evaluate")
        at(analysis, "record_metrics", "analysis.record_metrics")
        at(data, "batch_iter", "data.batch", self._wrap_batch_iter)
        at(checkpoint, "save_checkpoint", "checkpoint.save")
        for attr in ("run_training", "run_sweep", "build_datasets",
                     "build_bundle", "resolve_sigma"):
            at(runner, attr, f"runner.{attr}")
        self._rebind(patches, originals)
        try:
            yield self
        finally:
            patches.restore()

    @staticmethod
    def _rebind(patches: Patches, originals: dict) -> None:
        """Point every other module-level binding of a wrapped function at its
        wrapper: names imported with ``from ... import`` (optim.backward,
        runner.save_checkpoint) and module-level tables (nn._ACTIVATIONS)."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "metalign"
                                      or modname.startswith("metalign.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    patches.set(module, attr, originals[id(value)][1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if id(entry) in originals and originals[id(entry)][0] is entry:
                            patches.set_item(value, key, originals[id(entry)][1])

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start_ns=np.array(self.start, dtype=np.int64),
                 end_ns=np.array(self.end, dtype=np.int64),
                 parent=np.array(self.parent, dtype=np.int32),
                 backward_span=np.array(list(self.nodes), dtype=np.int64),
                 backward_nodes=np.array(list(self.nodes.values()), dtype=np.int64))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers: self time and calls per step inside optim.*_step,
        phase intervals per step, and per-call or per-run medians outside it."""
        n = len(self.name_id)
        ids = self._ids
        name_id = np.array(self.name_id, dtype=np.int64)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.zeros(n, dtype=np.int64)
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child

        step_id = ids.get("optim.step", -1)
        step_of = [-1] * n  # the step span each span runs under, or -1
        for i, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            step_of[i] = i if nid == step_id else (step_of[p] if p >= 0 else -1)
        step_of = np.array(step_of, dtype=np.int64)
        steps = np.flatnonzero(name_id == step_id)
        n_steps = len(steps)
        if n_steps == 0:
            raise RuntimeError("the traced run timed no training step")

        in_step = step_of >= 0
        self_sum = np.bincount(name_id[in_step], weights=self_ns[in_step],
                               minlength=len(self.names))
        calls = np.bincount(name_id[in_step], minlength=len(self.names))
        all_sum = np.bincount(name_id, weights=dur, minlength=len(self.names))

        def per_step_us(name: str, table=self_sum) -> float:
            return float(table[ids[name]]) / n_steps / 1e3 if name in ids else 0.0

        out: dict[str, float] = {}
        for op in tensor_ops():
            name = f"tensor.{op}"
            out[f"{name}.calls"] = float(calls[ids[name]]) / n_steps
            out[f"{name}.fwd_us"] = per_step_us(name)
        out["tensor.backward_us"] = per_step_us("tensor.backward")
        for key, name in (("nn.extractor_fwd_us", "nn.extractor_fwd"),
                          ("nn.classifier_fwd_us", "nn.classifier_fwd"),
                          ("nn.discriminator_fwd_us", "nn.discriminator_fwd"),
                          ("losses.alignment_us", "losses.alignment"),
                          ("losses.cross_entropy_us", "losses.cross_entropy")):
            out[key] = per_step_us(name)
        out["data.batch_us"] = per_step_us("data.batch", all_sum)
        out["analysis.record_metrics_us"] = per_step_us(
            "analysis.record_metrics", all_sum)
        out.update(self._phases(steps, step_of, name_id, start, end, dur))

        def median_ms(name: str) -> float:
            if name not in ids:
                return 0.0
            return float(np.median(dur[name_id == ids[name]])) / 1e6

        out["analysis.evaluate_ms"] = median_ms("analysis.evaluate")
        out["checkpoint.save_ms"] = median_ms("checkpoint.save")
        out["runner.setup_ms"] = self._setup_ms(steps, name_id, start)
        return out

    def _phases(self, steps, step_of, name_id, start, end, dur) -> dict[str, float]:
        """Split each step at its backward passes: phase k's forward runs up to
        the k-th backward; the virtual update is reported on its own."""
        ids = self._ids
        bwd = ids.get("tensor.backward", -1)
        marks = {"optim.virtual_update": "optim.virtual_update_us",
                 "optim.sgd_update": "optim.sgd_update_us",
                 "analysis.grad_dot": "analysis.grad_dot_us"}
        totals = dict.fromkeys(
            ("optim.phase1_fwd_us", "optim.phase1_bwd_us", "optim.phase2_fwd_us",
             "optim.phase2_bwd_us", "tensor.nodes_phase1", "tensor.nodes_phase2",
             *marks.values()), 0.0)
        mark_ids = {ids[k]: v for k, v in marks.items() if k in ids}
        backwards: dict[int, list[int]] = {int(s): [] for s in steps}
        vu: dict[int, int] = dict.fromkeys(backwards, 0)
        wanted = np.isin(name_id, [bwd, *mark_ids]) & (step_of >= 0)
        for i in np.flatnonzero(wanted):
            nid, s = int(name_id[i]), int(step_of[i])
            if nid == bwd:
                backwards[s].append(int(i))
            elif nid in mark_ids:
                totals[mark_ids[nid]] += dur[i] / 1e3
                if mark_ids[nid] == "optim.virtual_update_us":
                    vu[s] += int(dur[i])
        for s, bws in backwards.items():
            prev_end = start[s]
            for k, b in enumerate(bws[:2], start=1):
                gap = start[b] - prev_end - (vu[s] if k == 2 else 0)
                totals[f"optim.phase{k}_fwd_us"] += gap / 1e3
                totals[f"optim.phase{k}_bwd_us"] += dur[b] / 1e3
                totals[f"tensor.nodes_phase{k}"] += self.nodes.get(b, 0)
                prev_end = end[b]
        return {k: v / len(steps) for k, v in totals.items()}

    def _setup_ms(self, steps, name_id, start) -> float:
        """Median over runs of the time from entering run_training to its
        first training step."""
        run_id = self._ids.get("runner.run_training")
        if run_id is None:
            return 0.0
        step_starts = start[steps]
        setups = []
        for r in np.flatnonzero(name_id == run_id):
            later = step_starts[step_starts >= start[r]]
            if len(later):
                setups.append((later[0] - start[r]) / 1e6)
        return statistics.median(setups) if setups else 0.0

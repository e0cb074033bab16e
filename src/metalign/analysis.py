"""Gradient-consistency measurement, model evaluation, and metric streams."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import IO, Optional

import numpy as np

from .nn import Params
from .tensor import Tensor

NORM_FLOOR = 1e-15


def grad_dot(a: np.ndarray, b: np.ndarray, groups: list[list[slice]],
             dots: Optional[list] = None) -> tuple[float, Optional[float], list[float]]:
    """Dot products of two 1-d gradients laid out alike, per group and
    overall; groups lists each group's slices (ModelBundle.group_slices).

    Returns (total, cosine, per_group). The cosine is None when either
    gradient's norm over the groups is below NORM_FLOOR. Each group's dots
    are summed in slice order from 0.0, or given as dots, the per-group sums
    from the group's first (group_step's): 0.0 + such a sum has the same bits.
    The total is the sum of the per-group dots.
    """
    if dots is None:
        per_group: list[float] = []
        for group in groups:
            d = 0.0
            for at in group:
                d += float(np.dot(a[at], b[at]))
            per_group.append(d)
    else:
        per_group = [0.0 + float(d) for d in dots]
    total = sum(per_group)
    ats = [at for group in groups for at in group]
    na = math.sqrt(sum(float(np.dot(a[at], a[at])) for at in ats))
    nb = math.sqrt(sum(float(np.dot(b[at], b[at])) for at in ats))
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        cos = None
    else:
        cos = min(1.0, max(-1.0, total / (na * nb)))  # guard round-off overshoot
    return total, cos, per_group


def evaluate(extractor, classifier, dataset) -> float:
    """Argmax accuracy; np.argmax ties break toward the lowest class index."""
    params = Params({**extractor.params(), **classifier.params()})
    feats = extractor.forward(Tensor(dataset.features), params)
    logits = classifier.forward(feats, params).values
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == dataset.labels))


@dataclass(kw_only=True)
class MetricsRecord:
    """What one training step reports: its losses and gradient-consistency
    diagnostics, and one JSONL line of the metrics stream. The step builds it;
    the run loop sets iteration and, on eval steps, the accuracies."""

    iteration: Optional[int] = None
    L_cls: float
    L_dom_cls: Optional[float]
    L_dom: float
    L_beta: float
    L_total: float
    grad_dot_total: float
    grad_cos: Optional[float]
    grad_dot_per_group: list[float]
    beta: list[float]
    source_acc: Optional[float] = None
    target_acc: Optional[float] = None
    clamped: bool = False  # the discriminator's outputs were clamped; not streamed

    def to_json(self) -> str:
        # floats go through repr (shortest exact round-trip form); the fields
        # are read in declaration order, without asdict's deep copy
        return json.dumps({name: getattr(self, name) for name in _RECORD_FIELDS})

    @classmethod
    def from_json(cls, line: str) -> "MetricsRecord":
        return cls(**json.loads(line))


_RECORD_FIELDS = tuple(f.name for f in fields(MetricsRecord) if f.name != "clamped")


def record_metrics(sink: IO[str], record: MetricsRecord) -> None:
    """Append one line and flush immediately; I/O failures surface as raised."""
    sink.write(record.to_json() + "\n")
    sink.flush()


def read_metrics(path: str) -> list[MetricsRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(MetricsRecord.from_json(line))
    return out


def mean_grad_cos(records: list[MetricsRecord]) -> Optional[float]:
    vals = [r.grad_cos for r in records if r.grad_cos is not None]
    return float(np.mean(vals)) if vals else None

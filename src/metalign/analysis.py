"""Gradient-consistency measurement, model evaluation, and metric streams."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import IO, Optional

import numpy as np

from .tensor import GradientMap, Tensor

NORM_FLOOR = 1e-15


def grad_dot(a: GradientMap, b: GradientMap,
             groups: list[list[str]]) -> tuple[float, Optional[float], list[float]]:
    """Flattened dot products of two gradient maps, per group and overall.

    Returns (total, cosine, per_group). The cosine is None when either map's
    norm is below NORM_FLOOR. Per-group dots are summed in group order; the
    total is the sum of the per-group dots.
    """
    ids = [pid for group in groups for pid in group]
    if set(ids) != set(a) or set(ids) != set(b):
        raise ValueError("gradient maps must cover exactly the grouped parameter ids")
    per_group: list[float] = []
    for group in groups:
        d = 0.0
        for pid in group:
            d += float(np.dot(a[pid].ravel(), b[pid].ravel()))
        per_group.append(d)
    total = sum(per_group)
    na = math.sqrt(sum(float(np.dot(a[pid].ravel(), a[pid].ravel())) for pid in ids))
    nb = math.sqrt(sum(float(np.dot(b[pid].ravel(), b[pid].ravel())) for pid in ids))
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        cos = None
    else:
        cos = min(1.0, max(-1.0, total / (na * nb)))  # guard round-off overshoot
    return total, cos, per_group


def evaluate(extractor, classifier, dataset) -> float:
    """Argmax accuracy; np.argmax ties break toward the lowest class index."""
    feats = extractor.forward(Tensor(dataset.features))
    logits = classifier.forward(feats).values
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == dataset.labels))


@dataclass
class MetricsRecord:
    """One JSONL line of the metrics stream."""

    iteration: int
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

    def to_json(self) -> str:
        # floats go through repr (shortest exact round-trip form); the fields
        # are read in declaration order, without asdict's deep copy
        return json.dumps({name: getattr(self, name) for name in _RECORD_FIELDS})

    @classmethod
    def from_json(cls, line: str) -> "MetricsRecord":
        return cls(**json.loads(line))


_RECORD_FIELDS = tuple(f.name for f in fields(MetricsRecord))


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

"""Gradient-consistency measurement, model evaluation, and metric streams."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import IO, Optional

import numpy as np

from .tensor import Tensor

NORM_FLOOR = 1e-15


def grad_dot(a: np.ndarray, b: np.ndarray,
             groups: list[list[slice]]) -> tuple[float, Optional[float], list[float]]:
    """Dot products of two 1-d gradients laid out alike, per group and
    overall; groups lists each group's slices (ModelBundle.group_slices).

    Returns (total, cosine, per_group). The cosine is None when either
    gradient's norm over the groups is below NORM_FLOOR. Each group's dot,
    the total of the groups' dots and both squared norms add left to right
    from 0.0, in slice order, as the builtin sum() did before Python 3.12
    compensated it, so the bits do not depend on the Python version. The
    dots are formed here from a and b, so the meta step's beta gradient,
    which group_step's vjp sums on its own, can be checked against them.
    """
    per_group: list[float] = []
    total = na = nb = 0.0
    for group in groups:
        d = 0.0
        for at in group:
            x, y = a[at], b[at]
            d += float(np.dot(x, y))
            na += float(np.dot(x, x))
            nb += float(np.dot(y, y))
        per_group.append(d)
        total += d
    na, nb = math.sqrt(na), math.sqrt(nb)
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        cos = None
    else:
        cos = min(1.0, max(-1.0, total / (na * nb)))  # guard round-off overshoot
    return total, cos, per_group


def evaluate(bundle, dataset) -> float:
    """Argmax accuracy of bundle's extractor and classifier at the live values
    of its flat; np.argmax ties break toward the lowest class index."""
    params = bundle.params()
    feats = bundle.extractor.forward(Tensor(dataset.features), params)
    logits = bundle.classifier.forward(feats, params).values
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


_RECORD_FIELDS = tuple(f.name for f in fields(MetricsRecord) if f.name != "clamped")


def record_metrics(sink: IO[str], record: MetricsRecord) -> None:
    """Append one line and flush immediately; I/O failures surface as raised."""
    sink.write(record.to_json() + "\n")
    sink.flush()


def mean_grad_cos(records: list[MetricsRecord]) -> Optional[float]:
    vals = [r.grad_cos for r in records if r.grad_cos is not None]
    return float(np.mean(vals)) if vals else None

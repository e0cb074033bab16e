"""Synthetic domain-shift generators, CSV ingestion, and paired batching.

All generators are pure functions of their arguments including the seed.
Target labels exist on Dataset for evaluation, but the batching interface
hands step functions a PairedBatch that simply has no target-label field.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

SOURCE = "source"
TARGET = "target"


class CsvFormatError(ValueError):
    """Malformed dataset file; message carries the offending row or column."""


@dataclass
class Dataset:
    features: np.ndarray  # N x d float64
    labels: np.ndarray    # N int64
    domain: str

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be N x d with one label per row")
        if len(self.features) < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        if self.domain not in (SOURCE, TARGET):
            raise ValueError(f"domain must be {SOURCE!r} or {TARGET!r}")

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class PairedBatch:
    """One step's samples, n per domain: features is the 2 x n x d stack of
    the labeled source rows, then the unlabeled target rows."""

    features: np.ndarray
    src_labels: np.ndarray


def gen_two_moons(n_per_domain: int, noise_std: float, rotation_deg: float,
                  translation: tuple[float, float] = (0.0, 0.0), *,
                  seed: int) -> tuple[Dataset, Dataset]:
    """Two interleaving half-circles; the target is the same draw rotated
    about the origin and translated."""
    if n_per_domain < 2:
        raise ValueError("need at least 2 samples per domain")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    n0 = n_per_domain // 2
    n1 = n_per_domain - n0
    t0 = np.linspace(0.0, math.pi, n0, endpoint=False)
    t1 = np.linspace(0.0, math.pi, n1, endpoint=False)
    pts = np.concatenate([
        np.stack([np.cos(t0), np.sin(t0)], axis=1),
        np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1),
    ])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    rng = np.random.default_rng(seed)
    pts = pts + rng.normal(0.0, noise_std, size=pts.shape)  # adds +0.0 at noise_std 0

    phi = math.radians(rotation_deg)
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    shifted = pts @ rot.T + np.asarray(translation, dtype=np.float64)
    return (Dataset(pts, labels, SOURCE), Dataset(shifted, labels.copy(), TARGET))


def gen_gaussian_shift(n: int, num_classes: int, dim: int, class_sep: float,
                       mean_shift: float, seed: int) -> tuple[Dataset, Dataset]:
    """Unit-variance Gaussian class clusters with randomly placed means; the
    target distribution adds mean_shift to every coordinate of each mean."""
    if num_classes < 2 or dim < 1:
        raise ValueError("need num_classes >= 2 and dim >= 1")
    ss = np.random.SeedSequence(seed)
    rng_means, rng_src, rng_tgt = (np.random.default_rng(s) for s in ss.spawn(3))
    means = class_sep * rng_means.standard_normal((num_classes, dim))

    counts = [n // num_classes + (1 if k < n % num_classes else 0)
              for k in range(num_classes)]
    labels = np.concatenate([np.full(c, k, dtype=np.int64)
                             for k, c in enumerate(counts)])

    def draw(rng, offset: float) -> np.ndarray:
        return np.concatenate([
            means[k] + offset + rng.standard_normal((counts[k], dim))
            for k in range(num_classes)])

    src = Dataset(draw(rng_src, 0.0), labels.copy(), SOURCE)
    tgt = Dataset(draw(rng_tgt, mean_shift), labels.copy(), TARGET)
    return src, tgt


# A generator's config keys are its keyword parameters other than seed.
GENERATORS = {"two_moons": gen_two_moons, "gaussian_shift": gen_gaussian_shift}


def load_csv(path: str) -> Dataset:
    """Read one domain's samples; see write_csv for the exact schema."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise CsvFormatError(f"dataset file not found: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        reason = getattr(e, "strerror", None) or e
        raise CsvFormatError(f"cannot read dataset file {path}: {reason}") from None
    reader = iter(rows)
    header = next(reader, None)
    if header is None:
        raise CsvFormatError(f"{path}: empty file")
    dim = len(header) - 2
    expected = [f"feature_{i}" for i in range(dim)] + ["label", "domain"]
    if dim < 1 or header != expected:
        missing = [c for c in ("label", "domain") if c not in header]
        if missing:
            raise CsvFormatError(f"{path}: header missing column {missing[0]!r}")
        raise CsvFormatError(f"{path}: header must be {','.join(expected)}")
    feats, labels, domains = [], [], []
    for i, row in enumerate(reader):
        if len(row) != len(header):
            raise CsvFormatError(f"{path}: row {i} has {len(row)} fields")
        try:
            vals = [float(v) for v in row[:dim]]
            label = int(row[dim])
        except ValueError:
            raise CsvFormatError(f"{path}: row {i} has a non-numeric field") from None
        if any(math.isnan(v) or math.isinf(v) for v in vals):
            raise CsvFormatError(f"{path}: row {i} has a non-finite feature")
        if label < 0:
            raise CsvFormatError(f"{path}: row {i} label out of range")
        if row[dim + 1] not in (SOURCE, TARGET):
            raise CsvFormatError(f"{path}: row {i} domain must be source|target")
        feats.append(vals)
        labels.append(label)
        domains.append(row[dim + 1])
    if not feats:
        raise CsvFormatError(f"{path}: no data rows")
    if len(set(domains)) != 1:
        raise CsvFormatError(f"{path}: mixed domain tags in one file")
    return Dataset(np.array(feats), np.array(labels), domains[0])


def write_csv(dataset: Dataset, path: str) -> None:
    """Schema: feature_0,...,feature_{d-1},label,domain; '.' decimals, UTF-8."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feature_{i}" for i in range(dataset.dim)]
                        + ["label", "domain"])
        for x, y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y), dataset.domain])


class Standardizer:
    """Shift/scale fitted on source features only, applied to both domains."""

    def __init__(self, source: Dataset) -> None:
        self.mean = source.features.mean(axis=0)
        self.std = np.maximum(source.features.std(axis=0), 1e-12)

    def apply(self, dataset: Dataset) -> Dataset:
        feats = (dataset.features - self.mean) / self.std
        return Dataset(feats, dataset.labels.copy(), dataset.domain)


def batch_iter(src: Dataset, tgt: Dataset, batch_size: int, seed: int,
               epochs: int) -> Iterator[PairedBatch]:
    """Paired minibatches, read-only views of one 2 x n_s x d stack per epoch.

    Epoch e is one pass over the source shuffle perm(0, e), paired with
    positions [e*n_s, (e+1)*n_s) of the target stream, which runs through the
    target shuffles perm(1, 0), perm(1, 1), ... one after another; so epoch
    e depends only on the seed and e.
    """
    n_s, n_t = len(src.features), len(tgt.features)
    if batch_size < 1 or batch_size > min(n_s, n_t):
        raise ValueError(f"batch_size must be in [1, {min(n_s, n_t)}]")

    def perm(domain_idx: int, epoch: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(domain_idx, epoch)))
        return rng.permutation(n)

    for epoch in range(epochs):
        order = perm(0, epoch, n_s)
        first, at = divmod(epoch * n_s, n_t)
        last = ((epoch + 1) * n_s - 1) // n_t
        stream = np.concatenate([perm(1, k, n_t) for k in range(first, last + 1)])
        feats = np.stack((src.features[order], tgt.features[stream[at:at + n_s]]))
        labels = src.labels[order]
        feats.flags.writeable = labels.flags.writeable = False
        for a in range(0, n_s, batch_size):
            yield PairedBatch(feats[:, a:a + batch_size], labels[a:a + batch_size])

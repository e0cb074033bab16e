import io
import json
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from metalign import analysis, nn, runner
from metalign import tensor as T
from metalign.analysis import MetricsRecord, grad_dot, evaluate, record_metrics
from metalign.config import load_config
from metalign.data import Dataset, SOURCE
from metalign.tensor import Tape, Tensor, backward

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SHIPPED = sorted(name[:-len(".json")] for name in os.listdir(CONFIGS))


# two groups over 18 entries, parts of 6, and 4 trailing entries no group holds
GROUPS = [[slice(0, 6)], [slice(6, 12), slice(12, 18)]]


def id_keyed_grad_dot(a, b, groups):
    """grad_dot as it was over id -> gradient maps, the reference the slice
    form must match bit for bit; groups list each group's ids."""
    ids = [pid for group in groups for pid in group]
    per_group = []
    for group in groups:
        d = 0.0
        for pid in group:
            d += float(np.dot(a[pid].ravel(), b[pid].ravel()))
        per_group.append(d)
    total = sum(per_group)
    na = math.sqrt(sum(float(np.dot(a[pid].ravel(), a[pid].ravel())) for pid in ids))
    nb = math.sqrt(sum(float(np.dot(b[pid].ravel(), b[pid].ravel())) for pid in ids))
    if na < analysis.NORM_FLOOR or nb < analysis.NORM_FLOOR:
        return total, None, per_group
    return total, min(1.0, max(-1.0, total / (na * nb))), per_group


def bits(result):
    """(total, cos, per_group) with every float as its exact hex form."""
    total, cos, per_group = result
    return (total.hex(), None if cos is None else cos.hex(), [d.hex() for d in per_group])


class TestGradDot:
    def test_self_dot_is_squared_norm_cos_one(self):
        a = np.random.default_rng(0).normal(size=22)
        total, cos, per_group = grad_dot(a, a, GROUPS)
        want = float((a[:18] ** 2).sum())
        assert total == pytest.approx(want, rel=1e-15)
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        groups = [[slice(0, 2)]]
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 5.0])
        total, cos, per_group = grad_dot(a, b, groups)
        assert total == 0.0 and cos == 0.0 and per_group == [0.0]

    def test_matches_flat_vector_oracle(self):
        """Entries outside the groups (the heads and beta) take no part."""
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=22), rng.normal(size=22)
        total, cos, per_group = grad_dot(a, b, GROUPS)
        flat_a, flat_b = a[:18], b[:18]
        assert abs(total - float(flat_a @ flat_b)) < 1e-12
        want_cos = float(flat_a @ flat_b /
                         (np.linalg.norm(flat_a) * np.linalg.norm(flat_b)))
        assert abs(cos - want_cos) < 1e-12

    def test_total_is_sum_of_groups(self):
        rng = np.random.default_rng(2)
        groups = [[slice(0, 6)], [slice(6, 12)], [slice(12, 18)]]
        a, b = rng.normal(size=18), rng.normal(size=18)
        total, _, per_group = grad_dot(a, b, groups)
        assert total == sum(per_group)

    def test_zero_norm_gives_null_cosine(self):
        groups = [[slice(0, 3)]]
        _, cos, _ = grad_dot(np.zeros(3), np.ones(3), groups)
        assert cos is None

    @pytest.mark.parametrize("config", SHIPPED)
    def test_bits_of_the_id_keyed_form_on_a_training_step(self, config, tmp_path,
                                                           monkeypatch):
        """On the gradients of a shipped config's first step, the slice form
        gives the id-keyed form's per_group, total and cos bit for bit, and
        a zero gradient gives cos None in both. A meta step hands it the
        per-group dots group_step's vjp summed; they give the same bits."""
        calls, real = [], analysis.grad_dot

        def recording(a, b, groups, dots=None):
            out = real(a, b, groups, dots)
            calls.append((a.copy(), b.copy(), groups, dots, out))
            return out

        monkeypatch.setattr(analysis, "grad_dot", recording)
        cfg = load_config(os.path.join(CONFIGS, f"{config}.json"))
        runner.run_training(replace(cfg, iterations=1), str(tmp_path))
        (a, b, groups, dots, got), = calls
        assert (dots is None) == (cfg.strategy.kind == "joint")
        ids = [[(m, i) for i in range(len(group))] for m, group in enumerate(groups)]
        by_id = [{(m, i): arr[at] for m, group in enumerate(groups)
                  for i, at in enumerate(group)} for arr in (a, b)]
        assert bits(got) == bits(id_keyed_grad_dot(*by_id, ids))
        assert got[1] is not None and len(got[2]) == len(groups) > 1
        zero = {pid: np.zeros_like(g) for pid, g in by_id[0].items()}
        want = id_keyed_grad_dot(zero, by_id[1], ids)
        assert want[1] is None and bits(real(np.zeros_like(a), b, groups)) == bits(want)

    def test_group_step_sums_give_the_loop_bits_at_a_negative_zero_first_dot(self):
        """Sums from each group's first dot, as group_step's vjp hands them
        to the meta step, give the bits and record bytes of the sums from
        0.0: group 0's first dot is -0.0, and so is each of group 1's."""
        groups = [[slice(0, 1), slice(1, 3)], [slice(3, 4), slice(4, 5)]]
        d = np.array([0.0, 0.5, -2.0, 0.0, -0.0])
        upstream = np.array([-1.5, 3.0, 0.25, -1.0, 2.0])
        tape = Tape()
        p = tape.param(np.array([0.5, 0.75, 1.0, 1.25, 1.5, 1.0, 1.0]), "p")
        sums: list = []
        prime = T.group_step(p, d, 0.25, groups, slice(5, 7), sums)
        g = backward(T.reduce_sum(T.mul(prime, Tensor(upstream))), ["p"])["p"]
        assert [math.copysign(1.0, s) for s in sums] == [1.0, -1.0] and sums[1] == 0.0
        a = np.concatenate([d, [0.0, 0.0]])
        got = grad_dot(a, g, groups, sums)
        by_id = [{(m, i): arr[at] for m, group in enumerate(groups)
                  for i, at in enumerate(group)} for arr in (a, g)]
        ids = [[(m, i) for i in range(len(group))] for m, group in enumerate(groups)]
        assert bits(got) == bits(grad_dot(a, g, groups)) == bits(id_keyed_grad_dot(*by_id, ids))
        record = MetricsRecord(L_cls=1.0, L_dom_cls=None, L_dom=0.0, L_beta=0.0, L_total=1.0,
                               grad_dot_total=got[0], grad_cos=got[1],
                               grad_dot_per_group=got[2], beta=[1.0, 1.0])
        assert '"grad_dot_per_group": [1.0, 0.0]' in record.to_json()


class TestEvaluate:
    def _model(self, k=3):
        extractor = nn.FeatureExtractor([2])  # identity
        classifier = nn.ClassifierHead(2, k)
        return extractor, classifier

    def test_perfect_predictions(self):
        extractor, classifier = self._model(k=2)
        # logits = features @ W: route feature sign straight to the classes
        classifier.layers[0].weight[...] = np.array([[1.0, -1.0], [0.0, 0.0]])
        feats = np.array([[2.0, 0.0], [-2.0, 0.0], [3.0, 0.0]])
        labels = np.array([0, 1, 0])
        ds = Dataset(feats, labels, SOURCE)
        assert evaluate(extractor, classifier, ds) == 1.0

    def test_constant_model_on_balanced_data(self):
        extractor, classifier = self._model(k=4)  # zero weights: constant logits
        n = 400
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(n, 2)), np.repeat(np.arange(4), n // 4),
                     SOURCE)
        acc = evaluate(extractor, classifier, ds)
        # argmax ties resolve to class 0, which holds exactly 1/4 of the labels
        assert acc == pytest.approx(0.25, abs=1e-12)

    def test_monotone_transform_invariance(self):
        extractor, classifier = self._model(k=3)
        rng = np.random.default_rng(4)
        classifier.layers[0].weight[...] = rng.normal(size=(2, 3))
        ds = Dataset(rng.normal(size=(50, 2)), rng.integers(0, 3, size=50), SOURCE)
        base = evaluate(extractor, classifier, ds)
        classifier.layers[0].weight[...] *= 7.0  # positive scaling of logits
        assert evaluate(extractor, classifier, ds) == base
        classifier.layers[0].bias[...] += 3.25  # shared shift
        assert evaluate(extractor, classifier, ds) == base


class TestMetricsStream:
    def _record(self, i=0):
        return MetricsRecord(
            iteration=i, L_cls=0.1 * i + 1 / 3, L_dom_cls=0.5, L_dom=-0.5,
            L_beta=0.0, L_total=1 / 3, grad_dot_total=-0.123456789012345678,
            grad_cos=None, grad_dot_per_group=[0.25, -0.375],
            beta=[1.0, 1.0], source_acc=None, target_acc=0.875)

    def test_two_records_two_parseable_lines(self):
        sink = io.StringIO()
        record_metrics(sink, self._record(0))
        record_metrics(sink, self._record(1))
        lines = sink.getvalue().strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            assert isinstance(json.loads(line), dict)

    def test_round_trip_reconstructs_exactly(self):
        rec = self._record(7)
        back = MetricsRecord.from_json(rec.to_json())
        assert back == rec
        # floats survive bitwise (shortest round-trip serialization)
        assert back.grad_dot_total == rec.grad_dot_total
        assert back.L_cls == rec.L_cls

    STREAMED = ["iteration", "L_cls", "L_dom_cls", "L_dom", "L_beta", "L_total",
                "grad_dot_total", "grad_cos", "grad_dot_per_group", "beta",
                "source_acc", "target_acc"]

    def test_field_names_are_exact(self):
        assert list(json.loads(self._record().to_json())) == self.STREAMED

    def test_clamped_is_not_streamed(self):
        rec = self._record()
        rec.clamped = True
        assert list(json.loads(rec.to_json())) == self.STREAMED

    @pytest.mark.parametrize("i", [0, 3])
    def test_same_json_as_asdict(self, i):
        rec = self._record(i)
        rec.grad_cos = -0.1 * i or None
        streamed = {k: v for k, v in asdict(rec).items() if k != "clamped"}
        assert rec.to_json() == json.dumps(streamed)

    def test_serialization_keeps_full_precision(self):
        # every float parses back to the identical double, i.e. at least 15
        # significant digits of information survive
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
            assert json.loads(json.dumps(x)) == x

    def test_mean_grad_cos_ignores_nulls(self):
        recs = [self._record(i) for i in range(3)]
        recs[1].grad_cos = 0.5
        recs[2].grad_cos = -0.25
        assert analysis.mean_grad_cos(recs) == pytest.approx(0.125)
        assert analysis.mean_grad_cos([self._record()]) is None

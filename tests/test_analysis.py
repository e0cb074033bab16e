import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from metalign import analysis, nn
from metalign.analysis import MetricsRecord, grad_dot, evaluate, record_metrics
from metalign.data import Dataset, SOURCE


def maps(groups, rng):
    a = {pid: rng.normal(size=(3, 2)) for grp in groups for pid in grp}
    b = {pid: rng.normal(size=(3, 2)) for grp in groups for pid in grp}
    return a, b


class TestGradDot:
    def test_self_dot_is_squared_norm_cos_one(self):
        rng = np.random.default_rng(0)
        groups = [["a", "b"], ["c"]]
        a, _ = maps(groups, rng)
        total, cos, per_group = grad_dot(a, a, groups)
        want = sum(float((v ** 2).sum()) for v in a.values())
        assert total == pytest.approx(want, rel=1e-15)
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        groups = [["p"]]
        a = {"p": np.array([1.0, 0.0])}
        b = {"p": np.array([0.0, 5.0])}
        total, cos, per_group = grad_dot(a, b, groups)
        assert total == 0.0 and cos == 0.0 and per_group == [0.0]

    def test_matches_flat_vector_oracle(self):
        rng = np.random.default_rng(1)
        groups = [["a"], ["b", "c"]]
        a, b = maps(groups, rng)
        total, cos, per_group = grad_dot(a, b, groups)
        flat_a = np.concatenate([a[p].ravel() for grp in groups for p in grp])
        flat_b = np.concatenate([b[p].ravel() for grp in groups for p in grp])
        assert abs(total - float(flat_a @ flat_b)) < 1e-12
        want_cos = float(flat_a @ flat_b /
                         (np.linalg.norm(flat_a) * np.linalg.norm(flat_b)))
        assert abs(cos - want_cos) < 1e-12

    def test_total_is_sum_of_groups(self):
        rng = np.random.default_rng(2)
        groups = [["a"], ["b"], ["c"]]
        a, b = maps(groups, rng)
        total, _, per_group = grad_dot(a, b, groups)
        assert total == sum(per_group)

    def test_zero_norm_gives_null_cosine(self):
        groups = [["p"]]
        a = {"p": np.zeros(3)}
        b = {"p": np.ones(3)}
        _, cos, _ = grad_dot(a, b, groups)
        assert cos is None

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grad_dot({"a": np.ones(1)}, {"b": np.ones(1)}, [["a"]])


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

    def test_field_names_are_exact(self):
        keys = list(json.loads(self._record().to_json()))
        assert keys == ["iteration", "L_cls", "L_dom_cls", "L_dom", "L_beta",
                        "L_total", "grad_dot_total", "grad_cos",
                        "grad_dot_per_group", "beta", "source_acc",
                        "target_acc"]

    @pytest.mark.parametrize("i", [0, 3])
    def test_same_json_as_asdict(self, i):
        rec = self._record(i)
        rec.grad_cos = -0.1 * i or None
        assert rec.to_json() == json.dumps(asdict(rec))

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

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


def in_order(values):
    """The sum of floats added left to right from 0.0: the builtin sum()
    before Python 3.12, which compensates it."""
    out = 0.0
    for v in values:
        out += v
    return out


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
    total = in_order(per_group)
    na = math.sqrt(in_order(float(np.dot(a[pid].ravel(), a[pid].ravel())) for pid in ids))
    nb = math.sqrt(in_order(float(np.dot(b[pid].ravel(), b[pid].ravel())) for pid in ids))
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
        assert total == in_order(per_group)

    def test_sums_add_left_to_right_on_every_python(self):
        """The total and both norms add left to right from 0.0, so a sum
        that a compensated sum() (Python 3.12 on) would round otherwise
        keeps the bits it has under Python 3.11."""
        dots = [0.1, 0.2, 0.3, 1e16, -1e16]
        assert math.fsum(dots) == 0.6 and in_order(dots) == 0.0
        groups = [[slice(i, i + 1)] for i in range(5)]
        total, cos, per_group = grad_dot(np.array(dots), np.ones(5), groups)
        assert total == 0.0 and per_group == dots
        # squared norms 1e16, 1, 1: in order 1e16, compensated 1e16 + 2
        a = np.array([1e8, 1.0, -1.0])
        groups = [[slice(0, 1), slice(1, 2)], [slice(2, 3)]]
        total, cos, per_group = grad_dot(a, a, groups)
        assert total == in_order(per_group) == 1e16
        assert math.fsum([1e16, 1.0, 1.0]) == 1e16 + 2.0
        assert cos == 1.0  # na * nb == 1e16 == total: the in-order norms
        b = np.array([1.0, 1e8, 1.0])
        _, cos, _ = grad_dot(a, b, groups)
        assert cos.hex() == (in_order([1e8, 1e8, -1.0]) / 1e16).hex()

    def test_zero_norm_gives_null_cosine(self):
        groups = [[slice(0, 3)]]
        _, cos, _ = grad_dot(np.zeros(3), np.ones(3), groups)
        assert cos is None

    @pytest.mark.parametrize("side", [0, 1])
    def test_norm_floor_is_exclusive(self, side):
        """A norm of exactly NORM_FLOOR gives a cosine, one just under gives None."""
        floor = analysis.NORM_FLOOR
        for norm, want in ((floor, 1.0), (np.nextafter(floor, 0.0), None)):
            pair = [np.ones(1), np.ones(1)]
            pair[side] = np.array([norm])
            assert grad_dot(*pair, [[slice(0, 1)]])[1] == want

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cosine_is_clamped_at_a_round_off_overshoot(self, sign):
        """|total| / (na * nb) rounds to 1 + 2**-52 on this vector; the cosine
        reads +-1.0."""
        a = np.array([14 * 0.1, 1.0, 0.3])
        total, cos, _ = grad_dot(a, sign * a, [[slice(0, 3)]])
        assert abs(total) / math.sqrt(float(np.dot(a, a))) ** 2 > 1.0
        assert cos == sign

    @pytest.mark.parametrize("config", SHIPPED)
    def test_bits_of_the_id_keyed_form_on_a_training_step(self, config, tmp_path,
                                                           monkeypatch):
        """On the gradients of a shipped config's first step, the slice form
        gives the id-keyed form's per_group, total and cos bit for bit, and
        a zero gradient gives cos None in both."""
        calls, real = [], analysis.grad_dot

        def recording(a, b, groups):
            out = real(a, b, groups)
            calls.append((a.copy(), b.copy(), groups, out))
            return out

        monkeypatch.setattr(analysis, "grad_dot", recording)
        cfg = load_config(os.path.join(CONFIGS, f"{config}.json"))
        runner.run_training(replace(cfg, iterations=1), str(tmp_path))
        (a, b, groups, got), = calls
        ids = [[(m, i) for i in range(len(group))] for m, group in enumerate(groups)]
        by_id = [{(m, i): arr[at] for m, group in enumerate(groups)
                  for i, at in enumerate(group)} for arr in (a, b)]
        assert bits(got) == bits(id_keyed_grad_dot(*by_id, ids))
        assert got[1] is not None and len(got[2]) == len(groups) > 1
        zero = {pid: np.zeros_like(g) for pid, g in by_id[0].items()}
        want = id_keyed_grad_dot(zero, by_id[1], ids)
        assert want[1] is None and bits(real(np.zeros_like(a), b, groups)) == bits(want)

    def test_group_step_beta_gradient_at_a_negative_zero_first_dot(self):
        """group_step's vjp sums each group's dots from the first, and its beta
        gradient equals -alpha times grad_dot's sums from 0.0; those keep the
        id-keyed form's bits and record bytes: group 0's first dot is -0.0,
        and so is each of group 1's."""
        groups = [[slice(0, 1), slice(1, 3)], [slice(3, 4), slice(4, 5)]]
        d = np.array([0.0, 0.5, -2.0, 0.0, -0.0])
        upstream = np.array([-1.5, 3.0, 0.25, -1.0, 2.0])
        tape = Tape()
        p = tape.param(np.array([0.5, 0.75, 1.0, 1.25, 1.5, 1.0, 1.0]), "p")
        prime = T.group_step(p, d, 0.25, groups, slice(5, 7))
        g = backward(T.reduce_sum(T.mul(prime, Tensor(upstream))), ["p"])["p"]
        firsts = [float(np.dot(g[at], d[at])) for at in (groups[0][0], *groups[1])]
        assert [math.copysign(1.0, f) for f in firsts] == [-1.0] * 3 and max(firsts) == 0.0
        a = np.concatenate([d, [0.0, 0.0]])
        got = grad_dot(a, g, groups)
        assert list(g[5:7]) == [-0.25 * s for s in got[2]] == [-0.25, 0.0]
        by_id = [{(m, i): arr[at] for m, group in enumerate(groups)
                  for i, at in enumerate(group)} for arr in (a, g)]
        ids = [[(m, i) for i in range(len(group))] for m, group in enumerate(groups)]
        assert bits(got) == bits(id_keyed_grad_dot(*by_id, ids))
        record = MetricsRecord(L_cls=1.0, L_dom_cls=None, L_dom=0.0, L_beta=0.0, L_total=1.0,
                               grad_dot_total=got[0], grad_cos=got[1],
                               grad_dot_per_group=got[2], beta=[1.0, 1.0])
        assert '"grad_dot_per_group": [1.0, 0.0]' in record.to_json()


class TestEvaluate:
    def _model(self, k=3):
        """An identity extractor (one layer, W = I, b = 0) and a zero classifier."""
        extractor = nn.FeatureExtractor([2, 2])
        classifier = nn.ClassifierHead(2, k)
        bundle = nn.ModelBundle(extractor, classifier, None, [list(extractor.shapes)], 1.0)
        bundle.all_params()["G.l0.W"][...] = np.eye(2)
        return bundle

    def test_perfect_predictions(self):
        bundle = self._model(k=2)
        # logits = features @ W: route feature sign straight to the classes
        bundle.all_params()["C.l0.W"][...] = np.array([[1.0, -1.0], [0.0, 0.0]])
        feats = np.array([[2.0, 0.0], [-2.0, 0.0], [3.0, 0.0]])
        labels = np.array([0, 1, 0])
        ds = Dataset(feats, labels, SOURCE)
        assert evaluate(bundle, ds) == 1.0

    def test_constant_model_on_balanced_data(self):
        bundle = self._model(k=4)  # zero weights: constant logits
        n = 400
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(n, 2)), np.repeat(np.arange(4), n // 4),
                     SOURCE)
        acc = evaluate(bundle, ds)
        # argmax ties resolve to class 0, which holds exactly 1/4 of the labels
        assert acc == pytest.approx(0.25, abs=1e-12)

    def test_monotone_transform_invariance(self):
        bundle = self._model(k=3)
        params = bundle.all_params()
        rng = np.random.default_rng(4)
        params["C.l0.W"][...] = rng.normal(size=(2, 3))
        ds = Dataset(rng.normal(size=(50, 2)), rng.integers(0, 3, size=50), SOURCE)
        base = evaluate(bundle, ds)
        params["C.l0.W"][...] *= 7.0  # positive scaling of logits
        assert evaluate(bundle, ds) == base
        params["C.l0.b"][...] += 3.25  # shared shift
        assert evaluate(bundle, ds) == base

    def test_reads_the_live_flat(self):
        """A write to bundle.flat between two calls shows in the second: the
        classifier's bias alone picks the class of every row."""
        bundle = self._model(k=3)
        labels = np.array([0, 1, 1, 2, 2, 2])
        ds = Dataset(np.zeros((6, 2)), labels, SOURCE)
        for k in range(3):
            bundle.flat[bundle.slices["C.l0.b"]] = np.eye(3)[k]
            assert evaluate(bundle, ds) == np.mean(labels == k)


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
        back = MetricsRecord(**json.loads(rec.to_json()))
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
        assert analysis.mean_grad_cos([None, 0.5, -0.25]) == pytest.approx(0.125)
        assert analysis.mean_grad_cos([None]) is None

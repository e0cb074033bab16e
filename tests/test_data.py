import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metalign import data
from metalign.data import (CsvFormatError, Dataset, PairedBatch, Standardizer,
                           batch_iter, gen_gaussian_shift, gen_two_moons,
                           load_csv, write_csv)


class TestTwoMoons:
    def test_identity_transform_matches_source(self):
        src, tgt = gen_two_moons(100, 0.15, rotation_deg=0.0,
                                 translation=(0.0, 0.0), seed=3)
        np.testing.assert_array_equal(src.features, tgt.features)
        np.testing.assert_array_equal(src.labels, tgt.labels)

    def test_bitwise_reproducible(self):
        a = gen_two_moons(50, 0.1, 30.0, (1.0, -2.0), seed=7)
        b = gen_two_moons(50, 0.1, 30.0, (1.0, -2.0), seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    def test_class_balance(self):
        src, _ = gen_two_moons(200, 0.15, 45.0, seed=0)
        counts = np.bincount(src.labels)
        assert list(counts) == [100, 100]

    def test_rotation_increases_cross_domain_distance(self):
        def mean_pairwise(a, b):
            diff = a[:, None, :] - b[None, :, :]
            return float(np.sqrt((diff ** 2).sum(-1)).mean())

        s0, t0 = gen_two_moons(200, 0.15, 0.0, seed=1)
        s45, t45 = gen_two_moons(200, 0.15, 45.0, seed=1)
        assert mean_pairwise(s45.features, t45.features) > \
            mean_pairwise(s0.features, t0.features)

    def test_translation_applied(self):
        _, tgt0 = gen_two_moons(40, 0.0, 0.0, (0.0, 0.0), seed=2)
        _, tgt1 = gen_two_moons(40, 0.0, 0.0, (2.0, -1.0), seed=2)
        np.testing.assert_allclose(tgt1.features - tgt0.features,
                                   np.tile([2.0, -1.0], (40, 1)))

    def test_default_translation_is_zero(self):
        src, tgt = gen_two_moons(40, 0.1, 0.0, seed=4)
        np.testing.assert_array_equal(src.features, tgt.features)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_two_moons(1, 0.1, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_two_moons(10, -0.1, 0.0, seed=0)
        src, tgt = gen_two_moons(2, 0.1, 0.0, seed=0)  # the smallest size allowed
        assert len(src.features) == len(tgt.features) == 2


class TestGaussianShift:
    def test_zero_shift_same_distribution_parameters(self):
        src, tgt = gen_gaussian_shift(2000, 3, 4, class_sep=2.0, mean_shift=0.0,
                                      seed=5)
        for k in range(3):
            sm = src.features[src.labels == k].mean(axis=0)
            tm = tgt.features[tgt.labels == k].mean(axis=0)
            n_k = (src.labels == k).sum()
            assert np.all(np.abs(sm - tm) < 3.0 * math.sqrt(2.0 / n_k) + 0.05)

    def test_target_means_shifted(self):
        shift = 1.5
        src, tgt = gen_gaussian_shift(3000, 3, 4, class_sep=2.0,
                                      mean_shift=shift, seed=6)
        for k in range(3):
            sm = src.features[src.labels == k].mean(axis=0)
            tm = tgt.features[tgt.labels == k].mean(axis=0)
            n_k = (src.labels == k).sum()
            tol = 3.0 * math.sqrt(2.0 / n_k)
            assert np.all(np.abs(tm - sm - shift) < tol)

    def test_labels_uniform_within_one(self):
        src, _ = gen_gaussian_shift(1001, 4, 2, 1.0, 0.0, seed=0)
        counts = np.bincount(src.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a, _ = gen_gaussian_shift(100, 2, 3, 1.0, 0.5, seed=9)
        b, _ = gen_gaussian_shift(100, 2, 3, 1.0, 0.5, seed=9)
        assert np.array_equal(a.features, b.features)

    @pytest.mark.parametrize("num_classes,dim", [(1, 3), (2, 0)])
    def test_validation(self, num_classes, dim):
        with pytest.raises(ValueError, match="num_classes >= 2 and dim >= 1"):
            gen_gaussian_shift(10, num_classes, dim, 1.0, 0.0, seed=0)

    def test_smallest_shape_allowed(self):
        src, tgt = gen_gaussian_shift(4, 2, 1, 1.0, 0.0, seed=0)
        assert src.features.shape == tgt.features.shape == (4, 1)


class TestCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(17, 3)) * 1e3, rng.integers(0, 5, size=17),
                     data.SOURCE)
        path = str(tmp_path / "ds.csv")
        write_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.domain == data.SOURCE

    def test_three_row_file(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text("feature_0,feature_1,label,domain\n"
                     "0.5,1.5,0,source\n-1.0,2.0,1,source\n3.25,0.0,0,source\n")
        ds = load_csv(str(p))
        assert len(ds.features) == 3
        assert ds.num_classes == 2

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,feature_1,domain\n0.5,1.5,source\n")
        with pytest.raises(CsvFormatError, match="header missing column 'label'"):
            load_csv(str(p))

    def test_malformed_row_reports_index(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,label,domain\n0.5,0,source\nxyz,1,source\n")
        with pytest.raises(CsvFormatError, match="row 1"):
            load_csv(str(p))

    def test_nan_feature_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,label,domain\nnan,0,source\n")
        with pytest.raises(CsvFormatError, match="row 0"):
            load_csv(str(p))

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,label,domain\n1.0,-2,source\n")
        with pytest.raises(CsvFormatError, match="label"):
            load_csv(str(p))

    def test_mixed_domains_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,label,domain\n1.0,0,source\n2.0,0,target\n")
        with pytest.raises(CsvFormatError, match="mixed"):
            load_csv(str(p))

    def test_missing_file(self):
        with pytest.raises(CsvFormatError, match="not found"):
            load_csv("/nonexistent/never.csv")

    def test_unreadable_file_names_the_reason(self, tmp_path):
        """The message ends with the OS error's own text where it has one,
        else with the decoder's."""
        with pytest.raises(CsvFormatError, match=r"cannot read dataset file .*: Is a directory$"):
            load_csv(str(tmp_path))
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"feature_0,label,domain\n\xe9,0,source\n")
        with pytest.raises(CsvFormatError, match=r"latin1\.csv: 'utf-8' codec can't decode"):
            load_csv(str(p))


class TestStandardizer:
    def test_fit_on_source_only(self):
        rng = np.random.default_rng(2)
        src = Dataset(rng.normal(3.0, 2.0, size=(500, 2)),
                      np.zeros(500, dtype=int), data.SOURCE)
        tgt = Dataset(rng.normal(-1.0, 0.5, size=(400, 2)),
                      np.zeros(400, dtype=int), data.TARGET)
        sc = Standardizer(src)
        s2, t2 = sc.apply(src), sc.apply(tgt)
        np.testing.assert_allclose(s2.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(s2.features.std(axis=0), 1.0, atol=1e-12)
        # target stays off-center: its statistics were never used
        assert np.all(np.abs(t2.features.mean(axis=0)) > 0.5)


class TestBatchIter:
    def _sets(self, n_s=10, n_t=7, d=2):
        rng = np.random.default_rng(3)
        src = Dataset(rng.normal(size=(n_s, d)),
                      rng.integers(0, 2, size=n_s), data.SOURCE)
        tgt = Dataset(rng.normal(size=(n_t, d)),
                      rng.integers(0, 2, size=n_t), data.TARGET)
        return src, tgt

    def test_same_seed_identical_sequence(self):
        src, tgt = self._sets()
        a = list(batch_iter(src, tgt, 3, seed=1, epochs=2))
        b = list(batch_iter(src, tgt, 3, seed=1, epochs=2))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.features[0], y.features[0])
            assert np.array_equal(x.src_labels, y.src_labels)
            assert np.array_equal(x.features[1], y.features[1])

    def test_one_epoch_source_union_is_dataset(self):
        src, tgt = self._sets()
        rows = []
        for batch in batch_iter(src, tgt, 3, seed=2, epochs=1):
            rows.extend(map(tuple, batch.features[0]))
        assert sorted(rows) == sorted(map(tuple, src.features))

    def test_full_batch_single_chunk(self):
        src, tgt = self._sets(n_s=6, n_t=6)
        batches = list(batch_iter(src, tgt, 6, seed=0, epochs=1))
        assert len(batches) == 1
        assert batches[0].features[0].shape == (6, 2)
        assert batches[0].features[1].shape == (6, 2)

    def test_shorter_target_recycles(self):
        src, tgt = self._sets(n_s=10, n_t=4)
        batches = list(batch_iter(src, tgt, 4, seed=0, epochs=1))
        assert all(b.features[1].shape[0] == b.features[0].shape[0]
                   for b in batches)

    @staticmethod
    def gather_oracle(src, tgt, batch_size, seed, epochs):
        """The batches as they were gathered: target indices collected one by
        one in a list, then every array copied after indexing."""
        def perm(domain_idx, epoch, n):
            return np.random.default_rng(np.random.SeedSequence(
                entropy=seed, spawn_key=(domain_idx, epoch))).permutation(n)

        n_t = len(tgt.features)
        tgt_epoch, tgt_pos = 0, 0
        tgt_order = perm(1, 0, n_t)
        for epoch in range(epochs):
            order = perm(0, epoch, len(src.features))
            for start in range(0, len(order), batch_size):
                idx = order[start:start + batch_size]
                take = []
                while len(take) < len(idx):
                    if tgt_pos == n_t:
                        tgt_epoch += 1
                        tgt_order = perm(1, tgt_epoch, n_t)
                        tgt_pos = 0
                    room = min(len(idx) - len(take), n_t - tgt_pos)
                    take.extend(tgt_order[tgt_pos:tgt_pos + room])
                    tgt_pos += room
                yield (src.features[idx].copy(), src.labels[idx].copy(),
                       tgt.features[np.array(take)].copy())

    @pytest.mark.parametrize("n_s,n_t,bs", [(10, 7, 3), (10, 4, 4), (6, 6, 6), (9, 2, 2),
                                            (4, 10, 3), (5, 15, 5), (3, 7, 3)])
    def test_same_batches_as_list_gather_oracle(self, n_s, n_t, bs):
        src, tgt = self._sets(n_s=n_s, n_t=n_t)
        got = list(batch_iter(src, tgt, bs, seed=5, epochs=7))
        want = list(self.gather_oracle(src, tgt, bs, seed=5, epochs=7))
        assert len(got) == len(want)
        for batch, (xs, ys, xt) in zip(got, want):
            for arr, ref in [(batch.features[0], xs), (batch.src_labels, ys),
                             (batch.features[1], xt)]:
                assert arr.dtype == ref.dtype and np.array_equal(arr, ref)
            for arr, owner in [(batch.features, src.features),
                               (batch.src_labels, src.labels),
                               (batch.features, tgt.features)]:
                assert not arr.flags.writeable and not np.shares_memory(arr, owner)
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0

    def test_batch_size_too_large(self):
        src, tgt = self._sets(n_s=10, n_t=4)
        with pytest.raises(ValueError):
            next(batch_iter(src, tgt, 5, seed=0, epochs=1))

    def test_paired_batch_has_no_target_labels(self):
        assert not hasattr(PairedBatch(np.zeros((2, 1, 1)), np.zeros(1)), "tgt_labels")
        assert "tgt_labels" not in [f for f in PairedBatch.__dataclass_fields__]

    @settings(max_examples=15, deadline=None)
    @given(n_s=st.integers(4, 20), n_t=st.integers(4, 20),
           bs=st.integers(1, 4), seed=st.integers(0, 99))
    def test_every_batch_paired_and_sized(self, n_s, n_t, bs, seed):
        src, tgt = self._sets(n_s=n_s, n_t=n_t)
        for batch in batch_iter(src, tgt, bs, seed=seed, epochs=2):
            assert 1 <= batch.features[0].shape[0] <= bs
            assert batch.features[1].shape[0] == batch.features[0].shape[0]
            assert batch.src_labels.shape[0] == batch.features[0].shape[0]


class TestDatasetValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.array([0]), data.SOURCE)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((1, 1)), np.array([0]), "other")

    @pytest.mark.parametrize("features,labels", [
        (np.ones((3, 2)), np.zeros(2, dtype=int)),  # one label short
        (np.ones(3), np.zeros(3, dtype=int)),       # not N x d
    ], ids=["labels", "ndim"])
    def test_rejects_shape_mismatch(self, features, labels):
        with pytest.raises(ValueError, match="N x d with one label per row"):
            Dataset(features, labels, data.SOURCE)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((0, 2)), np.zeros(0, dtype=int), data.SOURCE)

"""Tests for TraceSet persistence and slicing."""

import numpy as np
import pytest

from repro.ann.trace import IterationRecord, SearchTrace
from repro.workloads import TraceSet


def _trace_set(n=6, seed=0):
    rng = np.random.default_rng(seed)
    iterations = []
    for q in range(n):
        records = []
        for _ in range(int(rng.integers(1, 5))):
            computed = tuple(int(v) for v in rng.integers(0, 100, size=3))
            records.append(
                IterationRecord(entry=int(rng.integers(100)), computed=computed)
            )
        iterations.append(records)
    ids = rng.integers(0, 100, size=(n, 4)).astype(np.int64)
    dists = rng.random(size=(n, 4))
    traces = [
        SearchTrace.from_iterations(
            records, query_id=q, result_ids=i, result_distances=d
        )
        for q, (records, i, d) in enumerate(zip(iterations, ids, dists))
    ]
    return TraceSet(traces=traces, result_ids=ids, result_dists=dists)


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        ts = _trace_set()
        path = tmp_path / "traces.npz"
        ts.save(path)
        loaded = TraceSet.load(path)
        assert len(loaded) == len(ts)
        for a, b in zip(ts.traces, loaded.traces):
            assert a.num_iterations == b.num_iterations
            for ia, ib in zip(a.iterations, b.iterations):
                assert ia == ib
        assert np.array_equal(loaded.result_ids, ts.result_ids)
        assert np.allclose(loaded.result_dists, ts.result_dists)

    def test_empty_iterations_preserved(self, tmp_path):
        t = SearchTrace.from_iterations([IterationRecord(entry=3, computed=())])
        ts = TraceSet(
            traces=[t],
            result_ids=np.zeros((1, 2), dtype=np.int64),
            result_dists=np.zeros((1, 2)),
        )
        path = tmp_path / "t.npz"
        ts.save(path)
        loaded = TraceSet.load(path)
        assert loaded.traces[0].iterations[0].computed == ()


class TestSubset:
    def test_prefix_slice(self):
        ts = _trace_set(8)
        sub = ts.subset(3)
        assert len(sub) == 3
        assert sub.traces[0] is ts.traces[0]
        assert sub.result_ids.shape[0] == 3

    def test_oversized_subset_rejected(self):
        with pytest.raises(ValueError):
            _trace_set(4).subset(10)


class TestStats:
    def test_mean_statistics(self):
        ts = _trace_set()
        assert ts.mean_trace_length() > 0
        assert ts.mean_iterations() >= 1.0


class TestZipfianSampler:
    def test_weights_normalised_and_descending(self):
        from repro.workloads import zipf_weights

        w = zipf_weights(100, exponent=1.0)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) <= 0).all()

    def test_zero_exponent_is_uniform(self):
        from repro.workloads import zipf_weights

        w = zipf_weights(10, exponent=0.0)
        np.testing.assert_allclose(w, 0.1)

    def test_deterministic_given_seed(self):
        from repro.workloads import ZipfianSampler

        a = ZipfianSampler(pool_size=50, exponent=1.0, seed=3).sample(200)
        b = ZipfianSampler(pool_size=50, exponent=1.0, seed=3).sample(200)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 50

    def test_higher_exponent_concentrates_traffic(self):
        from repro.workloads import ZipfianSampler

        def top1_share(exponent):
            ids = ZipfianSampler(
                pool_size=64, exponent=exponent, seed=7
            ).sample(5000)
            _, counts = np.unique(ids, return_counts=True)
            return counts.max() / ids.size

        assert top1_share(1.5) > top1_share(0.5)

    def test_shuffle_decouples_rank_from_index(self):
        from repro.workloads import ZipfianSampler

        ids = ZipfianSampler(pool_size=1000, exponent=2.0, seed=1).sample(2000)
        _, counts = np.unique(ids, return_counts=True)
        hottest = np.bincount(ids, minlength=1000).argmax()
        assert counts.max() > 100  # skew is real
        assert hottest != 0       # but the hottest query is not index 0

    def test_expected_hit_rate_monotone(self):
        from repro.workloads import ZipfianSampler

        s = ZipfianSampler(pool_size=100, exponent=1.0, seed=0)
        rates = [s.expected_hit_rate(n) for n in (0, 1, 10, 100, 200)]
        assert rates[0] == 0.0
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[3] == pytest.approx(1.0)
        assert rates[4] == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        from repro.workloads import ZipfianSampler, zipf_weights

        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(10, exponent=-0.1)
        with pytest.raises(ValueError):
            ZipfianSampler(pool_size=10).sample(-1)

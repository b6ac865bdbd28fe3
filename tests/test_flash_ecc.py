"""Unit tests for the ECC / BER model (paper Fig. 18)."""

import numpy as np
import pytest

from repro.flash.ecc import BERModel, LDPCModel, inject_bit_errors


class TestBERModel:
    def test_plane_count(self):
        model = BERModel(n_planes=512)
        assert model.plane_ber.shape == (512,)

    def test_mean_near_target(self):
        model = BERModel(n_planes=2048, mean_ber=1e-6)
        # Lognormal with sigma 0.45: mean within a factor ~1.2 of median.
        assert 0.7e-6 < model.summary()["median"] < 1.4e-6

    def test_distribution_has_tail(self):
        # The Fig. 18(a) distribution: p95 clearly above the median.
        s = BERModel(n_planes=2048).summary()
        assert s["p95"] > 1.5 * s["median"]

    def test_deterministic_given_seed(self):
        a = BERModel(n_planes=64, seed=1)
        b = BERModel(n_planes=64, seed=1)
        assert np.array_equal(a.plane_ber, b.plane_ber)

    def test_histogram_covers_all_planes(self):
        model = BERModel(n_planes=128)
        counts, _ = model.histogram(bins=10)
        assert counts.sum() == 128

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BERModel(n_planes=0)
        with pytest.raises(ValueError):
            BERModel(n_planes=4, mean_ber=2.0)


class TestLDPCModel:
    def test_zero_failure_prob_never_fails(self):
        model = LDPCModel(hard_failure_prob=0.0)
        assert all(model.decode_page() for _ in range(100))

    def test_certain_failure(self):
        model = LDPCModel(hard_failure_prob=1.0)
        assert not any(model.decode_page() for _ in range(10))

    def test_failure_rate_statistics(self):
        model = LDPCModel(hard_failure_prob=0.3, seed=3)
        failures = sum(1 for _ in range(20000) if not model.decode_page())
        assert failures / 20000 == pytest.approx(0.3, abs=0.02)

    def test_deterministic_replay(self):
        a = LDPCModel(hard_failure_prob=0.5, seed=9)
        b = LDPCModel(hard_failure_prob=0.5, seed=9)
        assert [a.decode_page() for _ in range(50)] == [
            b.decode_page() for _ in range(50)
        ]

    def test_reset_restores_stream(self):
        model = LDPCModel(hard_failure_prob=0.5, seed=9)
        first = [model.decode_page() for _ in range(20)]
        model.reset()
        assert [model.decode_page() for _ in range(20)] == first

    @pytest.mark.parametrize("prob", (0.0, 0.01, 0.5, 1.0))
    @pytest.mark.parametrize(
        "runs",
        ([], [0], [0, 0, 0], [3], [5, 0, 2, 0, 0, 7], [0, 400, 1, 0, 250]),
    )
    def test_decode_runs_equals_successive_decode_pages(self, prob, runs):
        batched = LDPCModel(hard_failure_prob=prob, seed=5)
        serial = LDPCModel(hard_failure_prob=prob, seed=5)
        failures = batched.decode_runs(np.asarray(runs, dtype=np.int64))
        assert failures.dtype == np.int64
        assert failures.tolist() == [serial.decode_pages(n) for n in runs]
        assert batched.reads == serial.reads == sum(runs)
        assert (batched._rng.bit_generator.state
                == serial._rng.bit_generator.state)

    @pytest.mark.parametrize("prob", (0.0, 0.01, 0.5, 1.0))
    def test_decode_runs_interleaves_with_decode_page(self, prob):
        batched = LDPCModel(hard_failure_prob=prob, seed=11)
        serial = LDPCModel(hard_failure_prob=prob, seed=11)
        for runs in ([2, 0, 3], [], [0], [60, 1]):
            assert batched.decode_page() == serial.decode_page()
            got = batched.decode_runs(np.asarray(runs, dtype=np.int64))
            want = [
                sum(not serial.decode_page() for _ in range(n)) for n in runs
            ]
            assert got.tolist() == want
        assert batched.decode_page() == serial.decode_page()
        assert batched.reads == serial.reads
        assert (batched._rng.bit_generator.state
                == serial._rng.bit_generator.state)

    def test_expected_failures(self):
        assert LDPCModel(hard_failure_prob=0.1).expected_failures(100) == 10.0

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            LDPCModel(hard_failure_prob=1.5)


class TestBitErrorInjection:
    def test_error_count_matches_rate(self):
        rng = np.random.default_rng(0)
        page = np.zeros(16384, dtype=np.uint8)
        corrupted, n = inject_bit_errors(page, 1e-3, rng)
        expected = 16384 * 8 * 1e-3
        assert 0.5 * expected < n < 1.5 * expected
        # Flipped bits actually changed the buffer.
        assert int(np.unpackbits(corrupted).sum()) == n

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        page = np.arange(256, dtype=np.uint8)
        corrupted, n = inject_bit_errors(page, 0.0, rng)
        assert n == 0
        assert np.array_equal(corrupted, page)

    def test_requires_uint8(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError):
            inject_bit_errors(np.zeros(8, dtype=np.float32), 0.1, rng)

    def test_original_untouched(self):
        rng = np.random.default_rng(0)
        page = np.zeros(1024, dtype=np.uint8)
        inject_bit_errors(page, 0.05, rng)
        assert page.sum() == 0

"""The shared fixtures are values: no test's draws can change them."""

from __future__ import annotations

import numpy as np


def test_rng_draws_leave_the_fixture_corpus_alone(rng, request):
    rng.normal(size=1000)
    vectors = request.getfixturevalue("small_vectors")
    queries = request.getfixturevalue("small_queries")
    gen = np.random.default_rng(42)
    centers = gen.normal(size=(8, 16))
    assign = gen.integers(0, 8, size=400)
    expected = (centers[assign] + 0.3 * gen.normal(size=(400, 16))).astype(
        np.float32
    )
    picks = gen.integers(0, 400, size=16)
    noise = 0.05 * gen.normal(size=(16, 16)).astype(np.float32)
    np.testing.assert_array_equal(vectors, expected)
    np.testing.assert_array_equal(queries, expected[picks] + noise)


def test_each_test_gets_a_fresh_rng(rng):
    assert rng.integers(0, 2**62) == np.random.default_rng(42).integers(
        0, 2**62
    )

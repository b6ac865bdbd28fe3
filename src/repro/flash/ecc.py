"""ECC model: raw BER injection and LDPC hard/soft decision decoding.

Reproduces the paper's Section IV-C5 and Fig. 18 methodology:

* A plane-level *raw bit-error-rate* (BER) distribution is sampled once
  per device, following the measured lognormal-like spread of
  LDPC-in-SSD [83] around a mean of 1e-6.
* Each in-plane page read is decoded by a *hard-decision* LDPC decoder
  (cheap, pipelined with the array read).  With a configurable failure
  probability the hard decode fails and the read falls back to
  *soft-decision* decoding on the FTL / embedded cores, costing ~10 us
  and stalling the search iteration — exactly the fault-injection knob
  of Fig. 18(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class BERModel:
    """Per-plane raw bit-error-rate statistics (paper Fig. 18a).

    Raw BERs are drawn from a lognormal distribution whose median is
    ``mean_ber`` and whose spread (``sigma``) matches the plane-to-plane
    variation reported in [83]: most planes sit near the typical value
    with a tail of noticeably worse planes.
    """

    n_planes: int
    mean_ber: float = 1e-6
    sigma: float = 0.45
    seed: int = 983
    plane_ber: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_planes <= 0:
            raise ValueError("n_planes must be positive")
        if not 0.0 < self.mean_ber < 1.0:
            raise ValueError("mean_ber must be in (0, 1)")
        rng = np.random.default_rng(self.seed)
        self.plane_ber = self.mean_ber * rng.lognormal(
            mean=0.0, sigma=self.sigma, size=self.n_planes
        )

    def histogram(self, bins: int = 12) -> tuple[np.ndarray, np.ndarray]:
        """Histogram of plane BERs (the Fig. 18a distribution plot)."""
        return np.histogram(self.plane_ber, bins=bins)

    def summary(self) -> dict[str, float]:
        return {
            "mean": float(self.plane_ber.mean()),
            "median": float(np.median(self.plane_ber)),
            "p95": float(np.percentile(self.plane_ber, 95)),
            "max": float(self.plane_ber.max()),
        }


@dataclass
class LDPCModel:
    """Hard/soft-decision LDPC decode model with fault injection.

    ``hard_failure_prob`` is the probability that the in-plane
    hard-decision decoder fails and the page must be re-decoded by the
    soft-decision decoder on the embedded cores.  The paper's default is
    1% (mid-late flash lifetime); Fig. 18(b) sweeps {30, 10, 5, 1}%.

    Failures are drawn from a deterministic counter-based stream so a
    given (seed, read index) always produces the same outcome — this
    keeps the trace-driven simulations reproducible.
    """

    hard_failure_prob: float = 0.01
    seed: int = 7
    _reads: int = field(default=0, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.hard_failure_prob <= 1.0:
            raise ValueError("hard_failure_prob must be in [0, 1]")
        self._rng = np.random.default_rng(self.seed)

    def decode_page(self) -> bool:
        """Decode one page; returns True iff hard decoding succeeded."""
        self._reads += 1
        if self.hard_failure_prob == 0.0:
            return True
        if self.hard_failure_prob == 1.0:
            return False
        return bool(self._rng.random() >= self.hard_failure_prob)

    def decode_pages(self, n: int) -> int:
        """Decode ``n`` pages at once; returns the hard-decode failure count.

        Draws ``n`` variates in one vectorized call.  A numpy Generator
        produces the identical stream for ``rng.random(n)`` and ``n``
        successive ``rng.random()`` calls, so batches of any size
        interleave bit-exactly with :meth:`decode_page`.
        """
        self._reads += n
        if n <= 0 or self.hard_failure_prob == 0.0:
            return 0
        if self.hard_failure_prob == 1.0:
            return n
        return int(
            np.count_nonzero(self._rng.random(n) < self.hard_failure_prob)
        )

    def decode_runs(self, runs: np.ndarray) -> np.ndarray:
        """Decode consecutive runs of pages; returns each run's failures.

        ``runs`` holds non-negative page counts.  One ``rng.random`` call
        draws every run's variates, and each run's failures are counted
        from a cumulative sum, so the stream, the failure counts and
        ``reads`` match one :meth:`decode_pages` call per run.
        """
        runs = np.asarray(runs, dtype=np.int64)
        total = int(runs.sum())
        self._reads += total
        if total <= 0 or self.hard_failure_prob == 0.0:
            return np.zeros_like(runs)
        if self.hard_failure_prob == 1.0:
            return runs.copy()
        failed = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(self._rng.random(total) < self.hard_failure_prob,
                  out=failed[1:])
        ends = np.cumsum(runs)
        return failed[ends] - failed[ends - runs]

    def expected_failures(self, n_reads: int) -> float:
        return n_reads * self.hard_failure_prob

    @property
    def reads(self) -> int:
        return self._reads

    def reset(self) -> None:
        self._reads = 0
        self._rng = np.random.default_rng(self.seed)


def inject_bit_errors(
    page: np.ndarray, ber: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Flip bits in a uint8 page buffer at rate ``ber``.

    Functional-level fault injection used by the ECC unit tests: returns
    the corrupted copy and the number of flipped bits.
    """
    if page.dtype != np.uint8:
        raise TypeError("page must be a uint8 array")
    n_bits = page.size * 8
    n_errors = rng.binomial(n_bits, min(max(ber, 0.0), 1.0))
    if n_errors == 0:
        return page.copy(), 0
    corrupted = page.copy()
    positions = rng.choice(n_bits, size=n_errors, replace=False)
    byte_idx, bit_idx = positions // 8, positions % 8
    np.bitwise_xor.at(corrupted, byte_idx, (1 << bit_idx).astype(np.uint8))
    return corrupted, int(n_errors)
